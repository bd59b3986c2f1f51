// Exhaustive corruption of every checksummed experiment file: cache
// shards, shard tables, the supervisor journal and the quarantine
// manifest. Each is built small from fixed inputs and its bytes are
// pinned, so a format change fails here first. Then every truncation
// length and every single-bit flip is tried: a damaged stream (shard,
// journal) must recover exactly a prefix of its original records, byte
// for byte; a damaged single-frame file (table, manifest) must be
// rejected.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>

#include "common/log.hpp"
#include "exp/result_cache.hpp"
#include "exp/spec_digest.hpp"
#include "exp/supervisor.hpp"
#include "sim/machine_config.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish::exp {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    root_ = fs::temp_directory_path() /
            ("cuttlefish_corruption_test_" + tag + "_" +
             std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~TempDir() { fs::remove_all(root_); }
  std::string path() const { return root_.string(); }
  std::string file(const std::string& name) const {
    return (root_ / name).string();
  }

 private:
  fs::path root_;
};

/// The damaged-shard scans warn once per case; thousands of cases would
/// bury a real failure in noise.
class QuietLog {
 public:
  QuietLog() : saved_(log_level()) { set_log_level(LogLevel::kError); }
  ~QuietLog() { set_log_level(saved_); }

 private:
  LogLevel saved_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string pin(const std::string& bytes) {
  return digest_bytes(bytes.data(), bytes.size()).hex();
}

/// One damaged variant of a file. `offset` is the first byte that no
/// longer matches the original: the cut point of a truncation, or the
/// position of a flipped bit.
struct Damage {
  std::string bytes;
  size_t offset = 0;
  bool truncated = false;
  int bit = 0;

  std::string what() const {
    return truncated ? "truncated to " + std::to_string(offset) + " bytes"
                     : "bit " + std::to_string(bit) + " of byte " +
                           std::to_string(offset) + " flipped";
  }
};

/// Every truncation length, then every single-bit flip; stops at the
/// first failing case so one bug reports once, not thousands of times.
void for_each_damage(const std::string& original,
                     const std::function<void(const Damage&)>& check) {
  for (size_t len = 0; len < original.size(); ++len) {
    check(Damage{original.substr(0, len), len, true, 0});
    if (::testing::Test::HasFailure()) return;
  }
  for (size_t pos = 0; pos < original.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      Damage d{original, pos, false, bit};
      d.bytes[pos] = static_cast<char>(d.bytes[pos] ^ (1 << bit));
      check(d);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

/// Records of a stream that end at or before the damage: exactly the
/// ones a correct scan keeps.
size_t surviving(const std::vector<size_t>& record_ends, size_t offset) {
  return static_cast<size_t>(
      std::upper_bound(record_ends.begin(), record_ends.end(), offset) -
      record_ends.begin());
}

RunResult fixed_result(int i) {
  RunResult r;
  r.time_s = 1.5 + i;
  r.energy_j = 100.25 * (i + 1);
  r.instructions = 1000000 + static_cast<uint64_t>(i);
  TimePoint p;
  p.t = 0.02;
  p.tipi = 0.5 + i;
  p.jpi = 1e-9;
  p.cf = FreqMHz{2300};
  p.uf = FreqMHz{3000};
  r.timeline.push_back(p);
  NodeSummary n;
  n.slab = 6 + i;
  n.ticks = 40;
  n.cf_opt = 2;
  n.uf_opt = 4;
  r.nodes.push_back(n);
  r.stats.ticks = 50 + static_cast<uint64_t>(i);
  r.stats.transitions = 3;
  return r;
}

/// Two real co-simulations (SOR-irt Default + policy): the supervisor's
/// files hold real results, so its formats are pinned on real bytes.
SweepGrid make_grid(const sim::MachineConfig& machine) {
  SweepGrid grid(machine);
  const auto& model = workloads::find_benchmark("SOR-irt");
  const int base =
      grid.add_default("SOR-irt/Default", model, RunOptions{}, 1, 900);
  grid.add_policy("SOR-irt/Cuttlefish", model, core::PolicyKind::kFull,
                  RunOptions{}, 1, 900, base);
  return grid;
}

TEST(Corruption, CacheShardRecoversAnExactPrefix) {
  QuietLog quiet;
  TempDir dir("shard");
  std::vector<RunResult> results;
  std::vector<ResultCache::Insert> batch;
  for (int i = 0; i < 3; ++i) results.push_back(fixed_result(i));
  for (int i = 0; i < 3; ++i) {
    ResultCache::Insert ins;
    ins.digest = SpecDigest{0x1000u + i, 0x2000u + i};
    ins.spec_blob = "spec-" + std::to_string(i);
    ins.result = &results[static_cast<size_t>(i)];
    batch.push_back(ins);
  }
  {
    ResultCache cache(dir.path());
    cache.insert_batch(batch);
  }
  std::string shard;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    ASSERT_TRUE(shard.empty()) << "one batch writes one file";
    shard = e.path().string();
  }
  const std::string original = slurp(shard);
  EXPECT_EQ(pin(original), "a357d3e923225e600e607e0f041bc6c7");

  // 8-byte shard header, then per record: magic, digest, two lengths,
  // spec bytes, result bytes, checksum.
  constexpr size_t kHeader = 8;
  std::vector<size_t> ends;
  size_t end = kHeader;
  for (size_t i = 0; i < batch.size(); ++i) {
    end += 4 + 24 + batch[i].spec_blob.size() +
           encode_result(results[i]).size() + 8;
    ends.push_back(end);
  }
  ASSERT_EQ(end, original.size());

  for_each_damage(original, [&](const Damage& d) {
    spit(shard, d.bytes);
    ResultCache cache(dir.path());
    if (d.offset < kHeader) {
      EXPECT_EQ(cache.stats().shards, 0u) << d.what();
      EXPECT_EQ(cache.size(), 0u) << d.what();
      return;
    }
    const size_t k = surviving(ends, d.offset);
    ASSERT_EQ(cache.size(), k) << d.what();
    for (size_t i = 0; i < k; ++i) {
      ResultCache::EntryView view;
      ASSERT_TRUE(cache.entry(i, &view)) << d.what();
      EXPECT_EQ(view.digest, batch[i].digest) << d.what();
      EXPECT_EQ(view.spec_blob, batch[i].spec_blob) << d.what();
      EXPECT_EQ(encode_result(view.result), encode_result(results[i]))
          << d.what();
    }
    // A cut exactly on a record boundary is a shorter valid shard.
    const bool clean = d.truncated && (d.offset == kHeader ||
                                       (k > 0 && ends[k - 1] == d.offset));
    EXPECT_EQ(cache.stats().skipped_records, clean ? 0u : 1u) << d.what();
  });
}

TEST(Corruption, ShardTableRejectsEveryDamagedFile) {
  TempDir dir("table");
  const std::string path = dir.file("t.tbl");
  ShardTable table;
  table.grid_size = 6;
  table.shard_index = 1;
  table.shard_count = 2;
  for (int i = 0; i < 3; ++i) {
    table.rows.emplace_back(static_cast<uint64_t>(2 * i + 1),
                            fixed_result(i));
  }
  ASSERT_TRUE(save_shard_table(path, table));
  const std::string original = slurp(path);
  EXPECT_EQ(pin(original), "a3658cd22a3bcd3b18cbaba0b93a2922");

  ShardTable back;
  std::string error;
  ASSERT_TRUE(load_shard_table(path, &back, &error)) << error;
  ASSERT_EQ(back.rows.size(), table.rows.size());
  for (size_t i = 0; i < back.rows.size(); ++i) {
    EXPECT_EQ(back.rows[i].first, table.rows[i].first);
    EXPECT_EQ(encode_result(back.rows[i].second),
              encode_result(table.rows[i].second));
  }

  for_each_damage(original, [&](const Damage& d) {
    spit(path, d.bytes);
    error.clear();
    EXPECT_FALSE(load_shard_table(path, &back, &error)) << d.what();
    EXPECT_FALSE(error.empty()) << d.what();
  });
}

TEST(Corruption, JournalRecoversAnExactPrefix) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("journal");
  {
    SupervisorReport report;
    SweepSupervisor(grid, dir.path()).run(&report);
    ASSERT_TRUE(report.completed);
  }
  const std::string journal = dir.file(kJournalFileName);
  const std::string original = slurp(journal);
  EXPECT_EQ(pin(original), "7ca86aecdab60d7d9cbb33cff95434ef");

  // Header: magic, version, grid digest, grid size, checksum. Records
  // (one worker, so in spec order): magic, spec, attempt, length, result
  // bytes, checksum.
  constexpr size_t kHeader = 4 + 4 + 16 + 8 + 8;
  std::vector<size_t> ends;
  size_t end = kHeader;
  for (const RunResult& r : oracle) {
    end += 4 + 8 + 4 + 4 + encode_result(r).size() + 8;
    ends.push_back(end);
  }
  ASSERT_EQ(end, original.size());

  for_each_damage(original, [&](const Damage& d) {
    spit(journal, d.bytes);
    const JournalStatus status = read_journal_status(dir.path());
    ASSERT_TRUE(status.journal_present) << d.what();
    if (d.offset < kHeader) {
      EXPECT_FALSE(status.valid) << d.what();
      EXPECT_NE(status.error.find(journal), std::string::npos)
          << d.what() << ": " << status.error;
      return;
    }
    // The scan keeps bytes [0, good) — untouched original bytes, so the
    // recovered records are the original prefix byte for byte.
    const size_t k = surviving(ends, d.offset);
    ASSERT_TRUE(status.valid) << d.what() << ": " << status.error;
    EXPECT_EQ(status.done, k) << d.what();
    EXPECT_EQ(d.bytes.size() - status.dropped_bytes,
              k == 0 ? kHeader : ends[k - 1])
        << d.what();
  });

  // A damaged header is refused by a resume too, naming the file.
  std::string torn = original;
  torn[12] = static_cast<char>(torn[12] ^ 1);
  spit(journal, torn);
  SupervisorReport report;
  EXPECT_TRUE(SweepSupervisor(grid, dir.path()).run(&report).empty());
  EXPECT_NE(report.error.find(journal), std::string::npos) << report.error;
}

TEST(Corruption, QuarantineManifestRejectsEveryDamagedFile) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine);
  TempDir dir("manifest");
  SupervisorOptions opt;
  opt.max_attempts = 1;
  opt.crash.spec_index = 0;
  opt.crash.mode = CrashMode::kExit;
  {
    SupervisorReport report;
    SweepSupervisor(grid, dir.path(), opt).run(&report);
    ASSERT_TRUE(report.completed);
    ASSERT_EQ(report.quarantined.size(), 1u);
  }
  const std::string manifest = dir.file(kQuarantineFileName);
  const std::string original = slurp(manifest);
  EXPECT_EQ(pin(original), "11398c65f41c3c1f53ac24ffff40cb96");
  ASSERT_EQ(read_journal_status(dir.path()).quarantined.size(), 1u);

  for_each_damage(original, [&](const Damage& d) {
    spit(manifest, d.bytes);
    EXPECT_TRUE(read_journal_status(dir.path()).quarantined.empty())
        << d.what();
  });
}

}  // namespace
}  // namespace cuttlefish::exp
