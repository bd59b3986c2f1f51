#include "exp/result_cache.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <random>
#include <span>
#include <thread>

#include "exp/blob.hpp"
#include "exp/record_file.hpp"
#include "exp/spec_digest.hpp"
#include "exp/sweep.hpp"
#include "sim/machine_config.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish::exp {
namespace {

namespace fs = std::filesystem;

/// Fresh store directory per test, removed on teardown.
class TempStore {
 public:
  explicit TempStore(const std::string& tag) {
    root_ = fs::temp_directory_path() /
            ("cuttlefish_cache_test_" + tag + "_" +
             std::to_string(::getpid()));
    fs::remove_all(root_);
  }
  ~TempStore() { fs::remove_all(root_); }

  std::string path() const { return root_.string(); }
  fs::path dir() const { return root_; }

  /// The store's shard files, sorted for determinism.
  std::vector<fs::path> shards() const {
    std::vector<fs::path> out;
    if (!fs::exists(root_)) return out;
    for (const auto& e : fs::directory_iterator(root_)) {
      if (e.path().filename().string().rfind("shard-", 0) == 0) {
        out.push_back(e.path());
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  fs::path root_;
};

bool same_result_bytes(const RunResult& a, const RunResult& b) {
  return encode_result(a) == encode_result(b);
}

bool tables_identical(const std::vector<RunResult>& a,
                      const std::vector<RunResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!same_result_bytes(a[i], b[i])) return false;
  }
  return true;
}

/// The grid used by most tests: two models, Default + paired policy.
SweepGrid make_grid(const sim::MachineConfig& machine, int reps,
                    uint64_t seed0 = 900) {
  SweepGrid grid(machine);
  RunOptions opt;
  for (const char* name : {"SOR-irt", "Heat-irt"}) {
    const auto& model = workloads::find_benchmark(name);
    const int base = grid.add_default(std::string(name) + "/Default", model,
                                      opt, reps, seed0);
    grid.add_policy(std::string(name) + "/Cuttlefish", model,
                    core::PolicyKind::kFull, opt, reps, seed0, base);
  }
  return grid;
}

RunSpec canonical_spec(const sim::MachineConfig& machine) {
  RunSpec spec;
  spec.machine = &machine;
  spec.model = &workloads::find_benchmark("SOR-irt");
  spec.kind = RunKind::kPolicy;
  spec.policy = core::PolicyKind::kFull;
  spec.seed = 42;
  return spec;
}

// ---- digest ------------------------------------------------------------

// Golden pin: the canonical encoding (and therefore every cached digest)
// must not change silently. If this fails you changed the spec layout or
// the hash — bump kSpecFormatVersion so existing stores are orphaned
// cleanly, then re-pin.
TEST(exp_cache, GoldenSpecDigestIsPinned) {
  ASSERT_EQ(kSpecFormatVersion, 3u);
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const RunSpec spec = canonical_spec(machine);
  // v3 re-pin: the ArbiterSpec fields joined the canonical encoding
  // (PR 9); v2 stores are orphaned by the version bump, not collided.
  EXPECT_EQ(digest_spec(spec).hex(), "ea5dd56e9d8da285885eb95c0d7fb065");
}

TEST(exp_cache, GoldenBytesDigestIsPinned) {
  // Pins the Murmur3 construction itself, independent of spec layout.
  const char data[] = "cuttlefish";
  EXPECT_EQ(digest_bytes(data, sizeof(data) - 1).hex(),
            "5075fc5b56881fe8c910f0f15c64fe10");
}

TEST(exp_cache, DigestIsSensitiveToEveryInputClass) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const RunSpec base = canonical_spec(machine);
  const SpecDigest d0 = digest_spec(base);

  RunSpec seed = base;
  seed.seed = 43;
  EXPECT_NE(digest_spec(seed), d0);

  RunSpec policy = base;
  policy.policy = core::PolicyKind::kCoreOnly;
  EXPECT_NE(digest_spec(policy), d0);

  RunSpec fixed = base;
  fixed.kind = RunKind::kFixed;
  fixed.cf = FreqMHz{2300};
  fixed.uf = FreqMHz{2700};
  EXPECT_NE(digest_spec(fixed), d0);

  RunSpec knob = base;
  knob.options.controller.tinv_s = 0.025;
  EXPECT_NE(digest_spec(knob), d0);

  // The v2 blob carries the MPC plant knobs for every policy so an MPC
  // sweep can never alias a Default sweep that shares the other knobs.
  RunSpec mpc_points = base;
  mpc_points.options.controller.mpc_design_points = 5;
  EXPECT_NE(digest_spec(mpc_points), d0);

  RunSpec mpc_margin = base;
  mpc_margin.options.controller.mpc_verify_margin = 0.05;
  EXPECT_NE(digest_spec(mpc_margin), d0);

  // v3: arbitration changes result bytes, so every ArbiterSpec field the
  // run honours is part of the digest.
  RunSpec arb = base;
  arb.options.arbiter.enabled = true;
  EXPECT_NE(digest_spec(arb), d0);
  RunSpec arb_budget = arb;
  arb_budget.options.arbiter.budget_w = 80.0;
  EXPECT_NE(digest_spec(arb_budget), digest_spec(arb));
  RunSpec arb_policy = arb;
  arb_policy.options.arbiter.policy = arbiter::SharePolicy::kDemandWeighted;
  EXPECT_NE(digest_spec(arb_policy), digest_spec(arb));
  RunSpec arb_tenants = arb;
  arb_tenants.options.arbiter.tenants = 4;
  arb_tenants.options.arbiter.tenant_index = 1;
  EXPECT_NE(digest_spec(arb_tenants), digest_spec(arb));

  RunSpec model = base;
  model.model = &workloads::find_benchmark("Heat-irt");
  EXPECT_NE(digest_spec(model), d0);

  sim::MachineConfig other = machine;
  other.dram_bw_gbs += 1.0;
  RunSpec machine_spec = base;
  machine_spec.machine = &other;
  EXPECT_NE(digest_spec(machine_spec), d0);

  // Grid bookkeeping (point/rep/baseline indices) is NOT part of the
  // result function: the same cell in a reshaped grid must still hit.
  RunSpec bookkeeping = base;
  bookkeeping.point = 17;
  bookkeeping.rep = 3;
  bookkeeping.baseline_point = 4;
  EXPECT_EQ(digest_spec(bookkeeping), d0);
  // ...and so is options.seed, which run_spec overwrites with spec.seed.
  RunSpec opt_seed = base;
  opt_seed.options.seed = 999;
  EXPECT_EQ(digest_spec(opt_seed), d0);
}

TEST(exp_cache, BlobWriterGrowsToExactlyTheBytesOfItsFields) {
  // Reserved far too small, so the writes cross many growths.
  BlobWriter w;
  w.reserve(8);
  std::string expected;
  // Each field goes to the writer and, copied by hand, to the reference.
  const auto both = [&](auto v, void (BlobWriter::*write)(decltype(v))) {
    (w.*write)(v);
    expected.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  std::mt19937_64 rng(25);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t x = rng();
    switch (x % 7) {
      case 0: both(static_cast<uint8_t>(x >> 8), &BlobWriter::u8); break;
      case 1: both(static_cast<uint32_t>(x >> 8), &BlobWriter::u32); break;
      case 2: both(static_cast<int32_t>(x >> 16), &BlobWriter::i32); break;
      case 3: both(x, &BlobWriter::u64); break;
      case 4: both(static_cast<int64_t>(x), &BlobWriter::i64); break;
      case 5: both(static_cast<double>(x) / 3.0, &BlobWriter::f64); break;
      default: {
        const std::string s(x % 41, static_cast<char>('a' + x % 26));
        w.str(s);
        const auto n = static_cast<uint32_t>(s.size());
        expected.append(reinterpret_cast<const char*>(&n), sizeof(n));
        expected += s;
      }
    }
    ASSERT_EQ(w.size(), expected.size()) << i;
  }
  EXPECT_TRUE(w.data() == expected);
  EXPECT_TRUE(w.take() == expected);
  EXPECT_EQ(w.size(), 0u);
  w.u32(7);
  EXPECT_TRUE(w.take() == std::string("\x07\0\0\0", 4));
}

TEST(exp_cache, SpecBlobRoundTripsAndReRunsIdentically) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  for (const RunKind kind :
       {RunKind::kDefault, RunKind::kFixed, RunKind::kPolicy}) {
    RunSpec spec = canonical_spec(machine);
    spec.kind = kind;
    if (kind == RunKind::kFixed) {
      spec.cf = FreqMHz{1900};
      spec.uf = FreqMHz{2400};
    }
    const std::string blob = encode_spec(spec);
    const auto decoded = decode_spec(blob.data(), blob.size());
    ASSERT_NE(decoded, nullptr);
    // Re-encoding the decoded spec reproduces the canonical bytes...
    EXPECT_EQ(encode_spec(decoded->spec), blob);
    // ...and running it reproduces the original result byte-for-byte
    // (the property `cuttlefishctl cache verify` relies on).
    EXPECT_TRUE(same_result_bytes(run_spec(spec), run_spec(decoded->spec)));
  }
}

TEST(exp_cache, DecodeRejectsMalformedBlobs) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  std::string blob = encode_spec(canonical_spec(machine));
  EXPECT_EQ(decode_spec(blob.data(), blob.size() - 1), nullptr);
  EXPECT_EQ(decode_spec(blob.data(), 0), nullptr);
  std::string wrong_magic = blob;
  wrong_magic[0] ^= 0xff;
  EXPECT_EQ(decode_spec(wrong_magic.data(), wrong_magic.size()), nullptr);
  // A future format version must be refused, not misparsed.
  std::string wrong_version = blob;
  wrong_version[4] = char(0x7f);
  EXPECT_EQ(decode_spec(wrong_version.data(), wrong_version.size()),
            nullptr);
}

TEST(exp_cache, ResultCodecRoundTripsByteExactly) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  RunSpec spec = canonical_spec(machine);
  spec.options.capture_timeline = true;
  const RunResult original = run_spec(spec);
  ASSERT_FALSE(original.timeline.empty());
  ASSERT_FALSE(original.nodes.empty());

  const std::string bytes = encode_result(original);
  RunResult decoded;
  ASSERT_TRUE(decode_result(bytes.data(), bytes.size(), &decoded));
  EXPECT_EQ(encode_result(decoded), bytes);
  EXPECT_EQ(decoded.timeline.size(), original.timeline.size());
  EXPECT_EQ(decoded.nodes.size(), original.nodes.size());
  EXPECT_EQ(decoded.stats.ticks, original.stats.ticks);

  // Truncations and garbage must fail cleanly, never misdecode.
  for (const size_t cut : {size_t{0}, size_t{4}, bytes.size() - 1}) {
    RunResult out;
    EXPECT_FALSE(decode_result(bytes.data(), cut, &out)) << cut;
  }
}

// ---- cache hit path ----------------------------------------------------

TEST(exp_cache, WarmRunIsAllHitsAndByteIdentical) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const auto uncached = run_sweep(grid, nullptr);

  TempStore store("warm");
  SweepRunStats cold_stats;
  {
    ResultCache cache(store.path());
    const auto cold = run_sweep(grid, nullptr, &cache, &cold_stats);
    EXPECT_TRUE(tables_identical(uncached, cold));
  }
  EXPECT_EQ(cold_stats.cache_hits, 0u);
  EXPECT_EQ(cold_stats.cache_misses, grid.size());

  // Reopen from disk: everything must be served from the store.
  ResultCache cache(store.path());
  EXPECT_EQ(cache.size(), grid.size());
  SweepRunStats warm_stats;
  const auto warm = run_sweep(grid, nullptr, &cache, &warm_stats);
  EXPECT_EQ(warm_stats.cache_hits, grid.size());
  EXPECT_EQ(warm_stats.cache_misses, 0u);
  EXPECT_TRUE(tables_identical(uncached, warm));

  const auto last = cache.last_run();
  EXPECT_TRUE(last.present);
  EXPECT_EQ(last.hits, grid.size());
  EXPECT_EQ(last.misses, 0u);
}

TEST(exp_cache, PartialOverlapHitsExactlyTheSharedCells) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  TempStore store("overlap");
  ResultCache cache(store.path());

  // Seed the store with a 2-rep grid...
  const SweepGrid small = make_grid(machine, 2);
  SweepRunStats first;
  run_sweep(small, nullptr, &cache, &first);
  EXPECT_EQ(first.cache_misses, small.size());

  // ...then run the 3-rep superset: reps 0-1 of every point hit, rep 2
  // misses, and the result table still matches an uncached run exactly.
  const SweepGrid big = make_grid(machine, 3);
  SweepRunStats second;
  const auto cached = run_sweep(big, nullptr, &cache, &second);
  EXPECT_EQ(second.cache_hits, small.size());
  EXPECT_EQ(second.cache_misses, big.size() - small.size());
  EXPECT_TRUE(tables_identical(run_sweep(big, nullptr), cached));
}

TEST(exp_cache, FuzzRandomGridsAgainstOneStore) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  TempStore store("fuzz");
  ResultCache cache(store.path());
  std::mt19937 rng(20260807);

  const std::vector<std::string> models{"SOR-irt", "Heat-irt", "AMG"};
  const std::vector<core::PolicyKind> policies{
      core::PolicyKind::kFull, core::PolicyKind::kCoreOnly,
      core::PolicyKind::kUncoreOnly};
  for (int round = 0; round < 6; ++round) {
    SweepGrid grid(machine);
    RunOptions opt;
    const int n_points = 1 + static_cast<int>(rng() % 3);
    for (int p = 0; p < n_points; ++p) {
      const auto& model = workloads::find_benchmark(
          models[rng() % models.size()]);
      const int reps = 1 + static_cast<int>(rng() % 3);
      // Deliberately overlapping seed bases so rounds share cells.
      const uint64_t seed0 = 900 + rng() % 3;
      if (rng() % 2 == 0) {
        grid.add_default("p" + std::to_string(p), model, opt, reps, seed0);
      } else {
        grid.add_policy("p" + std::to_string(p), model,
                        policies[rng() % policies.size()], opt, reps, seed0);
      }
    }
    SweepRunStats stats;
    const auto cached = run_sweep(grid, nullptr, &cache, &stats);
    EXPECT_TRUE(tables_identical(run_sweep(grid, nullptr), cached))
        << "round " << round;
    EXPECT_EQ(stats.cache_hits + stats.cache_misses, grid.size());
  }
}

// ---- corruption --------------------------------------------------------

TEST(exp_cache, CorruptShardIsDetectedAndReSimulated) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const auto uncached = run_sweep(grid, nullptr);

  TempStore store("corrupt");
  {
    ResultCache cache(store.path());
    run_sweep(grid, nullptr, &cache, nullptr);
  }
  const auto shards = store.shards();
  ASSERT_EQ(shards.size(), 1u);

  // Flip one byte in the middle of the shard: the scan must reject the
  // damaged record (and, append-only, everything after it) rather than
  // serve wrong bytes.
  {
    std::fstream f(shards[0],
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = f.tellg();
    f.seekp(static_cast<std::streamoff>(size) / 2);
    char byte = 0;
    f.seekg(f.tellp());
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xff);
    f.seekp(static_cast<std::streamoff>(size) / 2);
    f.write(&byte, 1);
  }
  ResultCache cache(store.path());
  EXPECT_LT(cache.size(), grid.size());
  EXPECT_GT(cache.stats().skipped_records, 0u);
  SweepRunStats stats;
  const auto healed = run_sweep(grid, nullptr, &cache, &stats);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_TRUE(tables_identical(uncached, healed));
}

TEST(exp_cache, TruncatedShardLosesTailNotCorrectness) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const auto uncached = run_sweep(grid, nullptr);

  TempStore store("trunc");
  {
    ResultCache cache(store.path());
    run_sweep(grid, nullptr, &cache, nullptr);
  }
  const auto shards = store.shards();
  ASSERT_EQ(shards.size(), 1u);
  fs::resize_file(shards[0], fs::file_size(shards[0]) / 2);

  ResultCache cache(store.path());
  const size_t survivors = cache.size();
  EXPECT_LT(survivors, grid.size());
  SweepRunStats stats;
  const auto healed = run_sweep(grid, nullptr, &cache, &stats);
  EXPECT_EQ(stats.cache_hits, survivors);
  EXPECT_TRUE(tables_identical(uncached, healed));
}

// ---- stats / gc --------------------------------------------------------

TEST(exp_cache, StatsAndGcDropOldestShardsFirst) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  TempStore store("gc");
  ResultCache cache(store.path());

  // Two batches -> two shards, inserted in a known order. Both land
  // within the filesystem's mtime granularity, which would leave the
  // "oldest" ordering to the digest-named path tiebreak — age the first
  // shard explicitly so the test pins the mtime ordering, not the names.
  const SweepGrid first = make_grid(machine, 1, 900);
  run_sweep(first, nullptr, &cache, nullptr);
  {
    const auto first_shards = store.shards();
    ASSERT_EQ(first_shards.size(), 1u);
    fs::last_write_time(first_shards[0], fs::last_write_time(first_shards[0]) -
                                             std::chrono::seconds(10));
  }
  const SweepGrid second = make_grid(machine, 1, 7777);
  run_sweep(second, nullptr, &cache, nullptr);

  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, first.size() + second.size());
  EXPECT_EQ(stats.shards, 2u);
  EXPECT_GT(stats.bytes, 0u);

  // gc to half the store: the oldest shard (the first batch) goes.
  const uint64_t removed = cache.gc(stats.bytes / 2);
  EXPECT_GT(removed, 0u);
  stats = cache.stats();
  EXPECT_EQ(stats.shards, 1u);
  EXPECT_LE(stats.bytes, removed);  // halved store is <= what was removed
  EXPECT_FALSE(cache.contains(digest_spec(first.specs()[0])));
  EXPECT_TRUE(cache.contains(digest_spec(second.specs()[0])));

  // gc to zero empties the store.
  cache.gc(0);
  EXPECT_EQ(cache.stats().shards, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(exp_cache, EntryViewExposesSpecAndResult) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 1);
  TempStore store("entry");
  ResultCache cache(store.path());
  run_sweep(grid, nullptr, &cache, nullptr);

  ASSERT_EQ(cache.size(), grid.size());
  for (size_t i = 0; i < cache.size(); ++i) {
    ResultCache::EntryView view;
    ASSERT_TRUE(cache.entry(i, &view));
    const auto decoded =
        decode_spec(view.spec_blob.data(), view.spec_blob.size());
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(digest_spec(decoded->spec), view.digest);
  }
  ResultCache::EntryView out_of_range;
  EXPECT_FALSE(cache.entry(cache.size(), &out_of_range));
}

// ---- sharded grids ----------------------------------------------------

/// Copies every shard file of `from` into `to`, as a fleet merges the
/// stores of its shards (content names: a copy can only add files).
void copy_shards(const TempStore& from, const fs::path& to) {
  fs::create_directories(to);
  for (const fs::path& shard : from.shards()) {
    fs::copy_file(shard, to / shard.filename(),
                  fs::copy_options::overwrite_existing);
  }
}

TEST(exp_cache, ShardStoresCopiedIntoOneServeTheWholeGrid) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 3);
  const auto serial = run_sweep(grid, nullptr);

  for (const int n : {1, 2, 3, 5}) {
    TempStore merged("merged" + std::to_string(n));
    size_t covered = 0;
    for (int i = 0; i < n; ++i) {
      TempStore own("shard" + std::to_string(n) + "_" + std::to_string(i));
      {
        ResultCache cache(own.path());
        const auto rows = run_sweep_shard(grid, i, n, nullptr, &cache);
        for (const auto& [idx, r] : rows) {
          EXPECT_TRUE(shard_owns(idx, i, n));
          EXPECT_TRUE(same_result_bytes(r, serial[idx])) << "spec " << idx;
        }
        covered += rows.size();
      }
      copy_shards(own, merged.dir());
    }
    EXPECT_EQ(covered, grid.size());
    ResultCache cache(merged.path());
    EXPECT_EQ(cache.size(), grid.size()) << "N=" << n;
    SweepRunStats stats;
    const auto served = run_sweep(grid, nullptr, &cache, &stats);
    EXPECT_EQ(stats.cache_hits, grid.size()) << "N=" << n;
    EXPECT_EQ(stats.cache_misses, 0u) << "N=" << n;
    EXPECT_TRUE(tables_identical(serial, served)) << "N=" << n;
  }
}

TEST(exp_cache, ADoubledShardCollidesToOneFile) {
  // Two hosts that ran the same shard wrote the same bytes under the same
  // content name: copying both into one store keeps one file, and the
  // cells are indexed once.
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const auto serial = run_sweep(grid, nullptr);
  TempStore host_a("double_a");
  TempStore host_b("double_b");
  TempStore other("double_other");
  for (const TempStore* store : {&host_a, &host_b}) {
    ResultCache cache(store->path());
    run_sweep_shard(grid, 0, 2, nullptr, &cache);
  }
  {
    ResultCache cache(other.path());
    run_sweep_shard(grid, 1, 2, nullptr, &cache);
  }
  ASSERT_EQ(host_a.shards().size(), 1u);
  ASSERT_EQ(host_b.shards().size(), 1u);
  EXPECT_EQ(host_a.shards()[0].filename(), host_b.shards()[0].filename());

  TempStore merged("double_merged");
  for (const TempStore* store : {&host_a, &host_b, &other}) {
    copy_shards(*store, merged.dir());
  }
  EXPECT_EQ(merged.shards().size(), 2u);
  ResultCache cache(merged.path());
  EXPECT_EQ(cache.size(), grid.size());
  SweepRunStats stats;
  const auto served = run_sweep(grid, nullptr, &cache, &stats);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_TRUE(tables_identical(serial, served));
}

TEST(exp_cache, AStoreMissingAShardLacksExactlyItsCells) {
  // The merge's check: a store made of shard 0/2 alone holds the even
  // cells and none of the odd ones, and a sweep over it serves the first
  // and simulates the second.
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const auto serial = run_sweep(grid, nullptr);
  TempStore store("partial");
  size_t owned = 0;
  {
    ResultCache cache(store.path());
    owned = run_sweep_shard(grid, 0, 2, nullptr, &cache).size();
  }
  ResultCache cache(store.path());
  size_t missing = 0;
  for (size_t i = 0; i < grid.size(); ++i) {
    const bool held = cache.contains(digest_spec(grid.specs()[i]));
    EXPECT_EQ(held, shard_owns(i, 0, 2)) << "spec " << i;
    missing += held ? 0 : 1;
  }
  EXPECT_EQ(missing, grid.size() - owned);
  SweepRunStats stats;
  const auto served = run_sweep(grid, nullptr, &cache, &stats);
  EXPECT_EQ(stats.cache_hits, owned);
  EXPECT_EQ(stats.cache_misses, missing);
  EXPECT_TRUE(tables_identical(serial, served));
}

/// Runs `body` in a forked child whose files may not grow past
/// `limit_bytes`, with SIGXFSZ ignored so an oversized write fails with
/// EFBIG instead of killing the child. `body` returns what went wrong
/// (empty when nothing did); the result is the child's verdict.
std::string in_child_with_file_size_limit(
    rlim_t limit_bytes, const std::function<std::string()>& body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::signal(SIGXFSZ, SIG_IGN);
    const rlimit limit{limit_bytes, limit_bytes};
    const std::string why = ::setrlimit(RLIMIT_FSIZE, &limit) == 0
                                ? body()
                                : std::string("setrlimit failed");
    std::fputs(why.c_str(), stderr);
    ::_exit(why.empty() ? 0 : 1);
  }
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid) return "fork failed";
  if (!WIFEXITED(status)) return "child died";
  return WEXITSTATUS(status) == 0 ? "" : "child reported a failure";
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::vector<std::string> dir_names(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(exp_cache, FailedAtomicWriteKeepsTheOldFileAndLeavesNoTemp) {
  TempStore store("fsize");
  fs::create_directories(store.dir());
  const std::string path = (store.dir() / "t.bin").string();
  const std::string old_bytes(40, 'o');
  const std::string small(40, 's');
  const std::string large(64 * 1024, 'l');
  ASSERT_TRUE(write_file_atomic(path, old_bytes));

  // Under a 20-byte file-size limit neither body fits: each write must
  // report failure, keep the previous bytes, and clean up its temp.
  const std::string verdict = in_child_with_file_size_limit(20, [&] {
    for (const std::string* body : {&small, &large}) {
      const std::string what =
          body == &small ? "small body: " : "large body: ";
      if (write_file_atomic(path, *body)) return what + "write succeeded\n";
      if (read_bytes(path) != old_bytes) return what + "old file changed\n";
      if (dir_names(store.dir()) != std::vector<std::string>{"t.bin"}) {
        return what + "temp file left behind\n";
      }
    }
    return std::string();
  });
  EXPECT_EQ(verdict, "");
  EXPECT_EQ(read_bytes(path), old_bytes);
  EXPECT_EQ(dir_names(store.dir()), std::vector<std::string>{"t.bin"});
}

TEST(exp_cache, ConcurrentNoteRunsAlwaysLeaveACompleteLastRun) {
  // Two caches on one directory in one process, as two sweeps sharing a
  // store would have: their replaces of last_run.stats race, and a reader
  // must only ever see one whole record.
  TempStore store("noterun");
  ResultCache a(store.path());
  ResultCache b(store.path());
  a.note_run(0, 0);
  std::atomic<bool> done{false};
  std::atomic<int> bad_reads{0};
  std::thread reader([&] {
    while (!done.load()) {
      const ResultCache::LastRun run = a.last_run();
      if (!run.present || run.hits != run.misses) ++bad_reads;
    }
  });
  const auto writer = [](ResultCache* cache, uint64_t base) {
    for (uint64_t i = 0; i < 5000; ++i) cache->note_run(base + i, base + i);
  };
  std::thread wa(writer, &a, 0);
  std::thread wb(writer, &b, 1000000);
  wa.join();
  wb.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_EQ(dir_names(store.dir()),
            std::vector<std::string>{"last_run.stats"});
}

ino_t inode_of(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? st.st_ino : 0;
}

TEST(exp_cache, NoteRunRewritesLastRunOnlyWhenItsBytesChange) {
  TempStore store("noterun_same");
  ResultCache cache(store.path());
  const std::string path = (store.dir() / "last_run.stats").string();

  // Missing: written.
  cache.note_run(400, 0);
  EXPECT_EQ(read_bytes(path), "400 0\n");
  const ino_t first = inode_of(path);
  ASSERT_NE(first, 0u);

  // The same counters: the file is left as it is.
  cache.note_run(400, 0);
  EXPECT_EQ(inode_of(path), first);
  EXPECT_EQ(read_bytes(path), "400 0\n");

  // Different counters: replaced, and read back.
  cache.note_run(399, 1);
  EXPECT_NE(inode_of(path), first);
  const ResultCache::LastRun run = cache.last_run();
  EXPECT_TRUE(run.present);
  EXPECT_EQ(run.hits, 399u);
  EXPECT_EQ(run.misses, 1u);

  // Garbage of the same length, a longer file, an empty one and a
  // missing one are all rewritten.
  for (const char* garbage : {"399 7\n", "xyz 1\n", "399 1\n399 1\n", ""}) {
    { std::ofstream out(path, std::ios::binary); out << garbage; }
    cache.note_run(399, 1);
    EXPECT_EQ(read_bytes(path), "399 1\n") << garbage;
  }
  fs::remove(path);
  cache.note_run(399, 1);
  EXPECT_EQ(read_bytes(path), "399 1\n");
  EXPECT_EQ(dir_names(store.dir()),
            std::vector<std::string>{"last_run.stats"});
}

TEST(exp_cache, NoteRunNeitherBlocksOnNorReplacesAFifo) {
  TempStore store("noterun_fifo");
  ResultCache cache(store.path());
  const std::string path = (store.dir() / "last_run.stats").string();
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  // In a child under an alarm, so a read that blocks fails the test
  // instead of hanging it.
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::alarm(10);
    cache.note_run(400, 0);
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  struct stat st {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_TRUE(S_ISFIFO(st.st_mode));
  EXPECT_EQ(dir_names(store.dir()),
            std::vector<std::string>{"last_run.stats"});
}

/// Runs `body` in a forked child under a 5 s alarm and returns its exit
/// code, or -1 when a signal ended it: a read that blocks fails the test
/// instead of hanging it.
int exit_code_in_child(const std::function<int()>& body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::alarm(5);
    ::_exit(body());
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(exp_cache, OpenSkipsAFifoNamedLikeAShard) {
  TempStore store("shard_fifo");
  const RunResult result;
  {
    ResultCache cache(store.path());
    cache.insert_batch({{SpecDigest{1, 2}, "spec", &result}});
  }
  // Sorts before the real shard, so the scan meets it first.
  const std::string fifo =
      (store.dir() / "shard-0000000000000000.bin").string();
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  EXPECT_EQ(exit_code_in_child([&] {
              const ResultCache cache(store.path());
              const ResultCache::Stats st = cache.stats();
              return st.entries == 1 && st.shards == 1 &&
                             st.skipped_records == 1
                         ? 0
                         : 1;
            }),
            0);
}

TEST(exp_cache, LastRunReadsAFifoAsAbsent) {
  TempStore store("last_run_fifo");
  const ResultCache cache(store.path());
  const std::string path = (store.dir() / "last_run.stats").string();
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  EXPECT_EQ(exit_code_in_child([&] { return cache.last_run().present; }), 0);
}

TEST(exp_cache, CacheDirVanishingMidRunDegradesToSimulation) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const auto serial = run_sweep(grid, nullptr);
  TempStore store("vanish");
  {
    ResultCache warm(store.path());
    run_sweep_shard(grid, 0, 2, nullptr, &warm, nullptr);
  }
  ResultCache cache(store.path());  // indexes the warm shard
  ASSERT_GT(cache.size(), 0u);

  // Mid-run sabotage: the directory disappears and its path is suddenly
  // a regular file (ENOTDIR on every shard read and temp-file write) —
  // this bites even under root, which chmod does not.
  const fs::path moved = store.dir().string() + ".moved";
  fs::rename(store.dir(), moved);
  { std::ofstream block(store.path(), std::ios::binary); block << "x"; }

  // Inserts fail (with a logged error), lookups demote to misses — and
  // every row is still byte-identical to the serial sweep.
  SweepRunStats stats;
  const auto rows1 = run_sweep_shard(grid, 1, 2, nullptr, &cache, &stats);
  for (const auto& [idx, r] : rows1) {
    EXPECT_TRUE(same_result_bytes(r, serial[idx])) << "spec " << idx;
  }
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, rows1.size());

  // Even the previously cached shard-0 entries — indexed in memory but
  // no longer readable — re-simulate to the right bytes.
  SweepRunStats stats0;
  const auto rows0 = run_sweep_shard(grid, 0, 2, nullptr, &cache, &stats0);
  for (const auto& [idx, r] : rows0) {
    EXPECT_TRUE(same_result_bytes(r, serial[idx])) << "spec " << idx;
  }
  EXPECT_EQ(stats0.cache_hits, 0u);
  fs::remove_all(moved);
}

// ---- batch lookup ------------------------------------------------------

/// Every cell of a two-shard store: its digest, its uncached serial
/// result, and where its record's result span lies in its shard file.
struct StoredCell {
  SpecDigest digest;
  RunResult serial;
  fs::path shard;
  uint64_t result_begin = 0;
  uint64_t result_end = 0;
};

/// Fills `store` with two shards, one cached sweep of make_grid each
/// (seed bases 900 and 7777, `reps` seeds per point), and locates every
/// cell's record by its digest, which opens the record's body: digest
/// (16), spec and result lengths (4 + 4), spec bytes, result bytes.
std::vector<StoredCell> fill_two_shards(const TempStore& store,
                                        const sim::MachineConfig& machine,
                                        int reps = 1) {
  std::vector<StoredCell> cells;
  {
    ResultCache cache(store.path());
    for (const uint64_t seed0 : {uint64_t{900}, uint64_t{7777}}) {
      const SweepGrid grid = make_grid(machine, reps, seed0);
      run_sweep(grid, nullptr, &cache, nullptr);
      const auto serial = run_sweep(grid, nullptr);
      for (size_t i = 0; i < grid.size(); ++i) {
        cells.push_back({digest_spec(grid.specs()[i]), serial[i], {}, 0, 0});
      }
    }
  }
  for (const fs::path& shard : store.shards()) {
    std::ifstream in(shard, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    for (StoredCell& cell : cells) {
      std::string key(16, '\0');
      std::memcpy(key.data(), &cell.digest.hi, 8);
      std::memcpy(key.data() + 8, &cell.digest.lo, 8);
      const size_t at = bytes.find(key);
      if (at == std::string::npos) continue;
      uint32_t spec_len = 0, result_len = 0;
      std::memcpy(&spec_len, bytes.data() + at + 16, 4);
      std::memcpy(&result_len, bytes.data() + at + 20, 4);
      cell.shard = shard;
      cell.result_begin = at + 24 + spec_len;
      cell.result_end = cell.result_begin + result_len;
    }
  }
  return cells;
}

/// One batch lookup of every cell; (*served)[i] receives cell i's result.
std::vector<ResultCache::Lookup> lookup_cells(
    ResultCache& cache, const std::vector<StoredCell>& cells,
    std::vector<RunResult>* served) {
  served->assign(cells.size(), RunResult{});
  std::vector<ResultCache::Lookup> batch;
  for (size_t i = 0; i < cells.size(); ++i) {
    batch.push_back({cells[i].digest, &(*served)[i], false});
  }
  cache.lookup(std::span(batch));
  return batch;
}

TEST(exp_cache, BatchLookupServesWhatSingleLookupsServe) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  TempStore store("batch");
  const std::vector<StoredCell> cells = fill_two_shards(store, machine);
  ASSERT_EQ(store.shards().size(), 2u);
  for (const StoredCell& cell : cells) ASSERT_FALSE(cell.shard.empty());
  const SweepGrid absent = make_grid(machine, 1, 4242);
  ResultCache cache(store.path());

  // Cells from both shards in reverse order, a miss after every second
  // one, and the first cell asked for twice.
  std::vector<SpecDigest> digests;
  std::vector<const StoredCell*> expected;  // null for a miss
  for (size_t i = cells.size(); i-- > 0;) {
    digests.push_back(cells[i].digest);
    expected.push_back(&cells[i]);
    if (i % 2 == 0) {
      digests.push_back(digest_spec(absent.specs()[i / 2]));
      expected.push_back(nullptr);
    }
  }
  digests.push_back(cells[0].digest);
  expected.push_back(&cells[0]);

  std::vector<RunResult> served(digests.size());
  std::vector<ResultCache::Lookup> batch;
  for (size_t k = 0; k < digests.size(); ++k) {
    batch.push_back({digests[k], &served[k], true});
  }
  EXPECT_EQ(cache.lookup(std::span(batch)), cells.size() + 1);
  for (size_t k = 0; k < digests.size(); ++k) {
    RunResult single;
    const bool single_hit = cache.lookup(digests[k], &single);
    EXPECT_EQ(batch[k].hit, expected[k] != nullptr) << k;
    EXPECT_EQ(single_hit, batch[k].hit) << k;
    if (expected[k] == nullptr) {
      EXPECT_TRUE(same_result_bytes(served[k], RunResult{})) << k;
      continue;
    }
    EXPECT_TRUE(same_result_bytes(served[k], single)) << k;
    EXPECT_TRUE(same_result_bytes(served[k], expected[k]->serial)) << k;
  }
}

TEST(exp_cache, UnlinkedShardMissesOnlyItsOwnEntries) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  TempStore store("unlinked");
  const std::vector<StoredCell> cells = fill_two_shards(store, machine);
  ResultCache cache(store.path());
  const fs::path gone = store.shards()[0];
  fs::remove(gone);

  size_t survivors = 0;
  for (const StoredCell& cell : cells) survivors += cell.shard != gone;
  ASSERT_GT(survivors, 0u);
  ASSERT_LT(survivors, cells.size());
  std::vector<RunResult> served;
  const auto batch = lookup_cells(cache, cells, &served);
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(batch[i].hit, cells[i].shard != gone) << i;
    if (batch[i].hit) {
      EXPECT_TRUE(same_result_bytes(served[i], cells[i].serial)) << i;
    }
  }
}

TEST(exp_cache, TruncatedShardAfterOpenMissesExactlyTheCutSpans) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  TempStore store("cut");
  const std::vector<StoredCell> cells = fill_two_shards(store, machine);
  ResultCache cache(store.path());

  // Cut the first shard in the middle of the result span that starts
  // second in the file: the record before it stays whole.
  const fs::path cut_shard = store.shards()[0];
  std::vector<const StoredCell*> in_shard;
  for (const StoredCell& cell : cells) {
    if (cell.shard == cut_shard) in_shard.push_back(&cell);
  }
  ASSERT_GE(in_shard.size(), 3u);
  std::sort(in_shard.begin(), in_shard.end(),
            [](const StoredCell* a, const StoredCell* b) {
              return a->result_begin < b->result_begin;
            });
  const uint64_t cut =
      (in_shard[1]->result_begin + in_shard[1]->result_end) / 2;
  fs::resize_file(cut_shard, cut);

  std::vector<RunResult> served;
  const auto batch = lookup_cells(cache, cells, &served);
  for (size_t i = 0; i < cells.size(); ++i) {
    const bool cut_off =
        cells[i].shard == cut_shard && cells[i].result_end > cut;
    EXPECT_EQ(batch[i].hit, !cut_off) << i;
    if (batch[i].hit) {
      EXPECT_TRUE(same_result_bytes(served[i], cells[i].serial)) << i;
    }
  }
}

/// The indices of the cells stored in `shard`, in file order.
std::vector<size_t> cells_in_shard(const std::vector<StoredCell>& cells,
                                   const fs::path& shard) {
  std::vector<size_t> in_shard;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].shard == shard) in_shard.push_back(i);
  }
  std::sort(in_shard.begin(), in_shard.end(), [&](size_t a, size_t b) {
    return cells[a].result_begin < cells[b].result_begin;
  });
  return in_shard;
}

TEST(exp_cache, OneReadPerShardServesEveryBatchShape) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  TempStore store("oneread");
  const std::vector<StoredCell> cells = fill_two_shards(store, machine, 10);
  ASSERT_EQ(store.shards().size(), 2u);
  ASSERT_EQ(cells.size(), 80u);
  ResultCache cache(store.path());

  std::vector<size_t> reversed(cells.size());
  std::iota(reversed.rbegin(), reversed.rend(), size_t{0});
  std::vector<size_t> sparse, repeated;
  for (size_t i = 0; i < cells.size(); i += 10) sparse.push_back(i);
  // Every 7th cell, asked for three times over.
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < cells.size(); i += 7) repeated.push_back(i);
  }
  const std::pair<const char*, std::vector<size_t>> shapes[] = {
      {"whole shard", cells_in_shard(cells, store.shards()[1])},
      {"every 10th cell", sparse},
      {"repeated digests", repeated},
      {"both shards, reversed", reversed},
  };
  for (const auto& [what, pick] : shapes) {
    std::vector<RunResult> served(pick.size());
    std::vector<ResultCache::Lookup> batch;
    for (size_t k = 0; k < pick.size(); ++k) {
      batch.push_back({cells[pick[k]].digest, &served[k], false});
    }
    EXPECT_EQ(cache.lookup(std::span(batch)), pick.size()) << what;
    for (size_t k = 0; k < pick.size(); ++k) {
      RunResult single;
      ASSERT_TRUE(batch[k].hit) << what << " " << k;
      ASSERT_TRUE(cache.lookup(cells[pick[k]].digest, &single))
          << what << " " << k;
      EXPECT_TRUE(same_result_bytes(served[k], single)) << what << " " << k;
      EXPECT_TRUE(same_result_bytes(served[k], cells[pick[k]].serial))
          << what << " " << k;
    }
  }
}

TEST(exp_cache, CutBetweenTwoWantedSpansMissesOnlyTheSpansPastIt) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  TempStore store("gapcut");
  const std::vector<StoredCell> cells = fill_two_shards(store, machine, 10);
  ResultCache cache(store.path());

  // The batch wants every other record of the cut shard, so the one read
  // runs over the unwanted records between them, and all of the other
  // shard.
  const fs::path cut_shard = store.shards()[0];
  const std::vector<size_t> in_shard = cells_in_shard(cells, cut_shard);
  ASSERT_GE(in_shard.size(), 8u);
  std::vector<size_t> pick;
  for (size_t j = 0; j < in_shard.size(); j += 2) pick.push_back(in_shard[j]);
  const size_t before = pick.size() / 2;  // the last wanted span kept
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].shard != cut_shard) pick.push_back(i);
  }

  // Cut inside the unwanted record after wanted span `before`: the gap
  // between that span and the next wanted one.
  const StoredCell& left = cells[in_shard[2 * before]];
  const StoredCell& gap = cells[in_shard[2 * before + 1]];
  const StoredCell& right = cells[in_shard[2 * before + 2]];
  const uint64_t cut = (gap.result_begin + gap.result_end) / 2;
  ASSERT_LT(left.result_end, cut);
  ASSERT_LT(cut, right.result_begin);
  fs::resize_file(cut_shard, cut);

  std::vector<RunResult> served(pick.size());
  std::vector<ResultCache::Lookup> batch;
  for (size_t k = 0; k < pick.size(); ++k) {
    batch.push_back({cells[pick[k]].digest, &served[k], false});
  }
  size_t expected_hits = 0;
  for (const size_t i : pick) {
    expected_hits += cells[i].shard != cut_shard || cells[i].result_end <= cut;
  }
  EXPECT_EQ(cache.lookup(std::span(batch)), expected_hits);
  // The cut shard's wanted spans up to `before` are the only ones of it
  // that hit.
  const size_t wanted_in_cut = (in_shard.size() + 1) / 2;
  EXPECT_EQ(expected_hits, pick.size() - wanted_in_cut + before + 1);
  for (size_t k = 0; k < pick.size(); ++k) {
    const StoredCell& cell = cells[pick[k]];
    const bool cut_off = cell.shard == cut_shard && cell.result_end > cut;
    EXPECT_EQ(batch[k].hit, !cut_off) << k;
    if (batch[k].hit) {
      EXPECT_TRUE(same_result_bytes(served[k], cell.serial)) << k;
    } else {
      EXPECT_TRUE(same_result_bytes(served[k], RunResult{})) << k;
    }
  }
}

TEST(exp_cache, ReadOnlyCacheDirMidRunKeepsHitsAndSimulatesMisses) {
  if (::geteuid() == 0) {
    GTEST_SKIP() << "chmod is advisory for root; the vanishing-dir test "
                    "covers this path";
  }
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const auto serial = run_sweep(grid, nullptr);
  TempStore store("readonly");
  {
    ResultCache warm(store.path());
    run_sweep_shard(grid, 0, 2, nullptr, &warm, nullptr);
  }
  ResultCache cache(store.path());
  const size_t warm_entries = cache.size();
  ASSERT_GT(warm_entries, 0u);

  // The filesystem goes read-only under a live cache: reads still work,
  // every write fails.
  fs::permissions(store.dir(), fs::perms::owner_read | fs::perms::owner_exec |
                                   fs::perms::group_read |
                                   fs::perms::group_exec);

  // Shard 0 re-run: served from the still-readable shard file.
  SweepRunStats stats0;
  const auto rows0 = run_sweep_shard(grid, 0, 2, nullptr, &cache, &stats0);
  for (const auto& [idx, r] : rows0) {
    EXPECT_TRUE(same_result_bytes(r, serial[idx])) << "spec " << idx;
  }
  EXPECT_EQ(stats0.cache_hits, rows0.size());

  // Shard 1: misses simulate, the insert fails with a logged error, and
  // the results are still byte-exact.
  SweepRunStats stats1;
  const auto rows1 = run_sweep_shard(grid, 1, 2, nullptr, &cache, &stats1);
  for (const auto& [idx, r] : rows1) {
    EXPECT_TRUE(same_result_bytes(r, serial[idx])) << "spec " << idx;
  }
  EXPECT_EQ(stats1.cache_hits, 0u);
  EXPECT_EQ(cache.size(), warm_entries);  // nothing was persisted

  fs::permissions(store.dir(), fs::perms::owner_all | fs::perms::group_all);
}

TEST(exp_cache, ShardOwnsPartitionsExactlyOnce) {
  for (const int n : {1, 2, 3, 7}) {
    for (uint64_t idx = 0; idx < 50; ++idx) {
      int owners = 0;
      for (int i = 0; i < n; ++i) owners += shard_owns(idx, i, n) ? 1 : 0;
      EXPECT_EQ(owners, 1) << "index " << idx << " N=" << n;
    }
  }
}

}  // namespace
}  // namespace cuttlefish::exp
