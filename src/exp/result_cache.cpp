#include "exp/result_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "exp/blob.hpp"
#include "exp/record_file.hpp"

namespace fs = std::filesystem;

namespace cuttlefish::exp {

namespace {

constexpr uint32_t kResultMagic = 0x43465252u;  // "CFRR"
constexpr uint32_t kResultFormatVersion = 1;
constexpr uint32_t kShardMagic = 0x43465348u;  // "CFSH"
constexpr uint32_t kShardFormatVersion = 1;
constexpr uint32_t kRecordMagic = 0x43465243u;  // "CFRC"
constexpr uint32_t kTableMagic = 0x43465442u;  // "CFTB"
constexpr uint32_t kTableFormatVersion = 1;

/// Record frames: a head of digest (16) + spec and result lengths, then
/// the spec and result payloads.
constexpr size_t kRecordHeader = 16 + 4 + 4;
constexpr FrameLayout kRecordLayout{kRecordMagic, kRecordHeader, 2};

}  // namespace

// ---- RunResult codec ---------------------------------------------------

std::string encode_result(const RunResult& result) {
  BlobWriter w;
  w.u32(kResultMagic);
  w.u32(kResultFormatVersion);
  w.f64(result.time_s);
  w.f64(result.energy_j);
  w.u64(result.instructions);
  w.u32(static_cast<uint32_t>(result.timeline.size()));
  for (const TimePoint& p : result.timeline) {
    w.f64(p.t);
    w.f64(p.tipi);
    w.f64(p.jpi);
    w.i32(p.cf.value);
    w.i32(p.uf.value);
  }
  w.u32(static_cast<uint32_t>(result.nodes.size()));
  for (const NodeSummary& n : result.nodes) {
    w.i64(n.slab);
    w.u64(n.ticks);
    w.i32(n.cf_opt);
    w.i32(n.uf_opt);
  }
  const core::ControllerStats& s = result.stats;
  w.u64(s.ticks);
  w.u64(s.idle_ticks);
  w.u64(s.transitions);
  w.u64(s.samples_recorded);
  w.u64(s.freq_writes);
  w.u64(s.nodes_inserted);
  return w.take();
}

bool decode_result(const void* data, size_t size, RunResult* out) {
  BlobReader r(data, size);
  if (r.u32() != kResultMagic) return false;
  if (r.u32() != kResultFormatVersion) return false;
  RunResult res;
  res.time_s = r.f64();
  res.energy_j = r.f64();
  res.instructions = r.u64();
  const uint32_t timeline_count = r.u32();
  // Element sizes bound the counts: a corrupt count cannot force an
  // allocation larger than the blob it claims to describe.
  if (!r.ok() || timeline_count > r.remaining() / 32) return false;
  res.timeline.reserve(timeline_count);
  for (uint32_t i = 0; i < timeline_count; ++i) {
    TimePoint p;
    p.t = r.f64();
    p.tipi = r.f64();
    p.jpi = r.f64();
    p.cf = FreqMHz{r.i32()};
    p.uf = FreqMHz{r.i32()};
    res.timeline.push_back(p);
  }
  const uint32_t node_count = r.u32();
  if (!r.ok() || node_count > r.remaining() / 24) return false;
  res.nodes.reserve(node_count);
  for (uint32_t i = 0; i < node_count; ++i) {
    NodeSummary n;
    n.slab = r.i64();
    n.ticks = r.u64();
    n.cf_opt = r.i32();
    n.uf_opt = r.i32();
    res.nodes.push_back(n);
  }
  core::ControllerStats& s = res.stats;
  s.ticks = r.u64();
  s.idle_ticks = r.u64();
  s.transitions = r.u64();
  s.samples_recorded = r.u64();
  s.freq_writes = r.u64();
  s.nodes_inserted = r.u64();
  if (!r.ok() || r.remaining() != 0) return false;
  *out = std::move(res);
  return true;
}

// ---- shard store -------------------------------------------------------

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    CF_LOG_ERROR("result cache: cannot create %s: %s", dir_.c_str(),
                 ec.message().c_str());
  }
  scan_all();
}

void ResultCache::scan_all() {
  shard_paths_.clear();
  entries_.clear();
  index_.clear();
  skipped_records_ = 0;
  std::error_code ec;
  std::vector<std::string> paths;
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("shard-", 0) == 0 &&
        name.size() > 4 && name.substr(name.size() - 4) == ".bin") {
      paths.push_back(e.path().string());
    }
  }
  // Directory iteration order is filesystem-dependent; sort so duplicate
  // digests resolve to the same shard on every open.
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) scan_shard(path);
}

void ResultCache::scan_shard(const std::string& path) {
  std::string data;
  if (!read_file(path, &data)) {
    CF_LOG_WARN("result cache: cannot read shard %s; ignoring", path.c_str());
    ++skipped_records_;
    return;
  }
  BlobReader header(data.data(), data.size());
  if (header.u32() != kShardMagic ||
      header.u32() != kShardFormatVersion) {
    CF_LOG_WARN("result cache: %s is not a v%u shard; ignoring",
                path.c_str(), kShardFormatVersion);
    ++skipped_records_;
    return;
  }
  const size_t shard_index = shard_paths_.size();
  shard_paths_.push_back(path);

  // Past the 8-byte header the shard is a stream of frames. The scan
  // stops at the first bad one: the tail after a torn append or bit rot is
  // untrustworthy, so those cells re-simulate.
  const size_t end = scan_frames(data, 8, kRecordLayout,
                                 [&](std::string_view body) {
    BlobReader rec(body.data(), kRecordHeader);
    Entry entry;
    entry.digest.hi = rec.u64();
    entry.digest.lo = rec.u64();
    entry.spec_len = rec.u32();
    entry.result_len = rec.u32();
    entry.shard = shard_index;
    entry.spec_offset =
        static_cast<uint64_t>(body.data() - data.data()) + kRecordHeader;
    entry.result_offset = entry.spec_offset + entry.spec_len;
    // First occurrence wins; later duplicates (merged stores share
    // content) are valid but redundant.
    if (index_.emplace(entry.digest, entries_.size()).second) {
      entries_.push_back(entry);
    }
  });
  if (end < data.size()) {
    CF_LOG_WARN(
        "result cache: %s: bad record at offset %zu; ignoring the rest of "
        "the shard (%zu trailing bytes)",
        path.c_str(), end, data.size() - end);
    ++skipped_records_;
  }
}

bool ResultCache::read_span(size_t shard, uint64_t offset, uint32_t len,
                           std::string* out) const {
  std::ifstream in(shard_paths_[shard], std::ios::binary);
  if (!in) return false;
  in.seekg(static_cast<std::streamoff>(offset));
  std::string buf(len, '\0');
  in.read(buf.data(), static_cast<std::streamsize>(len));
  if (in.gcount() != static_cast<std::streamsize>(len)) return false;
  *out = std::move(buf);
  return true;
}

bool ResultCache::lookup(const SpecDigest& digest, RunResult* out) {
  const auto it = index_.find(digest);
  if (it == index_.end()) return false;
  const Entry& entry = entries_[it->second];
  std::string bytes;
  if (!read_span(entry.shard, entry.result_offset, entry.result_len,
                 &bytes) ||
      !decode_result(bytes.data(), bytes.size(), out)) {
    CF_LOG_WARN("result cache: entry %s unreadable; treating as a miss",
                digest.hex().c_str());
    return false;
  }
  return true;
}

void ResultCache::insert_batch(const std::vector<Insert>& batch) {
  BlobWriter header;
  header.u32(kShardMagic);
  header.u32(kShardFormatVersion);
  std::string content = header.take();
  std::vector<Entry> pending;
  std::unordered_map<SpecDigest, bool, SpecDigestHash> in_batch;
  for (const Insert& ins : batch) {
    CF_ASSERT(ins.result != nullptr, "insert without a result");
    // Skip entries the store (or this very batch — grids may contain
    // duplicate points) already holds.
    if (index_.count(ins.digest) != 0) continue;
    if (!in_batch.emplace(ins.digest, true).second) continue;
    const std::string result_bytes = encode_result(*ins.result);
    BlobWriter body;
    body.u64(ins.digest.hi);
    body.u64(ins.digest.lo);
    body.u32(static_cast<uint32_t>(ins.spec_blob.size()));
    body.u32(static_cast<uint32_t>(result_bytes.size()));
    body.bytes(ins.spec_blob.data(), ins.spec_blob.size());
    body.bytes(result_bytes.data(), result_bytes.size());
    Entry entry;
    entry.digest = ins.digest;
    entry.spec_len = static_cast<uint32_t>(ins.spec_blob.size());
    entry.result_len = static_cast<uint32_t>(result_bytes.size());
    entry.spec_offset = content.size() + 4 + kRecordHeader;
    entry.result_offset = entry.spec_offset + entry.spec_len;
    pending.push_back(entry);
    content += encode_frame(kRecordMagic, body.data());
  }
  if (pending.empty()) return;

  // Content-hash naming makes shard writes idempotent and store merges
  // collision-free: copying shards between stores can only ever add files.
  const std::string name =
      "shard-" + digest_bytes(content.data(), content.size()).hex().substr(
                     0, 16) +
      ".bin";
  const std::string path = dir_ + "/" + name;
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    if (!write_file_atomic(path, content)) return;
  }
  const size_t shard_index = shard_paths_.size();
  shard_paths_.push_back(path);
  for (Entry& entry : pending) {
    entry.shard = shard_index;
    if (index_.emplace(entry.digest, entries_.size()).second) {
      entries_.push_back(entry);
    }
  }
}

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  s.entries = entries_.size();
  s.shards = shard_paths_.size();
  s.skipped_records = skipped_records_;
  std::error_code ec;
  for (const std::string& path : shard_paths_) {
    const auto size = fs::file_size(path, ec);
    if (!ec) s.bytes += size;
  }
  return s;
}

void ResultCache::note_run(uint64_t hits, uint64_t misses) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu %llu\n",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses));
  write_file_atomic(dir_ + "/last_run.stats", buf);
}

ResultCache::LastRun ResultCache::last_run() const {
  std::string text;
  LastRun run;
  if (!read_file(dir_ + "/last_run.stats", &text)) return run;
  unsigned long long hits = 0, misses = 0;
  if (std::sscanf(text.c_str(), "%llu %llu", &hits, &misses) != 2) return run;
  run.present = true;
  run.hits = hits;
  run.misses = misses;
  return run;
}

uint64_t ResultCache::gc(uint64_t max_bytes) {
  struct ShardFile {
    std::string path;
    uint64_t bytes = 0;
    fs::file_time_type mtime;
  };
  std::vector<ShardFile> files;
  uint64_t total = 0;
  std::error_code ec;
  for (const std::string& path : shard_paths_) {
    ShardFile f;
    f.path = path;
    f.bytes = fs::file_size(path, ec);
    if (ec) continue;
    f.mtime = fs::last_write_time(path, ec);
    if (ec) continue;
    total += f.bytes;
    files.push_back(std::move(f));
  }
  // Oldest first (name as the tiebreak so the order is deterministic).
  std::sort(files.begin(), files.end(),
            [](const ShardFile& a, const ShardFile& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;
            });
  uint64_t removed = 0;
  for (const ShardFile& f : files) {
    if (total <= max_bytes) break;
    fs::remove(f.path, ec);
    if (ec) {
      CF_LOG_WARN("result cache: gc cannot remove %s: %s", f.path.c_str(),
                  ec.message().c_str());
      continue;
    }
    total -= f.bytes;
    removed += f.bytes;
  }
  if (removed > 0) scan_all();
  return removed;
}

bool ResultCache::entry(size_t i, EntryView* out) {
  if (i >= entries_.size()) return false;
  const Entry& entry = entries_[i];
  std::string result_bytes;
  if (!read_span(entry.shard, entry.spec_offset, entry.spec_len,
                 &out->spec_blob) ||
      !read_span(entry.shard, entry.result_offset, entry.result_len,
                 &result_bytes) ||
      !decode_result(result_bytes.data(), result_bytes.size(),
                     &out->result)) {
    return false;
  }
  out->digest = entry.digest;
  return true;
}

// ---- sharded partial result tables ------------------------------------

bool save_shard_table(const std::string& path, const ShardTable& table) {
  BlobWriter body;
  body.u32(kTableFormatVersion);
  body.u64(table.grid_size);
  body.i32(table.shard_index);
  body.i32(table.shard_count);
  body.u64(table.rows.size());
  for (const auto& [index, result] : table.rows) {
    const std::string bytes = encode_result(result);
    body.u64(index);
    body.u32(static_cast<uint32_t>(bytes.size()));
    body.bytes(bytes.data(), bytes.size());
  }
  return write_file_atomic(path, encode_frame(kTableMagic, body.data()));
}

bool load_shard_table(const std::string& path, ShardTable* out,
                      std::string* error) {
  std::string data;
  if (!read_file(path, &data)) {
    *error = "cannot read " + path;
    return false;
  }
  std::string_view body;
  std::string why;
  if (!whole_frame(data, kTableMagic, &body, &why)) {
    *error = path + " " + why;
    return false;
  }
  BlobReader r(body.data(), body.size());
  if (r.u32() != kTableFormatVersion) {
    *error = path + " has an unsupported table version";
    return false;
  }
  ShardTable table;
  table.grid_size = r.u64();
  table.shard_index = r.i32();
  table.shard_count = r.i32();
  const uint64_t rows = r.u64();
  if (!r.ok() || rows > r.remaining() / 12) {
    *error = path + " has a malformed header";
    return false;
  }
  table.rows.reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    const uint64_t index = r.u64();
    const uint32_t len = r.u32();
    const char* bytes = r.span(len);
    RunResult result;
    if (bytes == nullptr || !decode_result(bytes, len, &result)) {
      *error = path + " has an undecodable result row";
      return false;
    }
    table.rows.emplace_back(index, std::move(result));
  }
  if (!r.ok() || r.remaining() != 0) {
    *error = path + " has trailing or missing bytes";
    return false;
  }
  table.source = path;
  *out = std::move(table);
  return true;
}

namespace {

/// "shard i/N (file.tbl)" when the table came from disk, "shard i/N"
/// otherwise — merge diagnostics always lead with the artifact to act on.
std::string table_label(const ShardTable& table) {
  std::string label = "shard " + std::to_string(table.shard_index) + "/" +
                      std::to_string(table.shard_count);
  if (!table.source.empty()) label += " (" + table.source + ")";
  return label;
}

}  // namespace

std::optional<std::vector<RunResult>> merge_shard_tables(
    const std::vector<ShardTable>& tables, std::string* error) {
  if (tables.empty()) {
    *error = "no shard tables to merge";
    return std::nullopt;
  }
  const uint64_t grid_size = tables.front().grid_size;
  const int shard_count = tables.front().shard_count;
  // Duplicate tables are diagnosed up front — by shard index AND by the
  // files claiming it — so a CI merge that globbed the same file twice
  // (or two processes that ran the same shard) hears exactly which
  // artifacts collided rather than a per-row "covered twice" at some
  // arbitrary row.
  {
    std::vector<std::vector<const ShardTable*>> claims(
        static_cast<size_t>(std::max(shard_count, 1)));
    for (const ShardTable& table : tables) {
      if (table.shard_index < 0 || table.shard_index >= shard_count) {
        continue;  // reported with full context below
      }
      claims[static_cast<size_t>(table.shard_index)].push_back(&table);
    }
    std::string duplicated;
    for (int s = 0; s < shard_count; ++s) {
      const auto& owners = claims[static_cast<size_t>(s)];
      if (owners.size() < 2) continue;
      if (!duplicated.empty()) duplicated += "; ";
      duplicated +=
          "shard " + std::to_string(s) + "/" + std::to_string(shard_count);
      std::string files;
      for (const ShardTable* t : owners) {
        if (t->source.empty()) continue;
        if (!files.empty()) files += ", ";
        files += t->source;
      }
      if (!files.empty()) duplicated += " (from " + files + ")";
    }
    if (!duplicated.empty()) {
      *error = "duplicated shard tables: " + duplicated +
               " — each shard may appear once in the merge list";
      return std::nullopt;
    }
  }
  std::vector<RunResult> results(grid_size);
  std::vector<uint8_t> covered(grid_size, 0);
  for (const ShardTable& table : tables) {
    if (table.grid_size != grid_size || table.shard_count != shard_count) {
      *error = table_label(table) + " disagrees on grid shape (" +
               std::to_string(table.grid_size) + " cells/" +
               std::to_string(table.shard_count) + " shards vs " +
               std::to_string(grid_size) + "/" +
               std::to_string(shard_count) + ")";
      return std::nullopt;
    }
    if (table.shard_index < 0 || table.shard_index >= shard_count) {
      *error = table_label(table) + ": shard index out of range for " +
               std::to_string(shard_count) + " shards";
      return std::nullopt;
    }
    for (const auto& [index, result] : table.rows) {
      if (index >= grid_size) {
        *error = "row index " + std::to_string(index) +
                 " outside the grid of " + std::to_string(grid_size) +
                 " in " + table_label(table);
        return std::nullopt;
      }
      if (static_cast<int>(index % static_cast<uint64_t>(shard_count)) !=
          table.shard_index) {
        *error = "row " + std::to_string(index) + " does not belong to " +
                 table_label(table);
        return std::nullopt;
      }
      if (covered[index]) {
        *error = "row " + std::to_string(index) + " covered twice (last by " +
                 table_label(table) + ")";
        return std::nullopt;
      }
      covered[index] = 1;
      results[index] = result;
    }
  }
  // An imperfect partition is named precisely: every uncovered row maps
  // back to its owning shard (index % N), so the error lists exactly the
  // --shard i/N invocations still missing instead of the first bad row.
  uint64_t missing_rows = 0;
  std::vector<uint8_t> shard_missing(
      static_cast<size_t>(std::max(shard_count, 1)), 0);
  for (uint64_t i = 0; i < grid_size; ++i) {
    if (!covered[i]) {
      ++missing_rows;
      shard_missing[i % static_cast<uint64_t>(shard_count)] = 1;
    }
  }
  if (missing_rows > 0) {
    std::string shards;
    for (int s = 0; s < shard_count; ++s) {
      if (!shard_missing[static_cast<size_t>(s)]) continue;
      if (!shards.empty()) shards += ", ";
      shards += std::to_string(s) + "/" + std::to_string(shard_count);
    }
    // Name what WAS merged alongside what is missing: the absent shard
    // has no file to point at, but the loaded file list tells the
    // operator which glob/artifact set came up short.
    std::string merged_files;
    for (const ShardTable& table : tables) {
      if (table.source.empty()) continue;
      if (!merged_files.empty()) merged_files += ", ";
      merged_files += table.source;
    }
    *error = std::to_string(missing_rows) + " of " +
             std::to_string(grid_size) +
             " rows uncovered; missing shard tables: " + shards;
    if (!merged_files.empty()) {
      *error += " (merged files: " + merged_files + ")";
    }
    return std::nullopt;
  }
  return results;
}

}  // namespace cuttlefish::exp
