#include "exp/result_cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <tuple>

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

/// Record frames: a head of digest (16) + spec and result lengths, then
/// the spec and result payloads.
constexpr size_t kRecordHeader = 16 + 4 + 4;
constexpr FrameLayout kRecordLayout{kRecordMagic, kRecordHeader, 2};

/// Reads one of the store's own files whole into *out: false, with *out
/// untouched, unless fstat says `path` is a regular file. The open does
/// not block, so a FIFO planted in the store reads as unreadable instead
/// of stalling every reader of it (read_file's open would wait for a
/// writer forever).
bool read_store_file(const std::string& path, std::string* out) {
  const FdCloser file(
      ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK));
  struct stat st {};
  if (file.fd < 0 || ::fstat(file.fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    return false;
  }
  std::string data(static_cast<size_t>(st.st_size), '\0');
  // A shard cut since the fstat reads short, and the frame scan drops
  // its torn tail.
  data.resize(read_at(file.fd, 0, data.data(), data.size()));
  *out = std::move(data);
  return true;
}

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
  if (!read_store_file(path, &data)) {
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

void ResultCache::read_entries(
    const std::vector<size_t>& wanted, bool with_spec,
    const std::function<bool(size_t k, std::string_view bytes)>& use)
    const {
  const auto span_begin = [&](const Entry& e) {
    return with_spec ? e.spec_offset : e.result_offset;
  };
  const auto span_length = [&](const Entry& e) {
    return size_t{e.result_len} + (with_spec ? e.spec_len : 0);
  };
  // Shard, then offset: each shard's run of the order is one read, and
  // repeats of one entry sit together so its bytes are decoded from one
  // slice.
  std::vector<size_t> order(wanted.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Entry& x = entries_[wanted[a]];
    const Entry& y = entries_[wanted[b]];
    return std::tie(x.shard, x.spec_offset, a) <
           std::tie(y.shard, y.spec_offset, b);
  });
  for (size_t g = 0; g < order.size();) {
    // [g, run_end) is one shard's run; its read spans [first, last).
    const Entry& head = entries_[wanted[order[g]]];
    const size_t shard = head.shard;
    const uint64_t first = span_begin(head);
    uint64_t last = first;
    size_t run_end = g;
    for (; run_end < order.size(); ++run_end) {
      const Entry& e = entries_[wanted[order[run_end]]];
      if (e.shard != shard) break;
      last = std::max(last, span_begin(e) + span_length(e));
    }
    const FdCloser file(
        ::open(shard_paths_[shard].c_str(), O_RDONLY | O_CLOEXEC));
    if (file.fd < 0) {
      CF_LOG_WARN("result cache: cannot open shard %s (%s); its entries "
                  "are misses",
                  shard_paths_[shard].c_str(), std::strerror(errno));
      g = run_end;
      continue;
    }
    // One read for the whole run. It comes up short only when the shard
    // was cut since the open-time scan or a read failed: then exactly the
    // spans that end past what was read miss.
    const auto bytes = std::make_unique_for_overwrite<char[]>(last - first);
    const size_t got = read_at(file.fd, first, bytes.get(), last - first);
    constexpr size_t kNone = ~size_t{0};
    size_t prev = kNone;  // the entry the last slice belonged to
    bool prev_ok = false;
    for (; g < run_end; ++g) {
      const size_t k = order[g];
      const Entry& e = entries_[wanted[k]];
      const uint64_t at = span_begin(e) - first;
      const std::string_view slice(bytes.get() + at, span_length(e));
      if (wanted[k] == prev) {
        if (prev_ok) prev_ok = use(k, slice);
        continue;
      }
      prev = wanted[k];
      prev_ok = at + slice.size() <= got && use(k, slice);
      if (!prev_ok) {
        CF_LOG_WARN("result cache: entry %s unreadable; treating as a miss",
                    e.digest.hex().c_str());
      }
    }
  }
}

size_t ResultCache::lookup(std::span<Lookup> batch) {
  std::vector<size_t> wanted;
  std::vector<size_t> request;  // the batch position of wanted[j]
  for (size_t k = 0; k < batch.size(); ++k) {
    batch[k].hit = false;
    const auto it = index_.find(batch[k].digest);
    if (it == index_.end()) continue;
    wanted.push_back(it->second);
    request.push_back(k);
  }
  size_t hits = 0;
  read_entries(wanted, /*with_spec=*/false,
               [&](size_t j, std::string_view bytes) {
                 Lookup& l = batch[request[j]];
                 l.hit = decode_result(bytes.data(), bytes.size(), l.out);
                 hits += l.hit ? 1 : 0;
                 return l.hit;
               });
  return hits;
}

bool ResultCache::lookup(const SpecDigest& digest, RunResult* out) {
  Lookup one{digest, out, false};
  return lookup(std::span<Lookup>(&one, 1)) == 1;
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
  const std::string path = dir_ + "/last_run.stats";
  // A repeated sweep counts what the last one counted: the file already
  // holds these bytes, and replacing them would cost a temp file and a
  // rename for nothing.
  std::string held;
  if (!read_store_file(path, &held) || held != buf) {
    write_file_atomic(path, buf);
  }
}

ResultCache::LastRun ResultCache::last_run() const {
  std::string text;
  LastRun run;
  if (!read_store_file(dir_ + "/last_run.stats", &text)) return run;
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
  const Entry& e = entries_[i];
  bool ok = false;
  read_entries({i}, /*with_spec=*/true,
               [&](size_t, std::string_view bytes) {
                 ok = decode_result(bytes.data() + e.spec_len, e.result_len,
                                    &out->result);
                 if (ok) out->spec_blob.assign(bytes.data(), e.spec_len);
                 return ok;
               });
  if (ok) out->digest = e.digest;
  return ok;
}

}  // namespace cuttlefish::exp
