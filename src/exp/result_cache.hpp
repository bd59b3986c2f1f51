#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "exp/driver.hpp"
#include "exp/spec_digest.hpp"

/// On-disk content-addressed store for sweep results, and the one format
/// they move between hosts in: each `--shard i/N` run writes a store, and
/// the merge opens one store holding all their shard files. A byte-exact
/// RunResult codec makes a cached or merged result indistinguishable —
/// bit for bit — from a fresh co-simulation.
///
/// Store layout (`<dir>/`):
///   shard-<hex16>.bin   append-only record files, named by their own
///                       content hash (so merging two stores is literally
///                       copying files; identical shards collide to one)
///   last_run.stats      hit/miss counters of the most recent cached sweep,
///                       rewritten only when they change
///
/// Crash safety comes from exp/record_file.hpp: every file is replaced
/// atomically (a failed or interrupted write leaves the old bytes), each
/// record is a checksummed frame, and the open-time scan stops at the
/// first bad one (a truncated tail costs its records, never wrong
/// results). The cache is a single-writer, single-reader object: the sweep
/// engine drives it from the coordinating thread only — workers touch it
/// never (lookups happen before the fan-out, inserts after the join).
namespace cuttlefish::exp {

/// Byte-exact RunResult codec (versioned; scalars + timeline + TIPI node
/// summaries + controller stats, doubles as raw bits).
std::string encode_result(const RunResult& result);
bool decode_result(const void* data, size_t size, RunResult* out);

class ResultCache {
 public:
  /// Creates `dir` if missing and scans every shard into the in-memory
  /// index (digest -> file/offset; payloads stay on disk). A shard that
  /// cannot be read or is not a regular file (a FIFO named like one) is
  /// logged and skipped; the scan never blocks on it.
  explicit ResultCache(std::string dir);

  size_t size() const { return entries_.size(); }
  bool contains(const SpecDigest& digest) const {
    return index_.count(digest) != 0;
  }
  /// One request of a batch lookup: `out` receives the cached result
  /// when `hit` comes back true, and is left alone otherwise.
  struct Lookup {
    SpecDigest digest;
    RunResult* out = nullptr;
    bool hit = false;
  };
  /// Serves a batch: the indexed requests are grouped by shard, each
  /// shard file is opened once and read with one pread, from its first
  /// wanted result span to its last, and each result is decoded from its
  /// slice of that buffer. Sets every request's `hit`; returns the number
  /// of hits. A failed read is demoted to a miss, never trusted: a shard
  /// that vanished or cannot be opened since the open-time scan (logged
  /// once per shard), a span that ends past a short read of a shard cut
  /// since the open, or a result that does not decode (logged once per
  /// entry). No descriptor or payload outlives the call; the buffer is at
  /// most one shard.
  size_t lookup(std::span<Lookup> batch);
  /// The batch of one. False on a miss.
  bool lookup(const SpecDigest& digest, RunResult* out);

  struct Insert {
    SpecDigest digest;
    std::string spec_blob;  // canonical spec bytes (enables `verify`)
    const RunResult* result = nullptr;
  };
  /// Persists a batch as ONE new shard (temp + rename; no-op for an empty
  /// or fully duplicate batch). Entries already present are skipped.
  void insert_batch(const std::vector<Insert>& batch);

  struct Stats {
    size_t entries = 0;
    size_t shards = 0;
    uint64_t bytes = 0;            // on-disk shard bytes
    uint64_t skipped_records = 0;  // rejected by the open-time scan
  };
  Stats stats() const;

  struct LastRun {
    bool present = false;
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  /// Called by the sweep engine after every cached run. The file is
  /// read first and replaced (temp + rename) only when it does not
  /// already hold these counters, so a repeated warm sweep writes
  /// nothing.
  void note_run(uint64_t hits, uint64_t misses);
  /// The counters note_run last wrote; absent when last_run.stats is
  /// missing, unparsable or not a regular file.
  LastRun last_run() const;

  /// Deletes oldest-first whole shards until the store is <= max_bytes;
  /// returns the bytes removed. The index is rebuilt from the survivors.
  uint64_t gc(uint64_t max_bytes);

  /// Indexed access for `cuttlefishctl cache verify`: the i-th entry's
  /// digest, canonical spec bytes and decoded result. False on read
  /// failure.
  struct EntryView {
    SpecDigest digest;
    std::string spec_blob;
    RunResult result;
  };
  bool entry(size_t i, EntryView* out);

  const std::string& dir() const { return dir_; }

 private:
  struct Entry {
    SpecDigest digest;
    size_t shard = 0;  // index into shard_paths_
    uint64_t spec_offset = 0;
    uint32_t spec_len = 0;
    uint64_t result_offset = 0;
    uint32_t result_len = 0;
  };

  void scan_all();
  void scan_shard(const std::string& path);
  /// The one read path behind lookup() and entry(): calls `use(k, bytes)`
  /// for each of `wanted` (indices into entries_; any order, repeats
  /// allowed) with its record's result bytes, preceded by its spec bytes
  /// when `with_spec` is set (the two spans are adjacent in a record).
  /// Each shard is opened once and read with one pread into one buffer,
  /// from the first wanted span to the end of the last; `bytes` is a
  /// slice of it, valid during the call. `use` returns whether the bytes
  /// decoded; an entry that cannot be read (its span ends past a short
  /// read) or decoded is logged once and not offered again.
  void read_entries(
      const std::vector<size_t>& wanted, bool with_spec,
      const std::function<bool(size_t k, std::string_view bytes)>& use)
      const;

  std::string dir_;
  std::vector<std::string> shard_paths_;
  std::vector<Entry> entries_;
  std::unordered_map<SpecDigest, size_t, SpecDigestHash> index_;
  uint64_t skipped_records_ = 0;
};

}  // namespace cuttlefish::exp
