#include "exp/supervisor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/log.hpp"
#include "exp/blob.hpp"
#include "exp/record_file.hpp"
#include "exp/result_cache.hpp"

namespace fs = std::filesystem;

namespace cuttlefish::exp {

namespace {

constexpr uint32_t kJournalMagic = 0x43464a4eu;        // "CFJN"
constexpr uint32_t kJournalVersion = 1;
constexpr uint32_t kJournalRecordMagic = 0x43464a52u;  // "CFJR"
constexpr uint32_t kManifestMagic = 0x4346514du;       // "CFQM"
constexpr uint32_t kManifestVersion = 1;

/// Journal header: magic, version, grid digest, grid size, checksum over
/// everything before the checksum (magic included, so not a frame).
constexpr size_t kJournalHeaderBytes = 4 + 4 + 16 + 8 + 8;
/// Fixed part of a journal record after its magic: spec, attempt, len.
constexpr size_t kJournalRecordHeader = 8 + 4 + 4;

/// Exit code of a worker whose co-simulation succeeded but whose result
/// file could not be written (distinguishable from the crash-hook's 41).
constexpr int kWorkerWriteFailure = 42;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- journal -----------------------------------------------------------

std::string encode_journal_header(const SpecDigest& grid,
                                  uint64_t grid_size) {
  BlobWriter w;
  w.u32(kJournalMagic);
  w.u32(kJournalVersion);
  w.u64(grid.hi);
  w.u64(grid.lo);
  w.u64(grid_size);
  w.u64(checksum64(w.data().data(), w.size()));
  return w.take();
}

/// Journal records are frames whose head ends with the result length.
constexpr FrameLayout kJournalLayout{kJournalRecordMagic,
                                     kJournalRecordHeader, 1};

struct JournalRecord {
  uint64_t spec = 0;
  uint32_t attempt = 0;
  std::string result;  // encode_result bytes
};

/// False unless `body` is exactly a record head and its result bytes.
bool parse_journal_record(std::string_view body, JournalRecord* rec) {
  BlobReader r(body.data(), body.size());
  rec->spec = r.u64();
  rec->attempt = r.u32();
  const uint32_t len = r.u32();
  const char* bytes = r.span(len);
  if (bytes == nullptr || r.remaining() != 0) return false;
  rec->result.assign(bytes, len);
  return true;
}

std::string encode_journal_record(uint64_t spec, uint32_t attempt,
                                  const std::string& result_bytes) {
  BlobWriter body;
  body.u64(spec);
  body.u32(attempt);
  body.u32(static_cast<uint32_t>(result_bytes.size()));
  body.bytes(result_bytes.data(), result_bytes.size());
  return encode_frame(kJournalRecordMagic, body.data());
}

struct JournalScan {
  bool present = false;
  bool valid = false;  // header parsed and checksummed
  std::string error;
  SpecDigest grid = {0, 0};
  uint64_t grid_size = 0;
  uint64_t good_bytes = 0;  // scan stop offset (truncate point on resume)
  uint64_t dropped_bytes = 0;
  std::vector<JournalRecord> records;
};

/// Scan stops at the first bad record: a torn appended tail costs its
/// records (they re-run), never a wrong result.
JournalScan scan_journal(const std::string& path) {
  JournalScan scan;
  std::string data;
  if (!read_file(path, &data)) return scan;
  scan.present = true;
  if (data.size() < kJournalHeaderBytes) {
    scan.error = path + " is truncated";
    return scan;
  }
  BlobReader h(data.data(), kJournalHeaderBytes);
  if (h.u32() != kJournalMagic) {
    scan.error = path + " is not a sweep journal (bad magic)";
    return scan;
  }
  if (h.u32() != kJournalVersion) {
    scan.error = path + " has an unsupported journal version";
    return scan;
  }
  scan.grid.hi = h.u64();
  scan.grid.lo = h.u64();
  scan.grid_size = h.u64();
  if (h.u64() != checksum64(data.data(), kJournalHeaderBytes - 8)) {
    scan.error = path + " failed its header checksum (torn or corrupt)";
    return scan;
  }
  scan.valid = true;
  scan.good_bytes = scan_frames(data, kJournalHeaderBytes, kJournalLayout,
                                [&](std::string_view body) {
    // Cannot fail: the scan delimited the body by its own length field.
    parse_journal_record(body, &scan.records.emplace_back());
  });
  scan.dropped_bytes = data.size() - scan.good_bytes;
  return scan;
}

// ---- quarantine manifest -----------------------------------------------

std::string encode_manifest(const SpecDigest& grid,
                            const std::vector<QuarantineRow>& rows) {
  BlobWriter body;
  body.u32(kManifestVersion);
  body.u64(grid.hi);
  body.u64(grid.lo);
  body.u64(rows.size());
  for (const QuarantineRow& row : rows) {
    body.u64(row.spec_index);
    body.u32(row.attempts);
    body.u8(row.timed_out ? 1 : 0);
    body.i32(row.exit_status);
    body.i32(row.term_signal);
  }
  return encode_frame(kManifestMagic, body.data());
}

bool decode_manifest(const std::string& data, SpecDigest* grid,
                     std::vector<QuarantineRow>* rows, std::string* error) {
  std::string_view body;
  std::string why;
  if (!whole_frame(data, kManifestMagic, &body, &why)) {
    *error = "manifest " + why;
    return false;
  }
  BlobReader r(body.data(), body.size());
  if (r.u32() != kManifestVersion) {
    *error = "manifest has an unsupported version";
    return false;
  }
  grid->hi = r.u64();
  grid->lo = r.u64();
  const uint64_t count = r.u64();
  if (!r.ok() || count > r.remaining() / 21) {
    *error = "manifest has a malformed header";
    return false;
  }
  rows->clear();
  rows->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    QuarantineRow row;
    row.spec_index = r.u64();
    row.attempts = r.u32();
    row.timed_out = r.u8() != 0;
    row.exit_status = r.i32();
    row.term_signal = r.i32();
    rows->push_back(row);
  }
  if (!r.ok() || r.remaining() != 0) {
    *error = "manifest has trailing or missing bytes";
    return false;
  }
  return true;
}

// ---- worker ------------------------------------------------------------

[[noreturn]] void crash_now(CrashMode mode) {
  switch (mode) {
    case CrashMode::kAbort:
      std::abort();
    case CrashMode::kKill:
      ::kill(::getpid(), SIGKILL);
      break;
    case CrashMode::kHang:
    case CrashMode::kNone:
      break;
    case CrashMode::kExit:
      ::_exit(41);
  }
  // kHang (and the instant between kill() and SIGKILL delivery): sleep
  // until the supervisor's deadline SIGKILLs us.
  for (;;) ::pause();
}

/// The forked worker: one spec, one result file, _exit. Never returns to
/// the supervisor's code; _exit skips atexit/stdio so the parent's
/// buffered output is not replayed. The result file is the journal record
/// the parent will append.
[[noreturn]] void worker_main(const SweepGrid& grid, uint64_t spec,
                              uint32_t attempt, const CrashSpec& crash,
                              const std::string& result_path) {
  if (crash.enabled() &&
      crash.spec_index == static_cast<int64_t>(spec) &&
      (crash.times < 0 || static_cast<int>(attempt) < crash.times)) {
    crash_now(crash.mode);
  }
  const RunResult result = run_spec(grid.specs()[spec]);
  if (!write_file_atomic(result_path, encode_journal_record(
                                          spec, attempt,
                                          encode_result(result)))) {
    ::_exit(kWorkerWriteFailure);
  }
  ::_exit(0);
}

/// Parent-side read of a worker's result file: one good journal record
/// for this spec and attempt whose result fully decodes, or the attempt
/// counts as a failure. On success *record holds the file's bytes, ready
/// to append to the journal.
bool read_worker_result(const std::string& path, uint64_t spec,
                        uint32_t attempt, std::string* record,
                        RunResult* result) {
  std::string data;
  std::string error;
  std::string_view body;
  JournalRecord rec;
  if (!read_file(path, &data) ||
      !whole_frame(data, kJournalRecordMagic, &body, &error) ||
      !parse_journal_record(body, &rec) || rec.spec != spec ||
      rec.attempt != attempt ||
      !decode_result(rec.result.data(), rec.result.size(), result)) {
    return false;
  }
  *record = std::move(data);
  return true;
}

std::string describe_failure(const QuarantineRow& row) {
  char buf[96];
  if (row.timed_out) {
    std::snprintf(buf, sizeof(buf), "timed out (SIGKILLed by deadline)");
  } else if (row.term_signal != 0) {
    std::snprintf(buf, sizeof(buf), "killed by signal %d", row.term_signal);
  } else if (row.exit_status >= 0) {
    std::snprintf(buf, sizeof(buf), "exited with status %d",
                  row.exit_status);
  } else {
    std::snprintf(buf, sizeof(buf), "produced an unreadable result");
  }
  return buf;
}

}  // namespace

// ---- crash-spec parsing ------------------------------------------------

std::optional<CrashSpec> parse_crash_spec(const std::string& text,
                                          std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<CrashSpec> {
    if (error != nullptr) {
      *error = "expects <spec-index>:<abort|kill|hang|exit>[:times], " + why;
    }
    return std::nullopt;
  };
  const auto colon = text.find(':');
  if (colon == std::string::npos || colon == 0) {
    return fail("got '" + text + "'");
  }
  char* end = nullptr;
  const unsigned long long index =
      std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + colon) {
    return fail("spec index '" + text.substr(0, colon) +
                "' is not an integer");
  }
  std::string mode_text = text.substr(colon + 1);
  int times = -1;
  if (const auto second = mode_text.find(':');
      second != std::string::npos) {
    const std::string times_text = mode_text.substr(second + 1);
    mode_text.resize(second);
    const long t = std::strtol(times_text.c_str(), &end, 10);
    if (end == times_text.c_str() || *end != '\0' || t <= 0) {
      return fail("times '" + times_text + "' is not a positive integer");
    }
    times = static_cast<int>(t);
  }
  CrashSpec crash;
  crash.spec_index = static_cast<int64_t>(index);
  crash.times = times;
  if (mode_text == "abort") {
    crash.mode = CrashMode::kAbort;
  } else if (mode_text == "kill") {
    crash.mode = CrashMode::kKill;
  } else if (mode_text == "hang") {
    crash.mode = CrashMode::kHang;
  } else if (mode_text == "exit") {
    crash.mode = CrashMode::kExit;
  } else {
    return fail("unknown mode '" + mode_text + "'");
  }
  return crash;
}

// ---- grid identity -----------------------------------------------------

SpecDigest grid_digest(const SweepGrid& grid) {
  BlobWriter w;
  w.u64(grid.size());
  for (const RunSpec& spec : grid.specs()) {
    const std::string blob = encode_spec(spec);
    w.u32(static_cast<uint32_t>(blob.size()));
    w.bytes(blob.data(), blob.size());
  }
  return digest_bytes(w.data().data(), w.size());
}

// ---- supervisor --------------------------------------------------------

SweepSupervisor::SweepSupervisor(const SweepGrid& grid,
                                 std::string journal_dir,
                                 SupervisorOptions options)
    : grid_(&grid), dir_(std::move(journal_dir)), options_(options) {}

std::vector<RunResult> SweepSupervisor::run(SupervisorReport* report_out) {
  SupervisorReport report;
  const uint64_t n = grid_->size();
  std::vector<RunResult> results(n);
  const auto finish = [&](bool ok) {
    report.completed = ok;
    if (report_out != nullptr) *report_out = report;
    return results;
  };
  const auto fail = [&](const std::string& why) {
    CF_LOG_ERROR("supervisor: %s", why.c_str());
    report.error = why;
    results.clear();
    if (report_out != nullptr) *report_out = report;
    return results;
  };

  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return fail("cannot create journal dir " + dir_ + ": " + ec.message());
  }
  const SpecDigest digest = grid_digest(*grid_);
  const std::string journal_path = dir_ + "/" + kJournalFileName;
  const std::string manifest_path = dir_ + "/" + kQuarantineFileName;

  // The deterministic self-kill hook: explicit options win, otherwise
  // CUTTLEFISH_CRASH_AT (the env form is what `micro_sweep --supervised`
  // under CI exports to its own workers).
  CrashSpec crash = options_.crash;
  if (!crash.enabled()) {
    if (const char* env = std::getenv("CUTTLEFISH_CRASH_AT")) {
      std::string parse_error;
      const auto parsed = parse_crash_spec(env, &parse_error);
      if (!parsed) return fail("CUTTLEFISH_CRASH_AT " + parse_error);
      crash = *parsed;
    }
  }

  enum class SpecState : uint8_t { kPending, kRunning, kDone, kQuarantined };
  std::vector<SpecState> state(n, SpecState::kPending);
  std::vector<uint32_t> attempts(n, 0);

  // ---- resume: replay the journal, adopt the manifest ------------------
  const JournalScan scan = scan_journal(journal_path);
  if (scan.present) {
    if (!scan.valid) return fail(scan.error);
    if (scan.grid != digest || scan.grid_size != n) {
      return fail(journal_path + " was written by a different grid (" +
                  std::to_string(scan.grid_size) + " specs, digest " +
                  scan.grid.hex() + "; this grid: " + std::to_string(n) +
                  " specs, digest " + digest.hex() +
                  ") — resume with the original flags or pick a fresh "
                  "journal dir");
    }
    if (scan.dropped_bytes > 0) {
      CF_LOG_WARN("supervisor: dropping %llu torn byte(s) from the tail "
                  "of %s (the affected specs re-run)",
                  static_cast<unsigned long long>(scan.dropped_bytes),
                  journal_path.c_str());
      fs::resize_file(journal_path, scan.good_bytes, ec);
      if (ec) {
        return fail("cannot truncate the torn journal tail of " +
                    journal_path + ": " + ec.message());
      }
    }
    for (const auto& [spec, attempt, bytes] : scan.records) {
      if (spec >= n || state[spec] == SpecState::kDone) continue;
      RunResult decoded;
      if (!decode_result(bytes.data(), bytes.size(), &decoded)) continue;
      results[spec] = std::move(decoded);
      state[spec] = SpecState::kDone;
      attempts[spec] = attempt + 1;
      ++report.resumed;
    }
  } else {
    if (!write_file_atomic(journal_path,
                           encode_journal_header(digest, n))) {
      return fail("cannot create " + journal_path);
    }
  }

  std::vector<QuarantineRow> quarantine_rows;
  {
    std::string data;
    if (read_file(manifest_path, &data)) {
      SpecDigest manifest_grid;
      std::vector<QuarantineRow> rows;
      std::string manifest_error;
      if (!decode_manifest(data, &manifest_grid, &rows, &manifest_error)) {
        CF_LOG_WARN("supervisor: ignoring %s (%s); quarantined specs will "
                    "be re-attempted",
                    manifest_path.c_str(), manifest_error.c_str());
      } else if (manifest_grid != digest) {
        CF_LOG_WARN("supervisor: ignoring %s (written by a different "
                    "grid)", manifest_path.c_str());
      } else {
        for (const QuarantineRow& row : rows) {
          if (row.spec_index >= n ||
              state[row.spec_index] != SpecState::kPending) {
            continue;
          }
          state[row.spec_index] = SpecState::kQuarantined;
          quarantine_rows.push_back(row);
        }
      }
    }
  }

  FdCloser journal{::open(journal_path.c_str(), O_WRONLY | O_APPEND)};
  if (journal.fd < 0) {
    return fail("cannot append to " + journal_path + ": " +
                std::strerror(errno));
  }
  const auto journal_append = [&](const std::string& rec) {
    // On failure the result is still in memory; only resumability
    // degrades.
    if (!write_all(journal.fd, rec)) {
      CF_LOG_ERROR("supervisor: journal append failed: %s",
                   std::strerror(errno));
    }
  };
  const auto quarantine = [&](const QuarantineRow& row) {
    state[row.spec_index] = SpecState::kQuarantined;
    quarantine_rows.push_back(row);
    if (!write_file_atomic(manifest_path,
                           encode_manifest(digest, quarantine_rows))) {
      CF_LOG_ERROR("supervisor: cannot write %s", manifest_path.c_str());
    }
  };

  // ---- the fork / reap / retry loop ------------------------------------
  struct Active {
    pid_t pid = -1;
    uint64_t spec = 0;
    uint32_t attempt = 0;
    double deadline = 0.0;  // 0 = no per-spec budget
    bool timed_out = false;
    std::string result_path;
  };
  std::vector<Active> active;
  std::vector<double> ready_at(n, 0.0);
  const double t0 = now_s();
  const double total_deadline =
      options_.total_timeout_s > 0 ? t0 + options_.total_timeout_s : 0.0;
  const int max_workers = std::max(1, options_.max_workers);
  const int max_attempts = std::max(1, options_.max_attempts);
  uint64_t pending = 0;
  for (const SpecState s : state) {
    if (s == SpecState::kPending) ++pending;
  }

  while (pending > 0 || !active.empty()) {
    double now = now_s();

    // Whole-run (per-shard) budget: kill everything, keep the journal,
    // report what is left — a resume continues from here.
    if (total_deadline > 0 && now >= total_deadline) {
      for (const Active& a : active) ::kill(a.pid, SIGKILL);
      for (const Active& a : active) {
        int status = 0;
        ::waitpid(a.pid, &status, 0);
        fs::remove(a.result_path, ec);
      }
      active.clear();
      for (uint64_t i = 0; i < n; ++i) {
        if (state[i] == SpecState::kPending ||
            state[i] == SpecState::kRunning) {
          report.unfinished.push_back(i);
        }
      }
      CF_LOG_WARN("supervisor: whole-run budget of %.1fs exhausted with "
                  "%zu spec(s) unfinished (journal kept; resume to "
                  "continue)",
                  options_.total_timeout_s, report.unfinished.size());
      report.quarantined = quarantine_rows;
      return finish(false);
    }

    // Launch workers into free slots (respecting retry backoff).
    bool progressed = false;
    for (uint64_t i = 0;
         i < n && static_cast<int>(active.size()) < max_workers &&
         pending > 0;
         ++i) {
      if (state[i] != SpecState::kPending || ready_at[i] > now) continue;
      Active a;
      a.spec = i;
      a.attempt = attempts[i];
      a.result_path = dir_ + "/worker-" + std::to_string(i) + "-" +
                      std::to_string(a.attempt) + ".res";
      a.pid = ::fork();
      if (a.pid < 0) {
        CF_LOG_ERROR("supervisor: fork failed: %s", std::strerror(errno));
        ready_at[i] = now + 0.1;
        continue;
      }
      if (a.pid == 0) worker_main(*grid_, i, a.attempt, crash, a.result_path);
      a.deadline =
          options_.spec_timeout_s > 0 ? now + options_.spec_timeout_s : 0.0;
      state[i] = SpecState::kRunning;
      --pending;
      active.push_back(std::move(a));
      progressed = true;
    }

    // SIGKILL workers past their per-spec deadline; the reap below sees
    // the signal and books the attempt as a timeout.
    now = now_s();
    for (Active& a : active) {
      if (a.deadline > 0 && now >= a.deadline && !a.timed_out) {
        a.timed_out = true;
        CF_LOG_WARN("supervisor: spec %llu overran its %.1fs budget "
                    "(attempt %u); SIGKILLing worker %d",
                    static_cast<unsigned long long>(a.spec),
                    options_.spec_timeout_s, a.attempt + 1,
                    static_cast<int>(a.pid));
        ::kill(a.pid, SIGKILL);
      }
    }

    // Reap finished workers.
    for (size_t k = 0; k < active.size();) {
      Active& a = active[k];
      int status = 0;
      const pid_t r = ::waitpid(a.pid, &status, WNOHANG);
      if (r == 0) {
        ++k;
        continue;
      }
      progressed = true;
      std::string record;
      RunResult decoded;
      const bool ok = r == a.pid && WIFEXITED(status) &&
                      WEXITSTATUS(status) == 0 &&
                      read_worker_result(a.result_path, a.spec, a.attempt,
                                         &record, &decoded);
      fs::remove(a.result_path, ec);
      attempts[a.spec] = a.attempt + 1;
      if (ok) {
        results[a.spec] = std::move(decoded);
        state[a.spec] = SpecState::kDone;
        ++report.executed;
        journal_append(record);
      } else {
        QuarantineRow row;
        row.spec_index = a.spec;
        row.attempts = a.attempt + 1;
        row.timed_out = a.timed_out;
        row.exit_status =
            (r == a.pid && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
        row.term_signal =
            (r == a.pid && WIFSIGNALED(status)) ? WTERMSIG(status) : 0;
        const std::string why = describe_failure(row);
        if (static_cast<int>(row.attempts) >= max_attempts) {
          CF_LOG_WARN("supervisor: spec %llu %s on attempt %u/%d — "
                      "quarantined as poison; the sweep continues "
                      "without it",
                      static_cast<unsigned long long>(a.spec), why.c_str(),
                      row.attempts, max_attempts);
          quarantine(row);
        } else {
          const uint32_t shift = std::min(a.attempt, 20u);
          const double backoff =
              std::min(options_.backoff_max_s,
                       options_.backoff_base_s *
                           static_cast<double>(uint64_t{1} << shift));
          CF_LOG_WARN("supervisor: spec %llu %s on attempt %u/%d; "
                      "retrying in %.2fs",
                      static_cast<unsigned long long>(a.spec), why.c_str(),
                      row.attempts, max_attempts, backoff);
          ready_at[a.spec] = now_s() + backoff;
          state[a.spec] = SpecState::kPending;
          ++pending;
          ++report.retries;
        }
      }
      active.erase(active.begin() + static_cast<long>(k));
    }

    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  report.quarantined = quarantine_rows;
  return finish(true);
}

// ---- offline status ----------------------------------------------------

JournalStatus read_journal_status(const std::string& dir) {
  JournalStatus status;
  const JournalScan scan = scan_journal(dir + "/" + kJournalFileName);
  status.journal_present = scan.present;
  status.valid = scan.valid;
  status.error = scan.error;
  status.grid = scan.grid;
  status.grid_size = scan.grid_size;
  status.dropped_bytes = scan.dropped_bytes;
  if (scan.valid) {
    std::vector<uint8_t> seen(scan.grid_size, 0);
    for (const auto& [spec, attempt, bytes] : scan.records) {
      if (spec >= scan.grid_size || seen[spec]) continue;
      seen[spec] = 1;
      ++status.done;
      if (attempt > 0) ++status.retried;
    }
  }
  std::string data;
  if (read_file(dir + "/" + std::string(kQuarantineFileName), &data)) {
    SpecDigest manifest_grid;
    std::vector<QuarantineRow> rows;
    std::string manifest_error;
    if (decode_manifest(data, &manifest_grid, &rows, &manifest_error) &&
        (!scan.valid || manifest_grid == scan.grid)) {
      status.quarantined = std::move(rows);
    }
  }
  return status;
}

}  // namespace cuttlefish::exp
