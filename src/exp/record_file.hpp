#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

/// The one file primitive behind everything the experiment engine and
/// sessions persist. Checksummed formats (cache shards, shard tables, the
/// supervisor journal and quarantine manifest, worker result files) are
/// built from frames, `u32 magic | body | u64 checksum64(body)`, either
/// laid end to end in a stream or filling a whole file.
///
/// Crash model: write_file_atomic survives process death and failed
/// writes (a full disk, a file-size limit): the destination holds its old
/// bytes or all of the new ones, and a failed call leaves no temp file.
/// Power loss is not covered — nothing calls fsync.
namespace cuttlefish::exp {

/// The checksum every frame carries: the low half of digest_bytes.
uint64_t checksum64(const void* data, size_t size);

/// Whole file into *out. False when it cannot be opened or read.
bool read_file(const std::string& path, std::string* out);

/// Writes all of `bytes` to `fd`, retrying short writes. False on error.
bool write_all(int fd, std::string_view bytes);

/// Replaces `path` with `body` through a temp file beside it, named per
/// process and per call so concurrent writers never share one. On failure
/// logs why, removes the temp, leaves `path` as it was and returns false.
bool write_file_atomic(const std::string& path, std::string_view body);

/// The frame `magic | body | checksum64(body)`.
std::string encode_frame(uint32_t magic, std::string_view body);

/// How a stream's frames are delimited: each body opens with a fixed
/// `head_bytes` head whose last `lengths` u32 fields are the sizes of the
/// payloads that follow it.
struct FrameLayout {
  uint32_t magic = 0;
  size_t head_bytes = 0;
  int lengths = 1;
};

/// Visits the body of each good frame laid end to end from `offset` and
/// stops at the first bad one: wrong magic, a body running past the end,
/// or a checksum mismatch. Returns where it stopped (data.size() when
/// every frame was good), so a torn or bit-flipped tail costs its frames,
/// never yields wrong bytes.
size_t scan_frames(std::string_view data, size_t offset,
                   const FrameLayout& layout,
                   const std::function<void(std::string_view body)>& visit);

/// The body of `data` when it is exactly one good frame with `magic`;
/// otherwise false, with *error saying what is wrong.
bool whole_frame(std::string_view data, uint32_t magic,
                 std::string_view* body, std::string* error);

}  // namespace cuttlefish::exp
