// The record-file primitive on its own: frames written by encode_frame
// scan back until the first bad one, single-frame files say what is
// wrong with them, read_file returns every byte or false, read_at every
// byte up to the end of the file, concurrent atomic replaces of one path
// never tear or leak a temp, and a replace never clobbers a FIFO. The
// formats built on it are covered exhaustively in exp_corruption_test.

#include "exp/record_file.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

namespace cuttlefish::exp {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kMagic = 0x54534554u;  // "TEST"

/// Test frames: a u32 payload length, then the payload.
constexpr FrameLayout kLayout{kMagic, 4, 1};

std::string test_body(const std::string& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  return std::string(reinterpret_cast<const char*>(&len), 4) + payload;
}

TEST(RecordFile, ScanVisitsFramesUntilTheFirstBadOne) {
  const std::vector<std::string> payloads = {"alpha", "", "gamma-gamma"};
  std::string stream = "HDR";
  std::vector<size_t> starts;
  for (const std::string& p : payloads) {
    starts.push_back(stream.size());
    stream += encode_frame(kMagic, test_body(p));
  }

  std::vector<std::string> seen;
  const auto collect = [&](std::string_view body) {
    seen.emplace_back(body.substr(4));
  };
  EXPECT_EQ(scan_frames(stream, 3, kLayout, collect), stream.size());
  EXPECT_EQ(seen, payloads);

  // A flipped byte in the second frame's payload fails its checksum: the
  // scan keeps the first frame and reports where it stopped.
  std::string damaged = stream;
  damaged[starts[1] + 4] ^= 0x10;
  seen.clear();
  EXPECT_EQ(scan_frames(damaged, 3, kLayout, collect), starts[1]);
  EXPECT_EQ(seen, std::vector<std::string>{"alpha"});

  // A torn tail and a foreign magic stop it the same way.
  seen.clear();
  EXPECT_EQ(scan_frames(stream.substr(0, stream.size() - 1), 3, kLayout,
                        collect),
            starts[2]);
  FrameLayout other = kLayout;
  other.magic = kMagic + 1;
  EXPECT_EQ(scan_frames(stream, 3, other, collect), 3u);
}

TEST(RecordFile, WholeFrameSaysWhatIsWrong) {
  const std::string file = encode_frame(kMagic, "payload");
  std::string_view body;
  std::string error;
  ASSERT_TRUE(whole_frame(file, kMagic, &body, &error)) << error;
  EXPECT_EQ(body, "payload");

  EXPECT_FALSE(whole_frame(file.substr(0, 11), kMagic, &body, &error));
  EXPECT_EQ(error, "is truncated");
  EXPECT_FALSE(whole_frame(file, kMagic + 1, &body, &error));
  EXPECT_EQ(error, "has a bad magic");
  EXPECT_FALSE(whole_frame(file.substr(0, file.size() - 1), kMagic, &body,
                           &error));
  EXPECT_EQ(error, "failed its checksum (torn or corrupt)");
}

/// A fresh directory per test; the caller removes it.
fs::path fresh_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("cuttlefish_record_" + tag + "_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// 1 MiB + 1 bytes with no repeating period a lost or doubled chunk
/// could hide behind.
std::string big_body() {
  std::string body((1u << 20) + 1, '\0');
  uint32_t x = 12345;
  for (char& c : body) {
    x = x * 1103515245u + 12345u;
    c = static_cast<char>(x >> 24);
  }
  return body;
}

TEST(RecordFile, ReadFileReturnsEveryByteOrFalse) {
  const fs::path dir = fresh_dir("read");
  const std::string body = big_body();
  const std::string path = (dir / "big").string();
  ASSERT_TRUE(write_file_atomic(path, body));
  std::string got;
  ASSERT_TRUE(read_file(path, &got));
  EXPECT_EQ(got.size(), body.size());
  EXPECT_TRUE(got == body);

  // A FIFO has no size to hint at and delivers the body a pipe buffer at
  // a time, so the read loop runs many times and grows the string.
  const std::string fifo = (dir / "pipe").string();
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer([&] {
    const int fd = ::open(fifo.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd >= 0) {
      write_all(fd, body);
      ::close(fd);
    }
  });
  got.clear();
  const bool read_fifo = read_file(fifo, &got);
  writer.join();
  EXPECT_TRUE(read_fifo);
  EXPECT_EQ(got.size(), body.size());
  EXPECT_TRUE(got == body);

  const std::string empty = (dir / "empty").string();
  ASSERT_TRUE(write_file_atomic(empty, ""));
  got = "stale";
  EXPECT_TRUE(read_file(empty, &got));
  EXPECT_EQ(got, "");

  // Failures leave *out as it was.
  got = "stale";
  EXPECT_FALSE(read_file((dir / "absent").string(), &got));
  EXPECT_FALSE(read_file(dir.string(), &got));
  EXPECT_EQ(got, "stale");
  fs::remove_all(dir);
}

TEST(RecordFile, ReadAtStopsOnlyAtTheEndOfTheFile) {
  const fs::path dir = fresh_dir("read_at");
  const std::string body = big_body();
  const std::string path = (dir / "big").string();
  ASSERT_TRUE(write_file_atomic(path, body));
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  std::string span(4096, '\0');
  for (const uint64_t offset :
       {uint64_t{0}, uint64_t{4097}, uint64_t{body.size() - 4096}}) {
    ASSERT_EQ(read_at(fd, offset, span.data(), span.size()), span.size())
        << offset;
    EXPECT_TRUE(span == body.substr(offset, span.size())) << offset;
  }
  // The whole file in one call.
  std::string all(body.size(), '\0');
  ASSERT_EQ(read_at(fd, 0, all.data(), all.size()), body.size());
  EXPECT_TRUE(all == body);
  // A span running past the end is a short read: the bytes up to the end.
  span.assign(span.size(), '\0');
  EXPECT_EQ(read_at(fd, body.size() - 100, span.data(), span.size()), 100u);
  EXPECT_TRUE(span.substr(0, 100) == body.substr(body.size() - 100));
  EXPECT_EQ(read_at(fd, body.size() + 1, span.data(), 1), 0u);
  EXPECT_EQ(read_at(fd, body.size(), span.data(), 0), 0u);
  ::close(fd);
  EXPECT_EQ(read_at(-1, 0, span.data(), 1), 0u);
  fs::remove_all(dir);
}

TEST(RecordFile, ConcurrentReplacesOfOnePathNeverTear) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("cuttlefish_record_file_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "shared").string();

  constexpr int kThreads = 8;
  std::vector<std::string> bodies;
  for (int t = 0; t < kThreads; ++t) {
    bodies.emplace_back(1000 + 517 * t, static_cast<char>('a' + t));
  }
  ASSERT_TRUE(write_file_atomic(path, bodies[0]));

  std::atomic<bool> done{false};
  std::atomic<int> failed_writes{0};
  std::atomic<int> bad_reads{0};
  std::thread reader([&] {
    while (!done.load()) {
      std::string got;
      if (!read_file(path, &got) ||
          std::find(bodies.begin(), bodies.end(), got) == bodies.end()) {
        ++bad_reads;
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        if (!write_file_atomic(path, bodies[static_cast<size_t>(t)])) {
          ++failed_writes;
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true);
  reader.join();

  EXPECT_EQ(failed_writes.load(), 0);
  EXPECT_EQ(bad_reads.load(), 0);
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"shared"});
  fs::remove_all(dir);
}

TEST(RecordFile, AtomicReplaceRefusesAFifo) {
  // The rename would leave a regular file where the FIFO stood, and a
  // bench's `--json-out fifo` would exit 0. Never tested against a
  // device node.
  const fs::path dir =
      fs::temp_directory_path() /
      ("cuttlefish_record_fifo_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "pipe").string();
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);

  EXPECT_FALSE(write_file_atomic(path, "body"));
  EXPECT_TRUE(fs::is_fifo(path));
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"pipe"});
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cuttlefish::exp
