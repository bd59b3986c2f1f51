// The record-file primitive on its own: frames written by encode_frame
// scan back until the first bad one, single-frame files say what is
// wrong with them, and concurrent atomic replaces of one path never tear
// or leak a temp. The formats built on it are covered exhaustively in
// exp_corruption_test.

#include "exp/record_file.hpp"

#include <gtest/gtest.h>
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

}  // namespace
}  // namespace cuttlefish::exp
