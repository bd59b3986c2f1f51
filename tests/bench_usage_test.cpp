// The shared bench command line: a rejected flag is followed by a usage
// line that lists exactly the flags the bench accepts — never a flag the
// same parser would reject.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../bench/bench_util.hpp"

namespace cuttlefish::benchharness {
namespace {

/// `text` as a POSIX extended regex matching it literally.
std::string literal(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (std::string("\\^$.|?*+()[]{}").find(c) != std::string::npos) {
      out += '\\';
    }
    out += c;
  }
  return out;
}

/// Parses `flags` as micro_sim does: seeded replicates, no optional group.
void parse_as_micro_sim(std::vector<std::string> flags) {
  flags.insert(flags.begin(), "micro_sim");
  std::vector<char*> argv;
  for (std::string& f : flags) argv.push_back(f.data());
  (void)parse_args(static_cast<int>(argv.size()), argv.data(), 8,
                   /*has_reps=*/true);
}

TEST(BenchUsage, RejectionListsOnlyTheAcceptedFlags) {
  EXPECT_EXIT(parse_as_micro_sim({"--shard", "0/2"}),
              testing::ExitedWithCode(2),
              literal("micro_sim: --shard: not supported — this bench runs "
                      "its whole grid in one process\n"
                      "usage: micro_sim [N | --runs N] [--seeds B (nonzero)] "
                      "[--workers N] [--json-out FILE]\n"));
}

TEST(BenchUsage, EachGroupAddsExactlyItsFlags) {
  EXPECT_EQ(usage_line("b", false, false, false, false, false),
            "usage: b [--workers N] [--json-out FILE]");
  EXPECT_EQ(usage_line("b", true, true, true, true, false),
            "usage: b [N | --runs N] [--seeds B (nonzero)] [--workers N] "
            "[--shard i/N] [--policy NAME] [--cache-dir DIR] "
            "[--json-out FILE]");
  EXPECT_EQ(usage_line("b", false, false, false, false, true, "[--own X]"),
            "usage: b [--workers N] [--json-out FILE] [--supervised] "
            "[--journal DIR] [--crash-at I:MODE[:TIMES]] [--attempts K] "
            "[--spec-timeout S] [--sweep-timeout S] [--own X]");
}

}  // namespace
}  // namespace cuttlefish::benchharness
