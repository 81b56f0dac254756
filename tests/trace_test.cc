// Trace parsing and synthesis (src/serving/trace.cc): the file format's
// whole failure surface — malformed lines, wrong column counts, optional
// priority / pinned-id columns, whitespace and CRLF tolerance, duplicate
// ids — plus synthetic-trace shape properties and id assignment.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/serving/trace.h"
#include "src/tensor/rng.h"

namespace samoyeds {
namespace serving {
namespace {

// Writes `content` to a fresh temp trace file and parses it. The path names
// the test and the process: each test may run in its own process at the same
// time as the others, so a per-process counter alone would collide.
std::vector<TraceEntry> Parse(const std::string& content, std::string* error) {
  static int counter = 0;
  const std::string path = ::testing::TempDir() + "/trace_test_" +
                           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                           "_" + std::to_string(getpid()) + "_" + std::to_string(counter++) +
                           ".txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fputs(content.c_str(), f);
  std::fclose(f);
  error->clear();
  std::vector<TraceEntry> entries = ParseTraceFile(path, error);
  std::remove(path.c_str());
  return entries;
}

TEST(TraceTest, ParsesThreeToFiveColumnLines) {
  std::string error;
  const auto entries = Parse(
      "# step prompt decode [priority [id]]\n"
      "0 8 4\n"
      "2 16 8  # inline comment\n"
      "\n"
      "5 4 0\n"
      "6 4 2 3\n"
      "7 4 2 1 42\n",
      &error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(entries[1].arrival_step, 2);
  EXPECT_EQ(entries[1].prompt_len, 16);
  EXPECT_EQ(entries[2].max_new_tokens, 0);
  EXPECT_EQ(entries[2].priority, 0);  // omitted priority defaults to 0
  EXPECT_EQ(entries[2].id, -1);       // omitted id: assigned later
  EXPECT_EQ(entries[3].priority, 3);  // optional fourth column
  EXPECT_EQ(entries[4].priority, 1);
  EXPECT_EQ(entries[4].id, 42);       // optional fifth column pins the id
}

TEST(TraceTest, ToleratesWhitespaceAndCrlf) {
  std::string error;
  // Leading/trailing blanks, tabs between fields, and Windows line endings
  // must all parse — a trace copied through a DOS editor still replays.
  const auto entries = Parse("  0\t8  4 \r\n\t\n1 6 2 0 9\r\n   2  5   1\t\r\n", &error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].prompt_len, 8);
  EXPECT_EQ(entries[1].id, 9);
  EXPECT_EQ(entries[2].arrival_step, 2);
  EXPECT_EQ(entries[2].max_new_tokens, 1);
}

TEST(TraceTest, RejectsMalformedLines) {
  std::string error;

  // Missing columns.
  EXPECT_TRUE(Parse("0 8\n", &error).empty());
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find(":1:"), std::string::npos) << error;

  // Garbage must be an error, not silently skipped as a comment.
  EXPECT_TRUE(Parse("0 8 4\nnot a line\n", &error).empty());
  EXPECT_NE(error.find(":2:"), std::string::npos) << error;

  // Six fields (anything after the optional id) is an error.
  EXPECT_TRUE(Parse("0 8 4 1 9 7\n", &error).empty());
  EXPECT_FALSE(error.empty());

  // Non-numeric field in an otherwise plausible position.
  EXPECT_TRUE(Parse("0 eight 4\n", &error).empty());
  EXPECT_FALSE(error.empty());

  // Trailing junk glued to a number.
  EXPECT_TRUE(Parse("0 8 4x\n", &error).empty());
  EXPECT_FALSE(error.empty());

  // Domain violations: negative arrival, zero-length prompt, negative
  // decode, negative pinned id.
  EXPECT_TRUE(Parse("-1 8 4\n", &error).empty());
  EXPECT_TRUE(Parse("0 0 4\n", &error).empty());
  EXPECT_TRUE(Parse("0 8 -2\n", &error).empty());
  EXPECT_TRUE(Parse("0 8 4 0 -5\n", &error).empty());
  EXPECT_FALSE(error.empty());

  // Empty / comment-only files are an error, not an empty success.
  EXPECT_TRUE(Parse("# nothing here\n\n", &error).empty());
  EXPECT_NE(error.find("no requests"), std::string::npos) << error;

  // Unreadable path.
  error.clear();
  EXPECT_TRUE(ParseTraceFile("/nonexistent/trace.txt", &error).empty());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(TraceTest, RejectsDuplicatePinnedIds) {
  std::string error;
  EXPECT_TRUE(Parse("0 8 4 0 7\n1 6 2 0 7\n", &error).empty());
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  EXPECT_NE(error.find(":2:"), std::string::npos) << error;

  // Same id at different priorities is still a duplicate.
  EXPECT_TRUE(Parse("0 8 4 1 3\n0 8 4 2 3\n", &error).empty());
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(TraceTest, AssignTraceIdsSkipsPinnedOnes) {
  std::string error;
  const auto entries = Parse("0 8 4\n1 6 2 0 1\n2 5 1\n3 5 1 0 0\n4 5 1\n", &error);
  ASSERT_EQ(entries.size(), 5u) << error;
  const std::vector<int64_t> ids = AssignTraceIds(entries);
  // Unpinned entries take the smallest unused ids (0 and 1 are pinned).
  EXPECT_EQ(ids, (std::vector<int64_t>{2, 1, 3, 0, 4}));

  // All-unpinned traces get sequential ids.
  const auto plain = Parse("0 8 4\n1 6 2\n", &error);
  EXPECT_EQ(AssignTraceIds(plain), (std::vector<int64_t>{0, 1}));
}

TEST(TraceTest, SyntheticTraceShapesAndArrivalMonotonicity) {
  Rng rng(81);
  const auto entries = SyntheticTrace(rng, 40, 0.5, 4, 16, 1, 8);
  ASSERT_EQ(entries.size(), 40u);
  int64_t prev = 0;
  for (const auto& e : entries) {
    EXPECT_GE(e.arrival_step, prev);
    EXPECT_GE(e.prompt_len, 4);
    EXPECT_LE(e.prompt_len, 16);
    EXPECT_GE(e.max_new_tokens, 1);
    EXPECT_LE(e.max_new_tokens, 8);
    EXPECT_EQ(e.id, -1);  // synthetic traces never pin ids
    prev = e.arrival_step;
  }
}

TEST(TraceTest, SyntheticArrivalsSaturateAtVanishingRates) {
  // At 1e-300 arrivals per step every drawn gap is far beyond int64 range;
  // arrivals must saturate rather than wrap negative.
  Rng rng(1);
  const auto entries = SyntheticTrace(rng, 4, 1e-300, 4, 16, 1, 8);
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].arrival_step, 0);
  int64_t prev = 0;
  for (const auto& e : entries) {
    EXPECT_GE(e.arrival_step, prev);
    prev = e.arrival_step;
  }
  EXPECT_GT(entries.back().arrival_step, 0);
}

TEST(TraceTest, MakeRequestMaterializesTheStopConditionShape) {
  Rng rng(83);
  TraceEntry e;
  e.arrival_step = 3;
  e.prompt_len = 5;
  e.max_new_tokens = 2;
  e.priority = 1;
  const Request r = MakeRequest(rng, 11, e, /*hidden=*/32);
  EXPECT_EQ(r.id, 11);
  EXPECT_EQ(r.arrival_step, 3);
  EXPECT_EQ(r.priority, 1);
  EXPECT_EQ(r.inputs.rows(), r.total_tokens());
  EXPECT_EQ(r.inputs.cols(), 32);
  EXPECT_TRUE(r.ShapeValid(32));
  EXPECT_FALSE(r.ShapeValid(64));
}

}  // namespace
}  // namespace serving
}  // namespace samoyeds
