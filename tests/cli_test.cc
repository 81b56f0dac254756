// samoyeds_cli exit-code contract: 0 success, 1 runtime failure (filesystem,
// undrained engine), 2 usage error (unknown command/flag or bad value) — and
// usage errors name the offending flag on stderr.
//
// The binary path arrives via SAMOYEDS_CLI_PATH (set by CMake to the
// samoyeds_cli target's output file).

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "tests/test_util.h"

#ifndef SAMOYEDS_CLI_PATH
#define SAMOYEDS_CLI_PATH ""
#endif
#ifndef SAMOYEDS_README_PATH
#define SAMOYEDS_README_PATH ""
#endif

namespace samoyeds {
namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

CliResult RunCli(const std::string& args) {
  CliResult result;
  const std::string cmd = std::string("\"") + SAMOYEDS_CLI_PATH + "\" " + args + " 2>&1";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << cmd;
    return result;
  }
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.output.append(buf, n);
  }
  const int rc = pclose(pipe);
  result.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  return result;
}

bool CliAvailable() {
  const std::string path = SAMOYEDS_CLI_PATH;
  if (path.empty()) {
    return false;
  }
  std::ifstream f(path);
  return f.good();
}

#define REQUIRE_CLI()                                              \
  if (!CliAvailable()) {                                           \
    GTEST_SKIP() << "samoyeds_cli binary not found at '"           \
                 << SAMOYEDS_CLI_PATH << "'";                      \
  }

TEST(CliTest, UsageErrorsExitTwoAndNameTheOffendingFlag) {
  REQUIRE_CLI();

  const CliResult unknown_flag = RunCli("serve tiny synthetic:2 --bogus=3");
  EXPECT_EQ(unknown_flag.exit_code, 2) << unknown_flag.output;
  EXPECT_NE(unknown_flag.output.find("--bogus"), std::string::npos) << unknown_flag.output;

  const CliResult bad_value = RunCli("serve tiny synthetic:2 --deadline-steps=abc");
  EXPECT_EQ(bad_value.exit_code, 2) << bad_value.output;
  EXPECT_NE(bad_value.output.find("--deadline-steps"), std::string::npos) << bad_value.output;

  const CliResult bad_schedule = RunCli("serve tiny synthetic:2 --faults=bogus~0.5");
  EXPECT_EQ(bad_schedule.exit_code, 2) << bad_schedule.output;
  EXPECT_NE(bad_schedule.output.find("--faults"), std::string::npos) << bad_schedule.output;
  EXPECT_NE(bad_schedule.output.find("unknown fault point"), std::string::npos)
      << bad_schedule.output;

  const CliResult missing_args = RunCli("serve");
  EXPECT_EQ(missing_args.exit_code, 2) << missing_args.output;
  EXPECT_NE(missing_args.output.find("usage"), std::string::npos) << missing_args.output;

  const CliResult unknown_cmd = RunCli("frobnicate");
  EXPECT_EQ(unknown_cmd.exit_code, 2) << unknown_cmd.output;
  EXPECT_NE(unknown_cmd.output.find("unknown command"), std::string::npos)
      << unknown_cmd.output;
}

TEST(CliTest, KernelBackendFlagIsStrictlyParsed) {
  REQUIRE_CLI();

  const CliResult bad = RunCli("serve tiny synthetic:2 --kernel-backend=bogus");
  EXPECT_EQ(bad.exit_code, 2) << bad.output;
  EXPECT_NE(bad.output.find("--kernel-backend"), std::string::npos) << bad.output;

  // Case-sensitive on purpose: "AVX2" is not a backend name.
  const CliResult bad_case = RunCli("serve tiny synthetic:2 --kernel-backend=AVX2");
  EXPECT_EQ(bad_case.exit_code, 2) << bad_case.output;

  // scalar and auto are runnable everywhere; the run must succeed and the
  // printed config must name the backend that actually executed.
  const CliResult scalar =
      RunCli("serve tiny synthetic:2 --rate=2 --budget=16 --kernel-backend=scalar");
  EXPECT_EQ(scalar.exit_code, 0) << scalar.output;
  EXPECT_NE(scalar.output.find("kernel_backend: \"scalar\""), std::string::npos)
      << scalar.output;

  const CliResult auto_backend =
      RunCli("serve tiny synthetic:2 --rate=2 --budget=16 --kernel-backend=auto");
  EXPECT_EQ(auto_backend.exit_code, 0) << auto_backend.output;
  EXPECT_TRUE(std::regex_search(auto_backend.output,
                                std::regex("kernel_backend: \"(scalar|avx2|avx512|neon)\"")))
      << auto_backend.output;
}

TEST(CliTest, RuntimeFailuresExitOneNotTwo) {
  REQUIRE_CLI();
  // The flags are all valid; the filesystem is not. Exit 1, not 2.
  const CliResult result = RunCli(
      "serve tiny synthetic:2 --rate=2 --budget=16 "
      "--report-json=/nonexistent-dir-samoyeds-test/report.json");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("cannot write"), std::string::npos) << result.output;
}

TEST(CliTest, SuccessfulServeExitsZeroAndWritesWellFormedReport) {
  REQUIRE_CLI();
  const std::string report_path = ::testing::TempDir() + "samoyeds_cli_test_report.json";
  std::remove(report_path.c_str());

  const CliResult result =
      RunCli("serve tiny synthetic:3 --rate=2 --budget=16 --report-json=" + report_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("wrote " + report_path), std::string::npos) << result.output;

  std::ifstream f(report_path);
  ASSERT_TRUE(f.good()) << "report not written to " << report_path;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string json = ss.str();
  EXPECT_TRUE(JsonParses(json));
  EXPECT_TRUE(HasJsonKey(json, "requests_finished"));
  EXPECT_TRUE(HasJsonKey(json, "injected_faults"));
  std::remove(report_path.c_str());
}

TEST(CliTest, ChaosFlagsRunEndToEnd) {
  REQUIRE_CLI();
  const std::string report_path = ::testing::TempDir() + "samoyeds_cli_chaos_report.json";
  std::remove(report_path.c_str());

  const CliResult result = RunCli(
      "serve tiny synthetic:8 --rate=4 --budget=24 --page-tokens=4 --max-pages=12 "
      "--preempt=1 --swap=1 --host-pages=32 "
      "--faults=kv-alloc~0.2,swap-corrupt~0.5 --fault-seed=5 "
      "--deadline-steps=200 --ingress-cap=16 --report-json=" + report_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;

  std::ifstream f(report_path);
  ASSERT_TRUE(f.good()) << "report not written to " << report_path;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string json = ss.str();
  EXPECT_TRUE(JsonParses(json));
  double injected = 0.0;
  ASSERT_TRUE(FindJsonNumber(json, "injected_faults", &injected));
  EXPECT_GT(injected, 0.0);
  // config.command records the serve arguments, so the report names the
  // fault schedule and seed that produced it.
  std::smatch command;
  ASSERT_TRUE(std::regex_search(json, command, std::regex("\"command\": \"([^\"]*)\"")))
      << json;
  EXPECT_EQ(command[1].str().rfind("serve tiny synthetic:8 --rate=4 --budget=24 ", 0), 0u)
      << command[1];
  for (const char* flag : {"--preempt=1", "--faults=kv-alloc~0.2,swap-corrupt~0.5",
                           "--fault-seed=5", "--deadline-steps=200", "--ingress-cap=16"}) {
    EXPECT_NE(command[1].str().find(flag), std::string::npos) << flag << " in " << command[1];
  }
  std::remove(report_path.c_str());
}

// A usage error: exit 2 with the flag named on stderr.
void ExpectUsageErrorNaming(const std::string& args, const std::string& flag) {
  const CliResult result = RunCli("serve tiny synthetic:2 " + args);
  EXPECT_EQ(result.exit_code, 2) << args << "\n" << result.output;
  EXPECT_NE(result.output.find(flag), std::string::npos) << args << "\n" << result.output;
}

TEST(CliTest, FloatFlagsRejectNonFiniteValues) {
  REQUIRE_CLI();
  ExpectUsageErrorNaming("--rate=nan", "--rate");
  ExpectUsageErrorNaming("--rate=inf", "--rate");
  ExpectUsageErrorNaming("--rate=-1", "--rate");
  ExpectUsageErrorNaming("--link-gbps=nan", "--link-gbps");
  ExpectUsageErrorNaming("--link-us=-inf", "--link-us");
}

TEST(CliTest, ZeroOneFlagsRejectOtherValues) {
  REQUIRE_CLI();
  for (const char* flag :
       {"--async", "--stream", "--preempt", "--prefix-cache", "--swap", "--autotune"}) {
    ExpectUsageErrorNaming(std::string(flag) + "=2", flag);
  }
}

TEST(CliTest, CountFlagsEnforceTheirLowerBounds) {
  REQUIRE_CLI();
  for (const char* flag :
       {"--chunk-tokens", "--mailbox-cap", "--max-pages", "--host-pages", "--decode-min",
        "--decode-max", "--fault-retries", "--deadline-steps", "--ingress-cap",
        "--watchdog-steps"}) {
    ExpectUsageErrorNaming(std::string(flag) + "=-1", flag);
  }
  for (const char* flag : {"--budget", "--page-tokens", "--threads", "--layers", "--experts",
                           "--top-k", "--heads", "--shards", "--trace-ring", "--prompt-min",
                           "--prompt-max"}) {
    ExpectUsageErrorNaming(std::string(flag) + "=0", flag);
  }
}

TEST(CliTest, ResidentTokenCapFlagIsGone) {
  REQUIRE_CLI();
  const CliResult result = RunCli("serve tiny synthetic:2 --max-resident=64");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("unknown serve flag"), std::string::npos) << result.output;
}

TEST(CliTest, RoutingFlagIsGone) {
  REQUIRE_CLI();
  const CliResult result = RunCli("serve tiny synthetic:2 --routing=top-k");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("unknown serve flag"), std::string::npos) << result.output;
}

// Every distinct first capture of `re` in `text`.
std::set<std::string> Matches(const std::string& text, const std::regex& re) {
  std::set<std::string> out;
  for (std::sregex_iterator it(text.begin(), text.end(), re), end; it != end; ++it) {
    out.insert((*it)[1].str());
  }
  return out;
}

// The README's "Serve flags" section and `help` must list the same flags.
TEST(CliTest, HelpListsEveryFlagTheReadmeDocuments) {
  REQUIRE_CLI();
  std::ifstream readme(SAMOYEDS_README_PATH);
  ASSERT_TRUE(readme.good()) << "README not found at '" << SAMOYEDS_README_PATH << "'";
  std::string section;
  bool inside = false;
  for (std::string line; std::getline(readme, line);) {
    if (line.rfind("#", 0) == 0) {
      inside = line == "### Serve flags";
    } else if (inside) {
      section += line + "\n";
    }
  }
  const std::set<std::string> documented = Matches(section, std::regex("(--[a-z][a-z0-9-]*)"));
  ASSERT_GE(documented.size(), 40u) << section;

  const CliResult help = RunCli("help");
  ASSERT_EQ(help.exit_code, 0) << help.output;
  // Each flag's help entry starts a line: "  --name=SYNTAX" or "  --name[=0|1]".
  const std::set<std::string> listed =
      Matches(help.output, std::regex("\n  (--[a-z][a-z0-9-]*)[=\\[]"));
  EXPECT_EQ(documented, listed);
}

}  // namespace
}  // namespace samoyeds
