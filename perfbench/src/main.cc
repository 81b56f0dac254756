// Serving benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics of untraced runs; --trace 1 the
// per-layer metrics of a traced run. Exits non-zero, without a JSON line, on
// bad arguments, a failed self-test, or a thread budget above the CPUs this
// process may use.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "selftest.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "workloads:");
  for (const std::string& n : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return CPU_COUNT(&set);
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  double seed = -1.0, seconds = -1.0, trace = -1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (!((flag == "--seed" && ParseNumber(value, &seed)) ||
                 (flag == "--seconds" && ParseNumber(value, &seconds)) ||
                 (flag == "--trace" && ParseNumber(value, &trace)))) {
      return Usage();
    }
  }

  if (const int failures = perfbench::RunSelfTests(); failures > 0) {
    std::fprintf(stderr, "%d self-test check(s) failed\n", failures);
    return 1;
  }
  const perfbench::Workload* w = perfbench::FindWorkload(workload);
  if (w == nullptr || seed < 0 || seconds <= 0 || (trace != 0.0 && trace != 1.0)) {
    return Usage();
  }
  const int cpus = UsableCpus();
  std::printf("threads: %d of %d usable CPUs\n", w->threads(), cpus);
  if (w->threads() > cpus) {
    std::fprintf(stderr, "%s needs %d threads but only %d CPUs are usable\n", w->name.c_str(),
                 w->threads(), cpus);
    return 1;
  }

  const perfbench::RunOutput out = perfbench::RunWorkload(
      *w, static_cast<uint64_t>(seed), seconds, trace == 1.0);
  for (const std::string& line : out.notes) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& line : out.errors) {
    std::printf("ERROR: %s\n", line.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", \"" : "\"") + JsonEscape(m.name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
