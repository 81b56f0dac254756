#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

namespace perfbench {

// Checks percentile selection, SLO accounting under failures, due-time
// latency and backlog growth, and span self-time arithmetic. Returns the
// number of failed checks (each printed to stderr).
int RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
