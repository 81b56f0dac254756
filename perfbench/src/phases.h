// Step-phase breakdown from an obs::Tracer capture: the self time of each
// engine span the program already emits (plan, evict, admit, assemble,
// forward, layer, attn, moe, retire, and the step itself), plus the
// per-request arrival -> admission waits from the request lifecycle events.

#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <map>
#include <string>
#include <vector>

#include "src/obs/tracer.h"

namespace perfbench {

struct PhaseBreakdown {
  // Self time per phase name, ms. A span that is not a phase (the expert
  // pool's dispatch/barrier/fold spans, say) is transparent: its time stays
  // with the phase that encloses it. "step" holds the step span's own self
  // time (ingress drain, deadline sweep, accounting between phases).
  std::map<std::string, double> self_ms;
  std::vector<double> step_ms;  // duration of every complete step span
  double total_step_ms = 0.0;   // sum of step_ms == sum of self_ms
  // Scheduler wait of each request: first admission minus engine arrival.
  std::vector<double> queue_wait_ms;
  int64_t unbalanced = 0;  // End events with no open span (ring wrapped)
};

// The engine phases, in step order.
const std::vector<std::string>& PhaseNames();

// Breakdown of the thread `thread` in `capture`; an empty breakdown when no
// thread has that name.
PhaseBreakdown BreakdownOf(const std::vector<samoyeds::obs::TraceThread>& capture,
                           const std::string& thread);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
