#include "phases.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

namespace perfbench {

namespace obs = samoyeds::obs;

const std::vector<std::string>& PhaseNames() {
  static const std::vector<std::string> kNames = {"plan",    "evict", "admit", "assemble",
                                                  "forward", "layer", "attn",  "moe",
                                                  "retire"};
  return kNames;
}

namespace {

bool IsEngineSpan(const obs::TraceEvent& e, std::string* name) {
  if (e.category == nullptr || std::strcmp(e.category, "engine") != 0) {
    return false;
  }
  *name = e.name;
  return *name == "step" ||
         std::find(PhaseNames().begin(), PhaseNames().end(), *name) != PhaseNames().end();
}

}  // namespace

PhaseBreakdown BreakdownOf(const std::vector<obs::TraceThread>& capture,
                           const std::string& thread) {
  PhaseBreakdown out;
  const auto it = std::find_if(capture.begin(), capture.end(),
                               [&](const obs::TraceThread& t) { return t.name == thread; });
  if (it == capture.end()) {
    return out;
  }
  struct Open {
    std::string name;  // empty: a transparent (non-phase) span
    int64_t begin_ns;
    int64_t child_ns;
  };
  std::vector<Open> stack;
  std::unordered_map<int64_t, int64_t> arrival_ns;
  for (const obs::TraceEvent& e : it->events) {
    std::string name;
    switch (e.type) {
      case obs::EventType::kBegin:
        stack.push_back(Open{IsEngineSpan(e, &name) ? name : std::string(), e.ts_ns, 0});
        break;
      case obs::EventType::kEnd: {
        if (stack.empty()) {
          ++out.unbalanced;
          break;
        }
        const Open open = stack.back();
        stack.pop_back();
        if (open.name.empty()) {
          break;  // transparent: its time stays in the enclosing phase
        }
        const int64_t dur = e.ts_ns - open.begin_ns;
        out.self_ms[open.name] += static_cast<double>(dur - open.child_ns) * 1e-6;
        // Credit the nearest enclosing *phase* span.
        for (auto p = stack.rbegin(); p != stack.rend(); ++p) {
          if (!p->name.empty()) {
            p->child_ns += dur;
            break;
          }
        }
        if (open.name == "step") {
          out.step_ms.push_back(static_cast<double>(dur) * 1e-6);
          out.total_step_ms += static_cast<double>(dur) * 1e-6;
        }
        break;
      }
      case obs::EventType::kAsyncBegin:
        if (std::strcmp(e.name, "session") == 0) {
          arrival_ns[e.id] = e.ts_ns;
        }
        break;
      case obs::EventType::kAsyncInstant:
        if (std::strcmp(e.name, "admit") == 0) {
          const auto a = arrival_ns.find(e.id);
          if (a != arrival_ns.end()) {
            out.queue_wait_ms.push_back(static_cast<double>(e.ts_ns - a->second) * 1e-6);
            arrival_ns.erase(a);  // first admission only
          }
        }
        break;
      default:
        break;
    }
  }
  return out;
}

}  // namespace perfbench
