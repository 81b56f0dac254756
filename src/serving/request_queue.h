// Ingress queue between request producers (trace replay, RPC front end in a
// real deployment) and the engine's scheduling loop.
//
// The engine drains the queue at the start of each iteration with
// DrainArrived(), which releases only the requests whose arrival_step has
// come due — replaying a trace therefore needs no producer thread. The queue
// itself is mutex-guarded for future multi-threaded front ends, but note
// that ServingEngine::Submit (the validating entry point) is engine-thread
// only; a concurrent producer would have to hand requests to the engine
// thread first.

#ifndef SAMOYEDS_SRC_SERVING_REQUEST_QUEUE_H_
#define SAMOYEDS_SRC_SERVING_REQUEST_QUEUE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "src/serving/request.h"

namespace samoyeds {
namespace serving {

// The overload-shedding rule of both ingress layers, the engine's bounded
// RequestQueue and the AsyncServer's bounded mailbox: to make room for a
// priority-`incoming_priority` arrival, shed the lowest-priority pending
// request strictly below that class, ties going to the largest id (the
// newest submission). `request_of(entry)` returns the entry's Request, or
// nullptr for an entry that is never shed. Returns the victim's index in
// `pending`, or -1 when nothing ranks below the arrival (the arrival itself
// must then be shed).
template <typename Container, typename RequestOf>
int64_t ShedVictimIndex(const Container& pending, int incoming_priority, RequestOf request_of) {
  int64_t victim = -1;
  const Request* worst = nullptr;
  int64_t index = 0;
  for (const auto& entry : pending) {
    const Request* r = request_of(entry);
    const int bar = worst == nullptr ? incoming_priority : worst->priority;
    if (r != nullptr && (r->priority < bar ||
                         (worst != nullptr && r->priority == bar && r->id > worst->id))) {
      victim = index;
      worst = r;
    }
    ++index;
  }
  return victim;
}

class RequestQueue {
 public:
  void Push(Request request);

  // Removes and returns (in arrival order) every queued request with
  // arrival_step <= step.
  std::vector<Request> DrainArrived(int64_t step);

  // Removes the queued request with `id` (session cancellation before the
  // request ever reached the scheduler). False when no such request queues.
  bool Remove(int64_t id);

  int64_t size() const;
  bool empty() const { return size() == 0; }

  // Earliest arrival_step still queued, or -1 when empty. Lets the engine
  // fast-forward idle steps during trace replay.
  int64_t NextArrivalStep() const;

  // Overload control: id of the queued request ShedVictimIndex picks so a
  // priority-`incoming_priority` arrival can take its slot, or -1 when the
  // arrival itself must be shed.
  int64_t ShedVictim(int incoming_priority) const;

 private:
  mutable std::mutex mu_;
  std::deque<Request> queue_;
};

}  // namespace serving
}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_SERVING_REQUEST_QUEUE_H_
