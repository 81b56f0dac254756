// Async serving front-end: a background driver thread running the engine's
// Step() loop while client threads Submit / Cancel / Poll concurrently.
//
// ServingEngine is single-threaded by contract: every session-surface call
// must run on the engine thread. AsyncServer restores a multi-client surface
// on top of that contract with a lock-protected ingress *mailbox*: client
// threads enqueue operations (submit / cancel) under a mutex, and the driver
// thread drains the mailbox at step boundaries — between one Step() and the
// next — applying every operation in FIFO order before stepping again. The
// engine itself is only ever touched by the driver thread (or, while the
// driver is not running, by at most one client at a time under the same
// mutex), so no engine-internal state needs additional locking.
//
// Determinism contract. With ServerClock::kVirtual and all submissions
// enqueued before Start(), the driver drains the whole mailbox in one batch
// and applies it in submission order, then steps to drain — byte-for-byte
// the same schedule as calling engine.Submit() in a loop followed by
// RunUntilDrained(). The synchronous engine therefore stays the bit-exact
// oracle for the async server (async_server_test.cc pins this at every
// thread/shard/chunk combination). Under ServerClock::kWall, arrival steps
// are stamped from the engine's live step counter at drain time, so the
// schedule depends on real interleaving; per-row *outputs* remain
// batch-composition-independent, but which step serves which row does not.
//
// Backpressure. A bounded mailbox (ServerConfig::mailbox_capacity > 0)
// composes with the engine's priority shedding: when a submit arrives at a
// full mailbox, the lowest-priority *pending* submission strictly below the
// arrival's class is shed, ties going to the newest (largest id); its
// session records kShedded without ever reaching the engine. If no such
// victim exists the arrival itself is shed and Submit() returns false. Both
// layers pick the victim with the same function, ShedVictimIndex
// (request_queue.h), so overload never grows the mailbox without bound.
#ifndef SAMOYEDS_SRC_SERVING_SERVER_H_
#define SAMOYEDS_SRC_SERVING_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/serving/engine.h"
#include "src/serving/request.h"
#include "src/tensor/matrix.h"

namespace samoyeds {
namespace serving {

// Arrival-time model for submissions drained from the mailbox.
enum class ServerClock {
  // Keep each Request's submitted arrival_step. Deterministic: the schedule
  // is a pure function of the submitted workload, independent of wall time.
  kVirtual,
  // Stamp arrival_step = engine.current_step() when the driver drains the
  // submission — wall-clock arrivals quantized to step boundaries.
  kWall,
};

// Parses "virtual" / "wall". Returns false (out untouched) otherwise.
bool ParseServerClock(const char* text, ServerClock* out);

struct ServerConfig {
  ServerClock clock = ServerClock::kVirtual;
  // Max operations the ingress mailbox holds before priority shedding kicks
  // in (see file comment). 0 = unbounded (never sheds at the server layer).
  int64_t mailbox_capacity = 0;
};

// Snapshot of one session as seen through the server. `new_rows` carries the
// output rows finalized since this client's previous Poll (the poll cursor
// advances past them); `delivered_rows` is the cursor after this poll.
struct ServerPollResult {
  bool known = false;  // false: id was never submitted through this server
  bool terminal = false;
  RequestStatus status = RequestStatus::kQueued;
  std::string reason;  // terminal reason (empty for kFinished / non-terminal)
  MatrixF new_rows;
  int64_t delivered_rows = 0;
};

class AsyncServer {
 public:
  // The engine must outlive the server and must not be touched by anyone
  // else between Start() and Stop().
  explicit AsyncServer(ServingEngine& engine, ServerConfig config = {});
  ~AsyncServer();

  AsyncServer(const AsyncServer&) = delete;
  AsyncServer& operator=(const AsyncServer&) = delete;

  // Launches the driver thread; it immediately drains any submissions
  // buffered while the server was stopped, in FIFO order. No-op if already
  // running.
  void Start();

  // Blocks until the engine has drained (no queued or resident work) and the
  // mailbox is empty. Returns immediately if the driver is not running.
  void Drain();

  // Stops the driver after the in-flight step completes and joins it.
  // Remaining mailbox operations are applied (so blocked Cancel() callers
  // always unblock) but not stepped; call Drain() first for a clean finish.
  void Stop();

  // Thread-safe. Enqueues the request; false if the id was already submitted
  // through this server or the submission was shed by mailbox backpressure
  // (the session still exists and polls kShedded). Submissions made while
  // the driver is stopped buffer in the mailbox until Start().
  bool Submit(Request request);

  // Thread-safe, blocking: waits until the cancel applies at the next step
  // boundary and returns the verdict — kCancelled (this includes a
  // submission caught while still in the mailbox, which cancels without
  // reaching the engine), kAlreadyTerminal, or kUnknownId (never
  // submitted). When the driver is stopped the cancel applies inline.
  CancelOutcome Cancel(int64_t id);

  // Thread-safe, non-blocking snapshot; known == false for ids never
  // submitted through this server.
  ServerPollResult Poll(int64_t id);

  // Blocks until the session reaches a terminal status, then returns the
  // final poll (draining any undelivered rows). known == false immediately
  // for unknown ids.
  ServerPollResult WaitTerminal(int64_t id);

  bool running() const;
  int64_t steps() const;               // Step() calls issued by the driver
  int64_t shed_submits() const;        // submissions shed by the mailbox
  int64_t peak_mailbox_depth() const;  // high-water mark at drain points

 private:
  struct CancelTicket {
    bool done = false;
    CancelOutcome outcome = CancelOutcome::kUnknownId;
  };
  struct Op {
    bool is_cancel = false;
    Request request;              // submit ops
    int64_t cancel_id = 0;        // cancel ops
    std::shared_ptr<CancelTicket> ticket;
  };
  // Server-side session state, fed by the engine's OnRows callback on the
  // driver thread. Records are never erased: Poll stays answerable (and
  // distinct from "unknown id") after retirement.
  struct SessionRecord {
    std::vector<float> rows;  // delivered output rows, row-major
    int64_t polled_rows = 0;  // client cursor, in rows
    RequestStatus status = RequestStatus::kQueued;
    std::string reason;
    bool terminal = false;
  };

  void DriverLoop();
  // Applies drained ops to the engine in FIFO order. Must run on the thread
  // that currently owns the engine; takes rec_mu_ internally, never mu_.
  void ApplyOps(std::vector<Op>& ops);
  // Finalizes records whose engine status went terminal without a terminal
  // delta (admission-time rejection). Engine-thread only.
  void SweepTerminal();
  // Require rec_mu_ held.
  ServerPollResult MakePollResultLocked(SessionRecord& rec);
  void FinalizeRecordLocked(SessionRecord& rec, RequestStatus status,
                            std::string reason);

  ServingEngine& engine_;
  const ServerConfig config_;

  // Two-lock split, ordered mu_ -> rec_mu_ (never the reverse):
  //  - mu_ guards the mailbox, counters, and lifecycle flags. The driver
  //    applies ops and steps the engine OUTSIDE mu_.
  //  - rec_mu_ guards records_ / live_ids_ / cancel tickets. The engine's
  //    OnRows callback takes rec_mu_ only, which is what makes the inline
  //    (driver-not-running) path — engine calls made while holding mu_ —
  //    deadlock-free.
  // The engine itself is unguarded by design: only one thread ever touches
  // it (the driver while running; otherwise one client serialized by mu_).
  mutable std::mutex mu_;
  std::condition_variable driver_cv_;  // wakes the parked driver
  std::condition_variable drain_cv_;   // driver went idle (mu_)
  std::vector<Op> mailbox_;
  int64_t pending_submits_ = 0;  // submit ops currently in mailbox_
  bool running_ = false;
  bool stop_ = false;
  bool idle_ = false;  // driver parked: engine drained, mailbox empty
  int64_t steps_ = 0;
  int64_t shed_submits_ = 0;
  int64_t peak_mailbox_depth_ = 0;

  mutable std::mutex rec_mu_;
  std::condition_variable client_cv_;  // record/ticket updates (rec_mu_)
  std::map<int64_t, SessionRecord> records_;
  std::vector<int64_t> live_ids_;  // submitted, record not yet terminal

  std::thread driver_;
};

}  // namespace serving
}  // namespace samoyeds

#endif  // SAMOYEDS_SRC_SERVING_SERVER_H_
