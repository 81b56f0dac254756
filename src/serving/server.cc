#include "src/serving/server.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/tracer.h"

namespace samoyeds {
namespace serving {

bool ParseServerClock(const char* text, ServerClock* out) {
  if (std::strcmp(text, "virtual") == 0) {
    *out = ServerClock::kVirtual;
    return true;
  }
  if (std::strcmp(text, "wall") == 0) {
    *out = ServerClock::kWall;
    return true;
  }
  return false;
}

AsyncServer::AsyncServer(ServingEngine& engine, ServerConfig config)
    : engine_(engine), config_(config) {}

AsyncServer::~AsyncServer() { Stop(); }

void AsyncServer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) {
    return;
  }
  stop_ = false;
  idle_ = false;
  running_ = true;
  driver_ = std::thread([this] { DriverLoop(); });
}

void AsyncServer::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!running_) {
    return;
  }
  drain_cv_.wait(lock, [&] { return idle_ && mailbox_.empty(); });
}

void AsyncServer::Stop() {
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) {
      return;
    }
    stop_ = true;
    running_ = false;
    worker = std::move(driver_);
    driver_cv_.notify_all();
  }
  worker.join();
  std::lock_guard<std::mutex> lock(mu_);
  stop_ = false;
}

bool AsyncServer::Submit(Request request) {
  const int64_t id = request.id;
  std::lock_guard<std::mutex> lock(mu_);
  {
    std::lock_guard<std::mutex> rlock(rec_mu_);
    if (records_.count(id) > 0) {
      return false;  // duplicate id: first submission owns the record
    }
  }
  if (config_.mailbox_capacity > 0 &&
      static_cast<int64_t>(mailbox_.size()) >= config_.mailbox_capacity) {
    // Mailbox full: shed a pending submission by the ingress rule, or the
    // arrival itself when none ranks below it. Cancels are never shed — a
    // blocked Cancel() caller must always get a verdict.
    const int64_t victim = ShedVictimIndex(mailbox_, request.priority, [](const Op& op) {
      return op.is_cancel ? nullptr : &op.request;
    });
    ++shed_submits_;
    if (victim >= 0) {
      const int64_t victim_id = mailbox_[victim].request.id;
      mailbox_.erase(mailbox_.begin() + victim);
      --pending_submits_;
      std::lock_guard<std::mutex> rlock(rec_mu_);
      FinalizeRecordLocked(
          records_.at(victim_id), RequestStatus::kShedded,
          "shed: displaced by higher-priority arrival (server mailbox full)");
    } else {
      std::lock_guard<std::mutex> rlock(rec_mu_);
      SessionRecord rec;
      FinalizeRecordLocked(rec, RequestStatus::kShedded,
                           "shed: server mailbox full (overload)");
      records_.emplace(id, std::move(rec));
      return false;
    }
  }
  {
    std::lock_guard<std::mutex> rlock(rec_mu_);
    records_.emplace(id, SessionRecord{});
  }
  // While the driver is not running the submission simply buffers: Start()
  // wakes the driver, which drains the whole backlog in one FIFO batch —
  // exactly the synchronous submit-all-then-drain schedule.
  Op op;
  op.request = std::move(request);
  mailbox_.push_back(std::move(op));
  ++pending_submits_;
  peak_mailbox_depth_ =
      std::max(peak_mailbox_depth_, static_cast<int64_t>(mailbox_.size()));
  driver_cv_.notify_all();
  return true;
}

CancelOutcome AsyncServer::Cancel(int64_t id) {
  auto ticket = std::make_shared<CancelTicket>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A submission still waiting in the mailbox cancels without ever
    // touching the engine.
    for (size_t i = 0; i < mailbox_.size(); ++i) {
      if (!mailbox_[i].is_cancel && mailbox_[i].request.id == id) {
        mailbox_.erase(mailbox_.begin() + i);
        --pending_submits_;
        std::lock_guard<std::mutex> rlock(rec_mu_);
        FinalizeRecordLocked(records_.at(id), RequestStatus::kCancelled,
                             "cancelled by client");
        return CancelOutcome::kCancelled;
      }
    }
    Op op;
    op.is_cancel = true;
    op.cancel_id = id;
    op.ticket = ticket;
    if (!running_) {
      // No driver: this client thread owns the engine, serialized by mu_.
      std::vector<Op> ops;
      ops.push_back(std::move(op));
      ApplyOps(ops);
      return ticket->outcome;
    }
    mailbox_.push_back(std::move(op));
    peak_mailbox_depth_ =
        std::max(peak_mailbox_depth_, static_cast<int64_t>(mailbox_.size()));
    driver_cv_.notify_all();
  }
  std::unique_lock<std::mutex> rlock(rec_mu_);
  client_cv_.wait(rlock, [&] { return ticket->done; });
  return ticket->outcome;
}

ServerPollResult AsyncServer::Poll(int64_t id) {
  std::lock_guard<std::mutex> rlock(rec_mu_);
  auto it = records_.find(id);
  if (it == records_.end()) {
    return ServerPollResult{};  // known == false: never submitted here
  }
  return MakePollResultLocked(it->second);
}

ServerPollResult AsyncServer::WaitTerminal(int64_t id) {
  std::unique_lock<std::mutex> rlock(rec_mu_);
  auto it = records_.find(id);
  if (it == records_.end()) {
    return ServerPollResult{};
  }
  // std::map iterators are stable; the record is never erased.
  client_cv_.wait(rlock, [&] { return it->second.terminal; });
  return MakePollResultLocked(it->second);
}

bool AsyncServer::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

int64_t AsyncServer::steps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return steps_;
}

int64_t AsyncServer::shed_submits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_submits_;
}

int64_t AsyncServer::peak_mailbox_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_mailbox_depth_;
}

void AsyncServer::DriverLoop() {
  obs::SetThreadName("server.driver");
  bool engine_live = true;  // engine may still have schedulable work
  for (;;) {
    std::vector<Op> ops;
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (!stop_ && !engine_live && mailbox_.empty()) {
        idle_ = true;
        drain_cv_.notify_all();
        driver_cv_.wait(lock);
      }
      idle_ = false;
      if (stop_ && mailbox_.empty()) {
        break;
      }
      ops.swap(mailbox_);
      pending_submits_ = 0;
      obs::TraceCounter("server", "mailbox_depth", obs::TraceDetail::kStep,
                        static_cast<int64_t>(ops.size()));
    }
    if (!ops.empty()) {
      ApplyOps(ops);
      engine_live = true;
    }
    if (engine_live) {
      engine_live = engine_.Step();
      SweepTerminal();
      std::lock_guard<std::mutex> lock(mu_);
      ++steps_;
    }
  }
  // Driver exiting: nothing will step again; release Drain() waiters.
  std::lock_guard<std::mutex> lock(mu_);
  idle_ = true;
  drain_cv_.notify_all();
}

void AsyncServer::ApplyOps(std::vector<Op>& ops) {
  for (Op& op : ops) {
    if (op.is_cancel) {
      CancelOutcome outcome = engine_.Cancel(op.cancel_id);
      std::lock_guard<std::mutex> rlock(rec_mu_);
      if (outcome == CancelOutcome::kUnknownId) {
        // The engine never saw the id, but the server may have retired it
        // at the mailbox (shed / cancelled-before-submit): that session
        // exists and is already terminal.
        auto it = records_.find(op.cancel_id);
        if (it != records_.end() && it->second.terminal) {
          outcome = CancelOutcome::kAlreadyTerminal;
        }
      }
      op.ticket->outcome = outcome;
      op.ticket->done = true;
      client_cv_.notify_all();
      continue;
    }
    Request request = std::move(op.request);
    const int64_t id = request.id;
    if (config_.clock == ServerClock::kWall) {
      request.arrival_step = engine_.current_step();
    }
    // Fires on the engine thread inside Step()/Submit(); takes rec_mu_ only.
    auto on_rows = [this, id](const StreamDelta& delta) {
      std::lock_guard<std::mutex> rlock(rec_mu_);
      auto it = records_.find(id);
      if (it == records_.end()) {
        return;
      }
      SessionRecord& rec = it->second;
      const MatrixF& m = delta.rows;
      rec.rows.insert(rec.rows.end(), m.data(), m.data() + m.size());
      if (delta.finished) {
        rec.terminal = true;
        rec.status = engine_.Status(id);
        if (const RequestResult* res = engine_.Result(id)) {
          rec.reason = res->reason;
        }
      } else if (rec.status == RequestStatus::kQueued) {
        rec.status = RequestStatus::kRunning;
      }
      client_cv_.notify_all();
    };
    engine_.Submit(std::move(request), on_rows);
    // Submission-time terminal paths (malformed -> kRejected, ingress
    // overload -> kShedded) may finalize without ever streaming a delta.
    const RequestStatus status = engine_.Status(id);
    std::lock_guard<std::mutex> rlock(rec_mu_);
    SessionRecord& rec = records_.at(id);
    if (IsTerminal(status) && !rec.terminal) {
      std::string reason;
      if (const RequestResult* res = engine_.Result(id)) {
        reason = res->reason;
      }
      FinalizeRecordLocked(rec, status, std::move(reason));
    }
    if (!rec.terminal) {
      live_ids_.push_back(id);
    }
  }
}

void AsyncServer::SweepTerminal() {
  std::lock_guard<std::mutex> rlock(rec_mu_);
  size_t keep = 0;
  bool notify = false;
  for (size_t i = 0; i < live_ids_.size(); ++i) {
    const int64_t id = live_ids_[i];
    SessionRecord& rec = records_.at(id);
    if (!rec.terminal) {
      const RequestStatus status = engine_.Status(id);
      if (IsTerminal(status)) {
        // Admission-time rejection finalizes without a terminal delta.
        rec.terminal = true;
        rec.status = status;
        if (const RequestResult* res = engine_.Result(id)) {
          rec.reason = res->reason;
        }
        notify = true;
      }
    }
    if (!rec.terminal) {
      live_ids_[keep++] = id;
    }
  }
  live_ids_.resize(keep);
  if (notify) {
    client_cv_.notify_all();
  }
}

ServerPollResult AsyncServer::MakePollResultLocked(SessionRecord& rec) {
  ServerPollResult out;
  out.known = true;
  out.terminal = rec.terminal;
  out.status = rec.status;
  out.reason = rec.reason;
  const int64_t hidden = engine_.hidden();
  const int64_t total =
      hidden > 0 ? static_cast<int64_t>(rec.rows.size()) / hidden : 0;
  const int64_t fresh = total - rec.polled_rows;
  if (fresh > 0) {
    out.new_rows = MatrixF(fresh, hidden);
    std::copy(rec.rows.begin() + rec.polled_rows * hidden,
              rec.rows.begin() + total * hidden, out.new_rows.data());
    rec.polled_rows = total;
  }
  out.delivered_rows = rec.polled_rows;
  return out;
}

void AsyncServer::FinalizeRecordLocked(SessionRecord& rec, RequestStatus status,
                                       std::string reason) {
  assert(!rec.terminal);
  rec.terminal = true;
  rec.status = status;
  rec.reason = std::move(reason);
  client_cv_.notify_all();
}

}  // namespace serving
}  // namespace samoyeds
