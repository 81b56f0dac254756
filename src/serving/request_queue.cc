#include "src/serving/request_queue.h"

#include <algorithm>

namespace samoyeds {
namespace serving {

void RequestQueue::Push(Request request) {
  std::lock_guard<std::mutex> lock(mu_);
  // Keep the queue ordered by arrival step (producers may push out of order);
  // upper_bound keeps producer order among same-step requests.
  const auto pos = std::upper_bound(queue_.begin(), queue_.end(), request.arrival_step,
                                    [](int64_t step, const Request& r) {
                                      return step < r.arrival_step;
                                    });
  queue_.insert(pos, std::move(request));
}

std::vector<Request> RequestQueue::DrainArrived(int64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Request> arrived;
  while (!queue_.empty() && queue_.front().arrival_step <= step) {
    arrived.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return arrived;
}

bool RequestQueue::Remove(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id == id) {
      queue_.erase(it);
      return true;
    }
  }
  return false;
}

int64_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

int64_t RequestQueue::NextArrivalStep() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.empty() ? -1 : queue_.front().arrival_step;
}

int64_t RequestQueue::ShedVictim(int incoming_priority) const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t victim =
      ShedVictimIndex(queue_, incoming_priority, [](const Request& r) { return &r; });
  return victim < 0 ? -1 : queue_[static_cast<size_t>(victim)].id;
}

}  // namespace serving
}  // namespace samoyeds
