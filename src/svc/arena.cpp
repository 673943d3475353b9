#include "svc/arena.hpp"

#include <algorithm>

#include "obs/context.hpp"

namespace dftfe::svc {

std::unique_ptr<WorkspaceArena::Bundle> WorkspaceArena::acquire() {
  std::unique_ptr<Bundle> b;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!free_.empty()) {
      b = std::move(free_.back());
      free_.pop_back();  // LIFO: the most recently warmed bundle first
    } else {
      b = std::make_unique<Bundle>();  // lint: allow(alloc): cold growth path; steady-state reuse pops the free list
      ++created_;
    }
    ++lease_count_;
    leased_.push_back(b.get());  // lint: allow(alloc): bounded by peak concurrent jobs
    if (leased_.size() > lease_highwater_) lease_highwater_ = leased_.size();
  }
  return b;
}

void WorkspaceArena::release(std::unique_ptr<Bundle> b) {
  std::lock_guard<std::mutex> lk(mu_);
  leased_.erase(std::remove(leased_.begin(), leased_.end(), b.get()), leased_.end());
  free_.push_back(std::move(b));  // lint: allow(alloc): bounded by peak concurrent jobs
}

std::size_t WorkspaceArena::bundles() const {
  std::lock_guard<std::mutex> lk(mu_);
  return created_;
}

std::int64_t WorkspaceArena::leases() const {
  std::lock_guard<std::mutex> lk(mu_);
  return lease_count_;
}

std::size_t WorkspaceArena::lease_highwater() const {
  std::lock_guard<std::mutex> lk(mu_);
  return lease_highwater_;
}

std::int64_t WorkspaceArena::highwater_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::int64_t total = retired_highwater_bytes_;
  for (const auto& b : free_) total += b->highwater_bytes();
  for (const Bundle* b : leased_) total += b->highwater_bytes();
  return total;
}

void WorkspaceArena::publish_metrics() const {
  auto& m = obs::Context::current().metrics();
  m.gauge_set("svc.arena.bundles", static_cast<double>(bundles()));
  m.gauge_set("svc.arena.leases", static_cast<double>(leases()));
  m.gauge_set("svc.arena.lease_highwater", static_cast<double>(lease_highwater()));
  m.gauge_set("svc.arena.highwater_bytes", static_cast<double>(highwater_bytes()));
}

void WorkspaceArena::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& b : free_) retired_highwater_bytes_ += b->highwater_bytes();
  free_.clear();
}

WorkspaceArena& WorkspaceArena::global() {
  static WorkspaceArena arena;
  return arena;
}

}  // namespace dftfe::svc
