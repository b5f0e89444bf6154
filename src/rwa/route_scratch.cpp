#include "rwa/route_scratch.hpp"

namespace wdm::rwa {

RouteScratchPool::Lease::~Lease() {
  if (scratch_ != nullptr) pool_->put(std::move(scratch_));
}

RouteScratchPool::Lease RouteScratchPool::lease(const net::WdmNetwork& net) {
  std::unique_ptr<RouteScratch> scratch;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    std::size_t pick = idle_.size();
    for (std::size_t i = idle_.size(); i-- > 0;) {
      if (idle_[i]->bound_uid() == net.uid()) {
        pick = i;
        break;
      }
      if (pick == idle_.size() && idle_[i]->bound_uid() == 0) pick = i;
    }
    if (pick == idle_.size() && !idle_.empty()) pick = idle_.size() - 1;
    if (pick < idle_.size()) {
      scratch = std::move(idle_[pick]);
      idle_.erase(idle_.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  if (scratch == nullptr) scratch = std::make_unique<RouteScratch>();
  return Lease(this, std::move(scratch));
}

std::size_t RouteScratchPool::idle_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return idle_.size();
}

void RouteScratchPool::put(std::unique_ptr<RouteScratch> scratch) {
  const std::lock_guard<std::mutex> lock(mu_);
  idle_.push_back(std::move(scratch));
}

}  // namespace wdm::rwa
