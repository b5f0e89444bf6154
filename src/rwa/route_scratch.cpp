#include "rwa/route_scratch.hpp"

namespace wdm::rwa {

void ThetaScratch::snapshot(const net::WdmNetwork& net) {
  const auto m = static_cast<std::size_t>(net.num_links());
  if (uid_ != net.uid() || revision_.size() != m) {
    uid_ = net.uid();
    revision_.assign(m, ~std::uint64_t{0});
    load.resize(m);
    gate.resize(m);
  }
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    const auto i = static_cast<std::size_t>(e);
    const std::uint64_t rev = net.link_revision(e);
    if (rev == revision_[i]) continue;
    revision_[i] = rev;
    load[i] = static_cast<double>(net.usage(e)) /
              static_cast<double>(net.capacity(e));
    gate[i] = net.available(e).empty() ? graph::kInf : load[i];
  }
  theta_min = net.theta_min();
  theta_max = net.theta_max();
}

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
