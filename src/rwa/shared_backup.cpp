#include "rwa/shared_backup.hpp"

#include <algorithm>
#include <unordered_set>

#include "rwa/layered_graph.hpp"
#include "support/check.hpp"

namespace wdm::rwa {

SharedBackupPool::SharedBackupPool(net::WdmNetwork* network, Options options)
    : net_(network), opt_(options) {
  WDM_CHECK(network != nullptr);
  WDM_CHECK(options.sharing_price_factor >= 0.0);
}

bool SharedBackupPool::compatible(
    const Channel& channel,
    const std::vector<graph::EdgeId>& primary_edges) const {
  std::unordered_set<graph::EdgeId> mine(primary_edges.begin(),
                                         primary_edges.end());
  for (long sharer : channel.sharers) {
    const Connection& other = conns_.at(sharer);
    for (const net::Hop& h : other.primary.hops) {
      if (mine.count(h.edge)) return false;
    }
  }
  return true;
}

SharedBackupPool::Provisioned SharedBackupPool::provision(net::NodeId s,
                                                          net::NodeId t) {
  Provisioned out;
  net::Semilightpath primary = optimal_semilightpath(*net_, s, t);
  if (!primary.found) return out;
  const std::vector<graph::EdgeId> primary_edges = primary.physical_edges();

  // Backup search: primary links masked out for edge-disjointness, over a
  // view priced once per provision — shared[e] holds the ledger's channels
  // on e, usable[e] adds the compatible ones to e's residual wavelengths.
  const auto m = static_cast<std::size_t>(net_->num_links());
  std::vector<std::uint8_t> mask(m, 1);
  for (graph::EdgeId e : primary_edges) {
    mask[static_cast<std::size_t>(e)] = 0;
  }
  std::vector<net::WavelengthSet> usable(m);
  std::vector<net::WavelengthSet> shared(m);
  for (graph::EdgeId e = 0; e < net_->num_links(); ++e) {
    usable[static_cast<std::size_t>(e)] = net_->available(e);
  }
  for (const auto& [key, channel] : channels_) {
    const auto [e, l] = key;
    const auto i = static_cast<std::size_t>(e);
    shared[i].insert(l);
    if (mask[i] != 0 && !usable[i].contains(l) &&
        net_->installed(e).contains(l) && compatible(channel, primary_edges)) {
      usable[i].insert(l);
    }
  }
  const LinkView view{usable, shared, opt_.sharing_price_factor};
  SemilightpathWorkspace ws;
  net::Semilightpath backup;
  optimal_semilightpath_into(*net_, s, t, mask, ws, &backup, view);
  if (!backup.found) return out;

  // Book everything.
  out.found = true;
  out.id = next_id_++;
  primary.reserve_in(*net_);
  for (const net::Hop& h : backup.hops) {
    const ChannelKey key{h.edge, h.lambda};
    auto it = channels_.find(key);
    if (it == channels_.end()) {
      net_->reserve(h.edge, h.lambda);  // open a fresh backup channel
      it = channels_.emplace(key, Channel{}).first;
      ++out.dedicated_channels;
    } else {
      ++out.shared_channels;
    }
    it->second.sharers.push_back(out.id);
  }
  out.primary = primary;
  out.backup = backup;
  conns_.emplace(out.id, Connection{std::move(primary), std::move(backup)});
  return out;
}

void SharedBackupPool::release(long id) {
  const auto it = conns_.find(id);
  WDM_CHECK_MSG(it != conns_.end(), "release of unknown connection");
  it->second.primary.release_in(*net_);
  for (const net::Hop& h : it->second.backup.hops) {
    const ChannelKey key{h.edge, h.lambda};
    auto ch = channels_.find(key);
    WDM_CHECK(ch != channels_.end());
    auto& sharers = ch->second.sharers;
    sharers.erase(std::find(sharers.begin(), sharers.end(), id));
    if (sharers.empty()) {
      net_->release(h.edge, h.lambda);
      channels_.erase(ch);
    }
  }
  conns_.erase(it);
}

std::vector<long> SharedBackupPool::fail_link(graph::EdgeId link) {
  std::vector<long> affected;
  for (const auto& [id, conn] : conns_) {
    const bool hit = std::any_of(
        conn.primary.hops.begin(), conn.primary.hops.end(),
        [&](const net::Hop& h) { return h.edge == link; });
    if (hit) affected.push_back(id);
  }
  // No two affected connections may share a channel (their primaries all
  // contain `link`, so the compatibility rule kept them apart).
  std::unordered_set<long long> claimed;
  for (long id : affected) {
    for (const net::Hop& h : conns_.at(id).backup.hops) {
      const long long key = (static_cast<long long>(h.edge) << 8) | h.lambda;
      WDM_CHECK_MSG(claimed.insert(key).second,
                    "SBPP invariant broken: backup channel contention");
    }
  }
  // Activate: the backup becomes a dedicated primary; its channels leave
  // the ledger (they now carry live traffic). The old primary is released.
  for (long id : affected) {
    Connection& conn = conns_.at(id);
    conn.primary.release_in(*net_);
    for (const net::Hop& h : conn.backup.hops) {
      const ChannelKey key{h.edge, h.lambda};
      auto ch = channels_.find(key);
      WDM_CHECK(ch != channels_.end());
      // Evict every other sharer: their protection is gone (they would
      // re-provision in a full system); the channel stays reserved, now as
      // live traffic of `id`.
      for (long other : ch->second.sharers) {
        if (other == id) continue;
        Connection& oc = conns_.at(other);
        // Drop only this channel from the other sharer's backup; simplest
        // faithful model: the other connection loses its backup entirely.
        for (const net::Hop& oh : oc.backup.hops) {
          if (oh.edge == h.edge && oh.lambda == h.lambda) continue;
          const ChannelKey okey{oh.edge, oh.lambda};
          auto och = channels_.find(okey);
          if (och == channels_.end()) continue;
          auto& sh = och->second.sharers;
          const auto pos = std::find(sh.begin(), sh.end(), other);
          if (pos != sh.end()) {
            sh.erase(pos);
            if (sh.empty()) {
              net_->release(oh.edge, oh.lambda);
              channels_.erase(och);
            }
          }
        }
        oc.backup = net::Semilightpath::not_found();
      }
      channels_.erase(key);
    }
    conn.primary = std::move(conn.backup);
    conn.backup = net::Semilightpath::not_found();
  }
  // Unprotected connections (backup dropped above) keep running on their
  // primaries; callers may re-provision.
  return affected;
}

long long SharedBackupPool::dedicated_equivalent_channels() const {
  long long total = 0;
  for (const auto& [id, conn] : conns_) {
    if (conn.backup.found) {
      total += static_cast<long long>(conn.backup.length());
    }
  }
  return total;
}

bool SharedBackupPool::sharers_pairwise_disjoint() const {
  for (const auto& [key, channel] : channels_) {
    for (std::size_t i = 0; i < channel.sharers.size(); ++i) {
      for (std::size_t j = i + 1; j < channel.sharers.size(); ++j) {
        const auto& a = conns_.at(channel.sharers[i]).primary;
        const auto& b = conns_.at(channel.sharers[j]).primary;
        if (!net::edge_disjoint(a, b)) return false;
      }
    }
  }
  return true;
}

}  // namespace wdm::rwa
