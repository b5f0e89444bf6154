#include "wdm/network.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "graph/path.hpp"
#include "support/check.hpp"

namespace wdm::net {

namespace {

// Power-of-two capacities keep mean_load() exact (see the header). Spelled
// out: std::has_single_bit is a libgcc popcount call without -mpopcnt.
bool dyadic(int n) { return n > 0 && (n & (n - 1)) == 0; }

std::uint64_t next_network_uid() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

WdmNetwork::WdmNetwork(NodeId num_nodes, int num_wavelengths)
    : g_(num_nodes), w_(num_wavelengths), uid_(next_network_uid()) {
  WDM_CHECK(num_wavelengths > 0 &&
            num_wavelengths <= WavelengthSet::kMaxWavelengths);
  conv_.assign(static_cast<std::size_t>(num_nodes),
               ConversionTable::none(w_));
  conv_rev_.assign(static_cast<std::size_t>(num_nodes), 0);
  const auto levels = static_cast<std::size_t>(w_) + 1;
  links_at_.assign(levels * levels, 0);
  top_usage_.assign(levels, -1);
}

WdmNetwork::WdmNetwork(const WdmNetwork& other)
    : g_(other.g_), w_(other.w_), conv_(other.conv_),
      installed_(other.installed_), used_(other.used_),
      failed_(other.failed_), weight_(other.weight_),
      srlgs_(other.srlgs_), srlg_of_link_(other.srlg_of_link_),
      link_rev_(other.link_rev_), conv_rev_(other.conv_rev_),
      links_at_(other.links_at_), top_usage_(other.top_usage_),
      load_64ths_(other.load_64ths_),
      non_dyadic_links_(other.non_dyadic_links_),
      residual_load_(other.residual_load_), uid_(next_network_uid()) {}

WdmNetwork& WdmNetwork::operator=(const WdmNetwork& other) {
  if (this == &other) return *this;
  g_ = other.g_;
  w_ = other.w_;
  conv_ = other.conv_;
  installed_ = other.installed_;
  used_ = other.used_;
  failed_ = other.failed_;
  weight_ = other.weight_;
  srlgs_ = other.srlgs_;
  srlg_of_link_ = other.srlg_of_link_;
  link_rev_ = other.link_rev_;
  conv_rev_ = other.conv_rev_;
  links_at_ = other.links_at_;
  top_usage_ = other.top_usage_;
  load_64ths_ = other.load_64ths_;
  non_dyadic_links_ = other.non_dyadic_links_;
  residual_load_ = other.residual_load_;
  uid_ = next_network_uid();
  return *this;
}

WdmNetwork::WdmNetwork(WdmNetwork&& other) noexcept
    : g_(std::move(other.g_)), w_(other.w_), conv_(std::move(other.conv_)),
      installed_(std::move(other.installed_)), used_(std::move(other.used_)),
      failed_(std::move(other.failed_)), weight_(std::move(other.weight_)),
      srlgs_(std::move(other.srlgs_)),
      srlg_of_link_(std::move(other.srlg_of_link_)),
      link_rev_(std::move(other.link_rev_)),
      conv_rev_(std::move(other.conv_rev_)),
      links_at_(std::move(other.links_at_)),
      top_usage_(std::move(other.top_usage_)),
      load_64ths_(other.load_64ths_),
      non_dyadic_links_(other.non_dyadic_links_),
      residual_load_(std::move(other.residual_load_)),
      uid_(next_network_uid()) {}

WdmNetwork& WdmNetwork::operator=(WdmNetwork&& other) noexcept {
  if (this == &other) return *this;
  g_ = std::move(other.g_);
  w_ = other.w_;
  conv_ = std::move(other.conv_);
  installed_ = std::move(other.installed_);
  used_ = std::move(other.used_);
  failed_ = std::move(other.failed_);
  weight_ = std::move(other.weight_);
  srlgs_ = std::move(other.srlgs_);
  srlg_of_link_ = std::move(other.srlg_of_link_);
  link_rev_ = std::move(other.link_rev_);
  conv_rev_ = std::move(other.conv_rev_);
  links_at_ = std::move(other.links_at_);
  top_usage_ = std::move(other.top_usage_);
  load_64ths_ = other.load_64ths_;
  non_dyadic_links_ = other.non_dyadic_links_;
  residual_load_ = std::move(other.residual_load_);
  uid_ = next_network_uid();
  return *this;
}

NodeId WdmNetwork::add_node(ConversionTable conversion) {
  WDM_CHECK(conversion.num_wavelengths() == w_);
  conv_.push_back(std::move(conversion));
  conv_rev_.push_back(0);
  return g_.add_node();
}

EdgeId WdmNetwork::add_link(NodeId u, NodeId v, WavelengthSet installed,
                            double uniform_cost) {
  WDM_CHECK(uniform_cost >= 0.0);
  std::vector<double> costs(static_cast<std::size_t>(w_), uniform_cost);
  return add_link(u, v, installed, costs);
}

EdgeId WdmNetwork::add_link(NodeId u, NodeId v, WavelengthSet installed,
                            std::span<const double> cost_per_lambda) {
  check_link(installed, cost_per_lambda);
  const EdgeId e = g_.add_edge(u, v);
  push_link_state(installed, cost_per_lambda);
  return e;
}

void WdmNetwork::add_links(std::span<const NodeId> tails,
                           std::span<const NodeId> heads,
                           std::span<const WavelengthSet> installed,
                           std::span<const double> cost_per_lambda) {
  WDM_CHECK_MSG(
      tails.size() == heads.size() && tails.size() == installed.size(),
      "add_links needs one tail, head and inventory per fiber");
  const auto W = static_cast<std::size_t>(w_);
  WDM_CHECK(cost_per_lambda.size() == installed.size() * W);
  for (std::size_t i = 0; i < installed.size(); ++i) {
    check_link(installed[i], cost_per_lambda.subspan(i * W, W));
  }
  std::vector<NodeId> all_tails;
  std::vector<NodeId> all_heads;
  all_tails.reserve(static_cast<std::size_t>(num_links()) + tails.size());
  all_heads.reserve(all_tails.capacity());
  for (EdgeId e = 0; e < num_links(); ++e) {
    all_tails.push_back(g_.tail(e));
    all_heads.push_back(g_.head(e));
  }
  all_tails.insert(all_tails.end(), tails.begin(), tails.end());
  all_heads.insert(all_heads.end(), heads.begin(), heads.end());
  // Checks every endpoint before anything changes.
  graph::Digraph g(num_nodes(), std::move(all_tails), std::move(all_heads));
  g_ = std::move(g);
  const std::size_t m = static_cast<std::size_t>(num_links());
  installed_.reserve(m);
  used_.reserve(m);
  failed_.reserve(m);
  link_rev_.reserve(m);
  residual_load_.reserve(m);
  weight_.reserve(m * W);
  for (std::size_t i = 0; i < installed.size(); ++i) {
    push_link_state(installed[i], cost_per_lambda.subspan(i * W, W));
  }
}

void WdmNetwork::check_link(WavelengthSet installed,
                            std::span<const double> cost_per_lambda) const {
  WDM_CHECK_MSG(!installed.empty(), "a fiber must carry >= 1 wavelength");
  WDM_CHECK_MSG(installed.minus(WavelengthSet::all(w_)).empty(),
                "installed set contains wavelengths outside the universe");
  WDM_CHECK(cost_per_lambda.size() == static_cast<std::size_t>(w_));
  for (int l = 0; l < w_; ++l) {
    WDM_CHECK(!installed.contains(l) ||
              cost_per_lambda[static_cast<std::size_t>(l)] >= 0.0);
  }
}

void WdmNetwork::push_link_state(WavelengthSet installed,
                                 std::span<const double> cost_per_lambda) {
  installed_.push_back(installed);
  used_.push_back(WavelengthSet{});
  failed_.push_back(0);
  link_rev_.push_back(0);
  weight_.insert(weight_.end(), cost_per_lambda.begin(), cost_per_lambda.end());
  const int n = installed.count();
  if (!dyadic(n)) ++non_dyadic_links_;
  move_load(n, -1, 0);
  residual_load_.push_back(0.0);  // free and up: ρ = 0 / N
}

void WdmNetwork::link_changed(EdgeId e, int from, int to) {
  const auto i = static_cast<std::size_t>(e);
  const int n = installed_[i].count();
  ++link_rev_[i];
  if (from != to) move_load(n, from, to);
  // Λ_avail(e) is empty iff e is failed or every installed λ is used; the
  // load is link_load()'s division.
  residual_load_[i] = failed_[i] != 0 || to == n
                          ? graph::kInf
                          : static_cast<double>(to) / static_cast<double>(n);
}

void WdmNetwork::move_load(int n, int from, int to) {
  if (from >= 0) --links_at(n, from);
  ++links_at(n, to);
  int& top = top_usage_[static_cast<std::size_t>(n)];
  if (to > top) {
    top = to;
  } else {
    while (links_at(n, top) == 0) --top;  // `from` was the top and emptied
  }
  if (dyadic(n)) {
    load_64ths_ += static_cast<std::int64_t>(to - std::max(from, 0)) *
                   (WavelengthSet::kMaxWavelengths / n);
  }
}

std::pair<EdgeId, EdgeId> WdmNetwork::add_duplex(NodeId u, NodeId v,
                                                 WavelengthSet installed,
                                                 double uniform_cost) {
  return {add_link(u, v, installed, uniform_cost),
          add_link(v, u, installed, uniform_cost)};
}

void WdmNetwork::set_conversion(NodeId v, ConversionTable table) {
  WDM_CHECK(g_.valid_node(v));
  WDM_CHECK(table.num_wavelengths() == w_);
  conv_[static_cast<std::size_t>(v)] = std::move(table);
  ++conv_rev_[static_cast<std::size_t>(v)];
}

void WdmNetwork::set_link_failed(EdgeId e, bool failed) {
  WDM_CHECK(g_.valid_edge(e));
  const std::uint8_t next = failed ? 1 : 0;
  if (failed_[static_cast<std::size_t>(e)] == next) return;  // no state change
  failed_[static_cast<std::size_t>(e)] = next;
  const int u = usage(e);
  link_changed(e, u, u);
}

bool WdmNetwork::link_failed(EdgeId e) const {
  WDM_CHECK(g_.valid_edge(e));
  return failed_[static_cast<std::size_t>(e)] != 0;
}

int WdmNetwork::num_failed_links() const {
  int k = 0;
  for (std::uint8_t f : failed_) k += (f != 0);
  return k;
}

double WdmNetwork::network_load() const {
  double rho = 0.0;
  for (int n = 1; n <= w_; ++n) {
    const int u = top_usage_[static_cast<std::size_t>(n)];
    if (u >= 0) {
      rho = std::max(rho, static_cast<double>(u) / static_cast<double>(n));
    }
  }
  return rho;
}

double WdmNetwork::mean_load() const {
  if (num_links() == 0) return 0.0;
  if (non_dyadic_links_ == 0) {
    return static_cast<double>(load_64ths_) /
           static_cast<double>(WavelengthSet::kMaxWavelengths) /
           static_cast<double>(num_links());
  }
  double s = 0.0;
  for (EdgeId e = 0; e < num_links(); ++e) s += link_load(e);
  return s / static_cast<double>(num_links());
}

double WdmNetwork::min_weight(EdgeId e) const {
  double m = graph::kInf;
  installed(e).for_each([&](Wavelength l) { m = std::min(m, weight(e, l)); });
  return m;
}

double WdmNetwork::mean_available_weight(EdgeId e) const {
  const WavelengthSet avail = available(e);
  WDM_CHECK_MSG(!avail.empty(), "mean over empty Λ_avail(e)");
  double s = 0.0;
  avail.for_each([&](Wavelength l) { s += weight(e, l); });
  return s / avail.count();
}

bool WdmNetwork::is_used(EdgeId e, Wavelength l) const {
  WDM_CHECK(g_.valid_edge(e));
  return used_[static_cast<std::size_t>(e)].contains(l);
}

void WdmNetwork::reserve(EdgeId e, Wavelength l) {
  WDM_CHECK_MSG(available(e).contains(l),
                "reserve: wavelength not available on link");
  WavelengthSet& used = used_[static_cast<std::size_t>(e)];
  const int u = used.count();
  used.insert(l);
  link_changed(e, u, u + 1);
}

void WdmNetwork::release(EdgeId e, Wavelength l) {
  WDM_CHECK_MSG(is_used(e, l), "release: wavelength not in use on link");
  WavelengthSet& used = used_[static_cast<std::size_t>(e)];
  const int u = used.count();
  used.erase(l);
  link_changed(e, u, u - 1);
}

long long WdmNetwork::total_usage() const {
  long long s = 0;
  for (const WavelengthSet& u : used_) s += u.count();
  return s;
}

std::vector<std::uint64_t> WdmNetwork::usage_snapshot() const {
  std::vector<std::uint64_t> snap;
  snap.reserve(used_.size());
  for (const WavelengthSet& u : used_) snap.push_back(u.bits());
  return snap;
}

void WdmNetwork::restore_usage(std::span<const std::uint64_t> snapshot) {
  WDM_CHECK(snapshot.size() == used_.size());
  for (std::size_t i = 0; i < used_.size(); ++i) {
    WDM_CHECK_MSG(
        WavelengthSet::from_bits(snapshot[i]).minus(installed_[i]).empty(),
        "restore_usage: a snapshot uses an uninstalled wavelength");
  }
  for (std::size_t i = 0; i < used_.size(); ++i) {
    if (used_[i].bits() == snapshot[i]) continue;  // keep caches warm
    const int from = used_[i].count();
    used_[i] = WavelengthSet::from_bits(snapshot[i]);
    link_changed(static_cast<EdgeId>(i), from, used_[i].count());
  }
}

int WdmNetwork::add_srlg(std::vector<EdgeId> links, double failure_probability) {
  WDM_CHECK_MSG(failure_probability >= 0.0 && failure_probability <= 1.0,
                "srlg failure probability outside [0, 1]");
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  WDM_CHECK_MSG(!links.empty(), "srlg must name >= 1 link");
  for (EdgeId e : links) {
    WDM_CHECK_MSG(g_.valid_edge(e), "srlg member is not a link");
  }
  const int id = static_cast<int>(srlgs_.size());
  if (srlg_of_link_.size() < static_cast<std::size_t>(num_links())) {
    srlg_of_link_.resize(static_cast<std::size_t>(num_links()));
  }
  for (EdgeId e : links) {
    srlg_of_link_[static_cast<std::size_t>(e)].push_back(id);
  }
  srlgs_.push_back(Srlg{std::move(links), failure_probability});
  // Annotation only: available(e) is untouched, so no per-link counter moves
  // and AuxGraphBuilder caches stay warm.
  return id;
}

const Srlg& WdmNetwork::srlg(int g) const {
  WDM_CHECK(g >= 0 && g < num_srlgs());
  return srlgs_[static_cast<std::size_t>(g)];
}

std::span<const int> WdmNetwork::srlgs_of_link(EdgeId e) const {
  WDM_CHECK(g_.valid_edge(e));
  if (static_cast<std::size_t>(e) >= srlg_of_link_.size()) return {};
  return srlg_of_link_[static_cast<std::size_t>(e)];
}

bool WdmNetwork::links_share_srlg(EdgeId a, EdgeId b) const {
  const std::span<const int> ga = srlgs_of_link(a);
  if (ga.empty()) return false;
  const std::span<const int> gb = srlgs_of_link(b);
  for (int x : ga) {
    for (int y : gb) {
      if (x == y) return true;
    }
  }
  return false;
}

double WdmNetwork::link_failure_probability(EdgeId e) const {
  double survive = 1.0;
  for (int g : srlgs_of_link(e)) {
    survive *= 1.0 - srlgs_[static_cast<std::size_t>(g)].failure_probability;
  }
  return 1.0 - survive;
}

double WdmNetwork::theta_min() const {
  // Per capacity N, the least (U + 1) / N is at the least U held: the
  // division is monotone in U, so this is the scan's minimum bit for bit.
  double t = graph::kInf;
  for (int n = 1; n <= w_; ++n) {
    if (top_usage_[static_cast<std::size_t>(n)] < 0) continue;  // no such link
    int u = 0;
    while (links_at(n, u) == 0) ++u;
    t = std::min(t, static_cast<double>(u + 1) / static_cast<double>(n));
  }
  return t;
}

double WdmNetwork::theta_max() const {
  double t = 0.0;
  for (int n = 1; n <= w_; ++n) {
    const int top = top_usage_[static_cast<std::size_t>(n)];
    if (top >= 0) {
      t = std::max(t, static_cast<double>(top + 1) / static_cast<double>(n));
    }
  }
  return t;
}

}  // namespace wdm::net
