#include "wdm/network.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "graph/path.hpp"
#include "support/check.hpp"

namespace wdm::net {

namespace {

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
}

WdmNetwork::WdmNetwork(const WdmNetwork& other)
    : g_(other.g_), w_(other.w_), conv_(other.conv_),
      installed_(other.installed_), used_(other.used_),
      failed_(other.failed_), weight_(other.weight_),
      srlgs_(other.srlgs_), srlg_of_link_(other.srlg_of_link_),
      revision_(other.revision_), link_rev_(other.link_rev_),
      conv_rev_(other.conv_rev_), uid_(next_network_uid()) {}

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
  revision_ = other.revision_;
  link_rev_ = other.link_rev_;
  conv_rev_ = other.conv_rev_;
  uid_ = next_network_uid();
  return *this;
}

WdmNetwork::WdmNetwork(WdmNetwork&& other) noexcept
    : g_(std::move(other.g_)), w_(other.w_), conv_(std::move(other.conv_)),
      installed_(std::move(other.installed_)), used_(std::move(other.used_)),
      failed_(std::move(other.failed_)), weight_(std::move(other.weight_)),
      srlgs_(std::move(other.srlgs_)),
      srlg_of_link_(std::move(other.srlg_of_link_)),
      revision_(other.revision_), link_rev_(std::move(other.link_rev_)),
      conv_rev_(std::move(other.conv_rev_)), uid_(next_network_uid()) {}

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
  revision_ = other.revision_;
  link_rev_ = std::move(other.link_rev_);
  conv_rev_ = std::move(other.conv_rev_);
  uid_ = next_network_uid();
  return *this;
}

NodeId WdmNetwork::add_node(ConversionTable conversion) {
  WDM_CHECK(conversion.num_wavelengths() == w_);
  conv_.push_back(std::move(conversion));
  conv_rev_.push_back(0);
  ++revision_;
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
  WDM_CHECK_MSG(!installed.empty(), "a fiber must carry >= 1 wavelength");
  WDM_CHECK_MSG(installed.minus(WavelengthSet::all(w_)).empty(),
                "installed set contains wavelengths outside the universe");
  WDM_CHECK(cost_per_lambda.size() == static_cast<std::size_t>(w_));
  const EdgeId e = g_.add_edge(u, v);
  installed_.push_back(installed);
  used_.push_back(WavelengthSet{});
  failed_.push_back(0);
  link_rev_.push_back(0);
  ++revision_;
  for (int l = 0; l < w_; ++l) {
    const double c = cost_per_lambda[static_cast<std::size_t>(l)];
    WDM_CHECK(!installed.contains(l) || c >= 0.0);
    weight_.push_back(c);
  }
  return e;
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
  ++revision_;
}

const ConversionTable& WdmNetwork::conversion(NodeId v) const {
  WDM_CHECK(g_.valid_node(v));
  return conv_[static_cast<std::size_t>(v)];
}

WavelengthSet WdmNetwork::installed(EdgeId e) const {
  WDM_CHECK(g_.valid_edge(e));
  return installed_[static_cast<std::size_t>(e)];
}

WavelengthSet WdmNetwork::available(EdgeId e) const {
  WDM_CHECK(g_.valid_edge(e));
  if (failed_[static_cast<std::size_t>(e)]) return WavelengthSet{};
  return installed_[static_cast<std::size_t>(e)].minus(
      used_[static_cast<std::size_t>(e)]);
}

void WdmNetwork::set_link_failed(EdgeId e, bool failed) {
  WDM_CHECK(g_.valid_edge(e));
  const std::uint8_t next = failed ? 1 : 0;
  if (failed_[static_cast<std::size_t>(e)] == next) return;  // no state change
  failed_[static_cast<std::size_t>(e)] = next;
  ++link_rev_[static_cast<std::size_t>(e)];
  ++revision_;
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

int WdmNetwork::usage(EdgeId e) const {
  WDM_CHECK(g_.valid_edge(e));
  return used_[static_cast<std::size_t>(e)].count();
}

double WdmNetwork::link_load(EdgeId e) const {
  return static_cast<double>(usage(e)) / static_cast<double>(capacity(e));
}

double WdmNetwork::network_load() const {
  double rho = 0.0;
  for (EdgeId e = 0; e < num_links(); ++e) {
    rho = std::max(rho, link_load(e));
  }
  return rho;
}

double WdmNetwork::mean_load() const {
  if (num_links() == 0) return 0.0;
  double s = 0.0;
  for (EdgeId e = 0; e < num_links(); ++e) s += link_load(e);
  return s / static_cast<double>(num_links());
}

double WdmNetwork::weight(EdgeId e, Wavelength l) const {
  WDM_CHECK(g_.valid_edge(e));
  WDM_CHECK_MSG(installed(e).contains(l), "w(e,λ) undefined: λ ∉ Λ(e)");
  return weight_[static_cast<std::size_t>(e) * static_cast<std::size_t>(w_) +
                 static_cast<std::size_t>(l)];
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
  used_[static_cast<std::size_t>(e)].insert(l);
  ++link_rev_[static_cast<std::size_t>(e)];
  ++revision_;
}

void WdmNetwork::release(EdgeId e, Wavelength l) {
  WDM_CHECK_MSG(is_used(e, l), "release: wavelength not in use on link");
  used_[static_cast<std::size_t>(e)].erase(l);
  ++link_rev_[static_cast<std::size_t>(e)];
  ++revision_;
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
    if (used_[i].bits() == snapshot[i]) continue;  // keep caches warm
    used_[i] = WavelengthSet::from_bits(snapshot[i]);
    ++link_rev_[i];
  }
  ++revision_;
}

std::uint64_t WdmNetwork::link_revision(EdgeId e) const {
  WDM_CHECK(g_.valid_edge(e));
  return link_rev_[static_cast<std::size_t>(e)];
}

std::uint64_t WdmNetwork::conversion_revision(NodeId v) const {
  WDM_CHECK(g_.valid_node(v));
  return conv_rev_[static_cast<std::size_t>(v)];
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
  ++revision_;
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
  double t = graph::kInf;
  for (EdgeId e = 0; e < num_links(); ++e) {
    t = std::min(t, static_cast<double>(usage(e) + 1) /
                        static_cast<double>(capacity(e)));
  }
  return t;
}

double WdmNetwork::theta_max() const {
  double t = 0.0;
  for (EdgeId e = 0; e < num_links(); ++e) {
    t = std::max(t, static_cast<double>(usage(e) + 1) /
                        static_cast<double>(capacity(e)));
  }
  return t;
}

}  // namespace wdm::net
