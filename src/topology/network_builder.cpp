#include "topology/network_builder.hpp"

#include <algorithm>
#include <vector>

#include "support/check.hpp"

namespace wdm::topo {

namespace {

net::ConversionTable make_conversion(const NetworkOptions& opt,
                                     support::Rng& rng) {
  switch (opt.conversion_model) {
    case ConversionModel::kFullUniform:
      return net::ConversionTable::full(opt.num_wavelengths,
                                        opt.conversion_cost);
    case ConversionModel::kNone:
      return net::ConversionTable::none(opt.num_wavelengths);
    case ConversionModel::kLimitedRange:
      return net::ConversionTable::limited_range(
          opt.num_wavelengths, opt.conversion_range, opt.conversion_cost);
    case ConversionModel::kFullRandomPerNode:
      return net::ConversionTable::full(
          opt.num_wavelengths, rng.uniform(opt.conv_cost_lo, opt.conv_cost_hi));
  }
  WDM_CHECK(false);
}

}  // namespace

net::WdmNetwork build_network(const Topology& topo, const NetworkOptions& opt,
                              support::Rng& rng) {
  WDM_CHECK(opt.num_wavelengths >= 1);
  WDM_CHECK(opt.install_probability > 0.0 && opt.install_probability <= 1.0);
  net::WdmNetwork network(0, opt.num_wavelengths);
  for (graph::NodeId v = 0; v < topo.g.num_nodes(); ++v) {
    network.add_node(make_conversion(opt, rng));
  }

  const int W = opt.num_wavelengths;
  std::vector<double> costs(static_cast<std::size_t>(W), 1.0);
  // The topology is complete, so the links go in as one batch (one graph
  // build) rather than one add_link insert each.
  std::vector<graph::NodeId> tails;
  std::vector<graph::NodeId> heads;
  std::vector<net::WavelengthSet> inventory;
  std::vector<double> all_costs;
  const auto m = static_cast<std::size_t>(topo.g.num_edges());
  tails.reserve(m);
  heads.reserve(m);
  inventory.reserve(m);
  all_costs.reserve(m * costs.size());
  for (graph::EdgeId e = 0; e < topo.g.num_edges(); ++e) {
    // Wavelength inventory; keep at least one channel.
    net::WavelengthSet installed;
    if (opt.install_probability >= 1.0) {
      installed = net::WavelengthSet::all(W);
    } else {
      for (net::Wavelength l = 0; l < W; ++l) {
        if (rng.bernoulli(opt.install_probability)) installed.insert(l);
      }
      if (installed.empty()) {
        installed.insert(
            static_cast<net::Wavelength>(rng.uniform_int(0, W - 1)));
      }
    }

    switch (opt.cost_model) {
      case CostModel::kUnit:
        std::fill(costs.begin(), costs.end(), 1.0);
        break;
      case CostModel::kLength:
        std::fill(costs.begin(), costs.end(),
                  std::max(1e-9, topo.length[static_cast<std::size_t>(e)] *
                                     opt.length_cost_scale));
        break;
      case CostModel::kRandomPerLink: {
        // Symmetric across the duplex pair would require coordination; per
        // directed edge is fine for routing studies.
        const double c = rng.uniform(opt.cost_lo, opt.cost_hi);
        std::fill(costs.begin(), costs.end(), c);
        break;
      }
      case CostModel::kRandomPerWavelength:
        for (double& c : costs) c = rng.uniform(opt.cost_lo, opt.cost_hi);
        break;
    }
    tails.push_back(topo.g.tail(e));
    heads.push_back(topo.g.head(e));
    inventory.push_back(installed);
    all_costs.insert(all_costs.end(), costs.begin(), costs.end());
  }
  network.add_links(tails, heads, inventory, all_costs);
  return network;
}

net::WdmNetwork nsfnet_network(int num_wavelengths, double conversion_cost) {
  support::Rng rng(42);
  NetworkOptions opt;
  opt.num_wavelengths = num_wavelengths;
  opt.cost_model = CostModel::kUnit;
  opt.conversion_model = ConversionModel::kFullUniform;
  opt.conversion_cost = conversion_cost;
  return build_network(nsfnet(), opt, rng);
}

bool satisfies_theorem2_assumption(const net::WdmNetwork& net) {
  const auto& g = net.graph();
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const double conv = net.conversion(v).max_cost();
    auto check_edge = [&](graph::EdgeId e) {
      net::WavelengthSet inst = net.installed(e);
      bool ok = true;
      inst.for_each([&](net::Wavelength l) {
        if (net.weight(e, l) < conv) ok = false;
      });
      return ok;
    };
    for (graph::EdgeId e : g.in_edges(v)) {
      if (!check_edge(e)) return false;
    }
    for (graph::EdgeId e : g.out_edges(v)) {
      if (!check_edge(e)) return false;
    }
  }
  return true;
}

}  // namespace wdm::topo
