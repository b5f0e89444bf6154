// E1 — Fig. 1 reproduction: the residual network G and its auxiliary graph
// G' (§3.3.1), built programmatically. The paper's figure is illustrative;
// this bench reproduces the construction on a small residual network in the
// figure's spirit (5 nodes, partially-used wavelengths) and on NSFNET,
// printing the node/arc inventory and emitting DOT for both graphs.
#include <cstdio>

#include "bench_common.hpp"
#include "graph/dot.hpp"
#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "support/table.hpp"
#include "topology/network_builder.hpp"

namespace {

using namespace wdm;

net::WdmNetwork figure_network() {
  // s=0, t=4; a 5-node residual network with heterogeneous availability,
  // full conversion (the §3.3 setting Fig. 1 illustrates).
  net::WdmNetwork n(5, 3);
  for (net::NodeId v = 0; v < 5; ++v) {
    n.set_conversion(v, net::ConversionTable::full(3, 0.5));
  }
  auto some = [](std::initializer_list<int> ls) {
    net::WavelengthSet s;
    for (int l : ls) s.insert(l);
    return s;
  };
  n.add_link(0, 1, some({0, 1}), 1.0);
  n.add_link(0, 2, some({1, 2}), 1.0);
  n.add_link(1, 2, some({0}), 1.0);
  n.add_link(1, 3, some({0, 1, 2}), 1.0);
  n.add_link(2, 3, some({2}), 1.0);
  n.add_link(2, 4, some({0, 1}), 1.0);
  n.add_link(3, 4, some({1, 2}), 1.0);
  return n;
}

void report(const char* name, const net::WdmNetwork& n, net::NodeId s,
            net::NodeId t, bool dump_dot) {
  const rwa::AuxGraph aux = rwa::build_aux_graph(n, s, t);
  support::TextTable table({"graph", "nodes", "arcs", "edge-nodes",
                            "link-arcs", "transit-arcs", "hub-arcs"});
  table.add_row({std::string("G (residual)"),
                 support::TextTable::integer(n.num_nodes()),
                 support::TextTable::integer(n.num_links()), "-", "-", "-",
                 "-"});
  const int hub_arcs = aux.g.num_edges() - aux.num_link_arcs -
                       aux.num_transit_arcs;
  table.add_row({std::string("G' (auxiliary)"),
                 support::TextTable::integer(aux.g.num_nodes()),
                 support::TextTable::integer(aux.g.num_edges()),
                 support::TextTable::integer(aux.num_edge_nodes),
                 support::TextTable::integer(aux.num_link_arcs),
                 support::TextTable::integer(aux.num_transit_arcs),
                 support::TextTable::integer(hub_arcs)});
  std::printf("-- %s: s=%d t=%d --\n", name, s, t);
  wdm::bench::print_table(table);

  const graph::DisjointPair pair =
      graph::suurballe(aux.g, aux.w, aux.s_prime, aux.t_second);
  if (pair.found) {
    std::printf("Find_Two_Paths on G': found pair, ω(P1)+ω(P2) = %.4f\n",
                pair.total_cost());
    auto show = [&](const char* label, const graph::Path& p) {
      std::printf("  %s links:", label);
      for (graph::EdgeId link : aux.project(p)) {
        std::printf(" %d->%d", n.graph().tail(link), n.graph().head(link));
      }
      std::printf("\n");
    };
    show("P1", pair.first);
    show("P2", pair.second);
  } else {
    std::printf("Find_Two_Paths on G': no edge-disjoint pair\n");
  }

  if (dump_dot) {
    graph::DotOptions phys;
    phys.graph_name = "G_residual";
    // Labels are built with +=: GCC 12 (-O2) warns -Wrestrict on an inlined
    // `"literal" + std::string` here.
    phys.node_label = [](graph::NodeId v) {
      std::string label = "v";
      label += std::to_string(v);
      return label;
    };
    phys.edge_label = [&n](graph::EdgeId e) {
      std::string label = "|avail|=";
      label += std::to_string(n.available(e).count());
      return label;
    };
    std::printf("\n%s", graph::to_dot(n.graph(), phys).c_str());

    graph::DotOptions ax;
    ax.graph_name = "G_prime";
    ax.node_label = [&aux](graph::NodeId v) {
      const graph::EdgeId pe = aux.phys_edge_of_node[static_cast<std::size_t>(v)];
      if (pe == graph::kInvalidEdge) {
        return std::string(v == aux.s_prime ? "s'" : "t''");
      }
      std::string label =
          aux.is_in_node[static_cast<std::size_t>(v)] ? "in" : "out";
      label += std::to_string(pe);
      return label;
    };
    std::printf("\n%s\n", graph::to_dot(aux.g, ax).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = wdm::bench::quick_mode(argc, argv);
  wdm::bench::banner(
      "E1 / Fig. 1 — residual network G and auxiliary graph G'",
      "Programmatic reproduction of the §3.3.1 construction: 2 edge-nodes "
      "per usable link, one link arc per fiber, transit arcs where "
      "conversion is possible, plus the s'/t'' hubs.");

  report("figure-style 5-node residual network", figure_network(), 0, 4,
         /*dump_dot=*/true);

  if (!quick) {
    wdm::support::Rng rng(1);
    wdm::topo::NetworkOptions opt;
    opt.num_wavelengths = 8;
    net::WdmNetwork nsf =
        wdm::topo::build_network(wdm::topo::nsfnet(), opt, rng);
    // Occupy a third of the wavelengths so G' reflects a residual state.
    for (graph::EdgeId e = 0; e < nsf.num_links(); ++e) {
      nsf.available(e).for_each([&](net::Wavelength l) {
        if (rng.bernoulli(0.33)) nsf.reserve(e, l);
      });
    }
    report("NSFNET-14, W=8, ~33% occupied", nsf, 0, 13, /*dump_dot=*/false);
  }
  return 0;
}
