#include "fuzz/shrinker.hpp"

#include <vector>

#include "support/check.hpp"

namespace wdm::fuzz {

namespace {

/// Copies `src` into a fresh network, skipping one node / link / wavelength
/// (any of which may be "none"). Node ids above a skipped node and
/// wavelengths above a skipped wavelength shift down by one; links incident
/// to a skipped node, equal to the skipped link, or left with an empty
/// installed set are dropped.
net::WdmNetwork rebuild(const net::WdmNetwork& src, net::NodeId skip_node,
                        graph::EdgeId skip_link, net::Wavelength skip_lambda) {
  const int W = src.W() - (skip_lambda >= 0 ? 1 : 0);
  WDM_CHECK(W >= 1);
  const net::NodeId n = src.num_nodes() - (skip_node >= 0 ? 1 : 0);

  auto map_node = [&](net::NodeId v) -> net::NodeId {
    return (skip_node >= 0 && v > skip_node) ? v - 1 : v;
  };
  auto map_lambda = [&](net::Wavelength l) -> net::Wavelength {
    return (skip_lambda >= 0 && l > skip_lambda) ? l - 1 : l;
  };

  net::WdmNetwork out(n, W);
  for (net::NodeId v = 0; v < src.num_nodes(); ++v) {
    if (v == skip_node) continue;
    const net::ConversionTable& t = src.conversion(v);
    // Copies keep the shape tag wherever the result is still a factory
    // table, so a shrunk repro takes the same closed-form paths as the
    // original instance.
    if (skip_lambda < 0) {
      out.set_conversion(map_node(v), t);
      continue;
    }
    if (t.shape() == net::ConversionTable::Shape::kFull) {
      out.set_conversion(map_node(v),
                         net::ConversionTable::full(W, t.uniform_cost()));
      continue;
    }
    net::ConversionTable nt = net::ConversionTable::none(W);
    for (net::Wavelength a = 0; a < src.W(); ++a) {
      if (a == skip_lambda) continue;
      for (net::Wavelength b = 0; b < src.W(); ++b) {
        if (b == skip_lambda || a == b) continue;
        if (t.allowed(a, b)) nt.set(map_lambda(a), map_lambda(b), t.cost(a, b));
      }
    }
    out.set_conversion(map_node(v), std::move(nt));
  }

  for (graph::EdgeId e = 0; e < src.num_links(); ++e) {
    if (e == skip_link) continue;
    const net::NodeId u = src.graph().tail(e);
    const net::NodeId v = src.graph().head(e);
    if (u == skip_node || v == skip_node) continue;
    net::WavelengthSet inst;
    net::WavelengthSet used;
    std::vector<double> costs(static_cast<std::size_t>(W), 0.0);
    src.installed(e).for_each([&](net::Wavelength l) {
      if (l == skip_lambda) return;
      inst.insert(map_lambda(l));
      costs[static_cast<std::size_t>(map_lambda(l))] = src.weight(e, l);
      if (src.is_used(e, l)) used.insert(map_lambda(l));
    });
    if (inst.empty()) continue;  // a fiber must carry >= 1 wavelength
    const graph::EdgeId ne =
        out.add_link(map_node(u), map_node(v), inst, costs);
    used.for_each([&](net::Wavelength l) { out.reserve(ne, l); });
    if (src.link_failed(e)) out.set_link_failed(ne, true);
  }
  return out;
}

FuzzInstance rebuilt(const FuzzInstance& inst, net::NodeId skip_node,
                     graph::EdgeId skip_link, net::Wavelength skip_lambda) {
  FuzzInstance out;
  out.network = rebuild(inst.network, skip_node, skip_link, skip_lambda);
  auto map_node = [&](net::NodeId v) -> net::NodeId {
    return (skip_node >= 0 && v > skip_node) ? v - 1 : v;
  };
  out.s = map_node(inst.s);
  out.t = map_node(inst.t);
  out.seed = inst.seed;
  out.family = inst.family + "/shrunk";
  return out;
}

}  // namespace

FuzzInstance drop_link(const FuzzInstance& inst, graph::EdgeId e) {
  WDM_CHECK(inst.network.graph().valid_edge(e));
  return rebuilt(inst, graph::kInvalidNode, e, net::kInvalidWavelength);
}

FuzzInstance drop_wavelength(const FuzzInstance& inst, net::Wavelength l) {
  WDM_CHECK(inst.network.W() > 1 && l >= 0 && l < inst.network.W());
  return rebuilt(inst, graph::kInvalidNode, graph::kInvalidEdge, l);
}

FuzzInstance drop_node(const FuzzInstance& inst, net::NodeId v) {
  WDM_CHECK(inst.network.graph().valid_node(v) && v != inst.s && v != inst.t);
  return rebuilt(inst, v, graph::kInvalidEdge, net::kInvalidWavelength);
}

FuzzInstance shrink(FuzzInstance inst, const FailurePredicate& still_fails,
                    int budget, ShrinkStats* stats) {
  ShrinkStats st;
  st.initial_size = inst.size();

  auto attempt = [&](const FuzzInstance& candidate) -> bool {
    if (budget <= 0) return false;
    --budget;
    ++st.edits_tried;
    // A candidate that lost s->t routability entirely can still "fail" for
    // vacuous reasons; the predicate owns that decision.
    if (!still_fails(candidate)) return false;
    ++st.edits_kept;
    return true;
  };

  bool progress = true;
  while (progress && budget > 0) {
    progress = false;

    // Pass 1: drop links. On success stay at the same index (it now names
    // the next link).
    for (graph::EdgeId e = 0; e < inst.network.num_links() && budget > 0;) {
      FuzzInstance cand = drop_link(inst, e);
      if (attempt(cand)) {
        inst = std::move(cand);
        progress = true;
      } else {
        ++e;
      }
    }

    // Pass 2: drop whole wavelengths from the universe.
    for (net::Wavelength l = 0; inst.network.W() > 1 &&
                                l < inst.network.W() && budget > 0;) {
      FuzzInstance cand = drop_wavelength(inst, l);
      if (attempt(cand)) {
        inst = std::move(cand);
        progress = true;
      } else {
        ++l;
      }
    }

    // Pass 3: drop nodes (with their incident links).
    for (net::NodeId v = 0; v < inst.network.num_nodes() && budget > 0;) {
      if (v == inst.s || v == inst.t) {
        ++v;
        continue;
      }
      FuzzInstance cand = drop_node(inst, v);
      if (attempt(cand)) {
        inst = std::move(cand);
        progress = true;
      } else {
        ++v;
      }
    }
  }

  st.final_size = inst.size();
  if (stats != nullptr) *stats = st;
  return inst;
}

}  // namespace wdm::fuzz
