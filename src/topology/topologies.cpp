#include "topology/topologies.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/check.hpp"

namespace wdm::topo {

namespace {

double dist(const std::pair<double, double>& a,
            const std::pair<double, double>& b) {
  const double dx = a.first - b.first;
  const double dy = a.second - b.second;
  return std::sqrt(dx * dx + dy * dy);
}

/// Assembles a Topology from an undirected edge list, adding both
/// orientations and wiring reverse_of.
Topology assemble(std::string name,
                  std::vector<std::pair<double, double>> coords,
                  const std::vector<std::pair<int, int>>& duplex) {
  Topology t;
  t.name = std::move(name);
  t.coords = std::move(coords);
  std::vector<graph::NodeId> tails;
  std::vector<graph::NodeId> heads;
  for (const auto& [u, v] : duplex) {
    WDM_CHECK(u != v);
    const double len = dist(t.coords[static_cast<std::size_t>(u)],
                            t.coords[static_cast<std::size_t>(v)]);
    const auto e = static_cast<graph::EdgeId>(tails.size());
    tails.insert(tails.end(), {u, v});
    heads.insert(heads.end(), {v, u});
    t.length.insert(t.length.end(), {len, len});
    t.reverse_of.insert(t.reverse_of.end(), {e + 1, e});
  }
  t.g = graph::Digraph(static_cast<graph::NodeId>(t.coords.size()),
                       std::move(tails), std::move(heads));
  return t;
}

}  // namespace

Topology nsfnet() {
  // Node order: WA, CA1, CA2, UT, CO, TX, NE, IL, PA, GA, MI, NY, NJ, MD.
  // Coordinates are rough longitude/latitude projections (arbitrary units).
  std::vector<std::pair<double, double>> coords = {
      {0.5, 8.5},  {0.0, 5.0},  {1.0, 3.0},  {3.0, 6.5},  {5.0, 6.0},
      {6.0, 2.0},  {7.0, 6.5},  {9.0, 6.8},  {11.5, 6.2}, {10.5, 2.5},
      {10.0, 7.5}, {13.0, 7.0}, {12.5, 6.0}, {12.0, 5.2},
  };
  // The 21-link NSFNET T1 backbone as used throughout the RWA literature.
  const std::vector<std::pair<int, int>> links = {
      {0, 1}, {0, 2},  {0, 7},  {1, 2},  {1, 3},   {2, 5},   {3, 4},
      {3, 10}, {4, 5},  {4, 6},  {5, 9},  {5, 13},  {6, 7},   {7, 8},
      {8, 9}, {8, 11}, {8, 12}, {10, 11}, {10, 12}, {11, 13}, {12, 13},
  };
  return assemble("nsfnet14", std::move(coords), links);
}

Topology arpanet20() {
  // A 20-node, 31-duplex-link continental mesh in the shape used by
  // survivability studies of the period (average degree ~3.1).
  std::vector<std::pair<double, double>> coords;
  coords.reserve(20);
  for (int i = 0; i < 20; ++i) {
    const double ang = 2.0 * 3.14159265358979 * i / 20.0;
    const double r = (i % 2 == 0) ? 1.0 : 0.72;
    coords.emplace_back(r * std::cos(ang), r * std::sin(ang));
  }
  const std::vector<std::pair<int, int>> links = {
      {0, 1},  {1, 2},   {2, 3},   {3, 4},   {4, 5},   {5, 6},   {6, 7},
      {7, 8},  {8, 9},   {9, 10},  {10, 11}, {11, 12}, {12, 13}, {13, 14},
      {14, 15}, {15, 16}, {16, 17}, {17, 18}, {18, 19}, {19, 0},  {0, 10},
      {1, 8},  {2, 12},  {3, 15},  {4, 13},  {5, 17},  {6, 16},  {7, 19},
      {9, 18}, {11, 19}, {14, 2},
  };
  return assemble("arpanet20", std::move(coords), links);
}

Topology eon19() {
  // European Optical Network core: 19 cities, 37 duplex links (the EON
  // reference mesh used in pan-European WDM studies).
  std::vector<std::pair<double, double>> coords = {
      {-9.1, 38.7},  // 0 Lisbon
      {-3.7, 40.4},  // 1 Madrid
      {2.2, 41.4},   // 2 Barcelona (stand-in for the Iberian ring)
      {-0.1, 51.5},  // 3 London
      {2.3, 48.9},   // 4 Paris
      {4.4, 50.8},   // 5 Brussels
      {4.9, 52.4},   // 6 Amsterdam
      {8.7, 50.1},   // 7 Frankfurt
      {7.4, 46.9},   // 8 Bern
      {9.2, 45.5},   // 9 Milan
      {12.5, 41.9},  // 10 Rome
      {16.4, 48.2},  // 11 Vienna
      {14.4, 50.1},  // 12 Prague
      {13.4, 52.5},  // 13 Berlin
      {12.6, 55.7},  // 14 Copenhagen
      {18.1, 59.3},  // 15 Stockholm
      {24.9, 60.2},  // 16 Helsinki
      {21.0, 52.2},  // 17 Warsaw
      {19.1, 47.5},  // 18 Budapest
  };
  const std::vector<std::pair<int, int>> links = {
      {0, 1},  {0, 3},   {1, 2},   {1, 4},   {2, 9},   {2, 4},   {3, 4},
      {3, 6},  {3, 14},  {4, 5},   {4, 8},   {5, 6},   {5, 7},   {6, 7},
      {6, 13}, {7, 8},   {7, 12},  {7, 13},  {8, 9},   {9, 10},  {9, 11},
      {10, 11}, {10, 18}, {11, 12}, {11, 18}, {12, 13}, {12, 17}, {13, 14},
      {13, 17}, {14, 15}, {15, 16}, {15, 17}, {16, 17}, {17, 18}, {14, 16},
      {1, 3},  {8, 10},
  };
  return assemble("eon19", std::move(coords), links);
}

Topology usnet24() {
  // 24-node US nationwide mesh (USNET), 43 duplex links — the larger US
  // reference topology of survivable-WDM studies.
  std::vector<std::pair<double, double>> coords = {
      {0.5, 7.0},   {1.0, 4.5},  {1.5, 2.0},  {3.0, 7.5},  {3.5, 5.0},
      {4.0, 2.5},   {5.5, 8.0},  {6.0, 5.5},  {6.5, 3.0},  {7.0, 1.0},
      {8.0, 7.0},   {8.5, 4.5},  {9.0, 2.0},  {10.0, 8.0}, {10.5, 5.5},
      {11.0, 3.0},  {11.5, 1.0}, {12.5, 7.5}, {13.0, 5.0}, {13.5, 2.5},
      {14.5, 8.0},  {15.0, 6.0}, {15.5, 4.0}, {16.0, 2.0},
  };
  const std::vector<std::pair<int, int>> links = {
      {0, 1},   {0, 3},   {1, 2},   {1, 4},   {2, 5},   {3, 4},   {3, 6},
      {4, 5},   {4, 7},   {5, 8},   {5, 9},   {6, 7},   {6, 10},  {7, 8},
      {7, 11},  {8, 9},   {8, 12},  {9, 12},  {10, 11}, {10, 13}, {11, 12},
      {11, 14}, {12, 15}, {13, 14}, {13, 17}, {14, 15}, {14, 18}, {15, 16},
      {15, 19}, {16, 19}, {17, 18}, {17, 20}, {18, 19}, {18, 21}, {19, 22},
      {20, 21}, {21, 22}, {22, 23}, {19, 23}, {2, 9},   {16, 23}, {6, 13},
      {20, 17},
  };
  return assemble("usnet24", std::move(coords), links);
}

Topology torus(int rows, int cols) {
  WDM_CHECK(rows >= 3 && cols >= 3);
  std::vector<std::pair<double, double>> coords;
  std::vector<std::pair<int, int>> links;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      coords.emplace_back(static_cast<double>(c), static_cast<double>(r));
      const int id = r * cols + c;
      links.emplace_back(id, r * cols + (c + 1) % cols);
      links.emplace_back(id, ((r + 1) % rows) * cols + c);
    }
  }
  return assemble("torus" + std::to_string(rows) + "x" + std::to_string(cols),
                  std::move(coords), links);
}

Topology ring(int n) {
  WDM_CHECK(n >= 3);
  std::vector<std::pair<double, double>> coords;
  coords.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double ang = 2.0 * 3.14159265358979 * i / n;
    coords.emplace_back(std::cos(ang), std::sin(ang));
  }
  std::vector<std::pair<int, int>> links;
  for (int i = 0; i < n; ++i) links.emplace_back(i, (i + 1) % n);
  return assemble("ring" + std::to_string(n), std::move(coords), links);
}

Topology grid(int rows, int cols) {
  WDM_CHECK(rows >= 2 && cols >= 2);
  std::vector<std::pair<double, double>> coords;
  std::vector<std::pair<int, int>> links;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      coords.emplace_back(static_cast<double>(c), static_cast<double>(r));
      const int id = r * cols + c;
      if (c + 1 < cols) links.emplace_back(id, id + 1);
      if (r + 1 < rows) links.emplace_back(id, id + cols);
    }
  }
  return assemble("grid" + std::to_string(rows) + "x" + std::to_string(cols),
                  std::move(coords), links);
}

Topology complete(int n) {
  WDM_CHECK(n >= 2);
  std::vector<std::pair<double, double>> coords;
  for (int i = 0; i < n; ++i) {
    const double ang = 2.0 * 3.14159265358979 * i / n;
    coords.emplace_back(std::cos(ang), std::sin(ang));
  }
  std::vector<std::pair<int, int>> links;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) links.emplace_back(i, j);
  }
  std::string name = "k";  // +=: GCC 12 warns -Wrestrict on "k" + string
  name += std::to_string(n);
  return assemble(std::move(name), std::move(coords), links);
}

Topology random_connected(int n, int extra_links, support::Rng& rng) {
  WDM_CHECK(n >= 2);
  WDM_CHECK(extra_links >= 0);
  std::vector<std::pair<double, double>> coords;
  for (int i = 0; i < n; ++i) {
    coords.emplace_back(rng.uniform(), rng.uniform());
  }
  // Random spanning tree: attach each node to a random earlier node under a
  // random permutation.
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  rng.shuffle(std::span<int>(perm));
  std::vector<std::pair<int, int>> links;
  auto key = [n](int a, int b) {
    return static_cast<long long>(std::min(a, b)) * n + std::max(a, b);
  };
  std::vector<long long> used;
  for (int i = 1; i < n; ++i) {
    const int a = perm[static_cast<std::size_t>(i)];
    const int b =
        perm[static_cast<std::size_t>(rng.uniform_int(0, i - 1))];
    links.emplace_back(a, b);
    used.push_back(key(a, b));
  }
  std::sort(used.begin(), used.end());
  const long long max_extra =
      static_cast<long long>(n) * (n - 1) / 2 - static_cast<long long>(links.size());
  int to_add = static_cast<int>(std::min<long long>(extra_links, max_extra));
  while (to_add > 0) {
    const int a = static_cast<int>(rng.uniform_int(0, n - 1));
    const int b = static_cast<int>(rng.uniform_int(0, n - 1));
    if (a == b) continue;
    const long long k = key(a, b);
    if (std::binary_search(used.begin(), used.end(), k)) continue;
    used.insert(std::lower_bound(used.begin(), used.end(), k), k);
    links.emplace_back(a, b);
    --to_add;
  }
  return assemble("rand" + std::to_string(n), std::move(coords), links);
}

Topology waxman(int n, double alpha, double beta, support::Rng& rng) {
  WDM_CHECK(n >= 2);
  WDM_CHECK(alpha > 0.0 && beta > 0.0);
  std::vector<std::pair<double, double>> coords;
  for (int i = 0; i < n; ++i) {
    coords.emplace_back(rng.uniform(), rng.uniform());
  }
  const double d_max = std::sqrt(2.0);
  std::vector<std::pair<int, int>> links;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double d = dist(coords[static_cast<std::size_t>(i)],
                            coords[static_cast<std::size_t>(j)]);
      if (rng.bernoulli(alpha * std::exp(-d / (beta * d_max)))) {
        links.emplace_back(i, j);
      }
    }
  }
  // Overlay a spanning chain through a random permutation so the graph is
  // always connected regardless of the draw. Dedup against the drawn links
  // through a sorted key vector (as random_connected does) — the linear scan
  // this replaces made the overlay O(n·m), dominating generation at n >= 500.
  auto key = [n](int a, int b) {
    return static_cast<long long>(std::min(a, b)) * n + std::max(a, b);
  };
  std::vector<long long> used;
  used.reserve(links.size());
  for (const auto& [a, b] : links) used.push_back(key(a, b));
  std::sort(used.begin(), used.end());
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  rng.shuffle(std::span<int>(perm));
  for (int i = 0; i + 1 < n; ++i) {
    const int a = perm[static_cast<std::size_t>(i)];
    const int b = perm[static_cast<std::size_t>(i + 1)];
    if (!std::binary_search(used.begin(), used.end(), key(a, b))) {
      links.emplace_back(a, b);
    }
  }
  return assemble("waxman" + std::to_string(n), std::move(coords), links);
}

Topology geo_grid(int rows, int cols, double chord_p, support::Rng& rng) {
  WDM_CHECK(rows >= 2 && cols >= 2);
  WDM_CHECK(chord_p >= 0.0 && chord_p <= 1.0);
  std::vector<std::pair<double, double>> coords;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      coords.emplace_back(static_cast<double>(c), static_cast<double>(r));
    }
  }
  auto id = [cols](int r, int c) { return r * cols + c; };
  std::vector<std::pair<int, int>> links;
  // Backbone grid — present unconditionally, so the result is connected for
  // every draw.
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) links.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) links.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  // Probabilistic diagonal chords: each unit cell gains one of its two
  // diagonals with probability chord_p (direction chosen by a fair coin),
  // modelling the express links real continental backbones overlay on a
  // regional mesh.
  for (int r = 0; r + 1 < rows; ++r) {
    for (int c = 0; c + 1 < cols; ++c) {
      if (!rng.bernoulli(chord_p)) continue;
      if (rng.bernoulli(0.5)) {
        links.emplace_back(id(r, c), id(r + 1, c + 1));
      } else {
        links.emplace_back(id(r, c + 1), id(r + 1, c));
      }
    }
  }
  return assemble(
      "geo" + std::to_string(rows) + "x" + std::to_string(cols),
      std::move(coords), links);
}

}  // namespace wdm::topo
