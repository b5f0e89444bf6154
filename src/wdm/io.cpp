#include "wdm/io.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include "support/check.hpp"

namespace wdm::io {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream ss(line);
  std::string tok;
  while (ss >> tok) {
    if (tok[0] == '#') break;
    out.push_back(tok);
  }
  return out;
}

int parse_int(const std::string& tok, int line, const char* what) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(tok, &pos);
    if (pos != tok.size()) throw std::invalid_argument(tok);
    return v;
  } catch (const std::exception&) {
    throw ParseError(line, std::string("expected integer for ") + what +
                               ", got '" + tok + "'");
  }
}

double parse_double(const std::string& tok, int line, const char* what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(tok, &pos);
    if (pos != tok.size()) throw std::invalid_argument(tok);
    // nan/inf parse fine through stod but poison every cost comparison
    // downstream — reject them at the boundary.
    if (!std::isfinite(v)) throw std::invalid_argument(tok);
    return v;
  } catch (const std::exception&) {
    throw ParseError(line, std::string("expected finite number for ") + what +
                               ", got '" + tok + "'");
  }
}

/// Parses "a,b,c" integer lists.
std::vector<int> parse_int_list(const std::string& tok, int line,
                                const char* what) {
  std::vector<int> out;
  std::istringstream ss(tok);
  std::string item;
  while (std::getline(ss, item, ',')) {
    out.push_back(parse_int(item, line, what));
  }
  if (out.empty()) throw ParseError(line, std::string("empty list for ") + what);
  return out;
}

std::vector<double> parse_double_list(const std::string& tok, int line,
                                      const char* what) {
  std::vector<double> out;
  std::istringstream ss(tok);
  std::string item;
  while (std::getline(ss, item, ',')) {
    out.push_back(parse_double(item, line, what));
  }
  return out;
}

}  // namespace

std::string write_network(const net::WdmNetwork& network) {
  std::ostringstream out;
  // max_digits10: doubles round-trip bit-exactly through the text form.
  out.precision(std::numeric_limits<double>::max_digits10);
  const int W = network.W();
  out << "# robustwdm network\n";
  out << "network " << network.num_nodes() << ' ' << W << '\n';

  for (net::NodeId v = 0; v < network.num_nodes(); ++v) {
    const net::ConversionTable& t = network.conversion(v);
    // A table keeps its shape through a round trip (and with it the
    // routers' fast paths and floating-point results): tagged tables as
    // their factory line, general ones pair by pair. Only a general table
    // with no conversion left reads back as none, which routes the same.
    switch (t.shape()) {
      case net::ConversionTable::Shape::kNone:
        continue;  // the default
      case net::ConversionTable::Shape::kFull:
        out << "conversion " << v << " full " << t.uniform_cost() << '\n';
        continue;
      case net::ConversionTable::Shape::kLimitedRange:
        out << "conversion " << v << " limited " << t.range() << ' '
            << t.uniform_cost() << '\n';
        continue;
      case net::ConversionTable::Shape::kGeneral:
        break;
    }
    for (net::Wavelength a = 0; a < W; ++a) {
      for (net::Wavelength b = 0; b < W; ++b) {
        if (a != b && t.allowed(a, b)) {
          out << "conv " << v << ' ' << a << ' ' << b << ' ' << t.cost(a, b)
              << '\n';
        }
      }
    }
  }

  for (graph::EdgeId e = 0; e < network.num_links(); ++e) {
    const net::WavelengthSet inst = network.installed(e);
    // Uniform cost across installed wavelengths?
    bool uniform = true;
    double c0 = 0.0;
    bool first = true;
    inst.for_each([&](net::Wavelength l) {
      if (first) {
        c0 = network.weight(e, l);
        first = false;
      } else if (network.weight(e, l) != c0) {
        uniform = false;
      }
    });
    out << "link " << network.graph().tail(e) << ' ' << network.graph().head(e);
    if (uniform) {
      out << " cost " << c0;
    } else {
      out << " costs ";
      for (net::Wavelength l = 0; l < W; ++l) {
        if (l) out << ',';
        out << (inst.contains(l) ? network.weight(e, l) : 0.0);
      }
    }
    if (!(inst == net::WavelengthSet::all(W))) {
      out << " lambdas ";
      bool sep = false;
      inst.for_each([&](net::Wavelength l) {
        if (sep) out << ',';
        out << l;
        sep = true;
      });
    }
    out << '\n';
  }

  for (int g = 0; g < network.num_srlgs(); ++g) {
    const net::Srlg& grp = network.srlg(g);
    out << "srlg " << g << ' ' << grp.failure_probability << ' ';
    for (std::size_t i = 0; i < grp.links.size(); ++i) {
      if (i) out << ',';
      out << grp.links[i];
    }
    out << '\n';
  }

  for (graph::EdgeId e = 0; e < network.num_links(); ++e) {
    network.installed(e).for_each([&](net::Wavelength l) {
      if (network.is_used(e, l)) {
        out << "reserve " << e << ' ' << l << '\n';
      }
    });
    if (network.link_failed(e)) out << "failed " << e << '\n';
  }
  return out.str();
}

net::WdmNetwork read_network(std::istream& in) {
  std::optional<net::WdmNetwork> network;
  std::string line;
  int line_no = 0;
  int W = 0;
  // Failures applied at the end (reserve on a failed link must still load).
  std::vector<graph::EdgeId> failed;

  auto require_network = [&](int ln) -> net::WdmNetwork& {
    if (!network) throw ParseError(ln, "'network' header must come first");
    return *network;
  };

  while (std::getline(in, line)) {
    ++line_no;
    const auto toks = tokenize(line);
    if (toks.empty()) continue;
    const std::string& cmd = toks[0];
    auto want = [&](std::size_t count) {
      if (toks.size() != count) {
        throw ParseError(line_no, "'" + cmd + "' expects " +
                                      std::to_string(count - 1) + " argument(s)");
      }
    };
    try {
      if (cmd == "network") {
        want(3);
        if (network) throw ParseError(line_no, "duplicate 'network' header");
        const int n = parse_int(toks[1], line_no, "node count");
        W = parse_int(toks[2], line_no, "wavelength count");
        // Bound the header before allocating: a corrupted count must fail
        // with a diagnostic, not a multi-gigabyte allocation.
        constexpr int kMaxNodes = 1 << 16;
        if (n < 1 || n > kMaxNodes) {
          throw ParseError(line_no, "node count out of range [1, " +
                                        std::to_string(kMaxNodes) + "]");
        }
        network.emplace(n, W);
      } else if (cmd == "conversion") {
        auto& net_ = require_network(line_no);
        if (toks.size() == 4 && toks[2] == "full") {
          net_.set_conversion(
              parse_int(toks[1], line_no, "node"),
              net::ConversionTable::full(
                  W, parse_double(toks[3], line_no, "cost")));
        } else if (toks.size() == 5 && toks[2] == "limited") {
          net_.set_conversion(
              parse_int(toks[1], line_no, "node"),
              net::ConversionTable::limited_range(
                  W, parse_int(toks[3], line_no, "range"),
                  parse_double(toks[4], line_no, "cost")));
        } else {
          throw ParseError(line_no, "conversion wants 'full <c>' or "
                                    "'limited <range> <c>'");
        }
      } else if (cmd == "conv") {
        want(5);
        auto& net_ = require_network(line_no);
        const int v = parse_int(toks[1], line_no, "node");
        net::ConversionTable t = net_.conversion(v);
        t.set(parse_int(toks[2], line_no, "from"),
              parse_int(toks[3], line_no, "to"),
              parse_double(toks[4], line_no, "cost"));
        net_.set_conversion(v, std::move(t));
      } else if (cmd == "link") {
        auto& net_ = require_network(line_no);
        if (toks.size() < 5) throw ParseError(line_no, "link is too short");
        const int u = parse_int(toks[1], line_no, "tail");
        const int v = parse_int(toks[2], line_no, "head");
        net::WavelengthSet lambdas = net::WavelengthSet::all(W);
        // Optional trailing "lambdas <list>".
        std::size_t cost_end = toks.size();
        if (toks.size() >= 2 && toks[toks.size() - 2] == "lambdas") {
          lambdas = net::WavelengthSet{};
          for (int l : parse_int_list(toks.back(), line_no, "lambda")) {
            if (l < 0 || l >= W) {
              throw ParseError(line_no, "lambda out of range");
            }
            lambdas.insert(l);
          }
          cost_end = toks.size() - 2;
        }
        if (toks[3] == "cost" && cost_end == 5) {
          net_.add_link(u, v, lambdas,
                        parse_double(toks[4], line_no, "cost"));
        } else if (toks[3] == "costs" && cost_end == 5) {
          const auto costs = parse_double_list(toks[4], line_no, "costs");
          if (costs.size() != static_cast<std::size_t>(W)) {
            throw ParseError(line_no, "costs list must have W entries");
          }
          net_.add_link(u, v, lambdas, costs);
        } else {
          throw ParseError(line_no, "link wants 'cost <c>' or 'costs <list>'");
        }
      } else if (cmd == "srlg") {
        want(4);
        auto& net_ = require_network(line_no);
        const int id = parse_int(toks[1], line_no, "srlg id");
        if (id < net_.num_srlgs()) {
          throw ParseError(line_no, "duplicate srlg id " + std::to_string(id));
        }
        if (id != net_.num_srlgs()) {
          throw ParseError(line_no,
                           "srlg ids must be dense and in order; expected " +
                               std::to_string(net_.num_srlgs()));
        }
        const double p = parse_double(toks[2], line_no, "failure probability");
        if (p < 0.0 || p > 1.0) {
          throw ParseError(line_no, "srlg failure probability outside [0, 1]");
        }
        std::vector<graph::EdgeId> members;
        for (int e : parse_int_list(toks[3], line_no, "srlg link")) {
          if (e < 0 || e >= net_.num_links()) {
            throw ParseError(line_no, "srlg link index out of range");
          }
          members.push_back(e);
        }
        net_.add_srlg(std::move(members), p);
      } else if (cmd == "reserve") {
        want(3);
        auto& net_ = require_network(line_no);
        const int e = parse_int(toks[1], line_no, "link index");
        if (e < 0 || e >= net_.num_links()) {
          throw ParseError(line_no, "link index out of range");
        }
        net_.reserve(e, parse_int(toks[2], line_no, "lambda"));
      } else if (cmd == "failed") {
        want(2);
        auto& net_ = require_network(line_no);
        const int e = parse_int(toks[1], line_no, "link index");
        if (e < 0 || e >= net_.num_links()) {
          throw ParseError(line_no, "link index out of range");
        }
        failed.push_back(e);
      } else {
        throw ParseError(line_no, "unknown directive '" + cmd + "'");
      }
    } catch (const ParseError&) {
      throw;
    } catch (const std::logic_error& err) {
      // Model-level rejection (bad endpoints, double reserve, ...).
      throw ParseError(line_no, err.what());
    }
  }
  if (!network) throw ParseError(line_no, "missing 'network' header");
  for (graph::EdgeId e : failed) network->set_link_failed(e, true);
  return std::move(*network);
}

net::WdmNetwork read_network(const std::string& text) {
  std::istringstream in(text);
  return read_network(in);
}

net::WdmNetwork read_network_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError(path, 0, "cannot open file");
  try {
    return read_network(in);
  } catch (const ParseError& err) {
    throw ParseError(path, err.line(), err.message());
  }
}

}  // namespace wdm::io
