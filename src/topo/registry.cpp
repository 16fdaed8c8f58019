#include "topo/registry.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/expansion.hpp"
#include "core/layout.hpp"
#include "topo/brown.hpp"
#include "topo/dragonfly.hpp"
#include "topo/hyperx.hpp"
#include "topo/jellyfish.hpp"
#include "topo/moore_graphs.hpp"
#include "topo/slimfly.hpp"
#include "topo/torus.hpp"

namespace pf::topo {
namespace {

/// `value` of parameter `key`, checked to lie in [0, T's maximum] before
/// the caller narrows it: a spec string carries int64, and an unchecked
/// cast builds another topology (pf:q=4294967303 wraps to ER_7).
template <typename T>
T narrow(std::int64_t value, const std::string& key,
         const std::string& family) {
  if (value < 0 || !std::in_range<T>(value)) {
    throw std::invalid_argument(
        "topology " + family + ": parameter " + key + "=" +
        std::to_string(value) + " is out of range [0, " +
        std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  return static_cast<T>(value);
}

/// The parameters of one make_topology call. need and get_or record
/// each key a family reads, so refuse_unread can name any key the family
/// does not take: the list lives in the reads themselves.
class FamilyParams {
 public:
  FamilyParams(const TopologyParams& params, const std::string& family)
      : params_(params), family_(family) {}

  int need(const std::string& key) {
    read_.push_back(key);
    const auto it = params_.find(key);
    if (it == params_.end()) {
      throw std::invalid_argument("topology " + family_ +
                                  " needs parameter --" + key);
    }
    return narrow<int>(it->second, key, family_);
  }

  template <typename T = int>
  T get_or(const std::string& key, T fallback) {
    read_.push_back(key);
    const auto it = params_.find(key);
    return it == params_.end() ? fallback
                               : narrow<T>(it->second, key, family_);
  }

  void refuse_unread() const {
    for (const auto& [key, value] : params_) {
      if (std::find(read_.begin(), read_.end(), key) != read_.end()) continue;
      std::string takes;
      for (const std::string& known : read_) {
        takes += (takes.empty() ? "" : ", ") + known;
      }
      throw std::invalid_argument(
          "topology " + family_ + ": unknown parameter " + key + "=" +
          std::to_string(value) + " (" + family_ + " takes " +
          (takes.empty() ? std::string("no parameters") : takes) + ")");
    }
  }

 private:
  const TopologyParams& params_;
  const std::string& family_;
  std::vector<std::string> read_;
};

}  // namespace

int TopologyInstance::default_concentration() const {
  if (fattree) return fattree->arity();
  return std::max(1, (radix + 1) / 2);
}

std::vector<int> TopologyInstance::endpoints(int p) const {
  std::vector<int> counts(static_cast<std::size_t>(graph.num_vertices()), 0);
  if (fattree) {
    for (int leaf = 0; leaf < fattree->switches_per_level(); ++leaf) {
      counts[static_cast<std::size_t>(fattree->switch_id(0, leaf))] = p;
    }
  } else {
    counts.assign(counts.size(), p);
  }
  return counts;
}

TopologyInstance make_topology(const std::string& family_name,
                               const TopologyParams& params) {
  TopologyInstance inst;
  inst.family = canonical_family(family_name);
  const std::string& family = inst.family;
  FamilyParams args(params, family);

  if (family == "polarfly") {
    const auto q = static_cast<std::uint32_t>(args.need("q"));
    auto pf = std::make_shared<core::PolarFly>(q);
    inst.label = "PolarFly ER_" + std::to_string(q);
    inst.graph = pf->graph();
    inst.radix = pf->radix();
    inst.polarfly = std::move(pf);
  } else if (family == "polarfly-exp") {
    // Incrementally expanded ER_q (SS VI / Fig. 11): `n` replicated
    // clusters, quadric=1 for quadric-cluster replication (diameter
    // stays 2), quadric=0 for fan-cluster replication (diameter 3).
    const auto q = static_cast<std::uint32_t>(args.need("q"));
    const int n = args.need("n");
    const bool quadric = args.get_or("quadric", 0) != 0;
    const core::PolarFly pf(q);
    const core::Layout layout = core::make_layout(pf);
    const auto expanded = quadric ? core::expand_quadric(pf, layout, n)
                                  : core::expand_nonquadric(pf, layout, n);
    inst.label = "PolarFly ER_" + std::to_string(q) + "+" +
                 std::to_string(n) + (quadric ? "q" : "f");
    inst.graph = expanded.graph;
    inst.radix = inst.graph.max_degree();
  } else if (family == "slimfly") {
    const auto q = static_cast<std::uint32_t>(args.need("q"));
    const SlimFly sf(q);
    inst.label = "SlimFly MMS(" + std::to_string(q) + ")";
    inst.graph = sf.graph();
    inst.radix = sf.radix();
  } else if (family == "dragonfly") {
    const int a = args.need("a");
    const int h = args.need("h");
    const int p = args.get_or("p", (h + 1) / 2 + 1);
    const Dragonfly df(a, h, p);
    inst.label = "Dragonfly(" + std::to_string(a) + "," + std::to_string(h) +
                 "," + std::to_string(p) + ")";
    inst.graph = df.graph();
    inst.radix = df.radix();
  } else if (family == "fattree") {
    const int levels = args.get_or("levels", 3);
    const int arity = args.need("arity");
    auto ft = std::make_shared<FatTree>(levels, arity);
    inst.label = std::to_string(levels) + "-level fat tree (k=" +
                 std::to_string(arity) + ")";
    inst.graph = ft->graph();
    inst.radix = ft->radix();
    inst.fattree = std::move(ft);
  } else if (family == "jellyfish") {
    const int n = args.need("n");
    const int k = args.need("k");
    const auto seed = static_cast<std::uint64_t>(
        args.get_or<std::int64_t>("seed", 0xf15e));
    const Jellyfish jf(n, k, seed);
    inst.label = "Jellyfish(" + std::to_string(n) + "," + std::to_string(k) +
                 ")";
    inst.graph = jf.graph();
    inst.radix = jf.radix();
  } else if (family == "hyperx") {
    const int a = args.need("a");
    const int b = args.get_or("b", a);
    const HyperX hx(a, b);
    inst.label = "HyperX K" + std::to_string(a) + "xK" + std::to_string(b);
    inst.graph = hx.graph();
    inst.radix = hx.radix();
  } else if (family == "torus") {
    const int k = args.need("k");
    const int d = args.need("d");
    const Torus torus(k, d);
    inst.label = std::to_string(k) + "-ary " + std::to_string(d) + "-torus";
    inst.graph = torus.graph();
    inst.radix = torus.radix();
  } else if (family == "hypercube") {
    const int d = args.need("d");
    const Hypercube cube(d);
    inst.label = std::to_string(d) + "-cube";
    inst.graph = cube.graph();
    inst.radix = cube.radix();
  } else if (family == "brown") {
    const auto q = static_cast<std::uint32_t>(args.need("q"));
    const BrownIncidence brown(q);
    inst.label = "Brown incidence B(" + std::to_string(q) + ")";
    inst.graph = brown.graph();
    inst.radix = brown.radix();
  } else if (family == "petersen") {
    inst.label = "Petersen";
    inst.graph = petersen_graph();
    inst.radix = 3;
  } else if (family == "hoffman-singleton") {
    inst.label = "Hoffman-Singleton";
    inst.graph = hoffman_singleton_graph();
    inst.radix = 7;
  } else {
    throw std::invalid_argument("unknown topology family '" + family_name +
                                "' (see `pf_topo families`)");
  }
  args.refuse_unread();
  return inst;
}

std::string canonical_family(const std::string& family) {
  if (family == "pf") return "polarfly";
  if (family == "pfx") return "polarfly-exp";
  if (family == "sf") return "slimfly";
  if (family == "df") return "dragonfly";
  if (family == "ft") return "fattree";
  if (family == "jf") return "jellyfish";
  if (family == "hs") return "hoffman-singleton";
  return family;
}

TopologySpec parse_topology_spec(const std::string& spec) {
  TopologySpec parsed;
  const auto colon = spec.find(':');
  parsed.family = canonical_family(
      colon == std::string::npos ? spec : spec.substr(0, colon));
  if (colon == std::string::npos) return parsed;

  const std::string rest = spec.substr(colon + 1);
  std::size_t pos = 0;
  while (pos < rest.size()) {
    const auto comma = rest.find(',', pos);
    const std::string item =
        rest.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    const auto eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("topology spec '" + spec +
                                  "': expected key=value, got '" + item +
                                  "'");
    }
    std::int64_t value = 0;
    try {
      std::size_t used = 0;
      value = std::stoll(item.substr(eq + 1), &used);
      if (used != item.size() - eq - 1) throw std::invalid_argument(item);
    } catch (const std::exception&) {
      throw std::invalid_argument("topology spec '" + spec +
                                  "': parameter '" + item +
                                  "' is not an integer");
    }
    const std::string key = item.substr(0, eq);
    if (!parsed.params.emplace(key, value).second) {
      throw std::invalid_argument("topology " + parsed.family + ": spec '" +
                                  spec + "' has duplicate parameter " + key);
    }
    pos = comma == std::string::npos ? rest.size() : comma + 1;
  }
  return parsed;
}

std::string canonical_spec(const TopologySpec& spec) {
  // TopologyParams is a std::map, so iteration is already key-sorted.
  std::string key = canonical_family(spec.family);
  char sep = ':';
  for (const auto& [k, v] : spec.params) {
    key += sep;
    key += k + "=" + std::to_string(v);
    sep = ',';
  }
  return key;
}

int extract_endpoints(TopologySpec& spec) {
  const auto it = spec.params.find("p");
  if (it == spec.params.end()) return -1;
  const std::string family = canonical_family(spec.family);
  const int p = narrow<int>(it->second, "p", family);
  if (family != "dragonfly") spec.params.erase(it);
  return p;
}

TopologyInstance make_topology(const std::string& spec) {
  TopologySpec parsed = parse_topology_spec(spec);
  extract_endpoints(parsed);  // bare specs: p= is not structural
  return make_topology(parsed.family, parsed.params);
}

std::string topology_usage() {
  return
      "  polarfly --q Q            ER_q, N=q^2+q+1, radix q+1, diameter 2\n"
      "  polarfly-exp --q Q --n N [--quadric 1]  ER_q with N replicated\n"
      "                            clusters (SS VI incremental expansion)\n"
      "  slimfly --q Q             MMS graph, N=2q^2, radix (3q-delta)/2\n"
      "  dragonfly --a A --h H [--p P]   a(ah+1) routers, 1 global link/pair\n"
      "  fattree --arity K [--levels L]  k-ary n-tree, L*K^(L-1) switches\n"
      "  jellyfish --n N --k K [--seed S]  random K-regular on N switches\n"
      "  hyperx --a A [--b B]      K_a x K_b, diameter 2\n"
      "  torus --k K --d D         k-ary d-cube\n"
      "  hypercube --d D           binary d-cube\n"
      "  brown --q Q               PG(2,q) incidence graph, N=2(q^2+q+1)\n"
      "  petersen                  Moore graph, k=3, N=10\n"
      "  hoffman-singleton         Moore graph, k=7, N=50\n";
}

}  // namespace pf::topo
