// Topology registry: every family constructs, parameters are validated,
// instances carry their structured handles.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "graph/algos.hpp"
#include "topo/registry.hpp"

namespace {

using pf::topo::make_topology;
using pf::topo::TopologyParams;

TEST(Registry, PolarFlyCarriesHandle) {
  const auto inst = make_topology("polarfly", {{"q", 7}});
  EXPECT_EQ(inst.graph.num_vertices(), 57);
  EXPECT_EQ(inst.radix, 8);
  ASSERT_NE(inst.polarfly, nullptr);
  EXPECT_EQ(inst.polarfly->q(), 7u);
  EXPECT_EQ(inst.family, "polarfly");
  // Alias.
  EXPECT_EQ(make_topology("pf", {{"q", 7}}).graph.num_vertices(), 57);
}

TEST(Registry, AllFamiliesConstruct) {
  const std::vector<std::pair<std::string, TopologyParams>> cases = {
      {"slimfly", {{"q", 5}}},
      {"dragonfly", {{"a", 4}, {"h", 2}, {"p", 2}}},
      {"fattree", {{"levels", 3}, {"arity", 4}}},
      {"jellyfish", {{"n", 30}, {"k", 4}, {"seed", 9}}},
      {"hyperx", {{"a", 5}}},
      {"torus", {{"k", 4}, {"d", 2}}},
      {"hypercube", {{"d", 5}}},
      {"brown", {{"q", 5}}},
      {"petersen", {}},
      {"hoffman-singleton", {}},
  };
  for (const auto& [family, params] : cases) {
    const auto inst = make_topology(family, params);
    EXPECT_GT(inst.graph.num_vertices(), 0) << family;
    EXPECT_GT(inst.radix, 0) << family;
    EXPECT_FALSE(inst.label.empty()) << family;
    EXPECT_TRUE(pf::graph::is_connected(inst.graph)) << family;
  }
}

TEST(Registry, FatTreeEndpoints) {
  const auto inst = make_topology("fattree", {{"arity", 4}});
  ASSERT_NE(inst.fattree, nullptr);
  EXPECT_EQ(inst.default_concentration(), 4);
  const auto endpoints = inst.endpoints(4);
  int terminals = 0;
  for (std::size_t v = 0; v < endpoints.size(); ++v) {
    terminals += endpoints[v];
    if (endpoints[v] > 0) {
      EXPECT_EQ(inst.fattree->level_of(static_cast<int>(v)), 0);
    }
  }
  EXPECT_EQ(terminals, 4 * inst.fattree->switches_per_level());
}

TEST(Registry, DirectTopologyEndpoints) {
  const auto inst = make_topology("polarfly", {{"q", 5}});
  EXPECT_EQ(inst.default_concentration(), 3);  // (radix+1)/2
  const auto endpoints = inst.endpoints(3);
  for (const int count : endpoints) EXPECT_EQ(count, 3);
}

TEST(Registry, Errors) {
  EXPECT_THROW(make_topology("nosuch", {}), std::invalid_argument);
  EXPECT_THROW(make_topology("polarfly", {}), std::invalid_argument);
  EXPECT_THROW(make_topology("dragonfly", {{"a", 4}}),
               std::invalid_argument);
  EXPECT_THROW(make_topology("polarfly", {{"q", 6}}),
               std::invalid_argument);
}

/// The message make_topology(spec) throws, or "" when it builds.
std::string spec_error(const std::string& spec) {
  try {
    make_topology(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Registry, SpecParametersAreRangeChecked) {
  // A spec value that would wrap when narrowed is refused, naming the
  // family and key: q=4294967303 is 2^32 + 7, which a bare uint32 cast
  // turned into ER_7.
  EXPECT_EQ(spec_error("pf:q=4294967303"),
            "topology polarfly: parameter q=4294967303 is out of range "
            "[0, 2147483647]");
  EXPECT_EQ(spec_error("pf:q=7,p=4294967297"),
            "topology polarfly: parameter p=4294967297 is out of range "
            "[0, 2147483647]");
  EXPECT_NE(spec_error("df:a=4,h=2,p=-1").find("dragonfly: parameter p=-1"),
            std::string::npos);
  EXPECT_NE(spec_error("pfx:q=5,n=1,quadric=8589934593")
                .find("polarfly-exp: parameter quadric="),
            std::string::npos);
  EXPECT_NE(spec_error("hyperx:a=3,b=-4294967293")
                .find("hyperx: parameter b="),
            std::string::npos);
  EXPECT_NE(spec_error("jf:n=20,k=4,seed=-1").find("jellyfish: parameter seed"),
            std::string::npos);
  // In range: the same families still build.
  EXPECT_EQ(spec_error("pf:q=7,p=4"), "");
  EXPECT_EQ(spec_error("jf:n=20,k=4,seed=9223372036854775807"), "");
}

TEST(Registry, SpecRefusesUnknownAndRepeatedParameters) {
  // Each family takes exactly the parameters it reads: a typo or a key
  // of another family is refused, naming the family and the key, and
  // so is a key given twice (pf:q=5,q=7 used to build ER_7).
  EXPECT_EQ(spec_error("pf:q=5,p=3,bogus=4"),
            "topology polarfly: unknown parameter bogus=4 (polarfly takes q)");
  EXPECT_EQ(spec_error("petersen:q=3"),
            "topology petersen: unknown parameter q=3 (petersen takes no "
            "parameters)");
  EXPECT_EQ(spec_error("sf:q=5,h=2"),
            "topology slimfly: unknown parameter h=2 (slimfly takes q)");
  EXPECT_EQ(spec_error("pf:q=5,q=7,p=3"),
            "topology polarfly: spec 'pf:q=5,q=7,p=3' has duplicate "
            "parameter q");
  EXPECT_EQ(spec_error("df:a=4,h=2,p=2,p=3"),
            "topology dragonfly: spec 'df:a=4,h=2,p=2,p=3' has duplicate "
            "parameter p");
  EXPECT_THROW(make_topology("pf", {{"q", 5}, {"n", 2}}),
               std::invalid_argument);
  // Every optional parameter is still taken by its family.
  EXPECT_EQ(spec_error("df:a=4,h=2,p=2"), "");
  EXPECT_EQ(spec_error("ft:levels=2,arity=4,p=2"), "");
  EXPECT_EQ(spec_error("pfx:q=5,n=1,quadric=1,p=3"), "");
  EXPECT_EQ(spec_error("jf:n=20,k=4,seed=3,p=2"), "");
  EXPECT_EQ(spec_error("hyperx:a=3,b=4"), "");
}

TEST(Registry, UsageListsEveryFamily) {
  const std::string usage = pf::topo::topology_usage();
  for (const char* family :
       {"polarfly", "slimfly", "dragonfly", "fattree", "jellyfish",
        "hyperx", "torus", "hypercube", "brown", "petersen",
        "hoffman-singleton"}) {
    EXPECT_NE(usage.find(family), std::string::npos) << family;
  }
}

}  // namespace
