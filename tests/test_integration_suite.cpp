// Integration sweep: every partitioner against every paper-suite graph
// class, checking the invariants a user relies on (balance within
// tolerance, cut far below random, assembled results consistent).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/scalapart.hpp"
#include "core/testsuite.hpp"
#include "partition/geometric_mesh.hpp"
#include "partition/multilevel_kl.hpp"
#include "partition/rcb.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"

namespace sp {
namespace {

using graph::Bipartition;
using graph::VertexId;
using graph::Weight;

// gtest names each case by a byte dump of its param, so the names are
// fixed-size, zero-filled fields: std::string members dumped heap
// pointers and stale bytes, and renamed the cases from one test-binary
// run to the next.
using Name = std::array<char, 32>;

Name name_of(std::string_view s) {
  Name n{};
  SP_ASSERT(s.size() < n.size());
  std::copy(s.begin(), s.end(), n.begin());
  return n;
}

struct Case {
  Name graph;
  Name method;
};
static_assert(std::has_unique_object_representations_v<Case>);

class SuiteSweep : public ::testing::TestWithParam<Case> {};

Weight random_cut_estimate(const graph::CsrGraph& g) {
  // A random balanced split cuts ~half the edges.
  return static_cast<Weight>(g.num_edges() / 2);
}

TEST_P(SuiteSweep, BalancedAndStructureAware) {
  const std::string name = GetParam().graph.data();
  const std::string method = GetParam().method.data();
  auto g = core::make_suite_graph(name, 0.0008, 3);
  Bipartition part;
  double max_imbalance = 0.06;

  if (method == "ptscotch" || method == "parmetis") {
    partition::MultilevelKLOptions opt;
    opt.preset = method == "ptscotch" ? partition::MlPreset::kPtScotchLike
                                      : partition::MlPreset::kParMetisLike;
    part = partition::multilevel_partition(g.graph, opt).part;
  } else if (method == "g30") {
    part = partition::geometric_mesh_partition(
               g.graph, g.coords, partition::GeometricMeshOptions::g30())
               .part;
  } else if (method == "rcb") {
    part = partition::rcb_partition(g.graph, g.coords).part;
    max_imbalance = 0.02;  // exact weighted median
  } else if (method == "scalapart") {
    core::ScalaPartOptions opt;
    opt.nranks = 4;
    part = core::scalapart_partition(g.graph, opt).part;
  }

  ASSERT_EQ(part.size(), g.graph.num_vertices());
  EXPECT_LE(imbalance(g.graph, part), max_imbalance) << name << "/" << method;
  Weight cut = cut_size(g.graph, part);
  EXPECT_GT(cut, 0) << name << "/" << method;
  // Structure-aware: every method must beat a random split comfortably.
  // kkt_power's hubs make large cuts unavoidable, so the margin is modest.
  double factor = name == "kkt_power" ? 1.5 : 3.0;
  EXPECT_LT(static_cast<double>(cut) * factor,
            static_cast<double>(random_cut_estimate(g.graph)))
      << name << "/" << method << " cut=" << cut;
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const auto& entry : core::paper_suite()) {
    for (const char* method :
         {"ptscotch", "parmetis", "g30", "rcb", "scalapart"}) {
      cases.push_back({name_of(entry.name), name_of(method)});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphsAllMethods, SuiteSweep, ::testing::ValuesIn(all_cases()),
    [](const auto& info) {
      std::string label = std::string(info.param.graph.data()) + "_" +
                          info.param.method.data();
      for (char& c : label) {
        if (c == '-') c = '_';
      }
      return label;
    });

}  // namespace
}  // namespace sp
