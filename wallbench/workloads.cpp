// The benchmark's workloads and their input generator. Why each workload
// exists is recorded in README.md and BENCHMARK.json.
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "core/testsuite.hpp"
#include "graph/graph_io.hpp"
#include "wallbench.hpp"

namespace wb {

namespace {

std::vector<Workload> make_table() {
  using sp::exec::Backend;
  std::vector<Workload> t;
  {
    Workload w;
    w.name = "embed_bulk";
    w.suite_graph = "hugebubbles-00020";
    w.scale = 0.002;
    w.tiny_scale = 0.0002;
    w.nranks = 4;
    w.tiny_nranks = 4;
    w.backend = Backend::kThreads;
    w.threads = 4;
    w.reads = 3;
    w.allreduce_rounds = 2000;
    w.dominant_stage = "embed";
    t.push_back(w);
  }
  {
    Workload w;
    w.name = "many_ranks";
    w.suite_graph = "kkt_power";
    w.scale = 0.01;
    w.tiny_scale = 0.001;
    w.nranks = 1024;
    w.tiny_nranks = 64;
    w.backend = Backend::kFiber;
    w.reads = 5;
    w.allreduce_rounds = 20;
    t.push_back(w);
  }
  {
    Workload w;
    w.name = "repartition";
    w.suite_graph = "hugebubbles-00020";
    w.scale = 0.02;
    w.tiny_scale = 0.001;
    w.partition_only = true;
    w.nranks = 4;
    w.tiny_nranks = 4;
    w.backend = Backend::kProcess;
    w.reads = 1;
    w.allreduce_rounds = 500;
    w.dominant_stage = "partition";
    t.push_back(w);
  }
  return t;
}

/// Drops degree-0 vertices (and their coordinates). The suite generators
/// occasionally leave one, which no real mesh of these classes has, and
/// graph::io::read_metis cannot read one back: it skips the empty
/// adjacency line and reports a truncated file (see README.md).
std::size_t drop_isolated(sp::graph::gen::GeneratedGraph& gen) {
  const auto& g = gen.graph;
  std::vector<sp::graph::VertexId> keep;
  for (sp::graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > 0) keep.push_back(v);
  }
  const std::size_t dropped = g.num_vertices() - keep.size();
  if (dropped == 0) return 0;
  if (!gen.coords.empty()) {
    std::vector<sp::geom::Vec2> coords;
    for (sp::graph::VertexId v : keep) coords.push_back(gen.coords[v]);
    gen.coords = std::move(coords);
  }
  gen.graph = sp::graph::induced_subgraph(g, keep);
  return dropped;
}

}  // namespace

const Workload& find_workload(std::string_view name) {
  static const std::vector<Workload> table = make_table();
  for (const Workload& w : table) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

sp::obs::JsonValue input_params(const Workload& w, Size size, std::uint64_t seed) {
  sp::obs::JsonValue p = sp::obs::JsonValue::object();
  p["workload"] = w.name;
  p["suite_graph"] = w.suite_graph;
  p["scale"] = size.scale(w);
  p["seed"] = static_cast<unsigned long long>(seed);
  p["coords"] = w.partition_only;
  return p;
}

sp::obs::JsonValue generate(const Workload& w, Size size, std::uint64_t seed,
                            const std::string& dir) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  auto gen = sp::core::make_suite_graph(w.suite_graph, size.scale(w), seed);
  const std::size_t dropped = drop_isolated(gen);
  const std::string graph_path = (fs::path(dir) / "graph.metis").string();
  sp::graph::io::write_metis_file(gen.graph, graph_path);
  sp::obs::JsonValue out = sp::obs::JsonValue::object();
  out["params"] = input_params(w, size, seed);
  out["graph"] = graph_path;
  out["vertices"] = static_cast<unsigned long long>(gen.graph.num_vertices());
  out["arcs"] = static_cast<unsigned long long>(gen.graph.num_arcs());
  out["graph_bytes"] = static_cast<unsigned long long>(fs::file_size(graph_path));
  out["isolated_dropped"] = static_cast<unsigned long long>(dropped);
  if (w.partition_only) {
    if (gen.coords.size() != gen.graph.num_vertices()) {
      throw std::runtime_error(w.suite_graph + " has no generator coordinates");
    }
    const std::string coords_path = (fs::path(dir) / "coords.txt").string();
    std::ofstream os(coords_path);
    os.precision(17);  // round-trip the generator's doubles exactly
    sp::graph::io::write_coords(gen.coords, os);
    if (!os.flush()) throw std::runtime_error("cannot write " + coords_path);
    out["coords"] = coords_path;
  }
  return out;
}

}  // namespace wb
