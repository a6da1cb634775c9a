#include "stream/pipeline.hpp"

#include <cstddef>
#include <span>

#include "comm/engine.hpp"
#include "obs/span.hpp"

namespace sp::stream {
namespace {

// Comm-like Observable for obs spans emitted by the host-side stream
// pipeline: lane 0, a deterministic item-count clock (never wall time —
// tools/lint_nondeterminism.py bans wall clocks here; throughput is
// measured by the bench, outside the subsystem), and an empty cost
// snapshot (no modeled communication happens on the stream path).
struct StreamClock {
  std::uint64_t items = 0;

  std::uint32_t world_rank() const { return 0; }
  double clock() const { return static_cast<double>(items) * 1e-9; }
  comm::CostSnapshot cost_snapshot() const { return comm::CostSnapshot{}; }
};

PipelineOptions pipeline_options(const StreamRunOptions& opt) {
  PipelineOptions p;
  p.workers = opt.workers;
  p.queue_capacity = opt.queue_capacity;
  return p;
}

SourceOptions source_options(const StreamRunOptions& opt) {
  SourceOptions s;
  s.chunk_size = opt.chunk_size;
  s.order_seed = opt.order_seed;
  return s;
}

void finish_run(StreamPartitioner& part, OnlineAssignment* online,
                StreamRunResult& result) {
  part.finish();
  if (online != nullptr) online->seal();
  result.fingerprint = assignment_fingerprint(result.assignments);
  obs::count("stream/items", static_cast<double>(result.assignments.size()));
  obs::gauge("stream/replication_factor", part.replication_factor());
}

}  // namespace

StreamRunResult run_edge_stream(const graph::CsrGraph& g,
                                StreamPartitioner& part,
                                const StreamRunOptions& opt,
                                OnlineAssignment* online) {
  SP_ASSERT(part.mode() == StreamMode::kEdge);
  CsrEdgeSource source(g, source_options(opt));

  StreamRunResult result;
  result.assignments.reserve(source.total_edges());
  StreamClock clk;

  auto prep = [&part](EdgeChunk& c) {
    for (StreamEdge& e : c.edges) {
      e.uhash = part.seeded_hash(e.u);
      e.vhash = part.seeded_hash(e.v);
    }
  };
  auto consume = [&](EdgeChunk& c) {
    obs::Span<StreamClock> span(clk, "stream_chunk", "stream",
                                static_cast<std::int32_t>(c.index));
    for (const StreamEdge& e : c.edges) {
      const BlockId b = part.assign(e);
      result.assignments.push_back(b);
      if (online != nullptr) online->record_edge(e.u, e.v, b);
    }
    clk.items += c.edges.size();
    obs::count("stream/chunks");
    obs::count("stream/edges", static_cast<double>(c.edges.size()));
  };

  result.stats =
      run_pipeline<EdgeChunk>(source, prep, consume, pipeline_options(opt));
  finish_run(part, online, result);
  return result;
}

StreamRunResult run_vertex_stream(const graph::CsrGraph& g,
                                  StreamPartitioner& part,
                                  const StreamRunOptions& opt,
                                  OnlineAssignment* online) {
  SP_ASSERT(part.mode() == StreamMode::kVertex);
  CsrVertexSource source(g, source_options(opt));

  StreamRunResult result;
  result.assignments.reserve(source.total_vertices());
  StreamClock clk;

  auto prep = [&source](VertexChunk& c) { source.materialize(c); };
  auto consume = [&](VertexChunk& c) {
    obs::Span<StreamClock> span(clk, "stream_chunk", "stream",
                                static_cast<std::int32_t>(c.index));
    for (std::size_t i = 0; i < c.vertices.size(); ++i) {
      const VertexId v = c.vertices[i];
      const std::span<const VertexId> nbrs{
          c.neighbors.data() + c.offsets[i],
          static_cast<std::size_t>(c.offsets[i + 1] - c.offsets[i])};
      const BlockId b = part.assign(v, nbrs);
      result.assignments.push_back(b);
      if (online != nullptr) online->record_vertex(v, b);
    }
    clk.items += c.vertices.size();
    obs::count("stream/chunks");
    obs::count("stream/vertices", static_cast<double>(c.vertices.size()));
  };

  result.stats =
      run_pipeline<VertexChunk>(source, prep, consume, pipeline_options(opt));
  finish_run(part, online, result);
  return result;
}

}  // namespace sp::stream
