// Wall-clock benchmark of the shipped ScalaPart build (see README.md).
//
// The benchmark only calls the library's public entry points and reads what
// they already return or expose; it never changes src/. Three pieces:
//  - workloads.cpp: the workload table and the input generator (a METIS
//    file, plus a coordinate file for the partition-only workload);
//  - measure.cpp: the timed call loop with its correctness gate, the
//    traced run and its per-layer metrics, and the benchmark's own spans;
//  - main.cpp: the command line.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "exec/executor.hpp"
#include "obs/json.hpp"

namespace wb {

struct Workload {
  std::string name;
  std::string suite_graph;  // core::make_suite_graph name
  double scale = 0.0;       // full size
  double tiny_scale = 0.0;  // smoke-test size
  /// sp_pg7nl_partition on generator coordinates instead of the full
  /// scalapart_partition pipeline.
  bool partition_only = false;
  std::uint32_t nranks = 4;
  std::uint32_t tiny_nranks = 4;
  sp::exec::Backend backend = sp::exec::Backend::kFiber;
  std::uint32_t threads = 0;
  /// Timed reads of the METIS file before each call (setup_s is the
  /// median over the run).
  std::uint32_t reads = 1;
  /// Allreduce rounds per BspEngine::run in the comm.allreduce_us loop.
  std::uint32_t allreduce_rounds = 1000;
  /// Pipeline stage the workload is built to be dominated by ("" = none):
  /// the traced run reports whether its wall is most of the call's.
  std::string dominant_stage;
};

/// Throws std::invalid_argument for an unknown name.
const Workload& find_workload(std::string_view name);

struct Size {
  bool tiny = false;
  double scale(const Workload& w) const { return tiny ? w.tiny_scale : w.scale; }
  std::uint32_t nranks(const Workload& w) const {
    return tiny ? w.tiny_nranks : w.nranks;
  }
};

/// What defines the input of (w, size, seed): the suite graph, its scale,
/// the seed and whether coordinates are written. run.py reuses a cached
/// input only when these match the ones it was generated with.
sp::obs::JsonValue input_params(const Workload& w, Size size, std::uint64_t seed);

/// Writes <dir>/graph.metis (and <dir>/coords.txt for partition-only
/// workloads) generated from `seed`; returns a JSON summary that includes
/// input_params as "params".
sp::obs::JsonValue generate(const Workload& w, Size size, std::uint64_t seed,
                            const std::string& dir);

struct RunArgs {
  std::string graph_path;
  std::string coords_path;  // partition-only workloads
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace of the benchmark's spans
};

/// Runs one workload and returns the result object: correct / attempted /
/// failed / metrics, plus "detail" and "build" sections.
sp::obs::JsonValue run(const Workload& w, Size size, const RunArgs& args);

/// Compile-time build configuration of this binary (compiler, build type,
/// SP_* feature flags).
sp::obs::JsonValue build_info();

}  // namespace wb
