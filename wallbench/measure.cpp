// Timed calls, the per-call correctness gate, the traced run and the
// benchmark's own spans. Every layer is measured from outside: by timing
// calls into public functions and by reading what they return (RunStats,
// the obs::Recorder metrics, the flight recorder's wall profile).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "analysis/determinism.hpp"
#include "analysis/invariants.hpp"
#include "comm/engine.hpp"
#include "core/scalapart.hpp"
#include "graph/graph_io.hpp"
#include "graph/partition.hpp"
#include "obs/flight.hpp"
#include "obs/recorder.hpp"
#include "wallbench.hpp"

namespace wb {

namespace {

using sp::obs::JsonValue;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  double pages_total = 0.0;
  double pages_resident = 0.0;
  statm >> pages_total >> pages_resident;
  return pages_resident * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// ---- The benchmark's own spans (kept in memory, written at the end) ----

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  /// Opens a span under the innermost open one. `call` groups every span
  /// of one public call (-1 = inherit the parent's).
  int begin(std::string name, int call = -1) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    if (call < 0 && parent >= 0) call = spans_[parent].call;
    spans_.push_back({std::move(name), now_us_(), 0.0, parent, call});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans_[id].end_us = now_us_();
    stack_.pop_back();
  }
  int next_call() { return next_call_++; }

  void write_chrome(const std::string& path) const {
    JsonValue events = JsonValue::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonValue e = JsonValue::object();
      e["name"] = s.name;
      e["ph"] = "X";
      e["ts"] = s.start_us;
      e["dur"] = s.end_us - s.start_us;
      e["pid"] = 1;
      e["tid"] = 1;
      JsonValue& a = e["args"];
      a["id"] = static_cast<int>(i);
      a["parent"] = s.parent;
      a["call"] = s.call;
      events.push(std::move(e));
    }
    JsonValue doc = JsonValue::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    std::ofstream os(path);
    os << doc.dump() << '\n';
    if (!os.flush()) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;
    int call;
  };
  double now_us_() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int next_call_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, int call = -1)
      : t_(t), id_(t.begin(std::move(name), call)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ---- One workload's calls and their gate ----

struct Call {
  bool ok = false;
  double wall = 0.0;
  sp::core::ScalaPartResult r;
};

/// The pipeline's own final checkpoint validates partitions at this
/// imbalance (core/scalapart.cpp): structural sanity, not the quality
/// target epsilon.
constexpr double kImbalanceBound = 0.35;

class Bench {
 public:
  Bench(const Workload& w, Size size, const RunArgs& args)
      : w_(w), args_(args), tracer_(args.trace) {
    opt_.nranks = size.nranks(w);
    opt_.backend = w.backend;
    opt_.threads = w.threads;
  }

  Tracer& tracer() { return tracer_; }
  const sp::core::ScalaPartOptions& options() const { return opt_; }
  const sp::graph::CsrGraph& graph() const { return g_; }

  /// Reads the METIS file `w.reads` times, appending each read's wall to
  /// `walls`; the coordinate file (partition-only workloads) once.
  void read_graph(std::vector<double>& walls) {
    ScopedSpan s(tracer_, "setup");
    for (std::uint32_t i = 0; i < w_.reads; ++i) {
      ScopedSpan r(tracer_, "graph::io::read_metis_file", tracer_.next_call());
      const auto t0 = Clock::now();
      g_ = sp::graph::io::read_metis_file(args_.graph_path);
      walls.push_back(seconds_since(t0));
    }
    if (w_.partition_only && coords_.empty()) {
      ScopedSpan r(tracer_, "graph::io::read_coords", tracer_.next_call());
      std::ifstream is(args_.coords_path);
      coords_ = sp::graph::io::read_coords(is);
      if (coords_.size() != g_.num_vertices()) {
        throw std::runtime_error("coordinate file does not match the graph");
      }
    }
  }

  /// One timed, gated call into the workload's public entry point.
  Call call(const sp::core::ScalaPartOptions& opt, const char* tag) {
    Call c;
    ++attempted_;
    ScopedSpan iter(tracer_, tag, tracer_.next_call());
    try {
      {
        ScopedSpan s(tracer_, w_.partition_only ? "core::sp_pg7nl_partition"
                                                : "core::scalapart_partition");
        const auto t0 = Clock::now();
        c.r = w_.partition_only
                  ? sp::core::sp_pg7nl_partition(g_, coords_, opt)
                  : sp::core::scalapart_partition(g_, opt);
        c.wall = seconds_since(t0);
      }
      ScopedSpan s(tracer_, "gate");
      const std::string why = gate_(c.r);
      c.ok = why.empty();
      if (!c.ok) note_failure_(why);
    } catch (const std::exception& e) {
      note_failure_(std::string("threw: ") + e.what());
    }
    return c;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t over_epsilon() const { return over_epsilon_; }
  /// eps_fit of the call that missed epsilon by most (1 when none did).
  double eps_fit() const { return eps_fit_; }
  JsonValue failures() const {
    JsonValue a = JsonValue::array();
    for (const auto& f : failures_) a.push(f);
    return a;
  }

 private:
  /// "" when the call is correct, otherwise what was wrong.
  std::string gate_(const sp::core::ScalaPartResult& r) {
    const std::uint64_t part_fp = sp::analysis::fingerprint_bytes(
        r.part.side.data(), r.part.side.size() * sizeof(r.part.side[0]));
    const std::uint64_t run_fp = r.stats.fingerprint();
    if (!ref_part_fp_) {
      ref_part_fp_ = part_fp;
      ref_run_fp_ = run_fp;
    }
    if (r.part.size() != g_.num_vertices()) return "partition size differs from |V|";
    if (part_fp != *ref_part_fp_) return "part_fp differs from the first call";
    if (run_fp != *ref_run_fp_) return "RunStats fingerprint differs from the first call";
    const sp::graph::PartitionReport rep = sp::graph::evaluate(g_, r.part);
    if (rep.cut != r.report.cut) return "reported cut differs from graph::evaluate";
    const sp::analysis::Violations v =
        sp::analysis::validate_partition(g_, r.part, kImbalanceBound);
    if (!v.empty()) return "validate_partition: " + v.front();
    // epsilon is what the refiner aims for, not a guarantee: the sampled
    // median of the geometric cut can leave a side a little above it. A
    // miss does not fail the call; it is counted and measured by eps_fit,
    // (1 + epsilon) / (1 + imbalance): 1 within epsilon, below 1 by how far
    // the call missed. (A side of exactly (1 + epsilon) x ideal can round
    // a hair above.)
    const double eps = opt_.gmt.epsilon;
    if (rep.imbalance > eps + 1e-9) {
      ++over_epsilon_;
      eps_fit_ = std::min(eps_fit_, (1.0 + eps) / (1.0 + rep.imbalance));
    }
    return "";
  }
  void note_failure_(const std::string& why) {
    ++failed_;
    if (failures_.size() < 8) failures_.push_back(why);
  }

  const Workload& w_;
  const RunArgs& args_;
  Tracer tracer_;
  sp::core::ScalaPartOptions opt_;
  sp::graph::CsrGraph g_;
  std::vector<sp::geom::Vec2> coords_;
  std::optional<std::uint64_t> ref_part_fp_;
  std::optional<std::uint64_t> ref_run_fp_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t over_epsilon_ = 0;
  double eps_fit_ = 1.0;
  std::vector<std::string> failures_;
};

void put(JsonValue& metrics, const std::string& name, double value,
         const char* unit) {
  JsonValue& m = metrics[name];
  m["value"] = value;
  m["unit"] = unit;
}

double sum_prefixed(const std::map<std::string, double>& flat,
                    std::string_view prefix) {
  double s = 0.0;
  for (const auto& [k, v] : flat) {
    if (k.rfind(prefix, 0) == 0) s += v;
  }
  return s;
}

double value_or_zero(const std::map<std::string, double>& flat,
                     const std::string& key) {
  const auto it = flat.find(key);
  return it == flat.end() ? 0.0 : it->second;
}

/// Whole-run comm volume from RunStats, summed over stages and ranks.
sp::comm::StageCost comm_totals(const sp::comm::RunStats& st) {
  sp::comm::StageCost total;
  for (const std::string& stage : st.stages()) total += st.stage_sum(stage);
  return total;
}

/// Wall time per rank-allreduce: `rounds` allreduces on every rank of a
/// BspEngine at the workload's P and backend, median of three runs.
double allreduce_us(const sp::core::ScalaPartOptions& opt, std::uint32_t rounds,
                    Tracer& tracer) {
  sp::comm::BspEngine::Options eo;
  eo.nranks = opt.nranks;
  eo.backend = opt.backend;
  eo.threads = opt.threads;
  sp::comm::BspEngine engine(eo);
  std::vector<double> walls;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan s(tracer, "comm::BspEngine::run(allreduce)", tracer.next_call());
    const auto t0 = Clock::now();
    std::uint64_t sink = 0;
    engine.run([&](sp::comm::Comm& c) {
      std::uint64_t acc = c.rank();
      for (std::uint32_t i = 0; i < rounds; ++i) {
        acc = c.allreduce<std::uint64_t>(acc + i, sp::comm::ReduceOp::kMax);
      }
      if (c.rank() == 0) sink = acc;
    });
    walls.push_back(seconds_since(t0));
    // Round i adds i to the max over ranks, which starts at P - 1.
    const std::uint64_t expect = opt.nranks - 1ull +
                                 std::uint64_t{rounds} * (rounds - 1) / 2;
    if (sink != expect) throw std::runtime_error("allreduce loop result is wrong");
  }
  return median(walls) * 1e6 /
         (static_cast<double>(rounds) * static_cast<double>(opt.nranks));
}

// ---- The untraced run: end-to-end metrics ----

/// The fewest calls a run makes, and the calls made before peak RSS is
/// sampled. Resident memory grows over back-to-back calls, so the count is
/// fixed: the peak then covers the same retained memory on every commit.
constexpr std::uint32_t kMinCalls = 3;

JsonValue run_untraced(Bench& b, const RunArgs& args) {
  // The graph is read again before every call, so the setup samples are
  // spread over the run like the call samples are.
  std::vector<double> reads;
  std::vector<double> walls;
  std::optional<Call> first;
  double peak_mb = 0.0;
  const auto t0 = Clock::now();
  std::uint32_t calls = 0;
  while (calls < kMinCalls || seconds_since(t0) < args.seconds) {
    b.read_graph(reads);
    Call c = b.call(b.options(), "call");
    ++calls;
    if (calls == kMinCalls) peak_mb = peak_rss_mb(RUSAGE_SELF);
    if (!c.ok) continue;
    walls.push_back(c.wall);
    if (!first) first = std::move(c);
  }

  const double partition_s = median(walls);
  const auto& g = b.graph();
  JsonValue out = JsonValue::object();
  JsonValue& m = out["metrics"];
  put(m, "partition_s", partition_s, "s");
  put(m, "edges_per_s",
      partition_s > 0 ? static_cast<double>(g.num_edges()) / partition_s : 0.0,
      "edges/s");
  put(m, "setup_s", median(reads), "s");
  put(m, "peak_rss_mb", peak_mb, "MB");
  double balance = 0.0;
  if (first) {
    const auto [s0, s1] = sp::graph::side_weights(g, first->r.part);
    balance = static_cast<double>(std::max(s0, s1)) /
              (static_cast<double>(g.total_vertex_weight()) / 2.0);
  }
  put(m, "balance", balance, "ratio");
  put(m, "ok_frac",
      static_cast<double>(b.attempted() - b.failed()) /
          static_cast<double>(b.attempted()),
      "fraction");
  put(m, "eps_fit", b.eps_fit(), "ratio");

  JsonValue& d = out["detail"];
  d["cut"] = first ? static_cast<double>(first->r.report.cut) : 0.0;
  d["modeled_s"] = first ? first->r.modeled_seconds : 0.0;
  d["partition_s_samples"] = static_cast<unsigned long long>(walls.size());
  JsonValue& ws = d["partition_s_walls"];
  ws = JsonValue::array();
  for (double x : walls) ws.push(x);
  JsonValue& rs = d["setup_s_reads"];
  rs = JsonValue::array();
  for (double x : reads) rs.push(x);
  d["calls"] = calls;
  d["rss_calls"] = kMinCalls;
  d["peak_rss_mb_end"] = peak_rss_mb(RUSAGE_SELF);
  d["peak_rss_children_mb"] = peak_rss_mb(RUSAGE_CHILDREN);
  return out;
}

// ---- The traced run: per-layer metrics ----

JsonValue run_traced(const Workload& w, Bench& b, const RunArgs& args) {
  Tracer& tr = b.tracer();
  const int root = tr.begin("wallbench:" + w.name, tr.next_call());
  std::vector<double> reads;
  while (reads.size() < 3) b.read_graph(reads);
  const double read_s = median(reads);
  const double file_mb =
      static_cast<double>(std::filesystem::file_size(args.graph_path)) / 1e6;

  // Untraced (U) and traced (T) calls alternate, so drift hits both alike.
  // The call count is fixed, so the memory figures compare across commits.
  constexpr int kPairs = 2;
  std::vector<double> u_walls, t_walls, prerun, run_wall, parked_share;
  std::vector<double> coarsen_wall, embed_wall, embed_imb, partition_wall;
  double rss_first = 0.0, rss_last = 0.0, flight_appends = 0.0;
  std::map<std::string, double> flat;
  std::optional<Call> last;
  for (int i = 0; i < kPairs; ++i) {
    const Call u = b.call(b.options(), "untraced call");
    if (i == 0) rss_first = current_rss_mb();
    if (u.ok) {
      const sp::comm::RunStats& st = u.r.stats;
      u_walls.push_back(u.wall);
      prerun.push_back(u.wall - st.wall_seconds);
      run_wall.push_back(st.wall_seconds);
      double parked = 0.0;
      for (double p : st.parked_wall_seconds) parked += p;
      const double denom = st.wall_seconds * b.options().nranks;
      parked_share.push_back(denom > 0 ? parked / denom : 0.0);
    }

    sp::obs::Recorder rec;
    sp::obs::flight::FlightRecorder frec(b.options().nranks);
    Call t;
    {
      sp::obs::ScopedRecording on(rec);
      sp::obs::flight::ScopedFlightRecording fon(frec);
      t = b.call(b.options(), "traced call");
    }
    rss_last = current_rss_mb();
    if (!t.ok) continue;
    t_walls.push_back(t.wall);
    // Stage walls are the max over ranks; stages a workload bypasses stay 0.
    double cw = 0.0, ew = 0.0, ei = 1.0, pw = 0.0;
    for (const auto& st : sp::obs::flight::wall_profile(frec)) {
      if (st.cat != "stage") continue;
      if (st.name == "coarsen") cw = st.wall_max;
      if (st.name == "embed") {
        ew = st.wall_max;
        ei = st.imbalance;
      }
      if (st.name == "partition") pw = st.wall_max;
    }
    coarsen_wall.push_back(cw);
    embed_wall.push_back(ew);
    embed_imb.push_back(ei);
    partition_wall.push_back(pw);
    flight_appends = 0.0;
    for (std::uint32_t r = 0; r < frec.nranks(); ++r) {
      flight_appends += static_cast<double>(frec.total_appends(r));
    }
    flat = rec.metrics().flatten();
    last = std::move(t);
  }

  // The same call on the fiber backend: the reference for the speed-up,
  // and (through the gate's fingerprints) for bit-identity across backends.
  const double u_med = median(u_walls);
  double fiber_wall = u_med;
  if (b.options().backend != sp::exec::Backend::kFiber) {
    sp::core::ScalaPartOptions fo = b.options();
    fo.backend = sp::exec::Backend::kFiber;
    fo.threads = 0;
    const Call f = b.call(fo, "fiber reference call");
    fiber_wall = f.ok ? f.wall : 0.0;
  }
  const double ar_us = allreduce_us(b.options(), w.allreduce_rounds, tr);
  tr.end(root);

  const double t_med = median(t_walls);
  sp::comm::StageCost ct;
  sp::core::StageBreakdown stages;
  double arena_hit_rate = 0.0;
  if (last) {
    ct = comm_totals(last->r.stats);
    stages = last->r.stages;
    arena_hit_rate = last->r.stats.comm_counters.arena_hit_rate();
  }
  const double matched = sum_prefixed(flat, "coarsen/matched.L");
  const double coarse_v = sum_prefixed(flat, "coarsen/vertices.L");

  JsonValue out = JsonValue::object();
  JsonValue& m = out["metrics"];
  put(m, "graph_io.read_s", read_s, "s");
  put(m, "graph_io.mb_per_s", read_s > 0 ? file_mb / read_s : 0.0, "MB/s");
  put(m, "core.prerun_s", median(prerun), "s");
  put(m, "core.modeled_s", last ? last->r.modeled_seconds : 0.0, "s");
  put(m, "coarsen.wall_s", median(coarsen_wall), "s");
  put(m, "coarsen.match_rate", coarse_v > 0 ? matched / coarse_v : 0.0, "fraction");
  put(m, "embed.wall_s", median(embed_wall), "s");
  put(m, "embed.wall_imbalance", median(embed_imb), "ratio");
  put(m, "embed.modeled_compute_s", stages.embed_compute_seconds, "s");
  put(m, "embed.modeled_comm_s", stages.embed_comm_seconds, "s");
  put(m, "embed.ghost_msgs", value_or_zero(flat, "embed/ghost_msgs"), "count");
  put(m, "embed.ghost_bytes", value_or_zero(flat, "embed/ghost_bytes"), "bytes");
  put(m, "partition.wall_s", median(partition_wall), "s");
  put(m, "partition.cut", last ? static_cast<double>(last->r.report.cut) : 0.0,
      "edges");
  put(m, "partition.cut_before_refine",
      value_or_zero(flat, "partition/cut_before_refine"), "edges");
  put(m, "partition.strip_size", value_or_zero(flat, "partition/strip_size"),
      "vertices");
  put(m, "partition.strip_flips", value_or_zero(flat, "partition/strip_flips"),
      "count");
  put(m, "comm.events", static_cast<double>(ct.comm_events), "count");
  put(m, "comm.messages", static_cast<double>(ct.messages), "count");
  put(m, "comm.bytes", static_cast<double>(ct.bytes_sent), "bytes");
  put(m, "comm.collectives", static_cast<double>(ct.collectives), "count");
  put(m, "comm.arena_hit_rate", arena_hit_rate, "fraction");
  put(m, "comm.allreduce_us", ar_us, "us");
  put(m, "exec.run_wall_s", median(run_wall), "s");
  put(m, "exec.parked_share", median(parked_share), "fraction");
  put(m, "exec.speedup_vs_fiber", u_med > 0 ? fiber_wall / u_med : 0.0, "ratio");
  put(m, "obs.flight_appends", flight_appends, "count");
  put(m, "obs.trace_overhead", u_med > 0 ? t_med / u_med - 1.0 : 0.0, "fraction");
  put(m, "mem.rss_after_first_mb", rss_first, "MB");
  put(m, "mem.rss_growth_mb", rss_last - rss_first, "MB");
  put(m, "mem.child_peak_rss_mb", peak_rss_mb(RUSAGE_CHILDREN), "MB");

  JsonValue& d = out["detail"];
  d["untraced_walls"] = JsonValue::array();
  for (double x : u_walls) d["untraced_walls"].push(x);
  d["traced_walls"] = JsonValue::array();
  for (double x : t_walls) d["traced_walls"].push(x);
  d["fiber_wall"] = fiber_wall;
  d["peak_rss_mb"] = peak_rss_mb(RUSAGE_SELF);
  if (!w.dominant_stage.empty()) {
    // Does the workload do what it is for? Its dominant stage should be
    // most of the traced call, and a partition-only call embeds nothing.
    const double stage_wall = w.dominant_stage == "embed" ? median(embed_wall)
                                                          : median(partition_wall);
    JsonValue& p = d["purpose"];
    p["stage"] = w.dominant_stage;
    p["stage_share"] = t_med > 0 ? stage_wall / t_med : 0.0;
    p["ok"] = t_med > 0 && stage_wall > 0.5 * t_med &&
              (!w.partition_only || median(embed_wall) == 0.0);
  }
  return out;
}

}  // namespace

JsonValue run(const Workload& w, Size size, const RunArgs& args) {
  Bench b(w, size, args);
  JsonValue out = args.trace ? run_traced(w, b, args) : run_untraced(b, args);
  out["correct"] = b.attempted() > 0 && b.failed() == 0;
  out["attempted"] = static_cast<unsigned long long>(b.attempted());
  out["failed"] = static_cast<unsigned long long>(b.failed());
  JsonValue& d = out["detail"];
  d["failures"] = b.failures();
  d["over_epsilon_calls"] = static_cast<unsigned long long>(b.over_epsilon());
  d["vertices"] = static_cast<unsigned long long>(b.graph().num_vertices());
  d["edges"] = static_cast<unsigned long long>(b.graph().num_edges());
  d["nranks"] = b.options().nranks;
  d["backend"] = sp::exec::backend_name(b.options().backend);
  d["threads"] = b.options().threads;
  out["build"] = build_info();
  if (args.trace && !args.trace_out.empty()) b.tracer().write_chrome(args.trace_out);
  return out;
}

JsonValue build_info() {
  JsonValue b = JsonValue::object();
  b["compiler"] = WB_COMPILER;
  b["build_type"] = WB_BUILD_TYPE;
  JsonValue& f = b["flags"];
#ifdef SP_ANALYSIS
  f["SP_ANALYSIS"] = true;
#else
  f["SP_ANALYSIS"] = false;
#endif
#ifdef SP_OBS
  f["SP_OBS"] = true;
#else
  f["SP_OBS"] = false;
#endif
#ifdef SP_EXEC_THREADS
  f["SP_EXEC_THREADS"] = true;
#else
  f["SP_EXEC_THREADS"] = false;
#endif
#ifdef SP_EXEC_PROCESS
  f["SP_EXEC_PROCESS"] = true;
#else
  f["SP_EXEC_PROCESS"] = false;
#endif
  return b;
}

}  // namespace wb
