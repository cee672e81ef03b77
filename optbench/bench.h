// Shared pieces of the OptRouter benchmark: arguments, the benchmark's own
// span recorder, statistics, the metric catalogue, and the output checks.
//
// Output checks never read a clock: an op fails only because of its answer
// (status, error code, DRC cleanliness on a freshly built graph, the cost
// identity, agreement with the other solve entry point, cache-replay
// equivalence, or a reject / transport failure).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "clip/clip.h"
#include "core/opt_router.h"
#include "grid/routing_graph.h"
#include "obs/metrics.h"
#include "route/route_solution.h"
#include "tech/rules.h"
#include "tech/technology.h"

namespace optbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizes: tiny corpora, so every code path runs in seconds.
  bool toy = false;
  /// Self-test: corrupt one reference verdict; the run must then report
  /// correct=false.
  bool tamper = false;
};

// ---------------------------------------------------------------------------
// Span recorder. Spans are kept in memory; a span's self time is its
// duration minus the durations of its direct children.

class Tracer {
 public:
  /// Opens a span under the innermost open span (or as a root).
  int open(const std::string& name);
  void close(int id);
  /// Records a finished span with explicit endpoints (asynchronous ops).
  int record(const std::string& name, int parent, Clock::time_point t0,
             Clock::time_point t1);

  /// Self times (ms) of every span with this name, in record order.
  std::vector<double> selfMs(const std::string& name) const;
  /// Total and self time (ms) summed over spans with this name.
  double totalMs(const std::string& name) const;
  double totalSelfMs(const std::string& name) const;

 private:
  struct Rec {
    std::string name;
    int parent = -1;
    Clock::time_point t0, t1;
    double childMs = 0.0;
  };
  std::vector<Rec> recs_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer makes it free (no clock read), which is how the
/// untraced runs execute the same code.
class Span {
 public:
  Span(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer ? tracer->open(name) : -1) {}
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void end() {
    if (tracer_ != nullptr && id_ >= 0) tracer_->close(id_);
    id_ = -1;
  }

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Statistics.

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);


// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every per-layer metric name with its unit, in output order.
const std::vector<std::pair<std::string, std::string>>& perLayerCatalogue();

/// Per-layer values by name; names a workload does not touch stay 0.
class LayerMetrics {
 public:
  void set(const std::string& name, double value);
  std::vector<Metric> ordered() const;

 private:
  std::map<std::string, double> values_;
};

struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines printed first
};

/// Fills the lp / ilp / route / core registry ratios from a snapshot delta
/// over `ops` solves.
void registryLayerMetrics(const optr::obs::MetricsSnapshot& after,
                          const optr::obs::MetricsSnapshot& before, double ops,
                          LayerMetrics& out);

/// Per-op probe results that spans do not carry.
struct Probes {
  std::vector<double> rootPivots;  // cold root LP pivots
  std::vector<double> rows, cols;  // root model size
};

/// Sets every per-layer metric that comes from the benchmark's own spans
/// (medians of span self times; a span name absent from the trace reads 0)
/// and probes, plus the trace overhead of the "op" spans against the same
/// ops' untraced total `plainOpMs`, and their unattributed share.
void spanLayerMetrics(const Tracer& tr, const Probes& pr, double plainOpMs,
                      LayerMetrics& out);

/// Runs whole passes until `seconds` have passed and at least `minOps` ops
/// ran; notes each pass's duration.
template <typename RunPass>
auto runWindow(double seconds, std::size_t minOps, RunPass runPass,
               std::vector<std::string>& notes) {
  std::vector<decltype(runPass())> passes;
  double elapsed = 0.0;
  std::size_t n = 0;
  std::string note = "pass seconds:";
  while (elapsed < seconds || n < minOps) {
    passes.push_back(runPass());
    elapsed += passes.back().seconds;
    n += passes.back().ops.size();
    note += " " + std::to_string(passes.back().seconds);
  }
  notes.push_back(note);
  return passes;
}

/// Peak resident set of this process, MB.
double peakRssMb();

/// End-to-end metric block shared by every workload. `opsPerSec` is the
/// measured throughput of all attempted ops; ops_per_s scales it by the
/// share that passed the checks. latency_ms.tail is the highest of p50, p75,
/// p90, p95, p99 and p99.9 with at least ten samples beyond it.
void endToEnd(Report& r, double opsPerSec, const std::vector<double>& latMs,
              const std::vector<double>& setupSec, double rssMb);

/// Median over passes of ops per second: a pass slowed by a burst of host
/// load moves it less than the window total would.
template <typename Pass>
double medianPassThroughput(const std::vector<Pass>& passes) {
  std::vector<double> v;
  for (const Pass& p : passes)
    v.push_back(static_cast<double>(p.ops.size()) / p.seconds);
  return median(v);
}

// ---------------------------------------------------------------------------
// Output checks.

inline const optr::tech::Technology& technology() {
  static const optr::tech::Technology t = optr::tech::Technology::n28_12t();
  return t;
}

/// The answer of one solve, as compared across entry points.
struct Verdict {
  optr::core::RouteStatus status = optr::core::RouteStatus::kError;
  optr::ErrorCode error = optr::ErrorCode::kInternal;
  double cost = 0.0;
  double bound = 0.0;
};

Verdict verdictOf(const optr::core::RouteResult& r);

/// Proven verdict: optimal or infeasible with a clean error status.
bool proven(const Verdict& v);

/// Same status and error, cost and bound equal to a relative 1e-9.
bool sameVerdict(const Verdict& a, const Verdict& b);

/// Builds the graph a solution indexes, anew: the Table 3 union
/// graph with `rule` applied when `unionGraph` (session and service
/// solutions), else the single-rule graph (route(clip) solutions).
optr::grid::RoutingGraph freshGraph(const optr::clip::Clip& clip,
                                    const optr::tech::RuleConfig& rule,
                                    bool unionGraph, Tracer* tracer);

/// "" when the solution is DRC-clean on `graph`, uses only arcs the active
/// rule enables, and its reported wirelength / vias / cost match the graph
/// and the identity cost = wl + 4 * vias. Otherwise the reason.
std::string checkSolution(const optr::clip::Clip& clip,
                          const optr::grid::RoutingGraph& graph,
                          const optr::route::RouteSolution& sol, double cost,
                          int wirelength, int vias, Tracer* tracer);

/// Deterministic Fisher-Yates permutation of [0, n) from `seed`.
std::vector<int> permutation(int n, std::uint64_t seed);

/// Rule by Table 3 name (aborts on an unknown name: the corpora are fixed).
optr::tech::RuleConfig rule(const std::string& name);

}  // namespace optbench
