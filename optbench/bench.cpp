#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "route/drc.h"

namespace optbench {

using namespace optr;

int Tracer::open(const std::string& name) {
  Rec r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.t0 = Clock::now();
  recs_.push_back(std::move(r));
  int id = static_cast<int>(recs_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  recs_[id].t1 = Clock::now();
  // Spans close innermost-first; anything opened above `id` and still open
  // was left dangling by an early return and closes with it.
  while (!stack_.empty()) {
    int top = stack_.back();
    stack_.pop_back();
    if (top != id) recs_[top].t1 = recs_[id].t1;
    Rec& r = recs_[top];
    if (r.parent >= 0) recs_[r.parent].childMs += msBetween(r.t0, r.t1);
    if (top == id) break;
  }
}

int Tracer::record(const std::string& name, int parent, Clock::time_point t0,
                   Clock::time_point t1) {
  Rec r;
  r.name = name;
  r.parent = parent;
  r.t0 = t0;
  r.t1 = t1;
  recs_.push_back(std::move(r));
  if (parent >= 0) recs_[parent].childMs += msBetween(t0, t1);
  return static_cast<int>(recs_.size()) - 1;
}

std::vector<double> Tracer::selfMs(const std::string& name) const {
  std::vector<double> out;
  for (const Rec& r : recs_)
    if (r.name == name) out.push_back(msBetween(r.t0, r.t1) - r.childMs);
  return out;
}

double Tracer::totalMs(const std::string& name) const {
  double s = 0.0;
  for (const Rec& r : recs_)
    if (r.name == name) s += msBetween(r.t0, r.t1);
  return s;
}

double Tracer::totalSelfMs(const std::string& name) const {
  double s = 0.0;
  for (double v : selfMs(name)) s += v;
  return s;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

namespace {

struct Tail {
  double pct = 0.0;  // chosen percentile
  double value = 0.0;
  std::size_t samples = 0;
};

Tail tailOf(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  t.pct = 50.0;
  for (double p : {75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (static_cast<double>(v.size()) * (1.0 - p / 100.0) >= 10.0) t.pct = p;
  }
  t.value = percentile(v, t.pct);
  return t;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

const std::vector<std::pair<std::string, std::string>>& perLayerCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> k = {
      {"lp.root_ms", "ms"},
      {"lp.root_pivots", "count"},
      {"lp.us_per_pivot", "us"},
      {"lp.pivots_per_op", "count"},
      {"lp.dual_pivot_ratio", "ratio"},
      {"lp.degenerate_ratio", "ratio"},
      {"lp.refactorizations_per_op", "count"},
      {"ilp.nodes_per_op", "count"},
      {"ilp.pivots_per_node", "count"},
      {"ilp.lazy_rows_per_op", "count"},
      {"ilp.cut_rounds_per_op", "count"},
      {"ilp.numeric_retries", "count"},
      {"core.base_build_ms", "ms"},
      {"core.rule_overlay_ms", "ms"},
      {"core.model_rows", "count"},
      {"core.model_cols", "count"},
      {"core.cache_key_us", "us"},
      {"core.session_pool_hit_ratio", "ratio"},
      {"grid.build_ms", "ms"},
      {"route.maze_ms", "ms"},
      {"route.verify_ms", "ms"},
      {"route.warm_cross_ratio", "ratio"},
      {"clip.parse_us", "us"},
      {"service.queue_wait_ms.p50", "ms"},
      {"service.queue_wait_ms.p99", "ms"},
      {"service.solve_hit_ms.p50", "ms"},
      {"service.solve_cold_ms.p50", "ms"},
      {"service.lease_ms.p50", "ms"},
      {"service.reply_write_ms.p50", "ms"},
      {"service.codec_us", "us"},
      {"service.transport_ms.p50", "ms"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.rejects", "count"},
      {"service.generator_late_ms.max", "ms"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.unattributed_ratio", "ratio"},
  };
  return k;
}

void LayerMetrics::set(const std::string& name, double value) {
  for (const auto& [n, unit] : perLayerCatalogue()) {
    if (n == name) {
      values_[name] = std::isfinite(value) ? value : 0.0;
      return;
    }
  }
  std::fprintf(stderr, "optbench: unknown per-layer metric %s\n",
               name.c_str());
  std::abort();
}

std::vector<Metric> LayerMetrics::ordered() const {
  std::vector<Metric> out;
  for (const auto& [name, unit] : perLayerCatalogue()) {
    auto it = values_.find(name);
    out.push_back({name, it == values_.end() ? 0.0 : it->second, unit});
  }
  return out;
}

void registryLayerMetrics(const obs::MetricsSnapshot& after,
                          const obs::MetricsSnapshot& before, double ops,
                          LayerMetrics& out) {
  auto d = [&](const char* n) {
    return static_cast<double>(after.value(n) - before.value(n));
  };
  const double pivots = d("lp.pivots");
  out.set("lp.pivots_per_op", ratio(pivots, ops));
  out.set("lp.dual_pivot_ratio", ratio(d("lp.dual.pivots"), pivots));
  out.set("lp.degenerate_ratio", ratio(d("lp.degenerate_pivots"), pivots));
  out.set("lp.refactorizations_per_op", ratio(d("lp.refactorizations"), ops));
  const double nodes = d("ilp.nodes");
  out.set("ilp.nodes_per_op", ratio(nodes, ops));
  out.set("ilp.pivots_per_node", ratio(d("ilp.lp_pivots"), nodes));
  out.set("ilp.lazy_rows_per_op", ratio(d("ilp.lazy_rows"), ops));
  out.set("ilp.cut_rounds_per_op", ratio(d("ilp.cut_rounds"), ops));
  out.set("ilp.numeric_retries", d("ilp.numeric_retries"));
  const double cross = d("session.warmstart.cross_rule");
  out.set("route.warm_cross_ratio",
          ratio(cross, cross + d("session.warmstart.maze") +
                           d("session.warmstart.none")));
  const double poolHit = d("session.pool.hit");
  out.set("core.session_pool_hit_ratio",
          ratio(poolHit, poolHit + d("session.pool.miss")));
}

void spanLayerMetrics(const Tracer& tr, const Probes& pr, double plainOpMs,
                      LayerMetrics& out) {
  auto ms = [&](const char* span) { return median(tr.selfMs(span)); };
  auto us = [&](const char* span) { return 1000.0 * ms(span); };
  double pivots = 0.0;
  for (double p : pr.rootPivots) pivots += p;
  out.set("lp.root_ms", ms("lp.root"));
  out.set("lp.root_pivots", median(pr.rootPivots));
  out.set("lp.us_per_pivot", ratio(1000.0 * tr.totalSelfMs("lp.root"), pivots));
  out.set("core.base_build_ms", ms("core.base_build"));
  out.set("core.rule_overlay_ms", ms("core.rule_overlay"));
  out.set("core.model_rows", median(pr.rows));
  out.set("core.model_cols", median(pr.cols));
  out.set("core.cache_key_us", us("core.cache_key"));
  out.set("grid.build_ms", ms("grid.build"));
  out.set("route.maze_ms", ms("route.maze"));
  out.set("route.verify_ms", ms("route.verify"));
  out.set("clip.parse_us", us("clip.parse"));
  out.set("service.codec_us", us("service.codec"));
  const double opMs = tr.totalMs("op");
  out.set("obs.trace_overhead_pct", 100.0 * ratio(opMs - plainOpMs, plainOpMs));
  out.set("obs.unattributed_ratio", ratio(tr.totalSelfMs("op"), opMs));
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void endToEnd(Report& r, double opsPerSec, const std::vector<double>& latMs,
              const std::vector<double>& setupSec, double rssMb) {
  const double good = r.attempted > 0
      ? static_cast<double>(r.attempted - r.failed) /
            static_cast<double>(r.attempted)
      : 0.0;
  Tail tail = tailOf(latMs);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "latency tail: p%g of %zu samples = %.6g ms; setups %zu",
                tail.pct, tail.samples, tail.value, setupSec.size());
  r.notes.push_back(buf);
  r.metrics.push_back({"ops_per_s", opsPerSec * good, "1/s"});
  r.metrics.push_back({"latency_ms.p50", median(latMs), "ms"});
  r.metrics.push_back({"latency_ms.tail", tail.value, "ms"});
  r.metrics.push_back({"setup_s", median(setupSec), "s"});
  r.metrics.push_back({"peak_rss_mb", rssMb, "MB"});
}

Verdict verdictOf(const core::RouteResult& r) {
  return {r.status, r.error.code(), r.cost, r.bestBound};
}

bool proven(const Verdict& v) {
  return (v.status == core::RouteStatus::kOptimal ||
          v.status == core::RouteStatus::kInfeasible) &&
         v.error == ErrorCode::kOk;
}

namespace {
// Proven optima report bestBound above cost by ~1e-12 on both entry points;
// a relative tolerance absorbs that without hiding a real disagreement
// (costs are integers here).
bool near(double a, double b) {
  if (a == b) return true;  // also equal infinite bounds of infeasible clips
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::max(std::fabs(a),
                                                           std::fabs(b)));
}
}  // namespace

bool sameVerdict(const Verdict& a, const Verdict& b) {
  return a.status == b.status && a.error == b.error && near(a.cost, b.cost) &&
         near(a.bound, b.bound);
}

grid::RoutingGraph freshGraph(const clip::Clip& clip,
                              const tech::RuleConfig& rule, bool unionGraph,
                              Tracer* tracer) {
  Span span(tracer, "grid.build");
  if (!unionGraph) return grid::RoutingGraph(clip, technology(), rule);
  grid::RoutingGraph graph(clip, technology(), tech::table3Rules());
  graph.applyRule(rule);
  return graph;
}

std::string checkSolution(const clip::Clip& clip,
                          const grid::RoutingGraph& graph,
                          const route::RouteSolution& sol, double cost,
                          int wirelength, int vias, Tracer* tracer) {
  if (sol.usedArcs.size() != clip.nets.size()) return "solution net count";
  for (const auto& arcs : sol.usedArcs) {
    for (int a : arcs) {
      if (a < 0 || a >= graph.numArcs()) return "arc id out of range";
      if (!graph.arcEnabled(a)) return "uses an arc disabled by the rule";
    }
  }
  Span verifySpan(tracer, "route.verify");
  const bool clean = route::DrcChecker(clip, graph).check(sol).empty();
  verifySpan.end();
  if (!clean) return "DRC violations on a fresh graph";
  if (sol.wirelength(graph) != wirelength) return "wirelength mismatch";
  if (sol.viaCount(graph) != vias) return "via count mismatch";
  // Table 3 prices one via at four tracks of wire.
  if (!near(cost, wirelength + 4.0 * vias)) return "cost != wl + 4*vias";
  if (!near(sol.totalCost(graph), cost)) return "cost != arc cost sum";
  return "";
}

std::vector<int> permutation(int n, std::uint64_t seed) {
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x51ED);
  for (int i = n - 1; i > 0; --i) {
    auto j = static_cast<std::size_t>(rng.uniformInt(0, i));
    std::swap(p[static_cast<std::size_t>(i)], p[j]);
  }
  return p;
}

tech::RuleConfig rule(const std::string& name) {
  auto r = tech::ruleByName(name);
  if (!r.isOk()) {
    std::fprintf(stderr, "optbench: unknown rule %s\n", name.c_str());
    std::abort();
  }
  return r.value();
}

}  // namespace optbench
