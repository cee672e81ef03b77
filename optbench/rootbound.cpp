// rootbound: a cold OptRouter::route(clip) capped at the root node
// (mip.maxNodes = 1) on 4-net switchboxes at the paper's 7x10-track clip
// window. Nothing proves at this size within seconds, so one op ends at the
// certified root bound with a DRC-clean incumbent -- the first certified
// number a user gets. The cold root LP dominates the op.

#include <cstdio>

#include "clip/clip_io.h"
#include "core/clip_session.h"
#include "lp/simplex.h"
#include "route/maze_router.h"
#include "test_support.h"
#include "workloads.h"

namespace optbench {

using namespace optr;

namespace {

struct Entry {
  std::uint64_t genSeed;
  int layers;
  const char* rule;  // the rule cycles through Table 3
};

// 7x10 tracks, 4 nets. Generator seeds were probed at maxNodes = 1;
// design.json records the ones left out and why.
constexpr int kTracksX = 7, kTracksY = 10, kNets = 4;
const std::vector<Entry> kCorpus = {
    {11, 3, "RULE1"}, {1, 3, "RULE2"},  {2, 3, "RULE3"},  {3, 3, "RULE4"},
    {4, 3, "RULE5"},  {27, 3, "RULE6"}, {6, 3, "RULE7"},  {7, 3, "RULE8"},
    {19, 3, "RULE9"}, {9, 3, "RULE10"}, {21, 3, "RULE11"}, {1, 4, "RULE2"},
};
// Self-test size: small clips that still stop at the node cap.
const std::vector<Entry> kToyCorpus = {{11, 3, "RULE1"}, {4, 3, "RULE5"}};
constexpr int kToyTracksX = 5, kToyTracksY = 6;
// At least this many ops per window, so the tail percentile (p75) does not
// depend on how many passes fit in it.
constexpr std::size_t kMinOps = 40;

core::OptRouterOptions options() {
  core::OptRouterOptions o;
  o.mip.threads = 1;
  o.mip.maxNodes = 1;
  // Never reached: the node cap, not the clock, ends every op.
  o.mip.timeLimitSec = 3600.0;
  return o;
}

struct Op {
  int entry = 0;
  core::RouteResult result;
  double ms = 0.0;
};

struct Pass {
  std::vector<Op> ops;
  double seconds = 0.0;
};

// The layer calls route(clip) makes internally, re-run on the op's inputs.
void probe(const clip::Clip& c, const tech::RuleConfig& r,
           const core::OptRouterOptions& opt, const Op& op, Tracer& tr,
           Probes& pr) {
  grid::RoutingGraph graph = freshGraph(c, r, false, &tr);
  std::unique_ptr<core::Formulation> f;
  {
    Span s(&tr, "core.base_build");
    f = std::make_unique<core::Formulation>(c, graph, opt.formulation);
  }
  pr.rows.push_back(f->model().numRows());
  pr.cols.push_back(f->model().numCols());
  {
    Span s(&tr, "lp.root");
    lp::SimplexSolver solver(opt.mip.lpOptions);
    pr.rootPivots.push_back(
        static_cast<double>(solver.solve(f->model()).iterations));
  }
  {
    Span s(&tr, "route.maze");
    route::MazeOptions mo = opt.mazeOptions;
    core::Formulation* fp = f.get();
    mo.arcFilter = [fp](int net, int arc) {
      return fp->arcAvailableTo(net, arc);
    };
    route::MazeRouter(c, graph, mo).route();
  }
  if (op.result.hasSolution())
    checkSolution(c, graph, op.result.solution, op.result.cost,
                  op.result.wirelength, op.result.vias, &tr);
}

Pass runPass(const std::vector<std::string>& texts,
             const std::vector<Entry>& corpus, const std::vector<int>& order,
             Tracer* tr, Probes* pr) {
  const core::OptRouterOptions opt = options();
  Pass pass;
  const auto start = Clock::now();
  for (int ei : order) {
    const Entry& e = corpus[static_cast<std::size_t>(ei)];
    const tech::RuleConfig r = rule(e.rule);
    Op op;
    op.entry = ei;
    clip::Clip c;
    const auto t0 = Clock::now();
    {
      Span opSpan(tr, "op");
      {
        Span s(tr, "clip.parse");
        c = parseClip(texts[static_cast<std::size_t>(ei)]);
      }
      Span s(tr, "core.solve");
      op.result = core::OptRouter(technology(), r, opt).route(c);
    }
    op.ms = msBetween(t0, Clock::now());
    if (tr != nullptr) probe(c, r, opt, op, *tr, *pr);
    pass.ops.push_back(std::move(op));
  }
  pass.seconds = msBetween(start, Clock::now()) / 1000.0;
  return pass;
}

std::vector<std::string> corpusTexts(std::uint64_t runSeed, bool toy) {
  std::vector<std::string> out;
  for (const Entry& e : toy ? kToyCorpus : kCorpus) {
    clip::Clip c = bench::syntheticSwitchbox(toy ? kToyTracksX : kTracksX,
                                             toy ? kToyTracksY : kTracksY,
                                             e.layers, kNets, e.genSeed);
    c.id += ".L" + std::to_string(e.layers) + ".run" +
            std::to_string(runSeed);
    out.push_back(clip::toText(c));
  }
  return out;
}

// An op is correct when it stopped at the node cap (kFeasible with error
// iteration-limit), its incumbent is DRC-clean on a fresh graph with
// cost = wl + 4 * vias, and route(session, rule) -- the other entry point --
// reports the same status, cost and root bound.
std::int64_t check(const std::vector<std::string>& texts,
                   const std::vector<Entry>& corpus,
                   const std::vector<const Op*>& ops, bool tamper,
                   std::vector<std::string>& notes) {
  const core::OptRouterOptions opt = options();
  std::vector<Verdict> ref(corpus.size());
  std::vector<char> refDone(corpus.size(), 0);
  for (const Op* op : ops) {
    const std::size_t k = static_cast<std::size_t>(op->entry);
    if (refDone[k]) continue;
    refDone[k] = 1;
    const tech::RuleConfig r = rule(corpus[k].rule);
    core::ClipSessionOptions so;
    so.formulation = opt.formulation;
    so.universe = {r};
    core::ClipSession session(parseClip(texts[k]), technology(), so);
    ref[k] = verdictOf(core::OptRouter(technology(), r, opt).route(session, r));
  }
  if (tamper) ref[static_cast<std::size_t>(ops.front()->entry)].bound += 1.0;
  std::int64_t failed = 0;
  for (const Op* op : ops) {
    const std::size_t k = static_cast<std::size_t>(op->entry);
    const clip::Clip c = parseClip(texts[k]);
    const tech::RuleConfig r = rule(corpus[k].rule);
    const core::RouteResult& res = op->result;
    std::string why;
    if (res.status != core::RouteStatus::kFeasible ||
        res.error.code() != ErrorCode::kIterationLimit) {
      why = std::string("not stopped at the node cap: ") +
            core::toString(res.status) + "/" + toString(res.error.code());
    } else if (!sameVerdict(verdictOf(res), ref[k])) {
      why = "disagrees with route(session, rule)";
    } else {
      why = checkSolution(c, freshGraph(c, r, false, nullptr), res.solution,
                          res.cost, res.wirelength, res.vias, nullptr);
    }
    if (!why.empty()) {
      ++failed;
      if (failed <= 5)
        notes.push_back("FAIL " + c.id + " " + r.name + ": " + why);
    }
  }
  return failed;
}

}  // namespace

Report runRootbound(const Args& args) {
  Report rep;
  const std::vector<Entry>& corpus = args.toy ? kToyCorpus : kCorpus;
  // Set-up: produce and parse the corpus clip text, then warm the solver
  // stack with one root-capped solve of a small clip. Repeated so the
  // reported median is steady.
  std::vector<double> setup;
  for (int i = 0; i < 7; ++i) {
    const auto t0 = Clock::now();
    for (const std::string& t : corpusTexts(args.seed, args.toy)) parseClip(t);
    runPass(corpusTexts(args.seed, true), kToyCorpus, {0}, nullptr, nullptr);
    setup.push_back(msBetween(t0, Clock::now()) / 1000.0);
  }
  const std::vector<std::string> texts = corpusTexts(args.seed, args.toy);
  const std::vector<int> order =
      permutation(static_cast<int>(corpus.size()), args.seed);

  if (!args.trace) {
    const std::vector<Pass> passes = runWindow(
        args.seconds, args.toy ? 1 : kMinOps,
        [&] { return runPass(texts, corpus, order, nullptr, nullptr); },
        rep.notes);
    const double rss = peakRssMb();
    std::vector<const Op*> ops;
    std::vector<double> lat;
    for (const Pass& p : passes) {
      for (const Op& op : p.ops) {
        ops.push_back(&op);
        lat.push_back(op.ms);
      }
    }
    rep.attempted = static_cast<std::int64_t>(ops.size());
    rep.failed = check(texts, corpus, ops, args.tamper, rep.notes);
    endToEnd(rep, medianPassThroughput(passes), lat, setup, rss);
    return rep;
  }

  // Traced run: one untraced pass (registry deltas, overhead baseline), then
  // the same ops again under the benchmark's spans plus per-op probes.
  const obs::MetricsSnapshot before = obs::metrics().snapshot();
  const Pass plain = runPass(texts, corpus, order, nullptr, nullptr);
  const obs::MetricsSnapshot after = obs::metrics().snapshot();
  Tracer tr;
  Probes pr;
  const Pass traced = runPass(texts, corpus, order, &tr, &pr);

  std::vector<const Op*> ops;
  std::vector<double> plainLat;
  double plainMs = 0.0;
  for (const Op& op : plain.ops) {
    ops.push_back(&op);
    plainLat.push_back(op.ms);
    plainMs += op.ms;
  }
  for (const Op& op : traced.ops) ops.push_back(&op);
  rep.attempted = static_cast<std::int64_t>(ops.size());
  rep.failed = check(texts, corpus, ops, args.tamper, rep.notes);

  LayerMetrics lm;
  registryLayerMetrics(after, before, static_cast<double>(plain.ops.size()),
                       lm);
  spanLayerMetrics(tr, pr, plainMs, lm);
  const double rows = median(pr.rows);
  const double share = median(tr.selfMs("lp.root")) / median(plainLat);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "stress check: core.model_rows %.0f (>= 2000: %s); lp.root_ms "
                "/ untraced latency p50 = %.3f (>= 0.5: %s)",
                rows, rows >= 2000 ? "yes" : "no", share,
                share >= 0.5 ? "yes" : "no");
  rep.notes.push_back(buf);
  rep.metrics = lm.ordered();
  return rep;
}

}  // namespace optbench
