// sweep: the paper's experiment. Every corpus clip is swept over the eleven
// Table 3 rules, RULE1 first, through one core::ClipSession; one op is one
// (clip, rule) solve and must end in a proof. The first op of a clip also
// pays for parsing the clip text and building the session.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "clip/clip_io.h"
#include "core/clip_session.h"
#include "lp/simplex.h"
#include "route/maze_router.h"
#include "test_support.h"
#include "workloads.h"

namespace optbench {

using namespace optr;

namespace {

// 5x6 tracks, 3 layers, 3 nets. Generator seeds 1-20 were probed with a
// 20 s limit per solve; design.json records the ones left out and why.
constexpr int kTracksX = 5, kTracksY = 6, kLayers = 3, kNets = 3;
const std::vector<std::uint64_t> kCorpus = {4,  5,  8,  11, 12,
                                            13, 14, 15, 17, 20};
const std::vector<std::uint64_t> kToyCorpus = {3, 17};
// At least this many ops per window, so the tail percentile (p95) does not
// depend on how many passes fit in it.
constexpr std::size_t kMinOps = 200;

struct Op {
  int clip = 0;
  int rule = 0;
  core::RouteResult result;
  double ms = 0.0;
};

struct Pass {
  std::vector<Op> ops;
  double seconds = 0.0;
};

// Per-op layer probes of the traced pass: the layer calls that route()
// makes internally, re-run by the benchmark on the op's own inputs.
void probe(core::ClipSession& session, const tech::RuleConfig& rule,
           const core::OptRouterOptions& opt, const core::RouteResult& res,
           Tracer& tr, Probes& pr) {
  // Re-activating drops the lazy rows the solve separated: the root model.
  session.activateRule(rule);
  const lp::LpModel& model = session.formulation().model();
  pr.rows.push_back(model.numRows());
  pr.cols.push_back(model.numCols());
  {
    Span s(&tr, "lp.root");
    lp::SimplexSolver solver(opt.mip.lpOptions);
    pr.rootPivots.push_back(
        static_cast<double>(solver.solve(model).iterations));
  }
  {
    Span s(&tr, "route.maze");
    route::MazeOptions mo = opt.mazeOptions;
    core::Formulation& f = session.formulation();
    mo.arcFilter = [&f](int net, int arc) {
      return f.arcAvailableTo(net, arc);
    };
    route::MazeRouter(session.clip(), session.graph(), mo).route();
  }
  if (res.hasSolution()) {
    const clip::Clip& c = session.clip();
    checkSolution(c, freshGraph(c, rule, true, &tr), res.solution, res.cost,
                  res.wirelength, res.vias, &tr);
  }
}

Pass runPass(const std::vector<std::string>& texts,
             const std::vector<int>& order, Tracer* tr, Probes* pr) {
  const auto rules = tech::table3Rules();
  const core::OptRouterOptions opt = sweepOptions();
  const core::OptRouter router(technology(), rules.front(), opt);
  core::ClipSessionOptions so;
  so.formulation = opt.formulation;
  Pass pass;
  const auto start = Clock::now();
  for (int ci : order) {
    std::unique_ptr<core::ClipSession> session;
    for (int ri = 0; ri < static_cast<int>(rules.size()); ++ri) {
      Op op;
      op.clip = ci;
      op.rule = ri;
      const auto t0 = Clock::now();
      {
        Span opSpan(tr, "op");
        if (!session) {
          clip::Clip c;
          {
            Span s(tr, "clip.parse");
            c = parseClip(texts[static_cast<std::size_t>(ci)]);
          }
          Span s(tr, "core.base_build");
          session = std::make_unique<core::ClipSession>(c, technology(), so);
        }
        {
          Span s(tr, "core.rule_overlay");
          session->activateRule(rules[static_cast<std::size_t>(ri)]);
        }
        Span s(tr, "core.solve");
        op.result = router.route(*session, rules[static_cast<std::size_t>(ri)]);
      }
      op.ms = msBetween(t0, Clock::now());
      if (tr != nullptr)
        probe(*session, rules[static_cast<std::size_t>(ri)], opt, op.result,
              *tr, *pr);
      pass.ops.push_back(std::move(op));
    }
  }
  pass.seconds = msBetween(start, Clock::now()) / 1000.0;
  return pass;
}

// Checks every op against the reference verdict of its (clip, rule) pair,
// solved through the other entry point, route(clip). Returns failures.
std::int64_t check(const std::vector<std::string>& texts,
                   const std::vector<const Op*>& ops, bool tamper,
                   std::vector<std::string>& notes) {
  const auto rules = tech::table3Rules();
  const core::OptRouterOptions opt = sweepOptions();
  const std::size_t nr = rules.size();
  std::vector<clip::Clip> clips;
  for (const std::string& t : texts) clips.push_back(parseClip(t));
  std::vector<Verdict> ref(clips.size() * nr);
  std::vector<char> refDone(ref.size(), 0);
  for (const Op* op : ops) {
    std::size_t k = static_cast<std::size_t>(op->clip) * nr +
                    static_cast<std::size_t>(op->rule);
    if (refDone[k]) continue;
    refDone[k] = 1;
    const tech::RuleConfig& r = rules[static_cast<std::size_t>(op->rule)];
    ref[k] = verdictOf(core::OptRouter(technology(), r, opt)
                           .route(clips[static_cast<std::size_t>(op->clip)]));
  }
  if (tamper) {
    Verdict& v = ref[static_cast<std::size_t>(ops.front()->clip) * nr +
                     static_cast<std::size_t>(ops.front()->rule)];
    v.cost += 1.0;
    v.bound += 1.0;
  }
  std::int64_t failed = 0;
  for (const Op* op : ops) {
    const std::size_t k = static_cast<std::size_t>(op->clip) * nr +
                          static_cast<std::size_t>(op->rule);
    const clip::Clip& c = clips[static_cast<std::size_t>(op->clip)];
    const tech::RuleConfig& r = rules[static_cast<std::size_t>(op->rule)];
    const core::RouteResult& res = op->result;
    std::string why;
    if (!proven(verdictOf(res))) {
      why = "not proven";
    } else if (!proven(ref[k]) || !sameVerdict(verdictOf(res), ref[k])) {
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "disagrees with route(clip): %s/%s %.17g %.17g vs "
                    "%s/%s %.17g %.17g",
                    core::toString(res.status), toString(res.error.code()),
                    res.cost, res.bestBound, core::toString(ref[k].status),
                    toString(ref[k].error), ref[k].cost, ref[k].bound);
      why = buf;
    } else if (res.hasSolution()) {
      why = checkSolution(c, freshGraph(c, r, true, nullptr), res.solution,
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

std::vector<std::string> sweepCorpusTexts(const Args& args) {
  std::vector<std::string> out;
  for (std::uint64_t s : args.toy ? kToyCorpus : kCorpus)
    out.push_back(sweepClipText(s, args.seed));
  return out;
}

std::vector<double> setupRepeats(const Args& args) {
  // Set-up: produce and parse the corpus clip text, then warm the solver
  // stack with one sweep of the first corpus clip. Repeated so the reported
  // median is steady.
  std::vector<double> out;
  for (int i = 0; i < 7; ++i) {
    const auto t0 = Clock::now();
    const std::vector<std::string> texts = sweepCorpusTexts(args);
    for (const std::string& t : texts) parseClip(t);
    runPass(texts, {0}, nullptr, nullptr);
    out.push_back(msBetween(t0, Clock::now()) / 1000.0);
  }
  return out;
}

}  // namespace

core::OptRouterOptions sweepOptions() {
  core::OptRouterOptions o;
  o.formulation.netBBoxMargin = 0;
  o.mip.threads = 1;
  // Never reached: a verdict depends on the work done, not on the clock.
  o.mip.timeLimitSec = 3600.0;
  return o;
}

clip::Clip parseClip(const std::string& text) {
  auto c = clip::fromText(text);
  if (!c.isOk()) {
    std::fprintf(stderr, "optbench: clip text does not parse: %s\n",
                 c.status().message().c_str());
    std::abort();
  }
  return std::move(c).value();
}

std::string sweepClipText(std::uint64_t genSeed, std::uint64_t runSeed) {
  clip::Clip c =
      bench::syntheticSwitchbox(kTracksX, kTracksY, kLayers, kNets, genSeed);
  c.id += ".run" + std::to_string(runSeed);
  return clip::toText(c);
}

Report runSweep(const Args& args) {
  Report rep;
  const std::vector<double> setup = setupRepeats(args);
  const std::vector<std::string> texts = sweepCorpusTexts(args);
  const std::vector<int> order =
      permutation(static_cast<int>(texts.size()), args.seed);

  if (!args.trace) {
    const std::vector<Pass> passes = runWindow(
        args.seconds, args.toy ? 1 : kMinOps,
        [&] { return runPass(texts, order, nullptr, nullptr); }, rep.notes);
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
    rep.failed = check(texts, ops, args.tamper, rep.notes);
    endToEnd(rep, medianPassThroughput(passes), lat, setup, rss);
    return rep;
  }

  // Traced run: one untraced pass (registry deltas, overhead baseline), then
  // the same ops again under the benchmark's spans plus per-op probes.
  const obs::MetricsSnapshot before = obs::metrics().snapshot();
  const Pass plain = runPass(texts, order, nullptr, nullptr);
  const obs::MetricsSnapshot after = obs::metrics().snapshot();
  Tracer tr;
  Probes pr;
  const Pass traced = runPass(texts, order, &tr, &pr);

  std::vector<const Op*> ops;
  double plainMs = 0.0;
  for (const Op& op : plain.ops) {
    ops.push_back(&op);
    plainMs += op.ms;
  }
  for (const Op& op : traced.ops) ops.push_back(&op);
  rep.attempted = static_cast<std::int64_t>(ops.size());
  rep.failed = check(texts, ops, args.tamper, rep.notes);

  LayerMetrics lm;
  registryLayerMetrics(after, before, static_cast<double>(plain.ops.size()),
                       lm);
  spanLayerMetrics(tr, pr, plainMs, lm);
  rep.metrics = lm.ordered();
  return rep;
}

}  // namespace optbench
