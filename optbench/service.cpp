// service: open-loop traffic through a ServiceServer -- the code
// `optrouter serve` runs -- on a unix socket, from one generator thread over
// two connections. Requests are due at a fixed rate; latency runs from each
// request's due time to its decoded reply. Most requests repeat (clip, rule)
// pairs that set-up pre-solved (cache hits); a fixed minority per cycle are
// fresh pairs of sweep-generator clips, made fresh by a per-cycle time limit
// (the limit is part of the cache key), so each leases a pooled session,
// solves, and inserts into the cache.

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "common/line_io.h"
#include "core/cache_key.h"
#include "core/clip_session.h"
#include "lp/simplex.h"
#include "route/maze_router.h"
#include "service/service_client.h"
#include "service/service_protocol.h"
#include "service/service_server.h"
#include "workloads.h"

namespace optbench {

using namespace optr;

namespace {

struct Pair {
  std::uint64_t genSeed;  // a clip of the sweep generator
  const char* rule;
};

// Hit pairs: every Table 3 rule of four sweep-generator clips whose solves
// take milliseconds. Each appears once per cycle.
const std::vector<std::uint64_t> kHitClips = {3, 4, 8, 17};
const std::vector<std::uint64_t> kToyHitClips = {3, 17};
// Fresh pairs: solved anew once per cycle. Each is ~2% of the traffic and
// they take similar times (about 15 ms serial), so the p99 tail falls
// inside one tight cluster instead of at the edge between two.
const std::vector<Pair> kFresh = {{13, "RULE1"}, {20, "RULE1"}, {8, "RULE6"}};
const std::vector<Pair> kToyFresh = {{17, "RULE1"}, {3, "RULE6"}};
// Offered load. Each connection carries half of it, so a request is only
// rejected (per-client queue of 16) after the daemon stalls for about
// 320 ms -- well past the stalls a loaded host has shown (p99 under 100 ms).
constexpr double kRatePerSec = 100.0;
// At least this many requests per window, so the tail percentile (p99)
// does not depend on the window length.
constexpr std::size_t kMinRequests = 1000;
// Requests per connection may not exceed the broker's per-client queue.
constexpr int kConnections = 2;
// Stops a hung daemon from hanging the benchmark; not an output check.
constexpr double kDrainLimitSec = 120.0;

struct Request {
  int pair = 0;  // index into the run's pair table
  bool fresh = false;
  double timeLimitSec = 0.0;  // 0 = the daemon's limit (the set-up key)
};

struct Outcome {
  Clock::time_point due, sent, received, decoded;
  Clock::time_point encodeStart;
  service::ServiceFrame frame;  // the result or reject
  bool done = false;
};

class Conn {
 public:
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connect(const std::string& path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    if (path.size() >= sizeof sun.sun_path) return false;
    std::strncpy(sun.sun_path, path.c_str(), sizeof sun.sun_path - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&sun), sizeof sun) != 0)
      return false;
    std::string hello;
    while (!split_.next(hello)) {
      if (!readSome()) return false;
    }
    return service::decodeFrame(hello).type == service::FrameType::kHello;
  }
  int fd() const { return fd_; }
  bool send(const std::string& line) { return common::writeLine(fd_, line); }
  /// One read(); false on EOF or error.
  bool readSome() {
    char buf[65536];
    ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n <= 0) return false;
    split_.feed(buf, static_cast<std::size_t>(n));
    return true;
  }
  bool nextLine(std::string& line) { return split_.next(line); }

 private:
  int fd_ = -1;
  common::LineSplitter split_;
};

// The request table of one run: pair texts, the hit/fresh cycle, and the
// per-pair cold replies recorded at set-up.
struct Plan {
  std::vector<std::string> clipText;  // per pair
  std::vector<tech::RuleConfig> rule;  // per pair
  std::vector<int> hitPairs, freshPairs;
  std::vector<int> cycleOrder;  // seeded order of one cycle's slots
  std::vector<service::RouteReply> cold;  // set-up reply per hit pair

  std::string clipId(int pair) const {
    return parseClip(clipText[static_cast<std::size_t>(pair)]).id;
  }
};

Plan makePlan(const Args& args) {
  Plan p;
  auto addPair = [&](std::uint64_t genSeed, const std::string& ruleName) {
    p.clipText.push_back(sweepClipText(genSeed, args.seed));
    p.rule.push_back(rule(ruleName));
    return static_cast<int>(p.clipText.size()) - 1;
  };
  for (std::uint64_t s : args.toy ? kToyHitClips : kHitClips)
    for (const tech::RuleConfig& r : tech::table3Rules())
      p.hitPairs.push_back(addPair(s, r.name));
  for (const Pair& f : args.toy ? kToyFresh : kFresh)
    p.freshPairs.push_back(addPair(f.genSeed, f.rule));
  const int slots = static_cast<int>(p.hitPairs.size() + p.freshPairs.size());
  p.cycleOrder = permutation(slots, args.seed);
  p.cold.resize(p.clipText.size());
  return p;
}

// Slot s of a cycle: the first hitPairs slots are hits, the rest fresh; the
// seeded order spreads the fresh ones through the cycle.
std::vector<Request> schedule(const Plan& p, int firstCycle, int cycles) {
  std::vector<Request> out;
  const int hitSlots = static_cast<int>(p.hitPairs.size());
  for (int c = firstCycle; c < firstCycle + cycles; ++c) {
    for (int slot : p.cycleOrder) {
      Request r;
      if (slot < hitSlots) {
        r.pair = p.hitPairs[static_cast<std::size_t>(slot)];
      } else {
        r.pair = p.freshPairs[static_cast<std::size_t>(slot - hitSlots)];
        r.fresh = true;
        // Never reached; distinct per cycle, so the request misses the
        // cache and is solved again.
        r.timeLimitSec = 3601.0 + c;
      }
      out.push_back(r);
    }
  }
  return out;
}

service::RouteRequest wireRequest(const Plan& p, const Request& r,
                                  const std::string& id) {
  service::RouteRequest q;
  q.id = id;
  q.clipText = p.clipText[static_cast<std::size_t>(r.pair)];
  q.ruleName = p.rule[static_cast<std::size_t>(r.pair)].name;
  q.timeLimitSec = r.timeLimitSec;
  return q;
}

// One daemon instance running on its own thread.
class Daemon {
 public:
  explicit Daemon(const std::string& path) : path_(path) {
    service::ServerOptions so;
    so.listen = "unix:" + path;
    so.broker.workers = 2;
    so.broker.router = sweepOptions();
    server_ = std::make_unique<service::ServiceServer>(so);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool start() {
    if (!server_->start().isOk()) return false;
    thread_ = std::thread([this] { server_->run(); });
    return true;
  }
  void stop() {
    if (!thread_.joinable()) return;
    service::ServiceClient c;
    if (c.connect("unix:" + path_).isOk()) c.sendShutdown();
    thread_.join();
  }

 private:
  std::string path_;
  std::unique_ptr<service::ServiceServer> server_;
  std::thread thread_;
};

// Harness failure (not an output check): exits at once, without a result
// line, and without unwinding into a daemon thread that may be stuck.
[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "optbench: %s\n", msg.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

/// Set-up: start a daemon, connect, and pre-solve every hit pair (closed
/// loop), recording the cold replies.
std::unique_ptr<Daemon> setUp(Plan& p, const std::string& path,
                              std::vector<std::unique_ptr<Conn>>& conns) {
  auto d = std::make_unique<Daemon>(path);
  if (!d->start()) die("daemon failed to start on " + path);
  conns.clear();
  for (int i = 0; i < kConnections; ++i) {
    conns.push_back(std::make_unique<Conn>());
    if (!conns.back()->connect(path)) die("cannot connect to " + path);
  }
  Conn& c = *conns.front();
  for (int pair : p.hitPairs) {
    Request r;
    r.pair = pair;
    if (!c.send(service::encodeRoute(
            wireRequest(p, r, "setup" + std::to_string(pair)))))
      die("set-up send failed");
    for (;;) {
      std::string line;
      while (!c.nextLine(line)) {
        if (!c.readSome()) die("daemon closed the connection in set-up");
      }
      service::ServiceFrame f = service::decodeFrame(line);
      if (f.type == service::FrameType::kResult) {
        p.cold[static_cast<std::size_t>(pair)] = f.reply;
        break;
      }
      if (f.type == service::FrameType::kReject) {
        // Recorded as an empty reply: every hit on this pair then fails.
        p.cold[static_cast<std::size_t>(pair)] = service::RouteReply{};
        break;
      }
    }
  }
  return d;
}

struct Window {
  std::vector<Request> reqs;
  std::vector<Outcome> out;
  double seconds = 0.0;  // first due time -> last decoded reply
  bool transportLost = false;
};

/// Drives `reqs` open-loop at kRatePerSec over the connections.
Window drive(const Plan& p, std::vector<std::unique_ptr<Conn>>& conns,
             std::vector<Request> reqs, int idBase) {
  Window w;
  w.reqs = std::move(reqs);
  const std::size_t n = w.reqs.size();
  w.out.resize(n);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kRatePerSec));
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < n; ++i)
    w.out[i].due = start + period * static_cast<long>(i);
  std::size_t next = 0, done = 0;
  std::vector<pollfd> pfds(conns.size());
  const auto limit = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     n / kRatePerSec + kDrainLimitSec));
  while (done < n && !w.transportLost) {
    auto now = Clock::now();
    while (next < n && w.out[next].due <= now) {
      Outcome& o = w.out[next];
      o.encodeStart = Clock::now();
      std::string line = service::encodeRoute(wireRequest(
          p, w.reqs[next], "q" + std::to_string(idBase + next)));
      if (!conns[next % conns.size()]->send(line)) w.transportLost = true;
      o.sent = Clock::now();
      ++next;
      now = o.sent;
    }
    if (now > limit) die("daemon stopped answering");
    timespec ts{0, 0};
    if (next < n) {
      auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
          w.out[next].due - now);
      if (wait.count() > 0) {
        ts.tv_sec = wait.count() / 1000000000;
        ts.tv_nsec = wait.count() % 1000000000;
      }
    } else {
      ts.tv_nsec = 50000000;
    }
    for (std::size_t c = 0; c < conns.size(); ++c)
      pfds[c] = {conns[c]->fd(), POLLIN, 0};
    if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (!conns[c]->readSome()) {
        w.transportLost = true;
        break;
      }
      const auto received = Clock::now();
      std::string line;
      while (conns[c]->nextLine(line)) {
        service::ServiceFrame f = service::decodeFrame(line);
        if (f.type != service::FrameType::kResult &&
            f.type != service::FrameType::kReject)
          continue;
        const std::string& id =
            f.type == service::FrameType::kResult ? f.reply.id : f.id;
        if (id.size() < 2 || id[0] != 'q') continue;
        const long k = std::atol(id.c_str() + 1) - idBase;
        if (k < 0 || static_cast<std::size_t>(k) >= n) continue;
        Outcome& o = w.out[static_cast<std::size_t>(k)];
        if (o.done) continue;
        o.received = received;
        o.frame = std::move(f);
        o.decoded = Clock::now();
        o.done = true;
        ++done;
      }
    }
  }
  Clock::time_point last = start;
  for (const Outcome& o : w.out)
    if (o.done && o.decoded > last) last = o.decoded;
  w.seconds = std::chrono::duration<double>(last - start).count();
  return w;
}

core::OptRouterOptions effectiveOptions(const Request& r) {
  core::OptRouterOptions o = sweepOptions();
  if (r.timeLimitSec > 0) o.mip.timeLimitSec = r.timeLimitSec;
  return o;
}

// Checks every reply: delivered (no reject, no transport loss), proven,
// keyed by the request's content, and -- for hits -- the cold set-up
// reply replayed byte-equivalently; for fresh solves, the same verdict as
// route(clip) and a DRC-clean solution on a freshly built union graph.
std::int64_t check(const Plan& p, const std::vector<const Window*>& windows,
                   bool tamper, std::vector<std::string>& notes) {
  const std::size_t np = p.clipText.size();
  std::vector<clip::Clip> clips;
  for (const std::string& t : p.clipText) clips.push_back(parseClip(t));
  // Reference verdicts through the other entry point.
  std::vector<Verdict> ref(np);
  for (std::size_t i = 0; i < np; ++i)
    ref[i] = verdictOf(core::OptRouter(technology(), p.rule[i], sweepOptions())
                           .route(clips[i]));

  auto replyOk = [&](int pair, const service::RouteReply& r) -> std::string {
    const std::size_t k = static_cast<std::size_t>(pair);
    Verdict v{r.status, r.errorCode, r.cost, r.bestBound};
    if (!proven(v)) return "not proven";
    if (!proven(ref[k]) || !sameVerdict(v, ref[k]))
      return "disagrees with route(clip)";
    if (!r.solutionText.empty()) {
      auto sol = route::solutionFromText(r.solutionText);
      if (!sol) return "solution text does not parse";
      return checkSolution(clips[k], freshGraph(clips[k], p.rule[k], true,
                                                nullptr),
                           *sol, r.cost, r.wirelength, r.vias, nullptr);
    }
    return "";
  };
  std::vector<std::string> coldSig(np), coldWhy(np);
  for (int pair : p.hitPairs) {
    const std::size_t k = static_cast<std::size_t>(pair);
    coldSig[k] = service::replyEquivalenceSignature(p.cold[k]);
    coldWhy[k] = "set-up solve: " + replyOk(pair, p.cold[k]);
    if (coldWhy[k] == "set-up solve: ") coldWhy[k].clear();
  }
  if (tamper) coldSig[static_cast<std::size_t>(p.hitPairs.front())] += "#";

  std::int64_t failed = 0;
  std::map<std::pair<int, double>, std::string> keys;
  for (const Window* w : windows) {
    for (std::size_t i = 0; i < w->reqs.size(); ++i) {
      const Request& rq = w->reqs[i];
      const Outcome& o = w->out[i];
      const std::size_t k = static_cast<std::size_t>(rq.pair);
      std::string why;
      if (!o.done) {
        why = "no reply (transport)";
      } else if (o.frame.type == service::FrameType::kReject) {
        why = "rejected: " + std::string(toString(o.frame.errorCode));
      } else {
        const service::RouteReply& r = o.frame.reply;
        auto& key = keys[{rq.pair, rq.timeLimitSec}];
        if (key.empty())
          key = core::resultCacheKey(clips[k], p.rule[k], effectiveOptions(rq))
                    .hex();
        if (r.cacheKey != key) {
          why = "cache key does not match the request content";
        } else if (!rq.fresh) {
          if (!coldWhy[k].empty()) {
            why = coldWhy[k];
          } else if (service::replyEquivalenceSignature(r) != coldSig[k]) {
            why = "cache replay differs from its cold solve";
          }
        } else {
          why = replyOk(rq.pair, r);
        }
      }
      if (!why.empty()) {
        ++failed;
        if (failed <= 5)
          notes.push_back("FAIL " + clips[k].id + " " + p.rule[k].name +
                          (rq.fresh ? " fresh: " : " hit: ") + why);
      }
    }
  }
  return failed;
}

std::vector<double> latencies(const Window& w) {
  std::vector<double> out;
  for (const Outcome& o : w.out)
    if (o.done) out.push_back(msBetween(o.due, o.decoded));
  return out;
}

double histP(const obs::MetricsSnapshot& d, const char* name, double p) {
  const obs::MetricsSnapshot::Entry* e = d.find(name);
  return e == nullptr ? 0.0 : e->percentile(p) / 1e6;  // ns -> ms
}

}  // namespace

Report runService(const Args& args) {
  Report rep;
  // The generator sleeps in ppoll() until the next due time; the default
  // 50 us timer slack would add up to that much lateness to every send.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Plan plan = makePlan(args);
  const char* runDir = std::getenv("OPTBENCH_RUN_DIR");
  const std::string path = std::string(runDir ? runDir : ".") +
                           "/optbench-" + std::to_string(getpid()) + ".sock";
  const int cycleLen = static_cast<int>(plan.cycleOrder.size());

  // Set-up repeated for a steady median; the last daemon serves the run.
  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Conn>> conns;
  for (int i = 0; i < 3; ++i) {
    // Fully retire the previous daemon first: its destructor unlinks its
    // socket path.
    conns.clear();
    daemon.reset();
    const auto t0 = Clock::now();
    daemon = setUp(plan, path, conns);
    setup.push_back(msBetween(t0, Clock::now()) / 1000.0);
  }

  auto cyclesFor = [&](double seconds, std::size_t minRequests) {
    const double want = std::max(seconds * kRatePerSec,
                                 static_cast<double>(minRequests));
    return std::max(1, static_cast<int>(std::ceil(want / cycleLen)));
  };

  if (!args.trace) {
    const int cycles = cyclesFor(args.seconds, args.toy ? 1 : kMinRequests);
    Window w = drive(plan, conns, schedule(plan, 0, cycles), 0);
    const double rss = peakRssMb();
    conns.clear();
    daemon->stop();
    rep.attempted = static_cast<std::int64_t>(w.reqs.size());
    rep.failed = check(plan, {&w}, args.tamper, rep.notes);
    std::string freshNote = "fresh latency ms p50/max per pair:";
    for (int pair : plan.freshPairs) {
      std::vector<double> v;
      for (std::size_t i = 0; i < w.reqs.size(); ++i)
        if (w.reqs[i].pair == pair && w.out[i].done)
          v.push_back(msBetween(w.out[i].due, w.out[i].decoded));
      char buf[96];
      std::snprintf(buf, sizeof buf, " %s/%s %.3g/%.3g",
                    plan.clipId(pair).c_str(),
                    plan.rule[static_cast<std::size_t>(pair)].name.c_str(),
                    median(v), percentile(v, 100.0));
      freshNote += buf;
    }
    rep.notes.push_back(freshNote);
    endToEnd(rep, static_cast<double>(w.reqs.size()) / w.seconds,
             latencies(w), setup, rss);
    return rep;
  }

  // Traced run: an untraced window (registry and ping deltas, overhead
  // baseline), then the same slots under client-side spans, then probes.
  const int cycles = cyclesFor(args.toy ? 0.5 : 3.0, args.toy ? 1 : 600);
  service::ServiceClient pinger;
  if (!pinger.connect("unix:" + path).isOk()) die("ping connection failed");
  auto ping0 = pinger.ping();
  const obs::MetricsSnapshot before = obs::metrics().snapshot();
  Window plain = drive(plan, conns, schedule(plan, 0, cycles), 0);
  const obs::MetricsSnapshot after = obs::metrics().snapshot();
  auto ping1 = pinger.ping();
  if (!ping0.isOk() || !ping1.isOk()) die("ping failed");
  Window traced = drive(plan, conns, schedule(plan, cycles, cycles),
                        static_cast<int>(plain.reqs.size()));
  pinger.close();
  conns.clear();
  daemon->stop();

  rep.attempted = static_cast<std::int64_t>(plain.reqs.size() +
                                            traced.reqs.size());
  rep.failed = check(plan, {&plain, &traced}, args.tamper, rep.notes);

  LayerMetrics lm;
  registryLayerMetrics(after, before, static_cast<double>(plain.reqs.size()),
                       lm);
  const obs::MetricsSnapshot d = obs::MetricsSnapshot::delta(after, before);
  lm.set("service.queue_wait_ms.p50", histP(d, "service.queue_wait_ns", 0.5));
  lm.set("service.queue_wait_ms.p99", histP(d, "service.queue_wait_ns", 0.99));
  lm.set("service.solve_hit_ms.p50", histP(d, "service.solve_ns.hit", 0.5));
  lm.set("service.solve_cold_ms.p50", histP(d, "service.solve_ns.cold", 0.5));
  lm.set("service.lease_ms.p50", histP(d, "service.lease_ns", 0.5));
  lm.set("service.reply_write_ms.p50",
         histP(d, "service.reply_write_ns", 0.5));
  const service::ServiceStats& s0 = ping0.value();
  const service::ServiceStats& s1 = ping1.value();
  const double completed = static_cast<double>(s1.completed - s0.completed);
  lm.set("service.cache_hit_ratio",
         completed > 0
             ? static_cast<double>(s1.cacheHits - s0.cacheHits) / completed
             : 0.0);
  lm.set("service.rejects",
         static_cast<double>(s1.rejectedSaturated - s0.rejectedSaturated));

  std::vector<double> transport;
  double lateMax = 0.0;
  for (const Outcome& o : plain.out) {
    lateMax = std::max(lateMax, msBetween(o.due, o.sent));
    if (o.done && o.frame.type == service::FrameType::kResult)
      transport.push_back(msBetween(o.sent, o.received) -
                          o.frame.reply.seconds * 1000.0);
  }
  lm.set("service.transport_ms.p50", median(transport));
  lm.set("service.generator_late_ms.max", lateMax);

  // Client-side spans of the traced window: generator lateness is the op's
  // own time; encode, in flight and decode are its children.
  Tracer tr;
  for (const Outcome& o : traced.out) {
    if (!o.done) continue;
    int op = tr.record("op", -1, o.due, o.decoded);
    tr.record("client.encode", op, o.encodeStart, o.sent);
    tr.record("client.inflight", op, o.sent, o.received);
    tr.record("client.decode", op, o.received, o.decoded);
  }

  // Probes: the daemon-side layer calls, re-run by the benchmark on each
  // request of the traced window (parse, cache key, codec) and on each fresh
  // solve (session build, overlay, root LP, maze, verify).
  Probes pr;
  for (std::size_t i = 0; i < traced.reqs.size(); ++i) {
    const Request& rq = traced.reqs[i];
    const Outcome& o = traced.out[i];
    if (!o.done || o.frame.type != service::FrameType::kResult) continue;
    const std::size_t k = static_cast<std::size_t>(rq.pair);
    const service::RouteRequest wire = wireRequest(plan, rq, "probe");
    const std::string resultLine = service::encodeResult(o.frame.reply);
    {
      Span s(&tr, "service.codec");
      service::encodeRoute(wire);
      service::encodeResult(service::decodeFrame(resultLine).reply);
    }
    clip::Clip c;
    {
      Span s(&tr, "clip.parse");
      c = parseClip(wire.clipText);
    }
    const core::OptRouterOptions opt = effectiveOptions(rq);
    {
      Span s(&tr, "core.cache_key");
      core::resultCacheKey(c, plan.rule[k], opt);
    }
    if (!rq.fresh) continue;
    core::ClipSessionOptions so;
    so.formulation = opt.formulation;
    std::unique_ptr<core::ClipSession> session;
    {
      Span s(&tr, "core.base_build");
      session = std::make_unique<core::ClipSession>(c, technology(), so);
    }
    {
      Span s(&tr, "core.rule_overlay");
      session->activateRule(plan.rule[k]);
    }
    const lp::LpModel& model = session->formulation().model();
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
      core::Formulation& f = session->formulation();
      mo.arcFilter = [&f](int net, int arc) {
        return f.arcAvailableTo(net, arc);
      };
      route::MazeRouter(session->clip(), session->graph(), mo).route();
    }
    auto sol = route::solutionFromText(o.frame.reply.solutionText);
    if (sol && !o.frame.reply.solutionText.empty()) {
      checkSolution(c, freshGraph(c, plan.rule[k], true, &tr), *sol,
                    o.frame.reply.cost, o.frame.reply.wirelength,
                    o.frame.reply.vias, &tr);
    }
  }
  double plainMs = 0.0;
  for (double v : latencies(plain)) plainMs += v;
  spanLayerMetrics(tr, pr, plainMs, lm);

  char buf[200];
  const double p50 = median(latencies(plain));
  const double cold = histP(d, "service.solve_ns.cold", 0.5);
  std::snprintf(buf, sizeof buf,
                "stress check: untraced latency p50 %.4f ms < "
                "service.solve_cold_ms.p50 %.4f ms: %s",
                p50, cold, p50 < cold ? "yes" : "no");
  rep.notes.push_back(buf);
  rep.metrics = lm.ordered();
  return rep;
}

}  // namespace optbench
