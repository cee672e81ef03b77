// OptRouter benchmark program.
//
//   optbench --workload sweep|rootbound|service --seed N --seconds S
//            --trace 0|1 [--toy] [--tamper]
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 replays the
// same ops under the benchmark's spans and prints the per-layer metrics.
// Every op's output is checked after the timed window. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The service workload puts its unix socket in $OPTBENCH_RUN_DIR (default:
// the working directory); run.py points it at the build tree.

#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define OPTBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define OPTBENCH_SANITIZED 1
#endif
#endif

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "optbench: %s\nusage: optbench --workload "
               "sweep|rootbound|service --seed N --seconds S --trace 0|1 "
               "[--toy] [--tamper]\n",
               msg);
  std::exit(2);
}

optbench::Args parseArgs(int argc, char** argv) {
  optbench::Args a;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
      haveWorkload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (k == "--trace") {
      a.trace = value() == "1";
    } else if (k == "--toy") {
      a.toy = true;
    } else if (k == "--tamper") {
      a.tamper = true;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!haveWorkload) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const optbench::Args args = parseArgs(argc, argv);
  // A fixed mmap threshold turns off glibc's adaptive one, under which the
  // heap's high-water mark depended on the order of large allocations (the
  // seeded op order); peak_rss_mb then follows live memory instead.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#if defined(OPTBENCH_SANITIZED)
  std::fprintf(stderr, "optbench: refusing to time a sanitizer build\n");
  return 2;
#endif
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "optbench: refusing to time an unoptimised build\n");
  return 2;
#endif
#if defined(OPTR_OBS_DISABLED)
  const char* obs = "OFF";
#else
  const char* obs = "ON";
#endif
  // The service workload runs the daemon's poll loop and two broker
  // workers beside the generator thread; the others are single-threaded.
  const int threads = args.workload == "service" ? 4 : 1;
  std::printf(
      "context: workload=%s seed=%llu seconds=%g trace=%d toy=%d nproc=%ld "
      "hw_threads=%u bench_threads=%d mip_threads=1 build=%s compiler=%s "
      "OPTR_OBS=%s\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, args.toy ? 1 : 0,
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      threads, OPTBENCH_BUILD_TYPE, OPTBENCH_COMPILER, obs);
  std::fflush(stdout);

  optbench::Report rep;
  if (args.workload == "sweep") {
    rep = optbench::runSweep(args);
  } else if (args.workload == "rootbound") {
    rep = optbench::runRootbound(args);
  } else if (args.workload == "service") {
    rep = optbench::runService(args);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }

  for (const std::string& n : rep.notes) std::printf("%s\n", n.c_str());
  std::printf("attempted=%lld failed=%lld\n",
              static_cast<long long>(rep.attempted),
              static_cast<long long>(rep.failed));
  for (const optbench::Metric& m : rep.metrics)
    std::printf("metric %s = %.10g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());

  std::string json = "{\"correct\": ";
  json += (rep.failed == 0 && rep.attempted > 0) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const optbench::Metric& m = rep.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
