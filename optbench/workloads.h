// The three benchmark workloads. Each returns the run's report: attempted /
// failed op counts, and either the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).
#pragma once

#include <string>
#include <vector>

#include "bench.h"

namespace optbench {

Report runSweep(const Args& args);
Report runRootbound(const Args& args);
Report runService(const Args& args);

/// One clip of the sweep generator (by seed) as clip text -- the program's
/// input -- with its id drawn from the run seed. The service workload's
/// requests name clips of this generator too.
std::string sweepClipText(std::uint64_t genSeed, std::uint64_t runSeed);

/// Solver options of every sweep-generator solve: serial B&B, nets confined
/// to their pin bounding boxes, a time limit no solve reaches.
optr::core::OptRouterOptions sweepOptions();

/// Parses clip text the benchmark generated itself (aborts on failure).
optr::clip::Clip parseClip(const std::string& text);

}  // namespace optbench
