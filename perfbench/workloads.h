/**
 * @file
 * The benchmark's four workloads. Each one runs its set-up, then
 * repeats whole passes of its measured phase until the run time is
 * spent; every pass starts from empty caches except replay_warm's, which
 * starts from the disk cache its set-up wrote. The set-up of the cold
 * workloads is untraced reference passes whose simulated-results digest
 * the measured passes must reproduce.
 *
 * The untraced run makes the program's own top-level calls. The traced
 * run first makes such passes for half its time as a reference (their
 * wall time is the baseline of the tracing overhead, their trace images
 * the reference of the byte-identity check), then repeats passes with
 * spans on and every capture split into its public calls.
 */

#ifndef LASER_PERFBENCH_WORKLOADS_H
#define LASER_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "layers.h"
#include "support.h"

namespace perfbench {

/** Command-line parameters of one run. */
struct Params
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool traced = false;
    /** Directory holding the paper harness binaries. */
    std::string binDir;
    /** Working root for caches, temp dirs and span files. */
    std::string workDir;
    /** Pool workers; the calling thread also runs tasks. */
    int poolWorkers = 3;
    std::uint64_t inputSeed = 0x5eed;
    std::uint64_t machineSeed = 0x1a5e2;
};

/** Everything one run measured. */
struct Result
{
    /** Each set-up's wall time and process CPU time. */
    std::vector<double> setupWallS;
    std::vector<double> setupCpuS;
    std::vector<double> passWallS;
    std::vector<double> passCpuS;
    OpLog ops;
    /** Peak resident set (of the measured children for paper_suite). */
    double peakRssMb = 0.0;
    /** Peak resident set of this process before the measured phase. */
    double setupPeakRssMb = 0.0;
    /** FNV-1a over the reference pass's simulated results (0 = none). */
    std::uint64_t digest = 0;

    // Simulated outcomes; NaN where the workload does not produce them.
    double laserFn = std::numeric_limits<double>::quiet_NaN();
    double laserFp = std::numeric_limits<double>::quiet_NaN();
    double detectOverheadPct = std::numeric_limits<double>::quiet_NaN();
    double repairSpeedup = std::numeric_limits<double>::quiet_NaN();
    /** Extra human-readable result lines (per-fabric accuracy, ...). */
    std::vector<std::string> notes;

    // Traced run only.
    /** Work counters summed over the traced passes. */
    Counters layer;
    /** Per-layer values computed by the workload itself (not summed). */
    std::map<std::string, double> extra;
    std::vector<Span> spans;
    /** Process CPU of the traced passes. */
    double tracedCpuS = 0.0;
    /** Wall times of the untraced reference passes. */
    std::vector<double> referenceWallS;
};

void runPaperCold(const Params &p, Result &r);
void runReplayWarm(const Params &p, Result &r);
void runFabricMix(const Params &p, Result &r);
void runPaperSuite(const Params &p, Result &r);

/** The paper harnesses paper_suite runs, in order. */
const std::vector<std::string> &suiteHarnesses();

} // namespace perfbench

#endif // LASER_PERFBENCH_WORKLOADS_H
