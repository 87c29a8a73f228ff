/**
 * @file
 * The traced run's view of the program: the public calls behind one
 * capture or one baseline experiment, made one at a time with a span
 * around each, plus the per-layer work counters and the digest of
 * simulated results that both runs share.
 */

#ifndef LASER_PERFBENCH_LAYERS_H
#define LASER_PERFBENCH_LAYERS_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "baselines/sheriff.h"
#include "baselines/vtune.h"
#include "core/experiment.h"
#include "detect/types.h"
#include "sim/machine.h"
#include "support.h"
#include "trace/capture.h"
#include "trace/source.h"
#include "trace/trace_file.h"
#include "workloads/workload.h"

namespace perfbench {

/** Thread-safe named work counters (summed over a pass). */
class Counters
{
  public:
    void add(const std::string &name, double v);
    double get(const std::string &name) const;
    std::map<std::string, double> all() const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, double> v_;
};

/** Fold one machine run's statistics into the sim.* counters. */
void countMachine(Counters &c, const laser::sim::MachineStats &s);

void hashStats(Digest &d, const laser::sim::MachineStats &s);
void hashReport(Digest &d, const laser::detect::DetectionReport &r);
void hashRun(Digest &d, const laser::core::RunResult &r);
/** Hash a stream by pulling it through a cursor; returns the count. */
std::uint64_t hashRecords(Digest &d, const laser::trace::RecordSource &src);

/** Whole-file FNV-1a of @p path (0 when unreadable). */
std::uint64_t fileDigest(const std::string &path);

/**
 * captureTrace's public calls one at a time, each under its own span:
 * WorkloadDef::build, Machine construction, applyTo, setPmuSink with a
 * TimingSink, run, sortByCycle, TraceWriter, writeFile. The image is
 * written as @p path and opened as the returned TraceFile. Supports the
 * schemes the benchmark captures (laser-detect, native, vtune,
 * sheriff-detect).
 */
std::shared_ptr<const laser::trace::TraceFile>
tracedCapture(const laser::workloads::WorkloadDef &w,
              const laser::trace::CaptureOptions &opt,
              const std::string &path, Counters &c);

/**
 * ExperimentRunner::run for Native, ManualFix, VTune and SheriffProtect
 * made as separate public calls (same result, field for field), so the
 * traced run can time the baseline sinks. Laser goes through
 * ExperimentRunner::run unchanged.
 */
laser::core::RunResult
tracedExperiment(laser::core::ExperimentRunner &runner,
                 const laser::workloads::WorkloadDef &w,
                 laser::core::Scheme scheme, Counters &c);

} // namespace perfbench

#endif // LASER_PERFBENCH_LAYERS_H
