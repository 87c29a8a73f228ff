#include "workloads.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>

#include "core/accuracy.h"
#include "core/experiment.h"
#include "core/sweep_runner.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "trace/parallel_replay.h"
#include "trace/replay.h"
#include "trace/trace.h"

extern char **environ;

namespace perfbench {

using namespace laser;
namespace fs = std::filesystem;

namespace {

/** The paper's rate threshold (HITM/s) and Figure 9's grid around it. */
constexpr double kPaperThreshold = 1000.0;
const std::vector<double> kFig9Thresholds = {32,   64,   128,  256,
                                             512,  1000, 2000, 4000,
                                             8000, 16000, 32000, 64000};
/** Repair-trigger rates crossed with the grid (default in the middle). */
const std::vector<double> kRepairThresholds = {1750, 3500, 7000};
/** Reference passes in the set-up of the workloads that start cold. */
constexpr int kReferenceSetups = 3;

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / double(v.size()));
}

/** Seconds since @p t0 on the wall clock. */
double
since(double t0)
{
    return wallNow() - t0;
}

/** Wall and process-CPU stopwatch around one set-up. */
struct SetupTimer
{
    double wall0 = wallNow();
    double cpu0 = processCpuNow();

    void
    stop(Result &r) const
    {
        r.setupWallS.push_back(since(wall0));
        r.setupCpuS.push_back(processCpuNow() - cpu0);
    }
};

trace::CaptureOptions
captureOptions(const Params &p, const std::string &scheme)
{
    trace::CaptureOptions opt = trace::CaptureOptions::forScheme(scheme);
    opt.inputSeed = p.inputSeed;
    opt.machineSeed = p.machineSeed;
    return opt;
}

core::ExperimentConfig
experimentConfig(const Params &p)
{
    core::ExperimentConfig cfg;
    cfg.inputSeed = p.inputSeed;
    cfg.machineSeed = p.machineSeed;
    return cfg;
}

core::SweepRunner::Config
runnerConfig(const Params &p, const std::string &cache_dir)
{
    core::SweepRunner::Config cfg;
    cfg.numWorkers = p.poolWorkers;
    cfg.cacheDir = cache_dir;
    return cfg;
}

std::uint64_t
inflightDedup()
{
    return obs::Registry::global().counter("sweep.inflight_dedup").value();
}

/** Fold a runner's cache counters into @p c (core.* metrics). */
void
countRunner(Counters &c, const core::SweepRunner &runner,
            std::uint64_t dedup_before)
{
    const core::SweepStats s = runner.stats();
    c.add("core.captures", double(s.captures()));
    c.add("core.machine_runs", double(s.machineRuns));
    c.add("core.cache_hits",
          double(s.memoryCacheHits + s.diskCacheHits));
    c.add("core.inflight_dedup", double(inflightDedup() - dedup_before));
}

/** Config hash -> FNV-1a of the cache file, for every trace in @p dir. */
std::map<std::uint64_t, std::uint64_t>
imageDigests(const std::string &dir)
{
    std::map<std::uint64_t, std::uint64_t> out;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir, ec)) {
        if (e.path().extension() != trace::kTraceExtension)
            continue;
        out[std::stoull(e.path().stem().string(), nullptr, 16)] =
            fileDigest(e.path().string());
    }
    return out;
}

/**
 * One capture request as an operation: SweepRunner::captureFile when
 * untraced, the split public calls (written where the runner would have
 * cached it) when traced. Returns nullptr on failure.
 */
std::shared_ptr<const trace::TraceFile>
captureOp(core::SweepRunner &runner, const workloads::WorkloadDef &w,
          const trace::CaptureOptions &opt, bool traced, Result &r,
          Counters &c)
{
    const double t0 = wallNow();
    const double c0 = threadCpuNow();
    try {
        std::shared_ptr<const trace::TraceFile> f;
        if (traced) {
            const std::uint64_t key =
                trace::configHash(trace::makeCaptureMeta(w, opt));
            f = tracedCapture(w, opt, runner.cachePath(key), c);
        } else {
            f = runner.captureFile(w, opt);
            c.add("core.capture_s", since(t0));
        }
        r.ops.record(since(t0), threadCpuNow() - c0, true);
        return f;
    } catch (const std::exception &e) {
        r.ops.record(since(t0), threadCpuNow() - c0, false,
                     w.info.name + "/" + opt.scheme + ": " + e.what());
        return nullptr;
    }
}

/** A pass: gets (traced, counters), returns its simulated-results digest. */
using PassFn = std::function<std::uint64_t(bool, Counters &)>;

/** The first digest becomes the reference; every later one must equal it. */
void
checkDigest(Result &r, std::uint64_t dg, const std::string &which)
{
    if (r.digest == 0) {
        r.digest = dg;
        return;
    }
    r.ops.check(dg == r.digest,
                which + " simulated-results digest differs from the first");
}

/**
 * Set-up of the workloads whose passes start cold: @p count untraced
 * passes that compute the simulated-results digest every measured pass
 * must reproduce. The traced run skips it; its reference passes do the
 * same job.
 */
void
referenceSetup(const Params &p, Result &r, int count, const PassFn &pass)
{
    if (p.traced)
        return;
    Counters unused;
    for (int i = 0; i < count; ++i) {
        const SetupTimer timer;
        const std::uint64_t dg = pass(false, unused);
        timer.stop(r);
        checkDigest(r, dg, "set-up pass " + std::to_string(i + 1));
    }
}

/**
 * Repeat passes for the run time; each pass's digest must equal the
 * reference. A traced run spends the first half of its time on
 * untraced reference passes (counted into @p reference) and the second
 * half on traced passes (counted into r.layer).
 */
void
measurePasses(const Params &p, Result &r, const PassFn &pass,
              Counters &reference)
{
    r.setupPeakRssMb = selfPeakRssMb();
    std::size_t index = 0;
    auto check = [&](std::uint64_t dg) {
        checkDigest(r, dg, "pass " + std::to_string(++index));
    };
    double budget = p.seconds;
    if (p.traced) {
        budget = p.seconds / 2;
        const double start = wallNow();
        do {
            const double w0 = wallNow();
            check(pass(false, reference));
            r.referenceWallS.push_back(since(w0));
        } while (since(start) < budget);
        Tracer::get().enable();
    }
    const double start = wallNow();
    do {
        Scope root("bench.pass");
        Tracer::get().setRoot(root.id());
        r.ops.setPass(int(r.passWallS.size()));
        const double w0 = wallNow();
        const double c0 = processCpuNow();
        const std::uint64_t dg = pass(p.traced, r.layer);
        r.passWallS.push_back(since(w0));
        r.passCpuS.push_back(processCpuNow() - c0);
        check(dg);
    } while (since(start) < budget);
    if (p.traced) {
        for (double c : r.passCpuS)
            r.tracedCpuS += c;
        r.spans = Tracer::get().spans();
    }
}

/** SweepRunner numbers of the untraced reference passes, per pass. */
void
keepReferenceCore(Result &r, const Counters &reference)
{
    const double n = double(std::max<std::size_t>(1, r.referenceWallS.size()));
    for (const auto &[k, v] : reference.all())
        if (k.rfind("core.", 0) == 0)
            r.extra[k] = v / n;
}

/** Per-workload pass digests, combined in a fixed order. */
std::uint64_t
combine(const std::vector<std::uint64_t> &parts)
{
    Digest d;
    for (std::uint64_t v : parts)
        d.u64(v);
    return d.value();
}

/** Compare a traced pass's images against the reference pass's. */
void
checkImages(Result &r, const std::map<std::uint64_t, std::uint64_t> &ref,
            const std::map<std::uint64_t, std::uint64_t> &got)
{
    for (const auto &[key, fnv] : got) {
        auto it = ref.find(key);
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "traced trace image %016llx differs from the "
                      "SweepRunner image",
                      (unsigned long long)key);
        r.ops.check(it != ref.end() && it->second == fnv, buf);
    }
}

} // namespace

// ---------------------------------------------------------------------
// paper_cold

void
runPaperCold(const Params &p, Result &r)
{
    const auto &all = workloads::allWorkloads();
    std::map<std::uint64_t, std::uint64_t> ref_images;
    Counters reference;
    int fn = 0, fp = 0;
    std::vector<double> overhead;

    auto pass = [&](bool traced, Counters &c) -> std::uint64_t {
        TempDir dir(p.workDir, "cold");
        core::SweepRunner runner(runnerConfig(p, dir.path()));
        const std::uint64_t dedup0 = inflightDedup();
        struct Row
        {
            std::uint64_t digest = 0;
            std::uint64_t nativeCycles = 0;
            std::uint64_t detectCycles = 0;
            core::AccuracyResult acc;
        };
        std::vector<Row> rows(all.size());
        runner.parallelFor(all.size(), [&](std::size_t i) {
            const workloads::WorkloadDef &w = all[i];
            Row &row = rows[i];
            Digest d;
            const auto native = captureOp(
                runner, w, captureOptions(p, "native"), traced, r, c);
            const auto det = captureOp(
                runner, w, captureOptions(p, "laser-detect"), traced, r, c);
            if (!native || !det)
                return;
            row.nativeCycles = native->meta().runtimeCycles;
            row.detectCycles = det->meta().runtimeCycles;
            hashStats(d, native->meta().stats);
            hashStats(d, det->meta().stats);
            hashRecords(d, *det);

            std::unique_ptr<trace::TraceReplayer> env;
            {
                Scope s("trace.replayer");
                env = std::make_unique<trace::TraceReplayer>(det->meta(),
                                                             *det);
            }
            r.ops.check(env->ok(), w.info.name + ": replayer: " + env->error());
            if (!env->ok())
                return;
            trace::ShardedReplayCheck check;
            {
                Scope s("replay.check");
                check = trace::checkShardedReplay(*env, {kPaperThreshold},
                                                  4, &runner.pool());
            }
            r.ops.check(check.identical,
                        w.info.name +
                            ": sharded replay report differs from serial");
            const detect::DetectionReport &report = check.serialReports[0];
            hashReport(d, report);
            {
                Scope s("core.accuracy");
                row.acc = core::evaluateAccuracy(
                    w.info, core::reportLocations(report));
            }
            row.digest = d.value();
        });
        countRunner(c, runner, dedup0);
        if (traced)
            checkImages(r, ref_images, imageDigests(dir.path()));
        else if (p.traced)
            ref_images = imageDigests(dir.path());

        std::vector<std::uint64_t> parts;
        fn = fp = 0;
        overhead.clear();
        for (const Row &row : rows) {
            parts.push_back(row.digest);
            fn += row.acc.falseNegatives;
            fp += row.acc.falsePositives;
            if (row.nativeCycles > 0)
                overhead.push_back(double(row.detectCycles) /
                                   double(row.nativeCycles));
        }
        return combine(parts);
    };
    referenceSetup(p, r, kReferenceSetups, pass);
    measurePasses(p, r, pass, reference);
    keepReferenceCore(r, reference);

    r.laserFn = fn;
    r.laserFp = fp;
    r.detectOverheadPct = 100.0 * (geomean(overhead) - 1.0);
    r.peakRssMb = selfPeakRssMb();
}

// ---------------------------------------------------------------------
// replay_warm

void
runReplayWarm(const Params &p, Result &r)
{
    const auto &all = workloads::allWorkloads();
    std::vector<trace::CaptureOptions> schemes = {
        captureOptions(p, "laser-detect"), captureOptions(p, "vtune"),
        captureOptions(p, "sheriff-detect")};
    schemes[0].sav = 1; // densest PEBS stream: every HITM is a record

    // Set-up: capture everything into a fresh disk cache. Repeated for
    // a steady set-up time; the last cache serves the measured phase.
    // Each runs in a child process (this one has no threads yet): the
    // heap the captures leave fragmented would otherwise set a varying
    // floor under the measured phase's peak_rss_mb.
    std::unique_ptr<TempDir> cache;
    const int setups = p.traced ? 1 : 3;
    for (int s = 0; s < setups; ++s) {
        cache.reset(); // removing the previous cache is not set-up work
        const SetupTimer timer;
        cache = std::make_unique<TempDir>(p.workDir, "warm-cache");
        std::fflush(nullptr);
        const pid_t pid = fork();
        if (pid == 0) {
            int rc = 1;
            try {
                core::SweepRunner runner(runnerConfig(p, cache->path()));
                runner.parallelFor(all.size() * schemes.size(),
                                   [&](std::size_t k) {
                                       runner.captureFile(
                                           all[k / schemes.size()],
                                           schemes[k % schemes.size()]);
                                   });
                if (runner.stats().machineRuns == all.size() * schemes.size())
                    rc = 0;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "replay_warm set-up: %s\n", e.what());
            }
            std::_Exit(rc);
        }
        int status = 0;
        while (pid > 0 && waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        timer.stop(r);
        r.ops.check(pid > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0,
                    "replay_warm set-up did not simulate every trace");
    }

    Counters reference;
    int fn = 0, fp = 0;
    auto pass = [&](bool traced, Counters &c) -> std::uint64_t {
        (void)traced;
        core::SweepRunner runner(runnerConfig(p, cache->path()));
        const std::uint64_t dedup0 = inflightDedup();
        std::vector<std::uint64_t> parts(all.size() * schemes.size());
        std::vector<core::AccuracyResult> acc(all.size());
        // One trace at a time, as an analyst adjusting thresholds would;
        // the pool runs only the shards of the 4-way digest.
        for (std::size_t k = 0; k < parts.size(); ++k) {
            const workloads::WorkloadDef &w = all[k / schemes.size()];
            const trace::CaptureOptions &opt = schemes[k % schemes.size()];
            // Ops run one at a time, so process CPU is this op's CPU,
            // the digest shards on the pool threads included.
            const double t0 = wallNow();
            const double c0 = processCpuNow();
            bool ok = true;
            std::string why;
            auto fail = [&](const std::string &msg) {
                ok = false;
                if (why.empty())
                    why = w.info.name + "/" + opt.scheme + ": " + msg;
            };
            try {
                Digest d;
                std::shared_ptr<const trace::TraceFile> served;
                {
                    Scope s("core.capture");
                    const double serve0 = wallNow();
                    served = runner.captureFile(w, opt);
                    c.add("core.capture_s", since(serve0));
                }
                const std::string path =
                    runner.cachePath(served->storedConfigHash());

                // Read path 1: materialise the whole trace.
                trace::TraceReader reader;
                {
                    Scope s("trace.parse");
                    if (reader.readFile(path) != trace::TraceStatus::Ok)
                        fail("TraceReader: " + reader.error());
                }
                // Read path 2: open the seekable file, pull every record.
                trace::TraceFile file;
                std::uint64_t pulled = 0;
                {
                    Scope s("trace.open");
                    if (file.open(path) != trace::TraceStatus::Ok)
                        fail("TraceFile: " + file.error());
                }
                if (!ok)
                    throw std::runtime_error(why);
                {
                    Scope s("trace.cursor");
                    pulled = hashRecords(d, file);
                }
                c.add("trace.parsed_bytes", double(fs::file_size(path)));
                c.add("trace.cursor_records", double(pulled));
                Digest m;
                for (const pebs::PebsRecord &rec : reader.trace().records) {
                    m.u64(rec.pc);
                    m.u64(rec.dataAddr);
                    m.u64(std::uint64_t(rec.core));
                    m.u64(rec.cycle);
                }
                if (m.value() != d.value() ||
                        trace::configHash(reader.trace().meta) !=
                            file.storedConfigHash())
                    fail("TraceReader and TraceFile read different traces");
                hashStats(d, file.meta().stats);

                std::unique_ptr<trace::TraceReplayer> env;
                {
                    Scope s("trace.replayer");
                    env = std::make_unique<trace::TraceReplayer>(file.meta(),
                                                                 file);
                }
                if (!env->ok())
                    throw std::runtime_error("replayer: " + env->error());

                if (opt.scheme == "laser-detect") {
                    trace::ParallelReplayer::Options o1{1, &runner.pool()};
                    trace::ParallelReplayer::Options o4{4, &runner.pool()};
                    std::unique_ptr<trace::ParallelReplayer> p1, p4;
                    {
                        Scope s("replay.digest1");
                        p1 = std::make_unique<trace::ParallelReplayer>(*env,
                                                                       o1);
                    }
                    {
                        // The shards run on pool threads, outside any
                        // span; their CPU is the process's minus ours.
                        const double proc0 = processCpuNow();
                        const double self0 = threadCpuNow();
                        Scope s("replay.digest4");
                        p4 = std::make_unique<trace::ParallelReplayer>(*env,
                                                                       o4);
                        c.add("pool_cpu.replay", processCpuNow() - proc0 -
                                                     (threadCpuNow() - self0));
                    }
                    c.add("replay.digested_records", double(pulled));
                    const double default_repair =
                        detect::DetectorConfig{}.repairFsRateThreshold;
                    detect::DetectionReport at_default;
                    for (double thr : kFig9Thresholds) {
                        for (double rep : kRepairThresholds) {
                            detect::DetectorConfig cfg;
                            cfg.rateThreshold = thr;
                            cfg.repairFsRateThreshold = rep;
                            cfg.sav = file.meta().pebs.sav;
                            detect::DetectionReport r1, r4;
                            {
                                Scope s("detect.report");
                                r1 = p1->replay(cfg);
                                r4 = p4->replay(cfg);
                            }
                            c.add("detect.reports", 2);
                            if (!detect::reportsIdentical(r1, r4))
                                fail("sharded replay report differs from "
                                     "serial");
                            hashReport(d, r4);
                            if (thr == kPaperThreshold &&
                                    rep == default_repair)
                                at_default = r4;
                        }
                    }
                    // The same config replayed from the materialised trace.
                    detect::DetectionReport in_process;
                    {
                        Scope s("replay.inprocess");
                        trace::TraceReplayer mem(reader.trace());
                        in_process = mem.replayAtThreshold(kPaperThreshold);
                    }
                    if (!detect::reportsIdentical(in_process, at_default))
                        fail("disk-served report differs from in-process");
                    acc[k / schemes.size()] = core::evaluateAccuracy(
                        w.info, core::reportLocations(at_default));
                } else if (opt.scheme == "vtune") {
                    Scope s("replay.offline");
                    const baselines::VTuneReport v = env->replayVTune();
                    for (const baselines::VTuneLine &l : v.lines) {
                        d.str(l.location);
                        d.f64(l.hitmRate);
                    }
                } else {
                    Scope s("replay.offline");
                    const trace::SheriffReplay sh = env->replaySheriff();
                    d.u64(sh.report.syncOps);
                    d.u64(sh.report.chargedCycles);
                    d.u64(sh.estimatedRuntimeCycles);
                }
                parts[k] = d.value();
            } catch (const std::exception &e) {
                fail(e.what());
            }
            r.ops.record(since(t0), processCpuNow() - c0, ok, why);
        }
        countRunner(c, runner, dedup0);
        fn = fp = 0;
        for (const core::AccuracyResult &a : acc) {
            fn += a.falseNegatives;
            fp += a.falsePositives;
        }
        return combine(parts);
    };
    measurePasses(p, r, pass, reference);
    r.ops.check(r.layer.get("core.machine_runs") == 0,
                "replay_warm's measured phase ran a simulation");
    r.laserFn = fn;
    r.laserFp = fp;
    r.peakRssMb = selfPeakRssMb();
}

// ---------------------------------------------------------------------
// fabric_mix

void
runFabricMix(const Params &p, Result &r)
{
    const auto &all = workloads::allWorkloads();

    struct Fabric
    {
        const char *name;
        sim::ProtocolKind protocol;
        sim::CacheGeometry geometry;
    };
    const std::vector<Fabric> fabrics = {
        {"dragon-64B", sim::ProtocolKind::Dragon, {64, 0, 0}},
        {"dragon-128B", sim::ProtocolKind::Dragon, {128, 0, 0}},
        // 64 sets x 4 ways x 32 B: an 8 KiB private cache per core, so
        // LRU eviction and write-backs run on every workload.
        {"mesi-32B-8KiB", sim::ProtocolKind::Mesi, {32, 64, 4}},
    };
    const std::vector<core::Scheme> schemes = {
        core::Scheme::Laser, core::Scheme::VTune,
        core::Scheme::SheriffProtect, core::Scheme::ManualFix};

    // Per workload: one capture job per fabric, then one experiment job
    // per scheme that applies to it.
    struct Job
    {
        const workloads::WorkloadDef *w;
        int fabric = -1;
        core::Scheme scheme = core::Scheme::Native;
    };
    std::vector<Job> jobs;
    for (const auto &w : all) {
        for (int f = 0; f < int(fabrics.size()); ++f)
            jobs.push_back({&w, f, core::Scheme::Native});
        for (core::Scheme s : schemes)
            if (s != core::Scheme::ManualFix || w.info.hasManualFix)
                jobs.push_back({&w, -1, s});
    }

    std::map<std::uint64_t, std::uint64_t> ref_images;
    Counters reference;
    std::vector<std::string> notes;
    int fn = 0, fp = 0;
    double speedup = 0.0;

    auto pass = [&](bool traced, Counters &c) -> std::uint64_t {
        TempDir dir(p.workDir, "fabric");
        core::SweepRunner runner(runnerConfig(p, dir.path()));
        core::ExperimentRunner exp(experimentConfig(p));
        const std::uint64_t dedup0 = inflightDedup();
        struct Row
        {
            std::uint64_t digest = 0;
            core::AccuracyResult acc;
            bool repaired = false;
            double speedup = 0.0;
            bool incompatible = false;
        };
        std::vector<Row> rows(jobs.size());
        runner.parallelFor(jobs.size(), [&](std::size_t k) {
            const Job &job = jobs[k];
            const workloads::WorkloadDef &w = *job.w;
            Row &row = rows[k];
            Digest d;
            if (job.fabric >= 0) {
                trace::CaptureOptions opt = captureOptions(p, "laser-detect");
                opt.protocol = fabrics[job.fabric].protocol;
                opt.geometry = fabrics[job.fabric].geometry;
                const auto f = captureOp(runner, w, opt, traced, r, c);
                if (!f)
                    return;
                hashStats(d, f->meta().stats);
                hashRecords(d, *f);
                detect::DetectionReport report;
                {
                    Scope s("replay.detect");
                    trace::TraceReplayer env(f->meta(), *f);
                    trace::ParallelReplayer digest(
                        env, {4, &runner.pool()});
                    detect::DetectorConfig cfg;
                    cfg.sav = f->meta().pebs.sav;
                    report = digest.replay(cfg);
                }
                hashReport(d, report);
                row.acc = core::evaluateAccuracy(
                    w.info, core::reportLocations(report));
                row.digest = d.value();
                return;
            }

            auto experiment = [&](core::Scheme scheme) {
                const double t0 = wallNow();
                const double c0 = threadCpuNow();
                core::RunResult res;
                try {
                    Scope s(std::string("core.experiment.") +
                            core::schemeName(scheme));
                    res = traced ? tracedExperiment(exp, w, scheme, c)
                                 : exp.run(w, scheme);
                } catch (const std::exception &e) {
                    r.ops.record(since(t0), threadCpuNow() - c0, false,
                                 w.info.name + "/" +
                                     core::schemeName(scheme) + ": " +
                                     e.what());
                    throw;
                }
                r.ops.record(since(t0), threadCpuNow() - c0, true);
                hashRun(d, res);
                return res;
            };
            try {
                const core::RunResult res = experiment(job.scheme);
                if (job.scheme == core::Scheme::SheriffProtect &&
                        res.crashed)
                    row.incompatible = true;
                if (job.scheme == core::Scheme::Laser) {
                    row.acc = core::evaluateAccuracy(
                        w.info, core::reportLocations(res.detection));
                    if (res.repairApplied) {
                        const core::RunResult native =
                            experiment(core::Scheme::Native);
                        row.repaired = true;
                        row.speedup = double(native.runtimeCycles) /
                                      double(res.runtimeCycles);
                    }
                }
            } catch (const std::exception &) {
                return; // already logged as a failed operation
            }
            row.digest = d.value();
        });
        countRunner(c, runner, dedup0);
        if (traced)
            checkImages(r, ref_images, imageDigests(dir.path()));
        else if (p.traced)
            ref_images = imageDigests(dir.path());

        std::vector<std::uint64_t> parts;
        std::vector<int> fabric_fn(fabrics.size()), fabric_fp(fabrics.size());
        std::vector<double> speedups;
        int incompatible = 0;
        fn = fp = 0;
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            const Row &row = rows[k];
            parts.push_back(row.digest);
            if (jobs[k].fabric >= 0) {
                fabric_fn[jobs[k].fabric] += row.acc.falseNegatives;
                fabric_fp[jobs[k].fabric] += row.acc.falsePositives;
            } else if (jobs[k].scheme == core::Scheme::Laser) {
                fn += row.acc.falseNegatives;
                fp += row.acc.falsePositives;
                if (row.repaired)
                    speedups.push_back(row.speedup);
            }
            incompatible += row.incompatible ? 1 : 0;
        }
        c.add("repair.applied", double(speedups.size()));
        c.add("baselines.sheriff_incompatible", double(incompatible));
        speedup = geomean(speedups);
        notes.clear();
        for (std::size_t f = 0; f < fabrics.size(); ++f)
            notes.push_back(std::string("laser-detect accuracy under ") +
                            fabrics[f].name + ": fn " +
                            std::to_string(fabric_fn[f]) + ", fp " +
                            std::to_string(fabric_fp[f]));
        notes.push_back("repair applied on " +
                        std::to_string(speedups.size()) + " workloads; " +
                        std::to_string(incompatible) +
                        " sheriff-protect runs are Table-1 x/i (modelled)");
        return combine(parts);
    };
    referenceSetup(p, r, kReferenceSetups, pass);
    measurePasses(p, r, pass, reference);
    keepReferenceCore(r, reference);
    r.laserFn = fn;
    r.laserFp = fp;
    r.repairSpeedup = speedup;
    r.notes = notes;
    r.peakRssMb = selfPeakRssMb();
}

// ---------------------------------------------------------------------
// paper_suite

const std::vector<std::string> &
suiteHarnesses()
{
    static const std::vector<std::string> h = {
        "bench_fig03_characterization", "bench_fig09_threshold_sweep",
        "bench_fig10_overhead",         "bench_fig11_speedups",
        "bench_fig12_breakdown",        "bench_fig13_sav_sweep",
        "bench_fig14_sheriff",          "bench_table1_accuracy",
        "bench_table2_contention_type", "bench_ablation_ssb",
        "bench_protocol_sweep",
    };
    return h;
}

namespace {

struct Child
{
    int status = -1;
    double wall = 0.0;
    double cpu = 0.0;
    double maxRssMb = 0.0;
};

/** Run @p exe in @p cwd with @p env, stdout/stderr to files. */
Child
runChild(const std::string &exe, const std::vector<std::string> &args,
         const std::string &cwd, const std::vector<std::string> &env,
         const std::string &out_path)
{
    Child ch;
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(exe.c_str()));
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    std::vector<char *> envp;
    for (const std::string &e : env)
        envp.push_back(const_cast<char *>(e.c_str()));
    envp.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addchdir_np(&fa, cwd.c_str());
    posix_spawn_file_actions_addopen(&fa, 1, out_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const double t0 = wallNow();
    pid_t pid = -1;
    const int rc =
        posix_spawn(&pid, exe.c_str(), &fa, nullptr, argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0)
        return ch;
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    ch.wall = since(t0);
    ch.status = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    ch.cpu = double(ru.ru_utime.tv_sec) + 1e-6 * double(ru.ru_utime.tv_usec) +
             double(ru.ru_stime.tv_sec) + 1e-6 * double(ru.ru_stime.tv_usec);
    ch.maxRssMb = double(ru.ru_maxrss) / 1024.0;
    return ch;
}

std::string
readText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Sum of counter @p name over every METRICS_*.json in @p dir. */
double
sumCounter(const std::string &dir, const std::string &name)
{
    double total = 0.0;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir, ec)) {
        const std::string file = e.path().filename().string();
        if (file.rfind("METRICS_", 0) != 0 || e.path().extension() != ".json")
            continue;
        obs::Json doc;
        if (!obs::Json::parse(readText(e.path().string()), &doc))
            continue;
        if (const obs::Json *counters = doc.find("counters"))
            if (const obs::Json *v = counters->find(name))
                total += v->asNumber();
    }
    return total;
}

} // namespace

void
runPaperSuite(const Params &p, Result &r)
{
    for (const std::string &h : suiteHarnesses())
        r.ops.check(access((p.binDir + "/" + h).c_str(), X_OK) == 0,
                    "missing harness binary " + h);

    const std::string checker =
        fs::absolute(p.binDir + "/bench_schema_check").string();
    // The children's environment: ours (main() removed the LASER_*
    // variables) with a TMPDIR of each pass's own.
    std::vector<std::string> base_env;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "TMPDIR=", 7) != 0)
            base_env.push_back(*e);

    double peak = 0.0;
    Counters reference;
    auto pass = [&](bool traced, Counters &c) -> std::uint64_t {
        TempDir dir(p.workDir, "suite");
        const std::string tmp = dir.path() + "/tmp";
        const std::string metrics = dir.path() + "/metrics";
        fs::create_directories(tmp);
        std::vector<std::string> env = base_env;
        env.push_back("TMPDIR=" + fs::absolute(tmp).string());
        if (traced)
            env.push_back("LASER_METRICS_OUT=" +
                          fs::absolute(metrics).string());
        Digest d;
        for (const std::string &h : suiteHarnesses()) {
            const std::string out = dir.path() + "/" + h + ".out";
            Scope span("suite." + h);
            const Child ch =
                runChild(fs::absolute(p.binDir + "/" + h).string(), {},
                         dir.path(), env, out);
            r.ops.record(ch.wall, ch.cpu, ch.status == 0,
                         h + " exited with status " +
                             std::to_string(ch.status));
            peak = std::max(peak, ch.maxRssMb);
            if (traced) {
                c.add("suite." + h + ".wall_s", ch.wall);
                c.add("suite." + h + ".cpu_s", ch.cpu);
            }
            // Table rows are simulated results; free text carries timings.
            std::istringstream lines(readText(out));
            std::string line;
            while (std::getline(lines, line))
                if (!line.empty() && line[0] == '|')
                    d.str(line);
        }
        if (traced) {
            const Child ch = runChild(checker, {"--dir", metrics}, dir.path(),
                                      env, dir.path() + "/schema_check.out");
            r.ops.check(ch.status == 0,
                        "bench_schema_check rejected a BENCH doc: " +
                            readText(dir.path() + "/schema_check.out"));
            c.add("suite.machine_runs",
                  sumCounter(metrics, "sweep.machine_runs"));
            c.add("suite.cache_hits",
                  sumCounter(metrics, "sweep.cache_hits.memory") +
                      sumCounter(metrics, "sweep.cache_hits.disk"));
            c.add("suite.pebs_records",
                  sumCounter(metrics, "pebs.records_sampled"));
            c.add("suite.detect_records",
                  sumCounter(metrics, "detect.records_ingested"));
        }
        return d.value();
    };
    // One reference pass: a pass takes seconds, which is steady enough.
    // Its children do not count in peak_rss_mb.
    referenceSetup(p, r, 1, pass);
    peak = 0.0;
    measurePasses(p, r, pass, reference);
    r.peakRssMb = peak;
}

} // namespace perfbench
