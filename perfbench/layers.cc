#include "layers.h"

#include <fstream>
#include <stdexcept>

#include "analysis/sink.h"
#include "pebs/monitor.h"

namespace perfbench {

using namespace laser;

// ---------------------------------------------------------------------
// Counters

void
Counters::add(const std::string &name, double v)
{
    std::lock_guard<std::mutex> lock(mu_);
    v_[name] += v;
}

double
Counters::get(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = v_.find(name);
    return it == v_.end() ? 0.0 : it->second;
}

std::map<std::string, double>
Counters::all() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return v_;
}

void
countMachine(Counters &c, const sim::MachineStats &s)
{
    c.add("sim.instructions", double(s.instructions));
    c.add("sim.accesses", double(s.loads + s.stores + s.atomics));
    c.add("sim.hitm", double(s.hitmTotal()));
    c.add("sim.rfos", double(s.rfos));
    c.add("sim.upgrades", double(s.upgrades));
    c.add("sim.mem_misses", double(s.memMisses));
    c.add("sim.ssb_flushes", double(s.ssbFlushes));
    c.add("sim.alias_misspecs", double(s.aliasMisspecs));
    c.add("sim.cycles", double(s.cycles));
}

// ---------------------------------------------------------------------
// Digests of simulated results

void
hashStats(Digest &d, const sim::MachineStats &s)
{
    for (std::uint64_t v :
         {s.cycles, s.instructions, s.loads, s.stores, s.atomics, s.l1Hits,
          s.llcHits, s.memMisses, s.upgrades, s.rfos, s.hitmLoads,
          s.hitmStores, s.syncOps, s.ssbStores, s.ssbLoadHits, s.ssbFlushes,
          s.ssbFlushedEntries, s.ssbMaxEntriesSeen, s.aliasChecks,
          s.aliasMisspecs, std::uint64_t(s.truncated)})
        d.u64(v);
    for (std::uint64_t v : s.threadCycles)
        d.u64(v);
    for (std::uint64_t v : s.threadInstructions)
        d.u64(v);
}

void
hashReport(Digest &d, const detect::DetectionReport &r)
{
    d.u64(r.lines.size());
    for (const detect::LineReport &l : r.lines) {
        d.str(l.location);
        d.u64(l.library);
        d.u64(l.records);
        d.f64(l.hitmRate);
        d.u64(l.tsEvents);
        d.u64(l.fsEvents);
        d.u64(std::uint64_t(l.type));
    }
    for (std::uint64_t v :
         {r.totalRecords, r.droppedPcFilter, r.droppedStackData,
          std::uint64_t(r.repairRequested), r.repairTriggerCycle,
          r.detectorCycles})
        d.u64(v);
    d.f64(r.seconds);
    for (std::uint32_t pc : r.repairPcs)
        d.u64(pc);
}

void
hashRun(Digest &d, const core::RunResult &r)
{
    d.u64(std::uint64_t(r.scheme));
    d.u64(r.runtimeCycles);
    d.u64(r.crashed);
    hashStats(d, r.stats);
    for (std::uint64_t v : {r.pebs.hitmEvents, r.pebs.samples,
                            r.pebs.interrupts, r.pebs.appCycles})
        d.u64(v);
    hashReport(d, r.detection);
    d.u64(r.vtune.hitmEvents);
    for (const baselines::VTuneLine &l : r.vtune.lines) {
        d.str(l.location);
        d.u64(l.records);
        d.f64(l.hitmRate);
    }
    for (const std::string &site : r.sheriff.reportedSites)
        d.str(site);
    d.u64(r.sheriff.syncOps);
    d.u64(r.sheriff.dirtyPagesCommitted);
    d.u64(r.sheriff.chargedCycles);
    d.u64(r.repairApplied);
    d.f64(r.repairTriggerFraction);
}

std::uint64_t
hashRecords(Digest &d, const trace::RecordSource &src)
{
    std::unique_ptr<trace::RecordCursor> cur = src.cursor();
    pebs::PebsRecord rec;
    std::uint64_t n = 0;
    while (cur->next(&rec)) {
        d.u64(rec.pc);
        d.u64(rec.dataAddr);
        d.u64(std::uint64_t(rec.core));
        d.u64(rec.cycle);
        ++n;
    }
    if (cur->status() != trace::TraceStatus::Ok)
        throw std::runtime_error("record cursor failed: " +
                                 std::string(trace::traceStatusName(
                                     cur->status())));
    return n;
}

std::uint64_t
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    Digest d;
    char buf[1 << 16];
    while (in) {
        in.read(buf, sizeof buf);
        d.bytes(buf, std::size_t(in.gcount()));
    }
    return d.value();
}

// ---------------------------------------------------------------------
// Traced capture

namespace {

/** Machine::run under a timing forwarder; the sink time is a child span. */
sim::MachineStats
timedRun(sim::Machine &m, sim::PmuSink *sink, unsigned timed,
         const char *sink_span, Counters &c, const std::string &sink_counter)
{
    TimingSink timing(sink, timed);
    if (sink)
        m.setPmuSink(&timing);
    sim::MachineStats stats;
    {
        Scope s("sim.run");
        const double t0 = wallNow();
        stats = m.run();
        if (sink)
            Tracer::get().addChild(sink_span, t0, timing.seconds());
    }
    if (sink) {
        c.add(sink_counter, timing.seconds());
        if (std::string(sink_span) == "pebs.sink")
            c.add("pebs.hitm", double(timing.hitmCalls()));
    }
    countMachine(c, stats);
    return stats;
}

} // namespace

std::shared_ptr<const trace::TraceFile>
tracedCapture(const workloads::WorkloadDef &w,
              const trace::CaptureOptions &opt, const std::string &path,
              Counters &c)
{
    trace::Trace tr;
    tr.meta = trace::makeCaptureMeta(w, opt);

    workloads::WorkloadBuild build;
    {
        Scope s("workloads.build");
        build = w.build(tr.meta.build);
    }
    c.add("workloads.builds", 1);
    std::unique_ptr<sim::Machine> m;
    {
        Scope s("sim.machine");
        m = std::make_unique<sim::Machine>(std::move(build.program),
                                           tr.meta.machine);
    }
    {
        Scope s("workloads.apply");
        build.applyTo(*m);
    }

    if (opt.scheme == "laser-detect") {
        pebs::PebsMonitor monitor(m->addressSpace(), m->program().size(),
                                  opt.timing, tr.meta.pebs);
        tr.meta.stats = timedRun(*m, &monitor, TimingSink::kHitm,
                                 "pebs.sink", c, "pebs.sink_s");
        {
            Scope s("pebs.finish");
            monitor.finish();
        }
        tr.records = monitor.records();
        c.add("pebs.records", double(tr.records.size()));
    } else if (opt.scheme == "vtune") {
        baselines::VTuneModel vtune(m->program(), m->addressSpace(),
                                    opt.timing, opt.vtune);
        tr.meta.stats =
            timedRun(*m, &vtune, TimingSink::kHitm | TimingSink::kMemop,
                     "baselines.sink", c, "baselines.sink_s");
        {
            Scope s("baselines.finish");
            vtune.finish(tr.meta.stats.cycles);
        }
        tr.records = vtune.records();
        c.add("baselines.records", double(tr.records.size()));
    } else if (opt.scheme == "sheriff-detect") {
        baselines::SheriffModel sheriff(tr.meta.sheriff,
                                        /*capture_stream=*/true);
        tr.meta.stats = timedRun(*m, &sheriff, TimingSink::kSync,
                                 "baselines.sink", c, "baselines.sink_s");
        tr.records = sheriff.records();
        c.add("baselines.records", double(tr.records.size()));
    } else if (opt.scheme == "native") {
        tr.meta.stats = timedRun(*m, nullptr, 0, "", c, "");
    } else {
        throw std::invalid_argument("tracedCapture: scheme " + opt.scheme);
    }
    tr.meta.runtimeCycles = tr.meta.stats.cycles;
    tr.meta.mapsText = m->addressSpace().renderProcMaps();

    {
        Scope s("trace.sort");
        analysis::sortByCycle(&tr.records);
    }
    std::unique_ptr<trace::TraceWriter> writer;
    {
        Scope s("trace.encode");
        writer = std::make_unique<trace::TraceWriter>(tr.meta);
        writer->appendAll(tr.records);
    }
    {
        Scope s("trace.write");
        if (writer->writeFile(path) != trace::TraceStatus::Ok)
            throw std::runtime_error("writeFile failed: " + path);
    }
    auto file = std::make_shared<trace::TraceFile>();
    {
        Scope s("trace.open");
        if (file->open(path) != trace::TraceStatus::Ok)
            throw std::runtime_error("open failed: " + file->error());
    }
    c.add("trace.encoded_records", double(tr.records.size()));
    c.add("trace.encoded_bytes", double(file->payloadBytes()));
    return file;
}

// ---------------------------------------------------------------------
// Traced baseline experiments

core::RunResult
tracedExperiment(core::ExperimentRunner &runner,
                 const workloads::WorkloadDef &w, core::Scheme scheme,
                 Counters &c)
{
    const core::ExperimentConfig &cfg = runner.config();
    core::RunResult result;
    result.scheme = scheme;

    workloads::BuildOptions bo;
    bo.manualFix = scheme == core::Scheme::ManualFix;
    bo.numThreads = cfg.numThreads;
    bo.inputSeed = cfg.inputSeed;
    sim::MachineConfig mc;
    mc.numCores = cfg.numThreads;
    mc.timing = cfg.timing;
    mc.protocol = cfg.protocol;
    mc.geometry = cfg.geometry;
    mc.seed = cfg.machineSeed;

    const bool sheriff = scheme == core::Scheme::SheriffProtect;
    if (sheriff) {
        switch (w.info.sheriff) {
          case workloads::SheriffCompat::Crash:
            result.crashed = true;
            result.crashReason = "runtime error";
            return result;
          case workloads::SheriffCompat::Incompatible:
            result.crashed = true;
            result.crashReason = "unsupported pthreads/OpenMP constructs";
            return result;
          case workloads::SheriffCompat::WorksSmallInput:
            bo.scale *= cfg.sheriffSmallScale;
            break;
          case workloads::SheriffCompat::Works:
            break;
        }
        mc.threadsAsProcesses = true;
        mc.trackDirtyPages = true;
    } else if (scheme != core::Scheme::Native &&
               scheme != core::Scheme::ManualFix &&
               scheme != core::Scheme::VTune) {
        return runner.run(w, scheme);
    }

    workloads::WorkloadBuild build;
    {
        Scope s("workloads.build");
        build = w.build(bo);
    }
    c.add("workloads.builds", 1);
    std::unique_ptr<sim::Machine> m;
    {
        Scope s("sim.machine");
        m = std::make_unique<sim::Machine>(std::move(build.program), mc);
    }
    {
        Scope s("workloads.apply");
        build.applyTo(*m);
    }

    if (scheme == core::Scheme::VTune) {
        baselines::VTuneModel vtune(m->program(), m->addressSpace(),
                                    cfg.timing, cfg.vtune);
        result.stats =
            timedRun(*m, &vtune, TimingSink::kHitm | TimingSink::kMemop,
                     "baselines.sink", c, "baselines.sink_s");
        Scope s("baselines.finish");
        result.vtune = vtune.finish(result.stats.cycles);
        c.add("baselines.records", double(vtune.records().size()));
    } else if (sheriff) {
        baselines::SheriffConfig sc = cfg.sheriff;
        sc.detectMode = false;
        baselines::SheriffModel model(sc, false);
        result.stats = timedRun(*m, &model, TimingSink::kSync,
                                "baselines.sink", c, "baselines.sink_s");
        result.sheriff = model.finish();
    } else {
        result.stats = timedRun(*m, nullptr, 0, "", c, "");
    }
    result.runtimeCycles = result.stats.cycles;
    return result;
}

} // namespace perfbench
