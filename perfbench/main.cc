/**
 * @file
 * LASER benchmark: runs one workload for a fixed time, checks
 * its outputs and prints every metric by name with its unit, then one
 * JSON result line.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    --bin-dir DIR --work-dir DIR
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * metrics of a separate traced run. See README.md beside this file.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "support.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/** Seed 0 reproduces the program defaults (and the paper tables). */
void
deriveSeeds(Params &p)
{
    p.inputSeed = 0x5eed + p.seed * 0x9e3779b97f4a7c15ull;
    p.machineSeed = 0x1a5e2 + p.seed * 0xbf58476d1ce4e5b9ull;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper_cold|replay_warm|fabric_mix|paper_suite --seed N "
                 "--seconds S --trace 0|1 --bin-dir DIR --work-dir DIR\n",
                 msg);
    return 2;
}

/** Metric sink that prints aligned text lines and collects the JSON. */
class Report
{
  public:
    /** A metric of the JSON result line (and the text report). */
    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note = "")
    {
        if (!std::isfinite(value))
            value = 0.0;
        print(name, value, unit, note);
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        if (!json_.empty())
            json_ += ", ";
        json_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                 unit + "\"}";
    }

    /** A text-only line. */
    static void
    print(const std::string &name, double value, const std::string &unit,
          const std::string &note = "")
    {
        std::printf("  %-36s %16.6f %-6s %s\n", name.c_str(), value,
                    unit.c_str(), note.c_str());
    }

    const std::string &json() const { return json_; }

  private:
    std::string json_;
};

/** A simulated outcome printed by name; "n/a" where not produced. */
void
printOutcome(const char *name, double v, const char *unit)
{
    if (std::isnan(v))
        std::printf("  %-36s %16s %-6s (not produced by this workload)\n",
                    name, "n/a", unit);
    else
        Report::print(name, v, unit, "(simulated)");
}

/**
 * Operation tail: the highest percentile with at least 10 operations
 * beyond it, taken within each pass and reported as the median over
 * passes. paper_suite's 11 operations per pass leave 10 beyond nothing
 * but the minimum, so passes of fewer than 20 operations are pooled.
 */
Tail
opTail(const std::vector<OpLog::Op> &ops, bool cpu)
{
    std::map<int, std::vector<double>> by_pass;
    std::vector<double> pooled;
    for (const OpLog::Op &op : ops) {
        by_pass[op.pass].push_back(cpu ? op.cpuMs : op.wallMs);
        pooled.push_back(cpu ? op.cpuMs : op.wallMs);
    }
    std::vector<double> values, percentiles;
    for (const auto &[pass, v] : by_pass) {
        if (v.size() < 20)
            return tailPercentile(pooled);
        const Tail t = tailPercentile(v);
        values.push_back(t.value);
        percentiles.push_back(t.percentile);
    }
    return {median(percentiles), median(values)};
}

void
endToEnd(const Params &p, Result &r, Report &out)
{
    const std::vector<OpLog::Op> ops = r.ops.ops();
    std::vector<double> wall_ms, cpu_ms;
    for (const OpLog::Op &op : ops) {
        wall_ms.push_back(op.wallMs);
        cpu_ms.push_back(op.cpuMs);
    }
    const std::string passes =
        "median of " + std::to_string(r.passWallS.size()) + " passes";
    const std::string of_ops = std::to_string(ops.size()) + " operations";
    char note[160];

    out.add("setup_s", median(r.setupCpuS), "s",
            "CPU, median of " + std::to_string(r.setupCpuS.size()) +
                " set-ups");
    out.add("cpu_s", median(r.passCpuS), "s",
            "user+sys with children, " + passes);
    if (p.workload == "paper_suite") {
        out.add("peak_rss_mb", r.peakRssMb, "MB",
                "max over measured harness processes");
    } else {
        std::snprintf(note, sizeof note,
                      "whole process; %.1f MB before the measured phase",
                      r.setupPeakRssMb);
        out.add("peak_rss_mb", r.peakRssMb, "MB", note);
    }
    out.add("op_cpu_p50_ms", median(cpu_ms), "ms", "CPU, of " + of_ops);
    const Tail cpu_tail = opTail(ops, true);
    std::snprintf(note, sizeof note, "CPU, p%.1f, %s", cpu_tail.percentile,
                  of_ops.c_str());
    out.add("op_cpu_tail_ms", cpu_tail.value, "ms", note);

    // Wall-clock figures: reported, not gated (see README, "Spread").
    Report::print("setup_wall_s", median(r.setupWallS), "s", "wall");
    Report::print("wall_s", median(r.passWallS), "s", "wall, " + passes);
    Report::print("op_p50_ms", median(wall_ms), "ms", "wall, of " + of_ops);
    const Tail wall_tail = opTail(ops, false);
    std::snprintf(note, sizeof note, "wall, p%.1f, %s", wall_tail.percentile,
                  of_ops.c_str());
    Report::print("op_tail_ms", wall_tail.value, "ms", note);

    const double attempted = double(r.ops.attempted());
    std::snprintf(note, sizeof note, "%llu of %llu operations and checks",
                  (unsigned long long)r.ops.failed(),
                  (unsigned long long)r.ops.attempted());
    Report::print("failed_frac",
                  attempted > 0 ? double(r.ops.failed()) / attempted : 0.0,
                  "frac", note);
    printOutcome("laser_fn", r.laserFn, "count");
    printOutcome("laser_fp", r.laserFp, "count");
    printOutcome("detect_overhead_pct", r.detectOverheadPct, "%");
    printOutcome("repair_speedup", r.repairSpeedup, "x");
}

/** Per-layer metrics of the traced run, averaged per traced pass. */
void
perLayer(Result &r, Report &out)
{
    const double n = double(std::max<std::size_t>(1, r.passWallS.size()));
    const std::map<std::string, SelfTime> self = selfTimes(r.spans);
    // Layer times are self thread-CPU seconds per pass; the parallel
    // digest and the experiments are inclusive wall seconds.
    auto cpu = [&](const std::string &name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second.cpu / n;
    };
    auto inclusive = [&](const std::string &name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second.totalWall / n;
    };
    auto count = [&](const std::string &name) {
        return r.layer.get(name) / n;
    };
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

    out.add("workloads.build_s", cpu("workloads.build"), "s");
    out.add("workloads.builds", count("workloads.builds"), "count");

    const double run_s = cpu("sim.run");
    out.add("sim.run_s", run_s, "s", "Machine::run minus sink time");
    out.add("sim.instructions", count("sim.instructions"), "count");
    out.add("sim.minst_per_s", ratio(count("sim.instructions") / 1e6, run_s),
            "M/s");
    out.add("sim.accesses", count("sim.accesses"), "count");
    out.add("sim.maccess_per_s", ratio(count("sim.accesses") / 1e6, run_s),
            "M/s");
    for (const char *k : {"sim.hitm", "sim.rfos", "sim.upgrades",
                          "sim.mem_misses", "sim.ssb_flushes",
                          "sim.alias_misspecs", "sim.cycles"})
        out.add(k, count(k), "count");

    out.add("pebs.sink_s", count("pebs.sink_s"), "s");
    out.add("pebs.records", count("pebs.records"), "count");
    out.add("pebs.records_per_hitm",
            ratio(count("pebs.records"), count("pebs.hitm")), "ratio");
    out.add("baselines.sink_s", count("baselines.sink_s"), "s");
    out.add("baselines.records", count("baselines.records"), "count");
    out.add("baselines.sheriff_incompatible",
            count("baselines.sheriff_incompatible"), "count");

    const double encode_s = cpu("trace.encode");
    out.add("trace.encode_s", encode_s, "s");
    out.add("trace.encode_mb_per_s",
            ratio(count("trace.encoded_bytes") / 1e6, encode_s), "MB/s");
    out.add("trace.write_s", cpu("trace.write"), "s");
    out.add("trace.bytes_per_record",
            ratio(count("trace.encoded_bytes"), count("trace.encoded_records")),
            "B");
    const double parse_s = cpu("trace.parse");
    out.add("trace.parse_s", parse_s, "s");
    out.add("trace.parse_mb_per_s",
            ratio(count("trace.parsed_bytes") / 1e6, parse_s), "MB/s");
    out.add("trace.open_s", cpu("trace.open"), "s");
    out.add("trace.cursor_mrec_per_s",
            ratio(count("trace.cursor_records") / 1e6, cpu("trace.cursor")),
            "M/s");
    out.add("trace.replayer_s", cpu("trace.replayer"), "s");

    const double d1 = inclusive("replay.digest1");
    const double d4 = inclusive("replay.digest4");
    out.add("replay.digest1_s", d1, "s");
    out.add("replay.digest4_s", d4, "s");
    out.add("replay.digest_mrec_per_s",
            ratio(count("replay.digested_records") / 1e6, d1), "M/s",
            "1-shard digest");
    out.add("replay.shard_speedup", ratio(d1, d4), "x");
    out.add("detect.report_s", cpu("detect.report"), "s");
    out.add("detect.reports", count("detect.reports"), "count");
    out.add("replay.offline_s", cpu("replay.offline"), "s");

    // Workloads that split their captures take the SweepRunner numbers
    // from the untraced reference pass; replay_warm from its own passes.
    auto core = [&](const std::string &k) {
        auto it = r.extra.find(k);
        return it != r.extra.end() ? it->second : count(k);
    };
    out.add("core.capture_s", core("core.capture_s"), "s");
    out.add("core.captures", core("core.captures"), "count");
    out.add("core.machine_runs", core("core.machine_runs"), "count");
    out.add("core.cache_hit_ratio",
            ratio(core("core.cache_hits"), core("core.captures")), "ratio");
    out.add("core.inflight_dedup", core("core.inflight_dedup"), "count");
    for (const char *s : {"laser", "vtune", "sheriff-protect", "manual-fix",
                          "native"})
        out.add(std::string("core.experiment_s.") + s,
                inclusive(std::string("core.experiment.") + s), "s");
    out.add("repair.applied", count("repair.applied"), "count");

    double suite_cpu = 0.0;
    for (const std::string &h : suiteHarnesses()) {
        const std::string base = "suite." + h.substr(6); // drop "bench_"
        out.add(base + ".wall_s", count("suite." + h + ".wall_s"), "s");
        out.add(base + ".cpu_s", count("suite." + h + ".cpu_s"), "s");
        suite_cpu += count("suite." + h + ".cpu_s");
    }
    out.add("suite.machine_runs", count("suite.machine_runs"), "count");
    out.add("suite.cache_hits", count("suite.cache_hits"), "count");
    out.add("suite.pebs_records", count("suite.pebs_records"), "count");
    out.add("suite.detect_records", count("suite.detect_records"), "count");

    // Share of the traced passes' CPU by layer (self time).
    std::map<std::string, double> layer_cpu;
    for (const auto &[name, t] : self)
        layer_cpu[name.substr(0, name.find('.'))] += t.cpu;
    layer_cpu["suite"] += suite_cpu * n;
    for (const auto &[name, v] : r.layer.all())
        if (name.rfind("pool_cpu.", 0) == 0)
            layer_cpu[name.substr(9)] += v;
    double attributed = 0.0;
    const double total = r.tracedCpuS;
    for (const char *l : {"workloads", "sim", "pebs", "baselines", "trace",
                          "replay", "detect", "core", "suite"}) {
        out.add(std::string("cpu_share.") + l, ratio(layer_cpu[l], total),
                "frac");
        attributed += layer_cpu[l];
    }
    out.add("cpu_share.other", std::max(0.0, ratio(total - attributed, total)),
            "frac", "benchmark glue and unspanned calls");

    // Simulated outcomes (0 where the workload does not produce them).
    out.add("model.laser_fn", r.laserFn, "count");
    out.add("model.laser_fp", r.laserFp, "count");
    out.add("model.detect_overhead_pct", r.detectOverheadPct, "%");
    out.add("model.repair_speedup", r.repairSpeedup, "x");

    const double traced_wall = median(r.passWallS);
    const double untraced_wall = median(r.referenceWallS);
    out.add("tracing.overhead_s", traced_wall - untraced_wall, "s",
            "median traced minus median untraced pass wall");
    out.add("tracing.overhead_pct",
            100.0 * ratio(traced_wall - untraced_wall, untraced_wall), "%");
}

} // namespace

int
main(int argc, char **argv)
{
    // Isolation: a user's cache directory would make a cold run warm,
    // and the telemetry variables switch on in-program span collection.
    for (const char *v : {"LASER_TRACE_CACHE", "LASER_METRICS_OUT",
                          "LASER_LEDGER", "LASER_TRACE_EVENTS", "LASER_OBS"})
        unsetenv(v);

    Params p;
    bool have_workload = false, have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") {
            p.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            p.seed = std::strtoull(v.c_str(), nullptr, 0);
            have_seed = true;
        } else if (k == "--seconds") {
            p.seconds = std::atof(v.c_str());
        } else if (k == "--trace") {
            p.traced = v == "1";
        } else if (k == "--bin-dir") {
            p.binDir = v;
        } else if (k == "--work-dir") {
            p.workDir = v;
        } else {
            return usage(("unknown option " + k).c_str());
        }
    }
    if (!have_workload || !have_seed || p.binDir.empty() || p.workDir.empty())
        return usage("missing option");
    deriveSeeds(p);
    // At most nproc (<= 4) threads run tasks: the pool plus the caller.
    const int nproc = int(std::thread::hardware_concurrency());
    p.poolWorkers = std::max(1, std::min(4, nproc > 0 ? nproc : 4) - 1);

    Result r;
    std::filesystem::create_directories(p.workDir);
    std::printf("perfbench %s seed %llu (inputSeed %#llx, machineSeed "
                "%#llx), %s run of %.0f s, %d threads\n",
                p.workload.c_str(), (unsigned long long)p.seed,
                (unsigned long long)p.inputSeed,
                (unsigned long long)p.machineSeed,
                p.traced ? "traced" : "untraced", p.seconds,
                p.poolWorkers + 1);
    std::fflush(stdout);
    try {
        if (p.workload == "paper_cold")
            runPaperCold(p, r);
        else if (p.workload == "replay_warm")
            runReplayWarm(p, r);
        else if (p.workload == "fabric_mix")
            runFabricMix(p, r);
        else if (p.workload == "paper_suite")
            runPaperSuite(p, r);
        else
            return usage(("unknown workload " + p.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", p.workload.c_str(),
                     e.what());
        return 1;
    }

    Report out;
    if (p.traced)
        perLayer(r, out);
    else
        endToEnd(p, r, out);
    for (const std::string &note : r.notes)
        std::printf("  %s\n", note.c_str());
    for (const std::string &f : r.ops.failures())
        std::printf("  FAILED: %s\n", f.c_str());
    std::printf("  simulated-results digest: %016llx\n",
                (unsigned long long)r.digest);
    if (p.traced) {
        const std::string path = p.workDir + "/spans-" + p.workload + ".json";
        if (writeSpans(r.spans, path))
            std::printf("  spans: %zu written to %s\n", r.spans.size(),
                        path.c_str());
    }

    const std::uint64_t attempted = r.ops.attempted();
    const std::uint64_t failed = r.ops.failed();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                failed == 0 && attempted > 0 ? "true" : "false",
                (unsigned long long)std::max<std::uint64_t>(1, attempted),
                (unsigned long long)failed, out.json().c_str());
    return 0;
}
