/**
 * @file
 * Benchmark plumbing shared by the four workloads: host clocks and
 * resource usage, the operation log behind op_* / failed_frac, the
 * in-memory span recorder of the traced run, the timing PMU-sink
 * forwarder, and the FNV-1a digest of simulated results.
 *
 * Everything here lives outside the program: spans are recorded around
 * calls into the program's public functions, never inside them.
 */

#ifndef LASER_PERFBENCH_SUPPORT_H
#define LASER_PERFBENCH_SUPPORT_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/hitm.h"
#include "trace/wire.h"

namespace perfbench {

/** Monotonic wall clock, seconds. */
double wallNow();
/** CPU time of the calling thread, seconds. */
double threadCpuNow();
/** User+sys CPU of this process plus its reaped children, seconds. */
double processCpuNow();
/** Peak resident set of this process, MB. */
double selfPeakRssMb();

/** Median (0 for an empty sample). */
double median(std::vector<double> v);

/**
 * The highest percentile that still leaves at least @p beyond samples
 * above it, and its value (nearest-rank). With fewer than beyond+1
 * samples the minimum is returned at percentile 0.
 */
struct Tail
{
    double percentile = 0.0;
    double value = 0.0;
};
Tail tailPercentile(std::vector<double> v, std::size_t beyond = 10);

/** Thread-safe record of attempted operations and their latencies. */
class OpLog
{
  public:
    /**
     * One finished operation: its wall and CPU seconds (the calling
     * thread's, or the child's for a process); @p why is kept for the
     * first failures.
     */
    void record(double wall, double cpu, bool ok, const std::string &why = "");
    /**
     * Tag later operations with measured-pass index @p pass. Until the
     * first call (set-up) operations count as attempted and failed but
     * their times are not kept.
     */
    void setPass(int pass);
    /**
     * An output check that is not itself a timed operation: counted as
     * attempted, and as failed unless @p ok.
     */
    void check(bool ok, const std::string &why);

    struct Op
    {
        int pass = 0;
        double wallMs = 0.0;
        double cpuMs = 0.0;
    };
    std::vector<Op> ops() const;
    std::uint64_t attempted() const;
    std::uint64_t failed() const;
    std::vector<std::string> failures() const;

  private:
    mutable std::mutex mu_;
    int pass_ = -1;
    std::vector<Op> ops_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/** Incremental FNV-1a 64 (the trace format's checksum function). */
class Digest
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        h_ = laser::trace::wire::fnv1a(
            static_cast<const std::uint8_t *>(data), n, h_);
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/** One closed span: [start, end) in wall and thread-CPU seconds. */
struct Span
{
    std::string name;
    int id = 0;
    int parent = -1;
    int thread = 0;
    double wall0 = 0.0, wall1 = 0.0;
    double cpu0 = 0.0, cpu1 = 0.0;
};

/**
 * In-memory span recorder of the traced run. Disabled (the default)
 * it records nothing and a Scope costs one branch. Parents are tracked
 * per thread; a thread's outermost span takes the root set with
 * setRoot() (the measured pass), so worker-thread spans hang off it.
 */
class Tracer
{
  public:
    static Tracer &get();

    void enable() { enabled_ = true; }
    bool enabled() const { return enabled_; }
    /** Parent of spans opened with an empty per-thread stack. */
    void setRoot(int id) { root_.store(id); }

    int open(const std::string &name);
    void close(int id);
    /**
     * Record an already-measured interval as a closed child of the
     * calling thread's innermost open span (used for the PMU-sink time
     * accumulated inside Machine::run).
     */
    void addChild(const std::string &name, double wall0, double seconds);

    /** All closed spans so far, in id order. */
    std::vector<Span> spans() const;

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<int> root_{-1};
    std::atomic<int> nextId_{0};
    std::atomic<int> nextThread_{0};
    mutable std::mutex mu_;
    std::map<int, Span> open_;
    std::vector<Span> closed_;
};

/** RAII span; free when the tracer is off. */
class Scope
{
  public:
    explicit Scope(const std::string &name)
        : id_(Tracer::get().enabled() ? Tracer::get().open(name) : -1)
    {
    }
    ~Scope()
    {
        if (id_ >= 0)
            Tracer::get().close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    int id() const { return id_; }

  private:
    int id_;
};

/**
 * Per span name: self thread-CPU time (the span's CPU minus the part
 * its same-thread children cover) and inclusive wall time.
 */
struct SelfTime
{
    double cpu = 0.0;
    double totalWall = 0.0;
};
std::map<std::string, SelfTime> selfTimes(const std::vector<Span> &spans);

/** Write spans as Chrome trace-event JSON. Returns false on IO error. */
bool writeSpans(const std::vector<Span> &spans, const std::string &path);

/**
 * Forwarding PMU sink owned by the benchmark: calls the wrapped sink
 * and accumulates the wall time spent inside it, so the traced run can
 * separate sink time from Machine::run. Only the callbacks the wrapped
 * sink implements are timed: the machine calls onMemop on every memory
 * operation, and two clock reads there would dwarf a no-op callback.
 */
class TimingSink : public laser::sim::PmuSink
{
  public:
    /** Which callbacks to time; the others are forwarded untimed. */
    enum Callbacks : unsigned { kHitm = 1, kMemop = 2, kSync = 4 };

    TimingSink(laser::sim::PmuSink *inner, unsigned timed)
        : inner_(inner), timed_(timed)
    {
    }

    std::uint64_t onHitm(const laser::sim::HitmEvent &event) override;
    std::uint64_t onMemop(int core, std::uint32_t pc_index, bool is_write,
                          std::uint64_t cycle) override;
    std::uint64_t onSync(int core, laser::isa::SyncKind kind,
                         std::uint64_t dirty_pages,
                         std::uint64_t cycle) override;

    double seconds() const { return seconds_; }
    std::uint64_t hitmCalls() const { return hitm_; }

  private:
    laser::sim::PmuSink *inner_;
    unsigned timed_;
    double seconds_ = 0.0;
    std::uint64_t hitm_ = 0;
};

/** Temporary directory that is removed (recursively) on destruction. */
class TempDir
{
  public:
    TempDir(const std::string &parent, const std::string &stem);
    ~TempDir();
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace perfbench

#endif // LASER_PERFBENCH_SUPPORT_H
