#include "support.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace perfbench {

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
threadCpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

namespace {

double
rusageCpu(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return double(ru.ru_utime.tv_sec) + 1e-6 * double(ru.ru_utime.tv_usec) +
           double(ru.ru_stime.tv_sec) + 1e-6 * double(ru.ru_stime.tv_usec);
}

} // namespace

double
processCpuNow()
{
    return rusageCpu(RUSAGE_SELF) + rusageCpu(RUSAGE_CHILDREN);
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail
tailPercentile(std::vector<double> v, std::size_t beyond)
{
    Tail t;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    // Nearest rank k (1-based) leaves n - k samples above it.
    const std::size_t k = n > beyond ? n - beyond : 1;
    t.value = v[k - 1];
    t.percentile = n > beyond ? 100.0 * double(k) / double(n) : 0.0;
    return t;
}

// ---------------------------------------------------------------------
// OpLog

void
OpLog::record(double wall, double cpu, bool ok, const std::string &why)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (pass_ >= 0)
        ops_.push_back({pass_, 1e3 * wall, 1e3 * cpu});
    if (!ok) {
        ++failed_;
        if (failures_.size() < 8)
            failures_.push_back(why);
    }
}

void
OpLog::setPass(int pass)
{
    std::lock_guard<std::mutex> lock(mu_);
    pass_ = pass;
}

void
OpLog::check(bool ok, const std::string &why)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (failures_.size() < 8)
        failures_.push_back(why);
}

std::vector<OpLog::Op>
OpLog::ops() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ops_;
}

std::uint64_t
OpLog::attempted() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return attempted_;
}

std::uint64_t
OpLog::failed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
}

std::vector<std::string>
OpLog::failures() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
}

// ---------------------------------------------------------------------
// Tracer

namespace {

thread_local std::vector<int> t_stack;
thread_local int t_thread = -1;

} // namespace

Tracer &
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

int
Tracer::open(const std::string &name)
{
    if (t_thread < 0)
        t_thread = nextThread_.fetch_add(1);
    Span s;
    s.name = name;
    s.id = nextId_.fetch_add(1);
    s.parent = t_stack.empty() ? root_.load() : t_stack.back();
    s.thread = t_thread;
    s.wall0 = wallNow();
    s.cpu0 = threadCpuNow();
    t_stack.push_back(s.id);
    std::lock_guard<std::mutex> lock(mu_);
    open_.emplace(s.id, std::move(s));
    return t_stack.back();
}

void
Tracer::close(int id)
{
    const double wall = wallNow();
    const double cpu = threadCpuNow();
    if (!t_stack.empty() && t_stack.back() == id)
        t_stack.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = open_.find(id);
    if (it == open_.end())
        return;
    it->second.wall1 = wall;
    it->second.cpu1 = cpu;
    closed_.push_back(std::move(it->second));
    open_.erase(it);
}

void
Tracer::addChild(const std::string &name, double wall0, double seconds)
{
    if (!enabled_)
        return;
    if (t_thread < 0)
        t_thread = nextThread_.fetch_add(1);
    Span s;
    s.name = name;
    s.id = nextId_.fetch_add(1);
    s.parent = t_stack.empty() ? root_.load() : t_stack.back();
    s.thread = t_thread;
    s.wall0 = wall0;
    s.wall1 = wall0 + seconds;
    // The sink runs on this thread while it is on CPU; its wall time is
    // the best available estimate of its CPU share.
    s.cpu0 = 0.0;
    s.cpu1 = seconds;
    std::lock_guard<std::mutex> lock(mu_);
    closed_.push_back(std::move(s));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out = closed_;
    std::sort(out.begin(), out.end(),
              [](const Span &a, const Span &b) { return a.id < b.id; });
    return out;
}

std::map<std::string, SelfTime>
selfTimes(const std::vector<Span> &spans)
{
    std::map<int, std::size_t> by_id;
    for (std::size_t i = 0; i < spans.size(); ++i)
        by_id[spans[i].id] = i;
    std::vector<double> child_cpu(spans.size(), 0.0);
    for (const Span &s : spans) {
        auto it = by_id.find(s.parent);
        if (it == by_id.end() || spans[it->second].thread != s.thread)
            continue; // cross-thread children do not overlap its CPU
        child_cpu[it->second] += s.cpu1 - s.cpu0;
    }
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        SelfTime &t = out[s.name];
        t.cpu += std::max(0.0, s.cpu1 - s.cpu0 - child_cpu[i]);
        t.totalWall += s.wall1 - s.wall0;
    }
    return out;
}

bool
writeSpans(const std::vector<Span> &spans, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    double origin = spans.empty() ? 0.0 : spans.front().wall0;
    for (const Span &s : spans)
        origin = std::min(origin, s.wall0);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,"
                      "\"cpu_us\":%.3f},\"name\":\"",
                      s.thread, 1e6 * (s.wall0 - origin),
                      1e6 * (s.wall1 - s.wall0), s.id, s.parent,
                      1e6 * (s.cpu1 - s.cpu0));
        out << buf << s.name << "\"}"
            << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return bool(out);
}

// ---------------------------------------------------------------------
// TimingSink

std::uint64_t
TimingSink::onHitm(const laser::sim::HitmEvent &event)
{
    ++hitm_;
    if (!(timed_ & kHitm))
        return inner_->onHitm(event);
    const double t0 = wallNow();
    const std::uint64_t cost = inner_->onHitm(event);
    seconds_ += wallNow() - t0;
    return cost;
}

std::uint64_t
TimingSink::onMemop(int core, std::uint32_t pc_index, bool is_write,
                    std::uint64_t cycle)
{
    if (!(timed_ & kMemop))
        return inner_->onMemop(core, pc_index, is_write, cycle);
    const double t0 = wallNow();
    const std::uint64_t cost = inner_->onMemop(core, pc_index, is_write, cycle);
    seconds_ += wallNow() - t0;
    return cost;
}

std::uint64_t
TimingSink::onSync(int core, laser::isa::SyncKind kind,
                   std::uint64_t dirty_pages, std::uint64_t cycle)
{
    if (!(timed_ & kSync))
        return inner_->onSync(core, kind, dirty_pages, cycle);
    const double t0 = wallNow();
    const std::uint64_t cost = inner_->onSync(core, kind, dirty_pages, cycle);
    seconds_ += wallNow() - t0;
    return cost;
}

// ---------------------------------------------------------------------
// TempDir

TempDir::TempDir(const std::string &parent, const std::string &stem)
{
    static std::atomic<unsigned> counter{0};
    path_ = parent + "/" + stem + "-" + std::to_string(counter.fetch_add(1));
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::create_directories(path_, ec);
}

TempDir::~TempDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

} // namespace perfbench
