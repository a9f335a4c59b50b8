/**
 * @file
 * Host-time instrumentation of the benchmark: thread-CPU and
 * wall clocks, the in-memory span recorder of the traced pass, and the
 * Meter through which every call into a simulator layer is made.
 *
 * The untraced passes time only what the end-to-end metrics need
 * (set-up CPU, CPU inside the simulate calls, committed instructions).
 * The traced pass additionally records one span per call: name, start,
 * end, parent span and the id of the run it belongs to.
 */

#ifndef PERFBENCH_METER_HH
#define PERFBENCH_METER_HH

#include <time.h>

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench
{

/** Wall clock, nanoseconds (steady). */
inline std::int64_t
wallNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time of the calling thread, seconds. */
inline double
threadCpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
           + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * CPU seconds of one run of the host reference kernel: std::sort of a
 * fixed array of 32768 keys. It is the benchmark's own code, compiled at
 * a fixed -O2 whatever the build type, so a change to the simulator or
 * its build flags leaves it alone. Its time tracks the host's speed:
 * over two minutes on a shared VM, the fastest sort and the fastest
 * simulation slowed and sped up together to within 1%.
 */
double hostReferenceCpuS();

/** One recorded call. `parent` indexes the span vector (-1 = root). */
struct Span
{
    const char *name = nullptr;
    std::uint64_t run = 0;
    std::int32_t parent = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** What one run spent, filled in by the Meter. */
struct RunCost
{
    /** CPU seconds before the first simulated cycle (build, construct,
     *  load, snapshot restore). */
    double setupCpuS = 0.0;
    /** CPU seconds inside System::run / runTo / runScheduled. */
    double simCpuS = 0.0;
    /** Instructions committed inside those calls, all cores. */
    std::uint64_t simCommits = 0;
};

/**
 * Times the calls of one pass. setup() and simulate() always charge CPU
 * time to the current run's RunCost; with tracing on, every call also
 * becomes a Span. Spans stay in memory until the benchmark writes them.
 */
class Meter
{
  public:
    explicit Meter(bool tracing) : tracing_(tracing) {}

    const std::vector<Span> &spans() const { return spans_; }

    /** Start a run: its root span ("bench.run") parents every call. */
    void beginRun()
    {
        cost_ = RunCost{};
        ++runId_;
        open("bench.run");
    }
    RunCost endRun()
    {
        close();
        return cost_;
    }

    /** A call that happens before the run's first simulated cycle. */
    template <typename Fn>
    decltype(auto) setup(const char *name, Fn &&fn)
    {
        Timed t(*this, name, &cost_.setupCpuS);
        return fn();
    }

    /** A call that simulates; `commits` reads the committed total. */
    template <typename Fn, typename CommitsFn>
    void simulate(const char *name, CommitsFn &&commits, Fn &&fn)
    {
        const std::uint64_t before = commits();
        {
            Timed t(*this, name, &cost_.simCpuS);
            fn();
        }
        cost_.simCommits += commits() - before;
    }

    /** Any other call into a layer (stats, snapshot save, attacks). */
    template <typename Fn>
    decltype(auto) call(const char *name, Fn &&fn)
    {
        Timed t(*this, name, nullptr);
        return fn();
    }

  private:
    /** RAII: charges thread CPU to `acc` and records a span. */
    class Timed
    {
      public:
        Timed(Meter &m, const char *name, double *acc)
            : m_(m), acc_(acc), cpu0_(acc ? threadCpuS() : 0.0)
        {
            m_.open(name);
        }
        ~Timed()
        {
            m_.close();
            if (acc_)
                *acc_ += threadCpuS() - cpu0_;
        }
        Timed(const Timed &) = delete;
        Timed &operator=(const Timed &) = delete;

      private:
        Meter &m_;
        double *acc_;
        double cpu0_;
    };

    void open(const char *name)
    {
        if (!tracing_)
            return;
        Span s;
        s.name = name;
        s.run = runId_;
        s.parent = current_;
        s.startNs = wallNs();
        spans_.push_back(s);
        current_ = static_cast<std::int32_t>(spans_.size() - 1);
    }
    void close()
    {
        if (!tracing_)
            return;
        Span &s = spans_[static_cast<std::size_t>(current_)];
        s.endNs = wallNs();
        current_ = s.parent;
    }

    bool tracing_;
    std::vector<Span> spans_;
    std::int32_t current_ = -1;
    std::uint64_t runId_ = 0;
    RunCost cost_;
};

} // namespace perfbench

#endif // PERFBENCH_METER_HH
