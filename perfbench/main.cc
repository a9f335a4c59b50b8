/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans-out FILE]
 *
 * Repeats passes of one workload (see workloads.hh) until S seconds
 * have passed, checks every run, and prints the metrics by name and
 * unit, ending with one JSON line:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * With --trace 0 the metrics are the end-to-end ones, measured on
 * untraced passes. With --trace 1 half the budget runs untraced and
 * half traced, and the metrics are the per-layer ones: exact work
 * counts, each layer's self time from the spans, and the tracing
 * overhead. Single-threaded by design: every time is the one
 * thread's.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string spansOut;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans-out FILE]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end || value[0] == '-')
                usage("--seed takes a non-negative integer");
            have_seed = true;
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(a.seconds > 0.0)
                || a.seconds > 3600.0)
                usage("--seconds takes a number in (0, 3600]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            a.trace = value == "1";
            have_trace = true;
        } else if (flag == "--spans-out") {
            a.spansOut = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("--workload must be one of spec1, parsec4, server, churn");
    if (!have_seed || a.seconds <= 0.0 || !have_trace)
        usage("--seed, --seconds and --trace are required");
    return a;
}

// ------------------------------------------------------------ the build

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

/** Why this build must not report timings, or "" when it may. */
std::string
buildRefusal()
{
    const std::string type = PERFBENCH_BUILD_TYPE;
    if (type.empty() || type == "Debug")
        return "unoptimised build (CMAKE_BUILD_TYPE='" + type + "')";
#ifndef NDEBUG
    return "assertions are enabled (NDEBUG undefined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#endif
    if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize"))
        return "sanitizer build (CMAKE_CXX_FLAGS has -fsanitize)";
    return "";
}

// ----------------------------------------------------------- statistics

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** The highest percentile with at least ten samples beyond it. */
struct Tail
{
    double value = 0.0;
    double percentile = 100.0;
    std::size_t samples = 0;
};

Tail
tail(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    // Rank n-10 (1-based) leaves exactly ten samples above it.
    const std::size_t idx = n > 10 ? n - 11 : n - 1;
    t.value = v[idx];
    t.percentile = 100.0 * static_cast<double>(idx + 1)
                   / static_cast<double>(n);
    return t;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/** Self time per span name, seconds: duration minus direct children. */
std::map<std::string, double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::int64_t> children(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[spans[i].name] +=
            static_cast<double>(spans[i].endNs - spans[i].startNs
                                - children[i])
            * 1e-9;
    return self;
}

// -------------------------------------------------------------- metrics

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    /** Human-readable note printed beside the value. */
    std::string note;
};

/** A per-layer metric and the end-to-end metric it should move. */
struct LayerDef
{
    const char *name;
    const char *unit;
    const char *movesMetric;
};

const std::vector<LayerDef> &
layerDefs()
{
    static const std::vector<LayerDef> defs = {
        {"sim.run_s", "s", "sim_kips on spec1, parsec4"},
        {"sim.ns_per_inst", "ns", "sim_kips on spec1, parsec4"},
        {"sim.sched_run_s", "s", "sim_kips, run_tail_ms on server"},
        {"sim.construct_s", "s", "setup_s, run_p50_ms on churn"},
        {"sim.load_s", "s", "setup_s, run_p50_ms on churn"},
        {"workload.build_s", "s", "setup_s, run_p50_ms on churn"},
        {"snapshot.restore_s", "s", "setup_s, run_p50_ms on churn"},
        {"snapshot.save_s", "s", "wall_s on churn"},
        {"common.stats_collect_s", "s", "wall_s on churn"},
        {"workload.attack_s", "s", "wall_s on churn"},
        {"bench.self_s", "s", "wall_s (benchmark overhead)"},
        {"bench.trace_overhead_s", "s", "traced minus untraced wall_s"},
        {"cpu.committed", "count", "sim_kips on spec1"},
        {"cpu.fetched", "count", "sim_kips on spec1"},
        {"cpu.wrong_path_fetched", "count", "sim_kips on spec1"},
        {"cpu.squashes", "count", "sim_kips on spec1"},
        {"cpu.useful_fetch_ratio", "ratio", "sim_kips on spec1"},
        {"cpu.bpred_mispredicts", "count", "sim_kips on spec1"},
        {"mem_system.data_accesses", "count", "sim_kips on parsec4"},
        {"mem_system.commit_write_throughs", "count",
         "sim_kips on parsec4"},
        {"mem_system.recommit_fetches", "count", "sim_kips on parsec4"},
        {"cache.l1d_accesses", "count", "sim_kips on parsec4"},
        {"cache.l1d_hit_ratio", "ratio", "sim_kips on parsec4"},
        {"cache.l2_fills", "count", "sim_kips on parsec4"},
        {"cache.mshr_stalls", "count", "sim_kips on parsec4"},
        {"muontrap.fcache_d_hit_ratio", "ratio", "sim_kips on parsec4"},
        {"muontrap.speculative_fills", "count", "sim_kips on parsec4"},
        {"muontrap.uncommitted_evict_ratio", "ratio",
         "sim_kips on parsec4"},
        {"muontrap.flash_clears", "count",
         "sim_kips, run_tail_ms on server"},
        {"coherence.transactions", "count", "sim_kips on parsec4"},
        {"coherence.nacks", "count", "sim_kips on parsec4"},
        {"coherence.filter_invalidations", "count", "sim_kips on parsec4"},
        {"coherence.store_upgrade_broadcasts", "count",
         "sim_kips on parsec4"},
        {"tlb.walks", "count", "sim_kips on parsec4"},
        {"prefetch.useful_ratio", "ratio", "sim_kips on parsec4"},
        {"defense.specbuf_allocations", "count", "sim_kips on parsec4"},
        {"defense.delayed_loads", "count", "sim_kips on churn"},
        {"mem.row_hit_ratio", "ratio", "sim_kips on parsec4"},
        {"scheduler.switches", "count", "sim_kips, run_tail_ms on server"},
        {"scheduler.migrations", "count",
         "sim_kips, run_tail_ms on server"},
        {"scheduler.idle_slots", "count",
         "sim_kips, run_tail_ms on server"},
        {"snapshot.image_bytes", "bytes", "setup_s on churn"},
    };
    return defs;
}

/** Per-layer values from exact counts (identical in every pass). */
std::map<std::string, double>
countValues(const Counts &c)
{
    auto v = [](std::uint64_t x) { return static_cast<double>(x); };
    return {
        {"cpu.committed", v(c[kCommitted])},
        {"cpu.fetched", v(c[kFetched])},
        {"cpu.wrong_path_fetched", v(c[kWrongPathFetched])},
        {"cpu.squashes", v(c[kSquashes])},
        {"cpu.useful_fetch_ratio", ratio(c[kCommitted], c[kFetched])},
        {"cpu.bpred_mispredicts", v(c[kBpredMispredicts])},
        {"mem_system.data_accesses", v(c[kDataAccesses])},
        {"mem_system.commit_write_throughs", v(c[kCommitWriteThroughs])},
        {"mem_system.recommit_fetches", v(c[kRecommitFetches])},
        {"cache.l1d_accesses", v(c[kL1dHits] + c[kL1dMisses])},
        {"cache.l1d_hit_ratio",
         ratio(c[kL1dHits], c[kL1dHits] + c[kL1dMisses])},
        {"cache.l2_fills", v(c[kL2Fills])},
        {"cache.mshr_stalls", v(c[kMshrStalls])},
        {"muontrap.fcache_d_hit_ratio",
         ratio(c[kFcacheDHits], c[kFcacheDHits] + c[kFcacheDMisses])},
        {"muontrap.speculative_fills", v(c[kSpeculativeFills])},
        {"muontrap.uncommitted_evict_ratio",
         ratio(c[kUncommittedEvictions], c[kSpeculativeFills])},
        {"muontrap.flash_clears", v(c[kFlashClears])},
        {"coherence.transactions", v(c[kBusTransactions])},
        {"coherence.nacks", v(c[kBusNacks])},
        {"coherence.filter_invalidations", v(c[kFilterInvalidations])},
        {"coherence.store_upgrade_broadcasts",
         v(c[kStoreUpgradeBroadcasts])},
        {"tlb.walks", v(c[kPtwWalks])},
        {"prefetch.useful_ratio",
         ratio(c[kPrefetchUseful], c[kPrefetchIssued])},
        {"defense.specbuf_allocations", v(c[kSpecbufAllocations])},
        {"defense.delayed_loads", v(c[kDelayedLoads])},
        {"mem.row_hit_ratio", ratio(c[kRowHits], c[kRowHits] + c[kRowMisses])},
        {"scheduler.switches", v(c[kSchedSwitches])},
        {"scheduler.migrations", v(c[kSchedMigrations])},
        {"scheduler.idle_slots", v(c[kSchedIdleSlots])},
        {"snapshot.image_bytes", v(c[kSnapshotImageBytes])},
    };
}

/** A pass's host-time totals over its runs. */
struct PassTotals
{
    double simCpuS = 0.0;
    double setupCpuS = 0.0;
    std::uint64_t simCommits = 0;

    /** Committed instructions per CPU second in simulate calls, /1e3. */
    double kips() const
    {
        return simCpuS > 0.0
                   ? static_cast<double>(simCommits) / simCpuS / 1e3
                   : 0.0;
    }
};

PassTotals
totals(const PassResult &p)
{
    PassTotals t;
    for (const RunRecord &r : p.runs) {
        t.simCpuS += r.cost.simCpuS;
        t.setupCpuS += r.cost.setupCpuS;
        t.simCommits += r.cost.simCommits;
    }
    return t;
}

/**
 * The process's resident-set high-water mark, MB, from VmHWM in
 * /proc/self/status. getrusage's ru_maxrss is not used: Linux carries
 * the parent's peak across exec into it, so a benchmark started from
 * Python would report the interpreter's footprint.
 */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/**
 * Each run's fastest repetition over the passes. Every pass repeats the
 * same runs with identical simulated work, so the differences between
 * repetitions are the host's: on a shared host a run is often slowed by
 * half or more for tens of milliseconds at a time, and the fastest
 * repetition is the one that ran least disturbed.
 */
struct BestRun
{
    double setupCpuS;
    double simCpuS;
    double wallS;
    std::uint64_t simCommits;
};

/** The runs of one pass as BestRuns. */
std::vector<BestRun>
bestRuns(const PassResult &p)
{
    std::vector<BestRun> best;
    for (const RunRecord &r : p.runs)
        best.push_back({r.cost.setupCpuS, r.cost.simCpuS, r.wallS,
                        r.cost.simCommits});
    return best;
}

/** Lower `best` to any faster repetition in `p`. */
void
foldBest(std::vector<BestRun> &best, const PassResult &p)
{
    for (std::size_t i = 0; i < best.size() && i < p.runs.size(); ++i) {
        const RunRecord &r = p.runs[i];
        best[i].setupCpuS = std::min(best[i].setupCpuS, r.cost.setupCpuS);
        best[i].simCpuS = std::min(best[i].simCpuS, r.cost.simCpuS);
        best[i].wallS = std::min(best[i].wallS, r.wallS);
    }
}

/** Reference sorts timed before every untraced pass. */
constexpr int kReferenceReps = 4;

/**
 * The host that end-to-end times are reported for: its fastest
 * reference sort takes this long. A run whose fastest sort took longer
 * ran on a slower host, and its times are scaled down by the ratio.
 */
constexpr double kReferenceHostS = 2.0e-3;

/**
 * The end-to-end metrics from the best runs of `passes` untraced passes;
 * `ref_s` is the fastest reference sort seen while they ran.
 */
std::vector<Metric>
endToEnd(const std::vector<BestRun> &best, std::size_t passes,
         double norm_time, double ref_s)
{
    const double scale = kReferenceHostS / ref_s;
    double setup = 0.0, sim = 0.0, wall = 0.0;
    std::uint64_t commits = 0;
    std::vector<double> run_ms;
    for (const BestRun &b : best) {
        setup += b.setupCpuS * scale;
        sim += b.simCpuS * scale;
        wall += b.wallS * scale;
        commits += b.simCommits;
        run_ms.push_back(b.wallS * scale * 1e3);
    }
    const Tail t = tail(run_ms);
    const std::string fastest =
        "fastest of " + std::to_string(passes) + " repetitions";
    char tail_note[128];
    std::snprintf(tail_note, sizeof(tail_note), "p%.2f of %zu runs, %s",
                  t.percentile, t.samples, fastest.c_str());
    return {
        {"sim_kips",
         sim > 0.0 ? static_cast<double>(commits) / sim / 1e3 : 0.0,
         "kinst/s", "per run: " + fastest},
        {"wall_s", wall, "s", "one pass; per run: " + fastest},
        {"setup_s", setup, "s", "one pass, CPU; per run: " + fastest},
        {"run_p50_ms", median(run_ms), "ms",
         "of " + std::to_string(run_ms.size()) + " runs, " + fastest},
        {"run_tail_ms", t.value, "ms", tail_note},
        {"peak_rss_mb", peakRssMb(), "MB",
         "process high-water mark"},
        {"muontrap_norm_time", norm_time, "ratio",
         "geomean MuonTrap/Baseline simulated cycles"},
    };
}

/** Per-layer host-time metrics: the self time of one span name. */
const std::pair<const char *, const char *> kSpanMetrics[] = {
    {"sim.run_s", "sim.run"},
    {"sim.sched_run_s", "sim.sched_run"},
    {"sim.construct_s", "sim.construct"},
    {"sim.load_s", "sim.load"},
    {"workload.build_s", "workload.build"},
    {"snapshot.restore_s", "snapshot.restore"},
    {"snapshot.save_s", "snapshot.save"},
    {"common.stats_collect_s", "common.stats_collect"},
    {"workload.attack_s", "workload.attack"},
    {"bench.self_s", "bench.run"},
};

/**
 * The per-layer metrics: traced passes for times, counts from pass 1;
 * `untraced_wall` is the median wall time of an untraced pass.
 */
std::vector<Metric>
perLayer(const PassResult &first, double untraced_wall,
         const std::vector<PassResult> &traced)
{
    std::map<std::string, std::vector<double>> per_pass;
    std::vector<double> traced_walls;
    for (const PassResult &p : traced) {
        traced_walls.push_back(p.wallS);
        const auto self = selfTimes(p.spans);
        auto get = [&](const char *n) {
            const auto it = self.find(n);
            return it == self.end() ? 0.0 : it->second;
        };
        for (const auto &[metric, span] : kSpanMetrics)
            per_pass[metric].push_back(get(span));
        const std::uint64_t commits = totals(p).simCommits;
        const double sim_s = get("sim.run") + get("sim.sched_run");
        per_pass["sim.ns_per_inst"].push_back(
            commits ? sim_s * 1e9 / static_cast<double>(commits) : 0.0);
    }
    std::map<std::string, double> values = countValues(first.counts);
    for (const auto &[name, v] : per_pass)
        values[name] = median(v);
    values["bench.trace_overhead_s"] = median(traced_walls) - untraced_wall;

    std::vector<Metric> out;
    for (const LayerDef &d : layerDefs())
        out.push_back({d.name, values.at(d.name), d.unit,
                       std::string("-> ") + d.movesMetric});
    return out;
}

// -------------------------------------------------------------- checks

/**
 * Mark every run of `p` whose simulated outcome differs from pass 1's.
 * Returns true when the runs and the per-layer counts all match.
 */
bool
checkAgainst(PassResult &p, const PassResult &ref)
{
    bool same = p.runs.size() == ref.runs.size() && p.counts == ref.counts;
    for (std::size_t i = 0; i < p.runs.size(); ++i) {
        RunRecord &r = p.runs[i];
        if (i < ref.runs.size() && ref.runs[i].label == r.label
            && ref.runs[i].digest == r.digest
            && ref.runs[i].simCycles == r.simCycles)
            continue;
        same = false;
        if (r.ok) {
            r.ok = false;
            r.error = "simulated outcome differs from pass 1's";
        }
    }
    return same;
}

std::uint64_t
passDigest(const PassResult &p)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const RunRecord &r : p.runs)
        h = (h ^ r.digest) * 0x100000001b3ull;
    return h;
}

void
writeSpans(const std::string &path, const std::vector<PassResult> &traced)
{
    std::ofstream f(path);
    std::int64_t origin = 0;
    if (!traced.empty() && !traced.front().spans.empty())
        origin = traced.front().spans.front().startNs;
    for (std::size_t p = 0; p < traced.size(); ++p)
        for (const Span &s : traced[p].spans)
            f << "{\"pass\":" << p << ",\"run\":" << s.run
              << ",\"name\":\"" << s.name << "\",\"parent\":" << s.parent
              << ",\"start_ns\":" << s.startNs - origin
              << ",\"end_ns\":" << s.endNs - origin << "}\n";
    if (!f)
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     path.c_str());
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::string refusal = buildRefusal();
    if (!refusal.empty()) {
        std::fprintf(stderr,
                     "perfbench: refusing to report timings from "
                     "this build: %s\n",
                     refusal.c_str());
        return 3;
    }

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "build_type=%s nproc=%ld\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
                sysconf(_SC_NPROCESSORS_ONLN));
    std::fflush(stdout);

    // Correctness: per-run checks, pass-to-pass determinism, and the
    // library's own runners on a sample of pass 1.
    std::vector<std::string> errors;
    std::uint64_t attempted = 0, failed = 0;
    bool identical = true;
    PassResult ref;
    auto check = [&](PassResult &p) {
        if (&p != &ref && !checkAgainst(p, ref))
            identical = false;
        for (const RunRecord &r : p.runs) {
            ++attempted;
            if (!r.ok && ++failed <= 20)
                errors.push_back(r.label + ": " + r.error);
        }
    };

    // At least two passes per set, so the determinism check always has
    // something to compare; three when untraced only. An untraced pass
    // is checked and folded into the best times as soon as it ends, and
    // only pass 1 is kept, so the peak RSS does not grow with the number
    // of passes. The untraced passes also time the host reference
    // kernel.
    std::vector<double> ref_s, untraced_walls;
    std::vector<BestRun> best;
    std::vector<PassResult> traced;
    auto runPasses = [&](bool tracing, double budget, std::size_t min) {
        const std::int64_t t0 = wallNs();
        for (std::size_t n = 1;
             n <= min || static_cast<double>(wallNs() - t0) * 1e-9 < budget;
             ++n) {
            for (int i = 0; !tracing && i < kReferenceReps; ++i)
                ref_s.push_back(hostReferenceCpuS());
            PassResult p = runPass(args.workload, args.seed, tracing);
            const PassTotals t = totals(p);
            std::printf("pass %zu%s: wall %.4f s, setup %.4f s CPU, "
                        "%.1f kinst/s\n",
                        n, tracing ? " (traced)" : "", p.wallS,
                        t.setupCpuS, t.kips());
            if (tracing) {
                traced.push_back(std::move(p));
                check(traced.back());
                continue;
            }
            untraced_walls.push_back(p.wallS);
            if (n == 1) {
                ref = std::move(p);
                best = bestRuns(ref);
                check(ref);
            } else {
                check(p);
                foldBest(best, p);
            }
        }
    };
    const double budget = args.trace ? args.seconds / 2 : args.seconds;
    runPasses(false, budget, args.trace ? 2 : 3);
    if (args.trace)
        runPasses(true, budget, 2);

    if (!identical)
        errors.push_back("a pass differs from pass 1 in simulated outcome "
                         "or per-layer counts");
    for (const std::string &e : crossCheck(args.workload, args.seed, ref))
        errors.push_back("cross-check: " + e);
    for (const std::string &e : errors)
        std::printf("FAIL %s\n", e.c_str());

    std::uint64_t cycles = 0, insts = 0;
    for (const RunRecord &r : ref.runs) {
        cycles += r.simCycles;
        insts += r.simInsts;
    }
    std::printf("digest %s 0x%016llx runs_per_pass=%zu sim_cycles=%llu "
                "sim_insts=%llu passes=%zu (all passes identical: %s)\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(passDigest(ref)),
                ref.runs.size(), static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(insts),
                untraced_walls.size() + traced.size(),
                identical ? "yes" : "no");

    const double ref_best = *std::min_element(ref_s.begin(), ref_s.end());
    std::printf("host reference: fastest sort %.4f ms of %zu; end-to-end "
                "times scaled by %.4f to a %.4f ms host\n",
                ref_best * 1e3, ref_s.size(), kReferenceHostS / ref_best,
                kReferenceHostS * 1e3);
    const std::vector<Metric> metrics =
        args.trace ? perLayer(ref, median(untraced_walls), traced)
                   : endToEnd(best, untraced_walls.size(), ref.normTime,
                              ref_best);
    for (const Metric &m : metrics)
        std::printf("%-34s = %-14.10g %-8s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    std::printf("%-34s = %-14.6g %-8s (%llu of %llu runs)\n", "failed_frac",
                ratio(failed, attempted), "ratio",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));

    if (args.trace && !args.spansOut.empty())
        writeSpans(args.spansOut, traced);

    std::string json = "{\"correct\": ";
    json += errors.empty() && failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += i ? ", " : "";
        json += "\"" + metrics[i].name + "\": {\"value\": "
                + number(metrics[i].value) + ", \"unit\": \""
                + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
