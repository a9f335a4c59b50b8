#include "workloads.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "common/rng.hh"
#include "harness/job.hh"
#include "perf/odometer.hh"
#include "sim/arrival.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "snapshot/snapshot.hh"
#include "workload/attacks.hh"
#include "workload/parsec_profiles.hh"
#include "workload/spec_profiles.hh"

namespace perfbench
{

using namespace mtrap;

namespace
{

// ------------------------------------------------------------ run shapes
//
// Sized so that one pass takes about 0.3-0.6 s on a 2020s x86 core: the
// benchmark repeats passes until its time budget is spent, and its host
// times take each run's fastest repetition, which needs many passes.

/** Committed instructions per core: warmup, then the measured phase. */
struct Lengths
{
    std::uint64_t warmup;
    std::uint64_t measure;
};

constexpr Lengths kSpecLengths{2'000, 6'000};
constexpr Lengths kParsecLengths{1'500, 5'000};
/** Churn's construct-and-run systems: a few hundred instructions. */
constexpr Lengths kColdLengths{200, 1000};

/** Warm-fork sweeps: warmup of the machine that is saved, the slice
 *  every fork runs after restoring it, and forks per saved machine. */
constexpr std::uint64_t kForkWarmup = 20'000;
constexpr std::uint64_t kForkSlice = 2'000;
constexpr unsigned kForksPerImage = 4;

/** Server runs: every job's service demand (committed instructions).
 *  A fixed demand keeps a run's work independent of the seed, which
 *  then moves only arrival times, weights and program contents. */
constexpr std::uint64_t kServerService = 3'000;
constexpr std::uint64_t kServerJobs = 8;
constexpr std::uint64_t kServerStep = 12'500;

/** Baseline plus the five protected schemes of figures 3 and 4. */
const std::vector<Scheme> kFigureSchemes = {
    Scheme::Baseline,          Scheme::MuonTrap,
    Scheme::InvisiSpecSpectre, Scheme::InvisiSpecFuture,
    Scheme::SttSpectre,        Scheme::SttFuture,
};

/** Churn's construct-and-run scheme set: one per defence family. */
const std::vector<Scheme> kColdSchemes = {
    Scheme::Baseline,   Scheme::MuonTrap,    Scheme::InvisiSpecSpectre,
    Scheme::SttSpectre, Scheme::DelayOnMiss,
};

const std::vector<Scheme> kServerSchemes = {Scheme::Baseline,
                                            Scheme::MuonTrap};

/** One offered load; the gap is a percentage of kServerService. */
struct ServerLevel
{
    const char *name;
    ArrivalPattern pattern;
    unsigned interarrivalPct;
};

const std::vector<ServerLevel> kServerLevels = {
    {"poisson-lo", ArrivalPattern::Poisson, 200},
    {"poisson-hi", ArrivalPattern::Poisson, 50},
    {"burst-hi", ArrivalPattern::Burst, 50},
};

/**
 * Traffic classes, one arrival stream each. Most draw every job from
 * one profile of the arrival layer's default mix: drawing the profile
 * per job would let the seed change the pass's job mix, and with it the
 * host cost of a pass. The last class mixes single-thread mcf jobs with
 * 4-thread canneal gangs, whose gang alignment leaves idle scheduler
 * slots. Its streams hold four jobs of each (see serverArrivals).
 *
 * A class's six runs (three loads, two schemes) take similar time, so a
 * pass's run times form one group per class. The classes are chosen so
 * that run_p50_ms and run_tail_ms (the 11th longest run) fall inside a
 * group, not between two, where they moved by half from seed to seed:
 * hmmer and lbm runs are short, gcc and astar runs middling, the mixed
 * class's the longest.
 */
const std::vector<std::vector<std::string>> kServerClasses = {
    {"gcc"}, {"hmmer"}, {"astar"}, {"lbm"}, {"mcf", "canneal"},
};

/** Rows are (load level, traffic class) pairs. */
const ServerLevel &
serverLevel(std::size_t row)
{
    return kServerLevels[row / kServerClasses.size()];
}

const std::vector<std::string> &
serverClass(std::size_t row)
{
    return kServerClasses[row % kServerClasses.size()];
}

std::string
serverRowName(std::size_t row)
{
    std::string name = std::string(serverLevel(row).name) + ".";
    const char *sep = "";
    for (const std::string &profile : serverClass(row)) {
        name += sep + profile;
        sep = "+";
    }
    return name;
}

/** The security matrix rows, named as expectedLeak() knows them. */
struct AttackEntry
{
    const char *name;
    AttackOutcome (*fn)(Scheme, const MuonTrapConfig *);
};

const std::vector<AttackEntry> kAttacks = {
    {"1:spectre-prime-probe", runSpectrePrimeProbe},
    {"2:inclusion-policy", runInclusionPolicyAttack},
    {"3:shared-data", runSharedDataAttack},
    {"4:filter-coherency", runFilterCacheCoherencyAttack},
    {"5:prefetcher", runPrefetcherAttack},
    {"6:icache", runIcacheAttack},
    {"v2:btb-injection", runSpectreBtbInjection},
    {"7:bus-covert", runBusCovertChannel},
    {"8:prefetch-covert", runPrefetchCovertChannel},
    {"9:l2-prime-probe", runL2PrimeProbe},
    {"10:spec-store", runSpecStoreChannel},
};

// --------------------------------------------------------------- digest

/** 64-bit FNV-1a. */
class Fnv
{
  public:
    void add(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ull;
        }
    }
    void add(std::string_view s) { add(s.data(), s.size()); }
    void add(std::uint64_t v) { add(&v, sizeof(v)); }
    void add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// --------------------------------------------------- stat-path → count

/** Stat groups instantiated once per core ("core3", "l1d0", ...). */
bool
isIndexedGroup(std::string_view s)
{
    static const std::string_view kIndexed[] = {
        "core", "l1d", "l1i", "dtlb", "itlb", "muontrap", "specbuf"};
    return std::find(std::begin(kIndexed), std::end(kIndexed), s)
           != std::end(kIndexed);
}

/** "system.memsys.l1d3.hits" -> "system.memsys.l1d.hits". */
std::string
normalizedPath(const std::string &path)
{
    std::string out;
    out.reserve(path.size());
    std::size_t i = 0;
    for (;;) {
        std::size_t j = path.find('.', i);
        if (j == std::string::npos)
            j = path.size();
        std::string_view comp(path.data() + i, j - i);
        std::size_t k = comp.size();
        while (k > 0 && std::isdigit(static_cast<unsigned char>(comp[k - 1])))
            --k;
        if (k < comp.size() && isIndexedGroup(comp.substr(0, k)))
            comp = comp.substr(0, k);
        if (!out.empty())
            out += '.';
        out += comp;
        if (j == path.size())
            return out;
        i = j + 1;
    }
}

/**
 * The stat leaves each count sums. Every instance of a leaf is summed:
 * per-core groups are indexed, but system.bpred.* and
 * system.memsys.ptw.* repeat once per core under one unindexed path.
 */
const std::unordered_map<std::string, Count> &
countSlots()
{
    static const std::unordered_map<std::string, Count> slots = {
        {"system.core.committed", kCommitted},
        {"system.core.fetched", kFetched},
        {"system.core.wrong_path_fetched", kWrongPathFetched},
        {"system.core.squashes", kSquashes},
        {"system.core.delayed_loads", kDelayedLoads},
        {"system.bpred.mispredicts", kBpredMispredicts},
        {"system.memsys.data_accesses", kDataAccesses},
        {"system.memsys.commit_write_throughs", kCommitWriteThroughs},
        {"system.memsys.recommit_fetches", kRecommitFetches},
        {"system.memsys.l1d.hits", kL1dHits},
        {"system.memsys.l1d.misses", kL1dMisses},
        {"system.memsys.l1d.mshr_stalls", kMshrStalls},
        {"system.memsys.l1i.mshr_stalls", kMshrStalls},
        {"system.memsys.l2.mshr_stalls", kMshrStalls},
        {"system.memsys.l2.fills", kL2Fills},
        {"system.memsys.muontrap.fcache_d.hits", kFcacheDHits},
        {"system.memsys.muontrap.fcache_d.misses", kFcacheDMisses},
        {"system.memsys.muontrap.fcache_d_filter.speculative_fills",
         kSpeculativeFills},
        {"system.memsys.muontrap.fcache_i_filter.speculative_fills",
         kSpeculativeFills},
        {"system.memsys.muontrap.fcache_d_filter.uncommitted_evictions",
         kUncommittedEvictions},
        {"system.memsys.muontrap.fcache_i_filter.uncommitted_evictions",
         kUncommittedEvictions},
        {"system.memsys.muontrap.fcache_d_filter.flash_clears",
         kFlashClears},
        {"system.memsys.muontrap.fcache_i_filter.flash_clears",
         kFlashClears},
        {"system.memsys.bus.transactions", kBusTransactions},
        {"system.memsys.bus.nacks", kBusNacks},
        {"system.memsys.bus.filter_invalidations", kFilterInvalidations},
        {"system.memsys.bus.store_upgrade_broadcasts",
         kStoreUpgradeBroadcasts},
        {"system.memsys.ptw.walks", kPtwWalks},
        {"system.memsys.prefetcher.issued", kPrefetchIssued},
        {"system.memsys.prefetcher.useful_fills", kPrefetchUseful},
        {"system.memsys.specbuf.allocations", kSpecbufAllocations},
        {"system.memsys.mem.row_hits", kRowHits},
        {"system.memsys.mem.row_misses", kRowMisses},
    };
    return slots;
}

/**
 * Hash every stat of `sys` (path, rendered value and numeric value)
 * through the stat visitor, adding the counted leaves to `counts` when
 * non-null.
 */
std::uint64_t
statDigest(System &sys, Counts *counts)
{
    Fnv h;
    const auto &slots = countSlots();
    sys.root().visit([&](const std::string &path, const StatView &v) {
        h.add(path);
        h.add(v.format());
        h.add(v.number());
        if (!counts)
            return;
        const auto it = slots.find(normalizedPath(path));
        if (it != slots.end())
            (*counts)[it->second] += static_cast<std::uint64_t>(v.number());
    });
    return h.value();
}

std::uint64_t
serverReportDigest(const ServerReport &rep)
{
    Fnv h;
    for (std::uint64_t v :
         {rep.admitted, rep.completed, rep.deadlineTotal,
          rep.deadlineMisses, rep.committed, rep.makespan, rep.sojournP50,
          rep.sojournP95, rep.sojournP99, rep.sojournMax, rep.waitP50,
          rep.waitP95, rep.waitP99})
        h.add(v);
    return h.value();
}

std::uint64_t
committedTotal(System &sys)
{
    std::uint64_t n = 0;
    for (unsigned c = 0; c < sys.numCores(); ++c)
        n += sys.core(c).committedCount();
    return n;
}

// ------------------------------------------------------------ the seed
//
// Programs are the figures' own, built from each profile's generation
// seed. Mixing the benchmark seed into them, as the harness's --seed
// does, changes one program's host cost by up to 2.5x, and with it
// which runs sit at a pass's median. The seed instead moves where each
// run starts measuring, and feeds the per-run seeds and the server's
// arrival streams.

Workload
figureProgram(const std::string &profile)
{
    return harness::buildNamedWorkload(profile, 0);
}

/** A row's warmup: `base` plus a seed-drawn extra below base/2. Every
 *  scheme of the row gets the same, so their inputs stay identical. */
std::uint64_t
seededWarmup(std::uint64_t base, const std::string &row, std::uint64_t seed)
{
    Fnv h;
    h.add(row);
    h.add(seed);
    return base + h.value() % (base / 2);
}

std::string
label(const std::string &row, Scheme s, const char *suffix = "")
{
    return row + "/" + schemeName(s) + suffix;
}

// ------------------------------------------------------------ pass state

/** One pass in progress: the meter, its records and the cycle pairs
 *  behind muontrap_norm_time. */
class Pass
{
  public:
    explicit Pass(bool tracing) : meter(tracing) {}

    Meter meter;
    PassResult out;
    /** Next per-run seed index (harness::jobSeed order). */
    std::size_t nextIndex = 0;

    /** Run `body` as one timed, checked run. A throw fails the run and
     *  the pass continues. */
    template <typename Fn>
    RunRecord &run(std::string name, Fn &&body)
    {
        RunRecord r;
        r.label = std::move(name);
        const std::int64_t t0 = wallNs();
        meter.beginRun();
        try {
            body(r);
        } catch (const std::exception &e) {
            r.ok = false;
            r.error = std::string("exception: ") + e.what();
        }
        r.cost = meter.endRun();
        r.wallS = static_cast<double>(wallNs() - t0) * 1e-9;
        if (r.ok && (r.simInsts == 0 || r.simCycles == 0)) {
            r.ok = false;
            r.error = "the run did no simulated work";
        }
        out.runs.push_back(std::move(r));
        return out.runs.back();
    }

    /** Stat collection through the visitor: digest plus counts. */
    void collect(System &sys, RunRecord &r)
    {
        r.digest = meter.call("common.stats_collect", [&] {
            return statDigest(sys, &out.counts);
        });
        r.simInsts = committedTotal(sys);
    }

    /** Record one (row, scheme) cycle count for the norm-time pairs. */
    void pairCycles(const std::string &row, Scheme s, std::uint64_t cycles)
    {
        if (s == Scheme::Baseline)
            pairs_[row].first = cycles;
        else if (s == Scheme::MuonTrap)
            pairs_[row].second = cycles;
    }

    /** Geomean of MuonTrap/Baseline over rows where both ran. */
    double normTime() const
    {
        double log_sum = 0.0;
        unsigned n = 0;
        for (const auto &[row, p] : pairs_) {
            if (!p.first || !p.second)
                continue;
            log_sum += std::log(static_cast<double>(p.second)
                                / static_cast<double>(p.first));
            ++n;
        }
        return n ? std::exp(log_sum / n) : 0.0;
    }

  private:
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> pairs_;
};

// ----------------------------------------------------------- run bodies

/**
 * One closed-system run, step for step what runConfigured does: fresh
 * System with the per-run seed mixed in, load, warm up, reset stats,
 * measure, then collect.
 */
void
runClosed(Pass &pass, const std::string &profile, std::uint64_t seed,
          Scheme scheme, Lengths len, const char *suffix = "")
{
    const std::size_t index = pass.nextIndex++;
    const std::string name = label(profile, scheme, suffix);
    const std::uint64_t warmup = seededWarmup(len.warmup, profile, seed);
    RunRecord &rec = pass.run(name, [&](RunRecord &r) {
        Meter &m = pass.meter;
        const Workload w = m.setup("workload.build",
                                   [&] { return figureProgram(profile); });
        SystemConfig cfg =
            SystemConfig::forScheme(scheme, std::max(1u, w.threads()));
        applyRunSeed(cfg, harness::jobSeed(seed, index));
        auto sys = m.setup("sim.construct",
                           [&] { return std::make_unique<System>(cfg); });
        m.setup("sim.load", [&] { sys->loadWorkload(w); });
        auto commits = [&] { return committedTotal(*sys); };
        m.simulate("sim.run", commits, [&] { sys->run(warmup); });
        sys->resetStats();
        const Cycle start = sys->maxCommitCycle();
        m.simulate("sim.run", commits, [&] { sys->run(len.measure); });
        const Cycle end = sys->maxCommitCycle();
        r.simCycles = end > start ? end - start : 0;
        pass.collect(*sys, r);
    });
    if (rec.ok)
        pass.pairCycles(profile, scheme, rec.simCycles);
}

/** True when every profile of `ap` draws the same number of jobs. */
bool
evenJobMix(const ArrivalParams &ap)
{
    std::map<std::string, std::size_t> jobs;
    for (const ArrivalEvent &e : generateArrivalSchedule(ap))
        ++jobs[e.profile];
    for (const std::string &profile : ap.profiles)
        if (jobs[profile] * ap.profiles.size() != ap.jobs)
            return false;
    return true;
}

/**
 * The arrival stream of one server row. For a class of several
 * profiles, the seed is redrawn until each profile gets an equal share
 * of the jobs: the share moved a run's committed instructions by half
 * and the process's peak RSS by more, from seed to seed.
 */
ArrivalParams
serverArrivals(std::size_t row, std::uint64_t seed)
{
    const ServerLevel &level = serverLevel(row);
    ArrivalParams ap;
    ap.seed = mixSeeds(0xa2217ull + row, seed);
    ap.pattern = level.pattern;
    ap.jobs = kServerJobs;
    ap.profiles = serverClass(row);
    ap.meanInterarrival = kServerService * level.interarrivalPct / 100;
    ap.serviceMinCommits = kServerService;
    ap.serviceMaxCommits = kServerService;
    ap.deadlineFactor = 6;
    ap.maxWeight = 2;
    const std::uint64_t first = ap.seed;
    for (std::uint64_t k = 1; !evenJobMix(ap); ++k)
        ap.seed = mixSeeds(first, k);
    return ap;
}

SchedParams
serverSched()
{
    SchedParams sp;
    sp.quantum = 5'000;
    sp.affinity = true;
    return sp;
}

/** One open-system run, step for step what runServerConfigured does. */
void
runServer(Pass &pass, std::size_t row, Scheme scheme, std::uint64_t seed)
{
    const std::string row_name = serverRowName(row);
    const std::size_t index = pass.nextIndex++;
    RunRecord &rec = pass.run(label(row_name, scheme), [&](RunRecord &r) {
        Meter &m = pass.meter;
        const ArrivalParams ap = serverArrivals(row, seed);
        SystemConfig cfg = SystemConfig::forScheme(scheme, 4);
        applyRunSeed(cfg, harness::jobSeed(seed, index));
        auto sys = m.setup("sim.construct",
                           [&] { return std::make_unique<System>(cfg); });
        std::unique_ptr<ArrivalInjector> inj;
        m.setup("sim.load", [&] {
            sys->attachScheduler(serverSched());
            inj = std::make_unique<ArrivalInjector>(*sys, ap);
            sys->scheduler()->setArrivalSource(inj.get());
        });
        auto commits = [&] { return committedTotal(*sys); };
        for (;;) {
            std::uint64_t did = 0;
            m.simulate("sim.sched_run", commits,
                       [&] { did = sys->runScheduled(kServerStep); });
            if (did < kServerStep)
                break;
        }
        const ServerReport rep = m.call("common.stats_collect", [&] {
            return ServerReport::build(*sys, *inj);
        });
        pass.collect(*sys, r);
        r.digest ^= serverReportDigest(rep);
        r.simCycles = rep.makespan;
        const Scheduler &sched = *sys->scheduler();
        pass.out.counts[kSchedSwitches] += sched.switches();
        pass.out.counts[kSchedMigrations] += sched.migrations();
        pass.out.counts[kSchedIdleSlots] += sched.idleSlots();
        if (rep.admitted != ap.jobs || rep.completed != rep.admitted) {
            r.ok = false;
            r.error = "completed " + std::to_string(rep.completed)
                      + " of " + std::to_string(rep.admitted)
                      + " admitted jobs (" + std::to_string(ap.jobs)
                      + " offered)";
        }
    });
    if (rec.ok)
        pass.pairCycles(row_name, scheme, rec.simCycles);
}

/** One security-matrix cell, checked against expectedLeak. */
void
runAttackCell(Pass &pass, const AttackEntry &a, Scheme scheme)
{
    ++pass.nextIndex;
    pass.run(label(a.name, scheme), [&](RunRecord &r) {
        const perf::SimOdometer &odo = perf::SimOdometer::instance();
        const std::uint64_t insts0 = odo.instructions();
        const std::uint64_t cycles0 = odo.cycles();
        const AttackOutcome out = pass.meter.call(
            "workload.attack", [&] { return a.fn(scheme, nullptr); });
        r.simInsts = odo.instructions() - insts0;
        r.simCycles = odo.cycles() - cycles0;
        Fnv h;
        h.add(out.attack);
        h.add(out.scheme);
        h.add(std::uint64_t{out.leaked});
        h.add(std::uint64_t{out.recovered0});
        h.add(std::uint64_t{out.recovered1});
        h.add(std::uint64_t{out.probe0Time});
        h.add(std::uint64_t{out.probe1Time});
        r.digest = h.value();
        if (out.leaked != expectedLeak(a.name, scheme)) {
            r.ok = false;
            r.error = std::string(out.leaked ? "leaked" : "was blocked")
                      + " but the declared outcome is "
                      + (out.leaked ? "blocked" : "LEAK");
        }
    });
}

/**
 * Warm-fork sweep for one scheme: warm a machine, save it, run it on
 * for a slice; then restore the image into fresh Systems that run the
 * same slice. Every fork must end on the warm machine's maxCommitCycle
 * with an identical stat tree.
 */
void
runWarmForks(Pass &pass, const std::string &profile, Scheme scheme,
             std::uint64_t seed)
{
    const std::size_t index = pass.nextIndex++;
    const std::uint64_t warmup = seededWarmup(kForkWarmup, profile, seed);
    Fingerprint fp;
    fp.mix(profile);
    fp.mix(schemeName(scheme));
    fp.mix(warmup);
    const std::uint64_t ctx_fp = fp.value();

    Workload w;
    SystemConfig cfg;
    std::vector<std::uint8_t> image;
    Cycle ref_end = 0;
    std::uint64_t ref_digest = 0;
    Meter &m = pass.meter;
    auto commitsOf = [](System &sys) {
        return [&sys] { return committedTotal(sys); };
    };

    pass.run(label(profile, scheme, "/warm"), [&](RunRecord &r) {
        w = m.setup("workload.build", [&] { return figureProgram(profile); });
        cfg = SystemConfig::forScheme(scheme, std::max(1u, w.threads()));
        applyRunSeed(cfg, harness::jobSeed(seed, index));
        auto sys = m.setup("sim.construct",
                           [&] { return std::make_unique<System>(cfg); });
        m.setup("sim.load", [&] { sys->loadWorkload(w); });
        m.simulate("sim.run", commitsOf(*sys),
                   [&] { sys->run(warmup); });
        image = m.call("snapshot.save",
                       [&] { return sys->saveSnapshot(ctx_fp); });
        pass.out.counts[kSnapshotImageBytes] += image.size();
        m.simulate("sim.run", commitsOf(*sys),
                   [&] { sys->run(kForkSlice); });
        ref_end = sys->maxCommitCycle();
        r.simCycles = ref_end;
        pass.collect(*sys, r);
        ref_digest = r.digest;
    });

    for (unsigned k = 0; k < kForksPerImage; ++k) {
        const std::string name =
            label(profile, scheme, "/fork") + std::to_string(k);
        pass.run(name, [&](RunRecord &r) {
            if (image.empty())
                throw std::runtime_error("the warm machine was not saved");
            auto sys = m.setup("sim.construct",
                               [&] { return std::make_unique<System>(cfg); });
            m.setup("sim.load", [&] { sys->loadWorkload(w); });
            m.setup("snapshot.restore",
                    [&] { sys->restoreSnapshot(image, ctx_fp); });
            m.simulate("sim.run", commitsOf(*sys),
                       [&] { sys->run(kForkSlice); });
            const Cycle end = sys->maxCommitCycle();
            r.simCycles = end;
            pass.collect(*sys, r);
            if (end != ref_end) {
                r.ok = false;
                r.error = "maxCommitCycle " + std::to_string(end)
                          + " differs from the warm machine's "
                          + std::to_string(ref_end);
            } else if (r.digest != ref_digest) {
                r.ok = false;
                r.error = "stat tree differs from the warm machine's";
            }
        });
    }
}

// ---------------------------------------------------------- the passes

void
spec1Pass(Pass &pass, std::uint64_t seed)
{
    for (const std::string &profile : specBenchmarkNames())
        for (Scheme s : kFigureSchemes)
            runClosed(pass, profile, seed, s, kSpecLengths);
}

void
parsec4Pass(Pass &pass, std::uint64_t seed)
{
    for (const std::string &profile : parsecBenchmarkNames())
        for (Scheme s : kFigureSchemes)
            runClosed(pass, profile, seed, s, kParsecLengths);
}

void
serverPass(Pass &pass, std::uint64_t seed)
{
    for (std::size_t row = 0;
         row < kServerLevels.size() * kServerClasses.size(); ++row)
        for (Scheme s : kServerSchemes)
            runServer(pass, row, s, seed);
}

void
churnPass(Pass &pass, std::uint64_t seed)
{
    for (Scheme s : securityMatrixSchemes())
        for (const AttackEntry &a : kAttacks)
            runAttackCell(pass, a, s);

    const std::vector<std::string> &spec = specBenchmarkNames();
    for (std::size_t i = 0; i < kFigureSchemes.size(); ++i)
        runWarmForks(pass, spec[(i * 5) % spec.size()], kFigureSchemes[i],
                     seed);

    for (const std::string &profile : spec)
        for (Scheme s : kColdSchemes)
            runClosed(pass, profile, seed, s, kColdLengths, "/cold");
}

const RunRecord *
findRun(const PassResult &pass, const std::string &name)
{
    for (const RunRecord &r : pass.runs)
        if (r.label == name)
            return &r;
    return nullptr;
}

/** Compare one closed run of `pass` against runConfigured. */
void
checkClosed(const PassResult &pass, const std::string &profile,
            std::uint64_t seed, Scheme scheme, Lengths len,
            std::size_t index, const char *suffix,
            std::vector<std::string> &errors)
{
    const std::string name = label(profile, scheme, suffix);
    const RunRecord *rec = findRun(pass, name);
    if (!rec) {
        errors.push_back(name + ": missing from the pass");
        return;
    }
    const Workload w = figureProgram(profile);
    RunOptions opt;
    opt.warmupInstructions = seededWarmup(len.warmup, profile, seed);
    opt.measureInstructions = len.measure;
    opt.seed = harness::jobSeed(seed, index);
    RunOutput out = runConfigured(
        w, SystemConfig::forScheme(scheme, std::max(1u, w.threads())), opt,
        schemeName(scheme));
    if (out.result.cycles != rec->simCycles)
        errors.push_back(name + ": runConfigured took "
                         + std::to_string(out.result.cycles)
                         + " cycles, the benchmark's run "
                         + std::to_string(rec->simCycles));
    else if (statDigest(*out.system, nullptr) != rec->digest)
        errors.push_back(name + ": stat tree differs from runConfigured's");
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"spec1", "parsec4",
                                                   "server", "churn"};
    return names;
}

PassResult
runPass(const std::string &workload, std::uint64_t seed, bool tracing)
{
    Pass pass(tracing);
    const std::int64_t t0 = wallNs();
    if (workload == "spec1")
        spec1Pass(pass, seed);
    else if (workload == "parsec4")
        parsec4Pass(pass, seed);
    else if (workload == "server")
        serverPass(pass, seed);
    else if (workload == "churn")
        churnPass(pass, seed);
    else
        throw std::invalid_argument("unknown workload " + workload);
    pass.out.wallS = static_cast<double>(wallNs() - t0) * 1e-9;
    pass.out.normTime = pass.normTime();
    pass.out.spans = pass.meter.spans();
    return std::move(pass.out);
}

std::vector<std::string>
crossCheck(const std::string &workload, std::uint64_t seed,
           const PassResult &pass)
{
    std::vector<std::string> errors;
    if (workload == "spec1" || workload == "parsec4") {
        const bool spec = workload == "spec1";
        const std::string &profile = spec ? specBenchmarkNames().front()
                                          : parsecBenchmarkNames().front();
        const Lengths len = spec ? kSpecLengths : kParsecLengths;
        for (std::size_t col = 0; col < 2; ++col)
            checkClosed(pass, profile, seed, kFigureSchemes[col], len, col,
                        "", errors);
    } else if (workload == "server") {
        for (std::size_t col = 0; col < kServerSchemes.size(); ++col) {
            const Scheme s = kServerSchemes[col];
            const std::string name = label(serverRowName(0), s);
            const RunRecord *rec = findRun(pass, name);
            RunOptions opt;
            opt.seed = harness::jobSeed(seed, col);
            ServerRunOutput out = runServerConfigured(
                SystemConfig::forScheme(s, 4), serverSched(),
                serverArrivals(0, seed), opt,
                schemeName(s));
            if (!rec)
                errors.push_back(name + ": missing from the pass");
            else if (out.report.makespan != rec->simCycles
                     || (statDigest(*out.system, nullptr)
                         ^ serverReportDigest(out.report))
                            != rec->digest)
                errors.push_back(name + ": differs from "
                                 "runServerConfigured's run");
        }
    } else if (workload == "churn") {
        const std::size_t first_cold =
            securityMatrixSchemes().size() * kAttacks.size()
            + kFigureSchemes.size();
        checkClosed(pass, specBenchmarkNames().front(), seed,
                    kColdSchemes.front(), kColdLengths, first_cold, "/cold",
                    errors);
    }
    return errors;
}

} // namespace perfbench
