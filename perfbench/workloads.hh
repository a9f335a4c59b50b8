/**
 * @file
 * The benchmark's four workloads. One pass of a workload is a fixed,
 * seed-derived list of runs; each run is built, simulated and checked
 * through the simulator's public API, with every call going through a
 * Meter. Simulated results are a pure function of (workload, seed), so
 * every pass of one process yields the same digests and counts.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "meter.hh"

namespace perfbench
{

/** Exact per-layer work counts, summed over a pass's runs and cores. */
enum Count : unsigned
{
    kCommitted,
    kFetched,
    kWrongPathFetched,
    kSquashes,
    kBpredMispredicts,
    kDelayedLoads,
    kDataAccesses,
    kCommitWriteThroughs,
    kRecommitFetches,
    kL1dHits,
    kL1dMisses,
    kL2Fills,
    kMshrStalls,
    kFcacheDHits,
    kFcacheDMisses,
    kSpeculativeFills,
    kUncommittedEvictions,
    kFlashClears,
    kBusTransactions,
    kBusNacks,
    kFilterInvalidations,
    kStoreUpgradeBroadcasts,
    kPtwWalks,
    kPrefetchIssued,
    kPrefetchUseful,
    kSpecbufAllocations,
    kRowHits,
    kRowMisses,
    kSchedSwitches,
    kSchedMigrations,
    kSchedIdleSlots,
    kSnapshotImageBytes,
    kNumCounts
};

using Counts = std::array<std::uint64_t, kNumCounts>;

/** Outcome of one run: a simulation, or one security-matrix cell. */
struct RunRecord
{
    std::string label;
    /** False when a check failed or the run threw. */
    bool ok = true;
    std::string error;
    /** Wall seconds from the first set-up call to stats collected. */
    double wallS = 0.0;
    RunCost cost;
    /** Hash of the run's full stat tree (or attack outcome). */
    std::uint64_t digest = 0;
    /** Simulated cycles (measured phase / makespan / attack core-cycles). */
    std::uint64_t simCycles = 0;
    /** Simulated instructions committed in the run, all cores. */
    std::uint64_t simInsts = 0;
};

/** Everything one pass produced. */
struct PassResult
{
    std::vector<RunRecord> runs;
    Counts counts{};
    double wallS = 0.0;
    /** Geomean of MuonTrap/Baseline simulated cycles over the pass's
     *  paired runs (makespans on `server`). */
    double normTime = 0.0;
    /** Recorded calls, traced passes only. */
    std::vector<Span> spans;
};

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run one pass of `workload` for `seed`. */
PassResult runPass(const std::string &workload, std::uint64_t seed,
                   bool tracing);

/**
 * Re-run a sample of the pass through the library's own runners
 * (runConfigured / runServerConfigured) and compare cycles and stat
 * digests with `pass`. Returns one message per mismatch.
 */
std::vector<std::string> crossCheck(const std::string &workload,
                                    std::uint64_t seed,
                                    const PassResult &pass);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
