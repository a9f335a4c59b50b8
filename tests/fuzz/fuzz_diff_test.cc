/**
 * @file
 * Differential fuzzer for decode lowering (isa/decoded.hh).
 *
 * The core has one fetch body, Core::fetchStep, instantiated over the
 * pre-decoded stream and over the program's raw MicroOps (the reference
 * interpreter). The two instantiations differ only in where each op's
 * facts come from: decodeProgram()'s precomputed kind, unit pool,
 * latency and branch target, or the same facts derived from microop.hh
 * semantics. Any lowering bug therefore shows up as a difference
 * between the two runs, which must be *bit-identical*. This fuzzer
 * generates seeded random programs exercising every op type — ALU
 * (add/sub/mul/div/fp, immediates, shifts), loads and stores with
 * indexed addressing, conditional branches over every condition,
 * BTB-predicted indirect jumps with data-dependent targets, call/ret
 * pairs, and the
 * serializing protection-domain ops — then runs each program twice on
 * otherwise-identical systems (CoreParams::decodedFetch on/off) and
 * asserts that:
 *
 *  - the commit stream matches: a trajectory hash folded over
 *    (committed count, last commit cycle, pc, register file) at fixed
 *    commit-chunk boundaries,
 *  - the final statistics dump is byte-identical (every counter in the
 *    whole system tree: core, bpred, caches, TLBs, filters, bus, DRAM),
 *  - final architectural state (registers, halted, pc) and the
 *    program's reachable memory image match.
 *
 * Runs across the five protected schemes of figures 3/4 plus the
 * unprotected baseline, on 1-, 2- and 4-core systems with loads/stores
 * spread across distinct ASIDs (and one shared-ASID coherence
 * configuration).
 *
 * Program count per (scheme, cores) configuration defaults to a
 * CI-sized batch; set MTRAP_FUZZ_PROGRAMS to scale it (the
 * mtrap_fuzz_long ctest entry, gated behind -DMTRAP_LONG_FUZZ=ON, runs
 * 1000 per scheme).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "isa/decoded.hh"
#include "sim/json_stats.hh"
#include "sim/system.hh"

namespace mtrap
{
namespace
{

constexpr Addr kDataBase = 0x90'0000'0000ull;
constexpr std::int64_t kDataMask = 32 * 1024 - 8;

/** Number of fuzz programs per (scheme, cores) configuration. */
unsigned
programsPerConfig()
{
    if (const char *env = std::getenv("MTRAP_FUZZ_PROGRAMS")) {
        const long v = std::atol(env);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    return 25;
}

/** Seed salt mixed into every program seed: MTRAP_FUZZ_SEED picks a
 *  different program population entirely (the CI sanitizer batch uses
 *  this so it is not a re-run of the fixed default seeds). */
std::uint64_t
seedSalt()
{
    if (const char *env = std::getenv("MTRAP_FUZZ_SEED"))
        return static_cast<std::uint64_t>(std::atoll(env));
    return 0;
}

/**
 * Generate one seeded random program. Structure: a counted loop whose
 * body is a random mix over every op class, with matched call/ret
 * subroutines placed after the halt and all memory accesses masked into
 * a private 32 KiB region.
 */
Program
fuzzProgram(std::uint64_t seed, unsigned body_ops, unsigned iterations)
{
    Rng rng(seed);
    ProgramBuilder b(strfmt("fuzz%llu",
                            static_cast<unsigned long long>(seed)));

    // r1..r20 general data, r26 counter, r27 limit, r28 data base,
    // r29 address mask, r30 jump scratch, r21 address scratch.
    b.movi(26, 0);
    b.movi(27, iterations);
    b.movi(28, static_cast<std::int64_t>(kDataBase));
    b.movi(29, kDataMask);
    for (unsigned r = 1; r <= 20; ++r)
        b.movi(r, static_cast<std::int64_t>(rng.below(100'000)));

    const unsigned n_subs = 1 + static_cast<unsigned>(rng.below(3));
    unsigned label_id = 0;
    // (movi index, landing label): ProgramBuilder has no label->imm
    // fixups, so indirect-jump target loads are patched after take().
    std::vector<std::pair<std::uint64_t, std::string>> jump_patches;

    b.label("top");
    for (unsigned i = 0; i < body_ops; ++i) {
        const unsigned d = 1 + static_cast<unsigned>(rng.below(20));
        const unsigned s1 = 1 + static_cast<unsigned>(rng.below(20));
        const unsigned s2 = 1 + static_cast<unsigned>(rng.below(20));
        switch (rng.below(12)) {
          case 0: b.add(d, s1, s2); break;
          case 1: b.sub(d, s1, s2); break;
          case 2: b.mul(d, s1, s2); break;
          case 3: b.div(d, s1, s2); break;
          case 4: b.fp(d, s1, s2); break;
          case 5:
            switch (rng.below(5)) {
              case 0: b.addi(d, s1, static_cast<std::int64_t>(
                                        rng.below(4096))); break;
              case 1: b.xori(d, s1, static_cast<std::int64_t>(
                                        rng.below(0xffff))); break;
              case 2: b.ori(d, s1, static_cast<std::int64_t>(
                                       rng.below(0xff))); break;
              case 3: b.shli(d, s1, 1 + static_cast<unsigned>(
                                            rng.below(6))); break;
              default: b.shri(d, s1, 1 + static_cast<unsigned>(
                                             rng.below(12))); break;
            }
            break;
          case 6: { // load, indexed addressing
            b.andi(21, s1, kDataMask);
            b.load(d, 28, 0, 21, static_cast<unsigned>(rng.below(2)));
            break;
          }
          case 7: { // store
            b.andi(21, s2, kDataMask);
            b.store(s1, 28, 0, 21, 0);
            break;
          }
          case 8: { // conditional branch over one or two ops
            static const BranchCond conds[] = {
                BranchCond::Eq,  BranchCond::Ne,  BranchCond::Lt,
                BranchCond::Ge,  BranchCond::Ult, BranchCond::Uge,
            };
            const std::string skip = strfmt("l%u", label_id++);
            b.braCond(conds[rng.below(6)], s1, s2, skip);
            b.add(d, d, s1);
            if (rng.below(2))
                b.sub(d, d, s2);
            b.label(skip);
            break;
          }
          case 9: { // data-dependent indirect jump over two landings
            const std::string land = strfmt("l%u", label_id++);
            b.andi(30, s1, 1);       // r30 = s1 & 1
            b.movi(31, 0);           // r31 = index of 'land' (patched)
            jump_patches.emplace_back(b.here() - 1, land);
            b.add(30, 30, 31);       // target = land or land + 1
            b.jumpReg(30);
            b.label(land);
            b.nop();
            b.add(d, d, s2);
            break;
          }
          case 10: // unconditional branch (skip one op)
            {
                const std::string skip = strfmt("l%u", label_id++);
                b.bra(skip);
                b.nop();
                b.label(skip);
            }
            break;
          default: // call a random subroutine, or a rare serializer
            if (rng.below(8) == 0) {
                switch (rng.below(4)) {
                  case 0: b.syscall(); break;
                  case 1: b.sandboxEnter(); break;
                  case 2: b.sandboxExit(); break;
                  default: b.flushBarrier(); break;
                }
            } else {
                b.call(strfmt("sub%llu",
                              static_cast<unsigned long long>(
                                  rng.below(n_subs))));
            }
            break;
        }
    }
    b.addi(26, 26, 1);
    b.braLt("top", 26, 27);
    b.halt();

    // Subroutines (reachable only through calls).
    for (unsigned s = 0; s < n_subs; ++s) {
        b.label(strfmt("sub%u", s));
        const unsigned d = 1 + static_cast<unsigned>(rng.below(20));
        b.addi(d, d, static_cast<std::int64_t>(rng.below(64)));
        if (rng.below(2)) {
            b.andi(21, d, kDataMask);
            b.load(d, 28, 0, 21, 0);
        }
        b.ret();
    }
    // Unreachable terminator: keeps the builder's ends-with-halt lint
    // quiet (the architectural halt is the one before the subroutines).
    b.halt();
    Program p = b.take();
    for (const auto &[idx, name] : jump_patches)
        p.ops[idx].imm = static_cast<std::int64_t>(b.labelIndex(name));
    return p;
}

/** Everything one differential run produces. */
struct FuzzResult
{
    std::uint64_t trajectory = 0;
    /** Trajectory hash after each commit chunk — pinpoints the first
     *  divergent chunk for the snapshot repro hook. */
    std::vector<std::uint64_t> chunkTrajectory;
    std::string statsJson;
    std::vector<std::array<std::uint64_t, kNumRegs>> regs;
    std::vector<bool> halted;
    std::uint64_t memFingerprint = 0;
};

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    return (h ^ v) * 1099511628211ull;
}

/**
 * Run one program per core (distinct or shared asids) and capture the
 * trajectory + final state. `decoded` selects the fetch path.
 */
FuzzResult
runFuzz(const std::vector<Program> &progs, Scheme scheme, bool decoded,
        bool shared_asid)
{
    const unsigned cores = static_cast<unsigned>(progs.size());
    SystemConfig cfg = SystemConfig::forScheme(scheme, cores);
    cfg.core.decodedFetch = decoded;
    System sys(cfg);

    for (unsigned c = 0; c < cores; ++c) {
        ArchContext ctx;
        ctx.program = &progs[c];
        ctx.asid = shared_asid ? 1 : static_cast<Asid>(c + 1);
        sys.core(c).setContext(ctx);
    }

    FuzzResult r;
    // Chunked run: fold the commit stream into the trajectory hash at
    // fixed commit boundaries so transient divergence cannot cancel out
    // by the end of the run.
    for (unsigned chunk = 0; chunk < 64; ++chunk) {
        sys.run(500);
        bool all_halted = true;
        for (unsigned c = 0; c < cores; ++c) {
            Core &core = sys.core(c);
            r.trajectory = fnv(r.trajectory, core.committedCount());
            r.trajectory = fnv(r.trajectory, core.lastCommitCycle());
            for (unsigned i = 0; i < kNumRegs; ++i)
                r.trajectory = fnv(r.trajectory, core.reg(i));
            all_halted = all_halted && core.halted();
        }
        r.chunkTrajectory.push_back(r.trajectory);
        if (all_halted)
            break;
    }
    sys.drainAll();

    for (unsigned c = 0; c < cores; ++c) {
        std::array<std::uint64_t, kNumRegs> regs{};
        for (unsigned i = 0; i < kNumRegs; ++i)
            regs[i] = sys.core(c).reg(i);
        r.regs.push_back(regs);
        r.halted.push_back(sys.core(c).halted());
    }

    // Memory image over every (asid, region) the programs can touch.
    for (unsigned c = 0; c < cores; ++c) {
        const Asid asid = shared_asid ? 1 : static_cast<Asid>(c + 1);
        for (Addr a = kDataBase; a <= kDataBase + kDataMask; a += 8)
            r.memFingerprint =
                fnv(r.memFingerprint, sys.mem().read(asid, a));
        if (shared_asid)
            break;
    }

    std::ostringstream os;
    dumpStatsJson(sys.root(), os);
    r.statsJson = os.str();
    return r;
}

/** The schemes the fuzzer locks down (figures 3/4 five + baseline +
 *  the delay-on-miss security baseline). */
const std::vector<Scheme> &
fuzzSchemes()
{
    static const std::vector<Scheme> s = {
        Scheme::Baseline,         Scheme::MuonTrap,
        Scheme::InvisiSpecSpectre, Scheme::InvisiSpecFuture,
        Scheme::SttSpectre,        Scheme::SttFuture,
        Scheme::DelayOnMiss,
    };
    return s;
}

/**
 * Divergence repro hook: when MTRAP_FUZZ_SNAPSHOT_DIR is set and the
 * two fetch paths' commit streams diverge, re-run both configurations
 * to the last chunk boundary on which they still agreed and drop a
 * snapshot of each machine there. Loading those snapshots (same
 * config, same setContext replay) puts a debugger one 500-commit
 * chunk away from the divergence instead of a whole run away.
 */
void
dropDivergenceSnapshots(const std::vector<Program> &progs, Scheme scheme,
                        bool shared_asid, std::uint64_t seed,
                        std::size_t agree_chunks)
{
    const char *dir = std::getenv("MTRAP_FUZZ_SNAPSHOT_DIR");
    if (!dir || !*dir)
        return;
    const unsigned cores = static_cast<unsigned>(progs.size());
    for (const bool decoded : {false, true}) {
        SystemConfig cfg = SystemConfig::forScheme(scheme, cores);
        cfg.core.decodedFetch = decoded;
        System sys(cfg);
        for (unsigned c = 0; c < cores; ++c) {
            ArchContext ctx;
            ctx.program = &progs[c];
            ctx.asid = shared_asid ? 1 : static_cast<Asid>(c + 1);
            sys.core(c).setContext(ctx);
        }
        for (std::size_t chunk = 0; chunk < agree_chunks; ++chunk)
            sys.run(500);
        const std::string path = strfmt(
            "%s/fuzz-divergence-%llu-%s.snap", dir,
            static_cast<unsigned long long>(seed),
            decoded ? "decoded" : "reference");
        sys.saveSnapshotFile(path, seed);
        std::fprintf(stderr,
                     "fuzz: divergence snapshot %s (machine at last "
                     "agreeing chunk %zu)\n",
                     path.c_str(), agree_chunks);
    }
}

void
expectIdentical(const FuzzResult &ref, const FuzzResult &dec,
                const std::vector<Program> &progs, bool shared_asid,
                Scheme scheme, unsigned cores, std::uint64_t seed)
{
    const std::string what =
        strfmt("scheme=%s cores=%u seed=%llu", schemeName(scheme), cores,
               static_cast<unsigned long long>(seed));
    if (ref.trajectory != dec.trajectory) {
        const std::size_t n = std::min(ref.chunkTrajectory.size(),
                                       dec.chunkTrajectory.size());
        std::size_t agree = 0;
        while (agree < n
               && ref.chunkTrajectory[agree] == dec.chunkTrajectory[agree])
            ++agree;
        dropDivergenceSnapshots(progs, scheme, shared_asid, seed, agree);
    }
    ASSERT_EQ(ref.trajectory, dec.trajectory)
        << "commit-stream divergence: " << what;
    ASSERT_EQ(ref.regs, dec.regs) << "register divergence: " << what;
    ASSERT_EQ(ref.halted, dec.halted) << "halt divergence: " << what;
    ASSERT_EQ(ref.memFingerprint, dec.memFingerprint)
        << "memory divergence: " << what;
    ASSERT_EQ(ref.statsJson, dec.statsJson)
        << "stats divergence: " << what;
}

class FuzzDifferentialTest : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(FuzzDifferentialTest, DecodedPathMatchesReferenceSingleCore)
{
    const Scheme scheme = GetParam();
    const unsigned n = programsPerConfig();
    for (unsigned i = 0; i < n; ++i) {
        const std::uint64_t seed =
            mixSeeds(0xf022 ^ seedSalt(), i * 6151 + 17);
        std::vector<Program> progs;
        progs.push_back(fuzzProgram(seed, 16, 30));
        const FuzzResult ref = runFuzz(progs, scheme, false, false);
        const FuzzResult dec = runFuzz(progs, scheme, true, false);
        expectIdentical(ref, dec, progs, false, scheme, 1, seed);
    }
}

TEST_P(FuzzDifferentialTest, DecodedPathMatchesReferenceMultiCore)
{
    const Scheme scheme = GetParam();
    // Multi-core runs are ~4x the work; scale the count down but keep
    // at least a handful per configuration.
    const unsigned n = std::max(4u, programsPerConfig() / 4);
    for (unsigned cores : {2u, 4u}) {
        for (unsigned i = 0; i < n; ++i) {
            const std::uint64_t seed =
                mixSeeds((0xf022 + cores) ^ seedSalt(), i * 9377 + 5);
            std::vector<Program> progs;
            for (unsigned c = 0; c < cores; ++c)
                progs.push_back(
                    fuzzProgram(mixSeeds(seed, c), 12, 20));
            // Alternate between private address spaces and a shared
            // one (coherence + cross-asid invalidation coverage).
            const bool shared = (i % 2) == 1;
            const FuzzResult ref = runFuzz(progs, scheme, false, shared);
            const FuzzResult dec = runFuzz(progs, scheme, true, shared);
            expectIdentical(ref, dec, progs, shared, scheme, cores,
                            seed);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, FuzzDifferentialTest, ::testing::ValuesIn(fuzzSchemes()),
    [](const ::testing::TestParamInfo<Scheme> &info) {
        std::string n = schemeName(info.param);
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

/**
 * Oracle self-test: prove the differential fuzzer would actually catch
 * a latency bug in the delay-on-miss leg. MTRAP_FUZZ_DELAY_MUTATION
 * perturbs the *decoded* instantiation's delayed-load completion by one
 * cycle (core.cc's delayMutationHook); the fuzzer must flag the divergence
 * within a handful of seeds. If this fails, the DelayOnMiss rotation
 * above is running on a code path the programs never reach — dead
 * coverage, not real coverage.
 */
TEST(FuzzOracle, CatchesInjectedDelayOnMissLatencyMutation)
{
    struct EnvGuard
    {
        EnvGuard() { setenv("MTRAP_FUZZ_DELAY_MUTATION", "1", 1); }
        ~EnvGuard() { unsetenv("MTRAP_FUZZ_DELAY_MUTATION"); }
    } guard;

    bool caught = false;
    for (unsigned i = 0; i < 10 && !caught; ++i) {
        const std::uint64_t seed =
            mixSeeds(0xde1a ^ seedSalt(), i * 6151 + 17);
        std::vector<Program> progs;
        progs.push_back(fuzzProgram(seed, 16, 30));
        const FuzzResult ref =
            runFuzz(progs, Scheme::DelayOnMiss, false, false);
        const FuzzResult dec =
            runFuzz(progs, Scheme::DelayOnMiss, true, false);
        caught = ref.trajectory != dec.trajectory
                 || ref.statsJson != dec.statsJson;
    }
    EXPECT_TRUE(caught)
        << "injected +1-cycle delay-on-miss mutation went undetected "
           "across 10 seeds: the fuzzer is not exercising the "
           "delayed-load leg";
}

/** The decode itself: kinds, latencies, FU selection, pre-resolved
 *  targets. */
TEST(DecodeTest, LowersEveryOpFaithfully)
{
    ProgramBuilder b("decode");
    b.movi(1, 5);
    b.mul(2, 1, 1);
    b.div(3, 2, 1);
    b.fp(4, 1, 2);
    b.load(5, 1, 8, 2, 3);
    b.store(5, 1, 16);
    b.label("t");
    b.braLt("t", 1, 2);
    b.bra("end");
    b.label("end");
    b.call("sub");
    b.syscall();
    b.halt();
    b.label("sub");
    b.ret();
    b.halt(); // unreachable; keeps the ends-with-halt lint quiet
    const Program p = b.take();
    const DecodedProgram d = decodeProgram(p);
    ASSERT_EQ(d.ops.size(), p.ops.size());
    ASSERT_EQ(d.source, &p);

    EXPECT_EQ(d.ops[0].kind, OpKind::Alu);
    EXPECT_EQ(d.ops[0].fuSel, kFuInt);
    EXPECT_EQ(d.ops[0].latency, 1u);
    EXPECT_EQ(d.ops[1].kind, OpKind::Alu);
    EXPECT_EQ(d.ops[1].fuSel, kFuMul);
    EXPECT_EQ(d.ops[1].latency, 3u);
    EXPECT_EQ(d.ops[2].fuSel, kFuMul);
    EXPECT_EQ(d.ops[2].latency, 12u);
    EXPECT_EQ(d.ops[3].fuSel, kFuFp);
    EXPECT_EQ(d.ops[3].latency, 3u);
    EXPECT_EQ(d.ops[4].kind, OpKind::Load);
    EXPECT_EQ(d.ops[4].base, 1);
    EXPECT_EQ(d.ops[4].index, 2);
    EXPECT_EQ(d.ops[4].scale, 3);
    EXPECT_EQ(d.ops[4].imm, 8);
    EXPECT_EQ(d.ops[5].kind, OpKind::Store);
    EXPECT_EQ(d.ops[6].kind, OpKind::BraCond);
    EXPECT_EQ(d.ops[6].target(), 6u); // self-loop label 't'
    EXPECT_EQ(d.ops[7].kind, OpKind::BraAlways);
    EXPECT_EQ(d.ops[7].target(), 8u);
    EXPECT_EQ(d.ops[8].kind, OpKind::Call);
    EXPECT_EQ(d.ops[8].target(), 11u);
    EXPECT_EQ(d.ops[9].kind, OpKind::Serial);
    EXPECT_EQ(d.ops[9].type, OpType::Syscall);
    EXPECT_EQ(d.ops[10].kind, OpKind::Serial);
    EXPECT_EQ(d.ops[10].type, OpType::Halt);
    EXPECT_EQ(d.ops[11].kind, OpKind::Ret);
}

} // namespace
} // namespace mtrap
