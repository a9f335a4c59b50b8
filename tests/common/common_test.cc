/**
 * @file
 * Unit tests for the common runtime: types helpers, logging format,
 * statistics, the deterministic RNG, the first-minimum pick and the
 * flat word map.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "common/flat_map.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace mtrap
{
namespace
{

// --- types ------------------------------------------------------------------

TEST(Types, LineAlignment)
{
    EXPECT_EQ(lineAlign(0), 0u);
    EXPECT_EQ(lineAlign(63), 0u);
    EXPECT_EQ(lineAlign(64), 64u);
    EXPECT_EQ(lineAlign(0x12345), 0x12340u);
    EXPECT_EQ(lineNum(128), 2u);
}

TEST(Types, PageAlignment)
{
    EXPECT_EQ(pageAlign(4095), 0u);
    EXPECT_EQ(pageAlign(4096), 4096u);
    EXPECT_EQ(pageNum(8192), 2u);
}

TEST(Types, PowerOfTwo)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_TRUE(isPow2(2048));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
    EXPECT_FALSE(isPow2(2049));
}

TEST(Types, Log2)
{
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(2), 1u);
    EXPECT_EQ(log2i(64), 6u);
    EXPECT_EQ(log2i(2048), 11u);
}

// --- logging ------------------------------------------------------------------

TEST(Log, StrfmtFormats)
{
    EXPECT_EQ(strfmt("x=%d y=%s", 42, "abc"), "x=42 y=abc");
    EXPECT_EQ(strfmt("%llu", 123456789012345ull), "123456789012345");
    EXPECT_EQ(strfmt("plain"), "plain");
}

// --- stats --------------------------------------------------------------------

TEST(Stats, CounterBasics)
{
    StatGroup g("g");
    Counter c(&g, "c", "a counter");
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageBasics)
{
    StatGroup g("g");
    Average a(&g, "a", "an average");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.count(), 2u);
}

TEST(Stats, HistogramBuckets)
{
    StatGroup g("g");
    Histogram h(&g, "h", "a histogram", 10, 4);
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(39);
    h.sample(40);   // overflow
    h.sample(1000); // overflow
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.samples(), 6u);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
}

namespace
{

struct RatioCtx
{
    Counter *a;
    Counter *b;
};

double
ratioFormula(const void *ctx)
{
    const RatioCtx *r = static_cast<const RatioCtx *>(ctx);
    return r->b->value() ? static_cast<double>(r->a->value())
                               / static_cast<double>(r->b->value())
                         : 0.0;
}

} // namespace

TEST(Stats, FormulaComputesOnDemand)
{
    StatGroup g("g");
    Counter a(&g, "a", "");
    Counter b(&g, "b", "");
    RatioCtx ctx{&a, &b};
    Formula f(&g, "f", "ratio", &ratioFormula, &ctx);
    a += 3;
    b += 4;
    EXPECT_DOUBLE_EQ(f.value(), 0.75);
}

TEST(Stats, GroupDumpContainsPathAndFind)
{
    StatGroup root("system");
    StatGroup child("l1", &root);
    Counter c(&child, "hits", "hit count");
    c += 7;
    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("system.l1.hits = 7"), std::string::npos);
    EXPECT_EQ(child.path(), "system.l1");
    EXPECT_FALSE(root.find("hits")); // lives in the child group
    EXPECT_TRUE(child.find("hits"));
}

TEST(Stats, FindLocatesLocalStatsOnly)
{
    StatGroup root("r");
    StatGroup child("c", &root);
    Counter c(&child, "x", "");
    EXPECT_FALSE(root.find("x"));
    EXPECT_TRUE(child.find("x"));
}

TEST(Stats, ResetAllRecurses)
{
    StatGroup root("r");
    StatGroup child("c", &root);
    Counter a(&root, "a", "");
    Counter b(&child, "b", "");
    a += 1;
    b += 2;
    root.resetAll();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 0u);
}

// --- rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff |= (a.next() != b.next());
    EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = r.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, RealInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        const double v = r.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, RoughlyUniform)
{
    Rng r(17);
    unsigned buckets[4] = {0, 0, 0, 0};
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++buckets[r.below(4)];
    for (unsigned b : buckets) {
        EXPECT_GT(b, n / 4 - n / 20);
        EXPECT_LT(b, n / 4 + n / 20);
    }
}

// --- firstMinIndex ----------------------------------------------------------

std::size_t
minElementIndex(const std::vector<Cycle> &v)
{
    return static_cast<std::size_t>(
        std::min_element(v.begin(), v.end()) - v.begin());
}

TEST(FirstMinIndex, MatchesMinElementOnSeededArrays)
{
    // Values from a small range, so ties for the minimum are common.
    Rng r(21);
    std::vector<Cycle> v;
    for (unsigned trial = 0; trial < 20000; ++trial) {
        v.resize(1 + r.below(16));
        for (Cycle &x : v)
            x = r.below(4);
        ASSERT_EQ(firstMinIndex(v.data(), v.size()), minElementIndex(v))
            << "trial " << trial;
    }
}

TEST(FirstMinIndex, TiesAndEdgesMatchMinElement)
{
    const std::vector<std::vector<Cycle>> cases = {
        {7},                            // one element
        {5, 5, 5, 5, 5, 5},             // all equal: first index
        {9, 8, 7, 6, 5, 4, 3, 2},       // minimum at the last index
        {4, 1, 3, 1, 2, 1},             // minimum repeated
        {kCycleNever, kCycleNever - 1}, // full unsigned range
        {0, kCycleNever, 0},
    };
    for (const std::vector<Cycle> &v : cases)
        EXPECT_EQ(firstMinIndex(v.data(), v.size()), minElementIndex(v));
    EXPECT_EQ(firstMinIndex(cases[1].data(), cases[1].size()), 0u);
    EXPECT_EQ(firstMinIndex(cases[2].data(), cases[2].size()), 7u);
    EXPECT_EQ(firstMinIndex(cases[3].data(), cases[3].size()), 1u);
}

// --- FlatWordMap ------------------------------------------------------------

/** Every (key, value) in `m`, sorted (forEach order is unspecified). */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
contents(const FlatWordMap &m)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kv;
    m.forEach([&](std::uint64_t k, std::uint64_t v) {
        kv.emplace_back(k, v);
    });
    std::sort(kv.begin(), kv.end());
    return kv;
}

/** Put `n` seeded (key, value)s; keys come from a range of 3n/2, so
 *  about a third of the puts overwrite an earlier key. */
void
putSeeded(FlatWordMap &m, std::uint64_t seed, unsigned n)
{
    Rng r(seed);
    for (unsigned i = 0; i < n; ++i)
        m.put(r.below(3 * n / 2) * 8, r.next() >> 1);
}

/** `m` answers exactly as `ref` does: same size, same lookups (hits
 *  and misses) and the same key/value set. */
void
expectSameMap(const FlatWordMap &m, const FlatWordMap &ref,
              std::uint64_t key_range)
{
    EXPECT_EQ(m.size(), ref.size());
    for (std::uint64_t k = 0; k < key_range; ++k) {
        const std::uint64_t *a = m.find(k * 8);
        const std::uint64_t *b = ref.find(k * 8);
        ASSERT_EQ(a == nullptr, b == nullptr) << "key " << k * 8;
        if (a) {
            EXPECT_EQ(*a, *b) << "key " << k * 8;
        }
    }
    EXPECT_EQ(contents(m), contents(ref));
}

TEST(FlatWordMap, ReserveOnEmptyMapMatchesUnreserved)
{
    constexpr unsigned kPuts = 5000;
    FlatWordMap ref(16);
    putSeeded(ref, 3, kPuts);

    FlatWordMap m(16);
    m.reserve(kPuts);
    putSeeded(m, 3, kPuts);
    expectSameMap(m, ref, 2 * kPuts);
    EXPECT_GT(ref.size(), kPuts / 2);
    EXPECT_LT(ref.size(), kPuts); // some puts overwrote
}

TEST(FlatWordMap, ReserveOnHalfFullMapKeepsEntriesAndMatches)
{
    constexpr unsigned kPuts = 4000;
    FlatWordMap ref(16);
    putSeeded(ref, 5, kPuts);
    putSeeded(ref, 6, kPuts); // overwrites and new keys alike

    FlatWordMap m(16);
    putSeeded(m, 5, kPuts);
    const auto before = contents(m);
    m.reserve(m.size() + 2 * kPuts);
    EXPECT_EQ(contents(m), before);
    m.reserve(1); // never shrinks
    EXPECT_EQ(contents(m), before);
    putSeeded(m, 6, kPuts);
    expectSameMap(m, ref, 2 * kPuts);
}

TEST(FlatWordMap, ClearWithReservationEmptiesThenMatches)
{
    constexpr unsigned kPuts = 3000;
    FlatWordMap ref(16);
    putSeeded(ref, 9, kPuts);

    FlatWordMap m(16);
    putSeeded(m, 8, 100);
    m.clear(kPuts);
    EXPECT_EQ(m.size(), 0u);
    EXPECT_TRUE(contents(m).empty());
    putSeeded(m, 9, kPuts);
    expectSameMap(m, ref, 2 * kPuts);
}

} // namespace
} // namespace mtrap
