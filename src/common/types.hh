/**
 * @file
 * Fundamental scalar types and address helpers shared by every module.
 *
 * The simulator is cycle-based and single-threaded; `Cycle` is a plain
 * unsigned 64-bit counter. Addresses are 64-bit byte addresses in a flat
 * physical or virtual space.
 */

#ifndef MTRAP_COMMON_TYPES_HH
#define MTRAP_COMMON_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <limits>

namespace mtrap
{

/** Simulated clock cycle. One global clock domain at 2.0 GHz. */
using Cycle = std::uint64_t;

/** Byte address, virtual or physical depending on context. */
using Addr = std::uint64_t;

/** Dynamic-instruction sequence number (fetch order, never reused). */
using SeqNum = std::uint64_t;

/** Address-space (process) identifier. */
using Asid = std::uint32_t;

/** Hardware core identifier. */
using CoreId = std::uint32_t;

/** Sentinel for "no cycle" / "not yet scheduled". */
inline constexpr Cycle kCycleNever = std::numeric_limits<Cycle>::max();

/** Sentinel invalid address. */
inline constexpr Addr kAddrInvalid = std::numeric_limits<Addr>::max();

/** Cache-line size used throughout the hierarchy (paper assumes equal
 *  line sizes at all levels; see §4.1). */
inline constexpr unsigned kLineBytes = 64;

/** log2(kLineBytes). */
inline constexpr unsigned kLineShift = 6;

/** Page size for the TLB and page-table walker. */
inline constexpr unsigned kPageBytes = 4096;

/** log2(kPageBytes). */
inline constexpr unsigned kPageShift = 12;

/** Align an address down to its cache-line base. */
constexpr Addr
lineAlign(Addr a)
{
    return a & ~static_cast<Addr>(kLineBytes - 1);
}

/** Extract the line number (address divided by line size). */
constexpr Addr
lineNum(Addr a)
{
    return a >> kLineShift;
}

/** Align an address down to its page base. */
constexpr Addr
pageAlign(Addr a)
{
    return a & ~static_cast<Addr>(kPageBytes - 1);
}

/** Extract the virtual/physical page number. */
constexpr Addr
pageNum(Addr a)
{
    return a >> kPageShift;
}

/** True if `v` is a power of two (and nonzero). */
constexpr bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Floor log2 for powers of two. */
constexpr unsigned
log2i(std::uint64_t v)
{
    unsigned r = 0;
    while (v > 1) {
        v >>= 1;
        ++r;
    }
    return r;
}

/**
 * Index of the first minimum of `v[0..n)`, n >= 1: the lowest index
 * holding the smallest value, std::min_element's tie rule. The loop
 * only selects, so the compiler emits conditional moves rather than a
 * data-dependent branch: the earliest-free functional-unit and MSHR
 * picks run once per simulated op or miss, and a branchy scan
 * mispredicts often enough to dominate their cost.
 */
inline std::size_t
firstMinIndex(const Cycle *v, std::size_t n)
{
    std::size_t best = 0;
    Cycle min = v[0];
    for (std::size_t i = 1; i < n; ++i) {
        const bool lt = v[i] < min;
        best = lt ? i : best;
        min = lt ? v[i] : min;
    }
    return best;
}

} // namespace mtrap

#endif // MTRAP_COMMON_TYPES_HH
