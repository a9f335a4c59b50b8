#include <algorithm>
#include <cstdint>
#include <vector>

#include "meter.hh"

namespace perfbench
{

/** Keeps the sorted result observable, so the sort is not elided. */
volatile std::uint32_t hostReferenceSink;

double
hostReferenceCpuS()
{
    // A fixed xorshift sequence: the same keys in every run and process.
    static const std::vector<std::uint32_t> keys = [] {
        std::vector<std::uint32_t> v(32768);
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::uint32_t &k : v) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            k = static_cast<std::uint32_t>(x >> 32);
        }
        return v;
    }();

    std::vector<std::uint32_t> v = keys;
    const double t0 = threadCpuS();
    std::sort(v.begin(), v.end());
    const double t = threadCpuS() - t0;
    hostReferenceSink = v[v.size() / 2];
    return t;
}

} // namespace perfbench
