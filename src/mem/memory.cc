#include "mem/memory.hh"

#include <algorithm>

#include "common/log.hh"
#include "snapshot/snapshot.hh"

namespace mtrap
{

const char *
accessKindName(AccessKind k)
{
    switch (k) {
      case AccessKind::Load: return "load";
      case AccessKind::Store: return "store";
      case AccessKind::Ifetch: return "ifetch";
      case AccessKind::Ptw: return "ptw";
      case AccessKind::Prefetch: return "prefetch";
    }
    return "?";
}

namespace
{

StatSchema &
memoryStatSchema()
{
    static StatSchema s("memory");
    return s;
}

} // namespace

MainMemory::MainMemory(const MemoryParams &params, StatGroup *parent)
    : params_(params),
      openRow_(params.banks, kAddrInvalid),
      stats_(memoryStatSchema(), "mem", parent),
      reads(&stats_, "reads", "line reads serviced"),
      writes(&stats_, "writes", "line writebacks serviced"),
      rowHits(&stats_, "row_hits", "row-buffer hits"),
      rowMisses(&stats_, "row_misses", "row-buffer misses")
{
    if (params.banks == 0 || !isPow2(params.rowBytes))
        fatal("memory: banks must be nonzero and rowBytes a power of two");
}

unsigned
MainMemory::bankOf(Addr addr) const
{
    return static_cast<unsigned>((addr / params_.rowBytes) % params_.banks);
}

Addr
MainMemory::rowOf(Addr addr) const
{
    return addr / params_.rowBytes;
}

void
MainMemory::saveState(Serializer &s) const
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> words;
    words.reserve(store_.size());
    store_.forEach([&](std::uint64_t k, std::uint64_t v) {
        words.emplace_back(k, v);
    });
    std::sort(words.begin(), words.end());
    s.u64(words.size());
    for (const auto &[k, v] : words) {
        s.u64(k);
        s.u64(v);
    }
    s.vec(openRow_);
}

void
MainMemory::restoreState(Deserializer &d)
{
    const std::uint64_t n = d.u64();
    d.checkCount(n, 16);
    store_.clear(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t k = d.u64();
        const std::uint64_t v = d.u64();
        store_.put(k, v);
    }
    std::vector<Addr> rows;
    d.vec(rows);
    if (rows.size() != openRow_.size())
        throw SnapshotError("memory bank count mismatch");
    openRow_ = std::move(rows);
}

Cycle
MainMemory::access(const Access &acc)
{
    if (acc.isWrite())
        ++writes;
    else
        ++reads;

    const unsigned bank = bankOf(acc.paddr);
    const Addr row = rowOf(acc.paddr);
    Cycle lat;
    if (openRow_[bank] == row) {
        ++rowHits;
        lat = params_.rowHitLatency;
    } else {
        ++rowMisses;
        lat = params_.rowMissLatency;
        openRow_[bank] = row;
    }
    return lat;
}

} // namespace mtrap
