/**
 * @file
 * FlatWordMap: a minimal open-addressing hash map from 64-bit keys to
 * 64-bit values, tuned for the simulator's hot lookup tables (the
 * functional memory store, MSHR in-flight fill tracking).
 *
 * Compared with std::unordered_map it does no per-node allocation, has
 * no bucket-list pointer chases, and a slot is exactly 16 bytes, so the
 * common hit touches one or two cache lines. A reserved sentinel key
 * marks empty slots (the simulator's keys are addresses or line
 * numbers, far below the sentinel). Erasure is rebuild-based (eraseIf,
 * for rare cleanups) rather than per-entry, so probing never sees
 * tombstones. Iteration order is unspecified and never observed by the
 * simulation (determinism is unaffected: values are keyed data).
 */

#ifndef MTRAP_COMMON_FLAT_MAP_HH
#define MTRAP_COMMON_FLAT_MAP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/buffer_pool.hh"
#include "common/rng.hh"

namespace mtrap
{

class FlatWordMap
{
  public:
    /** Keys equal to `kEmptyKey` must never be inserted. */
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    /** An empty map with room for `keys` keys before its first rehash
     *  (capacityFor); the default makes 1024 slots. */
    explicit FlatWordMap(std::size_t keys = 768)
    {
        slots_.assign(capacityFor(keys), Slot{kEmptyKey, 0});
        mask_ = slots_.size() - 1;
    }

    /** Number of stored keys. */
    std::size_t size() const { return size_; }

    /** Pointer to the value for `key`, or nullptr. */
    const std::uint64_t *find(std::uint64_t key) const
    {
        for (std::size_t i = hash(key) & mask_;; i = (i + 1) & mask_) {
            const Slot &s = slots_[i];
            if (s.key == key)
                return &s.value;
            if (s.key == kEmptyKey)
                return nullptr;
        }
    }

    /** Insert or overwrite. */
    void put(std::uint64_t key, std::uint64_t value)
    {
        if ((size_ + 1) * 4 > slots_.size() * 3)
            rebuild(slots_.size() * 2, dropNone);
        for (std::size_t i = hash(key) & mask_;; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.key == key) {
                s.value = value;
                return;
            }
            if (s.key == kEmptyKey) {
                s.key = key;
                s.value = value;
                ++size_;
                return;
            }
        }
    }

    /** Hint the CPU to start loading `key`'s home slot, a few puts
     *  before putting it (bulk writes). Changes nothing observable. */
    void prefetch(std::uint64_t key) const
    {
        __builtin_prefetch(&slots_[hash(key) & mask_], 1);
    }

    /**
     * Make room for `n` keys in total, so that putting up to `n` keys
     * rehashes at most once (here) rather than once per doubling. Never
     * shrinks. Lookups observe only the stored set, which is unchanged.
     */
    void reserve(std::size_t n)
    {
        const std::size_t cap = capacityFor(n);
        if (cap > slots_.size())
            rebuild(cap, dropNone);
    }

    /**
     * Drop every (key, value) for which `pred` holds, by rebuilding in
     * place (no tombstones). O(capacity); intended for rare cleanups.
     * The surviving set — the only thing lookups can observe — matches
     * what per-entry erasure would leave.
     */
    template <typename Pred>
    void eraseIf(Pred &&pred)
    {
        rebuild(slots_.size(), pred);
    }

    /**
     * Visit every (key, value) pair. Order is the internal slot order
     * (unspecified); callers needing a deterministic byte stream — the
     * snapshot layer — must sort what they collect.
     */
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_)
            if (s.key != kEmptyKey)
                fn(s.key, s.value);
    }

    /** Drop every entry, keeping the current capacity but growing it
     *  to hold `n` keys (see reserve) — one table fill either way. */
    void clear(std::size_t n = 0)
    {
        slots_.assign(std::max(slots_.size(), capacityFor(n)),
                      Slot{kEmptyKey, 0});
        mask_ = slots_.size() - 1;
        size_ = 0;
    }

  private:
    struct Slot
    {
        std::uint64_t key;
        std::uint64_t value;
    };

    static std::uint64_t hash(std::uint64_t z) { return mix64(z); }

    /** Smallest power-of-two slot count (at least 16) that holds `n`
     *  keys within put()'s 3/4 load limit. */
    static std::size_t capacityFor(std::size_t n)
    {
        std::size_t cap = 16;
        while (cap * 3 < n * 4)
            cap <<= 1;
        return cap;
    }

    static bool dropNone(std::uint64_t, std::uint64_t) { return false; }

    /** The one rehash: move every entry for which `drop` is false into
     *  a fresh table of `cap` (a power of two) slots. */
    template <typename Pred>
    void rebuild(std::size_t cap, Pred &&drop)
    {
        SlotVec old = std::move(slots_);
        slots_.assign(cap, Slot{kEmptyKey, 0});
        mask_ = cap - 1;
        size_ = 0;
        for (const Slot &s : old)
            if (s.key != kEmptyKey && !drop(s.key, s.value))
                put(s.key, s.value);
    }

    using SlotVec = std::vector<Slot, PoolAllocator<Slot>>;
    SlotVec slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace mtrap

#endif // MTRAP_COMMON_FLAT_MAP_HH
