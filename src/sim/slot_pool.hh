/**
 * @file
 * Slot pool + pooled keyed table: the zero-alloc steady-state
 * building blocks of the hot path.
 *
 * SlotPool hands out stable indices into a deque-backed arena with a
 * freelist. It keeps event captures small: instead of capturing a
 * fat Access/Packet/AccessResult by value (which overflows
 * std::function's inline buffer and heap-allocates a closure per
 * event), hot components park the payload in a pool slot and capture
 * only [this, slot] — 16 bytes, always stored inline.
 *
 * The deque backing is load-bearing: callbacks that reference a slot
 * may reenter the owning component and acquire more slots (e.g. a
 * load completion that immediately issues the next access), growing
 * the pool mid-call. A vector would invalidate the outstanding
 * reference on reallocation; deque growth never moves existing
 * elements. Callers must release a slot only AFTER they are done
 * with its contents, which also guarantees the slot cannot be
 * recycled out from under a running callback.
 *
 * PooledKeyMap is the simulator's one small keyed table (MSHRs, L2
 * miss tables, pending stores): a packed key vector over a SlotPool
 * of values. Entries may carry waiter vectors whose capacity must
 * survive erase/re-insert cycles, so erase only returns the slot to
 * the freelist — the value object (and its heap buffers) persists
 * for the next emplace to reuse. emplace() therefore hands back a
 * *stale* value; callers reset the fields they use, or assign the
 * whole value (`emplace(key) = value`). Keys stay sorted, so
 * forEach() visits in key order without sorting; lookup is a linear
 * scan, as each table is bounded by an MSHR's capacity or one SM's
 * outstanding accesses.
 */

#ifndef GTSC_SIM_SLOT_POOL_HH_
#define GTSC_SIM_SLOT_POOL_HH_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/log.hh"

namespace gtsc::sim
{

template <typename T>
class SlotPool
{
  public:
    /** Acquire a slot index; the slot's previous contents persist. */
    std::uint32_t
    acquire()
    {
        if (free_.empty()) {
            slots_.emplace_back();
            return static_cast<std::uint32_t>(slots_.size() - 1);
        }
        std::uint32_t idx = free_.back();
        free_.pop_back();
        return idx;
    }

    T &operator[](std::uint32_t idx) { return slots_[idx]; }
    const T &operator[](std::uint32_t idx) const { return slots_[idx]; }

    /** Return a slot to the freelist. Only call once the slot's
     *  contents are no longer referenced. */
    void release(std::uint32_t idx) { free_.push_back(idx); }

    std::size_t allocated() const { return slots_.size(); }
    std::size_t live() const { return slots_.size() - free_.size(); }

  private:
    std::deque<T> slots_;
    std::vector<std::uint32_t> free_;
};

/** Sorted-key table over pooled values; see file comment. */
template <typename K, typename V>
class PooledKeyMap
{
  public:
    bool empty() const { return keys_.empty(); }
    std::size_t size() const { return keys_.size(); }

    V *
    find(const K &key)
    {
        std::size_t i = indexOf(key);
        return i < keys_.size() ? &pool_[slotOf_[i]] : nullptr;
    }

    bool contains(const K &key) const { return indexOf(key) < keys_.size(); }

    /**
     * Insert a key (must not be present) and return its pooled
     * value. The value's state is whatever the last user of the
     * recycled slot left behind — reset before use.
     */
    V &
    emplace(const K &key)
    {
        auto at = std::upper_bound(keys_.begin(), keys_.end(), key);
        GTSC_ASSERT(at == keys_.begin() || at[-1] != key,
                    "PooledKeyMap key inserted twice");
        auto slot = slotOf_.insert(slotOf_.begin() + (at - keys_.begin()),
                                   pool_.acquire());
        keys_.insert(at, key);
        return pool_[*slot];
    }

    /** Remove the key; its slot returns to the pool with its value
     *  (and any held capacity) intact. False if it was absent. */
    bool
    erase(const K &key)
    {
        std::size_t i = indexOf(key);
        if (i == keys_.size())
            return false;
        pool_.release(slotOf_[i]);
        keys_.erase(keys_.begin() + i);
        slotOf_.erase(slotOf_.begin() + i);
        return true;
    }

    void
    clear()
    {
        for (std::uint32_t slot : slotOf_)
            pool_.release(slot);
        keys_.clear();
        slotOf_.clear();
    }

    /** Visit f(key, value) for every entry in ascending key order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t i = 0; i < keys_.size(); ++i)
            f(keys_[i], pool_[slotOf_[i]]);
    }

  private:
    /** Position of `key` in keys_; keys_.size() when absent. */
    std::size_t
    indexOf(const K &key) const
    {
        std::size_t i = 0;
        while (i < keys_.size() && keys_[i] != key)
            ++i;
        return i;
    }

    std::vector<K> keys_;
    std::vector<std::uint32_t> slotOf_;
    SlotPool<V> pool_;
};

} // namespace gtsc::sim

#endif // GTSC_SIM_SLOT_POOL_HH_
