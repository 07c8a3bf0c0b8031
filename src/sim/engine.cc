#include "sim/engine.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace rc::sim {

// ---------------------------------------------------------------------------
// Slot table

std::uint32_t
Engine::acquireSlot(InplaceCallback&& cb)
{
    if (_freeSlots.empty()) {
        const auto slot = static_cast<std::uint32_t>(_cbs.size());
        _cbs.push_back(std::move(cb));
        _generations.push_back(1);
        return slot;
    }
    const std::uint32_t slot = _freeSlots.back();
    _freeSlots.pop_back();
    _cbs[slot] = std::move(cb);
    return slot;
}

void
Engine::releaseSlot(std::uint32_t slot)
{
    _cbs[slot].reset();
    ++_generations[slot];
    _freeSlots.push_back(slot);
}

std::uint32_t
Engine::decodeLive(EventId id) const
{
    const std::uint64_t low = id & 0xffffffffu;
    if (low == 0)
        return kNil;
    const auto slot = static_cast<std::uint32_t>(low - 1);
    if (slot >= _cbs.size() || !_cbs[slot] ||
        _generations[slot] != static_cast<std::uint32_t>(id >> 32))
        return kNil;
    return slot;
}

// ---------------------------------------------------------------------------
// 4-ary heap

void
Engine::siftUp(std::size_t pos, HeapNode node)
{
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / 4;
        if (!before(node, _heap[parent]))
            break;
        _heap[pos] = _heap[parent];
        pos = parent;
    }
    _heap[pos] = node;
}

void
Engine::siftDown(std::size_t pos, HeapNode node)
{
    const std::size_t size = _heap.size();
    for (;;) {
        const std::size_t first = 4 * pos + 1;
        if (first >= size)
            break;
        std::size_t best = first;
        const std::size_t last = std::min(first + 4, size);
        for (std::size_t child = first + 1; child < last; ++child) {
            if (before(_heap[child], _heap[best]))
                best = child;
        }
        if (!before(_heap[best], node))
            break;
        _heap[pos] = _heap[best];
        pos = best;
    }
    _heap[pos] = node;
}

void
Engine::popFront()
{
    const HeapNode moved = _heap.back();
    _heap.pop_back();
    if (!_heap.empty())
        siftDown(0, moved);
}

// ---------------------------------------------------------------------------
// Public API

EventId
Engine::schedule(Tick when, Callback cb)
{
    if (when < _now) {
        throw std::invalid_argument(
            "Engine::schedule: event time is in the past");
    }
    if (!cb)
        throw std::invalid_argument("Engine::schedule: empty callback");
    const std::uint32_t slot = acquireSlot(std::move(cb));
    const std::uint32_t generation = _generations[slot];
    _heap.emplace_back();
    siftUp(_heap.size() - 1, HeapNode{when, _scheduled, slot, generation});
    ++_live;
    ++_scheduled;
    return makeId(slot, generation);
}

EventId
Engine::scheduleAfter(Tick delay, Callback cb)
{
    if (delay < 0)
        throw std::invalid_argument("Engine::scheduleAfter: negative delay");
    return schedule(_now + delay, std::move(cb));
}

bool
Engine::cancel(EventId id)
{
    const std::uint32_t slot = decodeLive(id);
    if (slot == kNil)
        return false;
    // The heap node stays behind: releasing the slot bumps its
    // generation, so pruneFront() recognises the node as stale when it
    // surfaces. This keeps cancel() O(1) — the keep-alive renewal
    // pattern cancels and reschedules constantly.
    releaseSlot(slot);
    --_live;
    ++_cancelled;
    return true;
}

bool
Engine::pending(EventId id) const
{
    return decodeLive(id) != kNil;
}

bool
Engine::pruneFront()
{
    while (!_heap.empty()) {
        const HeapNode& front = _heap[0];
        if (_generations[front.slot] == front.generation)
            return true;
        popFront();
    }
    return false;
}

void
Engine::dispatchFront()
{
    const HeapNode front = _heap[0];
    assert(front.when >= _now && "event queue must be monotonic");
    popFront();

    // Move the callback out and retire the event *before* invoking,
    // so the callback may freely schedule or cancel other events
    // (including re-entrant patterns).
    InplaceCallback cb = std::move(_cbs[front.slot]);
    releaseSlot(front.slot);
    --_live;

    _now = front.when;
    ++_executed;
    cb();
}

bool
Engine::step()
{
    if (!pruneFront())
        return false;
    dispatchFront();
    return true;
}

void
Engine::run()
{
    while (pruneFront())
        dispatchFront();
}

void
Engine::runUntil(Tick horizon)
{
    while (pruneFront() && _heap[0].when <= horizon)
        dispatchFront();
    if (_now < horizon)
        _now = horizon;
}

void
Engine::runBefore(Tick tick)
{
    while (pruneFront() && _heap[0].when < tick)
        dispatchFront();
    if (_now < tick)
        _now = tick;
}

} // namespace rc::sim
