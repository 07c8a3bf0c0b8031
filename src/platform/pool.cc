#include "platform/pool.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/logging.hh"

namespace rc::platform {

using container::Container;
using container::State;
using workload::Layer;

namespace {

/** Ascending idleSince; ties keep insertion order (new goes last). */
bool
idleBefore(const Container& a, const Container& b)
{
    return a.idleSince() < b.idleSince();
}

/** Ascending createdAt; ties keep insertion order (new goes last). */
bool
createdBefore(const Container& a, const Container& b)
{
    return a.createdAt() < b.createdAt();
}

} // namespace

ContainerPool::ContainerPool(sim::Engine& engine, PoolConfig config,
                             obs::Observer* observer)
    : _engine(engine), _config(config), _obs(observer)
{
    if (config.memoryBudgetMb <= 0.0)
        sim::fatal("ContainerPool: memory budget must be positive");
}

void
ContainerPool::trackGauges()
{
    if (_obs == nullptr)
        return;
    _obs->counters().gaugeMax(obs::Gauge::PoolMemoryMb, _usedMb);
    _obs->counters().gaugeMax(obs::Gauge::LiveContainers,
                              static_cast<double>(_containers.size()));
}

// ---- index maintenance -----------------------------------------------------

void
ContainerPool::unindex(Container& c)
{
    Hooks& h = hooks(c);
    switch (static_cast<IndexBucket>(h.bucket)) {
      case IndexBucket::None:
        break;
      case IndexBucket::IdleUser:
        _idleUsers[h.bucketKey].remove(&c);
        _idleUserAll.remove(&c);
        _idleAll.remove(&c);
        break;
      case IndexBucket::IdleLang:
        _idleLangs[h.bucketKey].remove(&c);
        _idleAll.remove(&c);
        break;
      case IndexBucket::IdleBare:
        _idleBare.remove(&c);
        _idleAll.remove(&c);
        break;
      case IndexBucket::UnclaimedInit:
        _unclaimedInits[h.bucketKey].remove(&c);
        break;
      case IndexBucket::Busy: {
        auto it = _busyByFunction.find(h.bucketKey);
        if (it == _busyByFunction.end() || it->second == 0)
            sim::panic("ContainerPool: busy count underflow");
        if (--it->second == 0)
            _busyByFunction.erase(it);
        break;
      }
    }
    h.bucket = static_cast<std::uint8_t>(IndexBucket::None);
    h.bucketKey = 0;
}

void
ContainerPool::reindex(Container& c)
{
    Hooks& h = hooks(c);
    switch (c.state()) {
      case State::Idle:
        _idleAll.insertOrdered(&c, idleBefore);
        if (c.layer() == Layer::User) {
            h.bucket = static_cast<std::uint8_t>(IndexBucket::IdleUser);
            h.bucketKey = c.function();
            _idleUsers[c.function()].insertOrdered(&c, idleBefore);
            _idleUserAll.insertOrdered(&c, idleBefore);
        } else if (c.layer() == Layer::Lang) {
            h.bucket = static_cast<std::uint8_t>(IndexBucket::IdleLang);
            h.bucketKey = static_cast<std::uint32_t>(
                workload::languageIndex(*c.language()));
            _idleLangs[h.bucketKey].insertOrdered(&c, idleBefore);
        } else {
            h.bucket = static_cast<std::uint8_t>(IndexBucket::IdleBare);
            h.bucketKey = 0;
            _idleBare.insertOrdered(&c, idleBefore);
        }
        break;

      case State::Initializing:
        if (c.targetLayer() == Layer::User && !h.claimed) {
            h.bucket =
                static_cast<std::uint8_t>(IndexBucket::UnclaimedInit);
            h.bucketKey = c.initFunction();
            _unclaimedInits[c.initFunction()].insertOrdered(
                &c, createdBefore);
        }
        break;

      case State::Busy:
        h.bucket = static_cast<std::uint8_t>(IndexBucket::Busy);
        h.bucketKey = c.function();
        ++_busyByFunction[c.function()];
        break;

      case State::Dead:
        break;
    }
}

void
ContainerPool::noteMutation()
{
    if (_config.auditEveryMutations == 0)
        return;
    if (++_mutations % _config.auditEveryMutations == 0)
        auditIndices();
}

// ---- lookup ----------------------------------------------------------------

Container*
ContainerPool::findIdleUser(workload::FunctionId function)
{
    auto it = _idleUsers.find(function);
    return it == _idleUsers.end() ? nullptr : it->second.tail;
}

std::vector<Container*>
ContainerPool::idleForeignUsers(workload::FunctionId function)
{
    std::vector<Container*> out;
    idleForeignUsers(function, out);
    return out;
}

void
ContainerPool::idleForeignUsers(workload::FunctionId function,
                                std::vector<Container*>& out)
{
    out.clear();
    for (Container* c = _idleUserAll.head; c != nullptr;
         c = hooks(*c).userNext) {
        if (c->function() != function)
            out.push_back(c);
    }
    // Candidates are returned in creation order (ascending id): the
    // zygote-sharing ladder takes the first policy-approved match, so
    // the order is behaviorally significant and must be deterministic.
    // The walk gathers them in idleSince order; the sort costs
    // O(k log k) on the handful of idle foreign Users, still
    // proportional to the result, never to the pool.
    std::sort(out.begin(), out.end(),
              [](const Container* a, const Container* b) {
                  return a->id() < b->id();
              });
}

Container*
ContainerPool::findIdleLang(workload::Language language)
{
    return _idleLangs[workload::languageIndex(language)].tail;
}

Container*
ContainerPool::findIdleBare()
{
    return _idleBare.tail;
}

Container*
ContainerPool::findUnclaimedInit(workload::FunctionId function)
{
    auto it = _unclaimedInits.find(function);
    return it == _unclaimedInits.end() ? nullptr : it->second.head;
}

bool
ContainerPool::userAvailable(workload::FunctionId function)
{
    // Algorithm 1's Available(): "skip if warm containers exist". A
    // busy container is warm — it will serve again the moment it
    // finishes — so idle, in-flight, and executing containers all
    // count.
    return findIdleUser(function) != nullptr ||
           findUnclaimedInit(function) != nullptr ||
           _busyByFunction.find(function) != _busyByFunction.end();
}

std::vector<const Container*>
ContainerPool::idleContainers() const
{
    std::vector<const Container*> out;
    collectIdle(out);
    return out;
}

void
ContainerPool::collectIdle(std::vector<const Container*>& out) const
{
    out.clear();
    if (out.capacity() < _idleAll.count)
        out.reserve(_idleAll.count);
    forEachIdle([&out](const Container& c) { out.push_back(&c); });
}

std::size_t
ContainerPool::idleCountAtLayer(
    Layer layer, std::optional<workload::Language> language) const
{
    switch (layer) {
      case Layer::User:
        return _idleUserAll.count;
      case Layer::Lang:
        if (language)
            return _idleLangs[workload::languageIndex(*language)].count;
        else {
            std::size_t n = 0;
            for (const auto& list : _idleLangs)
                n += list.count;
            return n;
        }
      case Layer::Bare:
        return _idleBare.count;
      case Layer::None:
        return 0;
    }
    return 0;
}

Container*
ContainerPool::byId(container::ContainerId id)
{
    auto it = _containers.find(id);
    return it == _containers.end() ? nullptr : it->second.get();
}

std::vector<container::ContainerId>
ContainerPool::allContainerIds() const
{
    std::vector<container::ContainerId> ids;
    ids.reserve(_containers.size());
    for (const auto& [id, c] : _containers)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
}

// ---- mutations -------------------------------------------------------------

Container*
ContainerPool::create(const workload::FunctionProfile& profile,
                      Layer target, bool claimed)
{
    // The target footprint must be reservable up front.
    const double needed = profile.memoryAtLayer(target);
    if (!canFit(needed))
        return nullptr;
    auto c = std::make_unique<Container>(_nextId++, profile, target,
                                         _engine.now());
    Container* raw = c.get();
    _containers.emplace(raw->id(), std::move(c));
    _usedMb += raw->memoryMb();
    hooks(*raw).claimed = claimed;
    reindex(*raw);
    if (_obs != nullptr) {
        _obs->emit(_engine.now(), obs::EventType::ContainerCreated,
                   raw->id(), profile.id(),
                   static_cast<std::uint8_t>(target),
                   claimed ? 1 : 0, raw->memoryMb());
        trackGauges();
    }
    noteMutation();
    return raw;
}

void
ContainerPool::claim(Container& c)
{
    if (c.state() != State::Initializing)
        sim::panic("ContainerPool::claim: container not initializing");
    if (hooks(c).claimed)
        sim::panic("ContainerPool::claim: already claimed");
    hooks(c).claimed = true;
    noteRecoveryUse(c);
    unindex(c); // leaves the unclaimed-init index, if it was in it
    reindex(c);
    noteMutation();
}

void
ContainerPool::unclaim(Container& c)
{
    if (c.state() != State::Initializing)
        sim::panic("ContainerPool::unclaim: container not initializing");
    if (!hooks(c).claimed)
        sim::panic("ContainerPool::unclaim: container not claimed");
    hooks(c).claimed = false;
    unindex(c);
    reindex(c); // re-files into the unclaimed-init index
    noteMutation();
}

void
ContainerPool::retrack(Container& c, double beforeMb)
{
    _usedMb += c.memoryMb() - beforeMb;
    if (_usedMb < -1e-6)
        sim::panic("ContainerPool: negative memory accounting");
    if (_usedMb < 0.0)
        _usedMb = 0.0;
    if (_usedMb > _config.memoryBudgetMb + 1e-6)
        sim::panic("ContainerPool: memory budget exceeded");
}

bool
ContainerPool::beginUpgrade(Container& c,
                            const workload::FunctionProfile& profile,
                            Layer target)
{
    // Compute the upgrade delta without mutating: target footprint is
    // the existing lower layers plus the profile's new layer sizes.
    const double before = c.memoryMb();
    double after = 0.0;
    if (target == Layer::User) {
        const double langPart =
            (static_cast<int>(c.layer()) >= static_cast<int>(Layer::Lang))
                ? c.memoryMb() - c.auxiliaryMemoryMb()
                : profile.memoryAtLayer(Layer::Lang);
        after = langPart + profile.memoryAtLayer(Layer::User) -
                profile.memoryAtLayer(Layer::Lang) + c.auxiliaryMemoryMb();
    } else if (target == Layer::Lang) {
        after = profile.memoryAtLayer(Layer::Lang) + c.auxiliaryMemoryMb();
    } else {
        sim::panic("ContainerPool::beginUpgrade: bad target");
    }
    const double delta = after - before;
    if (delta > 0.0 && !canFit(delta))
        return false;

    // Reuse cancels any pending keep-alive timeout.
    if (c.timeoutEvent() != sim::kNoEvent) {
        _engine.cancel(c.timeoutEvent());
        c.setTimeoutEvent(sim::kNoEvent);
    }
    const auto fromLayer = static_cast<std::uint8_t>(c.layer());
    noteRecoveryUse(c);
    unindex(c);
    c.beginUpgrade(profile, target, _engine.now());
    reindex(c);
    for (auto& interval : c.drainIdleIntervals(true))
        _waste.record(interval);
    retrack(c, before);
    if (_obs != nullptr) {
        _obs->emit(_engine.now(), obs::EventType::ContainerUpgrade,
                   c.id(), profile.id(),
                   static_cast<std::uint8_t>(target), fromLayer,
                   c.memoryMb());
        trackGauges();
    }
    noteMutation();
    return true;
}

Container*
ContainerPool::forkFrom(Container& source,
                        const workload::FunctionProfile& profile)
{
    if (source.state() != State::Idle ||
        (source.layer() != Layer::Lang && source.layer() != Layer::Bare)) {
        sim::panic("ContainerPool::forkFrom: source must be an idle "
                   "shared container");
    }
    if (source.layer() == Layer::Lang &&
        (!source.language() || *source.language() != profile.language())) {
        sim::panic("ContainerPool::forkFrom: language mismatch");
    }
    Container* clone = create(profile, Layer::User, /*claimed=*/true);
    if (!clone)
        return nullptr;
    // The shared hit refreshes the template's idle interval, so it
    // moves to the most-recently-idled end of its index lists.
    noteRecoveryUse(source);
    unindex(source);
    source.markSharedHit(_engine.now());
    reindex(source);
    for (auto& interval : source.drainIdleIntervals(true))
        _waste.record(interval);
    if (_obs != nullptr) {
        // The clone's birth was traced by create(); this records the
        // template side of the fork (arg0 = clone id for correlation).
        _obs->emit(_engine.now(), obs::EventType::ContainerSharedHit,
                   source.id(), profile.id(),
                   static_cast<std::uint8_t>(source.layer()), 0,
                   static_cast<double>(clone->id()));
    }
    noteMutation();
    return clone;
}

bool
ContainerPool::beginRepurpose(Container& c,
                              const workload::FunctionProfile& profile)
{
    const double before = c.memoryMb();
    // Post-repurpose footprint: resident lang layer + the new owner's
    // user-layer delta, plus unchanged aux/packed memory. This is the
    // same formula Container::beginRepurpose applies.
    const double newUserDelta = profile.memoryAtLayer(Layer::User) -
                                profile.memoryAtLayer(Layer::Lang);
    const double after = c.langLayerMb() + newUserDelta +
                         c.auxiliaryMemoryMb() + c.packedMemoryMb();
    const double delta = after - before;
    if (delta > 0.0 && !canFit(delta))
        return false;

    if (c.timeoutEvent() != sim::kNoEvent) {
        _engine.cancel(c.timeoutEvent());
        c.setTimeoutEvent(sim::kNoEvent);
    }
    noteRecoveryUse(c);
    unindex(c);
    c.beginRepurpose(profile, _engine.now());
    reindex(c);
    for (auto& interval : c.drainIdleIntervals(true))
        _waste.record(interval);
    retrack(c, before);
    if (_obs != nullptr) {
        _obs->emit(_engine.now(), obs::EventType::ContainerRepurpose,
                   c.id(), profile.id(), 0, 0, c.memoryMb());
        trackGauges();
    }
    noteMutation();
    return true;
}

bool
ContainerPool::setPacked(Container& c,
                         std::vector<workload::FunctionId> packed,
                         double packedMemoryMb)
{
    const double before = c.memoryMb();
    const double delta = packedMemoryMb - c.packedMemoryMb();
    if (delta > 0.0 && !canFit(delta))
        return false;
    c.setPackedFunctions(std::move(packed), packedMemoryMb);
    retrack(c, before);
    noteMutation();
    return true;
}

bool
ContainerPool::setAuxiliaryMemory(Container& c, double mb)
{
    const double before = c.memoryMb();
    const double delta = mb - c.auxiliaryMemoryMb();
    if (delta > 0.0 && !canFit(delta))
        return false;
    c.setAuxiliaryMemoryMb(mb);
    retrack(c, before);
    noteMutation();
    return true;
}

void
ContainerPool::finishInit(Container& c)
{
    const double before = c.memoryMb();
    unindex(c);
    c.finishInit(_engine.now());
    hooks(c).claimed = false;
    reindex(c);
    retrack(c, before);
    if (_obs != nullptr) {
        _obs->emit(_engine.now(), obs::EventType::ContainerInitDone,
                   c.id(), c.function(),
                   static_cast<std::uint8_t>(c.layer()), 0, c.memoryMb());
        trackGauges();
    }
    noteMutation();
}

void
ContainerPool::beginExecution(Container& c)
{
    if (c.timeoutEvent() != sim::kNoEvent) {
        _engine.cancel(c.timeoutEvent());
        c.setTimeoutEvent(sim::kNoEvent);
    }
    noteRecoveryUse(c);
    unindex(c);
    c.beginExecution(_engine.now());
    reindex(c);
    for (auto& interval : c.drainIdleIntervals(true))
        _waste.record(interval);
    if (_obs != nullptr) {
        _obs->emit(_engine.now(), obs::EventType::ContainerExecBegin,
                   c.id(), c.function());
    }
    noteMutation();
}

void
ContainerPool::finishExecution(Container& c)
{
    unindex(c);
    c.finishExecution(_engine.now());
    reindex(c);
    if (_obs != nullptr) {
        _obs->emit(_engine.now(), obs::EventType::ContainerExecEnd,
                   c.id(), c.function());
    }
    noteMutation();
}

void
ContainerPool::downgrade(Container& c)
{
    const double before = c.memoryMb();
    unindex(c);
    c.downgrade(_engine.now());
    reindex(c);
    retrack(c, before);
    if (_obs != nullptr) {
        _obs->emit(_engine.now(), obs::EventType::ContainerDowngraded,
                   c.id(), c.function(),
                   static_cast<std::uint8_t>(c.layer()), 0, c.memoryMb());
    }
    noteMutation();
}

void
ContainerPool::demoteToZygote(Container& c)
{
    // The owner wipe does not refresh idleSince, so the container
    // keeps its position in the global idle lists but re-files from
    // the owner's idle-User bucket into the kInvalidFunction one.
    unindex(c);
    c.demoteToZygote();
    reindex(c);
    noteMutation();
}

void
ContainerPool::kill(Container& c, obs::KillCause cause)
{
    killImpl(c, cause, /*force=*/false);
}

void
ContainerPool::forceKill(Container& c, obs::KillCause cause)
{
    killImpl(c, cause, /*force=*/true);
}

void
ContainerPool::killImpl(Container& c, obs::KillCause cause, bool force)
{
    if (c.timeoutEvent() != sim::kNoEvent) {
        _engine.cancel(c.timeoutEvent());
        c.setTimeoutEvent(sim::kNoEvent);
    }
    unindex(c);
    const double before = c.memoryMb();
    // A recovery prewarm dying unused resolves its classification:
    // memory-pressure kills are evictions (it made room for real
    // work), everything else — TTL expiry, finalize, faults — wasted.
    if (c.recoveryPrewarmed()) {
        if (cause == obs::KillCause::MemoryPressure ||
            cause == obs::KillCause::PoolSaturated) {
            ++_prewarmEvicted;
        } else {
            ++_prewarmWasted;
            _prewarmWastedMb += before;
        }
        c.clearRecoveryPrewarmed();
    }
    if (_obs != nullptr) {
        _obs->emit(_engine.now(), obs::EventType::ContainerKilled,
                   c.id(), c.function(),
                   static_cast<std::uint8_t>(c.layer()),
                   static_cast<std::uint8_t>(cause), before);
        _obs->counters().bump(
            obs::killCounter(static_cast<std::uint8_t>(cause)),
            _engine.now());
    }
    c.kill(_engine.now(), force);
    for (auto& interval : c.drainIdleIntervals(false))
        _waste.record(interval);
    _usedMb -= before;
    if (_usedMb < 0.0)
        _usedMb = 0.0;
    _containers.erase(c.id());
    noteMutation();
}

// ---- invariants ------------------------------------------------------------

void
ContainerPool::auditIndices() const
{
    const auto fail = [](const std::string& what) {
        sim::panic("ContainerPool::auditIndices: " + what);
    };

    // 1. Every list node must be alive, correctly tagged, correctly
    //    keyed, and ordered; collect per-list totals as we go.
    std::size_t idleSeen = 0;
    {
        sim::Tick last = -1;
        for (const Container* c = _idleAll.head; c != nullptr;
             c = hooks(*c).idleNext) {
            if (c->state() != State::Idle)
                fail("non-idle container in the global idle list");
            if (c->idleSince() < last)
                fail("global idle list out of idleSince order");
            last = c->idleSince();
            ++idleSeen;
        }
        if (idleSeen != _idleAll.count)
            fail("global idle list count mismatch");
    }
    {
        std::size_t seen = 0;
        sim::Tick last = -1;
        for (const Container* c = _idleUserAll.head; c != nullptr;
             c = hooks(*c).userNext) {
            if (c->state() != State::Idle || c->layer() != Layer::User)
                fail("non-idle-User container in the idle-User list");
            if (c->idleSince() < last)
                fail("idle-User list out of idleSince order");
            last = c->idleSince();
            ++seen;
        }
        if (seen != _idleUserAll.count)
            fail("idle-User list count mismatch");
    }
    const auto auditBucket = [&](const BucketList& list,
                                 IndexBucket bucket, std::uint32_t key) {
        std::size_t seen = 0;
        sim::Tick last = -1;
        for (const Container* c = list.head; c != nullptr;
             c = hooks(*c).bucketNext) {
            const Hooks& h = hooks(*c);
            if (h.bucket != static_cast<std::uint8_t>(bucket) ||
                h.bucketKey != key) {
                fail("bucket tag/key mismatch on container " +
                     std::to_string(c->id()));
            }
            const sim::Tick order =
                bucket == IndexBucket::UnclaimedInit ? c->createdAt()
                                                     : c->idleSince();
            if (order < last)
                fail("bucket list out of order");
            last = order;
            ++seen;
        }
        if (seen != list.count)
            fail("bucket list count mismatch");
    };
    for (const auto& [function, list] : _idleUsers)
        auditBucket(list, IndexBucket::IdleUser, function);
    for (std::size_t i = 0; i < _idleLangs.size(); ++i) {
        auditBucket(_idleLangs[i], IndexBucket::IdleLang,
                    static_cast<std::uint32_t>(i));
    }
    auditBucket(_idleBare, IndexBucket::IdleBare, 0);
    for (const auto& [function, list] : _unclaimedInits)
        auditBucket(list, IndexBucket::UnclaimedInit, function);

    // 2. Brute-force scan of the container map: the tag each
    //    container carries must match the one its state implies, and
    //    the per-key totals must match the list counts.
    std::unordered_map<workload::FunctionId, std::size_t> idleUserBrute;
    std::array<std::size_t, workload::kLanguageCount> idleLangBrute{};
    std::size_t idleBareBrute = 0;
    std::unordered_map<workload::FunctionId, std::size_t> unclaimedBrute;
    std::unordered_map<workload::FunctionId, std::uint32_t> busyBrute;
    std::size_t idleBrute = 0;
    double usedBrute = 0.0;
    for (const auto& [id, c] : _containers) {
        usedBrute += c->memoryMb();
        IndexBucket expected = IndexBucket::None;
        std::uint32_t expectedKey = 0;
        switch (c->state()) {
          case State::Idle:
            ++idleBrute;
            if (c->layer() == Layer::User) {
                expected = IndexBucket::IdleUser;
                expectedKey = c->function();
                ++idleUserBrute[c->function()];
            } else if (c->layer() == Layer::Lang) {
                expected = IndexBucket::IdleLang;
                expectedKey = static_cast<std::uint32_t>(
                    workload::languageIndex(*c->language()));
                ++idleLangBrute[expectedKey];
            } else {
                expected = IndexBucket::IdleBare;
                ++idleBareBrute;
            }
            break;
          case State::Initializing:
            if (c->targetLayer() == Layer::User && !hooks(*c).claimed) {
                expected = IndexBucket::UnclaimedInit;
                expectedKey = c->initFunction();
                ++unclaimedBrute[c->initFunction()];
            }
            break;
          case State::Busy:
            expected = IndexBucket::Busy;
            expectedKey = c->function();
            ++busyBrute[c->function()];
            break;
          case State::Dead:
            fail("dead container still in the map");
            break;
        }
        const Hooks& h = hooks(*c);
        if (h.bucket != static_cast<std::uint8_t>(expected) ||
            h.bucketKey != expectedKey) {
            fail("container " + std::to_string(id) +
                 " filed in the wrong index for its state");
        }
        if (h.claimed && c->state() != State::Initializing)
            fail("claimed container is not initializing");
    }
    if (idleBrute != _idleAll.count)
        fail("global idle list disagrees with brute-force idle count");
    std::size_t idleUserTotal = 0;
    for (const auto& [function, n] : idleUserBrute) {
        idleUserTotal += n;
        auto it = _idleUsers.find(function);
        if (it == _idleUsers.end() || it->second.count != n)
            fail("idle-User bucket count disagrees with brute force");
    }
    if (idleUserTotal != _idleUserAll.count ||
        idleUserTotal != idleCountAtLayer(Layer::User, std::nullopt))
        fail("idle-User count disagrees with brute force");
    for (const auto& [function, list] : _idleUsers) {
        if (list.count != 0 &&
            idleUserBrute.find(function) == idleUserBrute.end())
            fail("stale idle-User bucket entry");
    }
    for (std::size_t i = 0; i < _idleLangs.size(); ++i) {
        if (_idleLangs[i].count != idleLangBrute[i])
            fail("idle-Lang bucket count disagrees with brute force");
    }
    if (_idleBare.count != idleBareBrute)
        fail("idle-Bare list disagrees with brute force");
    for (const auto& [function, n] : unclaimedBrute) {
        auto it = _unclaimedInits.find(function);
        if (it == _unclaimedInits.end() || it->second.count != n)
            fail("unclaimed-init bucket disagrees with brute force");
    }
    for (const auto& [function, list] : _unclaimedInits) {
        if (list.count != 0 &&
            unclaimedBrute.find(function) == unclaimedBrute.end())
            fail("stale unclaimed-init bucket entry");
    }
    if (busyBrute.size() != _busyByFunction.size())
        fail("busy-count map size disagrees with brute force");
    for (const auto& [function, n] : busyBrute) {
        auto it = _busyByFunction.find(function);
        if (it == _busyByFunction.end() || it->second != n)
            fail("busy count disagrees with brute force");
    }

    // 3. Memory accounting.
    if (std::abs(usedBrute - _usedMb) > 1e-3)
        fail("memory accounting drifted from brute-force sum");
}

} // namespace rc::platform
