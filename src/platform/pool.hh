/**
 * @file
 * The container pool: storage, indexed lookup, memory accounting,
 * waste log.
 *
 * The pool owns every container on the worker node, enforces the
 * node's memory budget (initializations reserve the target layer's
 * footprint up front), answers the lookup queries the invoker and
 * policies need, and maintains the idle-memory waste log that
 * produces the Fig. 8 green/red split.
 *
 * Lookups used to be linear scans over the container map on the
 * theory that a few thousand containers per node kept them cheap.
 * They are not: every dispatch walks the whole ladder, the cluster
 * scheduler probes every node per placement, and eviction ranking
 * materialized a fresh vector per call, so pool scans dominated
 * per-event cost at fleet scale (the same lesson Serv-Drishti and
 * Pagurus report). The pool now maintains intrusive, insertion-
 * ordered index lists updated on every state transition:
 *
 *  * per-function idle-User lists (zygotes file under
 *    kInvalidFunction after demoteToZygote),
 *  * per-language idle-Lang lists and one idle-Bare free list,
 *  * per-function unclaimed in-flight-init lists (pre-warm latching),
 *  * a global idle list and a global idle-User list (eviction
 *    ranking, foreign-user sharing), and
 *  * per-function busy counts.
 *
 * Each idle list is kept ordered by idleSince (ascending, ties in
 * insertion order), so "most recently idled" is the tail; unclaimed-
 * init lists are ordered by createdAt, so "finishes soonest" is the
 * head. That makes findIdleUser / findIdleLang / findIdleBare /
 * findUnclaimedInit / userAvailable O(1) and idleForeignUsers
 * proportional to the number of idle User containers — and every
 * candidate order deterministic by construction (insertion-ordered,
 * never hash-ordered), which the bit-identical seed goldens rely on.
 * The links, and the claim bit of an in-flight init, live inside
 * Container (PoolHooks), so index maintenance is a handful of pointer
 * writes and never allocates.
 *
 * auditIndices() cross-validates every index against a brute-force
 * scan of the container map; chaos_check enables it periodically via
 * PoolConfig::auditEveryMutations.
 */

#ifndef RC_PLATFORM_POOL_HH_
#define RC_PLATFORM_POOL_HH_

#include <array>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "container/container.hh"
#include "obs/observer.hh"
#include "sim/engine.hh"
#include "stats/interval_log.hh"
#include "workload/catalog.hh"

namespace rc::platform {

/** Static configuration of one worker node's pool. */
struct PoolConfig
{
    /** Memory available for containers, in MB (paper: 240 GB node). */
    double memoryBudgetMb = 240.0 * 1024.0;

    /**
     * Run auditIndices() after every N pool mutations (0 = never).
     * Debug/chaos harness knob: the audit is a brute-force scan, so
     * production configs leave it off.
     */
    std::uint32_t auditEveryMutations = 0;
};

/** Owner of all container instances on a node. */
class ContainerPool
{
  public:
    /**
     * @param observer  Optional trace/counter sink; nullptr (the
     *                  default) disables all instrumentation at the
     *                  cost of one branch per mutation.
     */
    ContainerPool(sim::Engine& engine, PoolConfig config,
                  obs::Observer* observer = nullptr);

    // ---- capacity ------------------------------------------------------

    double memoryBudgetMb() const { return _config.memoryBudgetMb; }
    double usedMemoryMb() const { return _usedMb; }
    double freeMemoryMb() const { return _config.memoryBudgetMb - _usedMb; }
    bool canFit(double mb) const { return mb <= freeMemoryMb() + 1e-9; }

    /** Number of live (non-dead) containers. */
    std::size_t liveCount() const { return _containers.size(); }

    // ---- lookup (all O(1) unless noted) --------------------------------

    /**
     * Idle full container owned by @p function; nullptr if none.
     * Prefers the most recently idled container (LIFO keeps the
     * working set warm and lets older ones expire).
     */
    container::Container* findIdleUser(workload::FunctionId function);

    /**
     * Idle full containers owned by other functions (candidates for
     * Pagurus-style sharing), in creation order (ascending id): the
     * dispatch ladder consumes the first policy-approved candidate,
     * so the order is part of observable behavior. The allocating
     * form is for tests; hot paths use the scratch-buffer overload,
     * which only allocates until @p out's capacity warms up. Cost:
     * proportional to the number of idle User containers.
     */
    std::vector<container::Container*>
    idleForeignUsers(workload::FunctionId function);
    void idleForeignUsers(workload::FunctionId function,
                          std::vector<container::Container*>& out);

    /** Idle Lang container of @p language; nullptr if none. */
    container::Container* findIdleLang(workload::Language language);

    /** Any idle Bare container; nullptr if none. */
    container::Container* findIdleBare();

    /**
     * Unclaimed container currently initializing toward a User layer
     * of @p function (an in-flight pre-warm); nullptr if none.
     * Prefers the oldest in-flight init: it finishes soonest.
     */
    container::Container*
    findUnclaimedInit(workload::FunctionId function);

    /** True if an idle, in-flight, or busy User container exists. */
    bool userAvailable(workload::FunctionId function);

    /**
     * All idle containers, least recently idled first (const view,
     * for policy eviction ranking). The allocating form is the
     * PlatformView-compatible one; collectIdle() reuses @p out.
     */
    std::vector<const container::Container*> idleContainers() const;
    void collectIdle(std::vector<const container::Container*>& out) const;

    /** Visit every idle container, least recently idled first. */
    template <class F>
    void
    forEachIdle(F&& fn) const
    {
        for (const container::Container* c = _idleAll.head; c != nullptr;
             c = c->_poolHooks.idleNext) {
            fn(*c);
        }
    }

    /** Number of idle containers (any layer). */
    std::size_t idleCount() const { return _idleAll.count; }

    /**
     * Number of idle containers at @p layer; for Layer::Lang,
     * restricted to @p language. The per-node per-language
     * availability summary the cluster scheduler and RainbowCake's
     * shared-pool saturation check consult instead of scanning; O(1),
     * the User count (zygotes included) read off the idle-User list.
     */
    std::size_t
    idleCountAtLayer(workload::Layer layer,
                     std::optional<workload::Language> language) const;

    /** Idle Lang containers of @p language (availability summary). */
    std::size_t idleLangCount(workload::Language language) const
    {
        return _idleLangs[workload::languageIndex(language)].count;
    }

    /** Idle Bare containers (availability summary). */
    std::size_t idleBareCount() const { return _idleBare.count; }

    /** Container by id; nullptr if dead/unknown. */
    container::Container* byId(container::ContainerId id);

    /**
     * Ids of every live container, ascending (creation order). Used
     * by the node-crash fault path, which must destroy the whole pool
     * in a deterministic order regardless of hash-map layout.
     */
    std::vector<container::ContainerId> allContainerIds() const;

    // ---- mutations -----------------------------------------------------

    /**
     * Create a container initializing toward @p target for
     * @p profile. Fails (nullptr) if the target footprint does not
     * fit the budget; the caller decides whether to evict first.
     *
     * @param claimed True when the container is created on behalf of
     *                a waiting invocation (cold start); false for
     *                pre-warms.
     */
    container::Container* create(const workload::FunctionProfile& profile,
                                 workload::Layer target, bool claimed);

    /** Mark an in-flight container as claimed by an invocation. */
    void claim(container::Container& c);

    /** True if the in-flight container is claimed. */
    bool isClaimed(const container::Container& c) const
    {
        return hooks(c).claimed;
    }

    /**
     * Release the claim on an in-flight container without killing it:
     * the init keeps running and the container re-files as an
     * unclaimed pre-warm the next arrival can latch onto. Inverse of
     * claim(); used when a hedge cancel abandons a Load attachment.
     */
    void unclaim(container::Container& c);

    /**
     * Begin upgrading an idle container toward @p target for
     * @p profile (partial warm start). Returns false without side
     * effects if the memory delta does not fit.
     */
    bool beginUpgrade(container::Container& c,
                      const workload::FunctionProfile& profile,
                      workload::Layer target);

    /**
     * Fork a claimed clone of an idle shared (Lang/Bare) template for
     * @p profile: the template stays resident (its idle time so far
     * is classified as hit), the clone initializes toward the User
     * layer. Returns nullptr when the clone's footprint does not fit.
     */
    container::Container* forkFrom(container::Container& source,
                                   const workload::FunctionProfile& profile);

    /**
     * Repurpose an idle foreign User container for @p profile
     * (Pagurus sharing). Returns false if the memory delta of the new
     * user layer does not fit.
     */
    bool beginRepurpose(container::Container& c,
                        const workload::FunctionProfile& profile);

    /** Initialization complete: container becomes idle. */
    void finishInit(container::Container& c);

    /** Idle User container starts executing; waste intervals -> hit. */
    void beginExecution(container::Container& c);

    /** Execution complete: container idles again. */
    void finishExecution(container::Container& c);

    /** Peel the top layer; releases the memory delta. */
    void downgrade(container::Container& c);

    /**
     * Wipe the owner of an idle User container (Pagurus re-packing):
     * the container re-files under kInvalidFunction in the idle-User
     * index, so the former owner also goes through the foreign-user
     * path. Must go through the pool — Container::demoteToZygote
     * alone would leave the per-function index stale.
     */
    void demoteToZygote(container::Container& c);

    /**
     * Terminate a container: releases memory, flushes its idle
     * intervals (never-hit unless already classified), cancels any
     * pending timeout event, and destroys it. @p cause is recorded in
     * the trace and the per-cause eviction counters.
     */
    void kill(container::Container& c,
              obs::KillCause cause = obs::KillCause::Unknown);

    /**
     * Fault-path kill: like kill(), but also legal on a Busy
     * container (execution crash / watchdog / node crash). The
     * in-flight invocation's fate is the caller's problem — the
     * invoker retries or fails it.
     */
    void forceKill(container::Container& c, obs::KillCause cause);

    /**
     * Attach packed-function metadata and its extra memory to an idle
     * User container (Pagurus zygote). Returns false if the extra
     * memory does not fit.
     */
    bool setPacked(container::Container& c,
                   std::vector<workload::FunctionId> packed,
                   double packedMemoryMb);

    /** Charge auxiliary memory (checkpoint images) to a container. */
    bool setAuxiliaryMemory(container::Container& c, double mb);

    // ---- waste ---------------------------------------------------------

    /** Closed, classified idle intervals (Fig. 8 data). */
    const stats::IntervalLog& wasteLog() const { return _waste; }

    /** Move the waste log out, leaving the pool an empty one. */
    stats::IntervalLog takeWasteLog()
    {
        return std::exchange(_waste, stats::IntervalLog{});
    }

    // ---- recovery prewarm provenance -----------------------------------

    /**
     * Tag @p c as a recovery warm-up container (created from a
     * rejoining node's pre-failure layer census). The pool classifies
     * every tagged container exactly once: hit on first reuse, evicted
     * when killed for memory/saturation, wasted otherwise — the
     * prewarm conservation identity chaos_check fuzzes.
     */
    void markRecoveryPrewarmed(container::Container& c)
    {
        c.markRecoveryPrewarmed();
    }

    /**
     * Count a census prewarm that never produced a container (memory
     * veto, policy veto, node down) straight into the wasted bucket.
     */
    void noteRecoveryPrewarmWasted() { ++_prewarmWasted; }

    std::uint64_t recoveryPrewarmHits() const { return _prewarmHits; }
    std::uint64_t recoveryPrewarmEvicted() const { return _prewarmEvicted; }
    std::uint64_t recoveryPrewarmWasted() const { return _prewarmWasted; }
    /** Memory held by wasted (never reused) census prewarms, in MB. */
    double recoveryPrewarmWastedMb() const { return _prewarmWastedMb; }

    // ---- invariants ----------------------------------------------------

    /**
     * Cross-validate every index against a brute-force scan of the
     * container map: membership, tags, keys, ordering, busy counts,
     * claim bits, the idle-User count, and memory accounting. Panics
     * on the first inconsistency. chaos_check runs this periodically
     * (see PoolConfig::auditEveryMutations); tests call it directly.
     */
    void auditIndices() const;

  private:
    using Hooks = container::Container::PoolHooks;

    /** Which index a container is filed in (Hooks::bucket). */
    enum class IndexBucket : std::uint8_t
    {
        None,          //!< busy-claimed init or mid-transition
        IdleUser,      //!< _idleUsers[function] (+ both global lists)
        IdleLang,      //!< _idleLangs[language] (+ global idle list)
        IdleBare,      //!< _idleBare (+ global idle list)
        UnclaimedInit, //!< _unclaimedInits[initFunction]
        Busy,          //!< counted in _busyByFunction
    };

    /** Friend-access bridge for the nested list type. */
    static Hooks& hooks(container::Container& c) { return c._poolHooks; }
    static const Hooks& hooks(const container::Container& c)
    {
        return c._poolHooks;
    }

    /**
     * Intrusive doubly-linked list over one pair of PoolHooks links.
     * Insertion keeps a caller-chosen ascending order (idleSince for
     * idle lists, createdAt for init lists); the common case — the
     * new node carries the largest key — appends in O(1).
     */
    template <container::Container* Hooks::*PrevM,
              container::Container* Hooks::*NextM>
    struct List
    {
        container::Container* head = nullptr;
        container::Container* tail = nullptr;
        std::size_t count = 0;

        bool empty() const { return count == 0; }

        /** Insert @p c before all nodes @p less orders it before. */
        template <class Less>
        void
        insertOrdered(container::Container* c, Less less)
        {
            container::Container* at = tail;
            while (at != nullptr && less(*c, *at))
                at = hooks(*at).*PrevM;
            // c goes immediately after `at` (nullptr -> new head).
            container::Container* next =
                at != nullptr ? hooks(*at).*NextM : head;
            hooks(*c).*PrevM = at;
            hooks(*c).*NextM = next;
            if (at != nullptr)
                hooks(*at).*NextM = c;
            else
                head = c;
            if (next != nullptr)
                hooks(*next).*PrevM = c;
            else
                tail = c;
            ++count;
        }

        void
        remove(container::Container* c)
        {
            container::Container* prev = hooks(*c).*PrevM;
            container::Container* next = hooks(*c).*NextM;
            if (prev != nullptr)
                hooks(*prev).*NextM = next;
            else
                head = next;
            if (next != nullptr)
                hooks(*next).*PrevM = prev;
            else
                tail = prev;
            hooks(*c).*PrevM = nullptr;
            hooks(*c).*NextM = nullptr;
            --count;
        }
    };

    using BucketList = List<&Hooks::bucketPrev, &Hooks::bucketNext>;
    using IdleList = List<&Hooks::idlePrev, &Hooks::idleNext>;
    using UserList = List<&Hooks::userPrev, &Hooks::userNext>;

    /** Remove @p c from whichever index its tag says it is in. */
    void unindex(container::Container& c);

    /** File @p c in the index its current state belongs to. */
    void reindex(container::Container& c);

    /** Audit hook: every mutator calls this once on completion. */
    void noteMutation();

    void retrack(container::Container& c, double beforeMb);

    void killImpl(container::Container& c, obs::KillCause cause,
                  bool force);

    /** First reuse of a recovery prewarm: count the hit, drop the tag. */
    void noteRecoveryUse(container::Container& c)
    {
        if (c.recoveryPrewarmed()) {
            ++_prewarmHits;
            c.clearRecoveryPrewarmed();
        }
    }

    /** Record memory/live-count high-water marks after a mutation. */
    void trackGauges();

    sim::Engine& _engine;
    PoolConfig _config;
    obs::Observer* _obs = nullptr;
    double _usedMb = 0.0;
    container::ContainerId _nextId = 1;
    std::unordered_map<container::ContainerId,
                       std::unique_ptr<container::Container>> _containers;
    stats::IntervalLog _waste;

    // ---- lookup indices (insertion-ordered; see file header) -----------

    std::unordered_map<workload::FunctionId, BucketList> _idleUsers;
    std::array<BucketList, workload::kLanguageCount> _idleLangs;
    BucketList _idleBare;
    std::unordered_map<workload::FunctionId, BucketList> _unclaimedInits;
    IdleList _idleAll;
    UserList _idleUserAll;
    std::unordered_map<workload::FunctionId, std::uint32_t> _busyByFunction;
    std::uint64_t _mutations = 0;

    // ---- recovery prewarm provenance (see markRecoveryPrewarmed) -------
    std::uint64_t _prewarmHits = 0;
    std::uint64_t _prewarmEvicted = 0;
    std::uint64_t _prewarmWasted = 0;
    double _prewarmWastedMb = 0.0;
};

} // namespace rc::platform

#endif // RC_PLATFORM_POOL_HH_
