/**
 * @file
 * Container-pool lookup benchmark with machine-readable output.
 *
 * Builds pools with mixed 2k-container populations (idle User across
 * many functions, idle Lang/Bare, busy, unclaimed in-flight inits)
 * and measures the dispatch-ladder lookups (findIdleUser,
 * findUnclaimedInit, userAvailable, findIdleLang, findIdleBare), the
 * foreign-user candidate walk, and the eviction-path idle collection
 * — each against an in-file copy of the seed implementation
 * (`LegacyScan`). The baseline iterates an unordered_map keyed by
 * container id and materializes fresh vectors per call, exactly
 * mirroring the seed's `_containers` storage and by-value returns, so
 * speedup_vs_scan measures the real before/after.
 *
 * Two populations:
 *  * dense — 75% idle User. Worst case for the proportional-cost
 *    walks (the result set is almost the whole pool) but the natural
 *    habitat of the O(1) ladder lookups.
 *  * sparse — 87% busy, 8% idle. A saturated node, where the indexed
 *    walks touch only their result set while the seed still scans
 *    every container.
 *
 * Every measurement is appended to `BENCH_pool.json` with the schema
 * `{bench, metric, value, unit, threads}` so the performance
 * trajectory is tracked PR-over-PR. The run fails (exit 1) if the
 * ladder-lookup speedup at the full population falls below 5x, which
 * pins the O(1)-index claim in CI.
 *
 * Flags:
 *   --quick        fewer lookups/repetitions (CI smoke run)
 *   --out PATH     JSON output path (default BENCH_pool.json)
 *   --containers N population size (default 2000)
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_record.hh"
#include "container/container.hh"
#include "platform/pool.hh"
#include "sim/engine.hh"
#include "sim/time.hh"
#include "workload/catalog.hh"

namespace {

using namespace rc;
using namespace rc::bench;
using container::Container;
using container::State;
using workload::Layer;

/**
 * Faithful copy of the seed pool's lookup logic (PR 0): one linear
 * pass over the container map per query, fresh vectors returned by
 * value. Kept here, not in src/, purely as the measurement baseline
 * for speedup_vs_scan.
 */
struct LegacyScan
{
    std::unordered_map<container::ContainerId, const Container*> containers;
    std::unordered_set<container::ContainerId> claimed;

    const Container*
    findIdleUser(workload::FunctionId function) const
    {
        const Container* best = nullptr;
        for (const auto& [id, c] : containers) {
            if (c->state() == State::Idle && c->layer() == Layer::User &&
                c->function() == function) {
                if (!best || c->idleSince() > best->idleSince())
                    best = c;
            }
        }
        return best;
    }

    const Container*
    findIdleLang(workload::Language language) const
    {
        const Container* best = nullptr;
        for (const auto& [id, c] : containers) {
            if (c->state() == State::Idle && c->layer() == Layer::Lang &&
                c->language() && *c->language() == language) {
                if (!best || c->idleSince() > best->idleSince())
                    best = c;
            }
        }
        return best;
    }

    const Container*
    findIdleBare() const
    {
        const Container* best = nullptr;
        for (const auto& [id, c] : containers) {
            if (c->state() == State::Idle && c->layer() == Layer::Bare) {
                if (!best || c->idleSince() > best->idleSince())
                    best = c;
            }
        }
        return best;
    }

    const Container*
    findUnclaimedInit(workload::FunctionId function) const
    {
        const Container* best = nullptr;
        for (const auto& [id, c] : containers) {
            if (c->state() == State::Initializing &&
                c->targetLayer() == Layer::User &&
                c->initFunction() == function &&
                claimed.find(c->id()) == claimed.end()) {
                if (!best || c->createdAt() < best->createdAt())
                    best = c;
            }
        }
        return best;
    }

    bool
    userAvailable(workload::FunctionId function) const
    {
        if (findIdleUser(function) || findUnclaimedInit(function))
            return true;
        for (const auto& [id, c] : containers) {
            if (c->state() == State::Busy && c->function() == function)
                return true;
        }
        return false;
    }

    std::vector<const Container*>
    idleForeignUsers(workload::FunctionId function) const
    {
        std::vector<const Container*> out;
        for (const auto& [id, c] : containers) {
            if (c->state() == State::Idle && c->layer() == Layer::User &&
                c->function() != function) {
                out.push_back(c);
            }
        }
        return out;
    }

    std::vector<const Container*>
    idleContainers() const
    {
        std::vector<const Container*> out;
        for (const auto& [id, c] : containers) {
            if (c->state() == State::Idle)
                out.push_back(c);
        }
        return out;
    }
};

enum class Role
{
    IdleUser,
    IdleLang,
    IdleBare,
    Busy,
    UnclaimedInit,
};

/** One pool plus its LegacyScan mirror, built to a given state mix. */
struct Population
{
    sim::Engine engine;
    platform::ContainerPool pool;
    LegacyScan legacy;

    Population(const workload::Catalog& catalog,
               const std::vector<workload::FunctionId>& functions,
               int size, const std::function<Role(int)>& roleOf)
        : pool(engine, config())
    {
        sim::Tick now = 0;
        for (int i = 0; i < size; ++i) {
            const auto& profile = catalog.at(
                functions[static_cast<std::size_t>(i) % functions.size()]);
            // Distinct creation/idle ticks: the recency orderings the
            // indices maintain are total, like in a live node.
            now += sim::kSecond / 10;
            engine.runUntil(now);
            Container* c = nullptr;
            switch (roleOf(i)) {
            case Role::UnclaimedInit:
                c = pool.create(profile, Layer::User, false);
                break;
            case Role::Busy:
                c = pool.create(profile, Layer::User, false);
                pool.finishInit(*c);
                pool.beginExecution(*c);
                break;
            case Role::IdleLang:
                c = pool.create(profile, Layer::Lang, false);
                pool.finishInit(*c);
                break;
            case Role::IdleBare:
                c = pool.create(profile, Layer::Bare, false);
                pool.finishInit(*c);
                break;
            case Role::IdleUser:
                c = pool.create(profile, Layer::User, false);
                pool.finishInit(*c);
                break;
            }
            legacy.containers.emplace(c->id(), c);
        }
        pool.auditIndices(); // the population must be self-consistent
    }

    static platform::PoolConfig
    config()
    {
        platform::PoolConfig config;
        config.memoryBudgetMb = 1e9; // capacity is not under test
        return config;
    }
};

/**
 * Foreign-user candidate walk (Pagurus sharing) and eviction-path
 * idle collection on one population. The indexed side reuses scratch
 * buffers (the invoker's discipline); the legacy side materializes
 * fresh vectors like the seed did.
 */
void
measureWalks(std::vector<BenchRecord>& records, Population& population,
             const std::vector<workload::FunctionId>& functions,
             const std::string& tag, int walks, int reps)
{
    std::vector<Container*> scratch;
    std::uint64_t sink = 0;
    const double foreignIndexed = bestSeconds(reps, [&] {
        for (int i = 0; i < walks; ++i) {
            population.pool.idleForeignUsers(
                functions[static_cast<std::size_t>(i) % functions.size()],
                scratch);
            sink += scratch.size();
        }
    });
    const double foreignScan = bestSeconds(reps, [&] {
        for (int i = 0; i < walks; ++i) {
            sink += population.legacy
                        .idleForeignUsers(functions[
                            static_cast<std::size_t>(i) % functions.size()])
                        .size();
        }
    });
    report(records, {"pool_foreign_users_" + tag, "walks_per_sec",
                     walks / foreignIndexed, "walks/s", 1});
    report(records, {"pool_foreign_users_" + tag, "speedup_vs_scan",
                     foreignScan / foreignIndexed, "x", 1});

    std::vector<const Container*> idleScratch;
    const double collectIndexed = bestSeconds(reps, [&] {
        for (int i = 0; i < walks; ++i) {
            population.pool.collectIdle(idleScratch);
            sink += idleScratch.size();
        }
    });
    const double collectScan = bestSeconds(reps, [&] {
        for (int i = 0; i < walks; ++i)
            sink += population.legacy.idleContainers().size();
    });
    if (sink == 0)
        std::abort(); // defeat dead-code elimination
    report(records, {"pool_collect_idle_" + tag, "collects_per_sec",
                     walks / collectIndexed, "collects/s", 1});
    report(records, {"pool_collect_idle_" + tag, "speedup_vs_scan",
                     collectScan / collectIndexed, "x", 1});
}

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string outPath = "BENCH_pool.json";
    int population = 2000;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            outPath = argv[++i];
        } else if (std::strcmp(argv[i], "--containers") == 0 &&
                   i + 1 < argc) {
            population = std::max(100, std::atoi(argv[++i]));
        } else {
            std::cerr << "usage: bench_micro_pool [--quick] [--out PATH]"
                         " [--containers N]\n";
            return 2;
        }
    }

    const int reps = quick ? 3 : 7;
    const int lookups = quick ? 20000 : 200000;
    std::vector<BenchRecord> records;

    const auto catalog = workload::Catalog::standard20();
    std::vector<workload::FunctionId> functions;
    for (const auto& p : catalog.profiles())
        functions.push_back(p.id());

    // Dense: a keep-alive-rich node. 5% unclaimed in-flight inits, 5%
    // busy, 10% idle Lang, 5% idle Bare, 75% idle User spread over
    // the 20-function catalog.
    Population dense(catalog, functions, population, [](int i) {
        if (i % 20 == 0)
            return Role::UnclaimedInit;
        if (i % 20 == 1)
            return Role::Busy;
        if (i % 10 == 2 || i % 10 == 7)
            return Role::IdleLang;
        if (i % 20 == 3)
            return Role::IdleBare;
        return Role::IdleUser;
    });

    // Sparse: a saturated node. 87% busy, 5% unclaimed inits, 8% idle
    // split across the layers.
    Population sparse(catalog, functions, population, [](int i) {
        const int slot = i % 100;
        if (slot < 5)
            return Role::IdleUser;
        if (slot < 7)
            return Role::IdleLang;
        if (slot < 8)
            return Role::IdleBare;
        if (slot < 13)
            return Role::UnclaimedInit;
        return Role::Busy;
    });

    const workload::Language languages[] = {workload::Language::NodeJs,
                                            workload::Language::Python,
                                            workload::Language::Java};

    // (a) The dispatch-ladder lookups, indexed vs scan, on the dense
    // population. Every iteration runs the full miss ladder for one
    // function: idle User, unclaimed init, availability, idle Lang,
    // idle Bare.
    {
        std::uint64_t sinkIndexed = 0;
        const double indexedSec = bestSeconds(reps, [&] {
            for (int i = 0; i < lookups; ++i) {
                const auto f = functions[
                    static_cast<std::size_t>(i) % functions.size()];
                if (const auto* c = dense.pool.findIdleUser(f))
                    sinkIndexed += c->id();
                if (const auto* c = dense.pool.findUnclaimedInit(f))
                    sinkIndexed += c->id();
                sinkIndexed += dense.pool.userAvailable(f) ? 1 : 0;
                if (const auto* c = dense.pool.findIdleLang(
                        languages[static_cast<std::size_t>(i) % 3]))
                    sinkIndexed += c->id();
                if (const auto* c = dense.pool.findIdleBare())
                    sinkIndexed += c->id();
            }
        });
        std::uint64_t sinkLegacy = 0;
        const double scanSec = bestSeconds(reps, [&] {
            for (int i = 0; i < lookups; ++i) {
                const auto f = functions[
                    static_cast<std::size_t>(i) % functions.size()];
                if (const auto* c = dense.legacy.findIdleUser(f))
                    sinkLegacy += c->id();
                if (const auto* c = dense.legacy.findUnclaimedInit(f))
                    sinkLegacy += c->id();
                sinkLegacy += dense.legacy.userAvailable(f) ? 1 : 0;
                if (const auto* c = dense.legacy.findIdleLang(
                        languages[static_cast<std::size_t>(i) % 3]))
                    sinkLegacy += c->id();
                if (const auto* c = dense.legacy.findIdleBare())
                    sinkLegacy += c->id();
            }
        });
        if (sinkIndexed != sinkLegacy) {
            std::cerr << "indexed and scan lookups disagree ("
                      << sinkIndexed << " vs " << sinkLegacy << ")\n";
            return 1;
        }
        const double speedup = scanSec / indexedSec;
        report(records, {"pool_ladder_lookup", "lookups_per_sec",
                         lookups / indexedSec, "lookups/s", 1});
        report(records, {"legacy_ladder_lookup", "lookups_per_sec",
                         lookups / scanSec, "lookups/s", 1});
        report(records, {"pool_ladder_lookup", "speedup_vs_scan",
                         speedup, "x", 1});
        if (speedup < 5.0) {
            std::cerr << "FAIL: ladder lookup speedup " << speedup
                      << "x is below the pinned 5x at " << population
                      << " containers\n";
            writeJson(outPath, records);
            return 1;
        }
    }

    // (b) Proportional-cost walks on both populations. Dense is the
    // adversarial case (the result set IS the pool — the index buys
    // allocation-freedom, not fewer visits); sparse is the saturated
    // node where the index touches ~8% of what the scan does.
    measureWalks(records, dense, functions, "dense", lookups / 10, reps);
    measureWalks(records, sparse, functions, "sparse", lookups / 10, reps);

    writeJson(outPath, records);
    std::cout << "wrote " << records.size() << " records to " << outPath
              << "\n";
    return 0;
}
