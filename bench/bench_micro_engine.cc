/**
 * @file
 * Engine hot-path benchmark suite with machine-readable output.
 *
 * Measures (a) raw event throughput of the (tick, seq) heap engine,
 * (b) schedule/cancel throughput under the keep-alive renewal
 * pattern, (c) the same workloads on an in-file copy of the seed
 * engine (`LegacyEngine`: std::priority_queue + unordered_map of
 * std::function) so the speedup is computed in place, and (d)
 * end-to-end sweep wall-clock through `rc::exp::ParallelRunner` at 1
 * and N threads.
 *
 * Every measurement is appended to `BENCH_engine.json` with the
 * schema `{bench, metric, value, unit, threads}` so the performance
 * trajectory is tracked PR-over-PR.
 *
 * Flags:
 *   --quick        smaller batches/repetitions (CI smoke run)
 *   --out PATH     JSON output path (default BENCH_engine.json)
 *   --threads N    thread count for the parallel sweep (default
 *                  ParallelRunner::defaultThreadCount())
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iostream>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_record.hh"
#include "exp/experiment.hh"
#include "exp/parallel_runner.hh"
#include "exp/standard_traces.hh"
#include "obs/observer.hh"
#include "sim/engine.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workload/catalog.hh"

namespace {

using namespace rc;
using namespace rc::bench;

/**
 * Faithful copy of the seed engine (PR 0): binary priority_queue of
 * {when, seq, id} plus an unordered_map<EventId, std::function> with
 * lazy tombstone skipping. Kept here, not in src/, purely as the
 * measurement baseline for speedup_vs_legacy.
 */
class LegacyEngine
{
  public:
    using Callback = std::function<void()>;

    std::uint64_t
    schedule(sim::Tick when, Callback cb)
    {
        const std::uint64_t id = _nextId++;
        _queue.push(Entry{when, _nextSeq++, id});
        _callbacks.emplace(id, std::move(cb));
        return id;
    }

    bool cancel(std::uint64_t id) { return _callbacks.erase(id) > 0; }

    void
    run()
    {
        while (!_queue.empty()) {
            const Entry entry = _queue.top();
            _queue.pop();
            auto it = _callbacks.find(entry.id);
            if (it == _callbacks.end())
                continue;
            _now = entry.when;
            Callback cb = std::move(it->second);
            _callbacks.erase(it);
            ++_executed;
            cb();
        }
    }

    std::uint64_t executedEvents() const { return _executed; }

  private:
    struct Entry
    {
        sim::Tick when;
        std::uint64_t seq;
        std::uint64_t id;

        bool
        operator>(const Entry& other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    sim::Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _nextId = 1;
    std::uint64_t _executed = 0;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        _queue;
    std::unordered_map<std::uint64_t, Callback> _callbacks;
};

/**
 * schedule-then-drain pattern shared by new and legacy engines.
 * @p ticks controls same-tick multiplicity: ticks == batch gives
 * all-distinct timestamps (37 is coprime to the batch sizes used),
 * smaller values pile batch/ticks events onto each tick.
 */
template <typename EngineT>
void
scheduleDispatch(int batch, int ticks)
{
    EngineT engine;
    long long sum = 0;
    for (int i = 0; i < batch; ++i)
        engine.schedule((i * 37) % ticks, [&sum, i] { sum += i; });
    engine.run();
    if (sum < 0)
        std::abort(); // defeat dead-code elimination
}

/** keep-alive renewal pattern: schedule all, cancel every other. */
template <typename EngineT>
void
cancelHeavy(int batch)
{
    EngineT engine;
    std::vector<std::uint64_t> ids;
    ids.reserve(static_cast<std::size_t>(batch));
    for (int i = 0; i < batch; ++i)
        ids.push_back(engine.schedule(i + 1, [] {}));
    for (std::size_t i = 0; i < ids.size(); i += 2)
        engine.cancel(ids[i]);
    engine.run();
    if (engine.executedEvents() == 0)
        std::abort();
}

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string outPath = "BENCH_engine.json";
    std::size_t sweepThreads = exp::ParallelRunner::defaultThreadCount();
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            outPath = argv[++i];
        } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            sweepThreads = static_cast<std::size_t>(
                std::max(1, std::atoi(argv[++i])));
        } else {
            std::cerr << "usage: bench_micro_engine [--quick] [--out PATH]"
                         " [--threads N]\n";
            return 2;
        }
    }

    const int reps = quick ? 3 : 7;
    const int largeBatch = quick ? 20000 : 100000;
    std::vector<BenchRecord> records;

    // (a) Raw schedule+dispatch throughput, engine vs. legacy, at
    // three same-tick multiplicities. "mixed_sim" mirrors the measured
    // eight-hour-sweep behaviour (~1.17 events per distinct tick);
    // "distinct" is the all-unique case; "shared20" piles 20 events
    // onto every tick, which no replayed workload does (they dispatch
    // 1.0-1.2 events per distinct tick, DESIGN.md §7.1).
    struct Pattern
    {
        const char* name;
        int ticks;
    };
    const Pattern patterns[] = {
        {"distinct", largeBatch},
        {"mixed_sim", largeBatch * 6 / 7},
        {"shared20", largeBatch / 20},
    };
    for (const Pattern& pat : patterns) {
        const int batch = largeBatch;
        const std::string suffix = std::string("/") + pat.name;
        const double engineSec = bestSeconds(reps, [batch, &pat] {
            scheduleDispatch<sim::Engine>(batch, pat.ticks);
        });
        const double legacySec = bestSeconds(reps, [batch, &pat] {
            scheduleDispatch<LegacyEngine>(batch, pat.ticks);
        });
        report(records, {"engine_schedule_dispatch" + suffix,
                         "events_per_sec", batch / engineSec, "events/s",
                         1});
        report(records, {"legacy_schedule_dispatch" + suffix,
                         "events_per_sec", batch / legacySec, "events/s",
                         1});
        report(records, {"engine_schedule_dispatch" + suffix,
                         "speedup_vs_legacy", legacySec / engineSec, "x",
                         1});
    }

    // (b) Schedule/cancel throughput (keep-alive renewal pattern).
    {
        const int batch = largeBatch;
        // ops = batch schedules + batch/2 cancels + batch/2 dispatches.
        const double ops = 2.0 * batch;
        const double engineSec =
            bestSeconds(reps, [batch] { cancelHeavy<sim::Engine>(batch); });
        const double legacySec =
            bestSeconds(reps, [batch] { cancelHeavy<LegacyEngine>(batch); });
        report(records, {"engine_cancel_heavy", "ops_per_sec",
                         ops / engineSec, "ops/s", 1});
        report(records, {"legacy_cancel_heavy", "ops_per_sec",
                         ops / legacySec, "ops/s", 1});
        report(records, {"engine_cancel_heavy", "speedup_vs_legacy",
                         legacySec / engineSec, "x", 1});
    }

    // (c) End-to-end sweep wall-clock: the six §7.2 baselines on the
    // 8-hour trace, repeated to fill the pool, sequential vs parallel.
    {
        const auto catalog = workload::Catalog::standard20();
        const auto arrivals =
            trace::expandArrivals(exp::eightHourTrace(catalog));
        const int repeats = quick ? 2 : 8;
        std::vector<exp::RunSpec> specs;
        for (int r = 0; r < repeats; ++r) {
            auto batch = exp::specsForPolicies(
                catalog, exp::standardBaselines(catalog), arrivals);
            for (auto& spec : batch)
                specs.push_back(std::move(spec));
        }

        const int sweepReps = quick ? 2 : 3;
        const double seqSec = bestSeconds(sweepReps, [&] {
            exp::ParallelRunner(1).run(specs);
        });
        const double parSec = bestSeconds(sweepReps, [&] {
            exp::ParallelRunner(sweepThreads).run(specs);
        });
        report(records, {"sweep_baselines_x" + std::to_string(repeats),
                         "wall_clock", seqSec, "s", 1});
        report(records, {"sweep_baselines_x" + std::to_string(repeats),
                         "wall_clock", parSec, "s", sweepThreads});
        report(records, {"sweep_baselines_x" + std::to_string(repeats),
                         "parallel_speedup", seqSec / parSec, "x",
                         sweepThreads});
    }

    // (d) Observability overhead: the same RainbowCake run with no
    // Observer (every emit site reduces to one nullptr branch) vs a
    // full Observer (event buffer + counters + profiling). The
    // tracked number is the ratio; the obs-off run must stay within
    // ~2% of the pre-observability engine, which section (a-c)
    // regressions and this ratio together pin down.
    {
        const auto catalog = workload::Catalog::standard20();
        trace::WorkloadTraceConfig traceConfig;
        traceConfig.minutes = quick ? 60 : 240;
        traceConfig.targetInvocations = quick ? 3000u : 20000u;
        traceConfig.seed = 5;
        const auto arrivals = trace::expandArrivals(
            trace::generateAzureLike(catalog, traceConfig));
        const auto rainbowcake = exp::standardBaselines(catalog).back();
        const int obsReps = quick ? 3 : 5;
        const double offSec = bestSeconds(obsReps, [&] {
            exp::runExperiment(catalog, rainbowcake.make, arrivals);
        });
        const double onSec = bestSeconds(obsReps, [&] {
            obs::Observer observer;
            platform::NodeConfig node;
            node.observer = &observer;
            exp::runExperiment(catalog, rainbowcake.make, arrivals,
                               node);
        });
        report(records, {"obs_overhead", "uninstrumented_wall_clock",
                         offSec, "s", 1});
        report(records, {"obs_overhead", "instrumented_wall_clock",
                         onSec, "s", 1});
        report(records, {"obs_overhead", "overhead_ratio",
                         onSec / offSec, "x", 1});
    }

    // (e) Span overhead: the same run with a spans-only Observer
    // (event trace and profiling off) vs uninstrumented. Spans cost
    // one 64-byte append per stage boundary plus the live-cursor map;
    // the budget below is deliberately generous (the measured ratio
    // sits near 1.0x) so CI flags a real hot-path regression, not
    // scheduler noise.
    {
        const auto catalog = workload::Catalog::standard20();
        trace::WorkloadTraceConfig traceConfig;
        traceConfig.minutes = quick ? 60 : 240;
        traceConfig.targetInvocations = quick ? 3000u : 20000u;
        traceConfig.seed = 5;
        const auto arrivals = trace::expandArrivals(
            trace::generateAzureLike(catalog, traceConfig));
        const auto rainbowcake = exp::standardBaselines(catalog).back();
        const int obsReps = quick ? 3 : 5;
        const double offSec = bestSeconds(obsReps, [&] {
            exp::runExperiment(catalog, rainbowcake.make, arrivals);
        });
        const double spanSec = bestSeconds(obsReps, [&] {
            obs::ObserverConfig config;
            config.traceEnabled = false;
            config.profilingEnabled = false;
            config.spansEnabled = true;
            obs::Observer observer(config);
            platform::NodeConfig node;
            node.observer = &observer;
            exp::runExperiment(catalog, rainbowcake.make, arrivals,
                               node);
        });
        const double ratio = spanSec / offSec;
        report(records, {"span_overhead", "uninstrumented_wall_clock",
                         offSec, "s", 1});
        report(records, {"span_overhead", "spans_only_wall_clock",
                         spanSec, "s", 1});
        report(records, {"span_overhead", "overhead_ratio", ratio, "x",
                         1});
        constexpr double kSpanOverheadBudget = 2.0;
        if (ratio > kSpanOverheadBudget) {
            std::cerr << "span_overhead: ratio " << ratio
                      << "x exceeds the pinned budget "
                      << kSpanOverheadBudget << "x\n";
            writeJson(outPath, records);
            return 1;
        }
    }

    writeJson(outPath, records);
    std::cout << "wrote " << records.size() << " records to " << outPath
              << "\n";
    return 0;
}
