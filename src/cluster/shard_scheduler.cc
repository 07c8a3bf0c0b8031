#include "cluster/shard_scheduler.hh"

#include <limits>

#include "sim/logging.hh"

namespace rc::cluster {

ShardScheduler::ShardScheduler(Scheduling scheduling,
                               const workload::Catalog& catalog)
    : _scheduling(scheduling), _catalog(catalog),
      _affinity(catalog.size(), 0)
{
}

std::size_t
ShardScheduler::leastLoaded(const SummaryTable& table,
                            std::size_t avoid) const
{
    // Two passes: prefer available nodes, but when the whole cluster
    // is down still place the work (it queues on the node and drains
    // at restart).
    for (const bool availableOnly : {true, false}) {
        std::size_t best = table.size();
        std::uint32_t bestInFlight =
            std::numeric_limits<std::uint32_t>::max();
        double bestMemory = std::numeric_limits<double>::max();
        for (std::size_t i = 0; i < table.size(); ++i) {
            if (availableOnly && !routable(table, i, avoid))
                continue;
            if (table[i].inFlightPlusQueued < bestInFlight ||
                (table[i].inFlightPlusQueued == bestInFlight &&
                 table[i].usedMemoryMb < bestMemory)) {
                best = i;
                bestInFlight = table[i].inFlightPlusQueued;
                bestMemory = table[i].usedMemoryMb;
            }
        }
        if (best != table.size())
            return best;
    }
    return 0;
}

void
ShardScheduler::place(SummaryTable& table, workload::FunctionId function,
                      std::size_t index)
{
    table.place(index);
    if (function < _affinity.size())
        _affinity[function] = static_cast<std::uint32_t>(index) + 1;
}

std::size_t
ShardScheduler::pick(SummaryTable& table, workload::FunctionId function,
                     std::size_t avoid)
{
    const std::size_t n = table.size();
    if (n == 0)
        sim::panic("ShardScheduler::pick: no nodes");

    switch (_scheduling) {
      case Scheduling::RoundRobin: {
        for (std::size_t tried = 0; tried < n; ++tried) {
            const std::size_t i = _cursor++ % n;
            if (routable(table, i, avoid)) {
                place(table, function, i);
                return i;
            }
        }
        const std::size_t i = _cursor++ % n;
        place(table, function, i);
        return i;
      }

      case Scheduling::LeastLoaded: {
        const std::size_t i = leastLoaded(table, avoid);
        place(table, function, i);
        return i;
      }

      case Scheduling::LocalityAware: {
        // 1. Affinity: the node that served this function last holds
        //    its warm User container unless the pool evicted it.
        //    Past saturation the warm hit is a mirage — the backlog
        //    ahead of this request will claim the container long
        //    before it runs — and pinning only deepens the hot node's
        //    queue. After a correlated outage every affinity points
        //    at a survivor, so without this spill rejoined nodes
        //    never see traffic and the fleet cannot re-balance.
        if (function < _affinity.size() && _affinity[function] != 0) {
            const std::size_t i = _affinity[function] - 1;
            if (i < n && routable(table, i, avoid) &&
                table[i].inFlightPlusQueued < kAffinitySpillDepth) {
                place(table, function, i);
                return i;
            }
        }
        // 2. Sharing: a node with an idle Lang container of the
        //    function's language beats one with only an idle Bare.
        //    Consume the summary slot so one barrier's worth of
        //    arrivals spreads over the actual idle capacity.
        const auto language = static_cast<std::size_t>(
            _catalog.at(function).language());
        for (std::size_t i = 0; i < n; ++i) {
            if (routable(table, i, avoid) &&
                table[i].idleLang[language] > 0) {
                table.takeIdleLang(i, language);
                place(table, function, i);
                return i;
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (routable(table, i, avoid) && table[i].idleBare > 0) {
                table.takeIdleBare(i);
                place(table, function, i);
                return i;
            }
        }
        // 3. Load: spread out.
        const std::size_t i = leastLoaded(table, avoid);
        place(table, function, i);
        return i;
      }
    }
    return 0;
}

} // namespace rc::cluster
