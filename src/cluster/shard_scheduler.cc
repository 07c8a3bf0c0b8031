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
ShardScheduler::leastLoaded(const std::vector<NodeSummary>& nodes) const
{
    // Two passes: prefer available nodes, but when the whole cluster
    // is down still place the work (it queues on the node and drains
    // at restart).
    for (const bool availableOnly : {true, false}) {
        std::size_t best = nodes.size();
        std::uint32_t bestInFlight =
            std::numeric_limits<std::uint32_t>::max();
        double bestMemory = std::numeric_limits<double>::max();
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            if (availableOnly && unavailable(nodes[i]))
                continue;
            if (nodes[i].inFlightPlusQueued < bestInFlight ||
                (nodes[i].inFlightPlusQueued == bestInFlight &&
                 nodes[i].usedMemoryMb < bestMemory)) {
                best = i;
                bestInFlight = nodes[i].inFlightPlusQueued;
                bestMemory = nodes[i].usedMemoryMb;
            }
        }
        if (best != nodes.size())
            return best;
    }
    return 0;
}

void
ShardScheduler::place(NodeSummary& node, workload::FunctionId function,
                      std::size_t index)
{
    ++node.inFlightPlusQueued;
    if (function < _affinity.size())
        _affinity[function] = static_cast<std::uint32_t>(index) + 1;
}

std::size_t
ShardScheduler::pick(std::vector<NodeSummary>& nodes,
                     workload::FunctionId function)
{
    if (nodes.empty())
        sim::panic("ShardScheduler::pick: no nodes");

    switch (_scheduling) {
      case Scheduling::RoundRobin: {
        for (std::size_t tried = 0; tried < nodes.size(); ++tried) {
            const std::size_t i = _cursor++ % nodes.size();
            if (!unavailable(nodes[i])) {
                place(nodes[i], function, i);
                return i;
            }
        }
        const std::size_t i = _cursor++ % nodes.size();
        place(nodes[i], function, i);
        return i;
      }

      case Scheduling::LeastLoaded: {
        const std::size_t i = leastLoaded(nodes);
        place(nodes[i], function, i);
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
            if (i < nodes.size() && !unavailable(nodes[i]) &&
                nodes[i].inFlightPlusQueued < kAffinitySpillDepth) {
                place(nodes[i], function, i);
                return i;
            }
        }
        // 2. Sharing: a node with an idle Lang container of the
        //    function's language beats one with only an idle Bare.
        //    Consume the summary slot so one barrier's worth of
        //    arrivals spreads over the actual idle capacity.
        const auto language = static_cast<std::size_t>(
            _catalog.at(function).language());
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            if (!unavailable(nodes[i]) &&
                nodes[i].idleLang[language] > 0) {
                --nodes[i].idleLang[language];
                place(nodes[i], function, i);
                return i;
            }
        }
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            if (!unavailable(nodes[i]) && nodes[i].idleBare > 0) {
                --nodes[i].idleBare;
                place(nodes[i], function, i);
                return i;
            }
        }
        // 3. Load: spread out.
        const std::size_t i = leastLoaded(nodes);
        place(nodes[i], function, i);
        return i;
      }
    }
    return 0;
}

std::size_t
ShardScheduler::pickAvoiding(std::vector<NodeSummary>& nodes,
                             workload::FunctionId function,
                             std::size_t avoid)
{
    if (avoid >= nodes.size())
        return pick(nodes, function);
    const std::uint8_t saved = nodes[avoid].down;
    nodes[avoid].down = 1;
    const std::size_t i = pick(nodes, function);
    nodes[avoid].down = saved;
    return i;
}

} // namespace rc::cluster
