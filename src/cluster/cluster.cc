#include "cluster/cluster.hh"

#include <algorithm>
#include <string>

#include "sim/rng.hh"

namespace rc::cluster {

const char*
toString(Scheduling scheduling)
{
    switch (scheduling) {
      case Scheduling::RoundRobin: return "round-robin";
      case Scheduling::LeastLoaded: return "least-loaded";
      case Scheduling::LocalityAware: return "locality-aware";
    }
    return "?";
}

std::vector<CrashEvent>
drawCrashSchedule(const fault::FaultPlan& plan, std::uint64_t seed,
                  std::size_t nodes, sim::Tick horizon)
{
    std::vector<CrashEvent> crashes;
    if (!plan.active() || plan.nodeMtbfSeconds <= 0.0)
        return crashes;
    const sim::Rng base(seed);
    const sim::Tick downtime = sim::fromSeconds(plan.nodeDowntimeSeconds);
    for (std::size_t i = 0; i < nodes; ++i) {
        sim::Rng rng =
            base.stream("cluster-fault-node-" + std::to_string(i));
        sim::Tick t = 0;
        while (true) {
            const double gap =
                rng.exponential(1.0 / plan.nodeMtbfSeconds);
            t += std::max<sim::Tick>(1, sim::fromSeconds(gap));
            if (t > horizon)
                break;
            crashes.push_back(CrashEvent{t, i, t + downtime});
            t += downtime; // next crash after the restart
        }
    }
    std::sort(crashes.begin(), crashes.end());
    return crashes;
}

} // namespace rc::cluster
