#include "cluster/summary_table.hh"

#include <optional>

#include "platform/node.hh"

namespace rc::cluster {

NodeSummary
captureSummary(platform::Node& node)
{
    NodeSummary s;
    s.down = node.isDown() ? 1 : 0;
    s.inFlightPlusQueued = static_cast<std::uint32_t>(
        node.invoker().inFlightInvocations() +
        node.invoker().queuedInvocations());
    s.usedMemoryMb = node.pool().usedMemoryMb();
    s.idleBare = static_cast<std::uint32_t>(node.pool().idleBareCount());
    for (std::size_t l = 0; l < workload::kLanguageCount; ++l) {
        s.idleLang[l] = static_cast<std::uint32_t>(
            node.pool().idleLangCount(static_cast<workload::Language>(l)));
    }
    s.idleUser = static_cast<std::uint32_t>(
        node.pool().idleCountAtLayer(workload::Layer::User, std::nullopt));
    s.failures = node.invoker().failedInvocations();
    s.successes = node.metrics().total();
    return s;
}

} // namespace rc::cluster
