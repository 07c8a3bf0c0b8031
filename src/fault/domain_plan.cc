#include "fault/domain_plan.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/json.hh"

namespace rc::fault {

bool
DomainPlan::active() const
{
    return outageRatePerHour > 0.0 || upgradeRatePerHour > 0.0 ||
           !outages.empty();
}

std::vector<std::uint32_t>
domainMembers(const DomainPlan& plan, std::uint32_t domain,
              std::size_t nodeCount)
{
    std::vector<std::uint32_t> members;
    if (!plan.domains.empty()) {
        if (domain < plan.domains.size())
            members = plan.domains[domain];
        std::sort(members.begin(), members.end());
        return members;
    }
    const std::uint32_t count = std::max<std::uint32_t>(
        1, plan.domainCount);
    for (std::size_t i = domain; i < nodeCount; i += count)
        members.push_back(static_cast<std::uint32_t>(i));
    return members;
}

namespace {

std::uint32_t
effectiveDomainCount(const DomainPlan& plan)
{
    if (!plan.domains.empty())
        return static_cast<std::uint32_t>(plan.domains.size());
    return std::max<std::uint32_t>(1, plan.domainCount);
}

} // namespace

std::vector<DomainOutage>
drawOutageSchedule(const DomainPlan& plan, std::uint64_t seed,
                   std::size_t nodes, sim::Tick horizon)
{
    std::vector<DomainOutage> schedule;
    if (nodes == 0)
        return schedule;
    const std::uint32_t domainCount = effectiveDomainCount(plan);
    const sim::Tick duration = std::max<sim::Tick>(
        1, sim::fromSeconds(plan.outageDurationSeconds));
    if (plan.outageRatePerHour > 0.0 && horizon > 0) {
        sim::Rng rng = sim::Rng(seed).stream("domain-outage");
        const double meanGapSeconds = 3600.0 / plan.outageRatePerHour;
        sim::Tick t = 0;
        while (true) {
            t += std::max<sim::Tick>(
                1,
                sim::fromSeconds(rng.exponential(1.0 / meanGapSeconds)));
            if (t >= horizon)
                break;
            const auto domain = static_cast<std::uint32_t>(
                std::min<std::int64_t>(
                    domainCount - 1,
                    rng.uniformInt(0, domainCount - 1)));
            DomainOutage ev;
            ev.at = t;
            ev.downUntil = t + duration;
            ev.nodes = domainMembers(plan, domain, nodes);
            t = ev.downUntil; // correlated waves never overlap
            if (!ev.nodes.empty())
                schedule.push_back(std::move(ev));
        }
    }
    for (const ScriptedOutage& scripted : plan.outages) {
        DomainOutage ev;
        ev.at = sim::fromSeconds(scripted.startSeconds);
        ev.downUntil = ev.at + std::max<sim::Tick>(
            1, sim::fromSeconds(scripted.durationSeconds));
        ev.nodes = domainMembers(plan, scripted.domain, nodes);
        if (!ev.nodes.empty())
            schedule.push_back(std::move(ev));
    }
    std::sort(schedule.begin(), schedule.end(),
              [](const DomainOutage& a, const DomainOutage& b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  return a.nodes.front() < b.nodes.front();
              });
    return schedule;
}

std::vector<UpgradeDrain>
drawUpgradeSchedule(const DomainPlan& plan, std::uint64_t seed,
                    std::size_t nodes, sim::Tick horizon)
{
    std::vector<UpgradeDrain> schedule;
    if (plan.upgradeRatePerHour <= 0.0 || nodes == 0 || horizon <= 0)
        return schedule;
    const std::uint32_t domainCount = effectiveDomainCount(plan);
    sim::Rng rng = sim::Rng(seed).stream("domain-upgrade");
    const double meanGapSeconds = 3600.0 / plan.upgradeRatePerHour;
    const sim::Tick stagger = std::max<sim::Tick>(
        1, sim::fromSeconds(plan.upgradeStaggerSeconds));
    const sim::Tick downtime = std::max<sim::Tick>(
        1, sim::fromSeconds(plan.upgradeDurationSeconds));
    const sim::Tick drainBound = std::max<sim::Tick>(
        1, sim::fromSeconds(plan.drainTimeoutSeconds));
    sim::Tick t = 0;
    while (true) {
        t += std::max<sim::Tick>(
            1, sim::fromSeconds(rng.exponential(1.0 / meanGapSeconds)));
        if (t >= horizon)
            break;
        const auto domain = static_cast<std::uint32_t>(
            std::min<std::int64_t>(domainCount - 1,
                                   rng.uniformInt(0, domainCount - 1)));
        const auto members = domainMembers(plan, domain, nodes);
        sim::Tick waveEnd = t;
        for (std::size_t k = 0; k < members.size(); ++k) {
            UpgradeDrain drain;
            drain.drainAt = t + static_cast<sim::Tick>(k) * stagger;
            drain.node = members[k];
            drain.restartDowntime = downtime;
            waveEnd = std::max(waveEnd, drain.drainAt + drainBound +
                                            downtime);
            schedule.push_back(drain);
        }
        t = waveEnd; // the next wave starts after this one fully ends
    }
    std::sort(schedule.begin(), schedule.end(),
              [](const UpgradeDrain& a, const UpgradeDrain& b) {
                  if (a.drainAt != b.drainAt)
                      return a.drainAt < b.drainAt;
                  return a.node < b.node;
              });
    return schedule;
}

namespace {

bool
fail(std::string* error, const std::string& what)
{
    if (error != nullptr)
        *error = what;
    return false;
}

bool
parseDomainsArray(const obs::JsonValue& value, DomainPlan& plan,
                  std::string* error)
{
    if (!value.isArray())
        return fail(error, "domains: expected an array of arrays");
    for (const auto& group : value.array) {
        if (!group.isArray())
            return fail(error, "domains: expected an array of arrays");
        std::vector<std::uint32_t> members;
        for (const auto& id : group.array) {
            if (!id.isNumber() || id.number < 0.0 ||
                id.number != std::floor(id.number) ||
                id.number > std::numeric_limits<std::uint32_t>::max()) {
                return fail(error, "domains: node ids must be "
                                   "non-negative integers");
            }
            members.push_back(static_cast<std::uint32_t>(id.number));
        }
        plan.domains.push_back(std::move(members));
    }
    if (plan.domains.empty())
        return fail(error, "domains: must not be empty when present");
    return true;
}

bool
parseOutagesArray(const obs::JsonValue& value, DomainPlan& plan,
                  std::string* error)
{
    if (!value.isArray())
        return fail(error, "outages: expected an array of objects");
    for (const auto& entry : value.array) {
        if (!entry.isObject())
            return fail(error, "outages: expected an array of objects");
        using Kind = obs::JsonKnob::Kind;
        ScriptedOutage outage;
        const obs::JsonKnob knobs[] = {
            {"start_seconds", Kind::NonNegative, &outage.startSeconds},
            {"duration_seconds", Kind::NonNegative,
             &outage.durationSeconds},
            {"domain", Kind::Count, &outage.domain},
        };
        if (!obs::readJsonKnobs(entry, knobs, "outage", error)) {
            if (error != nullptr)
                *error = "outages: " + *error;
            return false;
        }
        if (entry.find("start_seconds") == nullptr ||
            entry.find("duration_seconds") == nullptr) {
            return fail(error, "outages: each window needs "
                               "start_seconds and duration_seconds");
        }
        if (outage.durationSeconds <= 0.0)
            return fail(error,
                        "outages: duration_seconds must be positive");
        plan.outages.push_back(outage);
    }
    return true;
}

/** Scripted windows of one domain must not overlap: a node cannot be
 *  struck again while still down from the previous window. */
bool
checkOutageOverlap(const DomainPlan& plan, std::string* error)
{
    std::vector<ScriptedOutage> sorted = plan.outages;
    std::sort(sorted.begin(), sorted.end(),
              [](const ScriptedOutage& a, const ScriptedOutage& b) {
                  return a.startSeconds < b.startSeconds;
              });
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
        for (std::size_t j = i + 1; j < sorted.size(); ++j) {
            if (sorted[i].domain != sorted[j].domain)
                continue;
            if (sorted[i].startSeconds + sorted[i].durationSeconds >
                sorted[j].startSeconds) {
                return fail(error,
                            "outages: overlapping windows in domain " +
                                std::to_string(sorted[i].domain));
            }
            break; // only the next window of this domain can overlap
        }
    }
    return true;
}

} // namespace

bool
parseDomainPlan(const std::string& text, DomainPlan& out,
                std::string* error)
{
    obs::JsonValue root;
    if (!obs::parseJson(text, root, error))
        return false;
    if (!root.isObject())
        return fail(error, "domain plan must be a JSON object");

    using Kind = obs::JsonKnob::Kind;
    DomainPlan plan;
    const obs::JsonKnob knobs[] = {
        {"domain_count", Kind::Count, &plan.domainCount},
        {"outage_rate_per_hour", Kind::NonNegative,
         &plan.outageRatePerHour},
        {"outage_duration_seconds", Kind::NonNegative,
         &plan.outageDurationSeconds},
        {"upgrade_rate_per_hour", Kind::NonNegative,
         &plan.upgradeRatePerHour},
        {"upgrade_duration_seconds", Kind::NonNegative,
         &plan.upgradeDurationSeconds},
        {"upgrade_stagger_seconds", Kind::NonNegative,
         &plan.upgradeStaggerSeconds},
        {"drain_timeout_seconds", Kind::NonNegative,
         &plan.drainTimeoutSeconds},
        {"staged_rejoin", Kind::Flag, &plan.stagedRejoin},
        {"rejoin_tokens_per_second", Kind::NonNegative,
         &plan.rejoinTokensPerSecond},
        {"prewarm_enabled", Kind::Flag, &plan.prewarmEnabled},
        {"prewarm_max_layers", Kind::Count, &plan.prewarmMaxLayers},
        {"warmup_timeout_seconds", Kind::NonNegative,
         &plan.warmupTimeoutSeconds},
        {"retry_feedback_enabled", Kind::Flag,
         &plan.retryFeedbackEnabled},
        {"retry_backoff_seconds", Kind::NonNegative,
         &plan.retryBackoffSeconds},
        {"retry_max_attempts", Kind::Count, &plan.retryMaxAttempts},
    };
    for (const auto& [key, value] : root.object) {
        // The two nested arrays are hand-parsed; every flat member
        // goes through the knob table.
        bool ok;
        if (key == "domains")
            ok = parseDomainsArray(value, plan, error);
        else if (key == "outages")
            ok = parseOutagesArray(value, plan, error);
        else
            ok = obs::readJsonKnob(knobs, key, value, "domain plan", error);
        if (!ok)
            return false;
    }
    if (plan.domainCount == 0)
        return fail(error, "domain_count: must be >= 1");
    if (plan.stagedRejoin && plan.rejoinTokensPerSecond <= 0.0 &&
        plan.active()) {
        return fail(error,
                    "rejoin_tokens_per_second: must be positive when "
                    "staged_rejoin is on");
    }
    if (!checkOutageOverlap(plan, error))
        return false;
    out = plan;
    return true;
}

bool
loadDomainPlanFile(const std::string& path, DomainPlan& out,
                   std::string* error)
{
    std::string text;
    return obs::readTextFile(path, text, error) &&
           parseDomainPlan(text, out, error);
}

bool
validateDomainPlan(const DomainPlan& plan, std::size_t nodeCount,
                   std::string* error)
{
    if (plan.domainCount > nodeCount && plan.domains.empty()) {
        return fail(error, "domain_count " +
                               std::to_string(plan.domainCount) +
                               " exceeds node count " +
                               std::to_string(nodeCount));
    }
    for (std::size_t d = 0; d < plan.domains.size(); ++d) {
        for (const std::uint32_t id : plan.domains[d]) {
            if (id >= nodeCount) {
                return fail(error,
                            "domains: unknown node id " +
                                std::to_string(id) + " in domain " +
                                std::to_string(d) + " (cluster has " +
                                std::to_string(nodeCount) + " nodes)");
            }
        }
    }
    const std::uint32_t count =
        plan.domains.empty() ? plan.domainCount
                             : static_cast<std::uint32_t>(
                                   plan.domains.size());
    for (const ScriptedOutage& outage : plan.outages) {
        if (outage.domain >= count) {
            return fail(error, "outages: unknown domain " +
                                   std::to_string(outage.domain) +
                                   " (plan has " +
                                   std::to_string(count) +
                                   " domains)");
        }
    }
    return true;
}

} // namespace rc::fault
