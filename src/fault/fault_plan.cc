#include "fault/fault_plan.hh"

#include "obs/json.hh"

namespace rc::fault {

bool
FaultPlan::active() const
{
    return bareInitFailProb > 0.0 || langInitFailProb > 0.0 ||
           userInitFailProb > 0.0 || execCrashProb > 0.0 ||
           wedgeProb > 0.0 || nodeMtbfSeconds > 0.0 ||
           overloadRatePerHour > 0.0;
}

bool
parseFaultPlan(const std::string& text, FaultPlan& out, std::string* error)
{
    obs::JsonValue root;
    if (!obs::parseJson(text, root, error))
        return false;

    using Kind = obs::JsonKnob::Kind;
    FaultPlan plan;
    const obs::JsonKnob knobs[] = {
        {"bare_init_fail_prob", Kind::Fraction,
         &plan.bareInitFailProb},
        {"lang_init_fail_prob", Kind::Fraction,
         &plan.langInitFailProb},
        {"user_init_fail_prob", Kind::Fraction,
         &plan.userInitFailProb},
        {"exec_crash_prob", Kind::Fraction, &plan.execCrashProb},
        {"wedge_prob", Kind::Fraction, &plan.wedgeProb},
        {"exec_timeout_seconds", Kind::SecondsAsTick, &plan.execTimeout},
        {"node_mtbf_seconds", Kind::NonNegative,
         &plan.nodeMtbfSeconds},
        {"node_downtime_seconds", Kind::NonNegative,
         &plan.nodeDowntimeSeconds},
        {"overload_rate_per_hour", Kind::NonNegative,
         &plan.overloadRatePerHour},
        {"overload_duration_seconds", Kind::NonNegative,
         &plan.overloadDurationSeconds},
        {"overload_slowdown", Kind::NonNegative,
         &plan.overloadSlowdown},
        {"max_retries", Kind::Count, &plan.maxRetries},
        {"retry_backoff_base_seconds", Kind::SecondsAsTick,
         &plan.retryBackoffBase},
        {"retry_backoff_cap_seconds", Kind::SecondsAsTick,
         &plan.retryBackoffCap},
        {"retry_jitter_frac", Kind::Fraction, &plan.retryJitterFrac},
        {"shed_prewarms_under_pressure", Kind::Flag,
         &plan.shedPrewarmsUnderPressure},
        // ---- network gray-failure knobs (NetworkPlan) ------------------
        {"net_link_delay_mean_ms", Kind::NonNegative,
         &plan.network.linkDelayMeanMs},
        {"net_link_delay_cv", Kind::NonNegative,
         &plan.network.linkDelayCv},
        {"net_heavy_tail_prob", Kind::Fraction,
         &plan.network.linkHeavyTailProb},
        {"net_heavy_tail_factor", Kind::NonNegative,
         &plan.network.linkHeavyTailFactor},
        {"net_msg_drop_prob", Kind::Fraction,
         &plan.network.msgDropProb},
        {"net_msg_retransmit_ms", Kind::NonNegative,
         &plan.network.msgRetransmitMs},
        {"net_degraded_rate_per_hour", Kind::NonNegative,
         &plan.network.degradedRatePerHour},
        {"net_degraded_duration_seconds", Kind::NonNegative,
         &plan.network.degradedDurationSeconds},
        {"net_degraded_exec_slowdown", Kind::NonNegative,
         &plan.network.degradedExecSlowdown},
        {"net_degraded_init_slowdown", Kind::NonNegative,
         &plan.network.degradedInitSlowdown},
        {"net_partition_rate_per_hour", Kind::NonNegative,
         &plan.network.partitionRatePerHour},
        {"net_partition_duration_seconds", Kind::NonNegative,
         &plan.network.partitionDurationSeconds},
        {"net_partition_fraction", Kind::Fraction,
         &plan.network.partitionFraction},
        // ---- tail-tolerance mitigation knobs ---------------------------
        {"hedge_enabled", Kind::Flag,
         &plan.network.hedgeEnabled},
        {"hedge_latency_factor", Kind::NonNegative,
         &plan.network.hedgeLatencyFactor},
        {"hedge_min_samples", Kind::Count,
         &plan.network.hedgeMinSamples},
        {"hedge_min_budget_ms", Kind::NonNegative,
         &plan.network.hedgeMinBudgetMs},
        {"quarantine_enabled", Kind::Flag,
         &plan.network.quarantineEnabled},
        {"quarantine_latency_factor", Kind::NonNegative,
         &plan.network.quarantineLatencyFactor},
        {"quarantine_min_samples", Kind::Count,
         &plan.network.quarantineMinSamples},
        {"quarantine_drain_seconds", Kind::NonNegative,
         &plan.network.quarantineDrainSeconds},
        {"quarantine_probe_count", Kind::Count,
         &plan.network.quarantineProbeCount},
        {"quarantine_readmit_factor", Kind::NonNegative,
         &plan.network.quarantineReadmitFactor},
    };

    if (!obs::readJsonKnobs(root, knobs, "fault plan", error))
        return false;
    const auto reject = [&](const char* what) {
        if (error != nullptr)
            *error = what;
        return false;
    };
    if (plan.overloadSlowdown < 1.0)
        return reject("overload_slowdown: must be >= 1");
    if (plan.network.degradedExecSlowdown < 1.0)
        return reject("net_degraded_exec_slowdown: must be >= 1");
    if (plan.network.degradedInitSlowdown < 1.0)
        return reject("net_degraded_init_slowdown: must be >= 1");
    if (plan.network.linkHeavyTailFactor < 1.0)
        return reject("net_heavy_tail_factor: must be >= 1");
    if (plan.network.hedgeLatencyFactor < 1.0)
        return reject("hedge_latency_factor: must be >= 1");
    if (plan.network.quarantineLatencyFactor < 1.0)
        return reject("quarantine_latency_factor: must be >= 1");
    if (plan.network.quarantineReadmitFactor < 1.0)
        return reject("quarantine_readmit_factor: must be >= 1");
    if (plan.network.quarantineProbeCount == 0 &&
        plan.network.quarantineEnabled)
        return reject("quarantine_probe_count: must be >= 1");
    out = plan;
    return true;
}

bool
loadFaultPlanFile(const std::string& path, FaultPlan& out,
                  std::string* error)
{
    std::string text;
    return obs::readTextFile(path, text, error) &&
           parseFaultPlan(text, out, error);
}

} // namespace rc::fault
