#include "obs/observer.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace rc::obs {

// ---------------------------------------------------------------------------
// Name tables

const char*
toString(Category category)
{
    switch (category) {
      case Category::Engine: return "engine";
      case Category::Container: return "container";
      case Category::Pool: return "pool";
      case Category::Invoker: return "invoker";
      case Category::Policy: return "policy";
      case Category::Cluster: return "cluster";
      case Category::Fault: return "fault";
      case Category::Admission: return "admission";
    }
    return "?";
}

const char*
toString(EventType type)
{
    switch (type) {
      case EventType::ContainerCreated: return "container_created";
      case EventType::ContainerInitDone: return "container_init_done";
      case EventType::ContainerUpgrade: return "container_upgrade";
      case EventType::ContainerRepurpose: return "container_repurpose";
      case EventType::ContainerExecBegin: return "container_exec_begin";
      case EventType::ContainerExecEnd: return "container_exec_end";
      case EventType::ContainerDowngraded: return "container_downgraded";
      case EventType::ContainerKilled: return "container_killed";
      case EventType::ContainerSharedHit: return "container_shared_hit";
      case EventType::InvocationArrived: return "invocation_arrived";
      case EventType::InvocationQueued: return "invocation_queued";
      case EventType::InvocationDispatched: return "invocation_dispatched";
      case EventType::InvocationCompleted: return "invocation_completed";
      case EventType::KeepAliveSet: return "keep_alive_set";
      case EventType::IdleExpired: return "idle_expired";
      case EventType::PrewarmScheduled: return "prewarm_scheduled";
      case EventType::PrewarmFired: return "prewarm_fired";
      case EventType::PrewarmSkipped: return "prewarm_skipped";
      case EventType::PolicyDecision: return "policy_decision";
      case EventType::EvictionForMemory: return "eviction_for_memory";
      case EventType::ClusterRouted: return "cluster_routed";
      case EventType::EngineStats: return "engine_stats";
      case EventType::FaultInjected: return "fault_injected";
      case EventType::RetryScheduled: return "retry_scheduled";
      case EventType::InvocationFailed: return "invocation_failed";
      case EventType::ExecTimeoutKill: return "exec_timeout_kill";
      case EventType::NodeCrashed: return "node_crashed";
      case EventType::NodeRestarted: return "node_restarted";
      case EventType::FailoverRouted: return "failover_routed";
      case EventType::AdmissionRejected: return "admission_rejected";
      case EventType::InvocationShed: return "invocation_shed";
      case EventType::PressureLevel: return "pressure_level";
      case EventType::BreakerStateChanged: return "breaker_state_changed";
      case EventType::HedgeLaunched: return "hedge_launched";
      case EventType::HedgeWon: return "hedge_won";
      case EventType::HedgeCancelled: return "hedge_cancelled";
      case EventType::HedgeLost: return "hedge_lost";
      case EventType::NodeQuarantined: return "node_quarantined";
      case EventType::NodeProbed: return "node_probed";
      case EventType::NodeReadmitted: return "node_readmitted";
      case EventType::PartitionStart: return "partition_start";
      case EventType::PartitionEnd: return "partition_end";
      case EventType::MsgDelayed: return "msg_delayed";
      case EventType::MsgDropped: return "msg_dropped";
      case EventType::NodeDegraded: return "node_degraded";
      case EventType::DomainOutage: return "domain_outage";
      case EventType::NodeDrainStarted: return "node_drain_started";
      case EventType::NodeDrained: return "node_drained";
      case EventType::NodeRejoinGranted: return "node_rejoin_granted";
      case EventType::NodeWarmupDone: return "node_warmup_done";
      case EventType::RecoveryRetry: return "recovery_retry";
    }
    return "?";
}

const char*
toString(KillCause cause)
{
    switch (cause) {
      case KillCause::Unknown: return "unknown";
      case KillCause::TtlExpired: return "ttl_expired";
      case KillCause::BareExpired: return "bare_expired";
      case KillCause::MemoryPressure: return "memory_pressure";
      case KillCause::PoolSaturated: return "pool_saturated";
      case KillCause::RepackFailed: return "repack_failed";
      case KillCause::Finalize: return "finalize";
      case KillCause::InitFault: return "init_fault";
      case KillCause::ExecFault: return "exec_fault";
      case KillCause::WedgeTimeout: return "wedge_timeout";
      case KillCause::NodeCrash: return "node_crash";
      case KillCause::HedgeCancel: return "hedge_cancel";
    }
    return "?";
}

bool
categoryFromString(const char* name, Category& out)
{
    for (std::size_t i = 0; i < kCategoryCount; ++i) {
        const auto candidate = static_cast<Category>(i);
        if (std::string(toString(candidate)) == name) {
            out = candidate;
            return true;
        }
    }
    return false;
}

bool
eventTypeFromString(const char* name, EventType& out)
{
    for (std::size_t i = 0; i < kEventTypeCount; ++i) {
        const auto candidate = static_cast<EventType>(i);
        if (std::string(toString(candidate)) == name) {
            out = candidate;
            return true;
        }
    }
    return false;
}

Category
categoryOf(EventType type)
{
    switch (type) {
      case EventType::ContainerCreated:
      case EventType::ContainerInitDone:
      case EventType::ContainerUpgrade:
      case EventType::ContainerRepurpose:
      case EventType::ContainerExecBegin:
      case EventType::ContainerExecEnd:
      case EventType::ContainerDowngraded:
      case EventType::ContainerKilled:
      case EventType::ContainerSharedHit:
        return Category::Container;
      case EventType::InvocationArrived:
      case EventType::InvocationQueued:
      case EventType::InvocationDispatched:
      case EventType::InvocationCompleted:
        return Category::Invoker;
      case EventType::KeepAliveSet:
      case EventType::IdleExpired:
      case EventType::PrewarmScheduled:
      case EventType::PrewarmFired:
      case EventType::PrewarmSkipped:
      case EventType::PolicyDecision:
        return Category::Policy;
      case EventType::EvictionForMemory:
        return Category::Pool;
      case EventType::ClusterRouted:
        return Category::Cluster;
      case EventType::EngineStats:
        return Category::Engine;
      case EventType::FaultInjected:
      case EventType::RetryScheduled:
      case EventType::InvocationFailed:
      case EventType::ExecTimeoutKill:
      case EventType::NodeCrashed:
      case EventType::NodeRestarted:
      case EventType::FailoverRouted:
        return Category::Fault;
      case EventType::AdmissionRejected:
      case EventType::InvocationShed:
      case EventType::PressureLevel:
      case EventType::BreakerStateChanged:
        return Category::Admission;
      case EventType::HedgeLaunched:
      case EventType::HedgeWon:
      case EventType::HedgeCancelled:
      case EventType::HedgeLost:
      case EventType::NodeQuarantined:
      case EventType::NodeProbed:
      case EventType::NodeReadmitted:
        return Category::Cluster;
      case EventType::PartitionStart:
      case EventType::PartitionEnd:
      case EventType::MsgDelayed:
      case EventType::MsgDropped:
      case EventType::NodeDegraded:
      case EventType::DomainOutage:
      case EventType::NodeDrainStarted:
      case EventType::NodeDrained:
      case EventType::NodeRejoinGranted:
      case EventType::NodeWarmupDone:
      case EventType::RecoveryRetry:
        return Category::Fault;
    }
    return Category::Engine;
}

// ---------------------------------------------------------------------------
// Registry

const char*
toString(Counter counter)
{
    switch (counter) {
      case Counter::HitUser: return "hit_user";
      case Counter::HitLoad: return "hit_load";
      case Counter::HitForeignUser: return "hit_foreign_user";
      case Counter::HitLang: return "hit_lang";
      case Counter::HitBare: return "hit_bare";
      case Counter::ColdStart: return "cold_start";
      case Counter::KillUnknown: return "kill_unknown";
      case Counter::KillTtlExpired: return "kill_ttl_expired";
      case Counter::KillBareExpired: return "kill_bare_expired";
      case Counter::KillMemoryPressure: return "kill_memory_pressure";
      case Counter::KillPoolSaturated: return "kill_pool_saturated";
      case Counter::KillRepackFailed: return "kill_repack_failed";
      case Counter::KillFinalize: return "kill_finalize";
      case Counter::KillInitFault: return "kill_init_fault";
      case Counter::KillExecFault: return "kill_exec_fault";
      case Counter::KillWedgeTimeout: return "kill_wedge_timeout";
      case Counter::KillNodeCrash: return "kill_node_crash";
      case Counter::Queued: return "queued";
      case Counter::FinalizeDrained: return "finalize_drained";
      case Counter::PrewarmScheduled: return "prewarm_scheduled";
      case Counter::PrewarmFired: return "prewarm_fired";
      case Counter::PrewarmSkipped: return "prewarm_skipped";
      case Counter::PrewarmShed: return "prewarm_shed";
      case Counter::FaultInjected: return "fault_injected";
      case Counter::RetryScheduled: return "retry_scheduled";
      case Counter::RetryExhausted: return "retry_exhausted";
      case Counter::NodeCrashes: return "node_crashes";
      case Counter::FailoverRouted: return "failover_routed";
      case Counter::EngineExecuted: return "engine_executed";
      case Counter::EngineScheduled: return "engine_scheduled";
      case Counter::EngineCancelled: return "engine_cancelled";
      case Counter::AdmissionRejected: return "admission_rejected";
      case Counter::ShedDeadline: return "shed_deadline";
      case Counter::ShedPressure: return "shed_pressure";
      case Counter::BreakerOpenTotal: return "breaker_open_total";
      case Counter::DegradedKeepalives: return "degraded_keepalives";
      case Counter::DispatchLookups: return "dispatch_lookups";
      case Counter::TraceDropped: return "trace_dropped";
      case Counter::HedgesLaunched: return "hedges_launched";
      case Counter::HedgesWon: return "hedges_won";
      case Counter::HedgesCancelled: return "hedges_cancelled";
      case Counter::HedgesLost: return "hedges_lost";
      case Counter::NodeQuarantines: return "node_quarantines";
      case Counter::NodeProbes: return "node_probes";
      case Counter::NodeReadmits: return "node_readmits";
      case Counter::MsgsDelayed: return "msgs_delayed";
      case Counter::MsgsDropped: return "msgs_dropped";
      case Counter::PartitionsStarted: return "partitions_started";
      case Counter::KillHedgeCancel: return "kill_hedge_cancel";
      case Counter::DomainOutages: return "domain_outages";
      case Counter::NodesDrained: return "nodes_drained";
      case Counter::NodesRejoined: return "nodes_rejoined";
      case Counter::RecoveryPrewarms: return "recovery_prewarms";
      case Counter::RecoveryRetries: return "recovery_retries";
    }
    return "?";
}

const char*
toString(Gauge gauge)
{
    switch (gauge) {
      case Gauge::QueueDepth: return "queue_depth_high_water";
      case Gauge::PoolMemoryMb: return "pool_memory_mb_high_water";
      case Gauge::LiveContainers: return "live_containers_high_water";
      case Gauge::PressureLevel: return "pressure_level_high_water";
      case Gauge::CoordinatorDrainNs: return "coordinator_drain_ns";
      case Gauge::RouteNs: return "route_ns";
      case Gauge::SummaryCaptureNs: return "summary_capture_ns";
    }
    return "?";
}

Registry::Registry(sim::Tick interval) : _interval(interval)
{
    if (interval <= 0)
        sim::fatal("obs::Registry: snapshot interval must be positive");
}

Counter
killCounter(std::uint8_t cause)
{
    if (cause >= kKillCauseCount)
        return Counter::KillUnknown;
    // HedgeCancel was appended after the contiguous Kill* block froze;
    // it lives out-of-block at the end of the counter enum.
    if (cause == static_cast<std::uint8_t>(KillCause::HedgeCancel))
        return Counter::KillHedgeCancel;
    return static_cast<Counter>(
        static_cast<std::size_t>(Counter::KillUnknown) + cause);
}

const char*
toString(Scope scope)
{
    switch (scope) {
      case Scope::EngineRun: return "engine_run";
      case Scope::PolicyKeepAlive: return "policy_keep_alive";
      case Scope::PolicyIdle: return "policy_idle_decision";
      case Scope::PolicyEvictRank: return "policy_evict_rank";
      case Scope::PoolScan: return "pool_scan";
      case Scope::Finalize: return "finalize";
      case Scope::Export: return "export";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// Observer

Observer::Observer(ObserverConfig config)
    : _config(config), _registry(config.counterInterval)
{
}

void
Observer::recordEngineStats(sim::Tick now, std::uint64_t executed,
                            std::uint64_t scheduled,
                            std::uint64_t cancelled)
{
    _registry.bump(Counter::EngineExecuted, now, executed);
    _registry.bump(Counter::EngineScheduled, now, scheduled);
    _registry.bump(Counter::EngineCancelled, now, cancelled);
    emit(now, EventType::EngineStats, 0, 0xffffffffU, 0, 0,
         static_cast<double>(executed), static_cast<double>(cancelled));
}

void
Observer::absorbSpans(std::vector<Span> spans, std::uint64_t dropped,
                      sim::Tick when)
{
    if (!_config.spansEnabled)
        return;
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return spanBefore(a, b); });
    for (const auto& span : spans)
        emitSpan(span);
    if (dropped != 0) {
        _droppedSpans += dropped;
        _registry.bump(Counter::TraceDropped, when, dropped);
    }
}

void
Observer::sortEventsByTick(std::size_t from)
{
    std::stable_sort(_events.begin() + static_cast<std::ptrdiff_t>(from),
                     _events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                         return a.tick < b.tick;
                     });
}

void
Observer::reset()
{
    _events.clear();
    _dropped = 0;
    _spans.clear();
    _droppedSpans = 0;
    _registry = Registry(_config.counterInterval);
    _profiler = Profiler();
}

} // namespace rc::obs
