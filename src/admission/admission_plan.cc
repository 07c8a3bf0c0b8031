#include "admission/admission_plan.hh"

#include "obs/json.hh"

namespace rc::admission {

bool
AdmissionPlan::active() const
{
    return functionRatePerSecond > 0.0 || functionConcurrencyCap > 0 ||
           maxQueueDepth > 0 || queueDeadlineSeconds > 0.0 ||
           breakerFailureThreshold > 0.0 || pressureControlEnabled;
}

bool
parseAdmissionPlan(const std::string& text, AdmissionPlan& out,
                   std::string* error)
{
    obs::JsonValue root;
    if (!obs::parseJson(text, root, error))
        return false;

    using Kind = obs::JsonKnob::Kind;
    AdmissionPlan plan;
    const obs::JsonKnob knobs[] = {
        {"function_rate_per_second", Kind::NonNegative,
         &plan.functionRatePerSecond},
        {"token_bucket_burst", Kind::NonNegative,
         &plan.tokenBucketBurst},
        {"function_concurrency_cap", Kind::Count,
         &plan.functionConcurrencyCap},
        {"max_queue_depth", Kind::Count, &plan.maxQueueDepth},
        {"queue_deadline_seconds", Kind::NonNegative,
         &plan.queueDeadlineSeconds},
        {"breaker_failure_threshold", Kind::Fraction,
         &plan.breakerFailureThreshold},
        {"breaker_window_seconds", Kind::NonNegative,
         &plan.breakerWindowSeconds},
        {"breaker_cooloff_seconds", Kind::NonNegative,
         &plan.breakerCooloffSeconds},
        {"breaker_min_samples", Kind::Count,
         &plan.breakerMinSamples},
        {"pressure_control_enabled", Kind::Flag,
         &plan.pressureControlEnabled},
        {"controller_interval_seconds", Kind::NonNegative,
         &plan.controllerIntervalSeconds},
        {"pressure_smoothing", Kind::Fraction,
         &plan.pressureSmoothing},
        {"pressure_warn", Kind::Fraction, &plan.pressureWarn},
        {"pressure_high", Kind::Fraction, &plan.pressureHigh},
        {"pressure_critical", Kind::Fraction, &plan.pressureCritical},
        {"pressure_hysteresis", Kind::Fraction,
         &plan.pressureHysteresis},
        {"ttl_shrink_factor", Kind::Fraction, &plan.ttlShrinkFactor},
        {"overload_pressure_bias", Kind::NonNegative,
         &plan.overloadPressureBias},
        {"pressure_memory_weight", Kind::Fraction,
         &plan.pressureMemoryWeight},
        {"pressure_queue_weight", Kind::Fraction,
         &plan.pressureQueueWeight},
        {"pressure_shed_weight", Kind::Fraction,
         &plan.pressureShedWeight},
        {"queue_depth_scale", Kind::NonNegative,
         &plan.queueDepthScale},
    };

    if (!obs::readJsonKnobs(root, knobs, "admission plan", error))
        return false;
    const auto reject = [&](const char* what) {
        if (error != nullptr)
            *error = what;
        return false;
    };
    if (plan.tokenBucketBurst < 1.0)
        return reject("token_bucket_burst: must be >= 1");
    if (plan.pressureSmoothing <= 0.0)
        return reject("pressure_smoothing: must be positive");
    if (plan.ttlShrinkFactor <= 0.0)
        return reject("ttl_shrink_factor: must be positive");
    if (plan.queueDepthScale <= 0.0)
        return reject("queue_depth_scale: must be positive");
    if (!(plan.pressureWarn < plan.pressureHigh &&
          plan.pressureHigh < plan.pressureCritical)) {
        return reject("pressure thresholds must satisfy "
                      "warn < high < critical");
    }
    if (plan.breakerFailureThreshold > 0.0 &&
        plan.breakerWindowSeconds <= 0.0) {
        return reject("breaker_window_seconds: must be positive when "
                      "breakers are enabled");
    }
    if (plan.pressureControlEnabled &&
        plan.controllerIntervalSeconds <= 0.0) {
        return reject("controller_interval_seconds: must be positive "
                      "when pressure control is enabled");
    }
    out = plan;
    return true;
}

bool
loadAdmissionPlanFile(const std::string& path, AdmissionPlan& out,
                      std::string* error)
{
    std::string text;
    return obs::readTextFile(path, text, error) &&
           parseAdmissionPlan(text, out, error);
}

} // namespace rc::admission
