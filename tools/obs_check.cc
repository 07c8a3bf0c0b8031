/**
 * @file
 * obs_check — validator for the observability artifacts rainbow_sim
 * writes. CI runs it after a simulation to guarantee the artifacts
 * stay loadable by external consumers (Perfetto, notebooks, report
 * tooling):
 *
 *   obs_check --report report.json --trace trace.json --events ev.jsonl
 *
 * Checks per artifact:
 *  * report: parses, schema tag is "rainbowcake-report-v1", at least
 *    one policy entry, every entry carries the required metric keys,
 *    instrumented entries carry counters consistent with invocations.
 *  * trace: parses as JSON, has a non-empty "traceEvents" array with
 *    at least one complete slice ("X"), one instant ("i"), and one
 *    process_name metadata record ("M").
 *  * events: every line parses, ticks are non-decreasing (emission
 *    order is simulated-time order), categories/types are known
 *    names.
 *  * spans: the rainbowcake-spans-v1 dump parses, recorded no drops
 *    (CI runs with unbounded span buffers, so any drop is a bug),
 *    lines are in (invocation, id) order, and the span-tree
 *    invariants hold — one root per invocation, causal parent links,
 *    and the conservation tiling: each invocation's stage spans sum
 *    exactly to its end-to-end interval.
 *  * attribution: the rainbowcake-attribution-v1 report parses,
 *    every run carries the required keys, outcome counts sum to the
 *    invocation count, and the component totals conserve the
 *    end-to-end total. When --report is also given (single-policy
 *    artifacts), the attribution totals are cross-validated against
 *    the report's counters: completed/failed/rejected/shed/stranded
 *    outcomes must equal the report fields and the span counts must
 *    match spans_recorded/spans_dropped.
 *  * bench-overload: parses BENCH_overload.json from bench_overload
 *    and asserts the headline overload claim — at 4x offered load,
 *    RainbowCake with admission control holds a strictly lower p99
 *    than RainbowCake without it, and every admission-controlled row
 *    kept its queue within the configured bound.
 *  * fleet: parses the cluster_summary.csv a `rainbow_sim --nodes N
 *    [--shards S]` run writes — every column of the writer's table
 *    (exp::clusterSummaryColumns) must be present and every count an
 *    unsigned integer — and asserts fleet-level invocation
 *    conservation: every admitted invocation reached exactly one
 *    terminal state (completed + failed + stranded + rerouted +
 *    rejected + shed_deadline + shed_pressure == admitted). CI runs
 *    this against multi-shard output so a counter-merge bug at the
 *    barrier cannot land silently. The recovery and prewarm
 *    identities from cluster/conservation.hh are checked too: every
 *    outage/upgrade episode rejoins exactly once and every recovery
 *    prewarm is hit, evicted, or wasted. When the run was made with
 *    --phase-timings, the coordinator_phases.csv sidecar next to the
 *    summary is validated as well (subsets within totals, serial
 *    fraction a consistent ratio).
 *
 * Exit status 0 when every requested check passes, 1 otherwise.
 */

#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <cmath>

#include "cluster/conservation.hh"
#include "exp/cluster_run.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "obs/span.hh"
#include "obs/trace_event.hh"

namespace {

using namespace rc;

int gFailures = 0;

/** Chrome-trace process of the cluster coordinator's events
 *  (obs::writeChromeTrace). */
constexpr double kClusterPid = 4;

void
fail(const std::string& what)
{
    std::cerr << "obs_check: FAIL: " << what << "\n";
    ++gFailures;
}

std::string
slurp(const std::string& path, bool& ok)
{
    std::ifstream in(path);
    if (!in) {
        fail("cannot open " + path);
        ok = false;
        return "";
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    ok = true;
    return buffer.str();
}

void
checkReport(const std::string& path)
{
    bool ok = false;
    const std::string text = slurp(path, ok);
    if (!ok)
        return;
    obs::JsonValue root;
    std::string error;
    if (!obs::parseJson(text, root, &error)) {
        fail(path + ": " + error);
        return;
    }
    if (root.stringAt("schema") != "rainbowcake-report-v1") {
        fail(path + ": schema is not rainbowcake-report-v1");
        return;
    }
    const obs::JsonValue* policies = root.find("policies");
    if (!policies || !policies->isArray() || policies->array.empty()) {
        fail(path + ": missing or empty policies array");
        return;
    }
    static const char* kRequired[] = {
        "policy",
        "invocations",
        "startup_counts",
        "mean_startup_seconds",
        "total_startup_seconds",
        "mean_e2e_seconds",
        "p99_e2e_seconds",
        "waste_gb_seconds",
        "never_hit_waste_gb_seconds",
        "stranded",
        "failed",
        "retries",
        "finalize_drained",
        "rejected",
        "shed_deadline",
        "shed_pressure",
        "degraded_keepalives",
        "peak_queue_depth",
    };
    for (const auto& entry : policies->array) {
        const std::string name = entry.stringAt("policy", "<unnamed>");
        for (const char* key : kRequired) {
            if (!entry.find(key))
                fail(path + ": policy " + name + " lacks key " + key);
        }
        // Instrumented runs must expose a lookup-ladder breakdown
        // that accounts for every invocation.
        const obs::JsonValue* counters = entry.find("counters");
        if (!counters)
            continue;
        double ladder = 0.0;
        for (const char* key :
             {"hit_user", "hit_load", "hit_foreign_user", "hit_lang",
              "hit_bare", "cold_start"}) {
            ladder += counters->numberAt(key);
        }
        const double invocations = entry.numberAt("invocations");
        if (ladder < invocations) {
            fail(path + ": policy " + name +
                 ": ladder counters cover fewer dispatches than "
                 "invocations");
        }
        // Every ladder outcome was preceded by a pool lookup, so the
        // dispatch-lookup counter must cover the ladder sum (requeued
        // invocations look up more than once). Gated on key presence:
        // reports written before the counter existed stay valid.
        if (counters->find("dispatch_lookups") != nullptr &&
            counters->numberAt("dispatch_lookups") < ladder) {
            fail(path + ": policy " + name +
                 ": dispatch_lookups undercounts the ladder sum");
        }
        // rc::admission counters must agree with the top-level
        // accounting fields every report carries.
        static const std::pair<const char*, const char*> kAdmission[] = {
            {"admission_rejected", "rejected"},
            {"shed_deadline", "shed_deadline"},
            {"shed_pressure", "shed_pressure"},
            {"degraded_keepalives", "degraded_keepalives"},
        };
        for (const auto& [counter, field] : kAdmission) {
            if (counters->numberAt(counter) != entry.numberAt(field)) {
                fail(path + ": policy " + name + ": counter " +
                     counter + " disagrees with report field " + field);
            }
        }
        // CI runs with unbounded buffers: any recorded drop means an
        // artifact silently lost data. Gated on key presence so
        // reports written before the fields existed stay valid.
        for (const char* key : {"events_dropped", "spans_dropped"}) {
            if (entry.find(key) != nullptr && entry.numberAt(key) > 0.0)
                fail(path + ": policy " + name + ": " + key + " is " +
                     std::to_string(entry.numberAt(key)));
        }
        if (counters->find("trace_dropped") != nullptr &&
            counters->numberAt("trace_dropped") > 0.0) {
            fail(path + ": policy " + name +
                 ": trace_dropped counter is nonzero");
        }
    }
    std::cout << "obs_check: report ok (" << policies->array.size()
              << " policies)\n";
}

void
checkTrace(const std::string& path)
{
    bool ok = false;
    const std::string text = slurp(path, ok);
    if (!ok)
        return;
    obs::JsonValue root;
    std::string error;
    if (!obs::parseJson(text, root, &error)) {
        fail(path + ": " + error);
        return;
    }
    const obs::JsonValue* events = root.find("traceEvents");
    if (!events || !events->isArray() || events->array.empty()) {
        fail(path + ": missing or empty traceEvents array");
        return;
    }
    std::size_t slices = 0;
    std::size_t instants = 0;
    std::size_t metadata = 0;
    // Routing instants on the cluster track: only the cluster
    // coordinator emits them, and its nodes run uninstrumented, so a
    // trace that carries them has instants but no slices.
    std::size_t routed = 0;
    for (const auto& event : events->array) {
        const std::string phase = event.stringAt("ph");
        if (phase == "X") {
            ++slices;
            if (event.numberAt("dur", -1.0) < 0.0)
                fail(path + ": X slice without non-negative dur");
        } else if (phase == "i") {
            ++instants;
            if (event.stringAt("name") == "routed" &&
                event.numberAt("pid") == kClusterPid)
                ++routed;
        } else if (phase == "M") {
            ++metadata;
        } else if (phase.empty()) {
            fail(path + ": trace event without ph");
        }
    }
    if (slices == 0 && routed == 0)
        fail(path + ": no lifecycle/invocation slices and no cluster "
                    "routing instants");
    if (metadata == 0)
        fail(path + ": no track metadata records");
    if (gFailures == 0) {
        std::cout << "obs_check: " << (routed > 0 ? "cluster " : "")
                  << "trace ok (" << slices << " slices, " << instants
                  << " instants, " << metadata << " metadata)\n";
    }
}

void
checkEvents(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        fail("cannot open " + path);
        return;
    }
    std::string error;
    const auto events = obs::parseJsonlEvents(in, &error);
    if (!error.empty()) {
        fail(path + ": " + error);
        return;
    }
    if (events.empty()) {
        fail(path + ": no events");
        return;
    }
    sim::Tick last = events.front().tick;
    // Quarantine lifecycle per node: probes and readmissions are only
    // legal while the node is out of rotation, and a readmission needs
    // at least one probe behind it. A second NodeQuarantined without
    // an intervening readmission is the probation-breach edge and is
    // legal.
    std::map<std::uint8_t, bool> inQuarantine;
    std::map<std::uint8_t, std::uint64_t> probesSinceQuarantine;
    std::uint64_t hedgesLaunched = 0;
    std::uint64_t hedgesWon = 0;
    std::uint64_t hedgesCancelled = 0;
    std::uint64_t hedgesLost = 0;
    for (const auto& event : events) {
        if (event.tick < last) {
            fail(path + ": ticks go backwards");
            return;
        }
        last = event.tick;
        switch (event.type) {
        case obs::EventType::NodeQuarantined:
            inQuarantine[event.a] = true;
            probesSinceQuarantine[event.a] = 0;
            break;
        case obs::EventType::NodeProbed:
            if (!inQuarantine[event.a]) {
                fail(path + ": node " + std::to_string(event.a) +
                     " probed while healthy");
            }
            ++probesSinceQuarantine[event.a];
            break;
        case obs::EventType::NodeReadmitted:
            if (!inQuarantine[event.a]) {
                fail(path + ": node " + std::to_string(event.a) +
                     " readmitted while healthy");
            } else if (probesSinceQuarantine[event.a] == 0) {
                fail(path + ": node " + std::to_string(event.a) +
                     " readmitted without a probe");
            }
            inQuarantine[event.a] = false;
            break;
        case obs::EventType::HedgeLaunched:
            ++hedgesLaunched;
            break;
        case obs::EventType::HedgeWon:
            ++hedgesWon;
            break;
        case obs::EventType::HedgeCancelled:
            ++hedgesCancelled;
            break;
        case obs::EventType::HedgeLost:
            ++hedgesLost;
            break;
        default:
            break;
        }
    }
    if (!cluster::conservation::hedgeIdentity(hedgesLaunched, hedgesWon,
                                              hedgesCancelled,
                                              hedgesLost)) {
        fail(path + ": hedge event identity broken: " +
             std::to_string(hedgesLaunched) + " launched vs " +
             std::to_string(hedgesWon) + " won + " +
             std::to_string(hedgesCancelled) + " cancelled + " +
             std::to_string(hedgesLost) + " lost");
    }
    std::cout << "obs_check: events ok (" << events.size()
              << " events)\n";
}

void
checkSpans(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        fail("cannot open " + path);
        return;
    }
    std::string error;
    std::uint64_t dropped = 0;
    const auto spans = obs::parseJsonlSpans(in, &error, &dropped);
    if (!error.empty()) {
        fail(path + ": " + error);
        return;
    }
    if (dropped > 0) {
        fail(path + ": " + std::to_string(dropped) +
             " spans dropped (CI span buffers must be unbounded)");
    }
    if (spans.empty()) {
        fail(path + ": no spans");
        return;
    }
    for (std::size_t i = 1; i < spans.size(); ++i) {
        if (obs::spanBefore(spans[i], spans[i - 1])) {
            fail(path + ": dump is not in (invocation, id) order at "
                 "line " + std::to_string(i + 2));
            return;
        }
    }
    if (!obs::validateSpanTree(spans, &error)) {
        fail(path + ": " + error);
        return;
    }
    if (gFailures == 0) {
        std::cout << "obs_check: spans ok (" << spans.size()
                  << " spans, tree + conservation hold)\n";
    }
}

/** Attribution outcome fields that mirror report counters. */
constexpr const char* kOutcomeNames[] = {
    "completed", "failed",   "rejected", "shed_deadline",
    "shed_pressure", "rerouted", "stranded",
};

void
checkAttribution(const std::string& path)
{
    bool ok = false;
    const std::string text = slurp(path, ok);
    if (!ok)
        return;
    obs::JsonValue root;
    std::string error;
    if (!obs::parseJson(text, root, &error)) {
        fail(path + ": " + error);
        return;
    }
    if (root.stringAt("schema") != "rainbowcake-attribution-v1") {
        fail(path + ": schema is not rainbowcake-attribution-v1");
        return;
    }
    const obs::JsonValue* runs = root.find("runs");
    if (!runs || !runs->isArray() || runs->array.empty()) {
        fail(path + ": missing or empty runs array");
        return;
    }
    for (const auto& run : runs->array) {
        const std::string label = run.stringAt("label", "<unnamed>");
        for (const char* key : {"spans", "dropped", "invocations",
                                "outcomes", "e2e", "components",
                                "functions"}) {
            if (!run.find(key))
                fail(path + ": run " + label + " lacks key " + key);
        }
        const obs::JsonValue* outcomes = run.find("outcomes");
        if (outcomes != nullptr) {
            double sum = 0.0;
            for (const char* name : kOutcomeNames)
                sum += outcomes->numberAt(name);
            if (sum != run.numberAt("invocations")) {
                fail(path + ": run " + label +
                     ": outcome counts do not sum to invocations");
            }
        }
        // Conservation, fleet-wide: per invocation the components
        // tile [arrival, terminal] exactly, so the component totals
        // must reproduce the end-to-end total (tolerance covers the
        // different double summation orders).
        const obs::JsonValue* e2e = run.find("e2e");
        const obs::JsonValue* components = run.find("components");
        if (e2e != nullptr && components != nullptr) {
            if (e2e->numberAt("count") != run.numberAt("invocations")) {
                fail(path + ": run " + label +
                     ": e2e count disagrees with invocations");
            }
            double componentTotal = 0.0;
            for (const auto& [name, track] : components->object)
                componentTotal += track.numberAt("total_s");
            const double e2eTotal = e2e->numberAt("total_s");
            const double slack =
                1e-6 * std::max(1.0, std::abs(e2eTotal));
            if (std::abs(componentTotal - e2eTotal) > slack) {
                fail(path + ": run " + label +
                     ": components total " +
                     std::to_string(componentTotal) +
                     " s does not conserve e2e total " +
                     std::to_string(e2eTotal) + " s");
            }
        }
        if (run.numberAt("dropped") > 0.0)
            fail(path + ": run " + label + ": attribution built from "
                 "a dump with drops");
    }
    if (gFailures == 0) {
        std::cout << "obs_check: attribution ok ("
                  << runs->array.size() << " runs, conservation holds)\n";
    }
}

/**
 * Cross-validate a single-policy report against a single-run
 * attribution: the span outcomes and the report's own accounting
 * fields describe the same run, so they must agree exactly.
 */
void
crossCheckAttribution(const std::string& reportPath,
                      const std::string& attributionPath)
{
    bool ok = false;
    const std::string reportText = slurp(reportPath, ok);
    if (!ok)
        return;
    const std::string attributionText = slurp(attributionPath, ok);
    if (!ok)
        return;
    obs::JsonValue report;
    obs::JsonValue attribution;
    if (!obs::parseJson(reportText, report) ||
        !obs::parseJson(attributionText, attribution))
        return; // the per-artifact checks already failed loudly
    const obs::JsonValue* policies = report.find("policies");
    const obs::JsonValue* runs = attribution.find("runs");
    if (!policies || !policies->isArray() || !runs || !runs->isArray())
        return;
    if (policies->array.size() != 1 || runs->array.size() != 1) {
        std::cout << "obs_check: cross-check skipped (needs exactly "
                     "one policy and one attribution run)\n";
        return;
    }
    const obs::JsonValue& policy = policies->array.front();
    const obs::JsonValue& run = runs->array.front();
    const obs::JsonValue* outcomes = run.find("outcomes");
    if (outcomes == nullptr) {
        fail(attributionPath + ": run lacks outcomes");
        return;
    }
    static const std::pair<const char*, const char*> kPairs[] = {
        {"completed", "invocations"}, {"failed", "failed"},
        {"rejected", "rejected"},     {"shed_deadline", "shed_deadline"},
        {"shed_pressure", "shed_pressure"}, {"stranded", "stranded"},
    };
    for (const auto& [outcome, field] : kPairs) {
        if (outcomes->numberAt(outcome) != policy.numberAt(field)) {
            fail("cross-check: attribution outcome " +
                 std::string(outcome) + " (" +
                 std::to_string(outcomes->numberAt(outcome)) +
                 ") disagrees with report field " + field + " (" +
                 std::to_string(policy.numberAt(field)) + ")");
        }
    }
    if (policy.find("spans_recorded") != nullptr &&
        policy.numberAt("spans_recorded") != run.numberAt("spans")) {
        fail("cross-check: attribution span count disagrees with "
             "report spans_recorded");
    }
    if (policy.find("spans_dropped") != nullptr &&
        policy.numberAt("spans_dropped") != run.numberAt("dropped")) {
        fail("cross-check: attribution drop count disagrees with "
             "report spans_dropped");
    }
    if (gFailures == 0)
        std::cout << "obs_check: attribution/report cross-check ok\n";
}

void
checkBenchOverload(const std::string& path)
{
    bool ok = false;
    const std::string text = slurp(path, ok);
    if (!ok)
        return;
    obs::JsonValue root;
    std::string error;
    if (!obs::parseJson(text, root, &error)) {
        fail(path + ": " + error);
        return;
    }
    if (root.stringAt("schema") != "rainbowcake-bench-overload-v1") {
        fail(path + ": schema is not rainbowcake-bench-overload-v1");
        return;
    }
    const obs::JsonValue* rows = root.find("rows");
    if (!rows || !rows->isArray() || rows->array.empty()) {
        fail(path + ": missing or empty rows array");
        return;
    }
    static const char* kRowKeys[] = {
        "policy",        "admission",  "load",
        "p99_e2e_seconds", "mean_e2e_seconds", "completed",
        "rejected",      "shed_deadline", "shed_pressure",
        "peak_queue",    "max_queue_depth", "stranded",
    };
    double p99With = -1.0;
    double p99Without = -1.0;
    for (const auto& row : rows->array) {
        const std::string policy = row.stringAt("policy", "<unnamed>");
        for (const char* key : kRowKeys) {
            if (!row.find(key))
                fail(path + ": row " + policy + " lacks key " + key);
        }
        const obs::JsonValue* admissionField = row.find("admission");
        const bool admission =
            admissionField &&
            (admissionField->kind == obs::JsonValue::Kind::Bool
                 ? admissionField->boolean
                 : admissionField->number != 0.0);
        const double load = row.numberAt("load");
        // Bounded-queue invariant for every admission-controlled row.
        const double bound = row.numberAt("max_queue_depth");
        if (admission && bound > 0.0 &&
            row.numberAt("peak_queue") > bound) {
            fail(path + ": row " + policy + " load " +
                 std::to_string(load) + " exceeded its queue bound");
        }
        if (policy == "RainbowCake" && load == 4.0) {
            if (admission)
                p99With = row.numberAt("p99_e2e_seconds");
            else
                p99Without = row.numberAt("p99_e2e_seconds");
        }
    }
    if (p99With < 0.0 || p99Without < 0.0) {
        fail(path + ": missing RainbowCake rows at 4x load");
        return;
    }
    // The headline claim: admission control buys a strictly better
    // tail under sustained 4x overload.
    if (!(p99With < p99Without)) {
        fail(path + ": admission p99 " + std::to_string(p99With) +
             " is not below no-admission p99 " +
             std::to_string(p99Without) + " at 4x load");
    }
    if (gFailures == 0) {
        std::cout << "obs_check: bench-overload ok (" << rows->array.size()
                  << " rows, 4x p99 " << p99With << " < " << p99Without
                  << ")\n";
    }
}

/** Split one CSV line on commas (no quoting in our artifacts). */
std::vector<std::string>
splitCsv(const std::string& line)
{
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream in(line);
    while (std::getline(in, cell, ','))
        cells.push_back(cell);
    return cells;
}

/** Parse all of @p text as an unsigned decimal count. */
bool
parseCount(const std::string& text, std::uint64_t& value)
{
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    return error == std::errc() && stop == end;
}

/**
 * Validate the coordinator_phases.csv sidecar: subsets must not
 * exceed their total (route and summary capture within the
 * coordinator, barrier wait within the parallel phase), the serial
 * fraction must be a valid ratio, and it must agree with the phase
 * totals it claims to summarize.
 */
void
checkCoordinatorPhases(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        fail("cannot open " + path);
        return;
    }
    std::string header;
    std::string row;
    if (!std::getline(in, header) || !std::getline(in, row)) {
        fail(path + ": expected a header and a row");
        return;
    }
    if (header != "coordinator_drain_ns,route_ns,summary_capture_ns,"
                  "parallel_ns,barrier_wait_ns,serial_fraction") {
        fail(path + ": unexpected header: " + header);
        return;
    }
    const auto cells = splitCsv(row);
    if (cells.size() != 6) {
        fail(path + ": expected 6 columns, got " +
             std::to_string(cells.size()));
        return;
    }
    double coordinator = 0.0;
    double route = 0.0;
    double summary = 0.0;
    double parallel = 0.0;
    double barrierWait = 0.0;
    double fraction = 0.0;
    try {
        coordinator = std::stod(cells[0]);
        route = std::stod(cells[1]);
        summary = std::stod(cells[2]);
        parallel = std::stod(cells[3]);
        barrierWait = std::stod(cells[4]);
        fraction = std::stod(cells[5]);
    } catch (const std::exception&) {
        fail(path + ": non-numeric cell in " + row);
        return;
    }
    if (coordinator <= 0.0 || parallel <= 0.0)
        fail(path + ": phase totals must be positive: " + row);
    if (route + summary > coordinator) {
        fail(path + ": route + summary exceed the coordinator total: " +
             row);
    }
    if (barrierWait < 0.0 || barrierWait > parallel) {
        fail(path + ": barrier wait outside the parallel total: " +
             row);
    }
    if (fraction < 0.0 || fraction > 1.0)
        fail(path + ": serial fraction outside [0, 1]: " + row);
    // The printed fraction is the serial share of the coordinator
    // thread's working time, coordinator / (coordinator + parallel -
    // barrier wait); allow slack for the CSV's default precision.
    const double busy = coordinator + parallel - barrierWait;
    if (busy > 0.0) {
        const double expected = coordinator / busy;
        if (fraction > expected + 0.01 || fraction < expected - 0.01) {
            fail(path + ": serial fraction inconsistent with phase "
                        "totals: " + row);
        }
    }
    if (gFailures == 0) {
        std::cout << "obs_check: coordinator phases ok (serial "
                     "fraction " << fraction << ")\n";
    }
}

void
checkFleetSummary(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        fail("cannot open " + path);
        return;
    }
    std::string header;
    std::string row;
    if (!std::getline(in, header) || !std::getline(in, row)) {
        fail(path + ": expected a header and a summary row");
        return;
    }
    const auto names = splitCsv(header);
    const auto cells = splitCsv(row);
    if (names.size() != cells.size()) {
        fail(path + ": header/row column count mismatch");
        return;
    }
    std::map<std::string, std::string> columns;
    for (std::size_t i = 0; i < names.size(); ++i)
        columns[names[i]] = cells[i];

    // The writer's column table names every column and types its
    // counts: each std::uint64_t column must hold an unsigned integer.
    std::map<std::string, std::uint64_t> counters;
    for (const exp::SummaryColumn& column :
         exp::clusterSummaryColumns(cluster::ClusterResult{})) {
        const std::string name = column.name;
        const auto it = columns.find(name);
        if (it == columns.end()) {
            fail(path + ": summary lacks column " + name);
            return;
        }
        if (std::holds_alternative<std::uint64_t>(column.value) &&
            !parseCount(it->second, counters[name])) {
            fail(path + ": column " + name + " is not a count: " +
                 it->second);
            return;
        }
    }

    if (counters["nodes"] == 0)
        fail(path + ": zero nodes");
    if (counters["windows"] == 0)
        fail(path + ": zero windows");
    if (counters["invocations"] == 0)
        fail(path + ": zero completed invocations");

    // Fleet conservation: each admitted invocation reached exactly
    // one terminal state. A counter-merge bug in the sharded core
    // (dropped outbox entry, double-counted crash loss) breaks this
    // identity in one direction or the other.
    if (!cluster::conservation::fleetConservation(
            counters["invocations"], counters["failed"],
            counters["stranded"], counters["rerouted"],
            counters["rejected"], counters["shed_deadline"],
            counters["shed_pressure"], counters["cancelled"],
            counters["admitted"])) {
        fail(path + ": fleet conservation broken against admitted " +
             std::to_string(counters["admitted"]));
    }
    // Hedge pairs settle exactly once: the winner commits and the
    // loser is either cancelled in time or finishes as a duplicate.
    if (!cluster::conservation::hedgeIdentity(
            counters["hedges_launched"], counters["hedges_won"],
            counters["hedges_cancelled"], counters["hedges_lost"])) {
        fail(path + ": hedge identity broken: " +
             std::to_string(counters["hedges_launched"]) +
             " launched vs " + std::to_string(counters["hedges_won"]) +
             " won + " + std::to_string(counters["hedges_cancelled"]) +
             " cancelled + " + std::to_string(counters["hedges_lost"]) +
             " lost");
    }
    // Recovery: every outage/upgrade episode rejoins exactly once and
    // every planned drain ends gracefully or by the timeout kill.
    if (!cluster::conservation::recoveryIdentity(
            counters["recovered_nodes"], counters["outage_episodes"],
            counters["upgrade_episodes"], counters["nodes_drained"],
            counters["nodes_killed"])) {
        fail(path + ": recovery identity broken: " +
             std::to_string(counters["recovered_nodes"]) +
             " recovered vs " +
             std::to_string(counters["outage_episodes"]) +
             " outage + " +
             std::to_string(counters["upgrade_episodes"]) +
             " upgrade episodes (" +
             std::to_string(counters["nodes_drained"]) + " drained, " +
             std::to_string(counters["nodes_killed"]) + " killed)");
    }
    // Every recovery prewarm settles exactly once: claimed by a
    // dispatch, evicted under pressure, or wasted.
    if (!cluster::conservation::prewarmIdentity(
            counters["prewarm_layers"], counters["prewarm_hit"],
            counters["prewarm_evicted"], counters["prewarm_wasted"])) {
        fail(path + ": prewarm identity broken: " +
             std::to_string(counters["prewarm_layers"]) +
             " issued vs " + std::to_string(counters["prewarm_hit"]) +
             " hit + " + std::to_string(counters["prewarm_evicted"]) +
             " evicted + " +
             std::to_string(counters["prewarm_wasted"]) + " wasted");
    }
    if (counters["duplicates"] > counters["hedges_launched"]) {
        fail(path + ": more duplicate completions than hedges "
                    "launched");
    }
    // Coordinator phase sidecar (written by rainbow_sim under
    // --phase-timings only): wall-clock numbers are host-dependent,
    // but the internal accounting must still be consistent. Gated on
    // existence like every other optional artifact.
    const std::filesystem::path sidecar =
        std::filesystem::path(path).parent_path() /
        "coordinator_phases.csv";
    if (std::filesystem::exists(sidecar))
        checkCoordinatorPhases(sidecar.string());

    if (gFailures == 0) {
        std::cout << "obs_check: fleet ok (" << counters["admitted"]
                  << " admitted on " << counters["nodes"]
                  << " nodes, conservation holds)\n";
    }
}

[[noreturn]] void
usage(int code)
{
    std::cout << "obs_check [--report FILE] [--trace FILE] "
                 "[--events FILE] [--spans FILE] "
                 "[--attribution FILE] [--bench-overload FILE] "
                 "[--fleet FILE]\n"
                 "  --report + --attribution together also "
                 "cross-validate the two.\n";
    std::exit(code);
}

} // namespace

int
main(int argc, char** argv)
{
    bool any = false;
    std::string reportPath;
    std::string attributionPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            if (arg == "--help" || arg == "-h")
                usage(0);
            std::cerr << "missing value for " << arg << "\n";
            usage(2);
        }
        const std::string value = argv[++i];
        if (arg == "--report") {
            reportPath = value;
            checkReport(value);
        } else if (arg == "--trace") {
            checkTrace(value);
        } else if (arg == "--events") {
            checkEvents(value);
        } else if (arg == "--spans") {
            checkSpans(value);
        } else if (arg == "--attribution") {
            attributionPath = value;
            checkAttribution(value);
        } else if (arg == "--bench-overload") {
            checkBenchOverload(value);
        } else if (arg == "--fleet") {
            checkFleetSummary(value);
        } else {
            std::cerr << "unknown option " << arg << "\n";
            usage(2);
        }
        any = true;
    }
    if (!any)
        usage(2);
    if (!reportPath.empty() && !attributionPath.empty())
        crossCheckAttribution(reportPath, attributionPath);
    return gFailures == 0 ? 0 : 1;
}
