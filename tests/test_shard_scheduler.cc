/**
 * @file
 * cluster::ShardScheduler and cluster::SummaryTable driven by scripted
 * rows, with no nodes: each routing rule, the in-window placement
 * model, the avoided node of a hedge, and what a report keeps. These
 * are the reference any indexed version of the router must match.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/shard_scheduler.hh"
#include "cluster/summary_table.hh"
#include "workload/catalog.hh"

namespace rc {
namespace {

using cluster::NodeSummary;
using cluster::Scheduling;
using cluster::ShardScheduler;
using cluster::SummaryTable;

constexpr std::uint8_t kEachHold[] = {
    SummaryTable::kTripped, SummaryTable::kQuarantined,
    SummaryTable::kSevered, SummaryTable::kRecovering};

/** A row with @p inFlight invocations and @p memoryMb resident. */
NodeSummary
row(std::uint32_t inFlight = 0, double memoryMb = 0.0)
{
    NodeSummary s;
    s.inFlightPlusQueued = inFlight;
    s.usedMemoryMb = memoryMb;
    return s;
}

/** A table of @p rows, each reported by its node. */
SummaryTable
tableOf(const std::vector<NodeSummary>& rows)
{
    SummaryTable table(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        table.report(i, rows[i]);
    return table;
}

/** A router over the standard catalog and its first three functions
 *  of one language, for picks that never hit an affinity. */
struct Fixture
{
    explicit Fixture(Scheduling scheduling)
        : catalog(workload::Catalog::standard20()),
          router(scheduling, catalog),
          python(catalog.functionsOfLanguage(workload::Language::Python)),
          language(workload::languageIndex(workload::Language::Python))
    {
    }

    workload::Catalog catalog;
    ShardScheduler router;
    std::vector<workload::FunctionId> python;
    std::size_t language;
};

// ---- the table -----------------------------------------------------------

TEST(SummaryTable, AReportKeepsEveryHoldAndClearsAMarkDown)
{
    SummaryTable table = tableOf({row(), row()});
    for (const std::uint8_t hold : kEachHold)
        table.setHold(0, hold, true);
    table.markDown(1);
    table.place(0);
    EXPECT_EQ(table[0].inFlightPlusQueued, 1u);

    table.report(0, row(5));
    table.report(1, row(7));
    EXPECT_EQ(table[0].holds, SummaryTable::kAllHolds);
    for (const std::uint8_t hold : kEachHold)
        EXPECT_FALSE(table.available(0, hold)) << int(hold);
    // The report replaced the modelled placement.
    EXPECT_EQ(table[0].inFlightPlusQueued, 5u);
    EXPECT_EQ(table[1].down, 0);
    EXPECT_TRUE(table.available(1, SummaryTable::kAllHolds));
}

TEST(SummaryTable, AvailabilityReadsOnlyTheHoldsAsked)
{
    SummaryTable table = tableOf({row(), row(), row()});
    table.setHold(0, SummaryTable::kQuarantined, true);
    table.setHold(0, SummaryTable::kRecovering, true);
    table.markDown(1);

    // The probe scan ignores quarantine and recovery; the violation
    // scan ignores recovery only; a down row is never available.
    const std::uint8_t probe = SummaryTable::kTripped | SummaryTable::kSevered;
    EXPECT_TRUE(table.available(0, probe));
    EXPECT_FALSE(table.available(0, probe | SummaryTable::kQuarantined));
    EXPECT_FALSE(table.available(1, 0));
    EXPECT_TRUE(table.available(2, SummaryTable::kAllHolds));

    // Clearing one hold leaves the other.
    table.setHold(0, SummaryTable::kQuarantined, false);
    EXPECT_EQ(table[0].holds, SummaryTable::kRecovering);
}

// ---- round-robin ---------------------------------------------------------

TEST(ShardScheduler, RoundRobinSkipsHeldAndDownRows)
{
    for (const std::uint8_t hold : kEachHold) {
        Fixture f(Scheduling::RoundRobin);
        SummaryTable table = tableOf({row(), row(), row(), row()});
        table.markDown(1);
        table.setHold(2, hold, true);
        std::vector<std::size_t> picks;
        for (int k = 0; k < 4; ++k)
            picks.push_back(f.router.pick(table, 0));
        EXPECT_EQ(picks, (std::vector<std::size_t>{0, 3, 0, 3}))
            << int(hold);
        EXPECT_EQ(table[0].inFlightPlusQueued, 2u);
        EXPECT_EQ(table[3].inFlightPlusQueued, 2u);
    }
}

TEST(ShardScheduler, RoundRobinFallsBackToTheNextCursorSlot)
{
    // With no routable row a pick walks the whole rotation, then
    // takes the slot after it.
    Fixture f(Scheduling::RoundRobin);
    SummaryTable table = tableOf({row(), row(), row()});
    for (std::size_t i = 0; i < 3; ++i)
        table.markDown(i);
    EXPECT_EQ(f.router.pick(table, 0), 0u);
    EXPECT_EQ(f.router.pick(table, 0), 1u);
    EXPECT_EQ(f.router.pick(table, 0), 2u);
    EXPECT_EQ(table[1].inFlightPlusQueued, 1u);
}

// ---- least-loaded --------------------------------------------------------

TEST(ShardScheduler, LeastLoadedTakesTheFirstStrictMinimumThenLessMemory)
{
    Fixture f(Scheduling::LeastLoaded);
    SummaryTable table =
        tableOf({row(3, 100.0), row(1, 100.0), row(1, 100.0), row(2)});
    EXPECT_EQ(f.router.pick(table, 0), 1u);
    // The placement made row 1 as loaded as row 3; row 2 is now the
    // first minimum, then row 3 wins its tie with row 1 on memory.
    EXPECT_EQ(f.router.pick(table, 0), 2u);
    EXPECT_EQ(f.router.pick(table, 0), 3u);
}

TEST(ShardScheduler, LeastLoadedSecondPassTakesEveryRow)
{
    // Nothing available: the work still lands, on the least-loaded
    // row of all, held or down.
    Fixture f(Scheduling::LeastLoaded);
    SummaryTable table = tableOf({row(4), row(2), row(3)});
    table.markDown(0);
    table.setHold(1, SummaryTable::kTripped, true);
    table.setHold(2, SummaryTable::kRecovering, true);
    EXPECT_EQ(f.router.pick(table, 0), 1u);
    // An available row wins over any less-loaded unavailable one.
    table.setHold(2, SummaryTable::kRecovering, false);
    EXPECT_EQ(f.router.pick(table, 0), 2u);
}

// ---- locality-aware ------------------------------------------------------

TEST(ShardScheduler, LocalityTakesLangThenBareThenLeastLoaded)
{
    Fixture f(Scheduling::LocalityAware);
    NodeSummary bare = row();
    bare.idleBare = 1;
    NodeSummary lang = row();
    lang.idleLang[f.language] = 1;
    SummaryTable table = tableOf({bare, lang, row()});
    // Three functions of one language, none placed before.
    EXPECT_EQ(f.router.pick(table, f.python[0]), 1u);
    EXPECT_EQ(table[1].idleLang[f.language], 0u);
    EXPECT_EQ(f.router.pick(table, f.python[1]), 0u);
    EXPECT_EQ(table[0].idleBare, 0u);
    EXPECT_EQ(f.router.pick(table, f.python[2]), 2u);
}

TEST(ShardScheduler, LocalityIgnoresIdleCapacityOnUnavailableRows)
{
    Fixture f(Scheduling::LocalityAware);
    NodeSummary lang = row();
    lang.idleLang[f.language] = 1;
    NodeSummary bare = row();
    bare.idleBare = 1;
    SummaryTable table = tableOf({lang, bare, row(1)});
    table.setHold(0, SummaryTable::kSevered, true);
    EXPECT_EQ(f.router.pick(table, f.python[0]), 1u);
    EXPECT_EQ(table[0].idleLang[f.language], 1u);
}

TEST(ShardScheduler, LocalityAffinityHitsUntilTheSpillDepth)
{
    Fixture f(Scheduling::LocalityAware);
    NodeSummary lang = row();
    lang.idleLang[f.language] = 4;
    SummaryTable table = tableOf({row(), row(), lang});
    const workload::FunctionId fn = f.python[0];
    EXPECT_EQ(f.router.pick(table, fn), 2u);
    // An affinity hit consumes no idle slot: the warm container is
    // the function's own.
    NodeSummary otherLang = row();
    otherLang.idleLang[f.language] = 1;
    table.report(0, otherLang);
    EXPECT_EQ(f.router.pick(table, fn), 2u);
    EXPECT_EQ(table[2].idleLang[f.language], 3u);

    // At the spill depth the pinned node stops taking the function,
    // and the sharing rule applies.
    table.report(2, row(ShardScheduler::kAffinitySpillDepth));
    EXPECT_EQ(f.router.pick(table, fn), 0u);
    // The affinity moved with the placement.
    EXPECT_EQ(f.router.pick(table, fn), 0u);

    // An unavailable affinity node is skipped too.
    table.setHold(0, SummaryTable::kQuarantined, true);
    EXPECT_EQ(f.router.pick(table, fn), 1u);
}

// ---- the avoided node ----------------------------------------------------

TEST(ShardScheduler, AvoidIsNeverTakenWhileAnotherRowIsRoutable)
{
    for (const Scheduling scheduling :
         {Scheduling::RoundRobin, Scheduling::LeastLoaded,
          Scheduling::LocalityAware}) {
        Fixture f(scheduling);
        NodeSummary lang = row();
        lang.idleLang[f.language] = 1;
        SummaryTable table = tableOf({lang, row(5), row(6)});
        // Row 0 is every mode's first choice; with it avoided, the
        // next routable row takes the work, and row 0 is untouched.
        EXPECT_EQ(f.router.pick(table, f.python[0], 0), 1u)
            << cluster::toString(scheduling);
        EXPECT_EQ(table[0].inFlightPlusQueued, 0u);
        EXPECT_EQ(table[0].idleLang[f.language], 1u);
        // Another row down or held, the last routable one is taken.
        table.markDown(1);
        EXPECT_EQ(f.router.pick(table, f.python[1], 0), 2u)
            << cluster::toString(scheduling);
    }
}

TEST(ShardScheduler, AvoidIsReturnedWhenItIsTheOnlyRow)
{
    for (const Scheduling scheduling :
         {Scheduling::RoundRobin, Scheduling::LeastLoaded,
          Scheduling::LocalityAware}) {
        Fixture f(scheduling);
        SummaryTable table = tableOf({row()});
        EXPECT_EQ(f.router.pick(table, 0, 0), 0u)
            << cluster::toString(scheduling);
        EXPECT_EQ(table[0].inFlightPlusQueued, 1u);
    }
}

TEST(ShardScheduler, AvoidStaysInTheAllUnavailableFallbacks)
{
    // Round-robin's last resort takes the next cursor slot, avoided
    // or not; least-loaded's second pass reads every row.
    Fixture rr(Scheduling::RoundRobin);
    SummaryTable rrTable = tableOf({row(), row()});
    rrTable.markDown(1);
    EXPECT_EQ(rr.router.pick(rrTable, 0, 0), 0u);

    Fixture ll(Scheduling::LeastLoaded);
    SummaryTable llTable = tableOf({row(), row(3)});
    llTable.setHold(1, SummaryTable::kTripped, true);
    EXPECT_EQ(ll.router.pick(llTable, 0, 0), 0u);
}

} // namespace
} // namespace rc
