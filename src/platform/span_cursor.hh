/**
 * @file
 * Span arithmetic of one live invocation, as pure functions.
 *
 * Every live invocation carries a SpanCursor. The invoker labels each
 * span (stage, function, node, container, info, attempt, flags); the
 * cursor supplies its ids, parent and interval, so the identity scheme
 * and the conservation tiling of obs/span.hh live here, testable with
 * no engine, pool or observer.
 */

#ifndef RC_PLATFORM_SPAN_CURSOR_HH_
#define RC_PLATFORM_SPAN_CURSOR_HH_

#include <array>
#include <cstddef>
#include <cstdint>

#include "obs/span.hh"
#include "platform/startup_type.hh"
#include "workload/function_profile.hh"

namespace rc::platform {

/** Where one invocation stands in its span tree; all zero while
 *  spans are off. */
struct SpanCursor
{
    std::uint64_t invocation = 0; //!< (node << 40) | local seq; 0 = off
    std::uint64_t origin = 0;     //!< parent of the root span; 0 = none
    sim::Tick lastEnd = 0;        //!< end of the last closed stage
    std::uint32_t nextSeq = 2;    //!< next stage seq (the root takes 1)

    /** Root span id ((invocation << 8) | 1); 0 while spans are off. */
    std::uint64_t rootId() const
    {
        return invocation != 0 ? (invocation << 8) | 1U : 0;
    }

    /**
     * Close the stage ending at @p end: fill @p span's ids and its
     * interval [lastEnd, end], and move the cursor to @p end. False,
     * with nothing to emit, for a zero-length stage (the next one
     * starts at the same tick, so the tiling stays gapless) and once
     * 254 stages have spent the seq byte (the tree check flags it).
     */
    bool closeStage(sim::Tick end, obs::Span& span);

    /** Fill @p span as the root [@p arrival, @p end] with @p outcome. */
    void closeRoot(sim::Tick arrival, sim::Tick end,
                   obs::SpanOutcome outcome, obs::Span& span) const;
};

/** What a stage span records beyond its interval (default: queue). */
struct StageLabel
{
    obs::SpanStage stage = obs::SpanStage::Queue;
    std::uint64_t container = 0; //!< bound container; 0 = none
    bool aborted = false;        //!< cut short by a fault, crash or cancel
    std::uint8_t info = 0;       //!< aborted: failed layer or fault kind
};

/** A span's attempt byte: @p attempt clamped to 0xff. */
inline std::uint8_t
spanAttempt(std::uint32_t attempt)
{
    return static_cast<std::uint8_t>(attempt < 0xff ? attempt : 0xff);
}

/** One layer of a completed install: its stage and its end tick. */
struct InitStage
{
    obs::SpanStage stage = obs::SpanStage::InitUser;
    sim::Tick end = 0;
};

/**
 * The init stages of an install through ladder rung @p type over
 * [@p start, @p end]: the layers the rung built, the interval split
 * across them in proportion to @p profile's install costs (integer
 * arithmetic), so per-layer attribution follows the cost model even
 * when a policy scales or biases the install. A Load latch is one
 * InitWait stage. Returns how many entries of @p out it filled.
 */
std::size_t initStages(StartupType type,
                       const workload::FunctionProfile& profile,
                       sim::Tick start, sim::Tick end,
                       std::array<InitStage, 3>& out);

} // namespace rc::platform

#endif // RC_PLATFORM_SPAN_CURSOR_HH_
