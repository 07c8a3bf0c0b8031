#include "platform/span_cursor.hh"

namespace rc::platform {

using workload::Layer;

bool
SpanCursor::closeStage(sim::Tick end, obs::Span& span)
{
    const sim::Tick start = lastEnd;
    lastEnd = end;
    if (end == start || nextSeq > 0xff)
        return false;
    span.id = (invocation << 8) | nextSeq++;
    span.parent = rootId();
    span.invocation = invocation;
    span.start = start;
    span.end = end;
    return true;
}

void
SpanCursor::closeRoot(sim::Tick arrival, sim::Tick end,
                      obs::SpanOutcome outcome, obs::Span& span) const
{
    span.id = rootId();
    span.parent = origin;
    span.invocation = invocation;
    span.start = arrival;
    span.end = end;
    span.stage = obs::SpanStage::Invocation;
    span.info = static_cast<std::uint8_t>(outcome);
}

std::size_t
initStages(StartupType type, const workload::FunctionProfile& profile,
           sim::Tick start, sim::Tick end, std::array<InitStage, 3>& out)
{
    // The rung fixes the cached layer the install started from; a Lang
    // hit and a foreign-User specialize both build the User layer only.
    Layer base = Layer::Lang;
    switch (type) {
      case StartupType::Load:
        out[0] = {obs::SpanStage::InitWait, end};
        return 1;
      case StartupType::Cold: base = Layer::None; break;
      case StartupType::Bare: base = Layer::Bare; break;
      case StartupType::Lang:
      case StartupType::User: break;
    }
    const sim::Tick total = end - start;
    const sim::Tick sum = profile.installLatency(base, Layer::User);
    std::size_t n = 0;
    sim::Tick at = start;
    for (auto l = static_cast<int>(base) + 1;
         l < static_cast<int>(Layer::User); ++l) {
        const auto layer = static_cast<Layer>(l);
        const sim::Tick weight =
            profile.installLatency(static_cast<Layer>(l - 1), layer);
        at += sum > 0 ? total * weight / sum : 0;
        out[n++] = {layer == Layer::Bare ? obs::SpanStage::InitBare
                                         : obs::SpanStage::InitLang,
                    at};
    }
    out[n++] = {obs::SpanStage::InitUser, end};
    return n;
}

} // namespace rc::platform
