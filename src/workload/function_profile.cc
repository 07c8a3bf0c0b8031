#include "workload/function_profile.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace rc::workload {

std::string
toString(Language language)
{
    switch (language) {
      case Language::NodeJs: return "Node.js";
      case Language::Python: return "Python";
      case Language::Java: return "Java";
    }
    return "?";
}

std::string
toString(Domain domain)
{
    switch (domain) {
      case Domain::WebApp: return "Web App";
      case Domain::Multimedia: return "Multimedia";
      case Domain::ScientificComputing: return "Scientific Computing";
      case Domain::MachineLearning: return "Machine Learning";
      case Domain::DataAnalysis: return "Data Analysis";
    }
    return "?";
}

std::string
toString(Layer layer)
{
    switch (layer) {
      case Layer::None: return "None";
      case Layer::Bare: return "Bare";
      case Layer::Lang: return "Lang";
      case Layer::User: return "User";
    }
    return "?";
}

FunctionProfile::FunctionProfile(FunctionId id, std::string shortName,
                                 std::string fullName, Language language,
                                 Domain domain, StageCosts costs,
                                 sim::Tick meanExecution, double executionCv)
    : _id(id), _shortName(std::move(shortName)),
      _fullName(std::move(fullName)), _language(language), _domain(domain),
      _costs(costs), _meanExecution(meanExecution), _executionCv(executionCv)
{
    validate();
}

sim::Tick
FunctionProfile::installLatency(Layer from, Layer to) const
{
    sim::Tick latency = 0;
    if (from < Layer::Bare && to >= Layer::Bare)
        latency += _costs.bareInit;
    if (from < Layer::Lang && to >= Layer::Lang)
        latency += _costs.bareToLang + _costs.langInit;
    if (from < Layer::User && to >= Layer::User)
        latency += _costs.langToUser + _costs.userInit;
    return latency;
}

double
FunctionProfile::memoryAtLayer(Layer layer) const
{
    switch (layer) {
      case Layer::None: return 0.0;
      case Layer::Bare: return _costs.bareMemoryMb;
      case Layer::Lang: return _costs.langMemoryMb;
      case Layer::User: return _costs.userMemoryMb;
    }
    return 0.0;
}

sim::Tick
FunctionProfile::stageLatency(Layer layer) const
{
    switch (layer) {
      case Layer::None: return 0;
      case Layer::Bare: return _costs.bareInit;
      case Layer::Lang: return _costs.langInit;
      case Layer::User: return _costs.userInit;
    }
    return 0;
}

sim::Tick
FunctionProfile::sampleExecution(sim::Rng& rng) const
{
    if (_meanExecution <= 0)
        return 0;
    if (_executionCv <= 0.0)
        return _meanExecution;
    const double sampled = rng.lognormalMeanCv(
        static_cast<double>(_meanExecution), _executionCv);
    return std::max<sim::Tick>(sim::kMillisecond,
                               static_cast<sim::Tick>(sampled));
}

void
FunctionProfile::validate() const
{
    if (_costs.bareInit < 0 || _costs.langInit < 0 || _costs.userInit < 0)
        sim::fatal("FunctionProfile: negative stage latency");
    if (_costs.bareToLang < 0 || _costs.langToUser < 0 ||
        _costs.userToRun < 0) {
        sim::fatal("FunctionProfile: negative transition overhead");
    }
    if (_costs.bareMemoryMb < 0.0)
        sim::fatal("FunctionProfile: negative bare memory");
    if (_costs.langMemoryMb < _costs.bareMemoryMb)
        sim::fatal("FunctionProfile: lang memory below bare memory");
    if (_costs.userMemoryMb < _costs.langMemoryMb)
        sim::fatal("FunctionProfile: user memory below lang memory");
    if (_meanExecution < 0)
        sim::fatal("FunctionProfile: negative execution time");
    if (_executionCv < 0.0)
        sim::fatal("FunctionProfile: negative execution CV");
}

} // namespace rc::workload
