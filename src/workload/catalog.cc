#include "workload/catalog.hh"

#include <stdexcept>

#include "sim/logging.hh"

namespace rc::workload {

void
Catalog::add(FunctionProfile profile)
{
    if (profile.id() != _profiles.size()) {
        sim::fatal("Catalog::add: function ids must be dense, expected " +
                   std::to_string(_profiles.size()));
    }
    _profiles.push_back(std::move(profile));
}

const FunctionProfile&
Catalog::at(FunctionId id) const
{
    if (id >= _profiles.size())
        throw std::out_of_range("Catalog::at: unknown function id");
    return _profiles[id];
}

std::optional<FunctionId>
Catalog::findByShortName(const std::string& name) const
{
    for (const auto& profile : _profiles) {
        if (profile.shortName() == name)
            return profile.id();
    }
    return std::nullopt;
}

std::vector<FunctionId>
Catalog::functionsOfLanguage(Language language) const
{
    std::vector<FunctionId> out;
    for (const auto& profile : _profiles) {
        if (profile.language() == language)
            out.push_back(profile.id());
    }
    return out;
}

namespace {

/**
 * Helper assembling a profile from millisecond/MB scalars. Memory is
 * given as the *cumulative* footprint per layer (idle container at
 * that layer), which is how Fig. 2(b) reports it.
 */
FunctionProfile
makeProfile(FunctionId id, const std::string& shortName,
            const std::string& fullName, Language language, Domain domain,
            double bareMs, double langMs, double userMs, double bareMb,
            double langMb, double userMb, double blMs, double luMs,
            double urMs, double execMs, double execCv)
{
    StageCosts costs;
    costs.bareInit = sim::fromMillis(bareMs);
    costs.langInit = sim::fromMillis(langMs);
    costs.userInit = sim::fromMillis(userMs);
    costs.bareToLang = sim::fromMillis(blMs);
    costs.langToUser = sim::fromMillis(luMs);
    costs.userToRun = sim::fromMillis(urMs);
    costs.bareMemoryMb = bareMb;
    costs.langMemoryMb = langMb;
    costs.userMemoryMb = userMb;
    return FunctionProfile(id, shortName, fullName, language, domain, costs,
                           sim::fromMillis(execMs), execCv);
}

} // namespace

Catalog
Catalog::standard20()
{
    // Calibration notes (Fig. 2 / Fig. 14):
    //  * Environment setup (Bare) is 90-180 ms for everyone.
    //  * Language runtime init dominates for Java (2.5-4.5 s), is
    //    moderate for Python (550-950 ms), light for Node.js
    //    (280-420 ms).
    //  * User package loading varies with the deployment: ML model
    //    loading (IR) is the heaviest Python stage; Java data
    //    functions ship fat JARs; plain web apps are light.
    //  * Idle memory: Bare ~10 MB; Lang ~50 (js) / 85 (py) /
    //    125 (java) MB; User adds 25-300 MB on top.
    //  * Transition overheads sum to <3% of total startup.
    Catalog c;
    FunctionId id = 0;

    // ---- Node.js -------------------------------------------------------
    c.add(makeProfile(id++, "AC-Js", "Auto Complete", Language::NodeJs,
                      Domain::WebApp,
                      /*stages ms*/ 110, 300, 180,
                      /*mem MB*/ 9, 52, 88,
                      /*trans ms*/ 4, 5, 6, /*exec*/ 450, 0.35));
    c.add(makeProfile(id++, "DH-Js", "Dynamic HTML", Language::NodeJs,
                      Domain::WebApp, 120, 320, 150, 9, 54, 92, 4, 5, 6,
                      600, 0.35));
    c.add(makeProfile(id++, "UL-Js", "Uploader", Language::NodeJs,
                      Domain::WebApp, 100, 280, 240, 10, 50, 104, 4, 5, 6,
                      900, 0.40));
    c.add(makeProfile(id++, "IS-Js", "Image Sizing", Language::NodeJs,
                      Domain::Multimedia, 130, 360, 520, 10, 58, 148, 4, 6,
                      7, 2800, 0.40));
    c.add(makeProfile(id++, "TN-Js", "Thumbnailer", Language::NodeJs,
                      Domain::Multimedia, 120, 340, 480, 10, 56, 140, 4, 6,
                      7, 2400, 0.40));
    c.add(makeProfile(id++, "OI-Js", "OCR-Image", Language::NodeJs,
                      Domain::Multimedia, 140, 420, 980, 11, 62, 210, 5, 7,
                      8, 3800, 0.45));

    // ---- Python --------------------------------------------------------
    c.add(makeProfile(id++, "DV-Py", "DNA Visualization", Language::Python,
                      Domain::ScientificComputing, 130, 700, 820, 10, 84,
                      196, 5, 7, 8, 4200, 0.40));
    c.add(makeProfile(id++, "GB-Py", "Graph BFS", Language::Python,
                      Domain::ScientificComputing, 120, 600, 420, 10, 78,
                      132, 5, 6, 7, 2600, 0.35));
    c.add(makeProfile(id++, "GM-Py", "Graph MST", Language::Python,
                      Domain::ScientificComputing, 120, 610, 440, 10, 78,
                      134, 5, 6, 7, 2900, 0.35));
    c.add(makeProfile(id++, "GP-Py", "Graph Pagerank", Language::Python,
                      Domain::ScientificComputing, 120, 620, 450, 10, 80,
                      138, 5, 6, 7, 3200, 0.35));
    c.add(makeProfile(id++, "IR-Py", "Image Recognition", Language::Python,
                      Domain::MachineLearning, 150, 950, 3400, 11, 96, 412,
                      6, 9, 10, 6500, 0.45));
    c.add(makeProfile(id++, "SA-Py", "Sentiment Analysis", Language::Python,
                      Domain::MachineLearning, 140, 880, 1600, 11, 92, 286,
                      5, 8, 9, 4800, 0.40));
    c.add(makeProfile(id++, "FC-Py", "File Compression", Language::Python,
                      Domain::WebApp, 110, 560, 260, 10, 74, 118, 5, 6, 7,
                      1800, 0.35));
    c.add(makeProfile(id++, "MD-Py", "Markdown", Language::Python,
                      Domain::WebApp, 110, 550, 200, 10, 72, 106, 5, 6, 7,
                      700, 0.30));
    c.add(makeProfile(id++, "VP-Py", "Video Processing", Language::Python,
                      Domain::Multimedia, 150, 820, 1900, 11, 90, 338, 6, 8,
                      9, 8000, 0.50));

    // ---- Java ----------------------------------------------------------
    c.add(makeProfile(id++, "DT-Java", "Data Transform", Language::Java,
                      Domain::DataAnalysis, 170, 3600, 2100, 12, 128, 306,
                      8, 11, 12, 4500, 0.35));
    c.add(makeProfile(id++, "DL-Java", "Data Load", Language::Java,
                      Domain::DataAnalysis, 170, 3400, 1800, 12, 124, 282,
                      8, 11, 12, 4000, 0.35));
    c.add(makeProfile(id++, "DQ-Java", "Data Query", Language::Java,
                      Domain::DataAnalysis, 180, 3900, 2400, 12, 132, 330,
                      8, 12, 13, 5200, 0.35));
    c.add(makeProfile(id++, "DS-Java", "Data Scan", Language::Java,
                      Domain::DataAnalysis, 180, 4200, 2600, 12, 136, 348,
                      8, 12, 13, 5600, 0.35));
    c.add(makeProfile(id++, "DG-Java", "Data Group", Language::Java,
                      Domain::DataAnalysis, 190, 4500, 2900, 13, 140, 372,
                      9, 13, 14, 6200, 0.35));

    return c;
}

Catalog
Catalog::syntheticFleet(std::size_t count, std::uint64_t seed)
{
    sim::Rng rng(seed);
    Catalog c;
    for (FunctionId id = 0; id < count; ++id) {
        // Language mix loosely matching the Table 1 proportions.
        const double roll = rng.uniform();
        Language lang;
        double langMs, langMb;
        if (roll < 0.30) {
            lang = Language::NodeJs;
            langMs = rng.uniform(280.0, 420.0);
            langMb = rng.uniform(45.0, 65.0);
        } else if (roll < 0.75) {
            lang = Language::Python;
            langMs = rng.uniform(550.0, 950.0);
            langMb = rng.uniform(70.0, 100.0);
        } else {
            lang = Language::Java;
            langMs = rng.uniform(3200.0, 4600.0);
            langMb = rng.uniform(115.0, 145.0);
        }
        const Domain domains[] = {Domain::WebApp, Domain::Multimedia,
                                  Domain::ScientificComputing,
                                  Domain::MachineLearning,
                                  Domain::DataAnalysis};
        const Domain domain =
            domains[rng.uniformInt(0, 4)];
        const double bareMs = rng.uniform(90.0, 190.0);
        const double bareMb = rng.uniform(8.0, 13.0);
        // User layers: mostly light, with a heavy (model/JAR) tail.
        const double userMs = rng.bernoulli(0.25)
                                  ? rng.uniform(1500.0, 3400.0)
                                  : rng.uniform(150.0, 900.0);
        const double userMb = langMb + rng.uniform(25.0, 300.0);
        const double execMs = rng.uniform(300.0, 8000.0);
        std::string name = "S";
        name.append(std::to_string(id)).append("-").append(toString(lang));
        c.add(makeProfile(id, name, name, lang, domain, bareMs, langMs,
                          userMs, bareMb, langMb, userMb,
                          rng.uniform(4.0, 9.0), rng.uniform(5.0, 13.0),
                          rng.uniform(6.0, 14.0), execMs,
                          rng.uniform(0.25, 0.5)));
    }
    return c;
}

Catalog
Catalog::synthetic(std::size_t perLanguage)
{
    Catalog c;
    FunctionId id = 0;
    const Language langs[] = {Language::NodeJs, Language::Python,
                              Language::Java};
    const double langInitMs[] = {320, 650, 3600};
    const double langMemMb[] = {55, 80, 128};
    for (const Language lang : langs) {
        for (std::size_t i = 0; i < perLanguage; ++i) {
            const auto which = languageIndex(lang);
            std::string name = "F";
            name.append(std::to_string(id)).append("-").append(toString(lang));
            c.add(makeProfile(id, name, name, lang, Domain::WebApp, 120,
                              langInitMs[which],
                              300 + 100 * static_cast<double>(i),
                              10, langMemMb[which],
                              langMemMb[which] + 60 +
                                  20 * static_cast<double>(i),
                              5, 6, 7, 500, 0.3));
            ++id;
        }
    }
    return c;
}

} // namespace rc::workload
