#include "workloads/suite_registry.hh"

#include "common/logging.hh"

namespace icfp {

namespace {

/** Comma-separated registered names, for error messages. */
std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

} // namespace

SuiteRegistry &
SuiteRegistry::instance()
{
    static SuiteRegistry registry;
    return registry;
}

void
SuiteRegistry::add(std::string name, std::string description,
                   SuiteFactory factory)
{
    ICFP_ASSERT(!name.empty() && factory);
    const auto [it, inserted] = entries_.emplace(
        std::move(name), Entry{std::move(description), std::move(factory),
                               nullptr});
    if (!inserted)
        ICFP_PANIC("workload suite '%s' registered twice",
                   it->first.c_str());
}

bool
SuiteRegistry::has(const std::string &name) const
{
    return entries_.count(name) != 0;
}

const std::vector<BenchmarkSpec> &
SuiteRegistry::buildLocked(const Entry &entry) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!entry.built) {
        auto suite = std::make_unique<const std::vector<BenchmarkSpec>>(
            entry.factory());
        ICFP_ASSERT(!suite->empty());
        entry.built = std::move(suite);
    }
    return *entry.built;
}

const std::vector<BenchmarkSpec> *
SuiteRegistry::maybeSuite(const std::string &name) const
{
    const auto it = entries_.find(name);
    if (it == entries_.end())
        return nullptr;
    return &buildLocked(it->second);
}

const std::vector<BenchmarkSpec> &
SuiteRegistry::suite(const std::string &name) const
{
    const std::vector<BenchmarkSpec> *found = maybeSuite(name);
    if (!found) {
        ICFP_FATAL("unknown workload suite '%s' (registered: %s)",
                   name.c_str(), joinNames(names()).c_str());
    }
    return *found;
}

const std::string &
SuiteRegistry::description(const std::string &name) const
{
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
        ICFP_FATAL("unknown workload suite '%s' (registered: %s)",
                   name.c_str(), joinNames(names()).c_str());
    }
    return it->second.description;
}

std::vector<std::string>
SuiteRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[name, entry] : entries_)
        out.push_back(name);
    return out; // std::map iteration: already sorted
}

const BenchmarkSpec *
SuiteRegistry::findBenchmark(const std::string &bench) const
{
    const BenchmarkSpec *found = nullptr;
    for (const auto &[name, entry] : entries_) {
        for (const BenchmarkSpec &spec : buildLocked(entry)) {
            if (spec.name != bench)
                continue;
            if (!found) {
                found = &spec;
                continue;
            }
            // A re-exported name (e.g. a family bench inside the
            // combined suite) must be the identical generator: every
            // workload knob plus the definition version. Anything less
            // (say, same seed but a tweaked coldLoads) would let the
            // suite order silently pick between two different golden
            // traces that share one name.
            if (!(spec.workload == found->workload) ||
                spec.defVersion != found->defVersion) {
                ICFP_PANIC("benchmark '%s' defined inconsistently across "
                           "suites (workload knobs or defVersion differ: "
                           "seed %llu/gen v%u vs seed %llu/gen v%u)",
                           bench.c_str(),
                           (unsigned long long)found->workload.seed,
                           found->defVersion,
                           (unsigned long long)spec.workload.seed,
                           spec.defVersion);
            }
        }
    }
    return found;
}

SuiteRegistrar::SuiteRegistrar(std::string name, std::string description,
                               SuiteFactory factory)
{
    SuiteRegistry::instance().add(std::move(name), std::move(description),
                                  std::move(factory));
}

const std::vector<BenchmarkSpec> &
findSuite(const std::string &name)
{
    return SuiteRegistry::instance().suite(name);
}

std::vector<std::string>
suiteNames()
{
    return SuiteRegistry::instance().names();
}

} // namespace icfp
