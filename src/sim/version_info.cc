#include "sim/version_info.hh"

#include <cstdio>
#include <sstream>

#include "common/durable_file.hh" // fnv1a64
#include "isa/trace_io.hh"
#include "sim/simulator.hh"
#include "sim/trace_store.hh" // kTraceGenVersion
#include "workloads/suite_registry.hh"

namespace icfp {

RegistryIdentity
currentRegistryIdentity()
{
    RegistryIdentity id;
    id.simSemanticsVersion = kSimSemanticsVersion;
    id.traceGenVersion = kTraceGenVersion;
    id.traceIoFormatVersion = kTraceIoFormatVersion;

    for (const CoreKind kind : CoreRegistry::instance().kinds())
        id.cores.push_back(coreKindName(kind));

    for (const std::string &name : suiteNames()) {
        RegistryIdentity::Suite suite;
        suite.name = name;
        for (const BenchmarkSpec &spec : findSuite(name))
            suite.benches.emplace_back(spec.name, spec.defVersion);
        id.suites.push_back(std::move(suite));
    }
    return id;
}

uint64_t
registryFingerprintOf(const RegistryIdentity &identity)
{
    // Same flat '\0'-separated identity-text scheme as gridFingerprint
    // (sim/merge.cc): unambiguous concatenation, then one FNV-1a pass.
    std::string text = "simv=" + std::to_string(identity.simSemanticsVersion) +
                       " gen=" + std::to_string(identity.traceGenVersion) +
                       " fmt=" + std::to_string(identity.traceIoFormatVersion);
    for (const std::string &core : identity.cores) {
        text += '\0';
        text += core;
    }
    for (const RegistryIdentity::Suite &suite : identity.suites) {
        text += '\0';
        text += suite.name;
        for (const auto &[bench, def_version] : suite.benches) {
            text += '\0';
            text += bench;
            text += '=';
            text += std::to_string(def_version);
        }
    }
    return fnv1a64(text.data(), text.size());
}

uint64_t
registryFingerprint()
{
    return registryFingerprintOf(currentRegistryIdentity());
}

std::string
fingerprintHex(uint64_t fp)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)fp);
    return buf;
}

std::string
versionJson()
{
    const RegistryIdentity id = currentRegistryIdentity();
    std::ostringstream os;
    os << "{\n";
    os << "  \"sim_semantics_version\": " << id.simSemanticsVersion << ",\n";
    os << "  \"trace_gen_version\": " << id.traceGenVersion << ",\n";
    os << "  \"trace_io_format_version\": " << id.traceIoFormatVersion
       << ",\n";
    os << "  \"registry_fingerprint\": \""
       << fingerprintHex(registryFingerprintOf(id)) << "\",\n";
    os << "  \"cores\": [";
    for (size_t i = 0; i < id.cores.size(); ++i)
        os << (i ? ", " : "") << '"' << id.cores[i] << '"';
    os << "],\n";
    os << "  \"suites\": {\n";
    for (size_t s = 0; s < id.suites.size(); ++s) {
        const RegistryIdentity::Suite &suite = id.suites[s];
        os << "    \"" << suite.name << "\": {";
        for (size_t b = 0; b < suite.benches.size(); ++b) {
            os << (b ? ", " : "") << '"' << suite.benches[b].first
               << "\": " << suite.benches[b].second;
        }
        os << (s + 1 < id.suites.size() ? "},\n" : "}\n");
    }
    os << "  }\n";
    os << "}\n";
    return os.str();
}

} // namespace icfp
