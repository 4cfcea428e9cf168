#include "sim/simulator.hh"

#include "common/logging.hh"

namespace icfp {

Trace
makeBenchTrace(const BenchmarkSpec &spec, uint64_t insts)
{
    // Build straight into shared ownership: the interpreter then hangs
    // the program off the trace without re-copying the code and initial
    // data image (the image copy, not execution, dominated short runs).
    auto program = std::make_shared<Program>(buildWorkload(spec.workload));
    return Interpreter::run(std::move(program), insts);
}

RunResult
simulate(CoreKind kind, const SimConfig &config, const Trace &trace)
{
    return CoreRegistry::instance().create(kind, config)->run(trace);
}

double
percentSpeedup(const RunResult &baseline, const RunResult &test)
{
    ICFP_ASSERT(test.cycles > 0);
    return 100.0 * (static_cast<double>(baseline.cycles) /
                        static_cast<double>(test.cycles) -
                    1.0);
}

} // namespace icfp
