#include "core/core_base.hh"

namespace icfp {

CoreBase::CoreBase(std::string name, const CoreParams &core_params,
                   const MemParams &mem_params)
    : name_(std::move(name)),
      params_(core_params),
      mem_(mem_params),
      bpred_(core_params.bpred),
      slots_(params_)
{
}

void
CoreBase::beginRun(const Trace &trace)
{
    regReady_.fill(0);
    cycle_ = 0;
    fetchReadyAt_ = 0;
    trace_ = &trace;
    traceLen_ = trace.size();
    result_ = RunResult{};
    result_.instructions = traceLen_;
}

bool
CoreBase::resolveBranch(const DynInst &di, const BranchPrediction &pred,
                        Cycle resolve_cycle)
{
    const bool correct = bpred_.resolve(di, pred);
    if (!correct) {
        fetchReadyAt_ = std::max(fetchReadyAt_,
                                 resolve_cycle + params_.mispredictPenalty);
    }
    return correct;
}

const RunResult &
CoreBase::finishRun()
{
    result_.core = name_;
    result_.cycles = cycle_;
    result_.mem = mem_.stats();
    result_.dcacheMlp = mem_.dcacheMlp();
    result_.l2Mlp = mem_.l2Mlp();
    result_.branch = bpred_.stats();
    return result_;
}

} // namespace icfp
