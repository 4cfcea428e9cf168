/**
 * @file
 * Common pipeline parameters (Table 1) shared by all core models, and the
 * RunResult statistics block every model returns.
 *
 * Table 1 pipeline: 10 stages (3 I$, 1 decode, 1 reg-read, 1 ALU, 3 D$,
 * 1 reg-write), 2-way superscalar issue of 2 integer plus 1
 * fp/load/store/branch.
 */

#ifndef ICFP_CORE_PARAMS_HH
#define ICFP_CORE_PARAMS_HH

#include <cstdint>
#include <string>

#include "bpred/branch_unit.hh"
#include "common/types.hh"
#include "mem/hierarchy.hh"

namespace icfp {

/** Which cache-miss levels trigger a transition to advance mode. */
enum class AdvanceTrigger : uint8_t {
    None,     ///< never advance (vanilla in-order)
    L2Only,   ///< enter advance only on L2 misses
    AnyDcache,///< enter advance on any data cache miss
};

/** What advance execution does with a data cache miss that hits the L2. */
enum class SecondaryMissPolicy : uint8_t {
    Block, ///< wait for the D$ miss to fill (RA "D$-b")
    Poison,///< poison the output and keep advancing (RA "D$-nb", iCFP)
};

/** Common core configuration (Table 1 defaults). */
struct CoreParams
{
    unsigned issueWidth = 2;   ///< 2-way superscalar
    unsigned intAluSlots = 2;  ///< 2 integer ALUs
    unsigned memFpBrSlots = 1; ///< 1 fp/load/store/branch slot
    /**
     * Redirect penalty on a branch mispredict: stages between fetch and
     * execute (3 I$ + decode + reg-read + ALU).
     */
    unsigned mispredictPenalty = 6;
    /** Pipeline refill after a squash-to-checkpoint (full 10-stage drain). */
    unsigned squashPenalty = 10;
    unsigned storeBufferEntries = 32; ///< baseline associative store buffer

    BranchUnitParams bpred{};
};

/** Statistics returned by one core-model run. */
struct RunResult
{
    std::string core;          ///< model name
    uint64_t instructions = 0; ///< committed dynamic instructions
    Cycle cycles = 0;

    // Memory behaviour.
    HierarchyStats mem{};
    double dcacheMlp = 0.0;
    double l2Mlp = 0.0;

    // Branching.
    BranchStats branch{};

    // Advance/rally machinery (zero for the in-order baseline).
    uint64_t advanceEntries = 0;   ///< transitions into advance mode
    uint64_t advanceInsts = 0;     ///< instructions processed in advance
    uint64_t rallyPasses = 0;
    uint64_t rallyInsts = 0;       ///< re-executed slice instructions
    uint64_t slicedInsts = 0;      ///< instructions diverted to the slice
    uint64_t squashes = 0;         ///< restores to the checkpoint
    uint64_t simpleRaEntries = 0;  ///< falls into "simple runahead" mode
    uint64_t poisonAddrStalls = 0; ///< poisoned-store-address stalls

    // Chained store buffer behaviour (Section 3.2 claims).
    uint64_t sbChainLoads = 0;     ///< loads that walked a chain
    uint64_t sbExcessHops = 0;     ///< hops beyond the free first access
    uint64_t sbForwards = 0;       ///< loads satisfied by forwarding

    double ipc() const { return cycles ? double(instructions) / double(cycles) : 0.0; }

    /** Misses per 1000 committed instructions. */
    double
    missPerKi(uint64_t misses) const
    {
        return instructions ? 1000.0 * double(misses) / double(instructions)
                            : 0.0;
    }

    /** Slice instructions re-executed per 1000 committed (Table 2). */
    double
    rallyPerKi() const
    {
        return instructions
                   ? 1000.0 * double(rallyInsts) / double(instructions)
                   : 0.0;
    }
};

} // namespace icfp

#endif // ICFP_CORE_PARAMS_HH
