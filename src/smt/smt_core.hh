/**
 * @file
 * A 2-thread SMT in-order core, for quantifying the trade the paper's
 * conclusion proposes: iCFP "borrows" the second thread context's
 * register file to recoup single-thread performance, which forfeits the
 * throughput that context would have produced running a second thread.
 *
 * The model runs two independent golden traces through one Table 1
 * pipeline: shared issue slots and functional units with round-robin
 * priority, a shared memory hierarchy (threads are distinguished by an
 * address-space tag, so they interfere in the caches exactly as SMT
 * threads do), and per-thread register scoreboards, branch units, and
 * store buffers. Every instruction issues through CoreBase::issueInOrder,
 * the baseline's own step: CoreBase's one-thread state (scoreboard,
 * front-end redirect, branch unit) always belongs to the issuing thread,
 * and the other thread's copy is parked and swapped in when the issuing
 * thread changes. With an idle sibling the core is the in-order baseline,
 * which run(const Trace &) exposes.
 *
 * `icfp-sim figure smt_tradeoff` uses it to print, per workload pair, the
 * two-thread throughput against single-thread iCFP performance — the
 * two sides of the "single-thread performance trumps multi-thread
 * throughput" knob (Section 6).
 */

#ifndef ICFP_SMT_SMT_CORE_HH
#define ICFP_SMT_SMT_CORE_HH

#include <array>

#include "bpred/branch_unit.hh"
#include "core/core_base.hh"

namespace icfp {

/** Result of one 2-thread SMT run. */
struct SmtRunResult
{
    Cycle cycles = 0;          ///< cycles until *both* threads finish
    std::array<uint64_t, 2> instructions{};
    std::array<Cycle, 2> finishedAt{};

    /** Combined instructions per cycle while the machine ran. */
    double
    throughputIpc() const
    {
        return cycles ? double(instructions[0] + instructions[1]) /
                            double(cycles)
                      : 0.0;
    }

    /** Per-thread IPC measured to that thread's own finish time. */
    double
    threadIpc(unsigned tid) const
    {
        return finishedAt[tid]
                   ? double(instructions[tid]) / double(finishedAt[tid])
                   : 0.0;
    }
};

/** Two-thread SMT version of the in-order baseline. */
class SmtInOrderCore : public CoreBase
{
  public:
    SmtInOrderCore(const CoreParams &core_params,
                   const MemParams &mem_params)
        : CoreBase("smt-in-order", core_params, mem_params)
    {}

    /**
     * Run both traces to completion through the shared pipeline.
     * Threads see disjoint physical address spaces (tag bit 40), so
     * they share cache *capacity* without sharing data.
     */
    SmtRunResult run(const Trace &t0, const Trace &t1);

    /** The one-thread case: @p trace in thread 0 beside an idle thread. */
    RunResult run(const Trace &trace) override;

  private:
    /** What each thread keeps to itself. */
    struct ThreadContext
    {
        ThreadContext(const Trace &t, unsigned store_buffer_entries)
            : trace(&t), sb(store_buffer_entries),
              memory(&t.program->initialMemory)
        {}

        const Trace *trace;
        size_t idx = 0; ///< next instruction to issue
        SimpleStoreBuffer sb;
        MemOverlay memory;
        Cycle finishedAt = 0;

        bool done() const { return idx >= trace->size(); }
    };

    /** CoreBase's one-thread state, held for the thread not issuing. */
    struct ParkedState
    {
        std::array<Cycle, kNumRegs> regReady{};
        Cycle fetchReadyAt = 0;
        BranchUnit bpred;
    };

    /**
     * Try to issue the next instruction of thread @p tid, first making
     * its one-thread state CoreBase's.
     * @return true if it issued (slot consumed)
     */
    bool issueOne(unsigned tid, ThreadContext &thread);

    ParkedState parked_;
    unsigned active_ = 0; ///< the thread whose state CoreBase holds
};

} // namespace icfp

#endif // ICFP_SMT_SMT_CORE_HH
