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
 * store buffers.
 *
 * `icfp-sim figure smt_tradeoff` uses it to print, per workload pair, the
 * two-thread throughput against single-thread iCFP performance — the
 * two sides of the "single-thread performance trumps multi-thread
 * throughput" knob (Section 6).
 */

#ifndef ICFP_SMT_SMT_CORE_HH
#define ICFP_SMT_SMT_CORE_HH

#include <array>
#include <string>

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
class SmtInOrderCore
{
  public:
    SmtInOrderCore(const CoreParams &core_params,
                   const MemParams &mem_params);

    /**
     * Run both traces to completion through the shared pipeline.
     * Threads see disjoint physical address spaces (tag bit 40), so
     * they share cache *capacity* without sharing data.
     */
    SmtRunResult run(const Trace &t0, const Trace &t1);

  private:
    /** Per-thread architectural and front-end state. */
    struct ThreadContext
    {
        const Trace *trace = nullptr;
        size_t idx = 0;          ///< next instruction to issue
        std::array<Cycle, kNumRegs> regReady{};
        Cycle fetchReadyAt = 0;
        std::unique_ptr<BranchUnit> bpred;
        std::unique_ptr<SimpleStoreBuffer> sb;
        MemOverlay memory;
        Cycle finishedAt = 0;

        bool done() const { return idx >= trace->size(); }
    };

    /** Physical address with the thread's address-space tag. */
    static Addr
    taggedAddr(unsigned tid, Addr addr)
    {
        return addr | (Addr{tid} << 40);
    }

    /**
     * Try to issue the next instruction of @p thread.
     * @return true if it issued (slot consumed)
     */
    bool issueOne(unsigned tid, ThreadContext *thread);

    CoreParams params_;
    MemHierarchy mem_;
    IssueSlots slots_;
    Cycle cycle_ = 0;
    std::array<ThreadContext, 2> threads_;
};

} // namespace icfp

#endif // ICFP_SMT_SMT_CORE_HH
