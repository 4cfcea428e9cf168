#include "workloads/kernels.hh"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"

namespace icfp {

namespace {

/** Register conventions inside generated programs. */
enum : RegId {
    kRHotOff = 1,    ///< hot-region offset
    kRWarmOff = 2,   ///< warm-region offset
    kRColdOff = 3,   ///< cold-region offset (stream or randomized)
    kRChase0 = 4,    ///< cold chase cursor 0 (cursors 1-3: r24-r26)
    kRBound = 5,     ///< loop bound
    kRCounter = 6,   ///< loop counter
    kRStoreOff = 7,  ///< store-target offset (hot region)
    kRLcg = 16,      ///< LCG state for randomized addressing
    kRTmp = 17,      ///< scratch for branch tests
    kRWarmChase0 = 18,///< warm chase cursor 0 (cursors 1-3: r27-r29)
    kRData0 = 8,     ///< kRData0 .. kRData0+7: load/compute data registers
    kRChaseExtra = 24,     ///< cold chase cursors 1..3
    kRWarmChaseExtra = 27, ///< warm chase cursors 1..3
    kRLink = 31,
};

constexpr unsigned kMaxChains = 4;

RegId
coldChaseReg(unsigned chain)
{
    return chain == 0 ? kRChase0
                      : static_cast<RegId>(kRChaseExtra + chain - 1);
}

RegId
warmChaseReg(unsigned chain)
{
    return chain == 0 ? kRWarmChase0
                      : static_cast<RegId>(kRWarmChaseExtra + chain - 1);
}

constexpr unsigned kNumDataRegs = 8;

size_t
roundPow2(size_t bytes)
{
    return std::bit_ceil(std::max<size_t>(bytes, 64));
}

/** One operation slot in the loop body. */
enum class Op : uint8_t {
    HotLoad,
    WarmLoad,
    ColdLoad,
    Chase,
    WarmChase,
    Store,
    IntOp,
    FpOp,
    NoiseBranch,
    Call,
};

} // namespace

unsigned
workloadBodySize(const WorkloadParams &p)
{
    // Loads/stores/ALU are one instruction; noise branches are two
    // (test + branch); cold randomized loads add one LCG step each
    // iteration; chase hops are one; plus pointer maintenance (6) and the
    // loop close (2).
    const unsigned per_hop = p.chaseImmediateUse ? 2 : 1;
    // A call executes the call itself plus the 3-instruction leaf.
    unsigned body = p.hotLoads + p.warmLoads + p.coldLoads +
                    per_hop * (p.chaseHops + p.warmChaseHops) + p.stores +
                    p.intOps + p.fpOps + 2 * p.noiseBranches + 4 * p.calls;
    body += (p.coldRandom || p.noiseBranches > 0) ? 2 : 0;
    body += 8;
    return body;
}

Program
buildWorkload(const WorkloadParams &p)
{
    Rng rng(p.seed);

    const size_t hot = roundPow2(p.hotBytes);
    const size_t warm = roundPow2(p.warmBytes);
    const size_t wchase = roundPow2(p.warmChaseBytes);
    const size_t cold = roundPow2(std::max<size_t>(p.coldBytes, 1));
    const bool uses_cold =
        p.coldLoads > 0 || p.chaseHops > 0 || p.coldRandom;

    // Region layout: [hot][warm][warm-chase][cold...], total a power of 2.
    const Addr hot_base = 0;
    const Addr warm_base = hot;
    const Addr wchase_base = hot + warm;
    const Addr cold_base = hot + warm + wchase;
    const size_t total =
        roundPow2(hot + warm + wchase + (uses_cold ? cold : 0));

    ProgramBuilder b(total);

    // ---- data initialization ---------------------------------------------
    for (Addr a = 0; a < hot + warm; a += kWordBytes)
        b.poke(a, rng.next());
    if (uses_cold) {
        // Light-touch init for the cold region (keep values nonzero).
        for (Addr a = cold_base; a < cold_base + cold; a += 4096)
            b.poke(a, rng.next() | 1);
    }

    // Pointer-chase rings: a seeded permutation over a region's nodes so
    // consecutive hops land on far-apart lines. Multiple chains start
    // staggered around the same ring and never interfere (it is one
    // cycle), giving independent concurrent dependence chains.
    auto build_ring = [&](Addr base, size_t region, unsigned node_bytes,
                          unsigned chains, auto reg_of) {
        const size_t nodes = region / node_bytes;
        ICFP_ASSERT(nodes >= 2 * kMaxChains);
        std::vector<uint32_t> order(nodes);
        for (size_t i = 0; i < nodes; ++i)
            order[i] = static_cast<uint32_t>(i);
        for (size_t i = nodes - 1; i > 0; --i)
            std::swap(order[i], order[rng.below(i + 1)]);
        for (size_t i = 0; i < nodes; ++i) {
            const Addr at = base + Addr{order[i]} * node_bytes;
            const Addr next =
                base + Addr{order[(i + 1) % nodes]} * node_bytes;
            b.poke(at, next);
        }
        for (unsigned c = 0; c < chains; ++c) {
            const size_t start = nodes * c / chains;
            b.li(reg_of(c), static_cast<int64_t>(
                                base + Addr{order[start]} * node_bytes));
        }
    };

    const unsigned chase_chains =
        std::min(std::max(p.chaseChains, 1u), kMaxChains);
    const unsigned warm_chase_chains =
        std::min(std::max(p.warmChaseChains, 1u), kMaxChains);

    if (p.chaseHops > 0) {
        build_ring(cold_base, cold, p.chaseNodeBytes, chase_chains,
                   [](unsigned c) { return coldChaseReg(c); });
    } else {
        b.li(kRChase0, static_cast<int64_t>(cold_base));
    }

    // Warm (L2-resident) ring at 128-byte spacing in its own small
    // region: hops mostly miss the D$ (the ring spans more 64B lines
    // than the D$ holds) but hit the L2 after the first lap.
    if (p.warmChaseHops > 0) {
        build_ring(wchase_base, wchase, 128, warm_chase_chains,
                   [](unsigned c) { return warmChaseReg(c); });
    } else {
        b.li(kRWarmChase0, static_cast<int64_t>(wchase_base));
    }

    // ---- prologue ----------------------------------------------------------
    b.li(kRHotOff, 0);
    b.li(kRWarmOff, 0);
    b.li(kRColdOff, 0);
    b.li(kRBound, 1); // patched below: loop "forever" (bounded by trace)
    b.li(kRCounter, 0);
    b.li(kRStoreOff, 0);
    b.li(kRLcg, static_cast<int64_t>(rng.next() | 1));
    for (unsigned r = 0; r < kNumDataRegs; ++r)
        b.li(static_cast<RegId>(kRData0 + r), static_cast<int64_t>(rng.range(1, 1000)));

    // Leaf functions for calls, placed after the loop; record patch site.
    std::vector<uint32_t> call_sites;

    // ---- loop body ----------------------------------------------------------
    const uint32_t loop = b.label();

    // Build and shuffle the op sequence.
    std::vector<Op> ops;
    auto add = [&ops](Op op, unsigned n) {
        for (unsigned i = 0; i < n; ++i)
            ops.push_back(op);
    };
    add(Op::HotLoad, p.hotLoads);
    add(Op::WarmLoad, p.warmLoads);
    add(Op::ColdLoad, p.coldLoads);
    add(Op::Chase, p.chaseHops);
    add(Op::WarmChase, p.warmChaseHops);
    add(Op::Store, p.stores);
    add(Op::IntOp, p.intOps);
    add(Op::FpOp, p.fpOps);
    add(Op::NoiseBranch, p.noiseBranches);
    add(Op::Call, p.calls);
    for (size_t i = ops.size(); i > 1; --i)
        std::swap(ops[i - 1], ops[rng.below(i)]);

    // Pseudo-random state used for randomized cold addressing and for
    // noise-branch outcomes: one LCG-ish step per iteration. Crucially
    // this chain is miss-INDEPENDENT, so noise branches are hard to
    // predict but resolvable during advance execution (most mispredicted
    // branches in real code do not hang off an outstanding miss).
    if (p.coldRandom || p.noiseBranches > 0) {
        b.mul(kRLcg, kRLcg, kRLcg); // squaring keeps it chaotic enough
        b.addi(kRLcg, kRLcg, 0x9e37);
    }

    unsigned data_rr = 0;   // round-robin data register chooser
    unsigned cold_slot = 0; // distinct displacement per cold load
    unsigned chase_rr = 0;  // round-robin chain chooser (cold)
    unsigned warm_chase_rr = 0; // round-robin chain chooser (warm)
    unsigned noise_bit = 0; // distinct LCG bit per noise branch
    auto next_data = [&]() -> RegId {
        const RegId r = static_cast<RegId>(kRData0 + data_rr);
        data_rr = (data_rr + 1) % kNumDataRegs;
        return r;
    };

    for (const Op op : ops) {
        switch (op) {
          case Op::HotLoad:
            b.ld(next_data(), kRHotOff, static_cast<int64_t>(hot_base) +
                                            int64_t{cold_slot % 4} * 8);
            break;
          case Op::WarmLoad:
            b.ld(next_data(), kRWarmOff, static_cast<int64_t>(warm_base) +
                                             int64_t{cold_slot % 4} * 64);
            break;
          case Op::ColdLoad: {
            const RegId base = p.coldRandom ? kRLcg : kRColdOff;
            b.ld(next_data(), base,
                 static_cast<int64_t>(cold_base) +
                     int64_t{cold_slot} * p.coldStride);
            ++cold_slot;
            break;
          }
          case Op::Chase: {
            const RegId cursor = coldChaseReg(chase_rr % chase_chains);
            ++chase_rr;
            b.ld(cursor, cursor, 0);
            if (p.chaseImmediateUse) {
                const RegId d = next_data();
                b.xor_(d, cursor, d);
            }
            break;
          }
          case Op::WarmChase: {
            const RegId cursor =
                warmChaseReg(warm_chase_rr % warm_chase_chains);
            ++warm_chase_rr;
            b.ld(cursor, cursor, 0);
            if (p.chaseImmediateUse) {
                const RegId d = next_data();
                b.xor_(d, cursor, d);
            }
            break;
          }
          case Op::Store:
            b.st(next_data(), kRStoreOff, static_cast<int64_t>(hot_base));
            break;
          case Op::IntOp: {
            // Half the ALU ops start fresh dependence chains (real code
            // constantly materializes constants/induction values); the
            // other half extend chains from loaded data. Without the
            // fresh half, load poison would spread through the entire
            // register pool and rallies would re-execute nearly the whole
            // program (Table 2's Rally/KI says 2-45% is typical).
            const RegId d = next_data();
            if (rng.chance(0.5)) {
                if (rng.chance(0.5))
                    b.add(d, kRCounter, kRLcg);
                else
                    b.xor_(d, kRCounter, kRLcg);
            } else {
                const RegId a = next_data();
                switch (rng.below(4)) {
                  case 0: b.add(d, d, a); break;
                  case 1: b.xor_(d, d, a); break;
                  case 2: b.sub(d, a, d); break;
                  default: b.mul(d, d, a); break;
                }
            }
            break;
          }
          case Op::FpOp: {
            const RegId d = next_data();
            if (rng.chance(0.5)) {
                if (rng.chance(0.5))
                    b.fadd(d, kRCounter, kRLcg);
                else
                    b.fmul(d, kRCounter, kRCounter);
            } else {
                const RegId a = next_data();
                if (rng.below(2) == 0)
                    b.fadd(d, d, a);
                else
                    b.fmul(d, d, a);
            }
            break;
          }
          case Op::NoiseBranch: {
            // Branch on a pseudo-random bit of the LCG state: essentially
            // unpredictable, but miss-independent (see above).
            b.andi(kRTmp, kRLcg,
                   int64_t{1} << ((noise_bit++ % 8) + 4));
            const uint32_t target = b.label() + 2;
            b.bne(kRTmp, 0, target);
            break;
          }
          case Op::Call:
            call_sites.push_back(b.label());
            b.call(0); // patched to the leaf below
            break;
        }
    }

    // Pointer maintenance.
    b.addi(kRHotOff, kRHotOff, 24);
    b.andi(kRHotOff, kRHotOff, static_cast<int64_t>(hot - 1));
    b.addi(kRWarmOff, kRWarmOff, 72);
    b.andi(kRWarmOff, kRWarmOff, static_cast<int64_t>(warm - 1));
    if (uses_cold) {
        b.addi(kRColdOff, kRColdOff,
               static_cast<int64_t>(p.coldStride) *
                   std::max(1u, p.coldLoads));
        b.andi(kRColdOff, kRColdOff, static_cast<int64_t>(cold - 1));
    } else {
        b.nop();
        b.nop();
    }
    b.addi(kRStoreOff, kRStoreOff, 16);
    b.andi(kRStoreOff, kRStoreOff, static_cast<int64_t>(hot - 1));

    // Loop close: runs "forever"; the interpreter's instruction budget
    // bounds the dynamic run.
    b.addi(kRCounter, kRCounter, 1);
    b.bne(kRCounter, 0, loop);
    b.halt();

    // Leaf function: a few ALU ops and a return.
    if (p.calls > 0) {
        const uint32_t leaf = b.label();
        b.add(kRTmp, kRTmp, kRCounter);
        b.xor_(kRTmp, kRTmp, kRLcg);
        b.ret(kRLink);
        for (const uint32_t site : call_sites)
            b.patchTarget(site, leaf);
    }

    return std::move(b).build(p.name);
}

} // namespace icfp
