/**
 * @file
 * Program synthesis and address generation for parameterized kernels.
 */

#include "workloads/kernel_params.hh"

#include <algorithm>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"

namespace wsl {

const char *
appClassName(AppClass cls)
{
    switch (cls) {
      case AppClass::Compute: return "Compute";
      case AppClass::Memory:  return "Memory";
      case AppClass::Cache:   return "Cache";
      default:                return "Unknown";
    }
}

unsigned
KernelParams::maxCtasPerSm(const GpuConfig &cfg) const
{
    // Threads occupy warp-granular slots, matching the SM's allocator.
    unsigned by_threads = cfg.maxThreadsPerSm / (warpsPerCta() * warpSize);
    unsigned by_regs = regsPerCta() ? cfg.numRegsPerSm / regsPerCta()
                                    : cfg.maxCtasPerSm;
    unsigned by_shm = shmPerCta ? cfg.sharedMemPerSm / shmPerCta
                                : cfg.maxCtasPerSm;
    unsigned limit = std::min({by_threads, by_regs, by_shm,
                               cfg.maxCtasPerSm});
    return std::max(limit, 1u);
}

namespace {

/**
 * Proportional interleave: emit each opcode class spread evenly through
 * the body (Bresenham-style accumulators) so memory operations are not
 * clustered. Deterministic for a given mix.
 */
std::vector<Opcode>
layoutOpcodes(const InstrMix &mix)
{
    struct ClassCount { Opcode op; unsigned count; };
    // ALU flavors rotate for variety; the unit class is what matters.
    const ClassCount classes[] = {
        {Opcode::FFma, mix.alu},
        {Opcode::FExp, mix.sfu},
        {Opcode::LdGlobal, mix.ldGlobal},
        {Opcode::StGlobal, mix.stGlobal},
        {Opcode::LdShared, mix.ldShared},
        {Opcode::StShared, mix.stShared},
    };
    unsigned total = 0;
    for (const auto &c : classes)
        total += c.count;
    WSL_ASSERT(total > 0, "instruction mix is empty");

    std::vector<Opcode> out;
    out.reserve(total + 1);
    double acc[6] = {0, 0, 0, 0, 0, 0};
    for (unsigned i = 0; i < total; ++i) {
        // Pick the class with the largest accumulated deficit.
        int best = -1;
        double best_acc = -1.0;
        for (int c = 0; c < 6; ++c) {
            acc[c] += static_cast<double>(classes[c].count) / total;
            if (acc[c] >= 1.0 && acc[c] > best_acc) {
                best = c;
                best_acc = acc[c];
            }
        }
        if (best < 0) {
            // Rounding starvation: pick the largest accumulator.
            for (int c = 0; c < 6; ++c) {
                if (classes[c].count && acc[c] > best_acc) {
                    best = c;
                    best_acc = acc[c];
                }
            }
        }
        acc[best] -= 1.0;
        out.push_back(classes[best].op);
    }
    return out;
}

/** Rotate ALU opcodes so the body isn't a single repeated mnemonic. */
Opcode
aluFlavor(unsigned idx)
{
    static const Opcode flavors[] = {Opcode::FFma, Opcode::FMul,
                                     Opcode::FAdd, Opcode::IAdd,
                                     Opcode::IMul};
    return flavors[idx % 5];
}

Opcode
sfuFlavor(unsigned idx)
{
    static const Opcode flavors[] = {Opcode::FExp, Opcode::FRsqrt,
                                     Opcode::FSin};
    return flavors[idx % 3];
}

} // namespace

KernelProgram
buildProgram(const KernelParams &params)
{
    const InstrMix &mix = params.mix;
    std::vector<Opcode> ops = layoutOpcodes(mix);

    // Register ring: each instruction writes the next ring register and
    // reads the value written depDist instructions earlier, creating a
    // uniform RAW-dependence distance. Ring size is capped so synthetic
    // registers stay within the declared per-thread register budget.
    const unsigned ring = std::max(2u, std::min<unsigned>(
        params.regsPerThread, 24u));
    const unsigned dep = std::max(1u, mix.depDist);

    // Divergent branches are spread evenly through the body; each one
    // lets a lane subset skip the next divPathLen instructions.
    std::vector<bool> is_branch(ops.size() + mix.divBranches, false);
    if (mix.divBranches > 0) {
        const unsigned n = static_cast<unsigned>(is_branch.size());
        for (unsigned b = 0; b < mix.divBranches; ++b)
            is_branch[(b * n) / mix.divBranches] = true;
    }

    KernelProgram prog;
    prog.loopIters = params.loopIters;
    prog.body.reserve(is_branch.size() + (mix.barrierPerIter ? 1 : 0));

    unsigned alu_idx = 0, sfu_idx = 0, mem_slot = 0, op_idx = 0;
    const unsigned body_len = static_cast<unsigned>(is_branch.size());
    for (unsigned i = 0; i < body_len; ++i) {
        if (is_branch[i]) {
            Instruction bra;
            bra.op = Opcode::BraDiv;
            bra.branchTarget = static_cast<std::int16_t>(
                std::min<unsigned>(i + 1 + mix.divPathLen, body_len));
            bra.divFraction256 = static_cast<std::uint8_t>(
                std::min(255.0, mix.divFraction * 256.0));
            prog.body.push_back(bra);
            continue;
        }
        Instruction inst;
        const unsigned k = op_idx;  // index among non-branch ops
        Opcode op = ops[op_idx++];
        if (unitOf(op) == UnitKind::Alu)
            op = aluFlavor(alu_idx++);
        else if (unitOf(op) == UnitKind::Sfu)
            op = sfuFlavor(sfu_idx++);
        inst.op = op;

        const unsigned write_reg = k % ring;
        // Source: the ring slot written `dep` instructions ago. For the
        // first instructions of the body this reaches the registers the
        // previous iteration wrote, giving cross-iteration dependences.
        const unsigned read_reg = (k + ring - (dep % ring)) % ring;
        inst.src0 = static_cast<std::int16_t>(read_reg);
        if (op != Opcode::StGlobal && op != Opcode::StShared)
            inst.dst = static_cast<std::int16_t>(write_reg);
        if (unitOf(op) == UnitKind::Alu && k >= 1)
            inst.src1 = static_cast<std::int16_t>((k - 1) % ring);
        if (isGlobalMem(op))
            inst.memSlot = static_cast<std::uint16_t>(mem_slot++);
        prog.body.push_back(inst);
    }
    if (mix.barrierPerIter) {
        Instruction bar;
        bar.op = Opcode::Bar;
        prog.body.push_back(bar);
    }
    prog.validate();
    return prog;
}

Addr
genAddress(const KernelParams &params, Addr base, unsigned cta_global,
           unsigned warp_in_cta, unsigned iter, unsigned slot,
           unsigned trans)
{
    const MemBehavior &mem = params.mem;
    const unsigned slots =
        std::max(1u, params.mix.ldGlobal + params.mix.stGlobal);
    const std::uint64_t access_idx =
        static_cast<std::uint64_t>(iter) * slots + slot;
    const std::uint64_t warp_linear =
        static_cast<std::uint64_t>(cta_global) * params.warpsPerCta() +
        warp_in_cta;

    std::uint64_t offset = 0;
    switch (mem.pattern) {
      case MemPattern::Stream: {
        // Per-CTA contiguous chunk, warp-interleaved within the CTA
        // (the natural blocked+coalesced layout): each CTA streams
        // through its own dense region, its warps advancing together.
        // DRAM locality therefore depends only on intra-CTA progress,
        // not on cross-CTA launch synchronization, so it is invariant
        // to the multiprogramming policy's dispatch history.
        const std::uint64_t warps = params.warpsPerCta();
        const std::uint64_t chunk_lines =
            warps * params.loopIters * slots *
            mem.transactionsPerAccess;
        const std::uint64_t line_in_cta =
            (access_idx * mem.transactionsPerAccess + trans) * warps +
            warp_in_cta;
        offset = (cta_global * chunk_lines + line_in_cta) * lineSize;
        break;
      }
      case MemPattern::Tile: {
        // Reuse wraps within the CTA's footprint: a strided walk that
        // revisits the same lines every footprint/lineSize accesses.
        const std::uint64_t fp =
            std::max<std::uint64_t>(mem.footprintPerCta, lineSize);
        const std::uint64_t lines = fp / lineSize;
        const std::uint64_t dwell = std::max(1u, mem.reuseDwell);
        std::uint64_t line =
            (warp_in_cta * 17 + (access_idx / dwell) * 7 + trans) %
            lines;
        offset = (cta_global % 2048) * fp + line * lineSize;
        break;
      }
      case MemPattern::Scatter: {
        // Pseudo-random lines within a large shared region; each
        // transaction of a warp access lands on an unrelated line
        // (uncoalesced access).
        const std::uint64_t fp =
            std::max<std::uint64_t>(mem.footprintPerCta, lineSize);
        std::uint64_t h = mixHash(warp_linear * 1315423911u + slot,
                                  access_idx, trans * 0x9e3779b9u);
        offset = (h % fp) & ~static_cast<std::uint64_t>(lineSize - 1);
        break;
      }
    }
    return base + offset;
}

} // namespace wsl
