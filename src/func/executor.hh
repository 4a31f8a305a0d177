/**
 * @file
 * Functional executor: executes one warp instruction (execute-at-
 * schedule), updating architectural state, and records everything the
 * DMR machinery later needs to re-execute and compare (per-lane
 * operands, per-lane results/addresses, the lane info).
 */

#ifndef WARPED_FUNC_EXECUTOR_HH
#define WARPED_FUNC_EXECUTOR_HH

#include <algorithm>
#include <array>
#include <vector>

#include "arch/gpu_config.hh"
#include "arch/warp_context.hh"
#include "common/lane_mask.hh"
#include "func/fault_hook.hh"
#include "isa/program.hh"
#include "mem/memory.hh"

namespace warped {
namespace func {

/** Per-thread context needed to evaluate S2R. */
struct LaneInfo
{
    std::int32_t tid = 0;
    std::int32_t ctaid = 0;
    std::int32_t ntid = 0;
    std::int32_t nctaid = 0;
    std::int32_t laneId = 0;
    std::int32_t warpId = 0;
};

/** Maximum warp width the recording arrays support. */
constexpr unsigned kMaxWarp = 64;

/**
 * Undo record for one memory word clobbered by a store. The recovery
 * engine collects these during execution so a rollback can restore
 * the pre-store contents in reverse write order.
 */
struct MemUndo
{
    mem::Memory *mem = nullptr;
    Addr addr = 0;
    RegValue old = 0;
};

/**
 * Everything observable about one executed warp instruction.
 * This is the payload that flows down the timing pipeline and into
 * the DMR engine.
 */
struct ExecRecord
{
    isa::Instruction instr;
    Pc pc = 0;
    unsigned warpId = 0;      ///< warp slot within the SM
    /** Launch-unique issue id ((sm << 40) | per-SM issue index),
     *  stamped by Sm::recordIssue. Trace events reference it so the
     *  test suites can pair every verification with exactly one
     *  issue; 0 for records that never passed through an SM issue
     *  slot (unit-test fixtures). */
    std::uint64_t traceId = 0;
    LaneMask active;          ///< thread-slot active mask
    bool wasBranch = false;
    bool wasBarrier = false;
    bool wasExit = false;

    /** Per-thread-slot source operand values (index [src][slot]). */
    std::array<std::array<RegValue, kMaxWarp>, 3> operands{};
    /** Per-thread-slot result: dest value, or the computed byte
     *  address for memory instructions. */
    std::array<RegValue, kMaxWarp> results{};
    /** Per-thread-slot S2R context (verification must reproduce it). */
    std::array<LaneInfo, kMaxWarp> laneInfo{};

    /** Is there a per-lane value to verify (dst or address)? */
    bool
    verifiable() const
    {
        return instr.hasDst() || instr.isMem();
    }

    /**
     * Assign from @p o, copying only the first @p ws thread slots of
     * the per-slot planes — and only the operand planes @p o's opcode
     * reads. Headers, the active mask and every slot a consumer may
     * touch (all < @p ws, since `active` covers at most the machine's
     * warp size) match full assignment exactly; slots >= @p ws keep
     * whatever was there before. Saves ~2 KB per ReplayQ push at warp
     * size 32 vs copying the whole kMaxWarp-wide record.
     */
    void
    copyFrom(const ExecRecord &o, unsigned ws)
    {
        if (ws > kMaxWarp)
            ws = kMaxWarp;
        instr = o.instr;
        pc = o.pc;
        warpId = o.warpId;
        traceId = o.traceId;
        active = o.active;
        wasBranch = o.wasBranch;
        wasBarrier = o.wasBarrier;
        wasExit = o.wasExit;
        for (unsigned s = 0; s < o.instr.numSrcs(); ++s)
            std::copy_n(o.operands[s].data(), ws, operands[s].data());
        std::copy_n(o.results.data(), ws, results.data());
        // Lane info is only ever read back for S2R re-execution.
        if (o.instr.op == isa::Opcode::S2R)
            std::copy_n(o.laneInfo.data(), ws, laneInfo.data());
    }
};

/**
 * Executes instructions for the warps of one SM.
 */
class Executor
{
  public:
    /**
     * @param cfg     machine description (latencies unused here)
     * @param sm_id   SM index, forwarded to the fault hook
     * @param global  the GPU's global memory
     * @param hook    execution-unit fault boundary
     */
    Executor(const arch::GpuConfig &cfg, unsigned sm_id,
             mem::Memory &global, FaultHook &hook);

    /**
     * Pure per-lane computation: what the instruction produces for one
     * thread given operand values. For memory instructions this is
     * the effective byte address. Has no side effects; used by both
     * primary execution and DMR re-execution.
     */
    static RegValue computeLane(const isa::Instruction &in,
                                const std::array<RegValue, 3> &ops,
                                const LaneInfo &li);

    /**
     * Plane (structure-of-arrays) form of computeLane: evaluate the
     * instruction for all @p ws thread slots at once, writing
     * @p out [0..ws). The opcode switch runs once per warp instead of
     * once per lane, so the per-case loops vectorize. All slots are
     * computed, active or not — callers mask by ExecRecord::active.
     * Bit-identical to computeLane on every slot.
     */
    static void computePlane(
        const isa::Instruction &in,
        const std::array<std::array<RegValue, kMaxWarp>, 3> &ops,
        const std::array<LaneInfo, kMaxWarp> &li, unsigned ws,
        RegValue *out);

    /**
     * Execute the instruction at the warp's current PC for its active
     * mask: reads operands, computes per-lane results through the
     * fault hook (at physical lane = @p lane_of [slot]), performs
     * memory accesses and register writes, and advances the SIMT
     * stack.
     *
     * @param warp     warp functional state
     * @param prog     kernel image
     * @param shared   the warp's block's shared-memory segment
     * @param lane_of  thread-slot -> physical-lane permutation
     *                 (thread-core mapping, §4.2); identity when null
     * @param now      current cycle (fault-hook context)
     */
    ExecRecord step(arch::WarpContext &warp, const isa::Program &prog,
                    mem::Memory &shared, const unsigned *lane_of,
                    Cycle now);

    /**
     * step() into a caller-owned record. The hot-path variant: the
     * SM reuses one scratch ExecRecord across issues, so the ~2.6 KB
     * of per-lane arrays are not zero-initialized on every
     * instruction. Scalar fields are reset here; array slots are only
     * written for lanes in the active mask, so stale data from a
     * previous issue is never observable (every consumer masks by
     * ExecRecord::active).
     *
     * When @p undo is non-null, every store appends the clobbered
     * word's previous contents to it (recovery checkpointing); loads
     * and register writes need no entries — the recovery delta saves
     * old destination registers itself.
     */
    void stepInto(arch::WarpContext &warp, const isa::Program &prog,
                  mem::Memory &shared, const unsigned *lane_of,
                  Cycle now, ExecRecord &rec,
                  std::vector<MemUndo> *undo = nullptr);

    unsigned smId() const { return smId_; }
    FaultHook &hook() { return *hook_; }

  private:
    const arch::GpuConfig &cfg_;
    unsigned smId_;
    mem::Memory &global_;
    FaultHook *hook_;
};

} // namespace func
} // namespace warped

#endif // WARPED_FUNC_EXECUTOR_HH
