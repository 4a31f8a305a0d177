/**
 * @file
 * The execution-unit fault boundary.
 *
 * Every per-lane result the simulator computes (arithmetic results and
 * memory-address computations) passes through a FaultHook keyed by the
 * *physical* SIMT lane that produced it. The fault-injection framework
 * implements this interface; the default NullFaultHook is the
 * fault-free machine. Because primary execution and DMR verification
 * run on different physical lanes (RFU pairing, lane shuffling), a
 * per-lane fault makes them disagree — which is exactly what the
 * paper's comparator detects.
 *
 * Quiet cycles: a hook may declare, through quietAt(sm, now), that it
 * is the identity for every value SM `sm` produces at cycle `now`.
 * Execution and DMR verification then skip the per-lane apply() calls
 * for that SM and cycle and take the vectorized plane path instead.
 * The contract is strict: quietAt() may return true only if apply()
 * would return its input unchanged, and change no hook state, for
 * every FaultCtx with that sm and cycle. The default is false, so a
 * hook that draws random numbers, counts calls or forwards to another
 * hook stays on the per-lane reference path.
 */

#ifndef WARPED_FUNC_FAULT_HOOK_HH
#define WARPED_FUNC_FAULT_HOOK_HH

#include "common/types.hh"
#include "isa/opcode.hh"

namespace warped {
namespace func {

/** Where/when a lane-level computation happened. */
struct FaultCtx
{
    unsigned sm = 0;        ///< streaming multiprocessor index
    unsigned lane = 0;      ///< physical SIMT lane (post-mapping)
    isa::UnitType unit = isa::UnitType::SP;
    Cycle cycle = 0;
    bool isAddress = false; ///< memory-address computation
};

class FaultHook
{
  public:
    virtual ~FaultHook() = default;

    /** Transform the pure result into what the (possibly faulty)
     *  physical unit actually produces. */
    virtual RegValue apply(RegValue pure, const FaultCtx &ctx) = 0;

    /** True when apply() is the identity, with no side effect, for
     *  every value SM @p sm produces at cycle @p now (see the file
     *  comment). Evaluated at the cycle of each call, never cached. */
    virtual bool quietAt(unsigned /*sm*/, Cycle /*now*/) const
    {
        return false;
    }
};

/** The fault-free machine. */
class NullFaultHook final : public FaultHook
{
  public:
    RegValue apply(RegValue pure, const FaultCtx &) override
    { return pure; }

    bool quietAt(unsigned, Cycle) const override { return true; }

    /** Shared singleton. The hook carries no state, so one instance
     *  may be applied concurrently from any number of simulation
     *  threads; initialization is thread-safe (function-local
     *  static). */
    static NullFaultHook &instance();
};

} // namespace func
} // namespace warped

#endif // WARPED_FUNC_FAULT_HOOK_HH
