/**
 * @file
 * The kernel-launch run loop: block dispatch, per-cycle SM ticking
 * and the hang watchdog — extracted from Gpu::launch so orchestration
 * is separate from stats aggregation (stats::LaunchAggregator) and
 * testable on its own.
 */

#ifndef WARPED_GPU_LAUNCH_LOOP_HH
#define WARPED_GPU_LAUNCH_LOOP_HH

#include <memory>
#include <vector>

#include "common/types.hh"
#include "sm/sm.hh"
#include "trace/recorder.hh"

namespace warped {

namespace mem {
class MemFaultPlane;
}

namespace gpu {

class LaunchLoop
{
  public:
    /** Outcome of driving the SMs to completion (or the watchdog). */
    struct Outcome
    {
        Cycle cycles = 0;
        bool hung = false;
        std::uint64_t dispatchedBlocks = 0;
        std::uint64_t smTicks = 0; ///< sum over SMs of ticked cycles
    };

    /**
     * @param sms           the chip's SMs (already constructed)
     * @param kernel_name   for the hard-cap fatal message
     * @param grid_blocks   blocks to dispatch
     * @param block_threads threads per block
     * @param cycle_cap     0 = the default hard cap (exceeding it is
     *        fatal); > 0 = a watchdog budget — exceeding it ends the
     *        launch with hung set.
     * @param stop_at_detection end the launch after the first cycle
     *        in which any SM's scheme reports errorsDetected > 0
     */
    LaunchLoop(std::vector<std::unique_ptr<sm::Sm>> &sms,
               const std::string &kernel_name, unsigned grid_blocks,
               unsigned block_threads, Cycle cycle_cap,
               bool stop_at_detection);

    /** Dispatch and tick until every SM drains (or the watchdog, or
     *  with stop_at_detection the end of the first detecting
     *  cycle). */
    Outcome run();

    /**
     * Emit dispatch/launch-end events to @p rec (chip lane) and
     * cascade it to every SM. Call before run(); nullptr = silent.
     */
    void attachRecorder(trace::Recorder *rec);

    /**
     * Drive @p plane's simulation clock: the loop calls setNow once
     * per cycle so memory-cell upsets strike at their scheduled
     * cycle. Call before run(); nullptr (the default) = no fault
     * plane and zero per-cycle cost beyond one pointer test.
     */
    void attachFaultPlane(mem::MemFaultPlane *plane)
    {
        plane_ = plane;
    }

  private:
    trace::Recorder *recorder_ = nullptr;
    mem::MemFaultPlane *plane_ = nullptr;
    std::vector<std::unique_ptr<sm::Sm>> &sms_;
    const std::string &kernelName_;
    unsigned gridBlocks_;
    unsigned blockThreads_;
    Cycle cycleCap_;
    bool stopAtDetection_;
};

} // namespace gpu
} // namespace warped

#endif // WARPED_GPU_LAUNCH_LOOP_HH
