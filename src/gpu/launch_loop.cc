#include "gpu/launch_loop.hh"

#include "common/logging.hh"
#include "mem/mem_fault.hh"

namespace warped {
namespace gpu {

LaunchLoop::LaunchLoop(std::vector<std::unique_ptr<sm::Sm>> &sms,
                       const std::string &kernel_name,
                       unsigned grid_blocks, unsigned block_threads,
                       Cycle cycle_cap, bool stop_at_detection)
    : sms_(sms), kernelName_(kernel_name), gridBlocks_(grid_blocks),
      blockThreads_(block_threads), cycleCap_(cycle_cap),
      stopAtDetection_(stop_at_detection)
{
}

namespace {

bool
anyDetected(const std::vector<std::unique_ptr<sm::Sm>> &sms)
{
    for (const auto &s : sms)
        if (s->scheme().stats().errorsDetected > 0)
            return true;
    return false;
}

} // namespace

void
LaunchLoop::attachRecorder(trace::Recorder *rec)
{
    recorder_ = rec;
    for (auto &s : sms_)
        s->attachRecorder(rec);
}

LaunchLoop::Outcome
LaunchLoop::run()
{
    unsigned next_block = 0;
    Cycle cycle = 0;
    constexpr Cycle kHardCap = 500'000'000;
    bool hung = false;
    std::uint64_t ticks = 0;

    for (;;) {
        // Keep the fault plane's clock in step so a memory upset
        // strikes mid-run at its scheduled cycle (the final value
        // also covers verify-time host readback).
        if (plane_) [[unlikely]]
            plane_->setNow(cycle);

        // Dispatch at most one block per SM per cycle.
        for (auto &s : sms_) {
            if (next_block < gridBlocks_ &&
                s->canAcceptBlock(blockThreads_)) {
                if (recorder_) {
                    trace::Event ev;
                    ev.cycle = cycle;
                    ev.kind = trace::EventKind::BlockDispatch;
                    ev.a0 = next_block;
                    ev.a1 = s->id();
                    recorder_->record(trace::kChipSm, ev);
                }
                s->assignBlock(next_block++, blockThreads_,
                               gridBlocks_);
            }
        }

        bool anything = false;
        for (auto &s : sms_) {
            if (s->busy() || !s->drained()) {
                s->tick(cycle);
                ++ticks;
                anything = true;
            }
        }
        if (!anything && next_block == gridBlocks_)
            break;
        ++cycle;
        // Every SM has finished the cycle just ticked; when it
        // detected an error and the caller only needs the first
        // detection, nothing later can change the answer.
        if (stopAtDetection_ && anyDetected(sms_))
            break;
        if (cycleCap_ != 0 && cycle > cycleCap_) {
            hung = true;
            break;
        }
        if (cycle > kHardCap)
            warped_fatal("kernel '", kernelName_,
                         "' exceeded the cycle cap");
    }

    if (recorder_) {
        trace::Event ev;
        ev.cycle = cycle;
        ev.kind = trace::EventKind::LaunchEnd;
        ev.a0 = cycle;
        ev.a1 = hung ? 1 : 0;
        recorder_->record(trace::kChipSm, ev);
    }

    return {cycle, hung, next_block, ticks};
}

} // namespace gpu
} // namespace warped
