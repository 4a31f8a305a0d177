#include "dmr/dmr_engine.hh"

#include "common/logging.hh"
#include "dmr/recovery_listener.hh"
#include "dmr/rfu.hh"

namespace warped {
namespace dmr {

DmrEngine::DmrEngine(const arch::GpuConfig &gpu, const DmrConfig &cfg,
                     func::Executor &exec, std::uint64_t seed)
    : gpu_(gpu), cfg_(cfg), exec_(exec),
      mapping_(cfg.mapping, gpu.warpSize, gpu.lanesPerCluster),
      queue_(cfg.replayQSize, gpu.warpSize), rng_(seed)
{
}

void
DmrEngine::attachRecorder(trace::Recorder *rec)
{
    recorder_ = rec;
    queue_.attachRecorder(rec, exec_.smId());
}

void
DmrEngine::emit(trace::EventKind kind, const func::ExecRecord &rec,
                Cycle now, std::uint64_t a1)
{
    if (!recorder_)
        return;
    trace::Event ev;
    ev.cycle = now;
    ev.kind = kind;
    ev.unit = static_cast<std::uint8_t>(rec.instr.unit());
    ev.warp = rec.warpId;
    ev.pc = rec.pc;
    ev.a0 = rec.traceId;
    ev.a1 = a1;
    recorder_->record(exec_.smId(), ev);
}

std::uint64_t
DmrEngine::readMaskOf(const isa::Instruction &in)
{
    std::uint64_t mask = 0;
    for (unsigned s = 0; s < in.numSrcs(); ++s)
        mask |= 1ULL << in.src[s].idx;
    return mask;
}

bool
DmrEngine::rawHazardStall(unsigned warp_id, const isa::Instruction &next,
                          Cycle now)
{
    if (!cfg_.enabled || !cfg_.interWarp)
        return false;
    const std::uint64_t reads = readMaskOf(next);
    if (reads == 0)
        return false;
    const auto *producer = queue_.popRawHazard(warp_id, reads, now);
    if (!producer)
        return false;
    // The pipeline stalls this cycle; the freed units verify the
    // producer so the consumer can go next cycle.
    emit(trace::EventKind::RawStall, producer->rec, now, reads);
    interWarpVerify(producer->rec, now);
    ++stats_.rawStalls;
    return true;
}

unsigned
DmrEngine::onIssue(const func::ExecRecord &rec, Cycle now)
{
    if (!cfg_.enabled)
        return 0;

    // The Replay Checker first decides the fate of the instruction
    // one cycle ahead in the RF stage (Algorithm 1), using this
    // instruction as the co-execution partner candidate.
    verifiedUnitThisCycle_ = -1;
    unsigned stall = replayCheck(rec.instr.unit(), now);

    // Opportunistic drain (§4.3): any execution unit whose issue slot
    // is unused this cycle — by the new instruction and by the
    // co-executed verification — re-executes one queued instruction
    // of its own type.
    if (cfg_.interWarp) {
        for (unsigned t = 0; t < isa::kNumUnitTypes; ++t) {
            const auto ut = static_cast<isa::UnitType>(t);
            if (ut == rec.instr.unit() ||
                static_cast<int>(t) == verifiedUnitThisCycle_) {
                continue;
            }
            if (const auto *e = queue_.popOldestOfType(ut, now)) {
                interWarpVerify(e->rec, now);
                ++stats_.unitDrainVerifications;
            }
        }
    }

    const bool verifiable = rec.verifiable();
    const unsigned active = rec.active.count();
    const bool full_mask = active == gpu_.warpSize;

    if (verifiable) {
        stats_.verifiableThreadInstrs += active;
        // Sampling extension: outside the duty cycle the instruction
        // issues unprotected (it stays in the coverage denominator).
        if (!cfg_.activeAt(now)) {
            stats_.sampledOutThreadInstrs += active;
            if (listener_)
                listener_->onUnprotected(rec);
            return stall;
        }
        const bool temporal =
            cfg_.interWarp && (full_mask || cfg_.temporalAll);
        if (full_mask)
            ++stats_.interWarpInstrs;
        else
            ++stats_.intraWarpInstrs;
        if (temporal) {
            if (&rec == &scratch()) {
                // The SM executed into our scratch buffer: adopt it
                // as the pending record by swapping buffer roles.
                scratchIsA_ = !scratchIsA_;
            } else {
                pendingRec() = rec;
            }
            hasPending_ = true;
        } else if (!full_mask && cfg_.intraWarp) {
            intraWarpVerify(rec, now);
        } else if (listener_) {
            // Scheme gap (e.g. inter-warp disabled for a full mask):
            // the record retires without ever being compared.
            listener_->onUnprotected(rec);
        }
    }
    return stall;
}

unsigned
DmrEngine::squashWarp(unsigned warp_id, std::uint64_t min_trace_id,
                      Cycle now)
{
    unsigned dropped = 0;
    if (hasPending_) {
        const func::ExecRecord &p = pendingRec();
        if (p.warpId == warp_id && p.traceId >= min_trace_id) {
            hasPending_ = false;
            ++dropped;
        }
    }
    dropped += queue_.squashWarp(warp_id, min_trace_id, now);
    return dropped;
}

bool
DmrEngine::preRetireVerify(unsigned warp_id, Cycle now)
{
    if (!cfg_.enabled)
        return false;
    if (hasPending_ && pendingRec().warpId == warp_id) {
        hasPending_ = false;
        interWarpVerify(pendingRec(), now);
        return true;
    }
    if (const auto *e = queue_.popOldestOfWarp(warp_id, now)) {
        interWarpVerify(e->rec, now);
        return true;
    }
    return false;
}

unsigned
DmrEngine::replayCheck(isa::UnitType next_type, Cycle now)
{
    if (!hasPending_)
        return 0;

    // Verified/queued in place: the pending buffer is not reused
    // until the adopting onIssue of a later instruction.
    hasPending_ = false;
    const func::ExecRecord &pending = pendingRec();

    if (pending.instr.unit() != next_type) {
        // Different unit types: the pending instruction's units are
        // idle this cycle; co-execute its DMR copy for free.
        verifiedUnitThisCycle_ =
            static_cast<int>(pending.instr.unit());
        interWarpVerify(pending, now);
        ++stats_.coexecVerifications;
        return 0;
    }

    // Same type. Look for a queued instruction of a different type
    // whose unit is idle this cycle.
    if (const auto *e = queue_.popDifferentType(next_type, rng_,
                                                cfg_.dequeuePolicy,
                                                now)) {
        verifiedUnitThisCycle_ = static_cast<int>(e->rec.instr.unit());
        // Verify the popped entry before the push below reuses its
        // freed slot.
        interWarpVerify(e->rec, now);
        ++stats_.dequeueVerifications;
        queue_.push(pending, now);
        ++stats_.enqueues;
        return 0;
    }

    if (queue_.full()) {
        // Eager re-execution: one stall cycle, then the operands
        // still in the pipeline are replayed on the same units.
        emit(trace::EventKind::ReplayOverflow, pending, now,
             queue_.capacity());
        interWarpVerify(pending, now + 1);
        ++stats_.eagerStalls;
        return 1;
    }

    queue_.push(pending, now);
    ++stats_.enqueues;
    return 0;
}

void
DmrEngine::onIdleCycle(Cycle now)
{
    if (!cfg_.enabled || !cfg_.interWarp)
        return;
    if (hasPending_) {
        hasPending_ = false;
        const func::ExecRecord &pending = pendingRec();
        emit(trace::EventKind::IdleDrain, pending, now, 0);
        interWarpVerify(pending, now);
        ++stats_.idleDrainVerifications;
        return;
    }
    if (const auto *e = queue_.popOldest(now)) {
        emit(trace::EventKind::IdleDrain, e->rec, now, 1);
        interWarpVerify(e->rec, now);
        ++stats_.idleDrainVerifications;
    }
}

std::uint64_t
DmrEngine::drainAll(Cycle now)
{
    if (!cfg_.enabled || !cfg_.interWarp)
        return 0;
    std::uint64_t cycles = 0;
    while (hasPending_ || !queue_.empty()) {
        ++cycles;
        onIdleCycle(now + cycles);
    }
    stats_.finalDrainCycles += cycles;
    return cycles;
}

void
DmrEngine::intraWarpVerify(const func::ExecRecord &rec, Cycle now)
{
    const unsigned w = gpu_.lanesPerCluster;
    const unsigned n_clusters = gpu_.clustersPerWarp();
    const LaneMask lane_active = mapping_.toLaneSpace(rec.active);

    // Quiet-hook fast path: when the hook is the identity on this SM
    // at this cycle, re-execute every slot at once with the
    // vectorized plane compute; the RFU pairing below then compares
    // plane entries instead of re-running computeLane + the virtual
    // hook per monitored lane. Statistics are identical, and any
    // mismatch (a record that already carries a corrupted value)
    // falls back to the full per-slot comparator, which detects it.
    const bool quiet = exec_.hook().quietAt(exec_.smId(), now);
    if (quiet) {
        func::Executor::computePlane(rec.instr, rec.operands,
                                     rec.laneInfo, gpu_.warpSize,
                                     verifyPlane_.data());
    }

    LaneMask covered_slots;
    bool mismatch = false;
    for (unsigned c = 0; c < n_clusters; ++c) {
        const std::uint64_t bits = lane_active.clusterBits(c, w);
        if (bits == 0)
            continue;
        std::array<unsigned, Rfu::kMaxWidth> verifies;
        Rfu::pair(bits, w, verifies);
        for (unsigned m = 0; m < w; ++m) {
            if (verifies[m] == Rfu::kNone)
                continue;
            const unsigned monitored_lane = c * w + verifies[m];
            const unsigned checker_lane = c * w + m;
            const unsigned slot = mapping_.slotOf(monitored_lane);
            if (quiet &&
                verifyPlane_[slot] == rec.results[slot]) [[likely]] {
                ++stats_.comparisons;
            } else {
                mismatch |=
                    verifySlot(rec, slot, checker_lane, true, now);
            }
            covered_slots.set(slot);
            ++stats_.redundantThreadExecs[
                static_cast<unsigned>(rec.instr.unit())];
        }
    }
    const unsigned covered = covered_slots.count();
    if (covered > 0)
        emit(trace::EventKind::RfuForward, rec, now, covered);
    emit(trace::EventKind::IntraVerify, rec, now, covered);
    stats_.verifiedThreadInstrs += covered;
    stats_.intraVerifiedThreads += covered;
    if (listener_)
        listener_->onVerified(rec, mismatch, now);
}

void
DmrEngine::interWarpVerify(const func::ExecRecord &rec, Cycle now)
{
    const unsigned w = gpu_.lanesPerCluster;
    const unsigned ws = gpu_.warpSize;
    const auto unit = static_cast<unsigned>(rec.instr.unit());
    unsigned verified = 0;
    bool mismatch = false;

    // Quiet-hook fast path: when the hook is the identity on this SM
    // at @p now (drainAll passes now + cycles, so the predicate is
    // evaluated per call), re-execute all slots with the vectorized
    // plane compute and run the comparator as one masked bulk
    // compare. Semantically identical to the per-slot loop below —
    // same comparison/redundant-exec counts, same events — it only
    // skips the virtual hook dispatch that is known to be identity.
    bool fast_clean = false;
    if (exec_.hook().quietAt(exec_.smId(), now)) {
        func::Executor::computePlane(rec.instr, rec.operands,
                                     rec.laneInfo, ws,
                                     verifyPlane_.data());
        std::uint64_t eq = 0;
        for (unsigned slot = 0; slot < ws; ++slot) {
            eq |= std::uint64_t{verifyPlane_[slot] ==
                                rec.results[slot]}
                  << slot;
        }
        fast_clean = (rec.active.raw() & ~eq) == 0;
    }

    if (fast_clean) {
        verified = rec.active.count();
        stats_.comparisons += verified;
        stats_.redundantThreadExecs[unit] += verified;
    } else {
        // Runs on a live cycle, and on a quiet cycle whose bulk
        // compare mismatched: the record carries a value corrupted on
        // an earlier, live cycle. Per-slot dispatch in slot order,
        // exactly as campaigns require; on a quiet cycle every apply()
        // is the identity, so this loop detects that corruption
        // exactly as the per-lane path always has.
        for (unsigned slot = 0; slot < ws; ++slot) {
            if (!rec.active.test(slot))
                continue;
            const unsigned primary_lane = mapping_.laneOf(slot);
            const unsigned checker_lane =
                cfg_.laneShuffle ? shuffledLane(primary_lane, w)
                                 : primary_lane;
            mismatch |= verifySlot(rec, slot, checker_lane, false, now);
            ++verified;
            ++stats_.redundantThreadExecs[unit];
        }
    }
    emit(trace::EventKind::InterVerify, rec, now, verified);
    stats_.verifiedThreadInstrs += verified;
    stats_.interVerifiedThreads += verified;
    if (listener_)
        listener_->onVerified(rec, mismatch, now);
}

bool
DmrEngine::verifySlot(const func::ExecRecord &rec, unsigned slot,
                      unsigned checker_lane, bool intra, Cycle now)
{
    const std::array<RegValue, 3> ops = {rec.operands[0][slot],
                                         rec.operands[1][slot],
                                         rec.operands[2][slot]};
    const RegValue pure =
        func::Executor::computeLane(rec.instr, ops, rec.laneInfo[slot]);

    func::FaultCtx ctx;
    ctx.sm = exec_.smId();
    ctx.lane = checker_lane;
    ctx.unit = rec.instr.unit();
    ctx.cycle = now;
    ctx.isAddress = rec.instr.isMem();
    const RegValue got = exec_.hook().apply(pure, ctx);

    ++stats_.comparisons;
    const bool mismatch = got != rec.results[slot];
    if (mismatch) {
        ++stats_.errorsDetected;
        emit(trace::EventKind::ErrorDetected, rec, now, slot);

        ErrorVerdict verdict = ErrorVerdict::None;
        if (cfg_.arbitrateErrors) {
            // Third execution on yet another lane; majority vote
            // classifies which side is suspect (extension — the
            // paper defers handling to the scheduler).
            const unsigned third_lane =
                shuffledLane(checker_lane, gpu_.lanesPerCluster);
            func::FaultCtx tctx = ctx;
            tctx.lane = third_lane;
            const RegValue third = exec_.hook().apply(pure, tctx);
            ++stats_.arbitrations;
            if (third == got) {
                verdict = ErrorVerdict::PrimaryBad;
                ++stats_.arbPrimaryBad;
            } else if (third == rec.results[slot]) {
                verdict = ErrorVerdict::CheckerBad;
                ++stats_.arbCheckerBad;
            } else {
                verdict = ErrorVerdict::Inconclusive;
                ++stats_.arbInconclusive;
            }
        }

        if (stats_.errorLog.size() < DmrStats::kMaxErrorLog) {
            ErrorEvent ev;
            ev.cycle = now;
            ev.sm = exec_.smId();
            ev.warpId = rec.warpId;
            ev.pc = rec.pc;
            ev.slot = slot;
            ev.primaryLane = mapping_.laneOf(slot);
            ev.checkerLane = checker_lane;
            ev.primary = rec.results[slot];
            ev.checker = got;
            ev.intraWarp = intra;
            ev.verdict = verdict;
            stats_.errorLog.push_back(ev);
        }
    }
    return mismatch;
}

} // namespace dmr
} // namespace warped
