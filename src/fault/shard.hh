/**
 * @file
 * fault::ShardAggregator and friends — the sharded campaign protocol.
 *
 * A campaign of N planned runs is split into contiguous run-index
 * shards (planShards). Any process that holds the same EngineConfig
 * derives the identical plan (CampaignEngine::prepare is a pure
 * function of the configuration, and the configuration signature
 * proves the derivation matched), runs its shard's range
 * (CampaignEngine::runRange) and serializes the resulting delta
 * report as a ShardDelta — a flat counter document with a header and
 * an integrity fingerprint.
 *
 * The orchestrator folds deltas into a ShardAggregator in ANY order:
 * every campaign statistic is an associative counter sum, so the
 * aggregate is a pure function of the *set* of folded shards —
 * independent of worker count, arrival order, duplicate deliveries
 * (idempotent fold) and failure schedule (a died worker's shard is
 * simply run again; the re-issued delta is bit-identical because the
 * site drawn for run i is a pure function of (seed, i)). When every
 * shard has been folded, report() reconstructs the CampaignReport
 * from the summed counters (restoreReportCounters), so the final JSON
 * is byte-identical to a single-process run.
 *
 * Keys that are configuration echo rather than accumulated state
 * (campaign.span, campaign.space.size, campaign.strata.*) are taken
 * from the orchestrator's own skeleton and skipped during summation.
 *
 * The aggregator's state file (save/resume) is the one campaign
 * checkpoint format: `warped_sim serve --state` and
 * CampaignEngine::run()'s `--checkpoint` both write it crash-atomically
 * (writeFileAtomic) and resume through the same bounded, fingerprinted
 * loader, so a killed orchestrator or campaign resumes with only the
 * not-yet-folded shards outstanding.
 *
 * dispatchShards is the orchestrator's loop: it hands pending shards
 * to a sim::Transport from a pool of dispatcher threads, folds each
 * delivered delta, writes the state file and re-issues failed shards.
 */

#ifndef WARPED_FAULT_SHARD_HH
#define WARPED_FAULT_SHARD_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/campaign_engine.hh"

namespace warped {
namespace sim {
class Transport;
}

namespace fault {

/** Crash-atomic write of every campaign file (state, delta, report,
 *  port file): `<path>.tmp`, then rename(2), so @p path is always the
 *  old or the new complete file. False when it cannot be written. */
bool writeFileAtomic(const std::string &path, const std::string &text);

/** One shard's contiguous run-index range. */
struct ShardPlan
{
    std::uint64_t index = 0;
    std::uint64_t base = 0;
    std::uint64_t count = 0;
};

/**
 * Split @p total_runs into @p shard_count contiguous ranges: the
 * first (total % count) shards get one extra run. Deterministic —
 * every process that calls this with the same arguments sees the
 * same ranges. Shards beyond total_runs come back with count 0 (they
 * still exist, so the aggregator's completion test stays a simple
 * per-index bitmap).
 */
std::vector<ShardPlan> planShards(std::uint64_t total_runs,
                                  std::uint64_t shard_count);

/** Serialized outcome of one shard: header + delta counters. */
struct ShardDelta
{
    std::uint64_t shard = 0;
    std::uint64_t base = 0;
    std::uint64_t count = 0;
    /** CampaignEngine::signature() of the producing worker; the
     *  aggregator refuses a delta from a different configuration. */
    std::uint64_t signature = 0;
    /** The delta report's counters (CampaignReport::toMetrics). */
    std::map<std::string, std::uint64_t> counters;

    /** Package @p delta, the runRange report of @p plan, for a
     *  campaign with configuration signature @p signature. */
    static ShardDelta of(const ShardPlan &plan, std::uint64_t signature,
                         const CampaignReport &delta);

    /** Flat JSON document: shard.* header keys (version, indices,
     *  signature, payload fingerprint) followed by the counters. */
    std::string toJson() const;

    /** Parse and validate a toJson document.
     *  @throws ShardError on torn input, a missing/mismatched
     *  fingerprint, or a bad version. */
    static ShardDelta fromJson(const std::string &text);
};

/** Run shard @p plan on @p engine and package its delta (the
 *  library-level worker; every `warped_sim shard` mode and `serve`'s
 *  empty-shard fold go through it). One engine serves any number of
 *  shards: its golden run is paid once, in prepare(). */
ShardDelta runShard(CampaignEngine &engine, const ShardPlan &plan);

class ShardAggregator
{
  public:
    /**
     * @param skeleton    the orchestrator's CampaignEngine::skeleton()
     * @param signature   the orchestrator's configuration signature
     * @param total_runs  planned campaign runs
     * @param shard_count shards the campaign was split into
     */
    ShardAggregator(CampaignReport skeleton, std::uint64_t signature,
                    std::uint64_t total_runs,
                    std::uint64_t shard_count);

    /**
     * Fold one delta. Duplicate deliveries of an already-folded
     * shard are ignored (returns false) — re-issue after a worker
     * death can legitimately double-deliver.
     * @throws ShardError on a signature mismatch, an out-of-range
     *         shard index, or a range that disagrees with the plan.
     */
    bool fold(const ShardDelta &d);

    bool has(std::uint64_t shard) const;
    std::uint64_t foldedShards() const { return folded_; }
    std::uint64_t totalShards() const { return shardCount_; }
    bool complete() const { return folded_ == shardCount_; }

    /** Shard indices not folded yet, ascending. */
    std::vector<std::uint64_t> pendingShards() const;

    /** Shard @p shard's run range in the plan (shard < totalShards). */
    const ShardPlan &plan(std::uint64_t shard) const
    {
        return plan_[static_cast<std::size_t>(shard)];
    }

    /** The campaign report reconstructed from the shards folded so
     *  far — the final report once complete(). */
    CampaignReport report() const;

    /** Aggregator state as a flat JSON document: header, folded-
     *  shard markers, payload fingerprint and the summed counters. */
    std::string stateJson() const;

    /**
     * Restore a stateJson document. A state written for a different
     * signature / shard layout is warned about and ignored (returns
     * false) — the stale-checkpoint semantics; a torn, oversized or
     * damaged document throws ShardError.
     */
    bool loadState(const std::string &text);

    /** loadState() on the file at @p path, read no further than the
     *  document bound; false when there is no such file. */
    bool resume(const std::string &path);

    /** writeFileAtomic(@p path, stateJson()); warns on stderr on
     *  failure (the campaign goes on; the last good file stays). */
    void save(const std::string &path) const;

  private:
    CampaignReport skel_;
    std::uint64_t signature_ = 0;
    std::uint64_t totalRuns_ = 0;
    std::uint64_t shardCount_ = 0;
    std::uint64_t folded_ = 0;
    std::vector<ShardPlan> plan_;
    std::vector<bool> have_;
    std::map<std::string, std::uint64_t> sum_;
};

/** The dispatcher's knobs (the `serve` flags of the same names). */
struct DispatchConfig
{
    unsigned workers = 1; ///< dispatcher threads
    unsigned strikes = 3; ///< failed attempts that give a shard up
    std::string statePath; ///< saved after every fold; empty = none
};

struct DispatchResult
{
    bool complete = false; ///< every shard folded, none given up
    std::uint64_t reissues = 0; ///< failed attempts re-issued
};

/**
 * Run @p agg's pending shards over @p transport. Shards with no runs
 * are folded locally (runShard on @p engine). The rest go through a
 * sim::ShardQueue served by cfg.workers threads: a Delivered delta is
 * parsed, folded and the state saved; a Failed or throwing attempt or a
 * bad delta is re-issued until the shard's cfg.strikes-th failure; that, or a
 * Reject (the worker derived another configuration), gives the
 * campaign up and the queue drains without issuing more work.
 * Diagnostics go to stderr.
 */
DispatchResult dispatchShards(CampaignEngine &engine,
                              ShardAggregator &agg,
                              sim::Transport &transport,
                              const DispatchConfig &cfg);

} // namespace fault
} // namespace warped

#endif // WARPED_FAULT_SHARD_HH
