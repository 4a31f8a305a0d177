/**
 * @file
 * sim::Transport — how a shard gets executed somewhere else.
 *
 * The campaign orchestrator (fault::dispatchShards, behind `warped_sim
 * serve`) dispatches shard indices over a ShardQueue; a Transport
 * turns one index into one delta document, by whatever mechanism:
 *
 *   - SubprocessTransport: fork/exec `warped_sim shard ...` and read
 *     the delta file back (the PR-9 path, now with a per-shard
 *     deadline so a *hung* child trips re-issue instead of stalling
 *     the orchestrator forever).
 *   - SocketTransport: workers connect over TCP
 *     (`warped_sim shard --connect HOST:PORT`), identify themselves
 *     with a Hello carrying their configuration signature, and are
 *     handed Assign frames; they stream Heartbeats while computing
 *     and a Delta frame when done (sim/wire.hh). Hung workers are
 *     detected by heartbeat silence, dead ones by disconnect; both
 *     just fail the shard back for re-issue. When no remote worker
 *     is available within a grace window the transport degrades to
 *     a fallback (normally the subprocess transport), so
 *     `serve --listen` with zero workers still completes.
 *
 * Deltas travel as opaque JSON text: the transport carries bytes,
 * fault::ShardDelta::fromJson validates them, and the aggregator's
 * idempotent fold absorbs duplicate deliveries. The final report is
 * therefore byte-identical at any worker count, transport mix, and
 * failure schedule — the invariant bench/transport_chaos drills
 * under an adversarial ChaosTransport schedule.
 *
 * All result statuses map onto the PR-9 dispatcher contract:
 * Delivered folds and acks; Failed re-issues (3-strike cap); Reject
 * is permanent (the exit-3 signature-mismatch path).
 */

#ifndef WARPED_SIM_TRANSPORT_HH
#define WARPED_SIM_TRANSPORT_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/chaos.hh"
#include "sim/stream.hh"
#include "sim/wire.hh"

namespace warped {
namespace sim {

/** "No shard" sentinel for the drill knobs. */
constexpr std::uint64_t kNoShard = ~std::uint64_t{0};

struct TransportResult
{
    enum class Status
    {
        /** A delta document arrived; deltaJson holds it. */
        Delivered,
        /** The worker died, hung, or delivered garbage — re-issue. */
        Failed,
        /** The worker permanently refused (signature mismatch, the
         *  exit-3 contract) — retrying cannot help. */
        Reject,
    };
    Status status = Status::Failed;
    std::string deltaJson;
    std::string diag;
};

class Transport
{
  public:
    virtual ~Transport() = default;

    /**
     * Execute shard @p shard (attempt @p attempt, 1-based) and
     * return its outcome. Blocks; thread-safe — the orchestrator
     * calls it from several dispatcher threads at once.
     */
    virtual TransportResult runShard(std::uint64_t shard,
                                     unsigned attempt) = 0;

    virtual std::string describe() const = 0;
};

// ---------------------------------------------------------------------
// Subprocess transport (local fork/exec workers)

struct SubprocessTransportConfig
{
    /** Worker command prefix: exe, "shard", workload, campaign
     *  flags. The transport appends --shard-index/--shard-count/
     *  --expect-signature/--delta-out (and drill flags). */
    std::vector<std::string> workerArgv;
    /** Delta files are written to `<prefix>.shard<I>.json`. */
    std::string deltaPrefix = "warped_serve";
    std::uint64_t shardCount = 0;
    std::uint64_t signature = 0;
    /** Per-shard wall-clock deadline; 0 = unbounded. A child that
     *  blows it is SIGKILLed and the shard fails back for re-issue
     *  (a wedged worker must not stall the orchestrator). */
    std::uint64_t deadlineMs = 0;
    /** Drill: SIGKILL this shard's worker on its first attempt. */
    std::uint64_t killShard = kNoShard;
    /** Drill: make this shard's first worker hang (the child gets
     *  --hang-for-shard and sleeps hangMs instead of computing). */
    std::uint64_t hangShard = kNoShard;
    std::uint64_t hangMs = 30000;
};

class SubprocessTransport : public Transport
{
  public:
    explicit SubprocessTransport(SubprocessTransportConfig cfg);

    TransportResult runShard(std::uint64_t shard,
                             unsigned attempt) override;
    std::string describe() const override;

  private:
    SubprocessTransportConfig cfg_;
};

// ---------------------------------------------------------------------
// Socket transport (remote workers over TCP)

struct SocketTransportConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0; ///< 0 = ephemeral; read back via port()
    std::uint64_t signature = 0;
    std::uint64_t shardCount = 0;
    /** Heartbeat interval advertised to workers in every Assign. */
    std::uint64_t heartbeatMs = 250;
    /** Heartbeat silence that declares a worker hung; 0 derives
     *  8 x heartbeatMs. */
    std::uint64_t heartbeatTimeoutMs = 0;
    /** Per-shard hard deadline; 0 = unbounded (heartbeats still
     *  catch hangs). */
    std::uint64_t deadlineMs = 0;
    /** How long runShard waits for an idle remote worker before
     *  degrading to the fallback transport. */
    std::uint64_t graceMs = 1500;
    /** Local-execution fallback (not owned); nullptr = wait for a
     *  remote worker indefinitely. */
    Transport *fallback = nullptr;
};

class SocketTransport : public Transport
{
  public:
    /** Binds and starts the accept thread. Panics if the listen
     *  address cannot be bound. */
    explicit SocketTransport(SocketTransportConfig cfg);
    ~SocketTransport() override;

    TransportResult runShard(std::uint64_t shard,
                             unsigned attempt) override;
    std::string describe() const override;

    /** The bound port (resolves an ephemeral bind). */
    std::uint16_t port() const { return listener_.port(); }

    /** Stop accepting, Bye every idle worker, join the accept
     *  thread. Idempotent; the destructor calls it. */
    void stop();

    std::uint64_t remoteDeliveries() const;
    std::uint64_t fallbackRuns() const;
    std::uint64_t workersJoined() const;
    std::uint64_t workersRejected() const;

  private:
    struct Conn
    {
        std::unique_ptr<Stream> stream;
        wire::FrameReader reader;
        std::uint64_t id = 0;
    };

    void acceptLoop();
    std::shared_ptr<Conn> takeIdle(std::uint64_t wait_ms);
    void parkIdle(std::shared_ptr<Conn> c);
    TransportResult runOn(Conn &conn, std::uint64_t shard,
                          bool &assignLost);

    SocketTransportConfig cfg_;
    TcpListener listener_;
    std::thread acceptor_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::shared_ptr<Conn>> idle_;
    bool stopping_ = false;
    std::uint64_t nextConnId_ = 1;
    std::uint64_t remoteDelivered_ = 0;
    std::uint64_t fallbackRuns_ = 0;
    std::uint64_t workersJoined_ = 0;
    std::uint64_t workersRejected_ = 0;
};

// ---------------------------------------------------------------------
// Socket worker (the `warped_sim shard --connect` side)

/** Computes one shard's delta document. @p shard is the index from
 *  the Assign frame, @p shard_count the plan width it must use. */
using ShardComputeFn =
    std::function<std::string(std::uint64_t shard,
                              std::uint64_t shard_count)>;

struct SocketWorkerConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** This worker's configuration signature, sent in the Hello. */
    std::uint64_t signature = 0;
    /** Consecutive failed connects (or dropped sessions) tolerated
     *  before giving up. */
    unsigned connectAttempts = 8;
    std::uint64_t connectTimeoutMs = 2000;
    /** Reconnect backoff: base * 2^(attempt-1), capped, plus
     *  deterministic jitter (stream.hh backoffDelayMs). */
    std::uint64_t backoffBaseMs = 50;
    std::uint64_t backoffCapMs = 2000;
    /** Jitter seed; derive it from something worker-unique. */
    std::uint64_t seed = 0;
    /** Chaos decorator applied to every connection (drills). */
    ChaosConfig chaos;
    /** Drill: on the first assignment of this shard, go silent (no
     *  heartbeats, no delta) for hangMs — a wedged worker. */
    std::uint64_t hangShard = kNoShard;
    std::uint64_t hangMs = 10000;
};

/**
 * Worker main loop: connect (with backoff), Hello, serve Assign
 * frames — heartbeating while @p compute runs — until a Bye or the
 * orchestrator goes away. Returns the process exit code: 0 done,
 * 3 permanently rejected (signature mismatch — the same exit-3
 * contract as the file-based worker), 1 never reached an
 * orchestrator.
 */
int runSocketWorker(const SocketWorkerConfig &cfg,
                    const ShardComputeFn &compute);

} // namespace sim
} // namespace warped

#endif // WARPED_SIM_TRANSPORT_HH
