/**
 * @file
 * Shared pieces of the campaign benchmark: the workload table, the
 * engine configuration each workload resolves to, the report-digest
 * gate, and the result record main.cc prints as the final JSON line.
 */

#ifndef CAMPAIGN_BENCH_BENCH_HH
#define CAMPAIGN_BENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/campaign_engine.hh"

namespace cbench {

/** One benchmark workload: one configuration of the campaign engine
 *  over a fixed-size, seeded site sample. */
struct Workload
{
    const char *name;
    const char *app;     ///< workloads::makeByNameSized name
    unsigned size;       ///< workloads::makeByNameSized size
    bool recovery;       ///< rollback-replay on
    bool memDomain;      ///< memory-cell sites, banked DRAM + SECDED
};

/** Sites every run samples (the campaign's EngineConfig::sites). */
inline constexpr std::uint64_t kSites = 25;

/** The workload named @p name, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** Fresh workload instances for the engine and the replay. */
warped::fault::WorkloadFactory factoryFor(const Workload &w);

/** The engine configuration @p w resolves to at @p seed: one worker,
 *  GpuConfig::testDefault() with 4 SMs, the default Warped-DMR
 *  scheme. */
warped::fault::EngineConfig engineConfig(const Workload &w,
                                         std::uint64_t seed);

/** 64-bit FNV-1a of a report document. */
std::uint64_t fnv1a(const std::string &text);

/** The recorded digest of run()'s report JSON for (@p w, @p seed),
 *  when one was recorded. */
std::optional<std::uint64_t> referenceDigest(const Workload &w,
                                             std::uint64_t seed);

/** Host seconds since an arbitrary steady epoch. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double median(std::vector<double> v);

/** Nearest-rank percentile, @p p in (0, 100]. */
double percentile(std::vector<double> v, double p);

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What one benchmark run prints as its last line. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
};

/**
 * The traced run: prepare, run(), every site again as its own
 * runRange(i, 1) shard, a replay of every site through the public
 * Gpu/Workload calls, the shard-delta round trip and fold, and the
 * structure micro-timings. Spans go to @p trace_path; the per-layer
 * metrics and the differential checks go into the result.
 */
Result runTraced(const Workload &w, std::uint64_t seed,
                 const std::string &trace_path);

} // namespace cbench

#endif // CAMPAIGN_BENCH_BENCH_HH
