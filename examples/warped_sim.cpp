/**
 * @file
 * warped_sim: the command-line driver — run any Table-4 workload (or
 * all of them) under a chosen protection configuration and print the
 * full statistics block. The "downstream user" front end.
 *
 *   $ ./warped_sim --help
 *   $ ./warped_sim MatrixMul --qsize 5 --mapping linear
 *   $ ./warped_sim all --dmr off
 *   $ ./warped_sim SHA --sampling 1000:250 --arbitrate --disasm
 */

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include <fstream>

#include "common/logging.hh"
#include "fault/campaign_engine.hh"
#include "fault/shard.hh"
#include "stats/accumulator.hh"
#include "sim/chaos.hh"
#include "sim/stream.hh"
#include "sim/subprocess.hh"
#include "sim/transport.hh"
#include "gpu/report.hh"
#include "protection/scheme_registry.hh"
#include "trace/binary.hh"
#include "trace/export.hh"
#include "trace/metrics.hh"
#include "isa/assembler.hh"
#include "power/power_model.hh"
#include "workloads/workload.hh"

using namespace warped;

namespace {

/**
 * Output path for one workload's export: with a single workload the
 * given path is used verbatim; under "all" the workload name is
 * spliced in before the extension so runs don't clobber each other.
 */
std::string
exportPath(const std::string &base, const std::string &name, bool multi)
{
    if (!multi)
        return base;
    const auto dot = base.rfind('.');
    const auto slash = base.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return base + "." + name;
    return base.substr(0, dot) + "." + name + base.substr(dot);
}

void
campaignUsage()
{
    std::printf(
        "usage: warped_sim campaign <workload> [options]\n"
        "\n"
        "Statistical fault-injection campaign: sample fault sites\n"
        "(SM x lane x bit x window x kind), classify each injected\n"
        "run as Masked/Detected/SDC/DUE against the golden run, and\n"
        "report coverage with Wilson 95%% confidence intervals\n"
        "(see docs/FAULT_MODEL.md).\n"
        "\n"
        "options:\n"
        "  --size N            workload size parameter (factory-\n"
        "                      specific; default = paper scale)\n"
        "  --sites N           fault sites to sample (default:\n"
        "                      derived from --moe)\n"
        "  --moe F             target 95%% margin of error when\n"
        "                      --sites is absent (default 0.01)\n"
        "  --kinds K[,K...]    transient,stuck0,stuck1 (default all)\n"
        "  --unit any|sp|sfu|ldst   unit axis of the site space\n"
        "  --windows N         transient pulse windows (default:\n"
        "                      one per cycle, capped at 4096)\n"
        "  --fault-domain exec|mem|both\n"
        "                      site-space domain: execution-lane\n"
        "                      sites (default), memory-cell sites\n"
        "                      (bank x row x column x bit x window\n"
        "                      over the workload footprint, classified\n"
        "                      as Masked/EccCorrected/Detected/SDC/\n"
        "                      DUE), or both\n"
        "  --mem-model flat|banked\n"
        "                      global-memory organization (default\n"
        "                      flat; banked adds per-bank open-row\n"
        "                      DRAM timing)\n"
        "  --ecc none|secded|chipkill\n"
        "                      memory ECC codec deciding what a cell\n"
        "                      upset decodes to on read (default none)\n"
        "  --sms N             SMs (default 4)\n"
        "  --seed N            campaign master seed (default 42)\n"
        "  --jobs N            worker threads (0 = hardware\n"
        "                      concurrency; output identical for\n"
        "                      every N; default 0)\n"
        "  --checkpoint F      periodic JSON state file; an existing\n"
        "                      matching file resumes the campaign\n"
        "  --checkpoint-every N  runs per checkpoint chunk "
        "(default 1000;\n"
        "                      N >= 1 — 0 is rejected)\n"
        "  --strata T          stratified sampling: T transient\n"
        "                      window buckets per unit (strata =\n"
        "                      unit x bucket; default off = uniform\n"
        "                      i.i.d. sampling). Reports add a\n"
        "                      weighted stratified coverage estimate\n"
        "                      with per-stratum Wilson CIs\n"
        "  --out F             write the campaign report JSON to F\n"
        "  --sched lrr|gto     warp scheduling policy (default lrr)\n"
        "  --schedulers N      schedulers per SM (default 1)\n"
        "  --dmr on|off | --no-intra | --no-inter | --no-shuffle |\n"
        "  --mapping linear|cross | --qsize N\n"
        "                      protection configuration under test\n"
        "  --scheme NAME       protection backend under test:\n"
        "                      original, r-naive, r-thread, dmtr,\n"
        "                      warped-dmr (default), partial-thread,\n"
        "                      replay-compare\n"
        "  --protect-frac F    protected warp-slot fraction for\n"
        "                      --scheme partial-thread (default 1.0)\n"
        "  --scheme-sweep      run the campaign once per backend over\n"
        "                      the same site axes and emit one merged\n"
        "                      JSON (sweep.<scheme>.* keys) plus a\n"
        "                      coverage/overhead Pareto table\n"
        "  --recovery          enable rollback-replay recovery:\n"
        "                      detected mismatches are repaired in\n"
        "                      place and classify as Recovered\n"
        "  --recovery-budget N rollbacks allowed per incident window\n"
        "                      before the warp gives up (default 3;\n"
        "                      implies --recovery)\n"
        "  --recovery-ring N   checkpoint deltas retained per SM\n"
        "                      (default 4096; implies --recovery)\n"
        "  --recovery-penalty N  stall cycles after a rollback\n"
        "                      (default 8; implies --recovery)\n"
        "\n"
        "Sharded service (see docs/CAMPAIGN_SERVICE.md):\n"
        "  warped_sim serve <workload> [campaign options] --shards N\n"
        "  warped_sim shard <workload> [campaign options]\n"
        "             --shard-index I --shard-count N --delta-out F\n");
}

void
serveUsage()
{
    std::printf(
        "usage: warped_sim serve <workload> [campaign options] "
        "--shards N [options]\n"
        "       warped_sim shard <workload> [campaign options] "
        "--shard-index I\n"
        "                  --shard-count N --delta-out F "
        "[--expect-signature S]\n"
        "       warped_sim shard <workload> [campaign options] "
        "--connect HOST:PORT\n"
        "\n"
        "Sharded campaign service: `serve` splits the campaign into\n"
        "N deterministic run-index shards, dispatches them to worker\n"
        "processes (`warped_sim shard`), folds each worker's counter\n"
        "delta into a mergeable aggregate, and re-issues any shard\n"
        "whose worker dies, hangs, or delivers a corrupt delta. The\n"
        "final report is byte-identical to a single-process\n"
        "`warped_sim campaign` run with the same options, for every\n"
        "shard count, worker count, transport mix, and failure\n"
        "schedule (docs/CAMPAIGN_SERVICE.md).\n"
        "\n"
        "Workers reach the orchestrator two ways: spawned locally as\n"
        "subprocesses (the default), or connecting over TCP when\n"
        "serve is given --listen and workers are started with\n"
        "--connect. Socket frames are length-prefixed and\n"
        "CRC-checked; hung remote workers are detected by heartbeat\n"
        "silence.\n"
        "\n"
        "All `warped_sim campaign` options except --checkpoint,\n"
        "--checkpoint-every and --scheme-sweep apply; notably\n"
        "--strata T enables stratified sampling.\n"
        "\n"
        "serve options:\n"
        "  --shards N          shard count (required, >= 1)\n"
        "  --workers K         concurrent dispatcher slots "
        "(default 1)\n"
        "  --state F           crash-safe aggregator state file; an\n"
        "                      existing matching file resumes with\n"
        "                      only the unfolded shards outstanding\n"
        "  --out F             write the final report JSON to F\n"
        "  --listen HOST:PORT  also accept socket workers (port 0 =\n"
        "                      ephemeral; see --port-file)\n"
        "  --port-file F       write the bound listen port to F\n"
        "  --heartbeat MS      heartbeat interval advertised to\n"
        "                      socket workers (default 250; a worker\n"
        "                      silent for 8x MS is declared hung)\n"
        "  --shard-deadline MS hard per-shard wall-clock deadline on\n"
        "                      any transport (default: none; hung\n"
        "                      subprocess workers need this)\n"
        "  --grace MS          how long to wait for an idle socket\n"
        "                      worker before degrading a shard to a\n"
        "                      local subprocess (default 1500)\n"
        "  --no-local-fallback never degrade to local subprocesses;\n"
        "                      wait for socket workers indefinitely\n"
        "  --strikes N         consecutive failures of one shard\n"
        "                      before the campaign aborts (default\n"
        "                      3; raise it for deliberately hostile\n"
        "                      networks, e.g. chaos drills)\n"
        "  --kill-worker-for-shard I\n"
        "                      fault drill: SIGKILL shard I's local\n"
        "                      worker on its first attempt,\n"
        "                      exercising the re-issue path\n"
        "  --hang-worker-for-shard I\n"
        "                      fault drill: shard I's first worker\n"
        "                      hangs (sleeps --hang-ms) instead of\n"
        "                      computing, exercising the deadline /\n"
        "                      heartbeat re-issue path\n"
        "  --hang-ms MS        hang-drill duration (default 30000)\n"
        "\n"
        "shard options (normally supplied by serve):\n"
        "  --shard-index I     which shard of the plan to run\n"
        "  --shard-count N     total shards in the plan\n"
        "  --delta-out F       where to write the delta JSON "
        "(atomic)\n"
        "  --expect-signature S  refuse to run (exit 3) unless this\n"
        "                      worker derives configuration "
        "signature S\n"
        "  --connect HOST:PORT serve shards over a socket instead of\n"
        "                      running one from flags; deltas stream\n"
        "                      back as CRC-checked frames and the\n"
        "                      orchestrator validates the signature\n"
        "                      at the Hello handshake (mismatch =>\n"
        "                      exit 3)\n"
        "  --connect-attempts N  consecutive failed connects before\n"
        "                      giving up (default 8; backoff doubles\n"
        "                      from 50ms, capped at 2s)\n"
        "  --chaos SPEC        wrap the connection in a seeded fault\n"
        "                      injector, e.g.\n"
        "                      seed=7,drop=0.1,dup=0.1,corrupt=0.05,\n"
        "                      trunc=0.05,disc=0.02,delay=5,"
        "delayp=0.2\n"
        "  --hang-for-shard I  drill: go silent on shard I once\n"
        "                      (socket), or sleep before computing\n"
        "                      (file mode)\n"
        "  --hang-ms MS        how long the drill hangs "
        "(default 10000)\n");
}

void usage();

/** Print the campaign-family or run-mode usage text and exit 2: the
 *  contract of every malformed option. */
[[noreturn]] void
usageExit(bool campaign)
{
    if (campaign)
        campaignUsage();
    else
        usage();
    std::exit(2);
}

/**
 * Strict numeric flag parsing. Every numeric option goes through
 * these: the whole argument must be digits (no sign, no trailing
 * junk) and in range for the destination, or the relevant usage text
 * is printed and the process exits 2. The previous prefix-accepting
 * strtoul calls silently turned `--sites banana` into a zero-site
 * campaign.
 */
[[noreturn]] void
badNumericArg(const char *flag, const char *text, bool campaign)
{
    std::fprintf(stderr, "warped_sim: bad numeric value '%s' for %s\n",
                 text ? text : "", flag);
    usageExit(campaign);
}

std::uint64_t
parseU64Arg(const char *flag, const char *text, bool campaign,
            std::uint64_t max = ~std::uint64_t{0})
{
    if (!text || !std::isdigit(static_cast<unsigned char>(text[0])))
        badNumericArg(flag, text, campaign);
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0' || v > max)
        badNumericArg(flag, text, campaign);
    return v;
}

unsigned
parseU32Arg(const char *flag, const char *text, bool campaign)
{
    return static_cast<unsigned>(
        parseU64Arg(flag, text, campaign, 0xFFFFFFFFull));
}

double
parseF64Arg(const char *flag, const char *text, bool campaign)
{
    if (!text || !*text)
        badNumericArg(flag, text, campaign);
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (errno != 0 || end == text || *end != '\0' ||
        !std::isfinite(v))
        badNumericArg(flag, text, campaign);
    return v;
}

/**
 * Strict HOST:PORT parsing for --listen / --connect. The host may be
 * empty in --listen position ("":PORT binds every interface via
 * 0.0.0.0); the port must be a plain decimal in [0, 65535]. Anything
 * else exits 2 with the serve usage, like every other malformed
 * option.
 */
void
parseHostPortArg(const char *flag, const char *text, std::string &host,
                 std::uint16_t &port, bool allowEmptyHost)
{
    const char *colon = text ? std::strrchr(text, ':') : nullptr;
    if (!colon) {
        std::fprintf(stderr,
                     "warped_sim: %s expects HOST:PORT, got '%s'\n",
                     flag, text ? text : "");
        serveUsage();
        std::exit(2);
    }
    host.assign(text, colon);
    if (host.empty()) {
        if (!allowEmptyHost) {
            std::fprintf(stderr,
                         "warped_sim: %s needs a host before the "
                         "colon\n",
                         flag);
            serveUsage();
            std::exit(2);
        }
        host = "0.0.0.0";
    }
    port = static_cast<std::uint16_t>(
        parseU64Arg(flag, colon + 1, true, 65535));
}

/**
 * Strict keyword resolution: @p text must be exactly one of @p names
 * (no prefix or case forgiveness); anything else, a missing value
 * included, prints the valid set and the usage text and exits 2.
 * Returns the index of the matching name.
 */
std::size_t
parseKeywordArg(const char *flag, const char *text,
                std::initializer_list<const char *> names,
                bool campaign)
{
    std::size_t i = 0;
    for (const char *name : names) {
        if (text && std::strcmp(text, name) == 0)
            return i;
        ++i;
    }
    std::fprintf(stderr,
                 "warped_sim: bad value '%s' for %s (expected one of:",
                 text ? text : "", flag);
    for (const char *name : names)
        std::fprintf(stderr, " %s", name);
    std::fprintf(stderr, ")\n");
    usageExit(campaign);
}

/** Strict scheme-name resolution against the protection registry's
 *  canonical CLI slugs (same contract as parseKeywordArg). */
protection::SchemeId
parseSchemeArg(const char *text, bool campaign)
{
    if (text) {
        if (const auto id = protection::schemeFromName(text))
            return *id;
    }
    std::fprintf(stderr,
                 "warped_sim: unknown scheme '%s' (expected one of:",
                 text ? text : "");
    for (const auto id : protection::allSchemes())
        std::fprintf(stderr, " %s", protection::schemeCliName(id));
    std::fprintf(stderr, ")\n");
    usageExit(campaign);
}

/**
 * The machine and protection knobs run mode and the campaign family
 * share. parseMachineArg is the one parse of their flags; each mode
 * starts from its own defaults and applies the result to its own
 * base machine.
 */
struct MachineFlags
{
    dmr::DmrConfig dmr = dmr::DmrConfig::paperDefault();
    protection::SchemeConfig scheme;
    unsigned sms = 30;
    unsigned schedulers = 1;
    arch::SchedPolicy sched = arch::SchedPolicy::LooseRoundRobin;
    arch::MemModel memModel = arch::MemModel::Flat;
    arch::EccKind ecc = arch::EccKind::None;
};

/**
 * Parse the shared machine flag at argv[i], advancing i past its
 * value. Returns false when argv[i] is not one of them (the caller
 * owns its mode-specific flags). Malformed or missing values exit 2
 * with the caller's usage text.
 */
bool
parseMachineArg(int argc, char **argv, int &i, MachineFlags &m,
                bool campaign)
{
    const std::string a = argv[i];
    auto next = [&]() -> const char * {
        return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--dmr") {
        if (parseKeywordArg("--dmr", next(), {"on", "off"}, campaign))
            m.dmr = dmr::DmrConfig::off();
    } else if (a == "--no-intra") {
        m.dmr.intraWarp = false;
    } else if (a == "--no-inter") {
        m.dmr.interWarp = false;
    } else if (a == "--no-shuffle") {
        m.dmr.laneShuffle = false;
    } else if (a == "--mapping") {
        m.dmr.mapping = parseKeywordArg("--mapping", next(),
                                        {"cross", "linear"}, campaign)
                            ? dmr::MappingPolicy::Linear
                            : dmr::MappingPolicy::CrossCluster;
    } else if (a == "--qsize") {
        m.dmr.replayQSize = parseU32Arg("--qsize", next(), campaign);
    } else if (a == "--sms") {
        m.sms = parseU32Arg("--sms", next(), campaign);
    } else if (a == "--sched") {
        m.sched = parseKeywordArg("--sched", next(), {"lrr", "gto"},
                                  campaign)
                      ? arch::SchedPolicy::GreedyThenOldest
                      : arch::SchedPolicy::LooseRoundRobin;
    } else if (a == "--schedulers") {
        m.schedulers = parseU32Arg("--schedulers", next(), campaign);
    } else if (a == "--scheme") {
        m.scheme.id = parseSchemeArg(next(), campaign);
    } else if (a == "--protect-frac") {
        const char *v = next();
        const double f = parseF64Arg("--protect-frac", v, campaign);
        if (f < 0.0 || f > 1.0)
            badNumericArg("--protect-frac (expects [0,1])", v,
                          campaign);
        m.scheme.protectFraction = f;
    } else if (a == "--mem-model") {
        static constexpr arch::MemModel kModels[] = {
            arch::MemModel::Flat, arch::MemModel::Banked};
        m.memModel = kModels[parseKeywordArg(
            "--mem-model", next(), {"flat", "banked"}, campaign)];
    } else if (a == "--ecc") {
        static constexpr arch::EccKind kCodecs[] = {
            arch::EccKind::None, arch::EccKind::Secded,
            arch::EccKind::Chipkill};
        m.ecc = kCodecs[parseKeywordArg(
            "--ecc", next(), {"none", "secded", "chipkill"}, campaign)];
    } else {
        return false;
    }
    return true;
}

/** Run-mode options. */
struct Options
{
    std::string workload = "all";
    MachineFlags machine;
    unsigned cluster = 4;
    bool bankConflicts = false;
    bool coalescing = false;
    bool contention = false;
    unsigned warpSize = 32;
    std::string kernelFile;
    unsigned kblocks = 4, kthreads = 128;
    bool disasm = false;
    bool verbose = false;
    bool report = false;
    bool json = false;
    unsigned trace = 0;
    std::string traceOut;
    std::string metricsOut;
};

enum class Domain
{
    Exec,
    Mem,
    Both
};

/**
 * Everything the campaign-family subcommands (campaign / serve /
 * shard) share: the engine configuration under assembly, the machine
 * knobs that finalize into it, and the raw flag list to replay on a
 * worker command line (orchestrator-only flags are withheld).
 */
struct CampaignCli
{
    std::string workload;
    fault::EngineConfig ec;
    /** Campaign defaults: 4 SMs. */
    MachineFlags machine = [] {
        MachineFlags m;
        m.sms = 4;
        return m;
    }();
    unsigned size = 0;
    bool sweep = false;
    Domain domain = Domain::Exec;
    std::string outPath;
    /** Campaign-level flags, verbatim, for worker command lines. */
    std::vector<std::string> passThrough;
};

/**
 * Parse the campaign-level option at argv[i], advancing i past its
 * value(s). Returns false when the option is not a campaign-level
 * one (the caller owns its mode-specific flags). Malformed values
 * exit 2 through the strict parsers above.
 */
bool
parseCampaignArg(int argc, char **argv, int &i, CampaignCli &c)
{
    const std::string a = argv[i];
    const int start = i;
    auto next = [&]() -> const char * {
        return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Orchestrator-only flags must not replicate onto workers: a
    // worker writing the orchestrator's checkpoint/out files would
    // race it.
    bool forward = true;
    const char *v = nullptr;
    fault::EngineConfig &ec = c.ec;
    if (a == "--size") {
        c.size = parseU32Arg("--size", next(), true);
    } else if (a == "--sites") {
        ec.sites = parseU64Arg("--sites", next(), true);
    } else if (a == "--moe") {
        ec.marginOfError = parseF64Arg("--moe", next(), true);
    } else if (a == "--kinds") {
        static constexpr fault::FaultKind kKinds[] = {
            fault::FaultKind::TransientBitFlip,
            fault::FaultKind::StuckAtZero, fault::FaultKind::StuckAtOne};
        if (!(v = next()))
            usageExit(true);
        ec.space.kinds.clear();
        for (const char *p = v; *p;) {
            const char *comma = std::strchr(p, ',');
            const std::string k =
                comma ? std::string(p, comma) : std::string(p);
            ec.space.kinds.push_back(kKinds[parseKeywordArg(
                "--kinds", k.c_str(), {"transient", "stuck0", "stuck1"},
                true)]);
            if (!comma)
                break;
            p = comma + 1;
        }
        if (ec.space.kinds.empty())
            usageExit(true);
    } else if (a == "--unit") {
        static const std::optional<isa::UnitType> kUnits[] = {
            std::nullopt, isa::UnitType::SP, isa::UnitType::SFU,
            isa::UnitType::LDST};
        ec.space.units = {kUnits[parseKeywordArg(
            "--unit", next(), {"any", "sp", "sfu", "ldst"}, true)]};
    } else if (a == "--windows") {
        ec.space.cycleWindows = parseU32Arg("--windows", next(), true);
    } else if (a == "--strata") {
        v = next();
        const auto n = parseU32Arg("--strata", v, true);
        if (n == 0)
            badNumericArg("--strata (expects >= 1)", v, true);
        ec.strataWindows = n;
    } else if (a == "--seed") {
        ec.seed = parseU64Arg("--seed", next(), true);
    } else if (a == "--jobs") {
        ec.jobs = parseU32Arg("--jobs", next(), true);
    } else if (a == "--checkpoint") {
        forward = false;
        if (!(v = next()))
            usageExit(true);
        ec.checkpointPath = v;
    } else if (a == "--checkpoint-every") {
        forward = false;
        v = next();
        const auto n = parseU64Arg("--checkpoint-every", v, true);
        // Zero would disable periodic checkpointing while claiming
        // to configure it — reject outright (the engine would clamp,
        // but a nonsensical CLI value is a user error).
        if (n == 0)
            badNumericArg("--checkpoint-every (expects >= 1)", v,
                          true);
        ec.checkpointEvery = n;
    } else if (a == "--out") {
        forward = false;
        if (!(v = next()))
            usageExit(true);
        c.outPath = v;
    } else if (a == "--recovery") {
        ec.recovery.enabled = true;
    } else if (a == "--recovery-budget") {
        ec.recovery.enabled = true;
        ec.recovery.retryBudget =
            parseU32Arg("--recovery-budget", next(), true);
    } else if (a == "--recovery-ring") {
        ec.recovery.enabled = true;
        ec.recovery.ringCapacity =
            parseU32Arg("--recovery-ring", next(), true);
    } else if (a == "--recovery-penalty") {
        ec.recovery.enabled = true;
        ec.recovery.rollbackPenalty =
            parseU32Arg("--recovery-penalty", next(), true);
    } else if (a == "--scheme-sweep") {
        forward = false;
        c.sweep = true;
    } else if (a == "--fault-domain") {
        static constexpr Domain kDomains[] = {Domain::Exec, Domain::Mem,
                                              Domain::Both};
        c.domain = kDomains[parseKeywordArg(
            "--fault-domain", next(), {"exec", "mem", "both"}, true)];
    } else if (!parseMachineArg(argc, argv, i, c.machine, true)) {
        return false;
    }
    if (forward)
        for (int j = start; j <= i; ++j)
            c.passThrough.push_back(argv[j]);
    return true;
}

/** A machine GpuConfig::validate() refuses is a usage error: its
 *  message (already on stderr) plus the usage text, exit 2. The
 *  bounds live in validate() alone. */
void
validateMachine(const arch::GpuConfig &cfg, bool campaign)
{
    try {
        cfg.validate();
    } catch (const std::runtime_error &) {
        usageExit(campaign);
    }
}

/** Resolve the machine knobs into the engine configuration. */
void
finalizeCampaignConfig(CampaignCli &c)
{
    const MachineFlags &m = c.machine;
    c.ec.workload = c.workload;
    c.ec.dmr = m.dmr;
    c.ec.scheme = m.scheme;
    c.ec.gpu = arch::GpuConfig::testDefault();
    c.ec.gpu.numSms = m.sms;
    c.ec.gpu.schedPolicy = m.sched;
    c.ec.gpu.numSchedulers = m.schedulers;
    c.ec.gpu.memModel = m.memModel;
    c.ec.gpu.eccKind = m.ecc;
    c.ec.space.execEnabled = c.domain != Domain::Mem;
    c.ec.space.memEnabled = c.domain != Domain::Exec;
    validateMachine(c.ec.gpu, true);
}

void
printCampaignHeader(const CampaignCli &c, const char *verb)
{
    std::printf("%s: %s (size %s), seed %llu, machine: %s\n", verb,
                c.workload.c_str(),
                c.size ? std::to_string(c.size).c_str() : "default",
                static_cast<unsigned long long>(c.ec.seed),
                c.ec.gpu.toString().c_str());
    if (c.ec.recovery.enabled)
        std::printf("  %s\n", c.ec.recovery.toString().c_str());
    if (!c.sweep && c.ec.scheme.id != protection::SchemeId::WarpedDmr)
        std::printf("  scheme: %s\n",
                    protection::schemeDisplayName(c.ec.scheme.id));
    if (c.ec.strataWindows)
        std::printf("  stratified sampling: %u window buckets per "
                    "unit\n",
                    c.ec.strataWindows);
    if (c.domain != Domain::Exec) {
        std::printf("  fault domain: %s\n",
                    c.domain == Domain::Mem ? "mem" : "both");
        if (!protection::schemeCoversMemory(c.ec.scheme.id))
            std::printf("  note: scheme %s cannot observe "
                        "memory-data faults; ECC (%s) is the only "
                        "memory-side protection\n",
                        protection::schemeDisplayName(c.ec.scheme.id),
                        arch::eccKindName(c.ec.gpu.eccKind));
    }
}

/**
 * `campaign <workload> --scheme-sweep`: one self-contained campaign
 * per protection backend over the SAME site axes (kinds, units,
 * windows, seed, sample count), merged into a single metrics JSON
 * under `sweep.<scheme>.*` keys plus a printed Pareto table.
 *
 * Each backend's golden run executes UNDER that backend, so its span
 * already contains the scheme's stall/replay cycles: the overhead
 * column is span / Original-span - 1, the Fig-10 x-axis, while the
 * coverage column (with its Wilson CI) is the y-axis. Original runs
 * first to anchor the baseline.
 */
int
schemeSweep(const std::string &workload, unsigned size,
            const fault::EngineConfig &base, const std::string &outPath)
{
    struct Row
    {
        protection::SchemeId id;
        std::uint64_t span = 0, sampled = 0, detected = 0;
        std::uint64_t sdc = 0, due = 0, masked = 0;
        double cov = 0, lo = 0, hi = 0, overhead = 0;
    };
    std::vector<Row> rows;
    trace::MetricsRegistry merged;
    std::uint64_t baseSpan = 0;

    for (const auto id : protection::allSchemes()) {
        fault::EngineConfig ec = base;
        ec.scheme.id = id;
        if (id != protection::SchemeId::PartialThread)
            ec.scheme.protectFraction = 1.0;
        // Per-scheme campaigns are self-contained; a shared
        // checkpoint file would clobber across backends.
        ec.checkpointPath.clear();
        if (ec.recovery.enabled &&
            !protection::schemeSupportsRecovery(id)) {
            std::printf("  (recovery disabled for %s: no "
                        "per-instruction detection)\n",
                        protection::schemeDisplayName(id));
            ec.recovery = {};
        }
        std::printf("sweep: %s ...\n",
                    protection::schemeDisplayName(id));
        std::fflush(stdout);

        fault::CampaignEngine engine(
            [&] {
                return workloads::makeByNameSized(workload, size);
            },
            ec);
        const auto rep = engine.run();
        if (id == protection::SchemeId::Original)
            baseSpan = rep.span; // enum order runs Original first

        Row r;
        r.id = id;
        r.span = rep.span;
        r.sampled = rep.sampled;
        r.detected = rep.overall.detected + rep.overall.recovered;
        r.sdc = rep.overall.sdc;
        r.due = rep.overall.due;
        r.masked = rep.overall.masked;
        r.cov = rep.overall.coverage();
        const auto ci = rep.overall.coverageCi();
        r.lo = ci.lo;
        r.hi = ci.hi;
        r.overhead = baseSpan ? double(r.span) / double(baseSpan) - 1.0
                              : 0.0;
        rows.push_back(r);

        const std::string k =
            std::string("sweep.") + protection::schemeCliName(id);
        merged.counter(k + ".span") = r.span;
        merged.counter(k + ".sampled") = r.sampled;
        merged.counter(k + ".detected") = r.detected;
        merged.counter(k + ".sdc") = r.sdc;
        merged.counter(k + ".due") = r.due;
        merged.counter(k + ".masked") = r.masked;
        merged.gauge(k + ".coverage") = r.cov;
        merged.gauge(k + ".coverage.wilson_lo") = r.lo;
        merged.gauge(k + ".coverage.wilson_hi") = r.hi;
        merged.gauge(k + ".overhead") = r.overhead;
    }

    std::printf("\n%-16s %9s  %-18s %9s  %9s %9s %7s %7s\n",
                "scheme", "coverage", "Wilson 95% CI", "overhead",
                "span", "sampled", "SDC", "DUE");
    for (const auto &r : rows)
        std::printf("%-16s %8.2f%%  [%6.2f, %6.2f]   %+8.2f%%  "
                    "%9llu %9llu %7llu %7llu\n",
                    protection::schemeDisplayName(r.id), 100 * r.cov,
                    100 * r.lo, 100 * r.hi, 100 * r.overhead,
                    static_cast<unsigned long long>(r.span),
                    static_cast<unsigned long long>(r.sampled),
                    static_cast<unsigned long long>(r.sdc),
                    static_cast<unsigned long long>(r.due));

    if (!outPath.empty()) {
        std::ofstream f(outPath);
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", outPath.c_str());
            return 1;
        }
        f << merged.toJson();
        std::printf("\nsweep JSON written to %s\n", outPath.c_str());
    }
    return 0;
}

/** The human-readable statistics block shared by `campaign` and
 *  `serve` — everything derives from the mergeable counters in the
 *  report, so a folded shard aggregate prints byte-identically to a
 *  single-process run. */
void
printCampaignReport(const fault::CampaignReport &rep)
{
    const auto &o = rep.overall;
    std::printf("\nsite space: %llu sites, sampled %llu "
                "(golden span %llu cycles)\n",
                static_cast<unsigned long long>(rep.spaceSize),
                static_cast<unsigned long long>(rep.sampled),
                static_cast<unsigned long long>(rep.span));
    const auto frac = [&](std::uint64_t n) {
        return o.total() ? 100.0 * double(n) / double(o.total())
                         : 0.0;
    };
    std::printf("  masked:    %8llu  (%5.2f%%, %llu never "
                "activated)\n",
                static_cast<unsigned long long>(o.masked),
                frac(o.masked),
                static_cast<unsigned long long>(o.notActivated));
    std::printf("  detected:  %8llu  (%5.2f%%)\n",
                static_cast<unsigned long long>(o.detected),
                frac(o.detected));
    if (rep.recoveryEnabled)
        std::printf("  recovered: %8llu  (%5.2f%%)\n",
                    static_cast<unsigned long long>(o.recovered),
                    frac(o.recovered));
    if (rep.memEnabled)
        std::printf("  ecc-fixed: %8llu  (%5.2f%%)\n",
                    static_cast<unsigned long long>(o.eccCorrected),
                    frac(o.eccCorrected));
    std::printf("  SDC:       %8llu  (%5.2f%%)\n",
                static_cast<unsigned long long>(o.sdc), frac(o.sdc));
    std::printf("  DUE:       %8llu  (%5.2f%%)\n",
                static_cast<unsigned long long>(o.due), frac(o.due));

    const auto cov = o.coverageCi();
    const auto det = o.detectionCi();
    std::printf("\ncoverage (detected / sampled):        %6.2f%%  "
                "Wilson 95%% CI [%5.2f, %5.2f]\n",
                100 * o.coverage(), 100 * cov.lo, 100 * cov.hi);
    std::printf("detection rate (of non-masked):       %6.2f%%  "
                "Wilson 95%% CI [%5.2f, %5.2f]\n",
                100 * o.detectionRate(), 100 * det.lo, 100 * det.hi);
    if (rep.latencyCount)
        std::printf("mean detection latency: %.1f cycles over %llu "
                    "detections (kernel length %.0f)\n",
                    rep.meanDetectionLatency(),
                    static_cast<unsigned long long>(rep.latencyCount),
                    double(rep.kernelLengthSum) /
                        double(rep.latencyCount));
    if (rep.recoveryEnabled) {
        const auto consequential = o.detected + o.recovered;
        const auto rfrac =
            consequential ? 100.0 * double(o.recovered) /
                                double(consequential)
                          : 0.0;
        std::printf("recovered fraction (of detections):   %6.2f%%  "
                    "(%llu rollbacks, %llu give-ups)\n",
                    rfrac,
                    static_cast<unsigned long long>(rep.rollbacks),
                    static_cast<unsigned long long>(rep.giveUps));
        if (rep.recoveryCount)
            std::printf("mean recovery latency: %.1f cycles over "
                        "%llu recoveries\n",
                        rep.meanRecoveryCycles(),
                        static_cast<unsigned long long>(
                            rep.recoveryCount));
        if (rep.abortedRuns)
            std::printf("aborted runs retried then classified as "
                        "DUE: %llu\n",
                        static_cast<unsigned long long>(
                            rep.abortedRuns));
    }

    if (!rep.byKind.empty()) {
        std::printf("\nper-kind coverage:\n");
        for (const auto &[kind, c] : rep.byKind) {
            const auto ci = c.coverageCi();
            std::printf("  %-18s %6.2f%%  [%5.2f, %5.2f]  "
                        "(%llu sampled)\n",
                        faultKindName(kind), 100 * c.coverage(),
                        100 * ci.lo, 100 * ci.hi,
                        static_cast<unsigned long long>(c.total()));
        }
    }

    if (rep.memEnabled) {
        const auto t = o.total();
        const auto escaped = o.sdc + o.due;
        const auto esc = stats::wilsonInterval(escaped, t);
        std::printf("\nescaped ECC and DMR (SDC+DUE):        %6.2f%%"
                    "  Wilson 95%% CI [%5.2f, %5.2f]\n",
                    t ? 100.0 * double(escaped) / double(t) : 0.0,
                    100 * esc.lo, 100 * esc.hi);
        if (!rep.byMemKind.empty()) {
            std::printf("\nper-memory-kind outcomes "
                        "(ecc-fixed / escaped):\n");
            for (const auto &[kind, c] : rep.byMemKind) {
                const auto kt = c.total();
                const auto kfrac = [&](std::uint64_t n) {
                    return kt ? 100.0 * double(n) / double(kt) : 0.0;
                };
                std::printf("  %-18s %6.2f%% / %6.2f%%  "
                            "(%llu sampled)\n",
                            mem::memFaultKindSlug(kind),
                            kfrac(c.eccCorrected),
                            kfrac(c.sdc + c.due),
                            static_cast<unsigned long long>(kt));
            }
        }
    }

    if (rep.strataWindows && !rep.stratumSizes.empty()) {
        std::vector<std::string> labels;
        std::vector<std::uint64_t> sizes;
        for (const auto &[label, sz] : rep.stratumSizes) {
            labels.push_back(label);
            sizes.push_back(sz);
        }
        stats::StratifiedEstimator est(sizes);
        for (std::size_t h = 0; h < labels.size(); ++h) {
            const auto it = rep.byStratum.find(labels[h]);
            if (it == rep.byStratum.end())
                continue;
            est.addCounts(h,
                          fault::CampaignReport::caught(it->second),
                          it->second.total());
        }
        const auto ci = est.interval();
        const auto pooled = est.pooledWilson();
        std::printf("\nstratified coverage estimate:         %6.2f%%"
                    "  95%% CI [%5.2f, %5.2f]\n",
                    100 * est.estimate(), 100 * ci.lo, 100 * ci.hi);
        std::printf("  (%llu strata over %llu sites; pooled Wilson "
                    "width %.3f vs stratified %.3f)\n",
                    static_cast<unsigned long long>(labels.size()),
                    static_cast<unsigned long long>(est.population()),
                    pooled.hi - pooled.lo, ci.hi - ci.lo);
    }
}

/** Write the mergeable flat-counter report JSON, crash-atomically —
 *  a torn report file is as useless as a torn checkpoint. */
int
writeReportJson(const fault::CampaignReport &rep,
                const std::string &outPath)
{
    if (outPath.empty())
        return 0;
    if (!fault::writeFileAtomic(outPath, rep.toJson())) {
        std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
        return 1;
    }
    std::printf("\nreport JSON written to %s\n", outPath.c_str());
    return 0;
}

int
campaignMain(int argc, char **argv)
{
    if (argc < 3) {
        campaignUsage();
        return 2;
    }
    CampaignCli c;
    c.workload = argv[2];
    c.ec.jobs = 0;

    for (int i = 3; i < argc; ++i) {
        if (!parseCampaignArg(argc, argv, i, c)) {
            std::fprintf(stderr, "unknown campaign option %s\n",
                         argv[i]);
            campaignUsage();
            return 2;
        }
    }
    finalizeCampaignConfig(c);
    printCampaignHeader(c, "campaign");

    if (c.sweep)
        return schemeSweep(c.workload, c.size, c.ec, c.outPath);

    fault::CampaignEngine engine(
        [&] {
            return workloads::makeByNameSized(c.workload, c.size);
        },
        c.ec);
    fault::CampaignReport rep;
    try {
        rep = engine.run();
    } catch (const fault::ShardError &e) {
        std::fprintf(stderr,
                     "campaign: checkpoint %s is unusable: %s\n"
                     "  (delete it to restart from scratch, or "
                     "restore an intact copy)\n",
                     c.ec.checkpointPath.c_str(), e.what());
        return 1;
    }
    printCampaignReport(rep);
    return writeReportJson(rep, c.outPath);
}

/**
 * `warped_sim shard`: run one shard of a campaign plan and write the
 * delta document (crash-atomically). Normally spawned by `serve`, but
 * equally runnable by hand on another machine — the delta file is the
 * whole protocol.
 */
int
shardMain(int argc, char **argv)
{
    if (argc < 3) {
        serveUsage();
        return 2;
    }
    CampaignCli c;
    c.workload = argv[2];
    c.ec.jobs = 0;
    std::uint64_t shardIndex = 0, shardCount = 0;
    std::uint64_t expectSig = 0;
    bool haveIndex = false, haveCount = false, haveSig = false;
    std::string deltaOut;
    std::string connectHost;
    std::uint16_t connectPort = 0;
    bool haveConnect = false;
    unsigned connectAttempts = 8;
    sim::ChaosConfig chaos;
    std::uint64_t hangShard = sim::kNoShard;
    std::uint64_t hangMs = 10000;

    for (int i = 3; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--shard-index") {
            shardIndex = parseU64Arg("--shard-index", next(), true);
            haveIndex = true;
        } else if (a == "--shard-count") {
            shardCount = parseU64Arg("--shard-count", next(), true);
            haveCount = true;
        } else if (a == "--expect-signature") {
            expectSig =
                parseU64Arg("--expect-signature", next(), true);
            haveSig = true;
        } else if (a == "--delta-out") {
            const char *v = next();
            if (!v) {
                serveUsage();
                return 2;
            }
            deltaOut = v;
        } else if (a == "--connect") {
            parseHostPortArg("--connect", next(), connectHost,
                             connectPort, false);
            haveConnect = true;
        } else if (a == "--connect-attempts") {
            const char *v = next();
            connectAttempts =
                parseU32Arg("--connect-attempts", v, true);
            if (connectAttempts == 0)
                badNumericArg("--connect-attempts (expects >= 1)", v,
                              true);
        } else if (a == "--chaos") {
            const char *v = next();
            if (!v) {
                serveUsage();
                return 2;
            }
            try {
                chaos = sim::ChaosConfig::parse(v);
            } catch (const std::invalid_argument &e) {
                std::fprintf(stderr, "warped_sim: %s\n", e.what());
                serveUsage();
                return 2;
            }
        } else if (a == "--hang-for-shard") {
            hangShard = parseU64Arg("--hang-for-shard", next(), true);
        } else if (a == "--hang-ms") {
            hangMs = parseU64Arg("--hang-ms", next(), true);
        } else if (parseCampaignArg(argc, argv, i, c)) {
            // campaign-level option, already recorded
        } else {
            std::fprintf(stderr, "unknown shard option %s\n",
                         argv[i]);
            serveUsage();
            return 2;
        }
    }
    if (haveConnect) {
        // Socket mode: the assignment arrives over the wire, so the
        // file-mode selectors make no sense here.
        if (haveIndex || haveCount || !deltaOut.empty() || c.sweep) {
            std::fprintf(stderr,
                         "shard: --connect excludes --shard-index/"
                         "--shard-count/--delta-out\n");
            serveUsage();
            return 2;
        }
    } else if (!haveIndex || !haveCount || shardCount == 0 ||
               shardIndex >= shardCount || deltaOut.empty() ||
               c.sweep) {
        serveUsage();
        return 2;
    }
    finalizeCampaignConfig(c);
    // Workers never checkpoint: resumability is the orchestrator's
    // job, and per-worker checkpoint files would collide.
    c.ec.checkpointPath.clear();

    fault::CampaignEngine engine(
        [&] {
            return workloads::makeByNameSized(c.workload, c.size);
        },
        c.ec);
    engine.prepare();
    if (haveSig && engine.signature() != expectSig) {
        std::fprintf(stderr,
                     "shard %llu: this configuration derives "
                     "signature %llu, the orchestrator expects %llu "
                     "— mismatched command lines; refusing to run\n",
                     static_cast<unsigned long long>(shardIndex),
                     static_cast<unsigned long long>(
                         engine.signature()),
                     static_cast<unsigned long long>(expectSig));
        return 3;
    }

    if (haveConnect) {
        // One engine serves every assignment: runRange builds a
        // fresh skeleton per call, so the golden run is paid once
        // per worker process, not once per shard.
        sim::SocketWorkerConfig wc;
        wc.host = connectHost;
        wc.port = connectPort;
        wc.signature = engine.signature();
        wc.connectAttempts = connectAttempts;
        wc.chaos = chaos;
        wc.hangShard = hangShard;
        wc.hangMs = hangMs;
        wc.seed = engine.signature() ^ chaos.seed;
        const auto total = engine.plannedSites();
        return sim::runSocketWorker(
            wc,
            [&](std::uint64_t shard,
                std::uint64_t count) -> std::string {
                const auto plans = fault::planShards(total, count);
                if (shard >= plans.size())
                    throw std::runtime_error(
                        "assigned shard " + std::to_string(shard) +
                        " of a " + std::to_string(plans.size()) +
                        "-shard plan");
                const auto d = fault::runShard(
                    engine, plans[static_cast<std::size_t>(shard)]);
                std::fprintf(
                    stderr,
                    "shard %llu/%llu: runs [%llu, %llu) -> socket\n",
                    static_cast<unsigned long long>(shard),
                    static_cast<unsigned long long>(count),
                    static_cast<unsigned long long>(d.base),
                    static_cast<unsigned long long>(d.base + d.count));
                return d.toJson();
            });
    }

    if (hangShard == shardIndex) {
        // File-mode wedge drill: the orchestrator's --shard-deadline
        // is supposed to SIGKILL us mid-sleep and re-issue.
        std::fprintf(stderr,
                     "shard %llu: hang drill — sleeping %llums\n",
                     static_cast<unsigned long long>(shardIndex),
                     static_cast<unsigned long long>(hangMs));
        sim::sleepMs(hangMs);
    }

    const auto plans =
        fault::planShards(engine.plannedSites(), shardCount);
    const auto d = fault::runShard(
        engine, plans[static_cast<std::size_t>(shardIndex)]);
    if (!fault::writeFileAtomic(deltaOut, d.toJson())) {
        std::fprintf(stderr, "shard %llu: cannot write %s\n",
                     static_cast<unsigned long long>(shardIndex),
                     deltaOut.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "shard %llu/%llu: runs [%llu, %llu) -> %s\n",
                 static_cast<unsigned long long>(shardIndex),
                 static_cast<unsigned long long>(shardCount),
                 static_cast<unsigned long long>(d.base),
                 static_cast<unsigned long long>(d.base + d.count),
                 deltaOut.c_str());
    return 0;
}

/**
 * `warped_sim serve`: the campaign orchestrator. Splits the plan into
 * shards, dispatches worker processes over a work queue, folds each
 * delta into the aggregator (checkpointing the aggregate after every
 * fold when --state is given) and re-issues shards whose worker died.
 */
int
serveMain(int argc, char **argv)
{
    if (argc < 3) {
        serveUsage();
        return 2;
    }
    CampaignCli c;
    c.workload = argv[2];
    c.ec.jobs = 0;
    std::uint64_t shards = 0;
    unsigned workers = 1;
    std::uint64_t killShard = 0;
    bool haveKill = false;
    std::string statePath;
    std::string listenHost;
    std::uint16_t listenPort = 0;
    bool haveListen = false;
    std::string portFile;
    std::uint64_t heartbeatMs = 250;
    std::uint64_t deadlineMs = 0;
    std::uint64_t graceMs = 1500;
    bool noLocalFallback = false;
    unsigned strikes = 3;
    std::uint64_t hangShard = sim::kNoShard;
    std::uint64_t hangMs = 30000;

    for (int i = 3; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--shards") {
            v = next();
            shards = parseU64Arg("--shards", v, true);
            if (shards == 0)
                badNumericArg("--shards (expects >= 1)", v, true);
        } else if (a == "--workers") {
            v = next();
            workers = parseU32Arg("--workers", v, true);
            if (workers == 0)
                badNumericArg("--workers (expects >= 1)", v, true);
        } else if (a == "--state") {
            if (!(v = next())) {
                serveUsage();
                return 2;
            }
            statePath = v;
        } else if (a == "--listen") {
            parseHostPortArg("--listen", next(), listenHost,
                             listenPort, true);
            haveListen = true;
        } else if (a == "--port-file") {
            if (!(v = next())) {
                serveUsage();
                return 2;
            }
            portFile = v;
        } else if (a == "--heartbeat") {
            v = next();
            heartbeatMs = parseU64Arg("--heartbeat", v, true);
            if (heartbeatMs == 0)
                badNumericArg("--heartbeat (expects >= 1)", v, true);
        } else if (a == "--shard-deadline") {
            v = next();
            deadlineMs = parseU64Arg("--shard-deadline", v, true);
            if (deadlineMs == 0)
                badNumericArg("--shard-deadline (expects >= 1)", v,
                              true);
        } else if (a == "--grace") {
            v = next();
            graceMs = parseU64Arg("--grace", v, true);
            if (graceMs == 0)
                badNumericArg("--grace (expects >= 1)", v, true);
        } else if (a == "--no-local-fallback") {
            noLocalFallback = true;
        } else if (a == "--strikes") {
            v = next();
            strikes = parseU32Arg("--strikes", v, true);
            if (strikes == 0)
                badNumericArg("--strikes (expects >= 1)", v, true);
        } else if (a == "--kill-worker-for-shard") {
            killShard =
                parseU64Arg("--kill-worker-for-shard", next(), true);
            haveKill = true;
        } else if (a == "--hang-worker-for-shard") {
            hangShard = parseU64Arg("--hang-worker-for-shard",
                                    next(), true);
        } else if (a == "--hang-ms") {
            hangMs = parseU64Arg("--hang-ms", next(), true);
        } else if (parseCampaignArg(argc, argv, i, c)) {
            // campaign-level option, already recorded
        } else {
            std::fprintf(stderr, "unknown serve option %s\n",
                         argv[i]);
            serveUsage();
            return 2;
        }
    }
    if (shards == 0) {
        std::fprintf(stderr, "serve: --shards is required\n");
        serveUsage();
        return 2;
    }
    if (!haveListen && (noLocalFallback || !portFile.empty())) {
        std::fprintf(stderr,
                     "serve: %s only makes sense with --listen\n",
                     noLocalFallback ? "--no-local-fallback"
                                     : "--port-file");
        serveUsage();
        return 2;
    }
    if (c.sweep) {
        std::fprintf(stderr,
                     "serve: --scheme-sweep is not shardable "
                     "(run it under `warped_sim campaign`)\n");
        return 2;
    }
    finalizeCampaignConfig(c);
    // The aggregator state file is the orchestrator's resume surface;
    // engine checkpoints belong to single-process campaigns.
    c.ec.checkpointPath.clear();
    printCampaignHeader(c, "serve");

    fault::CampaignEngine engine(
        [&] {
            return workloads::makeByNameSized(c.workload, c.size);
        },
        c.ec);
    engine.prepare();
    const auto total = engine.plannedSites();
    fault::ShardAggregator agg(engine.skeleton(), engine.signature(),
                               total, shards);
    std::printf("serve: %llu runs in %llu shards, %u worker(s), "
                "signature %llu\n",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(shards), workers,
                static_cast<unsigned long long>(engine.signature()));

    if (!statePath.empty()) {
        try {
            if (agg.resume(statePath))
                std::printf("serve: resumed %s (%llu of %llu shards "
                            "already folded)\n",
                            statePath.c_str(),
                            static_cast<unsigned long long>(
                                agg.foldedShards()),
                            static_cast<unsigned long long>(
                                agg.totalShards()));
        } catch (const fault::ShardError &e) {
            std::fprintf(stderr, "serve: state %s is unusable: %s\n",
                         statePath.c_str(), e.what());
            return 1;
        }
    }

    const std::string deltaPrefix =
        statePath.empty() ? std::string("warped_serve") : statePath;
    const std::string exe = argv[0];

    // The local transport exists even under --listen (it is the
    // grace-window fallback) unless --no-local-fallback severs it.
    sim::SubprocessTransportConfig scfg;
    scfg.workerArgv = {exe, "shard", c.workload};
    scfg.workerArgv.insert(scfg.workerArgv.end(),
                           c.passThrough.begin(),
                           c.passThrough.end());
    scfg.deltaPrefix = deltaPrefix;
    scfg.shardCount = shards;
    scfg.signature = engine.signature();
    scfg.deadlineMs = deadlineMs;
    scfg.killShard = haveKill ? killShard : sim::kNoShard;
    scfg.hangShard = hangShard;
    scfg.hangMs = hangMs;
    sim::SubprocessTransport localTransport(scfg);

    std::unique_ptr<sim::SocketTransport> socketTransport;
    sim::Transport *transport = &localTransport;
    if (haveListen) {
        sim::SocketTransportConfig ncfg;
        ncfg.host = listenHost;
        ncfg.port = listenPort;
        ncfg.signature = engine.signature();
        ncfg.shardCount = shards;
        ncfg.heartbeatMs = heartbeatMs;
        ncfg.deadlineMs = deadlineMs;
        ncfg.graceMs = graceMs;
        ncfg.fallback = noLocalFallback ? nullptr : &localTransport;
        socketTransport =
            std::make_unique<sim::SocketTransport>(ncfg);
        transport = socketTransport.get();
        std::printf("serve: listening on %s:%u%s\n",
                    ncfg.host.c_str(),
                    unsigned(socketTransport->port()),
                    noLocalFallback ? " (no local fallback)" : "");
        if (!portFile.empty() &&
            !fault::writeFileAtomic(
                portFile,
                std::to_string(socketTransport->port()) + "\n")) {
            std::fprintf(stderr, "serve: cannot write %s\n",
                         portFile.c_str());
            return 1;
        }
    }

    const auto res = fault::dispatchShards(
        engine, agg, *transport, {workers, strikes, statePath});

    if (socketTransport) {
        socketTransport->stop();
        std::printf("serve: socket transport: %llu worker(s) "
                    "joined, %llu rejected, %llu shard(s) delivered "
                    "remotely, %llu via local fallback\n",
                    static_cast<unsigned long long>(
                        socketTransport->workersJoined()),
                    static_cast<unsigned long long>(
                        socketTransport->workersRejected()),
                    static_cast<unsigned long long>(
                        socketTransport->remoteDeliveries()),
                    static_cast<unsigned long long>(
                        socketTransport->fallbackRuns()));
    }

    if (!res.complete) {
        std::fprintf(stderr,
                     "serve: campaign incomplete (%llu of %llu "
                     "shards folded)%s\n",
                     static_cast<unsigned long long>(
                         agg.foldedShards()),
                     static_cast<unsigned long long>(
                         agg.totalShards()),
                     statePath.empty()
                         ? ""
                         : "; state file kept for resume");
        return 1;
    }
    if (res.reissues)
        std::printf("serve: %llu shard re-issue(s) after worker "
                    "death\n",
                    static_cast<unsigned long long>(res.reissues));

    const auto rep = agg.report();
    printCampaignReport(rep);
    const int rc = writeReportJson(rep, c.outPath);
    if (rc == 0 && !statePath.empty())
        std::remove(statePath.c_str());
    return rc;
}

void
usage()
{
    std::printf(
        "usage: warped_sim [workload|all] [options]\n"
        "       warped_sim campaign <workload> [options]   "
        "(fault-injection campaign;\n"
        "                                                  "
        " see warped_sim campaign)\n"
        "\n"
        "workloads: BFS Nqueen MUM SCAN BitonicSort Laplace MatrixMul\n"
        "           RadixSort SHA Libor CUFFT\n"
        "\n"
        "options:\n"
        "  --dmr on|off          enable/disable Warped-DMR "
        "(default on)\n"
        "  --no-intra            disable intra-warp (spatial) DMR\n"
        "  --no-inter            disable inter-warp (temporal) DMR\n"
        "  --no-shuffle          disable lane shuffling\n"
        "  --mapping linear|cross   thread-to-core mapping "
        "(default cross)\n"
        "  --qsize N             ReplayQ entries (default 10)\n"
        "  --cluster 4|8         SIMT-cluster width (default 4)\n"
        "  --sms N               number of SMs (default 30)\n"
        "  --sampling E:A        sampling DMR: active A of every E "
        "cycles\n"
        "  --sched lrr|gto       warp scheduling policy "
        "(default lrr)\n"
        "  --schedulers N        schedulers per SM (default 1)\n"
        "  --bank-conflicts      model register-bank conflicts\n"
        "  --coalescing          model global-memory coalescing\n"
        "  --contention          model memory-partition contention\n"
        "  --mem-model flat|banked  global-memory organization\n"
        "                        (default flat; banked adds per-bank\n"
        "                        open-row DRAM timing)\n"
        "  --ecc none|secded|chipkill  memory ECC codec (default\n"
        "                        none; only affects fault campaigns)\n"
        "  --warp N              warp width (default 32)\n"
        "  --arbitrate           classify detections by majority "
        "vote\n"
        "  --dmtr                DMTR baseline mode\n"
        "  --scheme NAME         protection backend: original, "
        "r-naive,\n"
        "                        r-thread, dmtr, warped-dmr "
        "(default),\n"
        "                        partial-thread, replay-compare\n"
        "  --protect-frac F      protected warp-slot fraction for\n"
        "                        --scheme partial-thread "
        "(default 1.0)\n"
        "  --disasm              print the kernel disassembly\n"
        "  --trace N             print the first N issue events\n"
        "  --trace-out F         record structured events and write a\n"
        "                        Chrome trace_event JSON to F; a .bin\n"
        "                        path writes the compact binary format\n"
        "                        instead (convert offline with\n"
        "                        tools/trace_convert)\n"
        "  --metrics-out F       write the flat metrics registry "
        "JSON to F\n"
        "                        (with 'all', the workload name is\n"
        "                        spliced in before the extension)\n"
        "  --report              print the full statistics block\n"
        "  --json                emit one JSON object per workload\n"
        "  --verbose             keep warn/info output\n"
        "  --list                print the workload table and exit\n"
        "  --kernel F [--blocks N] [--threads M]\n"
        "                        run a text-assembly kernel file "
        "instead of a workload\n");
}

bool
parse(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--help" || a == "-h") {
            return false;
        } else if (a == "--list") {
            std::printf("%-12s %-26s %8s %8s %10s %10s\n", "name",
                        "category", "blocks", "threads", "bytes in",
                        "bytes out");
            for (const auto &n : workloads::allNames()) {
                auto w = workloads::makeByName(n);
                arch::GpuConfig c = arch::GpuConfig::testDefault();
                gpu::Gpu g(c, dmr::DmrConfig::off());
                w->setup(g);
                std::printf("%-12s %-26s %8u %8u %10zu %10zu\n",
                            n.c_str(), w->category().c_str(),
                            w->gridBlocks(), w->blockThreads(),
                            w->bytesIn(), w->bytesOut());
            }
            std::exit(0);
        } else if (parseMachineArg(argc, argv, i, o.machine, false)) {
            // shared machine flag, already applied
        } else if (a == "--cluster") {
            o.cluster = parseU32Arg("--cluster", next(), false);
        } else if (a == "--sampling") {
            // E:A — both halves strict; sscanf accepted trailing
            // junk ("1000:250x") and negative epochs.
            const char *v = next();
            const char *colon = v ? std::strchr(v, ':') : nullptr;
            if (!colon)
                badNumericArg("--sampling (expects E:A)", v, false);
            const std::string epoch(v, colon);
            o.machine.dmr.samplingEpoch =
                parseU32Arg("--sampling epoch", epoch.c_str(), false);
            o.machine.dmr.samplingActive =
                parseU32Arg("--sampling active", colon + 1, false);
        } else if (a == "--bank-conflicts") {
            o.bankConflicts = true;
        } else if (a == "--coalescing") {
            o.coalescing = true;
        } else if (a == "--contention") {
            o.contention = true;
        } else if (a == "--warp") {
            o.warpSize = parseU32Arg("--warp", next(), false);
        } else if (a == "--arbitrate") {
            o.machine.dmr.arbitrateErrors = true;
        } else if (a == "--dmtr") {
            o.machine.dmr = dmr::DmrConfig::dmtr();
        } else if (a == "--kernel") {
            const char *v = next();
            if (!v)
                return false;
            o.kernelFile = v;
        } else if (a == "--blocks") {
            o.kblocks = parseU32Arg("--blocks", next(), false);
        } else if (a == "--threads") {
            o.kthreads = parseU32Arg("--threads", next(), false);
        } else if (a == "--trace") {
            o.trace = parseU32Arg("--trace", next(), false);
        } else if (a == "--trace-out") {
            const char *v = next();
            if (!v)
                return false;
            o.traceOut = v;
        } else if (a == "--metrics-out") {
            const char *v = next();
            if (!v)
                return false;
            o.metricsOut = v;
        } else if (a == "--report") {
            o.report = true;
        } else if (a == "--json") {
            o.json = true;
        } else if (a == "--disasm") {
            o.disasm = true;
        } else if (a == "--verbose") {
            o.verbose = true;
        } else if (a[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", a.c_str());
            return false;
        } else {
            o.workload = a;
        }
    }
    return true;
}

int
runOne(const std::string &name, const Options &o,
       const arch::GpuConfig &cfg)
{
    auto w = workloads::makeByName(name);
    gpu::Gpu g(cfg, o.machine.dmr, /*seed=*/1, nullptr, {},
               o.machine.scheme);
    w->setup(g);
    if (o.disasm)
        std::printf("%s\n", w->program().disassemble().c_str());

    const auto r = g.launch(w->program(), w->gridBlocks(),
                            w->blockThreads());
    const bool ok = w->verify(g);

    const bool multi = o.workload == "all";
    if (!o.traceOut.empty()) {
        const auto path = exportPath(o.traceOut, name, multi);
        // A .bin destination selects the compact binary format
        // (docs/TRACE_FORMAT.md); tools/trace_convert turns it into
        // the byte-identical Chrome JSON offline. Anything else gets
        // the Chrome trace_event JSON directly.
        const bool binary =
            path.size() >= 4 &&
            path.compare(path.size() - 4, 4, ".bin") == 0;
        std::ofstream f(path, binary
                                  ? std::ios::out | std::ios::binary
                                  : std::ios::out);
        if (!f)
            std::fprintf(stderr, "cannot open %s\n", path.c_str());
        else if (binary)
            trace::writeBinaryTrace(
                f, r.events, name,
                r.metrics.counterValue("trace.dropped"));
        else
            trace::writeChromeTrace(f, r.events, name);
    }
    if (!o.metricsOut.empty()) {
        const auto path = exportPath(o.metricsOut, name, multi);
        std::ofstream f(path);
        if (!f)
            std::fprintf(stderr, "cannot open %s\n", path.c_str());
        else
            trace::writeMetricsJson(f, r.metrics);
    }

    if (o.json) {
        std::printf("%s\n",
                    report::jsonReport(r, cfg, name).c_str());
        return ok ? 0 : 1;
    }

    if (o.trace) {
        std::printf("issue trace (first %u events per SM):\n",
                    o.trace);
        unsigned shown = 0;
        for (const auto &ev : r.trace) {
            if (shown++ >= o.trace)
                break;
            std::printf("  cy %6llu sm%-2u w%-2u [%2u/32] pc %3u  %s\n",
                        static_cast<unsigned long long>(ev.cycle),
                        ev.sm, ev.warp, ev.activeCount, ev.pc,
                        ev.instr.toString().c_str());
        }
    }

    if (o.report)
        std::printf("%s", report::textReport(r, cfg).c_str());

    power::PowerModel pm(cfg);
    std::printf("%-12s %-16s %8llu cy %8.1f us  cover %6.2f%%  "
                "power %5.1f W  %s\n",
                name.c_str(), w->category().c_str(),
                static_cast<unsigned long long>(r.cycles),
                r.timeNs / 1e3, 100 * r.coverage(),
                pm.estimate(r).total(), ok ? "OK" : "FAIL");

    if (o.machine.dmr.enabled) {
        std::printf(
            "    verified: intra %llu / inter %llu thread-instrs; "
            "stalls: eager %llu, raw %llu; queue events: enq %llu, "
            "deq %llu, drain %llu+%llu\n",
            static_cast<unsigned long long>(r.dmr.intraVerifiedThreads),
            static_cast<unsigned long long>(r.dmr.interVerifiedThreads),
            static_cast<unsigned long long>(r.dmr.eagerStalls),
            static_cast<unsigned long long>(r.dmr.rawStalls),
            static_cast<unsigned long long>(r.dmr.enqueues),
            static_cast<unsigned long long>(r.dmr.dequeueVerifications),
            static_cast<unsigned long long>(
                r.dmr.idleDrainVerifications),
            static_cast<unsigned long long>(
                r.dmr.unitDrainVerifications));
        if (r.dmr.errorsDetected) {
            std::printf("    ERRORS DETECTED: %llu",
                        static_cast<unsigned long long>(
                            r.dmr.errorsDetected));
            if (o.machine.dmr.arbitrateErrors) {
                std::printf(" (primary-bad %llu, checker-bad %llu, "
                            "inconclusive %llu)",
                            static_cast<unsigned long long>(
                                r.dmr.arbPrimaryBad),
                            static_cast<unsigned long long>(
                                r.dmr.arbCheckerBad),
                            static_cast<unsigned long long>(
                                r.dmr.arbInconclusive));
            }
            std::printf("\n");
        }
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "campaign") == 0) {
        setVerbose(false);
        return campaignMain(argc, argv);
    }
    if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
        setVerbose(false);
        return serveMain(argc, argv);
    }
    if (argc > 1 && std::strcmp(argv[1], "shard") == 0) {
        setVerbose(false);
        return shardMain(argc, argv);
    }

    Options o;
    if (!parse(argc, argv, o)) {
        usage();
        return 2;
    }
    setVerbose(o.verbose);

    auto cfg = arch::GpuConfig::paperDefault();
    cfg.numSms = o.machine.sms;
    cfg.lanesPerCluster = o.cluster;
    cfg.numSchedulers = o.machine.schedulers;
    cfg.schedPolicy = o.machine.sched;
    cfg.modelBankConflicts = o.bankConflicts;
    cfg.modelCoalescing = o.coalescing;
    cfg.modelMemContention = o.contention;
    cfg.memModel = o.machine.memModel;
    cfg.eccKind = o.machine.ecc;
    cfg.warpSize = o.warpSize;
    cfg.traceIssueLimit = o.trace;
    cfg.traceEvents = !o.traceOut.empty();

    validateMachine(cfg, false);
    std::printf("%s\n", cfg.toString().c_str());

    if (!o.kernelFile.empty()) {
        std::ifstream f(o.kernelFile);
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n",
                         o.kernelFile.c_str());
            return 1;
        }
        std::string text((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
        const auto prog = isa::parseProgram(text);
        if (o.disasm)
            std::printf("%s\n", prog.disassemble().c_str());
        gpu::Gpu g(cfg, o.machine.dmr, /*seed=*/1, nullptr, {},
                   o.machine.scheme);
        const auto r = g.launch(prog, o.kblocks, o.kthreads);
        if (o.json) {
            std::printf("%s\n",
                        report::jsonReport(r, cfg, prog.name()).c_str());
        } else {
            std::printf("%s", report::textReport(r, cfg).c_str());
        }
        return 0;
    }

    int rc = 0;
    if (o.workload == "all") {
        for (const auto &n : workloads::allNames())
            rc |= runOne(n, o, cfg);
    } else {
        rc = runOne(o.workload, o, cfg);
    }
    return rc;
}
