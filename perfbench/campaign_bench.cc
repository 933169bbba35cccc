/**
 * @file
 * campaign_bench — the campaign benchmark behind BENCHMARK.json. One
 * invocation measures one named fault-injection campaign workload
 * through the library's public API (fi::CampaignRunner, sim::Gpu,
 * fi::RunJournal, mergeShardJournals, formatMergedRunLog,
 * parseRunLogTolerant) and prints every metric by name and unit,
 * then one JSON result line.
 *
 *   campaign_bench --workload NAME --seed N --seconds S [--trace 0|1]
 *                  [--trace-out FILE] [--work-dir DIR] [--smoke]
 *                  [--tamper]
 *
 * Every layer is measured from outside: wall-clock timers around
 * calls into its public functions, plus before/after deltas of the
 * process-cumulative obs counters the library already publishes,
 * each taken around exactly the measured call. Nothing here adds
 * instrumentation inside the library.
 *
 * One invocation repeats the whole campaign (fresh CampaignRunner,
 * golden run, pioneer, injected runs) until --seconds is used up,
 * at least twice, and reports medians, with host times scaled to
 * the reference host's speed by a yardstick loop. Simulated counts
 * must repeat exactly across those repeats. After the measured
 * repeats the output check runs: the records of a fixed prefix of
 * run indices must equal, byte for byte, those of a reference
 * campaign with every fast path and fast knob off (propagation-trace
 * keys: those of the twin-run reference, see outputsOk). SDC, Crash,
 * Timeout and Performance are the measured product of an injection,
 * never an incorrect output; only ToolError/ToolHang runs and runs
 * missing from the result count as failed operations.
 *
 * --trace 1 alternates untraced and traced repeats. Traced repeats
 * record spans (name, start, end, parent, campaign id) around the
 * benchmark's calls into each layer and write them as Chrome
 * trace-event JSON; the per-layer metrics and the tracing overhead
 * are printed instead of the end-to-end ones.
 *
 * --smoke shrinks every campaign for the self-test; --tamper alters
 * one field of one record before the output check, which must then
 * fail (the self-test's proof that the check is not vacuous).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "common/obs.hh"
#include "fi/campaign.hh"
#include "fi/journal.hh"
#include "fi/report_log.hh"
#include "fi/shard.hh"
#include "mem/backing.hh"
#include "mem/l2_subsystem.hh"
#include "sim/core.hh"
#include "sim/gpu.hh"
#include "sim/gpu_config.hh"
#include "sim/snapshot.hh"
#include "suite/suite.hh"

using namespace gpufi;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Results the optimizer must not discard. */
volatile uint64_t gSink = 0;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Workloads ---------------------------------------------------------

/**
 * One campaign workload. All run on the full rtx2060 preset, the card
 * gpufi users campaign on; see BENCHMARK.json for why each exists.
 */
struct WorkloadDef
{
    const char *name;
    const char *bench;          ///< suite code
    const char *kernel;         ///< targeted static kernel
    fi::FaultTarget target;
    fi::FaultModel model;
    uint32_t runs;              ///< injected runs per campaign
    uint32_t smokeRuns;         ///< --smoke campaign size
    size_t threads;             ///< worker threads per run() call
    uint32_t shards;            ///< in-process shards, one journal each
    bool anatomy;               ///< SDC anatomy + taint trace on
    uint32_t refPrefix;         ///< run indices the reference re-executes
};

const WorkloadDef kWorkloads[] = {
    // The paper's campaign size on short runs: ladder, restore,
    // convergence hashing and early termination dominate.
    {"va-rf-paper", "VA", "vecadd", fi::FaultTarget::RegisterFile,
     fi::FaultModel::Transient, 3000, 200, 1, 1, false, 64},
    // Stuck-at disables the ladder and convergence: every run steps
    // the full cycle loop, caches and host ops from cycle 0.
    {"km-l1d-stuck", "KM", "km_assign", fi::FaultTarget::L1Data,
     fi::FaultModel::StuckAt1, 200, 12, 1, 1, false, 12},
    // Durable sharded campaign: fsync'd journals beside compute, a
    // 2-worker pool, frequent SDCs with anatomy and trace, then
    // merge, format and parse of the merged log.
    {"srad1-durable", "SRAD1", "srad1", fi::FaultTarget::RegisterFile,
     fi::FaultModel::Transient, 1000, 60, 2, 2, true, 24},
};

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

// ---- Obs counter deltas --------------------------------------------------

/** Counter values by name; histograms contribute <name>.count/.sum. */
using Counters = std::map<std::string, uint64_t>;

Counters
readObs()
{
    Counters c;
    const obs::Registry &reg = obs::Registry::instance();
    for (const auto &[name, v] : reg.counters())
        c[name] = v;
    for (const auto &[name, h] : reg.histograms()) {
        c[name + ".count"] = h->count();
        c[name + ".sum"] = h->sum();
    }
    return c;
}

Counters
operator-(const Counters &after, const Counters &before)
{
    Counters d;
    for (const auto &[name, v] : after) {
        auto it = before.find(name);
        d[name] = v - (it == before.end() ? 0 : it->second);
    }
    return d;
}

Counters &
operator+=(Counters &a, const Counters &b)
{
    for (const auto &[name, v] : b)
        a[name] += v;
    return a;
}

uint64_t
at(const Counters &c, const std::string &name)
{
    auto it = c.find(name);
    return it == c.end() ? 0 : it->second;
}

// ---- Tracing -------------------------------------------------------------

/**
 * In-memory span recorder. A disabled tracer hands out id 0 and
 * records nothing, so untraced repeats pay one branch per span.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool on() const { return on_; }

    uint64_t
    nextId()
    {
        return on_ ? ids_.fetch_add(1, std::memory_order_relaxed) : 0;
    }

    void
    record(uint64_t id, const char *name, Clock::time_point start,
           Clock::time_point end, uint64_t parent, uint64_t campaign)
    {
        if (!on_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        const size_t tid =
            tids_.try_emplace(std::this_thread::get_id(), tids_.size() + 1)
                .first->second;
        spans_.push_back({id, name, seconds(t0_, start) * 1e6,
                          seconds(start, end) * 1e6, parent, campaign, tid});
    }

    /** Chrome trace-event JSON ("X" complete events, µs). */
    std::string
    chromeJson() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::string out = "{\"traceEvents\": [\n";
        char buf[384];
        for (size_t i = 0; i < spans_.size(); ++i) {
            const SpanRec &s = spans_[i];
            std::snprintf(
                buf, sizeof(buf),
                "%s{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                "\"dur\": %.3f, \"pid\": 1, \"tid\": %zu, \"args\": "
                "{\"id\": %llu, \"parent\": %llu, \"campaign\": %llu}}",
                i ? ",\n" : "", s.name, s.ts, s.dur, s.tid,
                static_cast<unsigned long long>(s.id),
                static_cast<unsigned long long>(s.parent),
                static_cast<unsigned long long>(s.campaign));
            out += buf;
        }
        out += "\n], \"displayTimeUnit\": \"ms\"}\n";
        return out;
    }

    size_t
    spanCount() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_.size();
    }

  private:
    struct SpanRec
    {
        uint64_t id;
        const char *name;
        double ts, dur;
        uint64_t parent, campaign;
        size_t tid;
    };

    const bool on_;
    const Clock::time_point t0_;
    std::atomic<uint64_t> ids_{1};
    mutable std::mutex mutex_;
    std::vector<SpanRec> spans_;        ///< guarded by mutex_
    std::map<std::thread::id, size_t> tids_; ///< guarded by mutex_
};

/** A span from construction to destruction. */
class Span
{
  public:
    Span(Tracer &t, const char *name, uint64_t parent, uint64_t campaign)
        : t_(t), name_(name), id_(t.nextId()), parent_(parent),
          campaign_(campaign), start_(Clock::now())
    {}
    ~Span()
    {
        t_.record(id_, name_, start_, Clock::now(), parent_, campaign_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint64_t id() const { return id_; }

  private:
    Tracer &t_;
    const char *name_;
    uint64_t id_, parent_, campaign_;
    Clock::time_point start_;
};

// ---- Per-run latency -----------------------------------------------------

/**
 * Per-run latency from CampaignSpec::onRunComplete: the interval
 * between consecutive completions on one worker thread, kept in a
 * thread-local last timestamp. A worker's first run is measured from
 * the start of the injection phase, which finish() supplies once the
 * run() call has returned (the pioneer's length is known only then).
 * Each RunClock has its own epoch so a thread-local timestamp from an
 * earlier run() call never leaks in.
 */
class RunClock
{
  public:
    RunClock(Tracer &tracer, uint64_t parent, uint64_t campaign)
        : tracer_(tracer), parent_(parent), campaign_(campaign),
          epoch_(nextEpoch().fetch_add(1) + 1)
    {}

    RunClock(const RunClock &) = delete;
    RunClock &operator=(const RunClock &) = delete;

    std::function<void()>
    hook()
    {
        return [this] { onRunComplete(); };
    }

    /** Sample every worker's first run from @p injectionStart. */
    void
    finish(Clock::time_point injectionStart)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (Clock::time_point t : firsts_) {
            samples_.push_back(seconds(injectionStart, t) * 1e3);
            tracer_.record(tracer_.nextId(), "injected_run", injectionStart,
                           t, parent_, campaign_);
        }
        firsts_.clear();
    }

    const std::vector<double> &samplesMs() const { return samples_; }

  private:
    static std::atomic<uint64_t> &
    nextEpoch()
    {
        static std::atomic<uint64_t> e{0};
        return e;
    }

    void
    onRunComplete()
    {
        thread_local uint64_t tlEpoch = 0;
        thread_local Clock::time_point tlLast;
        const Clock::time_point t = Clock::now();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (tlEpoch == epoch_)
                samples_.push_back(seconds(tlLast, t) * 1e3);
            else
                firsts_.push_back(t);
        }
        if (tlEpoch == epoch_)
            tracer_.record(tracer_.nextId(), "injected_run", tlLast, t,
                           parent_, campaign_);
        tlEpoch = epoch_;
        tlLast = t;
    }

    Tracer &tracer_;
    const uint64_t parent_, campaign_, epoch_;
    std::mutex mutex_;
    std::vector<double> samples_;           ///< guarded by mutex_
    std::vector<Clock::time_point> firsts_; ///< guarded by mutex_
};

// ---- Calibration -----------------------------------------------------------

/**
 * The host-neutral yardstick: a fixed integer loop mixing dependent
 * loads, stores and multiplies over a 64 KiB table. The working set
 * stays in the core's private caches: on a shared host the cycle
 * loop's time follows core-bound code, while a loop over a table past
 * the last-level cache moved with other tenants' memory traffic
 * instead (see NOTES.md). Returns the nanoseconds of each of 9 timed
 * loops.
 */
std::vector<double>
calibrationNs()
{
    constexpr uint32_t kMask = (1u << 14) - 1;
    std::vector<uint32_t> table(kMask + 1);
    uint32_t x = 12345;
    for (uint32_t &v : table) {
        x = x * 1664525u + 1013904223u;
        v = x;
    }
    std::vector<double> ns;
    uint32_t sink = 0;
    for (int rep = 0; rep < 9; ++rep) {
        const auto t0 = Clock::now();
        uint32_t h = 1;
        for (uint32_t i = 0; i < (1u << 19); ++i) {
            h = (table[h & kMask] ^ (h * 0x9e3779b1u)) + i;
            table[(h >> 7) & kMask] += h;
        }
        ns.push_back(seconds(t0, Clock::now()) * 1e9);
        sink ^= h;
    }
    gSink = sink;
    return ns;
}

/**
 * Median yardstick loop on the host the bounds were set on (NOTES.md),
 * the speed end-to-end host times are reported at.
 */
constexpr double kReferenceYardstickNs = 2.6e6;

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---- One campaign ----------------------------------------------------------

struct Context
{
    const WorkloadDef &w;
    uint64_t seed;
    uint32_t runs;
    sim::GpuConfig card;
    fi::WorkloadFactory factory;
    std::string workDir;
};

fi::CampaignSpec
makeSpec(const Context &ctx, uint32_t runs)
{
    fi::CampaignSpec spec;
    spec.kernelName = ctx.w.kernel;
    spec.target = ctx.w.target;
    spec.model = ctx.w.model;
    spec.runs = runs;
    spec.seed = ctx.seed;
    spec.keepRecords = true;
    spec.anatomy = ctx.w.anatomy;
    spec.trace = ctx.w.anatomy;
    return spec;
}

/** Merge, format and parse of a set of shard journals. */
struct Durable
{
    double mergeMs = 0, formatMs = 0, parseMs = 0;
    std::vector<std::string> lines;     ///< merged log record lines
    uint32_t campaigns = 0, missing = 0, duplicates = 0, healed = 0;
    uint32_t parsed = 0, malformed = 0;
    fi::CampaignResult parsedResult;
};

Durable
mergeFormatParse(const std::vector<std::string> &journals, Tracer &tr,
                 uint64_t parent, uint64_t campaign)
{
    Durable d;
    fi::MergeReport report;
    {
        Span s(tr, "merge", parent, campaign);
        const auto t0 = Clock::now();
        std::string err;
        if (!fi::mergeShardJournals(journals, report, &err))
            throw std::runtime_error("journal merge failed: " + err);
        d.mergeMs = seconds(t0, Clock::now()) * 1e3;
    }
    std::string text;
    {
        Span s(tr, "format", parent, campaign);
        const auto t0 = Clock::now();
        text = fi::formatMergedRunLog(report);
        d.formatMs = seconds(t0, Clock::now()) * 1e3;
    }
    {
        Span s(tr, "parse", parent, campaign);
        const auto t0 = Clock::now();
        std::istringstream in(text);
        fi::RunLogSummary sum = fi::parseRunLogTolerant(in);
        d.parseMs = seconds(t0, Clock::now()) * 1e3;
        d.parsed = sum.parsed;
        d.malformed = sum.malformed;
        d.parsedResult = sum.result;
    }
    d.campaigns = static_cast<uint32_t>(report.campaigns.size());
    for (const fi::MergedCampaign &c : report.campaigns)
        d.missing += static_cast<uint32_t>(c.missing.size());
    d.duplicates = report.duplicates;
    d.healed = report.healedLines;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);)
        if (!line.empty() && line[0] != '#')
            d.lines.push_back(line);
    return d;
}

/** What one run() call (one shard) executed. */
struct ShardRun
{
    std::vector<fi::RunRecord> records;  ///< owned runs, index order
    bool pioneered = false;             ///< built a snapshot ladder
};

/** One measured campaign repeat. */
struct Repeat
{
    bool traced = false;
    double wallS = 0, goldenS = 0, pioneerS = 0, injectS = 0;
    std::vector<double> calibNs;    ///< yardstick loops just before
    Counters golden;        ///< obs delta of golden()
    Counters runs;          ///< obs delta summed over the run() calls
    std::vector<ShardRun> shards;
    fi::CampaignResult result;
    /** All runs in index order and one log line each; kept for the
     * first repeat only, later repeats keep their digest and size. */
    std::vector<fi::RunRecord> records;
    std::vector<std::string> lines;
    uint64_t linesDigest = 0;
    size_t lineCount = 0;
    std::vector<double> latMs;
    bool durable = false;
    Durable merged;
    fi::GoldenRun goldenRun;
    std::vector<std::pair<std::string, uint64_t>> exact;
};

double
exactOf(const Repeat &r, const std::string &name)
{
    for (const auto &[k, v] : r.exact)
        if (k == name)
            return static_cast<double>(v);
    throw std::logic_error("no exact count " + name);
}

Repeat
runCampaign(const Context &ctx, Tracer &tr, uint64_t campaign)
{
    const WorkloadDef &w = ctx.w;
    Repeat rep;
    rep.traced = tr.on();
    Span root(tr, "campaign", 0, campaign);
    const auto t0 = Clock::now();
    fi::CampaignRunner runner(ctx.card, ctx.factory, w.threads);
    {
        Span s(tr, "golden", root.id(), campaign);
        const Counters b = readObs();
        const auto g0 = Clock::now();
        rep.goldenRun = runner.golden();
        rep.goldenS = seconds(g0, Clock::now());
        rep.golden = readObs() - b;
    }

    std::vector<std::string> journals;
    for (uint32_t shard = 0; shard < w.shards; ++shard) {
        fi::CampaignSpec spec = makeSpec(ctx, ctx.runs);
        spec.shardIndex = shard;
        spec.shardCount = w.shards;
        Span s(tr, w.shards > 1 ? "shard" : "run", root.id(), campaign);
        RunClock clock(tr, s.id(), campaign);
        spec.onRunComplete = clock.hook();
        std::unique_ptr<fi::RunJournal> journal;
        if (w.shards > 1) {
            journals.push_back(ctx.workDir + "/shard" +
                               std::to_string(shard) + ".journal");
            std::filesystem::remove(journals.back());
            journal = std::make_unique<fi::RunJournal>();
            journal->open(journals.back());
        }
        ShardRun sr;
        const Counters b = readObs();
        const auto r0 = Clock::now();
        fi::CampaignResult res =
            runner.run(spec, &sr.records, journal.get());
        const double wall = seconds(r0, Clock::now());
        const Counters d = readObs() - b;
        if (journal)
            journal->close();
        const double pioneer = at(d, "campaign.phase_us.pioneer") / 1e6;
        clock.finish(r0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(pioneer)));
        rep.pioneerS += pioneer;
        rep.injectS += wall - pioneer;
        sr.pioneered = at(d, "snapshot.captures") > 0;
        rep.runs += d;
        rep.result.merge(res);
        rep.latMs.insert(rep.latMs.end(), clock.samplesMs().begin(),
                         clock.samplesMs().end());
        rep.shards.push_back(std::move(sr));
    }

    if (w.shards > 1) {
        rep.durable = true;
        rep.merged = mergeFormatParse(journals, tr, root.id(), campaign);
    }
    rep.wallS = seconds(t0, Clock::now());

    for (const ShardRun &sr : rep.shards)
        rep.records.insert(rep.records.end(), sr.records.begin(),
                           sr.records.end());
    std::sort(rep.records.begin(), rep.records.end(),
              [](const fi::RunRecord &a, const fi::RunRecord &b) {
                  return a.runIdx < b.runIdx;
              });
    if (rep.durable) {
        rep.lines = std::move(rep.merged.lines);
    } else {
        for (const fi::RunRecord &r : rep.records)
            rep.lines.push_back(fi::formatRunRecord(r));
    }
    rep.lineCount = rep.lines.size();
    for (const std::string &l : rep.lines)
        rep.linesDigest = rep.linesDigest * 0x100000001b3ULL ^
                          std::hash<std::string>{}(l);
    return rep;
}

/**
 * One set-up sample: a fresh runner's golden run, then run() with the
 * drain flag already raised, so it draws the plans and captures the
 * snapshot ladder (when the model allows one) but starts no injected
 * run. Returns {golden seconds, pre-run seconds}.
 */
std::pair<double, double>
setupSample(const Context &ctx, Tracer &tr, uint64_t campaign)
{
    Span root(tr, "setup", 0, campaign);
    fi::CampaignRunner runner(ctx.card, ctx.factory, ctx.w.threads);
    double golden = 0, pre = 0;
    {
        Span s(tr, "golden", root.id(), campaign);
        const auto t0 = Clock::now();
        runner.golden();
        golden = seconds(t0, Clock::now());
    }
    const std::atomic<bool> cancel{true};
    for (uint32_t shard = 0; shard < ctx.w.shards; ++shard) {
        fi::CampaignSpec spec = makeSpec(ctx, ctx.runs);
        spec.shardIndex = shard;
        spec.shardCount = ctx.w.shards;
        spec.cancel = &cancel;
        Span s(tr, "pioneer", root.id(), campaign);
        const auto t0 = Clock::now();
        fi::CampaignResult res = runner.run(spec);
        pre += seconds(t0, Clock::now());
        if (res.runs() != 0)
            throw std::runtime_error("set-up sample executed runs");
    }
    return {golden, pre};
}

// ---- Stepped-count attribution ---------------------------------------------

/** Simulated tallies at one point of the golden execution. */
struct Tally
{
    uint64_t winst = 0, l1dAcc = 0, l1dMiss = 0, l2Acc = 0, l2Miss = 0,
             l1cAcc = 0;

    Tally &
    operator+=(const Tally &o)
    {
        winst += o.winst;
        l1dAcc += o.l1dAcc;
        l1dMiss += o.l1dMiss;
        l2Acc += o.l2Acc;
        l2Miss += o.l2Miss;
        l1cAcc += o.l1cAcc;
        return *this;
    }
};

Tally
tallyOf(const sim::Gpu &g)
{
    Tally t;
    t.winst = g.warpInstructions();
    for (uint32_t i = 0; i < g.numCores(); ++i) {
        const sim::SimtCore &c = g.core(i);
        if (const mem::Cache *l1d = c.l1d()) {
            t.l1dAcc += l1d->stats().reads + l1d->stats().writes;
            t.l1dMiss += l1d->stats().readMisses + l1d->stats().writeMisses;
        }
        t.l1cAcc += c.l1c()->stats().reads + c.l1c()->stats().writes;
    }
    const mem::CacheStats l2 = g.l2().stats();
    t.l2Acc = l2.reads + l2.writes;
    t.l2Miss = l2.readMisses + l2.writeMisses;
    return t;
}

/**
 * The snapshot ladder CampaignRunner builds for a fast-forwarded
 * run() call: `budget` quantiles over the distinct injection cycles
 * of the runs it executes, the earliest always included. Each run
 * restores the nearest ladder cycle at or below its injection cycle.
 * Mirrored here only to subtract the restored prefix (warp
 * instructions and cache counters come back with the snapshot) from
 * the obs deltas; the mirror is cross-checked against the published
 * snapshot.ff_runs and snapshot.ff_cycles_saved on every repeat.
 */
std::vector<uint64_t>
ladderFor(const std::vector<fi::RunRecord> &records, uint32_t budget)
{
    std::vector<uint64_t> cycles;
    for (const fi::RunRecord &r : records)
        cycles.push_back(r.plan.cycle);
    std::sort(cycles.begin(), cycles.end());
    cycles.erase(std::unique(cycles.begin(), cycles.end()), cycles.end());
    const size_t n = std::min<size_t>(std::max<uint32_t>(budget, 1),
                                      cycles.size());
    std::vector<uint64_t> ladder;
    for (size_t k = 0; k < n; ++k)
        ladder.push_back(cycles[(k * cycles.size()) / n]);
    return ladder;
}

uint64_t
restoredCycle(const std::vector<uint64_t> &ladder, uint64_t cycle)
{
    auto it = std::upper_bound(ladder.begin(), ladder.end(), cycle);
    if (it == ladder.begin())
        throw std::runtime_error("injection cycle below the ladder");
    return *(it - 1);
}

/** Layer micro-timer results on a mid-kernel golden state (µs). */
struct MicroTimes
{
    double stateHashUs = 0, captureUs = 0, digestUs = 0;
};

/**
 * Time @p fn repeatedly (at least 15 calls, about 20 ms in all) and
 * return the median per-call microseconds.
 */
template <typename Fn>
double
microTime(Fn &&fn)
{
    std::vector<double> us;
    const auto start = Clock::now();
    while (us.size() < 15 ||
           (seconds(start, Clock::now()) < 0.02 && us.size() < 4000)) {
        const auto t0 = Clock::now();
        fn();
        us.push_back(seconds(t0, Clock::now()) * 1e6);
    }
    return median(us);
}

/**
 * One golden execution that records the tallies at every requested
 * cycle and runs the layer micro-timers (Gpu::stateHash,
 * Gpu::captureSnapshot, GpuSnapshot::computeDigest) at @p midCycle.
 */
std::map<uint64_t, Tally>
probeGolden(const Context &ctx, const std::set<uint64_t> &cycles,
            uint64_t midCycle, MicroTimes &micro, Tracer &tr,
            uint64_t campaign)
{
    Span root(tr, "layer_micro_timers", 0, campaign);
    std::map<uint64_t, Tally> tallies;
    auto wl = ctx.factory();
    mem::DeviceMemory dmem(wl->memBytes());
    wl->setup(dmem);
    sim::Gpu gpu(ctx.card, dmem);
    for (uint64_t c : cycles)
        gpu.scheduleInjection(c, [&tallies, c](sim::Gpu &g) {
            tallies[c] = tallyOf(g);
        });
    gpu.scheduleInjection(midCycle, [&](sim::Gpu &g) {
        {
            Span s(tr, "state_hash", root.id(), campaign);
            micro.stateHashUs = microTime([&] { gSink = g.stateHash().a; });
        }
        auto snap = std::make_unique<sim::GpuSnapshot>();
        {
            Span s(tr, "snapshot_capture", root.id(), campaign);
            micro.captureUs = microTime([&] { g.captureSnapshot(*snap); });
        }
        {
            Span s(tr, "snapshot_digest", root.id(), campaign);
            micro.digestUs =
                microTime([&] { gSink = snap->computeDigest().a; });
        }
    });
    wl->run(gpu);
    return tallies;
}

/**
 * Journal, shard-merge and run-log layer timers for workloads whose
 * campaign keeps no journal: the campaign's first records (at most
 * 64) are appended to two shard journals exactly as a sharded
 * campaign would, then merged, formatted and parsed. Outside every
 * measured repeat.
 */
struct DurableMicro
{
    double appendUs = 0, bytes = 0;
    Durable d;
};

DurableMicro
durableMicro(const Context &ctx, const Repeat &rep, Tracer &tr,
             uint64_t campaign)
{
    Span root(tr, "journal_micro", 0, campaign);
    const uint32_t n =
        static_cast<uint32_t>(std::min<size_t>(rep.records.size(), 64));
    fi::CampaignSpec spec = makeSpec(ctx, n);
    const uint64_t fp = fi::campaignFingerprint(spec);
    std::vector<fi::FaultPlan> plans;
    for (uint32_t i = 0; i < n; ++i)
        plans.push_back(rep.records[i].plan);
    const uint64_t digest = fi::planVectorDigest(plans);

    DurableMicro out;
    std::vector<std::string> paths;
    std::vector<double> us;
    for (uint32_t shard = 0; shard < 2; ++shard) {
        paths.push_back(ctx.workDir + "/micro" + std::to_string(shard) +
                        ".journal");
        std::filesystem::remove(paths.back());
        fi::RunJournal j;
        j.open(paths.back());
        j.annotateShard(fp, fi::ShardAnnotation{{shard, 2}, n, digest});
        Span s(tr, "journal_append", root.id(), campaign);
        for (uint32_t i = shard; i < n; i += 2) {
            const auto t0 = Clock::now();
            j.append(fp, rep.records[i]);
            us.push_back(seconds(t0, Clock::now()) * 1e6);
        }
        j.close();
        out.bytes += static_cast<double>(
            std::filesystem::file_size(paths.back()));
    }
    double sum = 0;
    for (double u : us)
        sum += u;
    out.appendUs = us.empty() ? 0.0 : sum / static_cast<double>(us.size());
    out.d = mergeFormatParse(paths, tr, root.id(), campaign);
    if (out.d.missing || out.d.duplicates || out.d.healed ||
        out.d.parsed != n)
        throw std::runtime_error("journal micro-timer merge is incomplete");
    return out;
}

// ---- Output check ----------------------------------------------------------

/** A run-log line without its propagation-trace (tr.*) keys. */
std::string
withoutTrace(const std::string &line)
{
    std::istringstream in(line);
    std::string out;
    for (std::string key; in >> key;)
        if (key.rfind("tr.", 0) != 0)
            out += (out.empty() ? "" : " ") + key;
    return out;
}

/**
 * The reference-path output check; appends one line per failed
 * condition to @p why. Runs after every measured delta was read.
 */
bool
outputsOk(const Context &ctx, const std::vector<Repeat> &reps,
          const std::vector<std::string> &lines, Tracer &tr,
          std::vector<std::string> &why, uint32_t &traceTruncated)
{
    Span root(tr, "reference_check", 0, 0);
    sim::GpuConfig ref = ctx.card;
    ref.setFastPath(false);
    fi::CampaignRunner runner(ref, ctx.factory, 1);

    // (a) golden output and cycle count equal the reference
    // interpreter's.
    const fi::GoldenRun &g = runner.golden();
    const fi::GoldenRun &fast = reps.front().goldenRun;
    if (g.output != fast.output)
        why.push_back("(a) golden output differs from the reference");
    if (g.totalCycles != fast.totalCycles)
        why.push_back("(a) golden cycles " +
                      std::to_string(fast.totalCycles) + " != reference " +
                      std::to_string(g.totalCycles));

    // (b) a prefix of run indices re-executed with every fast knob
    // off yields byte-identical records (plans depend only on the
    // seed and the run index). A propagation trace ends where its run
    // ends (DESIGN.md §15), and early convergence ends a Masked run
    // before the all-off reference does, so the tr.* keys are held
    // to the twin-run reference (`gpufi --no-fastpath --no-reuse`:
    // same ladder and early termination, every fast path off) and
    // every other key to the all-off reference.
    const uint32_t prefix = std::min(ctx.w.refPrefix, ctx.runs);
    auto reference = [&](bool early) {
        fi::CampaignSpec spec = makeSpec(ctx, prefix);
        spec.fastForward = early;
        spec.earlyTermination = early;
        spec.deltaSnapshots = false;
        spec.reuseGpus = false;
        std::vector<fi::RunRecord> recs;
        runner.run(spec, &recs);
        std::vector<std::string> out;
        for (const fi::RunRecord &r : recs)
            out.push_back(fi::formatRunRecord(r));
        return out;
    };
    const std::vector<std::string> allOff = reference(false);
    const std::vector<std::string> twin =
        ctx.w.anatomy ? reference(true) : allOff;
    if (lines.size() < prefix)
        why.push_back("(b) fewer records than the reference prefix");
    auto mismatch = [&](uint32_t i, const std::string &want,
                        const char *which) {
        why.push_back("(b) run " + std::to_string(i) + " differs from the " +
                      which + " reference:\n  got  " + lines[i] +
                      "\n  want " + want);
    };
    for (uint32_t i = 0; i < prefix && i < lines.size(); ++i) {
        if (withoutTrace(lines[i]) != withoutTrace(allOff[i])) {
            mismatch(i, allOff[i], "all-off");
            break;
        }
        if (lines[i] != twin[i]) {
            mismatch(i, twin[i], "twin-run");
            break;
        }
        if (lines[i] != allOff[i])
            ++traceTruncated;
    }

    // (c) outcome tallies sum to the runs attempted; (d) the durable
    // path lost, duplicated and healed nothing.
    for (const Repeat &r : reps) {
        if (r.result.runs() != ctx.runs || r.lineCount != ctx.runs)
            why.push_back("(c) tallies sum to " +
                          std::to_string(r.result.runs()) + " of " +
                          std::to_string(ctx.runs) + " runs attempted");
        if (r.durable &&
            (r.merged.campaigns != 1 || r.merged.missing ||
             r.merged.duplicates || r.merged.healed ||
             r.merged.parsed != ctx.runs || r.merged.malformed ||
             r.merged.parsedResult.counts != r.result.counts))
            why.push_back("(d) merge: missing " +
                          std::to_string(r.merged.missing) + ", duplicates " +
                          std::to_string(r.merged.duplicates) + ", healed " +
                          std::to_string(r.merged.healed) + ", parsed " +
                          std::to_string(r.merged.parsed));
    }
    return why.empty();
}

// ---- Reporting -------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * The highest percentile of {99.9, 99, 90, 50} with at least 10
 * samples beyond it (p50 below 100 samples), by nearest rank, and its
 * value.
 */
std::pair<double, double>
tailOf(std::vector<double> v)
{
    if (v.empty())
        return {50.0, 0.0};
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    for (uint32_t permille : {999u, 990u, 900u, 500u}) {
        const size_t rank = (permille * n + 999) / 1000; // 1-based
        if (n - rank >= 10 || permille == 500)
            return {permille / 10.0, v[std::max<size_t>(rank, 1) - 1]};
    }
    return {50.0, v[n / 2]};
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
    std::string workDir = ".";
    bool smoke = false;
    bool tamper = false;
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: campaign_bench --workload NAME --seed N "
                 "--seconds S [--trace 0|1] [--trace-out FILE]\n"
                 "                      [--work-dir DIR] [--smoke] "
                 "[--tamper]\nworkloads:");
    for (const WorkloadDef &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

int
benchMain(const Args &args)
{
    const WorkloadDef *wp = findWorkload(args.workload);
    if (!wp)
        return usage();
    Context ctx{*wp,
                args.seed,
                args.smoke ? wp->smokeRuns : wp->runs,
                sim::makeRtx2060(),
                suite::factoryFor(wp->bench),
                args.workDir};
    std::filesystem::create_directories(ctx.workDir);
    const WorkloadDef &w = ctx.w;

    Tracer tracer(args.trace);
    Tracer off(false);

    // Measured rounds until --seconds is used up, at least two. A
    // round is the yardstick (just before the workload, on the same
    // host state), one campaign repeat, then kSetupSamples set-up
    // samples (golden run, plans and pioneer/ladder capture of a fresh
    // runner), so set-up is sampled across the whole run. Under
    // --trace 1 untraced and traced rounds alternate.
    constexpr int kSetupSamples = 8;
    std::vector<Repeat> reps;
    std::vector<double> goldenS, pioneerS, setupS, roundS;
    double rssMb = 0;
    const auto start = Clock::now();
    while (reps.size() < 2 ||
           (seconds(start, Clock::now()) + median(roundS) <= args.seconds &&
            reps.size() < 64)) {
        const auto r0 = Clock::now();
        const bool traced = args.trace && reps.size() % 2 == 1;
        Tracer &tr = traced ? tracer : off;
        std::vector<double> calibNs = calibrationNs();
        Repeat rep = runCampaign(ctx, tr, reps.size() + 1);
        rep.calibNs = std::move(calibNs);
        if (reps.empty()) {
            // The peak of a process that ran one campaign, as a user's
            // does; read later, heap reuse across rounds made it
            // depend on how many rounds fit in --seconds.
            rssMb = peakRssMb();
        } else {
            // Only the first repeat's records are checked in full;
            // later ones are compared by digest.
            rep.records = {};
            rep.lines = {};
            for (ShardRun &sr : rep.shards)
                sr.records = {};
        }
        reps.push_back(std::move(rep));
        for (int i = 0; i < kSetupSamples; ++i) {
            auto [g, p] = setupSample(ctx, tr, 1000 * reps.size() + i);
            goldenS.push_back(g);
            pioneerS.push_back(p);
            setupS.push_back(g + p);
        }
        roundS.push_back(seconds(r0, Clock::now()));
    }

    // Attribute stepped work: subtract each pioneer (an exact re-run
    // of the golden execution) and each fast-forwarded run's restored
    // prefix from the run() deltas. Plans, and so ladders, are the
    // same in every repeat; the first repeat's records stand for all.
    const uint32_t budget = fi::CampaignSpec{}.snapshotBudget;
    const std::vector<ShardRun> &plansOf = reps.front().shards;
    std::vector<std::vector<uint64_t>> ladders;
    std::set<uint64_t> probeCycles;
    for (const ShardRun &sr : plansOf) {
        ladders.push_back(sr.pioneered ? ladderFor(sr.records, budget)
                                       : std::vector<uint64_t>{});
        probeCycles.insert(ladders.back().begin(), ladders.back().end());
    }
    const fi::KernelProfile &prof =
        reps.front().goldenRun.profile(w.kernel);
    const auto &win = prof.windows.front();
    const uint64_t midCycle = win.first + (win.second - win.first) / 2;
    MicroTimes micro;
    const std::map<uint64_t, Tally> tallies =
        probeGolden(ctx, probeCycles, midCycle, micro, tracer, 2000);

    bool attributed = true;
    for (size_t ri = 0; ri < reps.size(); ++ri) {
        Repeat &r = reps[ri];
        Tally prefix;
        uint64_t ffRuns = 0, ffCycles = 0, pioneers = 0;
        for (size_t si = 0; si < r.shards.size(); ++si) {
            const ShardRun &sr = r.shards[si];
            if (!sr.pioneered)
                continue;
            ++pioneers;
            for (const fi::RunRecord &rec : plansOf[si].records) {
                const uint64_t c =
                    restoredCycle(ladders[si], rec.plan.cycle);
                prefix += tallies.at(c);
                ffCycles += c;
                ++ffRuns;
            }
        }
        if (ffRuns != at(r.runs, "snapshot.ff_runs") ||
            ffCycles != at(r.runs, "snapshot.ff_cycles_saved")) {
            attributed = false;
            prefix = Tally{};
        }
        auto D = [&](const std::string &n) {
            return at(r.runs, n) - pioneers * at(r.golden, n);
        };
        auto acc = [&](const std::string &lvl) {
            return D("cache." + lvl + ".reads") +
                   D("cache." + lvl + ".writes");
        };
        auto miss = [&](const std::string &lvl) {
            return D("cache." + lvl + ".read_misses") +
                   D("cache." + lvl + ".write_misses");
        };
        r.exact = {
            {"sim.cycles_stepped",
             D("sim.cycles") - at(r.runs, "snapshot.ff_cycles_saved")},
            {"sim.warp_insts", D("sim.warp_instructions") - prefix.winst},
            {"sim.idle_cycles_skipped", D("sim.idle_cycles_skipped")},
            {"sched.issue_cycles", D("sched.issue_cycles")},
            {"sched.stall_cycles", D("sched.stall_cycles")},
            {"sim.convergence_checks", D("sim.convergence_checks")},
            {"sim.early_converged", D("sim.early_converged")},
            {"sim.snapshot.restores", at(r.runs, "snapshot.restores")},
            {"sim.snapshot.ff_cycles_saved",
             at(r.runs, "snapshot.ff_cycles_saved")},
            {"fi.campaign.early_term_cycles_saved",
             at(r.runs, "campaign.early_term_cycles_saved")},
            {"mem.l1d.accesses", acc("l1d") - prefix.l1dAcc},
            {"mem.l1d.misses", miss("l1d") - prefix.l1dMiss},
            {"mem.l2.accesses", acc("l2") - prefix.l2Acc},
            {"mem.l2.misses", miss("l2") - prefix.l2Miss},
            {"mem.l1c.accesses", acc("l1c") - prefix.l1cAcc},
            {"fi.campaign.retries", at(r.runs, "campaign.retries")},
            {"fi.anatomy.sdc_diffs", r.result.anatomy.sdcWithAnatomy},
            {"fi.anatomy.traced_runs", r.result.anatomy.tracedRuns},
        };
        for (size_t o = 0; o < r.result.counts.size(); ++o)
            r.exact.emplace_back(
                std::string("fi.campaign.outcome.") +
                    fi::outcomeName(static_cast<fi::Outcome>(o)),
                r.result.counts[o]);
    }
    if (!attributed)
        std::fprintf(stderr,
                     "warning: the mirrored snapshot ladder disagrees with "
                     "snapshot.ff_runs/ff_cycles_saved; warp-instruction and "
                     "cache counts include restored prefixes\n");

    // Exact-count determinism: every repeat simulated the same work
    // and wrote the same records.
    std::vector<std::string> why;
    for (const Repeat &r : reps) {
        if (r.exact != reps.front().exact)
            why.push_back("exact counts differ between repeats");
        if (r.lineCount != reps.front().lineCount ||
            r.linesDigest != reps.front().linesDigest)
            why.push_back("run records differ between repeats");
    }
    const bool deterministic = why.empty();

    // Journal / merge / log layers of a journal-less campaign.
    DurableMicro dm;
    if (w.shards == 1)
        dm = durableMicro(ctx, reps.front(), tracer, 3000);

    // The output check, after every measured delta was read. --tamper
    // alters one field of one record first (self-test only).
    std::vector<std::string> checked = reps.front().lines;
    if (args.tamper) {
        fi::RunRecord bad = reps.front().records.front();
        bad.cycles += 1;
        checked.front() = fi::formatRunRecord(bad);
    }
    std::vector<std::string> outputWhy;
    uint32_t traceTruncated = 0;
    const bool outputs = outputsOk(ctx, reps, checked, tracer, outputWhy,
                                   traceTruncated);
    why.insert(why.end(), outputWhy.begin(), outputWhy.end());

    // ---- Aggregate ----------------------------------------------------
    std::vector<double> rps, wall, winstNs, busy, untracedWall, tracedWall,
        mergeMs, formatMs, parseMs, p50s, tails, calibs;
    double tailPct = 0;
    size_t samples = 0;
    uint64_t attempted = 0, failed = 0;
    for (const Repeat &r : reps) {
        attempted += ctx.runs;
        failed += r.result.toolFailures() +
                  (ctx.runs - std::min<uint32_t>(r.result.runs(), ctx.runs));
        (r.traced ? tracedWall : untracedWall).push_back(r.wallS);
        if (r.durable) {
            mergeMs.push_back(r.merged.mergeMs);
            formatMs.push_back(r.merged.formatMs);
            parseMs.push_back(r.merged.parseMs);
        }
        if (r.traced)
            continue;
        rps.push_back(r.result.runs() / r.injectS);
        wall.push_back(r.wallS);
        const double winst = exactOf(r, "sim.warp_insts");
        winstNs.push_back(winst > 0 ? r.injectS * 1e9 / winst : 0.0);
        busy.push_back(at(r.runs, "campaign.run_us.sum") / 1e6 /
                       (static_cast<double>(w.threads) * r.injectS));
        const double p50 = median(r.latMs);
        const auto [pct, tail] = tailOf(r.latMs);
        p50s.push_back(p50);
        tails.push_back(tail);
        tailPct = pct;
        samples = r.latMs.size();
    }
    for (const Repeat &r : reps)
        calibs.insert(calibs.end(), r.calibNs.begin(), r.calibNs.end());
    const Counters &d0 = reps.front().runs;
    const auto &ex = reps.front().exact;
    auto exact = [&](const std::string &n) {
        return exactOf(reps.front(), n);
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double stepped = exact("sim.cycles_stepped");

    // End-to-end host times are reported at the reference host's
    // speed: scaled by the reference yardstick time over this run's.
    // Other tenants of a shared host slow the cycle loop by tens of
    // percent for minutes at a time; the yardstick slows with it, so
    // the scaled figures stay put where the measured ones drift (see
    // NOTES.md). The measured figures are printed beside them.
    const double hostScale = kReferenceYardstickNs / median(calibs);
    const std::vector<Metric> measured = {
        {"runs_per_s", median(rps), "1/s"},
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setupS), "s"},
        {"run_p50_ms", median(p50s), "ms"},
        {"run_tail_ms", median(tails), "ms"},
        {"sim_ns_per_winst", median(winstNs), "ns"},
    };
    std::vector<Metric> e2e;
    for (const Metric &m : measured)
        e2e.push_back({m.name,
                       m.unit == "1/s" ? m.value / hostScale
                                       : m.value * hostScale,
                       m.unit});
    e2e.push_back(
        {"run_cost_cal", median(p50s) * 1e6 / median(calibs), "ratio"});
    e2e.push_back({"peak_rss_mb", rssMb, "MB"});
    std::vector<Metric> layer = {
        {"sim.golden_s", median(goldenS), "s"},
        {"sim.cycles_stepped", stepped, "count"},
        {"sim.warp_insts", exact("sim.warp_insts"), "count"},
        {"sim.idle_cycles_skipped", exact("sim.idle_cycles_skipped"), "count"},
        {"sim.issue_share",
         ratio(exact("sched.issue_cycles"),
               exact("sched.issue_cycles") + exact("sched.stall_cycles")),
         "ratio"},
        {"sim.state_hash_us", micro.stateHashUs, "us"},
        {"sim.convergence_checks", exact("sim.convergence_checks"), "count"},
        {"sim.early_converged", exact("sim.early_converged"), "count"},
        {"sim.snapshot.capture_us", micro.captureUs, "us"},
        {"sim.snapshot.digest_us", micro.digestUs, "us"},
        {"sim.snapshot.restores", exact("sim.snapshot.restores"), "count"},
        {"sim.snapshot.ff_cycles_saved",
         exact("sim.snapshot.ff_cycles_saved"), "count"},
        {"mem.l1d.accesses", exact("mem.l1d.accesses"), "count"},
        {"mem.l1d.miss_ratio",
         ratio(exact("mem.l1d.misses"), exact("mem.l1d.accesses")), "ratio"},
        {"mem.l2.accesses", exact("mem.l2.accesses"), "count"},
        {"mem.l2.miss_ratio",
         ratio(exact("mem.l2.misses"), exact("mem.l2.accesses")), "ratio"},
        {"mem.l1c.accesses", exact("mem.l1c.accesses"), "count"},
        {"fi.campaign.pioneer_s", median(pioneerS), "s"},
        {"fi.campaign.useful_cycle_share",
         ratio(stepped, stepped + exact("sim.snapshot.ff_cycles_saved") +
                            exact("fi.campaign.early_term_cycles_saved")),
         "ratio"},
        {"fi.campaign.retries", exact("fi.campaign.retries"), "count"},
    };
    for (const char *o : {"masked", "performance", "sdc", "crash", "timeout"})
        layer.push_back({std::string("fi.campaign.outcome.") + o,
                         static_cast<double>(at(d0, std::string(
                             "campaign.outcome.") + o)),
                         "count"});
    layer.push_back({"fi.campaign.tool_failure_share",
                     ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)),
                     "ratio"});
    if (w.shards > 1) {
        layer.push_back({"fi.journal.append_us",
                         ratio(static_cast<double>(at(d0, "journal.append_us")),
                               static_cast<double>(at(d0, "journal.appends"))),
                         "us"});
        layer.push_back({"fi.journal.bytes",
                         static_cast<double>(at(d0, "journal.bytes")),
                         "bytes"});
        layer.push_back({"fi.shard.merge_ms", median(mergeMs), "ms"});
        layer.push_back({"fi.report_log.format_ms", median(formatMs), "ms"});
        layer.push_back({"fi.report_log.parse_ms", median(parseMs), "ms"});
    } else {
        layer.push_back({"fi.journal.append_us", dm.appendUs, "us"});
        layer.push_back({"fi.journal.bytes", dm.bytes, "bytes"});
        layer.push_back({"fi.shard.merge_ms", dm.d.mergeMs, "ms"});
        layer.push_back({"fi.report_log.format_ms", dm.d.formatMs, "ms"});
        layer.push_back({"fi.report_log.parse_ms", dm.d.parseMs, "ms"});
    }
    layer.push_back({"fi.anatomy.sdc_diffs", exact("fi.anatomy.sdc_diffs"),
                     "count"});
    layer.push_back({"fi.anatomy.traced_runs",
                     exact("fi.anatomy.traced_runs"), "count"});
    layer.push_back({"common.calib_ns", median(calibs), "ns"});
    layer.push_back({"common.worker_busy_share", median(busy), "ratio"});
    layer.push_back({"run_latency.samples",
                     static_cast<double>(samples), "count"});
    layer.push_back({"run_latency.tail_pct", tailPct, "%"});
    // Tracing overhead: each traced round against the untraced round
    // that follows it (the one before when it is last), so host drift
    // and the first round's cold start stay out of the difference.
    std::vector<double> overhead;
    for (size_t i = 0; i < reps.size(); ++i)
        if (reps[i].traced)
            overhead.push_back(reps[i].wallS -
                               reps[i + 1 < reps.size() ? i + 1 : i - 1].wallS);
    if (args.trace)
        layer.push_back({"trace.overhead_s", median(overhead), "s"});

    // ---- Report -------------------------------------------------------
    std::printf("workload %s | seed %llu | %u runs x %zu repeats "
                "(%zu traced) | %zu worker(s), %u shard(s)\n",
                w.name, static_cast<unsigned long long>(args.seed), ctx.runs,
                reps.size(), tracedWall.size(), w.threads, w.shards);
    for (size_t i = 0; i < reps.size(); ++i)
        std::printf("repeat %zu%s wall %.6f s, golden %.6f s, pioneer "
                    "%.6f s, injection %.6f s, yardstick %.0f ns\n",
                    i + 1, reps[i].traced ? " (traced)" : "", reps[i].wallS,
                    reps[i].goldenS, reps[i].pioneerS, reps[i].injectS,
                    median(reps[i].calibNs));
    std::printf("run_p50_ms and run_tail_ms (p%g) are medians over %zu "
                "untraced repeats of %zu per-run samples each\n",
                tailPct, p50s.size(), samples);
    std::printf("host times at reference speed: yardstick %.0f ns here, "
                "%.0f ns on the reference host\n",
                median(calibs), kReferenceYardstickNs);
    for (const Metric &m : measured)
        std::printf("measured   %-32s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const Metric &m : e2e)
        std::printf("end_to_end %-32s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const Metric &m : layer)
        std::printf("per_layer  %-32s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const auto &[k, v] : ex)
        std::printf("exact      %-32s %llu\n", k.c_str(),
                    static_cast<unsigned long long>(v));
    std::printf("exact counts %s across %zu repeats; stepped-count "
                "attribution %s\n",
                deterministic ? "identical" : "DIFFER", reps.size(),
                attributed ? "cross-checked" : "UNCHECKED");
    std::printf("outputs_ok %s\n", outputs ? "true" : "false");
    if (w.anatomy)
        std::printf("trace keys end at early convergence on %u of %u "
                    "reference-checked runs (the all-off reference traces "
                    "those runs to completion)\n",
                    traceTruncated, std::min(w.refPrefix, ctx.runs));
    for (const std::string &s : why)
        std::printf("  check failed: %s\n", s.c_str());
    if (args.trace) {
        std::printf("tracing overhead %.6f s (median of %zu traced-minus-"
                    "untraced round pairs; traced wall %.6f s, untraced "
                    "%.6f s), %zu spans\n",
                    median(overhead), overhead.size(), median(tracedWall),
                    median(untracedWall), tracer.spanCount());
        if (!args.traceOut.empty()) {
            std::FILE *f = std::fopen(args.traceOut.c_str(), "w");
            if (!f)
                throw std::runtime_error("cannot write " + args.traceOut);
            const std::string json = tracer.chromeJson();
            std::fwrite(json.data(), 1, json.size(), f);
            std::fclose(f);
            std::printf("trace -> %s\n", args.traceOut.c_str());
        }
    }

    const bool correct = outputs && deterministic;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    const std::vector<Metric> &shown = args.trace ? layer : e2e;
    char buf[256];
    for (size_t i = 0; i < shown.size(); ++i) {
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", shown[i].name.c_str(), shown[i].value,
                      shown[i].unit.c_str());
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload")
                args.workload = value();
            else if (a == "--seed")
                args.seed = std::stoull(value());
            else if (a == "--seconds")
                args.seconds = std::stod(value());
            else if (a == "--trace")
                args.trace = std::stoi(value()) != 0;
            else if (a == "--trace-out")
                args.traceOut = value();
            else if (a == "--work-dir")
                args.workDir = value();
            else if (a == "--smoke")
                args.smoke = true;
            else if (a == "--tamper")
                args.tamper = true;
            else
                return usage();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "campaign_bench: %s\n", e.what());
            return usage();
        }
    }
    try {
        return benchMain(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campaign_bench: %s\n", e.what());
        return 3;
    }
}
