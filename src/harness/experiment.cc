#include "harness/experiment.hh"

#include <chrono>

#include "analyze/analyze.hh"
#include "base/logging.hh"
#include "base/strutil.hh"
#include "engine/workspace.hh"
#include "verify/diag.hh"
#include "ir/cfg.hh"
#include "metrics/registry.hh"
#include "vm/atomic_runner.hh"
#include "vm/interp.hh"

namespace fgp {

RunOptions
RunOptions::fromEnv(char *(*lookup)(const char *))
{
    const auto flag = [lookup](const char *name, bool fallback) {
        const char *env = lookup(name);
        if (env && env[0] == '1')
            return true;
        if (env && env[0] == '0')
            return false;
        return fallback;
    };
    RunOptions run;
    run.staticDisambig = flag("FGP_STATIC_DISAMBIG", run.staticDisambig);
    run.oracleSched = flag("FGP_ORACLE_SCHED", run.oracleSched);
    run.checks = flag("FGP_VERIFY", run.checks);
    if (const char *env = lookup("FGP_ORACLE_BUDGET")) {
        const auto budget = parseInt(env);
        if (!budget || *budget < 0)
            fgp_fatal("FGP_ORACLE_BUDGET must be a non-negative integer, "
                      "not '", env, "'");
        run.oracleBudget = static_cast<std::size_t>(*budget);
    }
    return run;
}

void
translateForRun(CodeImage &image, const MachineConfig &config,
                const RunOptions &run, TranslateOptions base,
                EngineOptions *engine, analyze::DisambigImage *facts)
{
    if (run.staticDisambig && !base.disambigHook)
        base.disambigHook = analyze::disambigSchedulingHook();
    if (run.oracleSched && !base.oracleHook) {
        analyze::OracleOptions oracle;
        oracle.maxStates = run.oracleBudget;
        base.oracleHook = analyze::oracleAdoptionHook(oracle);
    }
    base.verify = run.checks;
    translate(image, config, base);

    // The facts are computed over the translated image, so their issue
    // positions match the words the engine simulates.
    if (!engine || !(run.staticDisambig || run.checks))
        return;
    fgp_assert(facts, "translateForRun: engine wiring needs facts storage");
    *facts = analyze::disambigImage(image);
    engine->disambig = facts;
    engine->disambigFastPath = run.staticDisambig;
    engine->disambigXcheck = run.checks;
}

struct ExperimentRunner::Prepared
{
    Workload workload;
    CodeImage single;      ///< raw single-block image
    CodeImage enlarged;    ///< raw enlarged image
    Profile profile;       ///< from input set 1
    EnlargeStats enlargeStats;

    std::uint64_t refNodes = 0; ///< VM dynamic nodes, input set 2
    std::string refStdout;
    int refExit = 0;

    std::vector<std::int32_t> perfectTrace; ///< committed blocks, set 2

    /** Profile static hints: branch pc -> hot direction is taken. */
    std::unordered_map<std::int32_t, bool> profileHints;

    explicit Prepared(Workload wl) : workload(std::move(wl)) {}
};

/** Cache slot: a latch so exactly one thread builds each benchmark. */
struct ExperimentRunner::Entry
{
    std::once_flag built;
    std::unique_ptr<Prepared> prepared;
};

ExperimentRunner::ExperimentRunner(double scale, const RunOptions &run,
                                   EnlargeOptions enlarge_opts)
    : scale_(scale), run_(run), enlargeOpts_(std::move(enlarge_opts))
{
    enlargeOpts_.verify = run_.checks;
}

ExperimentRunner::~ExperimentRunner() = default;

ExperimentRunner::Prepared &
ExperimentRunner::prepare(const std::string &name)
{
    Entry *entry;
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        std::unique_ptr<Entry> &slot = cache_[name];
        if (!slot)
            slot = std::make_unique<Entry>();
        entry = slot.get(); // map nodes are address-stable
    }
    // Build outside the map lock so unrelated benchmarks prepare in
    // parallel; concurrent requests for the same benchmark block here
    // until the one builder finishes.
    std::call_once(entry->built,
                   [&] { entry->prepared = buildPrepared(name); });
    return *entry->prepared;
}

std::unique_ptr<ExperimentRunner::Prepared>
ExperimentRunner::buildPrepared(const std::string &name)
{
    Workload wl = makeWorkload(name);
    wl.setScale(scale_);
    auto prepared = std::make_unique<Prepared>(std::move(wl));
    Prepared &p = *prepared;

    // Phase 1: functional profile run on input set 1.
    {
        metrics::ScopedTimer timer(metrics_, "host.phase.profile_ns");
        SimOS os;
        p.workload.prepareOs(os, InputSet::Profile);
        InterpOptions opts;
        opts.profile = &p.profile;
        const RunResult r = interpret(p.workload.program(), os, opts);
        if (!r.exited || r.exitCode != 0)
            fgp_fatal("workload ", name, " failed its profile run (exit ",
                      r.exitCode, ")");
    }

    // Golden reference on input set 2.
    {
        metrics::ScopedTimer timer(metrics_, "host.phase.reference_ns");
        SimOS os;
        p.workload.prepareOs(os, InputSet::Measure);
        const RunResult r = interpret(p.workload.program(), os);
        if (!r.exited || r.exitCode != 0)
            fgp_fatal("workload ", name, " failed its reference run (exit ",
                      r.exitCode, ")");
        p.refNodes = r.dynamicNodes;
        p.refStdout = os.stdoutText();
        p.refExit = r.exitCode;
    }

    for (const auto &[pc, arc] : p.profile.arcs)
        p.profileHints.emplace(pc, arc.hotIsTaken());

    // Phase 2: images.
    {
        metrics::ScopedTimer timer(metrics_, "host.phase.parse_ns");
        p.single = buildCfg(p.workload.program());
    }
    {
        metrics::ScopedTimer timer(metrics_, "host.phase.enlarge_ns");
        p.enlarged = enlarge(p.single, p.profile, enlargeOpts_,
                             &p.enlargeStats);
    }

    // Committed-block trace of the enlarged image for perfect prediction.
    {
        metrics::ScopedTimer timer(metrics_, "host.phase.trace_ns");
        SimOS os;
        p.workload.prepareOs(os, InputSet::Measure);
        AtomicRunOptions opts;
        opts.recordTrace = true;
        AtomicRunResult r = runAtomic(p.enlarged, os, opts);
        fgp_assert(r.exited && r.exitCode == p.refExit &&
                       os.stdoutText() == p.refStdout,
                   "enlarged image diverges from the reference on ", name);
        p.perfectTrace = std::move(r.blockTrace);
    }

    if (metrics_)
        metrics_->add("harness.workloads_prepared", 1);
    return prepared;
}

ExperimentResult
ExperimentRunner::run(const std::string &name, const MachineConfig &config)
{
    Prepared &p = prepare(name);

    const auto point_start = std::chrono::steady_clock::now();

    const bool enlarged_image = config.branch != BranchMode::Single;
    CodeImage image = enlarged_image ? p.enlarged : p.single;
    EngineOptions opts;
    analyze::DisambigImage disambig_facts;
    {
        metrics::ScopedTimer timer(metrics_, "host.phase.translate_ns");
        translateForRun(image, config, run_, translateOpts_, &opts,
                        &disambig_facts);
    }
    const double static_bound = analyze::staticIpcBound(image);

    SimOS os;
    p.workload.prepareOs(os, InputSet::Measure);

    opts.config = config;
    if (config.branch == BranchMode::Perfect)
        opts.perfectTrace = &p.perfectTrace;
    opts.predictor.staticHint = tweaks_.staticHint;
    if (tweaks_.staticHint == StaticHint::Profile)
        opts.predictor.profileHints = &p.profileHints;
    opts.predictor.rasDepth = tweaks_.rasDepth;
    opts.predictor.direction = tweaks_.direction;
    opts.predictFaultTargets = tweaks_.predictFaultTargets;
    opts.windowOverride = tweaks_.windowOverride;
    opts.conservativeLoads = tweaks_.conservativeLoads;
    opts.metrics = metrics_;

    // Pool the engine's arenas per worker thread: after the first run
    // warms a thread's workspace, every later cell on that thread
    // simulates with zero steady-state allocations.
    static thread_local EngineWorkspace workspace;
    opts.workspace = &workspace;

    // The interval profiler pools its window/residency/retired-log
    // storage the same way: beginRun() clears contents but keeps
    // capacity, so profiled repeat runs also allocate nothing at
    // steady state.
    static thread_local profile::IntervalProfiler profiler;
    if (tweaks_.profileWindow > 0) {
        profiler.setWindowCycles(tweaks_.profileWindow);
        opts.profile = &profiler;
    }

    ExperimentResult result;
    result.workload = name;
    result.config = config;
    {
        metrics::ScopedTimer timer(metrics_, "host.phase.simulate_ns");
        result.engine = simulate(image, os, opts);
    }

    // Every simulated run must reproduce the architectural results.
    if (!result.engine.exited || result.engine.exitCode != p.refExit ||
        os.stdoutText() != p.refStdout) {
        fgp_panic("engine diverged from the functional VM: workload ", name,
                  " config ", config.name());
    }

    // Disambiguation soundness cross-check: a statically proven no-alias
    // pair that overlapped at runtime (or stale facts) is an analysis
    // bug. Render the recorded violations as MD diagnostics and abort.
    if (result.engine.disambigViolations) {
        verify::Report report;
        for (const DisambigViolation &v :
             result.engine.disambigViolationLog) {
            if (v.stale) {
                addDiag(report, verify::Code::DisambigFactsStale,
                        verify::Severity::Error, "translated", v.imageId,
                        v.nodeA, -1,
                        "disambiguation facts do not match the simulated "
                        "image");
            } else {
                addDiag(report, verify::Code::NoAliasViolated,
                        verify::Severity::Error, "translated", v.imageId,
                        v.nodeA, -1, "proven no-alias pair (", v.nodeA,
                        ", ", v.nodeB, ") overlapped at runtime: [",
                        v.addrA, ", +", v.lenA, ") vs [", v.addrB, ", +",
                        v.lenB, ")");
            }
        }
        fgp_panic("static disambiguation unsound: workload ", name,
                  " config ", config.name(), " (",
                  result.engine.disambigViolations, " violations)\n",
                  report.renderText());
    }

    // Static/dynamic cross-check: no run may retire more nodes per cycle
    // than the analyzer's sound bound for its translated image.
    result.staticIpcBound = static_bound;
    if (result.engine.nodesPerCycle() > static_bound * (1.0 + 1e-9)) {
        fgp_panic("static ILP bound violated: workload ", name, " config ",
                  config.name(), " retired ", result.engine.nodesPerCycle(),
                  " nodes/cycle against a static bound of ", static_bound);
    }

    if (opts.profile) {
        result.profile.enabled = true;
        result.profile.windowCycles = profiler.windowCycles();
        result.profile.issueWidth = profiler.issueWidth();
        result.profile.windows = profiler.windows();
        result.profile.residency = profiler.residency();
        result.profile.critPath = profile::extractCriticalPath(
            profiler.retiredLog(), result.engine.cycles,
            image.blocks.size());
    }

    result.cycles = result.engine.cycles;
    result.refNodes = p.refNodes;
    result.nodesPerCycle =
        result.cycles ? static_cast<double>(p.refNodes) /
                            static_cast<double>(result.cycles)
                      : 0.0;
    result.hostNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - point_start)
            .count());
    if (metrics_)
        metrics_->add("harness.sims_done", 1);
    return result;
}

double
ExperimentRunner::meanNodesPerCycle(const MachineConfig &config)
{
    double sum = 0.0;
    for (const std::string &name : workloadNames())
        sum += run(name, config).nodesPerCycle;
    return sum / static_cast<double>(workloadNames().size());
}

double
ExperimentRunner::meanRedundancy(const MachineConfig &config)
{
    double sum = 0.0;
    for (const std::string &name : workloadNames())
        sum += run(name, config).engine.redundancy();
    return sum / static_cast<double>(workloadNames().size());
}

const EnlargeStats &
ExperimentRunner::enlargeStats(const std::string &workload)
{
    return prepare(workload).enlargeStats;
}

std::uint64_t
ExperimentRunner::referenceNodes(const std::string &workload)
{
    return prepare(workload).refNodes;
}

const CodeImage &
ExperimentRunner::singleImage(const std::string &workload)
{
    return prepare(workload).single;
}

const CodeImage &
ExperimentRunner::enlargedImage(const std::string &workload)
{
    return prepare(workload).enlarged;
}

std::unique_ptr<SimOS>
ExperimentRunner::makeOs(const std::string &workload, InputSet set)
{
    Prepared &p = prepare(workload);
    auto os = std::make_unique<SimOS>();
    p.workload.prepareOs(*os, set);
    return os;
}

StallBreakdown
totalStalls(const std::vector<ExperimentResult> &results)
{
    StallBreakdown total;
    for (const ExperimentResult &r : results)
        total.mergeFrom(r.engine.stalls);
    return total;
}

} // namespace fgp
