/**
 * @file
 * Experiment driver reproducing the paper's two-phase protocol (§3.1):
 *
 *  1. run the benchmark functionally on input set 1, collecting the
 *     branch-arc profile;
 *  2. create the basic-block-enlargement image from that profile;
 *  3. simulate on input set 2 (different data, so the branch profile is
 *     not overly biased), translating the image per machine
 *     configuration.
 *
 * Every simulation's architectural output (stdout + exit code) is checked
 * against the functional VM's golden run — a failing configuration is a
 * simulator bug and aborts.
 */

#ifndef FGP_HARNESS_EXPERIMENT_HH
#define FGP_HARNESS_EXPERIMENT_HH

#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analyze/disambig.hh"
#include "analyze/oracle.hh"
#include "arch/config.hh"
#include "bbe/enlarge.hh"
#include "engine/engine.hh"
#include "profile/profile.hh"
#include "tld/translate.hh"
#include "verify/postpass.hh"
#include "vm/profile.hh"
#include "workloads/workloads.hh"

namespace fgp {

namespace metrics { class Registry; }

/**
 * The behaviour knobs of one run. Program entry points (fgpsim's main,
 * every bench main) parse them once with fromEnv() and pass them down
 * explicitly; library code never reads the environment for them. With
 * every field at its default, schedules are those of the greedy,
 * conservatively disambiguated baseline.
 */
struct RunOptions
{
    /**
     * FGP_STATIC_DISAMBIG=1: the tld scheduler and the engine's
     * fast-load path consume statically proven no-alias facts.
     */
    bool staticDisambig = false;

    /**
     * FGP_ORACLE_SCHED=1: translation adopts provably shorter
     * exact-oracle schedules for small blocks.
     */
    bool oracleSched = false;

    /** FGP_ORACLE_BUDGET: search states per adopted oracle block. */
    std::size_t oracleBudget = analyze::OracleOptions{}.maxStates;

    /**
     * FGP_VERIFY=1/0: post-pass verification of enlargement and
     * translation plus the engine's retirement-time disambiguation
     * cross-check. Defaults to the build type (on iff !NDEBUG).
     */
    bool checks = verify::kChecksDefault;

    /**
     * Parse the four knobs from the environment (@p lookup stands in for
     * std::getenv in tests). Flags read "1" as on and "0" as off,
     * anything else keeps the default; a budget that is not a
     * non-negative integer throws FatalError.
     */
    static RunOptions fromEnv(char *(*lookup)(const char *) = std::getenv);
};

/**
 * Translate @p image for @p config as @p run asks, on top of @p base
 * (optimizer ablations; hooks already set there win): the scheduler gets
 * the no-alias hook under staticDisambig and the oracle adoption hook
 * under oracleSched, and the post-pass check follows run.checks. When
 * @p engine is given, the translated image's disambiguation facts are
 * computed into @p facts if the engine consumes them (staticDisambig) or
 * cross-checks them at retirement (checks), and @p engine is pointed at
 * them; @p facts must then outlive the simulate() call.
 */
void translateForRun(CodeImage &image, const MachineConfig &config,
                     const RunOptions &run, TranslateOptions base = {},
                     EngineOptions *engine = nullptr,
                     analyze::DisambigImage *facts = nullptr);

/** One data point. */
struct ExperimentResult
{
    std::string workload;
    MachineConfig config;

    /**
     * The paper's headline metric: reference dynamic nodes (functional VM
     * on the same input) divided by simulated cycles. Equals raw retired
     * nodes per cycle for single-block runs.
     */
    double nodesPerCycle = 0.0;

    std::uint64_t cycles = 0;
    std::uint64_t refNodes = 0;

    /**
     * Host wall time of this point's translate+simulate (nanoseconds);
     * excludes the shared one-time per-benchmark preparation. Pure
     * host-side observation — never feeds back into the simulation.
     */
    std::uint64_t hostNs = 0;

    /**
     * Sound static upper bound on retired nodes per cycle, computed from
     * the translated image before simulation (analyze::staticIpcBound).
     * The harness cross-checks engine.nodesPerCycle() against it after
     * every run.
     */
    double staticIpcBound = 0.0;

    EngineResult engine;

    /**
     * Interval-profile copy-out (windows, per-block residency, measured
     * critical path). Empty (enabled == false) unless the runner's
     * EngineTweaks::profileWindow is nonzero. Profiling never changes
     * the schedule — cycles and stalls are bit-identical either way.
     */
    profile::RunProfile profile;
};

/**
 * Aggregate stall-cause attribution over a set of points (e.g. one
 * configuration across all benchmarks). Sums both the issue-slot and
 * the waiting-node-cycle accountings.
 */
StallBreakdown totalStalls(const std::vector<ExperimentResult> &results);

/**
 * Cached per-benchmark artifacts + configurable input scale.
 *
 * Thread safety: run() and the read accessors may be called from many
 * threads concurrently (see harness/parallel.hh). Each benchmark's
 * one-time preparation is built exactly once under a per-entry latch;
 * after that the cached artifacts are immutable shared state and every
 * run() works on its own copies (image, SimOS, engine). The setters
 * (setTranslateOptions, setEngineTweaks) and the constructor are NOT
 * thread-safe — configure the runner before going parallel.
 */
class ExperimentRunner
{
  public:
    /**
     * @param scale input-size scale (1.0 = default benchmark size).
     * @param run behaviour knobs applied to every run.
     * @param enlarge_opts thresholds for the enlargement pass (its
     *        verify flag is taken from @p run).
     */
    explicit ExperimentRunner(double scale = 1.0, const RunOptions &run = {},
                              EnlargeOptions enlarge_opts = {});
    ~ExperimentRunner();

    /** Run one (benchmark, configuration) point on input set 2. */
    ExperimentResult run(const std::string &workload,
                         const MachineConfig &config);

    /** Override translating-loader options (optimizer ablations). */
    void setTranslateOptions(const TranslateOptions &opts)
    {
        translateOpts_ = opts;
    }

    /**
     * Extra engine knobs applied to every run: predictor configuration
     * (RAS depth, static-hint source), fault-target prediction, window
     * override, conservative disambiguation. When the static-hint source
     * is StaticHint::Profile the per-benchmark hint table from the
     * profiling run is wired in automatically.
     */
    struct EngineTweaks
    {
        StaticHint staticHint = StaticHint::Btfn;
        int rasDepth = 0;
        bool predictFaultTargets = false;
        int windowOverride = 0;
        bool conservativeLoads = false;
        DirectionPredictor direction = DirectionPredictor::TwoBitBtb;

        /**
         * Interval-profiler window in simulated cycles; 0 (the default)
         * disables profiling. When set, every run() carries a
         * profile::RunProfile on its ExperimentResult.
         */
        std::uint64_t profileWindow = 0;
    };

    void setEngineTweaks(const EngineTweaks &tweaks) { tweaks_ = tweaks; }

    /**
     * Attach a run-level metrics registry: host phase timers
     * (host.phase.*_ns for profile/reference/parse/enlarge/trace/
     * translate/simulate), harness progress counters (harness.*) and the
     * engine's per-run counter fold (engine.*) all land in it. The
     * registry itself is thread-safe; setting it is not — configure
     * before going parallel. Null (the default) keeps every instrumented
     * path free.
     */
    void setMetrics(metrics::Registry *registry) { metrics_ = registry; }

    /** Mean nodes/cycle over all five benchmarks for one configuration. */
    double meanNodesPerCycle(const MachineConfig &config);

    /** Mean redundancy over all five benchmarks for one configuration. */
    double meanRedundancy(const MachineConfig &config);

    /** Enlargement statistics of a benchmark's prepared image. */
    const EnlargeStats &enlargeStats(const std::string &workload);

    /** Reference dynamic-node count (input set 2). */
    std::uint64_t referenceNodes(const std::string &workload);

    /** Raw single/enlarged images (for block-size histograms etc.). */
    const CodeImage &singleImage(const std::string &workload);
    const CodeImage &enlargedImage(const std::string &workload);

    /** Fresh OS loaded with the measurement input for a benchmark. */
    std::unique_ptr<SimOS> makeOs(const std::string &workload,
                                  InputSet set = InputSet::Measure);

  private:
    struct Prepared;
    struct Entry;
    Prepared &prepare(const std::string &workload);
    std::unique_ptr<Prepared> buildPrepared(const std::string &workload);

  public:
    /** Input scale this runner was constructed with. */
    double scale() const { return scale_; }

    /** Behaviour knobs this runner was constructed with. */
    const RunOptions &runOptions() const { return run_; }

  private:
    double scale_;
    RunOptions run_;
    EnlargeOptions enlargeOpts_;
    TranslateOptions translateOpts_ = {};
    EngineTweaks tweaks_ = {};
    metrics::Registry *metrics_ = nullptr;
    std::mutex cacheMutex_; ///< guards the cache map shape only
    std::map<std::string, std::unique_ptr<Entry>> cache_;
};

} // namespace fgp

#endif // FGP_HARNESS_EXPERIMENT_HH
