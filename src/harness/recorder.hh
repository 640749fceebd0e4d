/**
 * @file
 * RunRecorder — one object per bench/sweep execution that owns the
 * run-level observability surface:
 *
 *  - a metrics::Registry attached to the ExperimentRunner (host phase
 *    timers, harness counters, engine counter folds);
 *  - the stderr progress sink (TTY status line / JSONL heartbeats) to
 *    pass into runSweep();
 *  - the `fgpsim-run-v1` manifest: a header record describing the run
 *    (schema, git describe, host, build, timestamp, jobs, scale, run
 *    options, wall time, aggregate cycles, registry snapshot) plus one
 *    point record per (workload, configuration) cell, written as JSONL.
 *
 * Every sweep bench constructs one, record()s its results, and calls
 * writeEnvManifest() — so setting FGP_RUN_MANIFEST=path on any bench
 * yields a self-describing, comparable record (`fgpsim compare`).
 * appendHistory() appends just the header record to a history file
 * (BENCH_history.jsonl), giving perf_selfcheck an accumulating
 * trajectory instead of one overwritten snapshot.
 */

#ifndef FGP_HARNESS_RECORDER_HH
#define FGP_HARNESS_RECORDER_HH

#include <chrono>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "metrics/progress.hh"
#include "metrics/registry.hh"

namespace fgp {

class RunRecorder
{
  public:
    /**
     * @param bench name stamped into the manifest ("fig3", ...).
     * @param runner when non-null, gets the recorder's registry attached
     *        (setMetrics) for the recorder's lifetime.
     */
    RunRecorder(std::string bench, ExperimentRunner *runner);
    ~RunRecorder();

    RunRecorder(const RunRecorder &) = delete;
    RunRecorder &operator=(const RunRecorder &) = delete;

    metrics::Registry &registry() { return registry_; }

    /** Stderr progress sink per FGP_PROGRESS/TTY policy; may be null. */
    metrics::ProgressSink *progress() { return progress_.get(); }

    /** Distill sweep results into point records (call once per sweep). */
    void record(const std::vector<ExperimentResult> &results);

    /** Freeze the run's wall clock (idempotent; implied by writers). */
    void finish();

    /** The "run" header record as one JSONL line (no newline). */
    std::string headerLine();

    /** Header plus every recorded point, one JSON object per line. */
    void writeManifest(std::ostream &os);

    /**
     * Write the manifest to $FGP_RUN_MANIFEST when set; returns the
     * path written (empty when the variable is unset).
     */
    std::string writeEnvManifest();

    /** Append the header record to @p path (one line per run). */
    void appendHistory(const std::string &path);

    double wallSeconds();

  private:
    struct PointSummary
    {
        std::string workload;
        std::string config;
        double nodesPerCycle = 0.0;
        double staticIpcBound = 0.0;
        double redundancy = 0.0;
        std::uint64_t cycles = 0;
        std::uint64_t issuedNodes = 0;
        int issueWidth = 0;
        std::uint64_t refNodes = 0;
        std::uint64_t mispredicts = 0;
        std::uint64_t faultsFired = 0;
        std::uint64_t hostNs = 0;
        StallBreakdown stalls;

        /** Static-disambiguation books (all zero when the feature and
         *  its cross-check are off). */
        std::uint64_t disambigFastLoads = 0;
        std::uint64_t disambigProbesEliminated = 0;
        std::uint64_t disambigCheckedPairs = 0;

        /** Interval-profile payload (tweaks_.profileWindow runs only):
         *  the point line always carries crit_path_cycles (0 when
         *  unprofiled), and profiled points additionally emit one
         *  kind:"window" record per closed window after their point
         *  record. */
        bool profiled = false;
        std::uint64_t windowCycles = 0;
        std::uint64_t critPathCycles = 0;
        std::vector<profile::WindowSample> windows;
    };

    std::string pointLine(const PointSummary &point) const;
    std::string windowLine(const PointSummary &point,
                           const profile::WindowSample &win) const;

    std::string bench_;
    ExperimentRunner *runner_;
    metrics::Registry registry_{true};
    std::unique_ptr<metrics::ProgressSink> progress_;
    std::vector<PointSummary> points_;
    std::vector<std::string> workloads_; ///< first-seen order, deduped
    std::chrono::steady_clock::time_point start_;
    std::int64_t timestamp_;
    double wallSeconds_ = -1.0;
};

} // namespace fgp

#endif // FGP_HARNESS_RECORDER_HH
