#include "harness/recorder.hh"

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <fstream>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "harness/parallel.hh"
#include "metrics/manifest.hh"

namespace fgp {

RunRecorder::RunRecorder(std::string bench, ExperimentRunner *runner)
    : bench_(std::move(bench)), runner_(runner),
      progress_(metrics::makeStderrProgress()),
      start_(std::chrono::steady_clock::now()),
      timestamp_(static_cast<std::int64_t>(std::time(nullptr)))
{
    if (runner_)
        runner_->setMetrics(&registry_);
}

RunRecorder::~RunRecorder()
{
    if (runner_)
        runner_->setMetrics(nullptr);
}

void
RunRecorder::record(const std::vector<ExperimentResult> &results)
{
    points_.reserve(points_.size() + results.size());
    for (const ExperimentResult &r : results) {
        PointSummary point;
        point.workload = r.workload;
        point.config = r.config.name();
        point.nodesPerCycle = r.nodesPerCycle;
        point.staticIpcBound = r.staticIpcBound;
        point.redundancy = r.engine.redundancy();
        point.cycles = r.cycles;
        point.issuedNodes = r.engine.issuedNodes;
        point.issueWidth = r.engine.issueWidth;
        point.refNodes = r.refNodes;
        point.mispredicts = r.engine.mispredicts;
        point.faultsFired = r.engine.faultsFired;
        point.hostNs = r.hostNs;
        point.stalls = r.engine.stalls;
        point.disambigFastLoads = r.engine.disambigFastLoads;
        point.disambigProbesEliminated = r.engine.disambigProbesEliminated;
        point.disambigCheckedPairs = r.engine.disambigCheckedPairs;
        if (r.profile.enabled) {
            point.profiled = true;
            point.windowCycles = r.profile.windowCycles;
            point.critPathCycles = r.profile.critPath.pathCycles;
            point.windows = r.profile.windows;
        }
        points_.push_back(std::move(point));

        if (std::find(workloads_.begin(), workloads_.end(), r.workload) ==
            workloads_.end()) {
            workloads_.push_back(r.workload);
        }
    }
}

void
RunRecorder::finish()
{
    if (wallSeconds_ < 0.0) {
        wallSeconds_ =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start_)
                .count();
    }
}

double
RunRecorder::wallSeconds()
{
    finish();
    return wallSeconds_;
}

std::string
RunRecorder::headerLine()
{
    finish();

    std::uint64_t sim_cycles = 0;
    std::uint64_t host_ns = 0;
    for (const PointSummary &point : points_) {
        sim_cycles += point.cycles;
        host_ns += point.hostNs;
    }
    const double wall = wallSeconds_;
    const double sims = static_cast<double>(points_.size());

    metrics::JsonLineWriter w;
    w.field("schema", metrics::kRunSchema);
    w.field("kind", "run");
    w.field("bench", bench_);
    w.field("git", metrics::gitDescribe());
    w.field("timestamp", static_cast<std::uint64_t>(timestamp_));
    w.field("iso_time", metrics::isoTime(timestamp_));
    w.field("host", metrics::hostInfo());
#ifdef NDEBUG
    w.field("build", "ndebug");
#else
    w.field("build", "debug");
#endif
    w.field("jobs", sweepJobs());
    w.field("scale", runner_ ? runner_->scale() : 0.0);
    const RunOptions run = runner_ ? runner_->runOptions() : RunOptions{};
    const auto flag = [](bool on) { return on ? "true" : "false"; };
    w.raw("run_options",
          metrics::JsonLineWriter()
              .raw("static_disambig", flag(run.staticDisambig))
              .raw("oracle_sched", flag(run.oracleSched))
              .field("oracle_budget",
                     static_cast<std::uint64_t>(run.oracleBudget))
              .raw("checks", flag(run.checks))
              .str());
    w.field("sims", static_cast<std::uint64_t>(points_.size()));
    w.field("wall_seconds", wall);
    w.field("sims_per_sec", wall > 0.0 ? sims / wall : 0.0);
    w.field("sim_cycles", sim_cycles);
    w.field("host_ns", host_ns);
    w.field("host_ns_per_sim_cycle",
            sim_cycles ? static_cast<double>(host_ns) /
                             static_cast<double>(sim_cycles)
                       : 0.0);
    w.strings("workloads", workloads_);
    const metrics::Snapshot snap = registry_.snapshot();
    if (!snap.empty())
        w.raw("metrics", snap.toJson());
    return w.str();
}

std::string
RunRecorder::pointLine(const PointSummary &point) const
{
    metrics::JsonLineWriter w;
    w.field("kind", "point");
    w.field("workload", point.workload);
    w.field("config", point.config);
    w.field("nodes_per_cycle", point.nodesPerCycle);
    w.field("static_ipc_bound", point.staticIpcBound);
    w.field("redundancy", point.redundancy);
    w.field("cycles", point.cycles);
    w.field("issued_nodes", point.issuedNodes);
    w.field("issue_width", point.issueWidth);
    w.field("ref_nodes", point.refNodes);
    w.field("mispredicts", point.mispredicts);
    w.field("faults_fired", point.faultsFired);
    w.field("host_ns", point.hostNs);
    w.field("stall_fetch_redirect", point.stalls.fetchRedirectSlots);
    w.field("stall_fetch_idle", point.stalls.fetchIdleSlots);
    w.field("stall_window_full", point.stalls.windowFullSlots);
    w.field("stall_short_word", point.stalls.shortWordSlots);
    w.field("stall_drain", point.stalls.drainSlots);
    w.field("stall_operand_wait", point.stalls.operandWaitNodeCycles);
    w.field("stall_memory_wait", point.stalls.memoryWaitNodeCycles);
    w.field("stall_serialize_wait", point.stalls.serializeWaitNodeCycles);
    w.field("stall_fu_busy", point.stalls.fuBusyNodeCycles);
    w.field("crit_path_cycles", point.critPathCycles);
    w.field("disambig_fast_loads", point.disambigFastLoads);
    w.field("disambig_probes_eliminated", point.disambigProbesEliminated);
    w.field("disambig_checked_pairs", point.disambigCheckedPairs);
    return w.str();
}

std::string
RunRecorder::windowLine(const PointSummary &point,
                        const profile::WindowSample &win) const
{
    metrics::JsonLineWriter w;
    w.field("kind", "window");
    w.field("workload", point.workload);
    w.field("config", point.config);
    w.field("index", win.index);
    w.field("start_cycle", win.startCycle);
    w.field("cycles", win.cycles);
    w.field("ipc", win.ipc());
    w.field("issued_nodes", win.issuedNodes);
    w.field("retired_nodes", win.retiredNodes);
    w.field("executed_nodes", win.executedNodes);
    w.field("committed_blocks", win.committedBlocks);
    w.field("squashed_blocks", win.squashedBlocks);
    w.field("mispredicts", win.mispredicts);
    w.field("faults_fired", win.faultsFired);
    w.field("stall_fetch_redirect", win.stalls.fetchRedirectSlots);
    w.field("stall_fetch_idle", win.stalls.fetchIdleSlots);
    w.field("stall_window_full", win.stalls.windowFullSlots);
    w.field("stall_short_word", win.stalls.shortWordSlots);
    w.field("stall_drain", win.stalls.drainSlots);
    w.field("stall_operand_wait", win.stalls.operandWaitNodeCycles);
    w.field("stall_memory_wait", win.stalls.memoryWaitNodeCycles);
    w.field("stall_serialize_wait", win.stalls.serializeWaitNodeCycles);
    w.field("stall_fu_busy", win.stalls.fuBusyNodeCycles);
    w.field("ready_mean",
            win.cycles ? static_cast<double>(win.readySum) /
                             static_cast<double>(win.cycles)
                       : 0.0);
    w.field("ready_max", win.readyMax);
    w.field("live_max", win.liveMax);
    w.field("store_queue_max", win.storeQueueMax);
    w.field("write_buf_max", win.writeBufMax);
    // Hex string, not a number: JSON readers parse numbers as doubles,
    // which cannot hold all 64 fingerprint bits.
    w.field("sched_hash", format("0x%016llx",
                                 static_cast<unsigned long long>(
                                     win.schedHash)));
    return w.str();
}

void
RunRecorder::writeManifest(std::ostream &os)
{
    os << headerLine() << "\n";
    for (const PointSummary &point : points_) {
        os << pointLine(point) << "\n";
        for (const profile::WindowSample &win : point.windows)
            os << windowLine(point, win) << "\n";
    }
}

std::string
RunRecorder::writeEnvManifest()
{
    const char *path = std::getenv("FGP_RUN_MANIFEST");
    if (!path || !*path)
        return "";
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        fgp_fatal("cannot write run manifest to ", path);
    writeManifest(out);
    return path;
}

void
RunRecorder::appendHistory(const std::string &path)
{
    std::ofstream out(path, std::ios::app);
    if (!out)
        fgp_fatal("cannot append run history to ", path);
    out << headerLine() << "\n";
}

} // namespace fgp
