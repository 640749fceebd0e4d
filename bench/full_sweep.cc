/**
 * @file
 * The paper's full data matrix: 560 configuration points per benchmark
 * (§3.2). By default a reduced slice is printed to keep the default
 * bench run quick; set FGP_FULL=1 for all 2800 simulations (CSV on
 * stdout, suitable for replotting every figure).
 */

#include "base/strutil.hh"
#include "bench/fig_common.hh"

using namespace fgp;
using namespace fgp::bench;

int
main()
{
    detail::setQuiet(true);
    const bool full = std::getenv("FGP_FULL") != nullptr;
    banner("Full sweep",
           full ? "all 560 configurations x 5 benchmarks (CSV)"
                : "reduced slice (set FGP_FULL=1 for all 2800 points)");

    ExperimentRunner runner(envScale(), RunOptions::fromEnv());
    RunRecorder recorder("full_sweep", &runner);

    // Opt-in interval profiling: FGP_PROFILE_WINDOW=N attaches the
    // profiler with N-cycle windows to every point. The CSV then
    // carries measured critical-path lengths and the manifest
    // (FGP_RUN_MANIFEST) the per-window streams; schedules are
    // bit-identical either way.
    if (const char *pw = std::getenv("FGP_PROFILE_WINDOW")) {
        if (const auto cycles = parseInt(pw); cycles && *cycles > 0) {
            ExperimentRunner::EngineTweaks tweaks;
            tweaks.profileWindow = static_cast<std::uint64_t>(*cycles);
            runner.setEngineTweaks(tweaks);
        }
    }

    std::vector<MachineConfig> configs;
    if (full) {
        configs = fullConfigGrid();
    } else {
        for (int im : {2, 8}) {
            for (char mc : {'A', 'G'}) {
                for (Discipline d : allDisciplines())
                    for (BranchMode bm :
                         {BranchMode::Single, BranchMode::Enlarged})
                        configs.push_back(
                            {d, issueModel(im), memoryConfig(mc), bm});
                for (Discipline d : {Discipline::Dyn4, Discipline::Dyn256})
                    configs.push_back({d, issueModel(im), memoryConfig(mc),
                                       BranchMode::Perfect});
            }
        }
    }

    std::vector<SweepPoint> points;
    points.reserve(workloadNames().size() * configs.size());
    for (const std::string &workload : workloadNames())
        for (const MachineConfig &config : configs)
            points.push_back({workload, config});

    const std::vector<ExperimentResult> results =
        runSweep(runner, points, 0, recorder.progress());
    recorder.record(results);

    // Provenance comment: the fgpsim-run-v1 run record for this CSV.
    // Consumers (tools/check_bench.sh, plotting scripts) skip '#' lines;
    // the line varies with host/jobs/wall time, so byte-for-byte CSV
    // comparisons across job counts must strip it first (grep -v '^#').
    std::cout << "# " << recorder.headerLine() << "\n";
    std::cout << "benchmark,discipline,issue,memory,branch,nodes_per_cycle,"
                 "cycles,ref_nodes,redundancy,mispredicts,faults,"
                 "stall_fetch_redirect,stall_fetch_idle,stall_window_full,"
                 "stall_short_word,stall_drain,static_bound,"
                 "crit_path_cycles,disambig_fast_loads,"
                 "disambig_probes_eliminated\n";
    for (const ExperimentResult &r : results) {
        const MachineConfig &config = r.config;
        const StallBreakdown &st = r.engine.stalls;
        std::cout << r.workload << ','
                  << disciplineName(config.discipline) << ','
                  << config.issue.index << ',' << config.memory.name()
                  << ',' << branchModeName(config.branch) << ','
                  << format("%.4f", r.nodesPerCycle) << ',' << r.cycles
                  << ',' << r.refNodes << ','
                  << format("%.4f", r.engine.redundancy()) << ','
                  << r.engine.mispredicts << ','
                  << r.engine.faultsFired << ','
                  << st.fetchRedirectSlots << ',' << st.fetchIdleSlots << ','
                  << st.windowFullSlots << ',' << st.shortWordSlots << ','
                  << st.drainSlots << ','
                  << format("%.4f", r.staticIpcBound) << ','
                  << r.profile.critPath.pathCycles << ','
                  << r.engine.disambigFastLoads << ','
                  << r.engine.disambigProbesEliminated << '\n';
    }

    // Where the sweep's issue bandwidth went, in aggregate.
    const StallBreakdown total = totalStalls(results);
    std::cerr << "stall slots: redirect " << total.fetchRedirectSlots
              << ", idle " << total.fetchIdleSlots << ", window-full "
              << total.windowFullSlots << ", short-word "
              << total.shortWordSlots << ", drain " << total.drainSlots
              << "\n";
    finishRun(recorder);
    return 0;
}
