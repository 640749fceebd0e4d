/**
 * @file
 * Window-content metrics (§2.2): the paper defines the instruction
 * window three ways — active basic blocks, and the number of operations
 * that are valid (issued, not retired), active (issued, not scheduled)
 * or ready (active and schedulable). This bench reports all four
 * per-cycle means per scheduling discipline (issue model 8, memory A,
 * enlarged blocks).
 */

#include "base/strutil.hh"
#include "bench/fig_common.hh"

using namespace fgp;
using namespace fgp::bench;

int
main()
{
    detail::setQuiet(true);
    banner("Window metrics",
           "mean per-cycle window content, issue 8 / memory A / enlarged");

    Table table({"discipline", "blocks", "valid ops", "active ops",
                 "ready ops", "nodes/cycle"});

    ExperimentRunner runner(envScale(), RunOptions::fromEnv());
    for (Discipline d : allDisciplines()) {
        const MachineConfig config{d, issueModel(8), memoryConfig('A'),
                                   BranchMode::Enlarged};
        double blocks = 0.0;
        double valid = 0.0;
        double active = 0.0;
        double ready = 0.0;
        double npc = 0.0;
        for (const std::string &workload : workloadNames()) {
            const ExperimentResult r = runner.run(workload, config);
            blocks += r.engine.windowOccupancy.mean();
            valid += r.engine.validNodes.mean();
            active += r.engine.activeNodes.mean();
            ready += r.engine.readyNodes.mean();
            npc += r.nodesPerCycle;
        }
        const double n = static_cast<double>(workloadNames().size());
        table.addRow({disciplineName(d), format("%.2f", blocks / n),
                      format("%.1f", valid / n),
                      format("%.1f", active / n),
                      format("%.2f", ready / n), format("%.3f", npc / n)});
    }
    table.print(std::cout);
    std::cout << "\nAn operation is valid from issue to retirement, "
                 "active until it is scheduled, and ready only while "
                 "schedulable (§2.2).\n";
    return 0;
}
