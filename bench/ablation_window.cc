/**
 * @file
 * Ablation: instruction-window size in active basic blocks (§2.2). The
 * paper samples windows of 1, 4 and 256; this sweep fills in the curve
 * and shows where the knee sits for single and enlarged basic blocks.
 * Issue model 8, memory A.
 */

#include "base/strutil.hh"
#include "bench/fig_common.hh"

using namespace fgp;
using namespace fgp::bench;

int
main()
{
    detail::setQuiet(true);
    banner("Ablation: window size",
           "dynamic scheduling, issue model 8, memory A");

    const std::vector<int> windows = {1, 2, 4, 8, 16, 32, 64, 128, 256};

    std::vector<std::string> header = {"blocks in window"};
    for (int w : windows)
        header.push_back(std::to_string(w));
    Table table(std::move(header));

    for (BranchMode bm : {BranchMode::Single, BranchMode::Enlarged}) {
        std::vector<double> row;
        for (int w : windows) {
            ExperimentRunner runner(envScale(), RunOptions::fromEnv());
            ExperimentRunner::EngineTweaks tweaks;
            tweaks.windowOverride = w;
            runner.setEngineTweaks(tweaks);
            const MachineConfig config{Discipline::Dyn256, issueModel(8),
                                       memoryConfig('A'), bm};
            row.push_back(runner.meanNodesPerCycle(config));
        }
        table.addNumericRow(branchModeName(bm), row);
    }
    table.print(std::cout);
    std::cout << "\nThe paper's observation: window 4 comes close to "
                 "window 256 — prediction accuracy, not window capacity, "
                 "limits realistic machines.\n";
    return 0;
}
