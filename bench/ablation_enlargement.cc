/**
 * @file
 * Ablation: sensitivity of the paper's result to the enlargement
 * thresholds (§2.3's "optimal point between the enlargement of basic
 * blocks and the use of dynamic scheduling"). Sweeps the maximum chain
 * length and the dominant-arc ratio threshold on dyn4 / issue 8 /
 * memory A with enlarged blocks, reporting performance, redundancy and
 * fault density.
 */

#include "base/strutil.hh"
#include "bench/fig_common.hh"

using namespace fgp;
using namespace fgp::bench;

int
main()
{
    detail::setQuiet(true);
    banner("Ablation: enlargement thresholds",
           "dyn4 / issue 8 / memory A, enlarged blocks");

    const MachineConfig config{Discipline::Dyn4, issueModel(8),
                               memoryConfig('A'), BranchMode::Enlarged};

    Table table({"max_chain", "min_ratio", "nodes/cycle", "redundancy",
                 "mean_chain", "faults/1k nodes"});

    for (int chain : {2, 4, 8, 16}) {
        for (double ratio : {0.60, 0.75, 0.90}) {
            EnlargeOptions opts;
            opts.maxChainLen = chain;
            opts.minArcRatio = ratio;
            ExperimentRunner runner(envScale(), RunOptions::fromEnv(), opts);

            double npc = 0.0;
            double red = 0.0;
            double chain_len = 0.0;
            double fault_rate = 0.0;
            for (const std::string &workload : workloadNames()) {
                const ExperimentResult r = runner.run(workload, config);
                npc += r.nodesPerCycle;
                red += r.engine.redundancy();
                chain_len += runner.enlargeStats(workload).meanChainLen;
                fault_rate += 1000.0 *
                              static_cast<double>(r.engine.faultsFired) /
                              static_cast<double>(r.refNodes);
            }
            const double n = static_cast<double>(workloadNames().size());
            table.addRow({std::to_string(chain), format("%.2f", ratio),
                          format("%.3f", npc / n), format("%.3f", red / n),
                          format("%.2f", chain_len / n),
                          format("%.2f", fault_rate / n)});
        }
    }
    table.print(std::cout);
    std::cout << "\nLonger chains raise issue-slot utilization but also "
                 "fault density; lower ratio thresholds fuse colder "
                 "branches (diminishing returns — §2.3).\n";
    return 0;
}
