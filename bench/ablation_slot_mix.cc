/**
 * @file
 * Ablation: instruction-word slot mix. The paper picks 2:1 and 3:1
 * ALU:MEM shapes because the benchmarks' static ratio is about 2.5:1
 * (§3.1); this sweep holds the total width at 16 slots and varies the
 * memory-port share to show why. dyn4 / memory A / enlarged blocks.
 */

#include "base/strutil.hh"
#include "bench/fig_common.hh"

using namespace fgp;
using namespace fgp::bench;

int
main()
{
    detail::setQuiet(true);
    banner("Ablation: issue-word slot mix",
           "16-slot words, dyn4 / memory A / enlarged");

    Table table({"shape", "alu:mem", "nodes/cycle (mean)"});
    ExperimentRunner runner(envScale(), RunOptions::fromEnv());
    for (int mem : {1, 2, 4, 6, 8}) {
        const IssueModel shape = customIssue(mem, 16 - mem);
        const MachineConfig config{Discipline::Dyn4, shape,
                                   memoryConfig('A'),
                                   BranchMode::Enlarged};
        table.addRow({shape.name(),
                      format("%.1f:1",
                             static_cast<double>(16 - mem) / mem),
                      format("%.3f", runner.meanNodesPerCycle(config))});
    }
    table.print(std::cout);
    std::cout << "\nThe knee should sit near the benchmarks' ~2.5:1 "
                 "static ALU:MEM ratio (paper §3.1).\n";
    return 0;
}
