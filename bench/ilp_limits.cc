/**
 * @file
 * ILP-limit study: the paper's framing dispute. Jouppi/Wall '89 and
 * Smith/Lam/Horowitz '90 reported ~2x available parallelism; the paper
 * argues far more exists once dynamic scheduling, speculative execution
 * and enlargement combine. This bench measures the ladder from a
 * realistic machine to a near-dataflow limit:
 *
 *   1. dyn4 / issue 8 / single      (conventional-ish machine)
 *   2. dyn4 / issue 8 / enlarged    (the paper's proposal)
 *   3. dyn256 / issue 8 / perfect   (the paper's upper-bound run)
 *   4. huge window + huge word + perfect prediction (dataflow-ish limit)
 *
 * Memory config A throughout.
 */

#include "base/strutil.hh"
#include "bench/fig_common.hh"

using namespace fgp;
using namespace fgp::bench;

int
main()
{
    detail::setQuiet(true);
    banner("ILP limits", "from realistic machines to a dataflow-ish bound");

    const IssueModel huge = customIssue(16, 48);

    struct Rung
    {
        const char *name;
        MachineConfig config;
        int window;
    };
    const std::vector<Rung> ladder = {
        {"dyn4 / 4M12A / single",
         {Discipline::Dyn4, issueModel(8), memoryConfig('A'),
          BranchMode::Single},
         0},
        {"dyn4 / 4M12A / enlarged",
         {Discipline::Dyn4, issueModel(8), memoryConfig('A'),
          BranchMode::Enlarged},
         0},
        {"dyn256 / 4M12A / perfect",
         {Discipline::Dyn256, issueModel(8), memoryConfig('A'),
          BranchMode::Perfect},
         0},
        {"window 1024 / 16M48A / perfect",
         {Discipline::Dyn256, huge, memoryConfig('A'),
          BranchMode::Perfect},
         1024},
    };

    std::vector<std::string> header = {"machine"};
    for (const std::string &workload : workloadNames())
        header.push_back(workload);
    header.push_back("mean");
    Table table(std::move(header));

    for (const Rung &rung : ladder) {
        ExperimentRunner runner(envScale(), RunOptions::fromEnv());
        if (rung.window) {
            ExperimentRunner::EngineTweaks tweaks;
            tweaks.windowOverride = rung.window;
            runner.setEngineTweaks(tweaks);
        }
        std::vector<double> row;
        double sum = 0.0;
        for (const std::string &workload : workloadNames()) {
            const double npc =
                runner.run(workload, rung.config).nodesPerCycle;
            row.push_back(npc);
            sum += npc;
        }
        row.push_back(sum / static_cast<double>(workloadNames().size()));
        table.addNumericRow(rung.name, row);
    }
    table.print(std::cout);

    std::cout << "\nThe paper's position: the ~2x 'limits' of "
                 "contemporaneous studies reflect machine assumptions, "
                 "not the programs; even its own realistic 3-6x is a "
                 "lower bound.\n";
    return 0;
}
