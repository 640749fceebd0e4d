/**
 * @file
 * Ablation: contribution of each local re-optimization pass to enlarged
 * basic block performance (§2.3's "re-optimized as a unit"). dyn4 /
 * issue 8 / memory A, enlarged blocks.
 */

#include "base/strutil.hh"
#include "bench/fig_common.hh"

using namespace fgp;
using namespace fgp::bench;

int
main()
{
    detail::setQuiet(true);
    banner("Ablation: local optimizer passes",
           "dyn4 / issue 8 / memory A, enlarged blocks");


    struct Setting
    {
        const char *name;
        OptimizerOptions opts;
        bool disableAll;
    };
    const std::vector<Setting> settings = {
        {"none (concatenate only)", {}, true},
        {"propagate only", {true, false, false, false}, false},
        {"+ load elimination", {true, true, false, false}, false},
        {"+ local renaming", {true, true, true, false}, false},
        {"all passes", {true, true, true, true}, false},
    };

    // The dynamic machine renames in hardware, so software renaming
    // matters little there; the static machine cannot, so the passes
    // should buy much more (the paper re-optimizes for both).
    for (Discipline d : {Discipline::Dyn4, Discipline::Static}) {
        const MachineConfig config{d, issueModel(8), memoryConfig('A'),
                                   BranchMode::Enlarged};
        Table table({"optimizer", "nodes/cycle (mean)", "vs. none"});
        double baseline = 0.0;
        for (const Setting &setting : settings) {
            TranslateOptions topts;
            topts.optimizeEnlarged = !setting.disableAll;
            topts.optimizer = setting.opts;

            ExperimentRunner runner(envScale(), RunOptions::fromEnv());
            runner.setTranslateOptions(topts);
            const double npc = runner.meanNodesPerCycle(config);
            if (baseline == 0.0)
                baseline = npc;
            table.addRow({setting.name, format("%.3f", npc),
                          format("%+.1f%%",
                                 100.0 * (npc / baseline - 1.0))});
        }
        std::cout << disciplineName(d) << ":\n";
        table.print(std::cout);
        std::cout << "\n";
        }
    std::cout << "The paper's claim: combining blocks pays most when "
                 "the combined unit is re-optimized (artificial flow "
                 "dependencies removed, §2.3).\n";
    return 0;
}
