/**
 * @file
 * Ablation: the paper's first "unexplored avenue" — better branch
 * prediction. Compares the 1991 baseline (2-bit counter BTB + BTFN
 * static supplement, last-target JR prediction) against profile-derived
 * static hints, a return-address stack, and fault-target prediction
 * ("repeated faults cause branches to start with other basic blocks",
 * §3.1). dyn4 and dyn256, issue model 8, memory A, enlarged blocks.
 */

#include "base/strutil.hh"
#include "bench/fig_common.hh"

using namespace fgp;
using namespace fgp::bench;

int
main()
{
    detail::setQuiet(true);
    banner("Ablation: branch prediction",
           "issue model 8 / memory A / enlarged blocks");

    struct Setting
    {
        const char *name;
        ExperimentRunner::EngineTweaks tweaks;
    };
    const std::vector<Setting> settings = {
        {"baseline (BTFN + last-target)", {}},
        {"+ profile static hints",
         {StaticHint::Profile, 0, false, 0, false}},
        {"+ return-address stack (8)",
         {StaticHint::Btfn, 8, false, 0, false}},
        {"+ fault-target prediction",
         {StaticHint::Btfn, 0, true, 0, false}},
        {"+ gshare (4k entries)",
         {StaticHint::Btfn, 0, false, 0, false,
          DirectionPredictor::Gshare}},
        {"all four",
         {StaticHint::Profile, 8, true, 0, false,
          DirectionPredictor::Gshare}},
    };

    for (Discipline d : {Discipline::Dyn4, Discipline::Dyn256}) {
        const MachineConfig config{d, issueModel(8), memoryConfig('A'),
                                   BranchMode::Enlarged};
        Table table({"prediction", "nodes/cycle", "redundancy",
                     "mispredicts/1k", "faults/1k"});
        for (const Setting &setting : settings) {
            ExperimentRunner runner(envScale(), RunOptions::fromEnv());
            runner.setEngineTweaks(setting.tweaks);
            double npc = 0.0;
            double red = 0.0;
            double mp = 0.0;
            double fl = 0.0;
            for (const std::string &workload : workloadNames()) {
                const ExperimentResult r = runner.run(workload, config);
                npc += r.nodesPerCycle;
                red += r.engine.redundancy();
                mp += 1000.0 * static_cast<double>(r.engine.mispredicts) /
                      static_cast<double>(r.refNodes);
                fl += 1000.0 * static_cast<double>(r.engine.faultsFired) /
                      static_cast<double>(r.refNodes);
            }
            const double n = static_cast<double>(workloadNames().size());
            table.addRow({setting.name, format("%.3f", npc / n),
                          format("%.3f", red / n), format("%.2f", mp / n),
                          format("%.2f", fl / n)});
        }
        std::cout << disciplineName(d) << ":\n";
        table.print(std::cout);
        std::cout << "\n";
    }
    std::cout << "The paper's conjecture: its realistic numbers are a "
                 "LOWER bound, with better prediction pushing higher.\n";
    return 0;
}
