/**
 * @file
 * Figure 5: per-benchmark performance across 14 composite configurations
 * slicing diagonally through the 8x7 issue-model x memory-configuration
 * matrix; scheduling discipline fixed at dynamic/window-4 with enlarged
 * basic blocks. The paper does not list its 14 composites; this slice
 * includes the 5B -> 5D adjacency the text calls out (several benchmarks
 * dip there due to low memory locality).
 */

#include "bench/fig_common.hh"

using namespace fgp;
using namespace fgp::bench;

int
main()
{
    detail::setQuiet(true);
    banner("Figure 5",
           "per-benchmark nodes/cycle over 14 composite configurations "
           "(dyn4 + enlarged)");

    const std::vector<std::string> composites = {
        "1A", "2A", "3A", "3B", "4B", "5B", "5D",
        "5E", "6E", "6F", "7F", "7G", "8G", "8E"};

    ExperimentRunner runner(envScale(), RunOptions::fromEnv());
    RunRecorder recorder("fig5", &runner);

    std::vector<std::string> header = {"benchmark"};
    for (const std::string &code : composites)
        header.push_back(code);
    Table table(std::move(header));

    std::vector<SweepPoint> points;
    for (const std::string &workload : workloadNames()) {
        for (const std::string &code : composites) {
            IssueModel issue;
            MemoryConfig mem;
            parsePointCode(code, issue, mem);
            points.push_back({workload, MachineConfig{Discipline::Dyn4,
                                                      issue, mem,
                                                      BranchMode::Enlarged}});
        }
    }
    const std::vector<ExperimentResult> results =
        runSweep(runner, points, 0, recorder.progress());
    recorder.record(results);

    std::size_t at = 0;
    for (const std::string &workload : workloadNames()) {
        std::vector<double> row;
        for (std::size_t c = 0; c < composites.size(); ++c)
            row.push_back(results[at++].nodesPerCycle);
        table.addNumericRow(workload, row);
    }
    table.print(std::cout);

    std::cout << "\nExpected shape (paper): spread between benchmarks "
                 "grows with word width; low-locality benchmarks dip from "
                 "5B to 5D.\n";
    finishRun(recorder);
    return 0;
}
