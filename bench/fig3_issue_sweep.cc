/**
 * @file
 * Figure 3: performance as a function of the issue model (instruction
 * word width) for all ten scheduling disciplines, memory configuration A
 * (constant 1-cycle memory).
 */

#include "bench/fig_common.hh"

using namespace fgp;
using namespace fgp::bench;

int
main()
{
    detail::setQuiet(true);
    banner("Figure 3", "nodes/cycle vs. issue model, memory config A");

    ExperimentRunner runner(envScale(), RunOptions::fromEnv());
    RunRecorder recorder("fig3", &runner);
    const MemoryConfig mem = memoryConfig('A');

    std::vector<std::string> header = {"series"};
    for (const IssueModel &im : allIssueModels())
        header.push_back(im.name());
    Table table(std::move(header));

    std::vector<MachineConfig> configs;
    for (const Series &series : tenSeries())
        for (const IssueModel &im : allIssueModels())
            configs.push_back({series.discipline, im, mem, series.branch});
    const std::vector<double> means = sweepMeans(
        runner, configs,
        [](const ExperimentResult &r) { return r.nodesPerCycle; },
        &recorder);

    std::size_t at = 0;
    for (const Series &series : tenSeries()) {
        const std::vector<double> row(
            means.begin() + static_cast<std::ptrdiff_t>(at),
            means.begin() +
                static_cast<std::ptrdiff_t>(at + allIssueModels().size()));
        at += allIssueModels().size();
        table.addNumericRow(series.name(), row);
    }
    table.print(std::cout);

    std::cout << "\nExpected shape (paper): little spread at narrow words;"
                 "\n  wide words separate the schemes; dyn1 ~ static;"
                 "\n  dyn4 ~ dyn256; enlarged > single; perfect on top.\n";
    finishRun(recorder);
    return 0;
}
