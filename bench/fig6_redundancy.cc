/**
 * @file
 * Figure 6: operation redundancy — the fraction of executed nodes that
 * are discarded rather than retired — per issue model and scheduling
 * discipline, memory configuration A. The ordering is the inverse of
 * Figure 3: the faster the machine, the more work it throws away.
 */

#include "bench/fig_common.hh"

using namespace fgp;
using namespace fgp::bench;

int
main()
{
    detail::setQuiet(true);
    banner("Figure 6",
           "operation redundancy (executed-not-retired fraction) vs. "
           "issue model, memory config A");

    ExperimentRunner runner(envScale(), RunOptions::fromEnv());
    RunRecorder recorder("fig6", &runner);
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
        [](const ExperimentResult &r) { return r.engine.redundancy(); },
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

    std::cout << "\nExpected shape (paper): ordering inverse of Figure 3;"
                 "\n  dyn256+enlarged discards up to ~1 in 4 executed "
                 "nodes; dyn4+enlarged discards far fewer at nearly the "
                 "same performance; perfect prediction ~0.\n";
    finishRun(recorder);
    return 0;
}
