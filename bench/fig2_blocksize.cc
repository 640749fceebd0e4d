/**
 * @file
 * Figure 2: dynamic basic-block size histograms, single vs. enlarged
 * basic blocks, averaged over all five benchmarks. Committed block sizes
 * are collected by the engine at retirement (dyn4, issue model 8,
 * memory A — the histogram is configuration-insensitive).
 */

#include "base/histogram.hh"
#include "base/strutil.hh"
#include "bench/fig_common.hh"

using namespace fgp;
using namespace fgp::bench;

int
main()
{
    detail::setQuiet(true);
    banner("Figure 2",
           "dynamic basic block size distribution, single vs. enlarged");

    ExperimentRunner runner(envScale(), RunOptions::fromEnv());
    const MachineConfig base{Discipline::Dyn4, issueModel(8),
                             memoryConfig('A'), BranchMode::Single};

    Histogram single(4, 32);
    Histogram enlarged(4, 32);
    for (const std::string &workload : workloadNames()) {
        MachineConfig config = base;
        config.branch = BranchMode::Single;
        single.merge(runner.run(workload, config).engine.blockSize);
        config.branch = BranchMode::Enlarged;
        enlarged.merge(runner.run(workload, config).engine.blockSize);
    }

    Table table({"block size (nodes)", "single %", "enlarged %"});
    for (std::size_t b = 0; b < single.numBuckets(); ++b) {
        if (single.bucketCount(b) == 0 && enlarged.bucketCount(b) == 0)
            continue;
        table.addRow({single.bucketLabel(b),
                      format("%.1f", 100.0 * single.bucketFraction(b)),
                      format("%.1f", 100.0 * enlarged.bucketFraction(b))});
    }
    const double single_over =
        100.0 * static_cast<double>(single.overflowCount()) /
        static_cast<double>(single.count());
    const double enl_over =
        100.0 * static_cast<double>(enlarged.overflowCount()) /
        static_cast<double>(enlarged.count());
    table.addRow({"128+", format("%.1f", single_over),
                  format("%.1f", enl_over)});
    table.print(std::cout);

    std::cout << format("\nmean block size: single %.1f nodes, enlarged "
                        "%.1f nodes\n",
                        single.mean(), enlarged.mean());
    std::cout << "Expected shape (paper): over half of single blocks at "
                 "0-4 nodes; the enlarged distribution is much flatter.\n";
    return 0;
}
