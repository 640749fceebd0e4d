/** Experiment-runner and atomic-runner integration tests. */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "base/logging.hh"
#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "ir/cfg.hh"
#include "vm/atomic_runner.hh"
#include "vm/interp.hh"

namespace fgp {
namespace {

MachineConfig
cfg(Discipline d, int issue, char mem, BranchMode branch)
{
    return {d, issueModel(issue), memoryConfig(mem), branch};
}

std::map<std::string, std::string> g_env;

char *
fakeEnv(const char *name)
{
    const auto it = g_env.find(name);
    return it == g_env.end() ? nullptr : it->second.data();
}

TEST(RunOptions, FromEnvParsesEveryKnob)
{
    g_env.clear();
    const RunOptions unset = RunOptions::fromEnv(fakeEnv);
    EXPECT_FALSE(unset.staticDisambig);
    EXPECT_FALSE(unset.oracleSched);
    EXPECT_EQ(unset.oracleBudget, analyze::OracleOptions{}.maxStates);
#ifdef NDEBUG
    EXPECT_FALSE(unset.checks);
#else
    EXPECT_TRUE(unset.checks);
#endif

    g_env = {{"FGP_STATIC_DISAMBIG", "1"}, {"FGP_ORACLE_SCHED", "1"},
             {"FGP_VERIFY", "1"}, {"FGP_ORACLE_BUDGET", "17"}};
    const RunOptions on = RunOptions::fromEnv(fakeEnv);
    EXPECT_TRUE(on.staticDisambig);
    EXPECT_TRUE(on.oracleSched);
    EXPECT_TRUE(on.checks);
    EXPECT_EQ(on.oracleBudget, 17u);

    g_env = {{"FGP_STATIC_DISAMBIG", "0"}, {"FGP_ORACLE_SCHED", "0"},
             {"FGP_VERIFY", "0"}, {"FGP_ORACLE_BUDGET", "0"}};
    const RunOptions off = RunOptions::fromEnv(fakeEnv);
    EXPECT_FALSE(off.staticDisambig);
    EXPECT_FALSE(off.oracleSched);
    EXPECT_FALSE(off.checks);
    EXPECT_EQ(off.oracleBudget, 0u);

    for (const char *bad : {"-1", "12x", "", "lots"}) {
        g_env = {{"FGP_ORACLE_BUDGET", bad}};
        EXPECT_THROW(RunOptions::fromEnv(fakeEnv), FatalError) << bad;
    }
    g_env.clear();
}

TEST(Harness, MetricUsesReferenceNodes)
{
    ExperimentRunner runner(0.2);
    const auto r = runner.run(
        "grep", cfg(Discipline::Dyn4, 8, 'A', BranchMode::Single));
    EXPECT_EQ(r.refNodes, runner.referenceNodes("grep"));
    EXPECT_DOUBLE_EQ(r.nodesPerCycle,
                     static_cast<double>(r.refNodes) /
                         static_cast<double>(r.cycles));
    // Single-block translation is 1:1.
    EXPECT_EQ(r.engine.retiredNodes, r.refNodes);
}

TEST(Harness, PreparationIsCachedAndDeterministic)
{
    ExperimentRunner runner(0.2);
    const auto a = runner.run(
        "sort", cfg(Discipline::Dyn4, 4, 'A', BranchMode::Enlarged));
    const auto b = runner.run(
        "sort", cfg(Discipline::Dyn4, 4, 'A', BranchMode::Enlarged));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.engine.executedNodes, b.engine.executedNodes);
}

TEST(Harness, EnlargementStatsExposed)
{
    ExperimentRunner runner(0.2);
    const EnlargeStats &stats = runner.enlargeStats("grep");
    EXPECT_GT(stats.chains, 0u);
    EXPECT_GT(stats.meanChainLen, 1.0);
    EXPECT_GT(runner.enlargedImage("grep").blocks.size(),
              runner.singleImage("grep").blocks.size());
}

TEST(Harness, MeanAcrossBenchmarksIsAveraged)
{
    ExperimentRunner runner(0.1);
    const MachineConfig config =
        cfg(Discipline::Dyn4, 8, 'A', BranchMode::Single);
    double sum = 0.0;
    for (const std::string &name : workloadNames())
        sum += runner.run(name, config).nodesPerCycle;
    EXPECT_NEAR(runner.meanNodesPerCycle(config), sum / 5.0, 1e-12);
}

TEST(Harness, PaperOrderingHoldsAtFullScaleIssue8)
{
    // The central qualitative claims of Figure 3 at issue model 8.
    ExperimentRunner runner; // full-scale inputs
    const double stat =
        runner.meanNodesPerCycle(
            cfg(Discipline::Static, 8, 'A', BranchMode::Single));
    const double dyn4 = runner.meanNodesPerCycle(
        cfg(Discipline::Dyn4, 8, 'A', BranchMode::Single));
    const double dyn4_en = runner.meanNodesPerCycle(
        cfg(Discipline::Dyn4, 8, 'A', BranchMode::Enlarged));
    const double dyn256_en = runner.meanNodesPerCycle(
        cfg(Discipline::Dyn256, 8, 'A', BranchMode::Enlarged));
    const double perfect = runner.meanNodesPerCycle(
        cfg(Discipline::Dyn256, 8, 'A', BranchMode::Perfect));

    EXPECT_GT(dyn4, stat);
    EXPECT_GT(dyn4_en, dyn4);
    EXPECT_GE(dyn256_en, dyn4_en * 0.95); // close, per the paper
    EXPECT_GT(perfect, dyn256_en);
    // Realistic wide machines reach roughly 3-6 nodes/cycle.
    EXPECT_GT(dyn4_en, 2.0);
    EXPECT_LT(dyn4_en, 8.0);
}

TEST(Harness, NarrowMachinesShowLittleSpread)
{
    // Figure 3's other headline: at issue model 2 the schemes are close.
    ExperimentRunner runner(0.5);
    const double stat = runner.meanNodesPerCycle(
        cfg(Discipline::Static, 2, 'A', BranchMode::Single));
    const double best = runner.meanNodesPerCycle(
        cfg(Discipline::Dyn256, 2, 'A', BranchMode::Enlarged));
    EXPECT_LT(best / stat, 2.2);
}

TEST(Harness, RedundancyOrderingMatchesFigure6)
{
    ExperimentRunner runner(0.5);
    const double dyn4_single = runner.meanRedundancy(
        cfg(Discipline::Dyn4, 8, 'A', BranchMode::Single));
    const double dyn256_en = runner.meanRedundancy(
        cfg(Discipline::Dyn256, 8, 'A', BranchMode::Enlarged));
    const double perfect = runner.meanRedundancy(
        cfg(Discipline::Dyn256, 8, 'A', BranchMode::Perfect));
    EXPECT_GT(dyn256_en, dyn4_single);
    EXPECT_LT(perfect, 0.05);
    EXPECT_LT(dyn256_en, 0.6);
}

TEST(Harness, ParallelSweepMatchesSerialRowForRow)
{
    // Mixed grid: several workloads, disciplines, memories and branch
    // modes, so the threads contend on shared prepared state.
    std::vector<SweepPoint> points;
    for (const char *workload : {"grep", "compress", "sort"})
        for (Discipline d : {Discipline::Static, Discipline::Dyn4})
            for (char mem : {'A', 'G'})
                points.push_back(
                    {workload, cfg(d, 8, mem, BranchMode::Enlarged)});

    ExperimentRunner serial_runner(0.2);
    const std::vector<ExperimentResult> serial =
        runSweep(serial_runner, points, 1);

    ExperimentRunner parallel_runner(0.2);
    const std::vector<ExperimentResult> parallel =
        runSweep(parallel_runner, points, 4);

    ASSERT_EQ(serial.size(), points.size());
    ASSERT_EQ(parallel.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE(points[i].workload + " " + points[i].config.name());
        EXPECT_EQ(parallel[i].workload, serial[i].workload);
        EXPECT_EQ(parallel[i].config.name(), serial[i].config.name());
        EXPECT_EQ(parallel[i].cycles, serial[i].cycles);
        EXPECT_EQ(parallel[i].refNodes, serial[i].refNodes);
        EXPECT_DOUBLE_EQ(parallel[i].nodesPerCycle, serial[i].nodesPerCycle);
        EXPECT_EQ(parallel[i].engine.executedNodes,
                  serial[i].engine.executedNodes);
        EXPECT_EQ(parallel[i].engine.retiredNodes,
                  serial[i].engine.retiredNodes);
        EXPECT_EQ(parallel[i].engine.mispredicts,
                  serial[i].engine.mispredicts);
        EXPECT_EQ(parallel[i].engine.faultsFired,
                  serial[i].engine.faultsFired);
    }
}

TEST(Harness, SweepJobsHonorsEnvOverride)
{
    // Not parallel-safe with other env users, but gtest runs tests in
    // one thread per process.
    setenv("FGP_JOBS", "3", 1);
    EXPECT_EQ(sweepJobs(), 3);
    setenv("FGP_JOBS", "0", 1);
    EXPECT_GE(sweepJobs(), 1); // invalid value falls back
    unsetenv("FGP_JOBS");
    EXPECT_GE(sweepJobs(), 1);
}

TEST(AtomicRunner, MatchesInterpreterOnWorkloads)
{
    for (const std::string &name : workloadNames()) {
        Workload wl = makeWorkload(name);
        wl.setScale(0.2);

        SimOS os_vm;
        wl.prepareOs(os_vm, InputSet::Measure);
        const RunResult ref = interpret(wl.program(), os_vm);

        const CodeImage image = buildCfg(wl.program());
        SimOS os_at;
        wl.prepareOs(os_at, InputSet::Measure);
        const AtomicRunResult r = runAtomic(image, os_at);

        EXPECT_EQ(r.exitCode, ref.exitCode) << name;
        EXPECT_EQ(os_at.stdoutText(), os_vm.stdoutText()) << name;
        // Single-block images cannot fault.
        EXPECT_EQ(r.faults, 0u) << name;
        EXPECT_EQ(r.retiredNodes, ref.dynamicNodes) << name;
    }
}

TEST(AtomicRunner, TraceListsCommittedBlocks)
{
    Workload wl = makeWorkload("grep");
    wl.setScale(0.1);
    const CodeImage image = buildCfg(wl.program());
    SimOS os;
    wl.prepareOs(os, InputSet::Measure);
    AtomicRunOptions opts;
    opts.recordTrace = true;
    const AtomicRunResult r = runAtomic(image, os, opts);
    EXPECT_EQ(r.blockTrace.size(), r.committedBlocks);
    ASSERT_FALSE(r.blockTrace.empty());
    EXPECT_EQ(r.blockTrace.front(), image.entryBlock);
}

} // namespace
} // namespace fgp
