/**
 * Schedule-parity goldens for the engine's data layout.
 *
 * The engine's internal representation (SoA node records, arena-backed
 * window, flat waiter tables) is free to change, but the *schedule* it
 * produces — cycles, issue/execute/retire counts, stall attribution,
 * window histograms, every named stat — must stay bit-identical. This
 * test pins a 64-bit fingerprint of the full EngineResult for every
 * (seed workload x issue model) cell, each simulated under three
 * representative configurations (static, small dynamic window with
 * enlargement, big dynamic window), so a layout refactor that perturbs
 * any counter by one is caught against hard-coded goldens.
 *
 * A second test runs the same cells through runSweep() at 1 and 8
 * worker threads and asserts identical fingerprints — the layout
 * (thread-local workspaces included) must not make schedules depend on
 * the worker pool.
 *
 * Regenerate goldens (only when a *schedule-changing* commit intends
 * to): FGP_DUMP_GOLDEN=1 ./schedule_parity_test and paste the table.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstdio>

#include "harness/experiment.hh"
#include "harness/parallel.hh"

namespace fgp {
namespace {

/** Input scale for the goldens: small enough for CI, large enough that
 *  every workload retires through squashes, faults and cache misses. */
constexpr double kScale = 0.05;

const int kIssueModels[] = {1, 2, 5, 8};

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
fnvHistogram(std::uint64_t h, const Histogram &hist)
{
    h = fnv(h, hist.count());
    h = fnv(h, hist.sum());
    h = fnv(h, hist.min());
    h = fnv(h, hist.max());
    h = fnv(h, hist.underflowCount());
    h = fnv(h, hist.overflowCount());
    for (std::size_t i = 0; i < hist.numBuckets(); ++i)
        h = fnv(h, hist.bucketCount(i));
    return h;
}

/** Fingerprint of everything the schedule determines. */
std::uint64_t
scheduleHash(std::uint64_t h, const EngineResult &r)
{
    h = fnv(h, r.cycles);
    h = fnv(h, r.retiredNodes);
    h = fnv(h, r.executedNodes);
    h = fnv(h, r.issuedNodes);
    h = fnv(h, r.committedBlocks);
    h = fnv(h, r.squashedBlocks);
    h = fnv(h, r.faultsFired);
    h = fnv(h, r.branchesResolved);
    h = fnv(h, r.mispredicts);
    h = fnv(h, r.stalls.fetchRedirectSlots);
    h = fnv(h, r.stalls.fetchIdleSlots);
    h = fnv(h, r.stalls.windowFullSlots);
    h = fnv(h, r.stalls.shortWordSlots);
    h = fnv(h, r.stalls.drainSlots);
    h = fnv(h, r.stalls.operandWaitNodeCycles);
    h = fnv(h, r.stalls.memoryWaitNodeCycles);
    h = fnv(h, r.stalls.serializeWaitNodeCycles);
    h = fnv(h, r.stalls.fuBusyNodeCycles);
    h = fnvHistogram(h, r.blockSize);
    h = fnvHistogram(h, r.windowOccupancy);
    h = fnvHistogram(h, r.validNodes);
    h = fnvHistogram(h, r.activeNodes);
    h = fnvHistogram(h, r.readyNodes);
    for (const auto &[name, value] : r.stats.ints()) {
        for (char c : name)
            h = fnv(h, static_cast<std::uint64_t>(c));
        h = fnv(h, value);
    }
    for (const BlockStat &bs : r.blockStats) {
        h = fnv(h, bs.issuedWords);
        h = fnv(h, bs.retiredBlocks);
        h = fnv(h, bs.retiredNodes);
        h = fnv(h, bs.squashedBlocks);
        h = fnv(h, bs.squashedNodes);
        h = fnv(h, bs.mispredicts);
        h = fnv(h, bs.faultsFired);
    }
    return h;
}

/** The three configurations hashed per (workload, issue model) cell. */
std::vector<MachineConfig>
cellConfigs(int issue_model)
{
    return {
        {Discipline::Static, issueModel(issue_model), memoryConfig('A'),
         BranchMode::Single},
        {Discipline::Dyn4, issueModel(issue_model), memoryConfig('G'),
         BranchMode::Enlarged},
        {Discipline::Dyn256, issueModel(issue_model), memoryConfig('G'),
         BranchMode::Single},
    };
}

std::uint64_t
cellHash(ExperimentRunner &runner, const std::string &workload,
         int issue_model)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const MachineConfig &config : cellConfigs(issue_model))
        h = scheduleHash(h, runner.run(workload, config).engine);
    return h;
}

/**
 * Golden fingerprints, workload-major, one entry per issue model in
 * kIssueModels order. Captured from the pre-overhaul engine (PR 5) and
 * unchanged since: the data-layout rework must reproduce these exactly.
 */
struct GoldenRow
{
    const char *workload;
    std::uint64_t hash[4];
};

const GoldenRow kGolden[] = {
    {"sort", {0xf546825b98b8501bULL, 0xd3794b9f4867b495ULL,
              0x4bff3228e1408e98ULL, 0x4054759f06de4862ULL}},
    {"grep", {0x12aadea33cc4fde2ULL, 0x452dd1733eaecccfULL,
              0xc323dcf5c9c21f63ULL, 0x71d7545391c5a5fcULL}},
    {"diff", {0xf6699fde2ca08949ULL, 0x375753844cf08453ULL,
              0xe986767d93550296ULL, 0xdd0857eef654af1fULL}},
    {"cpp", {0xd05dbbcc0dbf7958ULL, 0x9c65abb0ed8722a9ULL,
             0x8f42ed3dfbb1d26bULL, 0x5b2e4a4e5faa48a7ULL}},
    {"compress", {0x8c153d6cac5e2877ULL, 0x4fbe07e83eed69edULL,
                  0x057ed9b475bb1affULL, 0xafc9981d971a11ffULL}},
};

TEST(ScheduleParity, GoldenHashesPerWorkloadAndIssueModel)
{
    // The checks (post-pass verification, disambiguation cross-check)
    // observe the schedule and must never change it: every cell hashes
    // to the same golden with them off and on, in any build type.
    const bool dump = std::getenv("FGP_DUMP_GOLDEN") != nullptr;
    for (const bool checks : {false, true}) {
        ExperimentRunner runner(kScale, RunOptions{.checks = checks});
        for (const GoldenRow &row : kGolden) {
            for (int m = 0; m < 4; ++m) {
                const std::uint64_t h =
                    cellHash(runner, row.workload, kIssueModels[m]);
                if (dump) {
                    std::fprintf(stderr,
                                 "GOLDEN checks=%d %s im%d 0x%016llxULL\n",
                                 checks, row.workload, kIssueModels[m],
                                 static_cast<unsigned long long>(h));
                    continue;
                }
                EXPECT_EQ(h, row.hash[m])
                    << row.workload << " issue model " << kIssueModels[m]
                    << " checks " << checks
                    << ": schedule fingerprint changed — the engine "
                       "layout is no longer schedule-preserving";
            }
        }
    }
}

TEST(ScheduleParity, IdenticalAtOneAndEightJobs)
{
    std::vector<SweepPoint> points;
    for (const GoldenRow &row : kGolden)
        for (int im : kIssueModels)
            for (const MachineConfig &config : cellConfigs(im))
                points.push_back({row.workload, config});

    ExperimentRunner serial(kScale);
    ExperimentRunner threaded(kScale);
    const std::vector<ExperimentResult> a = runSweep(serial, points, 1);
    const std::vector<ExperimentResult> b = runSweep(threaded, points, 8);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const std::uint64_t ha =
            scheduleHash(0xcbf29ce484222325ULL, a[i].engine);
        const std::uint64_t hb =
            scheduleHash(0xcbf29ce484222325ULL, b[i].engine);
        EXPECT_EQ(ha, hb)
            << points[i].workload << " " << points[i].config.name()
            << ": schedule differs between FGP_JOBS=1 and FGP_JOBS=8";
    }
}

} // namespace
} // namespace fgp
