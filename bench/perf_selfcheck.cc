/**
 * @file
 * Simulator-performance self-check: times a fixed slice of the sweep and
 * emits a machine-readable JSON record (wall time, simulations/second,
 * host nanoseconds per simulated cycle). The slice is a deterministic
 * configuration mix exercising all four disciplines, both cache and flat
 * memory, and every branch mode, so its wall time tracks the hot paths
 * the real figure benches spend their time in.
 *
 * Knobs:
 *   FGP_JOBS         worker threads (default: hardware concurrency)
 *   FGP_SCALE        input scale (default 1.0)
 *   FGP_BENCH_OUT    output path for the JSON record (or --out <path>;
 *                    default BENCH_engine.json in the working directory)
 *   FGP_RUN_MANIFEST write the full fgpsim-run-v1 manifest here
 *                    (or --manifest <path>) for `fgpsim compare`
 *   --append <path>  append this run's fgpsim-run-v1 record to a history
 *                    file (BENCH_history.jsonl) — one line per run, so
 *                    the perf trajectory accumulates across commits
 *   --reduced        quarter-size slice for CI smoke runs
 *
 * Besides timing, this bench enforces the engine's zero-steady-state-
 * allocation contract: a counting global operator new feeds
 * setAllocHook(), and after the timed sweep a repeat simulation on a
 * warmed workspace must report zero cycle-loop allocations
 * (EngineResult::allocCycleLoop; syscall buffering is excluded). The
 * per-run totals land in the manifest registry as engine.alloc.*.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <new>

#include "base/logging.hh"

#include "base/strutil.hh"
#include "bench/fig_common.hh"
#include "engine/engine.hh"
#include "metrics/manifest.hh"

// Counting allocator (same pattern as tests/metrics_test.cc): every
// operator new bumps one relaxed atomic and funnels through malloc so
// the override composes with sanitizers.
static std::atomic<std::uint64_t> g_allocCount{0};

void *
operator new(std::size_t size)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// Kept out of line: once gcc inlines a delete body at -O2 it pairs the
// raw free() with the replaced operator new and misfires
// -Wmismatched-new-delete, even though every form funnels through
// malloc/free.
[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void *p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

static std::uint64_t
allocNow()
{
    return g_allocCount.load(std::memory_order_relaxed);
}

using namespace fgp;
using namespace fgp::bench;

static int
runSelfcheck(int argc, char **argv)
{
    detail::setQuiet(true);

    std::string out_path = "BENCH_engine.json";
    if (const char *env = std::getenv("FGP_BENCH_OUT"))
        out_path = env;
    std::string manifest_path;
    std::string history_path;
    bool reduced = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out_path = argv[++i];
        else if (std::strcmp(argv[i], "--manifest") == 0 && i + 1 < argc)
            manifest_path = argv[++i];
        else if (std::strcmp(argv[i], "--append") == 0 && i + 1 < argc)
            history_path = argv[++i];
        else if (std::strcmp(argv[i], "--reduced") == 0)
            reduced = true;
    }

    const int jobs = sweepJobs();
    const double scale = envScale();
    banner("Perf self-check",
           format("simulator wall-time slice (jobs=%d, scale=%.2f)", jobs,
                  scale));

    // Fixed slice: every discipline x {flat A, cached G} x every branch
    // mode (perfect only where it is defined, i.e. dynamic disciplines).
    std::vector<MachineConfig> configs;
    for (Discipline d : allDisciplines()) {
        for (char mc : {'A', 'G'}) {
            for (BranchMode bm : {BranchMode::Single, BranchMode::Enlarged})
                configs.push_back(
                    {d, issueModel(8), memoryConfig(mc), bm});
            if (isDynamic(d) && d != Discipline::Dyn1)
                configs.push_back({d, issueModel(8), memoryConfig(mc),
                                   BranchMode::Perfect});
        }
    }
    if (reduced) {
        // CI smoke slice: drop the slowest discipline and cut the rest.
        std::vector<MachineConfig> cut;
        for (const MachineConfig &c : configs)
            if (c.discipline != Discipline::Dyn256 && c.memory.letter == 'A')
                cut.push_back(c);
        configs = cut;
    }

    // Sample allocations around every simulation (engine.alloc.* in the
    // manifest registry); sampling never changes a schedule.
    setAllocHook(&allocNow);

    ExperimentRunner runner(scale, RunOptions::fromEnv());

    std::vector<SweepPoint> points;
    for (const std::string &workload : workloadNames())
        for (const MachineConfig &config : configs)
            points.push_back({workload, config});

    // Preparation (profile + reference runs) is one-time setup shared by
    // every figure bench; the timed region is the simulations proper.
    for (const std::string &workload : workloadNames())
        runner.referenceNodes(workload);

    // The recorder is created after preparation so its wall clock spans
    // only the timed sweep — the manifest's wall_seconds then gates the
    // same region the printed numbers describe.
    RunRecorder recorder(reduced ? "perf_selfcheck_reduced"
                                 : "perf_selfcheck",
                         &runner);

    const auto start = std::chrono::steady_clock::now();
    const std::vector<ExperimentResult> results =
        runSweep(runner, points, 0, recorder.progress());
    const auto end = std::chrono::steady_clock::now();
    recorder.record(results);

    // Zero-steady-state-allocation contract: once a run has warmed this
    // thread's pooled workspace, a repeat simulation of the same cell
    // must allocate nothing inside the cycle loop. One cell per
    // workload, covering both a static and a deep dynamic window.
    std::uint64_t steady_allocs = 0;
    std::uint64_t steady_sims = 0;
    std::uint64_t arena_node_slots = 0;
    std::uint64_t arena_block_slots = 0;
    std::uint64_t arena_chain_slots = 0;
    std::uint64_t peak_live_nodes = 0;
    for (const std::string &workload : workloadNames()) {
        for (const MachineConfig &config :
             {MachineConfig{Discipline::Static, issueModel(8),
                            memoryConfig('A'), BranchMode::Single},
              MachineConfig{Discipline::Dyn256, issueModel(8),
                            memoryConfig('G'), BranchMode::Single}}) {
            runner.run(workload, config); // warm the workspace
            const ExperimentResult repeat = runner.run(workload, config);
            fgp_assert(repeat.engine.allocSampled,
                       "allocation hook was not sampled");
            if (repeat.engine.allocCycleLoop)
                std::cout << format(
                    "  steady-state leak: %s %s: %llu cycle-loop allocs\n",
                    workload.c_str(), config.name().c_str(),
                    static_cast<unsigned long long>(
                        repeat.engine.allocCycleLoop));
            steady_allocs += repeat.engine.allocCycleLoop;
            ++steady_sims;
            arena_node_slots =
                std::max(arena_node_slots, repeat.engine.arenaNodeSlots);
            arena_block_slots =
                std::max(arena_block_slots, repeat.engine.arenaBlockSlots);
            arena_chain_slots =
                std::max(arena_chain_slots, repeat.engine.arenaChainSlots);
            peak_live_nodes =
                std::max(peak_live_nodes, repeat.engine.peakLiveNodes);
        }
    }
    if (steady_allocs != 0)
        fgp_fatal("engine allocated on a warmed workspace: ",
                  steady_allocs, " cycle-loop allocations across ",
                  steady_sims, " repeat simulations");

    // The interval profiler must honor the same contract: its window,
    // residency and retired-log storage is pooled (clearRetain in
    // beginRun), so a profiled repeat on a warmed workspace also runs
    // the cycle loop allocation-free.
    std::uint64_t profile_steady_allocs = 0;
    std::uint64_t profile_steady_sims = 0;
    {
        ExperimentRunner::EngineTweaks tweaks;
        tweaks.profileWindow = 4096;
        runner.setEngineTweaks(tweaks);
        const MachineConfig config{Discipline::Dyn256, issueModel(8),
                                   memoryConfig('G'), BranchMode::Single};
        for (const std::string &workload : workloadNames()) {
            runner.run(workload, config); // warm the profiler pools
            const ExperimentResult repeat = runner.run(workload, config);
            fgp_assert(repeat.profile.enabled &&
                           repeat.engine.allocSampled,
                       "profiled repeat was not sampled");
            if (repeat.engine.allocCycleLoop)
                std::cout << format(
                    "  profiled steady-state leak: %s: %llu cycle-loop "
                    "allocs\n",
                    workload.c_str(),
                    static_cast<unsigned long long>(
                        repeat.engine.allocCycleLoop));
            profile_steady_allocs += repeat.engine.allocCycleLoop;
            ++profile_steady_sims;
        }
        runner.setEngineTweaks({});
    }
    if (profile_steady_allocs != 0)
        fgp_fatal("interval profiler allocated on a warmed workspace: ",
                  profile_steady_allocs, " cycle-loop allocations across ",
                  profile_steady_sims, " profiled repeat simulations");

    const double wall =
        std::chrono::duration<double>(end - start).count();
    std::uint64_t sim_cycles = 0;
    for (const ExperimentResult &r : results)
        sim_cycles += r.cycles;
    const double sims_per_sec =
        wall > 0.0 ? static_cast<double>(results.size()) / wall : 0.0;
    const double host_ns_per_cycle =
        sim_cycles ? wall * 1e9 / static_cast<double>(sim_cycles) : 0.0;

    std::cout << format("  simulations      : %zu\n", results.size())
              << format("  wall time        : %.3f s\n", wall)
              << format("  sims/second      : %.2f\n", sims_per_sec)
              << format("  simulated cycles : %llu\n",
                        static_cast<unsigned long long>(sim_cycles))
              << format("  host ns/sim cycle: %.1f\n", host_ns_per_cycle)
              << format("  steady-state heap allocations: %llu "
                        "(%llu warmed repeat sims)\n",
                        static_cast<unsigned long long>(steady_allocs),
                        static_cast<unsigned long long>(steady_sims))
              << format("  profiled steady-state allocations: %llu "
                        "(%llu profiled repeat sims)\n",
                        static_cast<unsigned long long>(
                            profile_steady_allocs),
                        static_cast<unsigned long long>(
                            profile_steady_sims))
              << format("  arena occupancy  : %llu node / %llu block / "
                        "%llu chain slots, peak %llu live nodes\n",
                        static_cast<unsigned long long>(arena_node_slots),
                        static_cast<unsigned long long>(arena_block_slots),
                        static_cast<unsigned long long>(arena_chain_slots),
                        static_cast<unsigned long long>(peak_live_nodes));

    const std::int64_t now =
        static_cast<std::int64_t>(std::time(nullptr));
    std::ofstream json(out_path);
    if (!json)
        fgp_fatal("cannot write ", out_path);
    json << "{\n"
         << format("  \"bench\": \"perf_selfcheck%s\",\n",
                   reduced ? "_reduced" : "")
         << format("  \"git\": \"%s\",\n",
                   metrics::jsonEscape(metrics::gitDescribe()).c_str())
         << format("  \"timestamp\": %lld,\n",
                   static_cast<long long>(now))
         << format("  \"iso_time\": \"%s\",\n",
                   metrics::isoTime(now).c_str())
         << format("  \"jobs\": %d,\n", jobs)
         << format("  \"scale\": %.4f,\n", scale)
         << format("  \"sims\": %zu,\n", results.size())
         << format("  \"wall_seconds\": %.4f,\n", wall)
         << format("  \"sims_per_sec\": %.4f,\n", sims_per_sec)
         << format("  \"sim_cycles\": %llu,\n",
                   static_cast<unsigned long long>(sim_cycles))
         << format("  \"host_ns_per_sim_cycle\": %.4f,\n",
                   host_ns_per_cycle)
         << format("  \"steady_state_allocs\": %llu,\n",
                   static_cast<unsigned long long>(steady_allocs))
         << format("  \"steady_state_checked_sims\": %llu,\n",
                   static_cast<unsigned long long>(steady_sims))
         << format("  \"profile_steady_allocs\": %llu,\n",
                   static_cast<unsigned long long>(profile_steady_allocs))
         << format("  \"profile_steady_checked_sims\": %llu,\n",
                   static_cast<unsigned long long>(profile_steady_sims))
         << format("  \"arena_node_slots\": %llu,\n",
                   static_cast<unsigned long long>(arena_node_slots))
         << format("  \"arena_block_slots\": %llu,\n",
                   static_cast<unsigned long long>(arena_block_slots))
         << format("  \"arena_chain_slots\": %llu,\n",
                   static_cast<unsigned long long>(arena_chain_slots))
         << format("  \"peak_live_nodes\": %llu\n",
                   static_cast<unsigned long long>(peak_live_nodes))
         << "}\n";
    std::cout << "\nwrote " << out_path << "\n";

    if (!manifest_path.empty()) {
        std::ofstream manifest(manifest_path);
        if (!manifest)
            fgp_fatal("cannot write ", manifest_path);
        recorder.writeManifest(manifest);
        std::cout << "wrote " << manifest_path << "\n";
    }
    finishRun(recorder); // honors FGP_RUN_MANIFEST
    if (!history_path.empty()) {
        recorder.appendHistory(history_path);
        std::cout << "appended run record to " << history_path << "\n";
    }
    return 0;
}

int
main(int argc, char **argv)
{
    // fgp_fatal throws; without this catch an unwritable --out/--manifest
    // path would std::terminate instead of failing with a diagnostic and
    // a nonzero exit (the contract CI's gates rely on).
    try {
        return runSelfcheck(argc, argv);
    } catch (const fgp::FatalError &err) {
        std::cerr << "perf_selfcheck: " << err.what() << "\n";
        return 1;
    }
}
