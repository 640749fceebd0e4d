/**
 * @file
 * fgpsim — command-line driver mirroring the paper's toolchain (§3.1):
 * the translating loader, the enlargement-file creator and the run-time
 * simulator as one multi-command binary.
 *
 *   fgpsim asm     <src>                       assemble + list blocks
 *   fgpsim run     <src> [--stdin FILE]        functional (VM) execution
 *   fgpsim profile <src> [--out FILE]          write a statistics file
 *   fgpsim profile <src> --config CFG [--interval N] [--json]
 *                  [--chrome FILE] [--top N]    interval profiler: per-window
 *                                              IPC/stall streams plus the
 *                                              executed schedule's dynamic
 *                                              critical path (any of these
 *                                              flags selects this mode;
 *                                              without them the legacy
 *                                              branch-arc statistics file
 *                                              above is produced)
 *   fgpsim bbe     <src> --profile FILE [--out FILE]
 *                  [--max-chain N] [--ratio R] [--min-count N]
 *                                              create an enlargement file
 *   fgpsim sim     <src> --config dyn4/8A/enlarged
 *                  [--plan FILE] [--ras N] [--window N] [--stdin FILE]
 *                  [--json] [--events FILE] [--chrome FILE]
 *                                              cycle-level simulation
 *   fgpsim trace   <src> [--config ...] [--stdin FILE] [--out FILE]
 *                                              per-cycle pipeline trace
 *   fgpsim report  <src> [--config ...] [--top N] [--json]
 *                                              stall/per-block report
 *   fgpsim check   <src> [--config ...] [--plan FILE] [--json] [--strict]
 *                                              static verification of the
 *                                              single/enlarged/translated
 *                                              images (docs/VERIFIER.md)
 *   fgpsim analyze <src> [--config ...] [--plan FILE] [--top N]
 *                  [--json] [--strict]
 *                                              static ILP bounds + workload
 *                                              lint, no simulation
 *                                              (docs/ANALYZER.md)
 *   fgpsim compare <A.jsonl> <B.jsonl> [--tolerance P%]
 *                  [--wall-tolerance P%] [--json]
 *                                              diff two fgpsim-run-v1
 *                                              manifests; nonzero exit on
 *                                              an IPC or wall-time
 *                                              regression (CI perf gate)
 *   fgpsim history <history.jsonl>             perf trajectory of an
 *                                              appended run-header history
 *                                              (BENCH_history.jsonl): git,
 *                                              host ns/sim-cycle, delta vs
 *                                              the previous run
 *
 * <src> is either the name of a built-in benchmark (sort, grep, diff,
 * cpp, compress — inputs are generated automatically) or a path to a
 * micro-assembly file. Built-in benchmarks profile on input set 1 and
 * run/simulate on input set 2, exactly like the paper's protocol.
 */

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "base/table.hh"
#include "bbe/enlarge.hh"
#include "diff/diff.hh"
#include "diff/flame.hh"
#include "diff/stream.hh"
#include "engine/engine.hh"
#include "ir/cfg.hh"
#include "ir/printer.hh"
#include "metrics/manifest.hh"
#include "obs/bus.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "obs/sinks.hh"
#include "analyze/analyze.hh"
#include "analyze/disambig.hh"
#include "analyze/lint.hh"
#include "analyze/oracle.hh"
#include "harness/experiment.hh"
#include "masm/assembler.hh"
#include "profile/profile.hh"
#include "tld/translate.hh"
#include "verify/equiv.hh"
#include "verify/verify.hh"
#include "vm/atomic_runner.hh"
#include "vm/interp.hh"
#include "vm/profile_io.hh"
#include "workloads/workloads.hh"

namespace fgp {
namespace {

struct Options
{
    std::string command;
    std::string source;
    std::vector<std::string> extra; ///< positionals after <src>
    std::map<std::string, std::string> flags;
    RunOptions run; ///< behaviour knobs, parsed once from the environment

    bool has(const std::string &name) const { return flags.count(name); }

    std::string
    get(const std::string &name, const std::string &fallback = "") const
    {
        const auto it = flags.find(name);
        return it == flags.end() ? fallback : it->second;
    }
};

[[noreturn]] void
usage()
{
    std::cerr <<
        "usage: fgpsim <command> <src> [flags]\n"
        "  commands: asm | run | profile | bbe | sim | trace | report |\n"
        "            check | analyze | compare | diff | history\n"
        "  <src>: benchmark name (sort grep diff cpp compress) or .s file\n"
        "  common flags: --stdin FILE, --out FILE\n"
        "  bbe flags:    --profile FILE [--max-chain N] [--ratio R]\n"
        "                [--min-count N]\n"
        "  sim flags:    --config dyn4/8A/enlarged [--plan FILE]\n"
        "                [--ras N] [--window N] [--conservative]\n"
        "                [--json] [--events FILE] [--chrome FILE]\n"
        "  trace flags:  sim flags plus --out FILE (trace destination)\n"
        "  report flags: sim flags plus --top N (blocks in the table)\n"
        "  check flags:  [--config CFG] [--plan FILE] [--json] [--strict]\n"
        "  analyze flags:[--config CFG] [--plan FILE] [--top N] [--json]\n"
        "                [--strict] (exit 1 when lint finds anything)\n"
        "                [--mem] (memory-disambiguation table: per-block\n"
        "                alias classes ranked by may-alias density)\n"
        "                [--oracle] [--oracle-budget STATES]\n"
        "                (exact-schedule oracle: certified optimal block\n"
        "                lengths and the greedy gap; exit 4 when the\n"
        "                height <= oracle <= greedy sandwich breaks —\n"
        "                distinct from exit 1 for lint findings)\n"
        "  compare:      fgpsim compare A.jsonl B.jsonl\n"
        "                [--tolerance P%] [--wall-tolerance P%] [--json]\n"
        "                (fgpsim-run-v1 manifests; exit 1 on regression,\n"
        "                3 on mismatched cell sets)\n"
        "  diff:         fgpsim diff A.jsonl B.jsonl [--top N] [--json]\n"
        "                [--folded FILE] [--chrome FILE]\n"
        "                (fgpsim-profile-v1 or fgpsim-run-v1 streams;\n"
        "                per-window stall-slot attribution of the IPC\n"
        "                delta, critical-path cause/block deltas, and\n"
        "                schedule-divergence pinpointing; --json emits\n"
        "                fgpsim-diff-v1, --folded writes a two-column\n"
        "                folded-stack file for flamegraph diffing,\n"
        "                --chrome writes an A/B overlay trace)\n"
        "  profile (interval mode, any of these flags selects it):\n"
        "                --config CFG [--interval CYCLES] [--json]\n"
        "                [--chrome FILE] [--top N] [--retired] plus the\n"
        "                sim flags; --json emits fgpsim-profile-v1 JSONL;\n"
        "                --retired appends the retired-node log (exact\n"
        "                divergence pinpointing in fgpsim diff)\n"
        "  history:      fgpsim history BENCH_history.jsonl\n";
    std::exit(2);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fgp_fatal("cannot open '", path, "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fgp_fatal("cannot write '", path, "'");
    out << text;
}

bool
isBenchmark(const std::string &name)
{
    const auto &names = workloadNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

/** Resolve <src> into a program plus an OS preparer. */
struct Source
{
    Program program;
    std::optional<Workload> workload;

    void
    prepare(SimOS &os, InputSet set, const Options &opts) const
    {
        if (workload) {
            workload->prepareOs(os, set);
        } else if (opts.has("stdin")) {
            os.setStdin(readFile(opts.get("stdin")));
        }
    }
};

Source
resolveSource(const Options &opts)
{
    Source src;
    if (isBenchmark(opts.source)) {
        src.workload = makeWorkload(opts.source);
        src.program = src.workload->program();
    } else {
        src.program = assemble(readFile(opts.source), opts.source);
    }
    return src;
}

/** <src>'s single-block image and the image it runs as under a config. */
struct Images
{
    CodeImage single;
    CodeImage image; ///< single, or its enlargement
    EnlargePlan plan;
    EnlargeStats stats;
};

/**
 * Build the image <src> runs as under @p config. Enlarging branch modes
 * apply --plan FILE or, without one, a plan from an in-process profile
 * run on input set 1; @p verify sets the enlargement's post-pass check.
 */
Images
buildImages(const Source &src, const Options &opts,
            const MachineConfig &config, bool verify)
{
    Images out;
    out.single = buildCfg(src.program);
    out.image = out.single;
    if (config.branch == BranchMode::Single)
        return out;
    if (opts.has("plan")) {
        out.plan = parsePlan(readFile(opts.get("plan")));
    } else {
        SimOS os;
        src.prepare(os, InputSet::Profile, opts);
        Profile profile;
        InterpOptions iopts;
        iopts.profile = &profile;
        interpret(src.program, os, iopts);
        out.plan = planEnlargement(out.single, profile, {});
    }
    EnlargeOptions eopts;
    eopts.verify = verify;
    out.image = applyEnlargement(out.single, out.plan, &out.stats, eopts);
    return out;
}

/**
 * Engine options from the sim flags (--ras, --window, --conservative).
 * Perfect branch mode records the committed-block trace of @p image on
 * input set 2 into @p trace, which must outlive the simulation.
 */
EngineOptions
simEngineOptions(const Source &src, const Options &opts,
                 const MachineConfig &config, const CodeImage &image,
                 std::vector<std::int32_t> &trace)
{
    EngineOptions eopts;
    eopts.config = config;
    if (opts.has("ras"))
        eopts.predictor.rasDepth =
            static_cast<int>(*parseInt(opts.get("ras")));
    if (opts.has("window"))
        eopts.windowOverride =
            static_cast<int>(*parseInt(opts.get("window")));
    if (opts.has("conservative"))
        eopts.conservativeLoads = true;
    if (config.branch == BranchMode::Perfect) {
        SimOS os;
        src.prepare(os, InputSet::Measure, opts);
        AtomicRunOptions aopts;
        aopts.recordTrace = true;
        trace = runAtomic(image, os, aopts).blockTrace;
        eopts.perfectTrace = &trace;
    }
    return eopts;
}

int
cmdAsm(const Options &opts)
{
    const Source src = resolveSource(opts);
    const CodeImage image = buildCfg(src.program);

    std::size_t mem_nodes = 0;
    std::size_t alu_nodes = 0;
    for (const Node &node : src.program.instrs) {
        if (node.isMem())
            ++mem_nodes;
        else if (!node.isControl())
            ++alu_nodes;
    }
    std::cout << "; " << src.program.instrs.size() << " nodes, "
              << image.blocks.size() << " basic blocks, "
              << src.program.data.size() << " data bytes\n"
              << "; static ALU:MEM ratio "
              << format("%.2f", mem_nodes ? static_cast<double>(alu_nodes) /
                                                static_cast<double>(mem_nodes)
                                          : 0.0)
              << "\n\n";
    printImage(image, std::cout);
    return 0;
}

int
cmdRun(const Options &opts)
{
    const Source src = resolveSource(opts);
    SimOS os;
    src.prepare(os, InputSet::Measure, opts);
    const RunResult r = interpret(src.program, os);
    std::cout << os.stdoutText();
    std::cerr << "exit " << r.exitCode << ", " << r.dynamicNodes
              << " nodes (" << r.memNodes << " mem, " << r.controlNodes
              << " control), " << r.dynamicBlocks << " dynamic blocks\n";
    return r.exitCode;
}

/**
 * Interval-profiling simulation: run <src> under the given machine
 * configuration with the engine's interval profiler attached and report
 * per-window IPC / stall-cause streams plus the executed schedule's
 * dynamic critical path. Selected from `fgpsim profile` by any of
 * --config/--interval/--json/--chrome/--top; the flagless form keeps
 * producing the legacy branch-arc statistics file.
 */
int
cmdProfileInterval(const Options &opts)
{
    const Source src = resolveSource(opts);
    const MachineConfig config =
        parseMachineConfig(opts.get("config", "dyn4/8A/single"));
    const int top = static_cast<int>(*parseInt(opts.get("top", "10")));

    const CodeImage image =
        buildImages(src, opts, config, opts.run.checks).image;
    std::vector<std::int32_t> trace;
    EngineOptions eopts = simEngineOptions(src, opts, config, image, trace);
    CodeImage translated = image;
    analyze::DisambigImage disambig_facts;
    translateForRun(translated, config, opts.run, {}, &eopts,
                    &disambig_facts);

    // Static ceilings for the measured-vs-bound comparison.
    const analyze::ImageAnalysis analysis =
        analyze::analyzeImage(translated, config.memory.hitLatency);
    std::vector<double> bounds(translated.blocks.size(), 0.0);
    for (const analyze::BlockBounds &b : analysis.blocks)
        if (b.block >= 0 &&
            static_cast<std::size_t>(b.block) < bounds.size())
            bounds[static_cast<std::size_t>(b.block)] = b.packedBound;

    profile::IntervalProfiler profiler;
    if (opts.has("interval"))
        profiler.setWindowCycles(
            static_cast<std::uint64_t>(*parseInt(opts.get("interval"))));
    eopts.profile = &profiler;

    SimOS os;
    src.prepare(os, InputSet::Measure, opts);
    const EngineResult r = simulate(translated, os, eopts);

    const profile::CritPath cp = profile::extractCriticalPath(
        profiler.retiredLog(), r.cycles, translated.blocks.size());

    const auto &windows = profiler.windows();
    const std::uint64_t width =
        static_cast<std::uint64_t>(profiler.issueWidth());

    // Blocks ranked by critical-path residency.
    std::vector<std::size_t> ranked;
    for (std::size_t i = 0; i < cp.blockCycles.size(); ++i)
        if (cp.blockCycles[i])
            ranked.push_back(i);
    std::sort(ranked.begin(), ranked.end(),
              [&](std::size_t a, std::size_t b) {
                  if (cp.blockCycles[a] != cp.blockCycles[b])
                      return cp.blockCycles[a] > cp.blockCycles[b];
                  return a < b;
              });
    const std::size_t rankedTotal = ranked.size();
    if (ranked.size() > static_cast<std::size_t>(std::max(top, 0)))
        ranked.resize(static_cast<std::size_t>(std::max(top, 0)));

    struct Cause
    {
        const char *name;
        std::uint64_t cycles;
    };
    std::vector<Cause> causes;
    for (std::size_t c = 0; c < profile::kCritCauseCount; ++c)
        causes.push_back(
            {profile::critCauseName(static_cast<profile::CritCause>(c)),
             cp.causeCycles[c]});

    if (opts.has("chrome")) {
        std::ofstream chrome(opts.get("chrome"), std::ios::binary);
        if (!chrome)
            fgp_fatal("cannot write '", opts.get("chrome"), "'");
        obs::ChromeTraceSink sink(chrome);
        for (const profile::WindowSample &win : windows) {
            const double slots =
                static_cast<double>(win.cycles * width);
            sink.emitCounter(win.startCycle, "ipc", win.ipc());
            sink.emitCounter(win.startCycle, "ready_mean",
                             win.cycles
                                 ? static_cast<double>(win.readySum) /
                                       static_cast<double>(win.cycles)
                                 : 0.0);
            sink.emitCounter(win.startCycle, "live_max",
                             static_cast<double>(win.liveMax));
            const Cause slotCauses[] = {
                {"stall.fetch_redirect", win.stalls.fetchRedirectSlots},
                {"stall.fetch_idle", win.stalls.fetchIdleSlots},
                {"stall.window_full", win.stalls.windowFullSlots},
                {"stall.short_word", win.stalls.shortWordSlots},
                {"stall.operand_wait",
                 win.stalls.operandWaitNodeCycles},
                {"stall.memory_wait", win.stalls.memoryWaitNodeCycles},
                {"stall.fu_busy", win.stalls.fuBusyNodeCycles}};
            for (const Cause &c : slotCauses)
                sink.emitCounter(win.startCycle, c.name,
                                 slots > 0.0
                                     ? static_cast<double>(c.cycles) /
                                           slots
                                     : 0.0);
        }
        sink.onRunEnd();
    }

    if (opts.has("json")) {
        const auto line = [](metrics::JsonLineWriter &w) {
            std::cout << w.str() << "\n";
        };
        {
            metrics::JsonLineWriter w;
            w.field("schema", "fgpsim-profile-v1");
            w.field("kind", "profile");
            w.field("workload", opts.source);
            w.field("config", config.name());
            w.field("window_cycles", profiler.windowCycles());
            w.field("issue_width", width);
            w.field("cycles", r.cycles);
            w.field("issued_nodes", r.issuedNodes);
            w.field("retired_nodes", r.retiredNodes);
            w.field("nodes_per_cycle", r.nodesPerCycle());
            w.field("static_ipc_bound", analysis.staticIpcBound);
            w.field("crit_path_cycles", cp.pathCycles);
            w.field("crit_path_nodes", cp.pathNodes);
            w.field("crit_path_implied_ipc", cp.impliedIpc());
            w.field("windows",
                    static_cast<std::uint64_t>(windows.size()));
            w.field("sched_hash",
                    format("0x%016llx", static_cast<unsigned long long>(
                                            profiler.schedHash())));
            line(w);
        }
        for (const profile::WindowSample &win : windows) {
            metrics::JsonLineWriter w;
            w.field("kind", "window");
            w.field("index", win.index);
            w.field("start_cycle", win.startCycle);
            w.field("cycles", win.cycles);
            w.field("ipc", win.ipc());
            w.field("issued_nodes", win.issuedNodes);
            w.field("retired_nodes", win.retiredNodes);
            w.field("executed_nodes", win.executedNodes);
            w.field("committed_blocks", win.committedBlocks);
            w.field("squashed_blocks", win.squashedBlocks);
            w.field("mispredicts", win.mispredicts);
            w.field("faults_fired", win.faultsFired);
            w.field("stall_fetch_redirect",
                    win.stalls.fetchRedirectSlots);
            w.field("stall_fetch_idle", win.stalls.fetchIdleSlots);
            w.field("stall_window_full", win.stalls.windowFullSlots);
            w.field("stall_short_word", win.stalls.shortWordSlots);
            w.field("stall_drain", win.stalls.drainSlots);
            w.field("stall_operand_wait",
                    win.stalls.operandWaitNodeCycles);
            w.field("stall_memory_wait",
                    win.stalls.memoryWaitNodeCycles);
            w.field("stall_serialize_wait",
                    win.stalls.serializeWaitNodeCycles);
            w.field("stall_fu_busy", win.stalls.fuBusyNodeCycles);
            w.field("ready_mean",
                    win.cycles ? static_cast<double>(win.readySum) /
                                     static_cast<double>(win.cycles)
                               : 0.0);
            w.field("ready_max", win.readyMax);
            w.field("live_max", win.liveMax);
            w.field("store_queue_max", win.storeQueueMax);
            w.field("write_buf_max", win.writeBufMax);
            w.field("sched_hash",
                    format("0x%016llx", static_cast<unsigned long long>(
                                            win.schedHash)));
            line(w);
        }
        for (const profile::WindowSample &win : windows) {
            const auto &residency = profiler.residency();
            for (std::uint32_t i = 0; i < win.residencyCount; ++i) {
                const profile::ResidencyEntry &entry =
                    residency[win.residencyOffset + i];
                metrics::JsonLineWriter w;
                w.field("kind", "residency");
                w.field("window", win.index);
                w.field("block",
                        static_cast<std::uint64_t>(entry.block));
                w.field("retired_nodes", entry.retiredNodes);
                line(w);
            }
        }
        for (const Cause &c : causes) {
            metrics::JsonLineWriter w;
            w.field("kind", "critpath");
            w.field("cause", c.name);
            w.field("cycles", c.cycles);
            w.field("share", cp.pathCycles
                                 ? static_cast<double>(c.cycles) /
                                       static_cast<double>(cp.pathCycles)
                                 : 0.0);
            line(w);
        }
        for (std::size_t i : ranked) {
            metrics::JsonLineWriter w;
            w.field("kind", "critblock");
            w.field("block", static_cast<std::uint64_t>(i));
            w.field("entry_pc",
                    static_cast<int>(r.blockStats[i].entryPc));
            w.field("path_cycles", cp.blockCycles[i]);
            w.field("path_share",
                    cp.pathCycles
                        ? static_cast<double>(cp.blockCycles[i]) /
                              static_cast<double>(cp.pathCycles)
                        : 0.0);
            w.field("retired_nodes", r.blockStats[i].retiredNodes);
            w.field("ipc_bound", bounds[i]);
            line(w);
        }
        // Full joint block x cause attribution — every nonzero cell,
        // not top-N, so the critedge records sum exactly to the path
        // length (the differential folded-stack export's raw material).
        for (std::size_t i = 0; i < cp.blockCauses.size(); ++i) {
            for (std::size_t c = 0; c < profile::kCritCauseCount; ++c) {
                if (!cp.blockCauses[i][c])
                    continue;
                metrics::JsonLineWriter w;
                w.field("kind", "critedge");
                w.field("block", static_cast<std::uint64_t>(i));
                w.field("entry_pc",
                        static_cast<int>(r.blockStats[i].entryPc));
                w.field("cause",
                        profile::critCauseName(
                            static_cast<profile::CritCause>(c)));
                w.field("cycles", cp.blockCauses[i][c]);
                line(w);
            }
        }
        if (opts.has("retired")) {
            // Stream the retired-node log itself so `fgpsim diff` can
            // pinpoint the exact first divergent node, not just the
            // window. Each node carries its window index (windows are
            // closed in retirement order, so a cumulative count walk
            // assigns them exactly).
            const auto &log = profiler.retiredLog();
            std::size_t win_idx = 0;
            std::uint64_t win_end =
                windows.empty() ? log.size() : windows[0].retiredNodes;
            for (std::size_t i = 0; i < log.size(); ++i) {
                while (win_idx + 1 < windows.size() &&
                       static_cast<std::uint64_t>(i) >= win_end) {
                    ++win_idx;
                    win_end += windows[win_idx].retiredNodes;
                }
                const profile::RetiredNode &n = log[i];
                metrics::JsonLineWriter w;
                w.field("kind", "retired");
                w.field("seq", n.seq);
                w.field("parent_seq", n.parentSeq);
                w.field("issue_cycle",
                        static_cast<std::uint64_t>(n.issueCycle));
                w.field("ready_cycle",
                        static_cast<std::uint64_t>(n.readyCycle));
                w.field("sched_cycle",
                        static_cast<std::uint64_t>(n.schedCycle));
                w.field("complete_cycle",
                        static_cast<std::uint64_t>(n.completeCycle));
                w.field("block", static_cast<std::uint64_t>(n.block));
                w.field("edge", profile::edgeKindName(n.edge));
                w.field("window",
                        static_cast<std::uint64_t>(win_idx));
                line(w);
            }
        }
        return r.exitCode;
    }

    // Human-readable report.
    std::cout << "== fgpsim profile: " << opts.source << " on "
              << config.name() << " ==\n\n"
              << "cycles             " << r.cycles << "\n"
              << "retired nodes      " << r.retiredNodes << "\n"
              << "nodes/cycle        " << format("%.3f", r.nodesPerCycle())
              << " (static bound " << format("%.3f", analysis.staticIpcBound)
              << ")\n"
              << "window cycles      " << profiler.windowCycles() << " ("
              << windows.size() << " windows)\n"
              << "critical path      " << cp.pathCycles << " cycles, "
              << cp.pathNodes << " nodes (implied IPC "
              << format("%.3f", cp.impliedIpc()) << ")\n";

    std::cout << "\nWindows:\n";
    Table wt({"idx", "start", "ipc", "retired", "squash", "mispred",
              "top stall", "ready~", "live^"});
    for (const profile::WindowSample &win : windows) {
        const Cause winCauses[] = {
            {"fetch_redirect", win.stalls.fetchRedirectSlots},
            {"fetch_idle", win.stalls.fetchIdleSlots},
            {"window_full", win.stalls.windowFullSlots},
            {"short_word", win.stalls.shortWordSlots},
            {"drain", win.stalls.drainSlots}};
        const Cause *topCause = &winCauses[0];
        for (const Cause &c : winCauses)
            if (c.cycles > topCause->cycles)
                topCause = &c;
        wt.addRow({std::to_string(win.index),
                   std::to_string(win.startCycle),
                   format("%.3f", win.ipc()),
                   std::to_string(win.retiredNodes),
                   std::to_string(win.squashedBlocks),
                   std::to_string(win.mispredicts),
                   topCause->cycles ? topCause->name : "-",
                   format("%.1f",
                          win.cycles
                              ? static_cast<double>(win.readySum) /
                                    static_cast<double>(win.cycles)
                              : 0.0),
                   std::to_string(win.liveMax)});
    }
    wt.print(std::cout);

    std::cout << "\nCritical path (" << cp.pathCycles << " of " << r.cycles
              << " cycles):\n";
    Table ct({"cause", "cycles", "share"});
    for (const Cause &c : causes)
        ct.addRow({c.name, std::to_string(c.cycles),
                   cp.pathCycles
                       ? format("%.1f%%",
                                100.0 * static_cast<double>(c.cycles) /
                                    static_cast<double>(cp.pathCycles))
                       : "-"});
    ct.print(std::cout);

    std::cout << "\nTop " << ranked.size()
              << " static blocks on the critical path (" << rankedTotal
              << " contributing):\n";
    Table bt({"block", "entry_pc", "path_cycles", "share", "ret_nodes",
              "ipc_bound"});
    for (std::size_t i : ranked) {
        bt.addRow({std::to_string(i),
                   std::to_string(r.blockStats[i].entryPc),
                   std::to_string(cp.blockCycles[i]),
                   format("%.1f%%",
                          100.0 * static_cast<double>(cp.blockCycles[i]) /
                              static_cast<double>(cp.pathCycles)),
                   std::to_string(r.blockStats[i].retiredNodes),
                   format("%.3f", bounds[i])});
    }
    bt.print(std::cout);
    return r.exitCode;
}

int
cmdProfile(const Options &opts)
{
    // Any interval-profiler flag switches to the simulating profiler;
    // the flagless form stays the legacy branch-arc statistics file
    // consumed by `fgpsim bbe`.
    if (opts.has("config") || opts.has("interval") || opts.has("json") ||
        opts.has("chrome") || opts.has("top")) {
        return cmdProfileInterval(opts);
    }

    const Source src = resolveSource(opts);
    SimOS os;
    src.prepare(os, InputSet::Profile, opts);
    Profile profile;
    InterpOptions iopts;
    iopts.profile = &profile;
    const RunResult r = interpret(src.program, os, iopts);

    const std::string text = serializeProfile(profile);
    if (opts.has("out")) {
        writeFile(opts.get("out"), text);
        std::cerr << "profiled " << r.dynamicNodes << " nodes, "
                  << profile.arcs.size() << " branches -> "
                  << opts.get("out") << "\n";
    } else {
        std::cout << text;
    }
    return 0;
}

int
cmdBbe(const Options &opts)
{
    if (!opts.has("profile"))
        fgp_fatal("bbe needs --profile FILE (from 'fgpsim profile')");
    const Source src = resolveSource(opts);
    const Profile profile = parseProfile(readFile(opts.get("profile")));

    EnlargeOptions eopts;
    if (opts.has("max-chain"))
        eopts.maxChainLen =
            static_cast<int>(*parseInt(opts.get("max-chain")));
    if (opts.has("ratio"))
        eopts.minArcRatio = std::atof(opts.get("ratio").c_str());
    if (opts.has("min-count"))
        eopts.minArcCount =
            static_cast<std::uint64_t>(*parseInt(opts.get("min-count")));

    const CodeImage single = buildCfg(src.program);
    const EnlargePlan plan = planEnlargement(single, profile, eopts);

    const std::string text = serializePlan(plan);
    if (opts.has("out")) {
        writeFile(opts.get("out"), text);
        std::cerr << "planned " << plan.chains.size() << " chains -> "
                  << opts.get("out") << "\n";
    } else {
        std::cout << text;
    }
    return 0;
}

enum class SimMode { Stats, Trace, Report };

int
cmdSim(const Options &opts, SimMode mode = SimMode::Stats)
{
    const Source src = resolveSource(opts);
    const MachineConfig config =
        parseMachineConfig(opts.get("config", "dyn4/8A/single"));

    const Images images = buildImages(src, opts, config, opts.run.checks);
    std::vector<std::int32_t> trace;
    EngineOptions eopts =
        simEngineOptions(src, opts, config, images.image, trace);

    // The image must be translated for this machine configuration.
    CodeImage translated = images.image;
    analyze::DisambigImage disambig_facts;
    translateForRun(translated, config, opts.run, {}, &eopts,
                    &disambig_facts);

    // Observability sinks. Streams must outlive simulate(); the bus does
    // not own the sinks.
    obs::EventBus bus;
    std::ofstream traceFile, eventsFile, chromeFile;
    std::optional<obs::TextTraceSink> textSink;
    std::optional<obs::JsonlSink> jsonlSink;
    std::optional<obs::ChromeTraceSink> chromeSink;
    const bool traceToFile = mode == SimMode::Trace && opts.has("out");
    if (mode == SimMode::Trace) {
        std::ostream *dst = &std::cout;
        if (traceToFile) {
            traceFile.open(opts.get("out"), std::ios::binary);
            if (!traceFile)
                fgp_fatal("cannot write '", opts.get("out"), "'");
            dst = &traceFile;
        }
        textSink.emplace(*dst);
        bus.addSink(&*textSink);
    }
    if (opts.has("events")) {
        eventsFile.open(opts.get("events"), std::ios::binary);
        if (!eventsFile)
            fgp_fatal("cannot write '", opts.get("events"), "'");
        jsonlSink.emplace(eventsFile);
        bus.addSink(&*jsonlSink);
    }
    if (opts.has("chrome")) {
        chromeFile.open(opts.get("chrome"), std::ios::binary);
        if (!chromeFile)
            fgp_fatal("cannot write '", opts.get("chrome"), "'");
        chromeSink.emplace(chromeFile);
        bus.addSink(&*chromeSink);
    }
    if (bus.enabled())
        eopts.bus = &bus;

    SimOS os;
    src.prepare(os, InputSet::Measure, opts);
    const EngineResult r = simulate(translated, os, eopts);

    const obs::ReportMeta meta{opts.source, config.name()};
    const bool json = opts.has("json");
    if (mode == SimMode::Report) {
        if (json) {
            obs::writeResultJson(std::cout, r, meta);
        } else {
            // Put each block's static ceiling (analyzer packed bound)
            // next to its measured stats in the block table.
            const analyze::ImageAnalysis analysis =
                analyze::analyzeImage(translated, config.memory.hitLatency);
            std::vector<double> bounds(translated.blocks.size(), 0.0);
            for (const analyze::BlockBounds &b : analysis.blocks)
                if (b.block >= 0 &&
                    static_cast<std::size_t>(b.block) < bounds.size())
                    bounds[static_cast<std::size_t>(b.block)] =
                        b.packedBound;
            obs::printReport(std::cout, r, meta,
                             static_cast<int>(*parseInt(
                                 opts.get("top", "10"))),
                             &bounds);
        }
        return r.exitCode;
    }
    if (mode == SimMode::Stats && json)
        obs::writeResultJson(std::cout, r, meta);
    else if (mode == SimMode::Stats || traceToFile)
        std::cout << os.stdoutText();
    std::cerr << "config               " << config.name() << "\n"
              << "exit                 " << r.exitCode << "\n"
              << "cycles               " << r.cycles << "\n"
              << "retired nodes        " << r.retiredNodes << "\n"
              << "nodes per cycle      "
              << format("%.3f", r.nodesPerCycle()) << "\n"
              << "executed nodes       " << r.executedNodes << "\n"
              << "redundancy           "
              << format("%.3f", r.redundancy()) << "\n"
              << "mispredicts          " << r.mispredicts << "\n"
              << "faults fired         " << r.faultsFired << "\n";
    if (config.branch != BranchMode::Single)
        std::cerr << "enlargement          " << images.stats.chains
                  << " chains, mean length "
                  << format("%.2f", images.stats.meanChainLen) << "\n";
    return r.exitCode;
}

/**
 * Static verification pipeline: build the single image, replay the
 * enlargement (when the config uses enlarged code) and translate, running
 * the structural verifier and the transform-soundness checker at every
 * stage. Exit 0 iff no error-severity diagnostics.
 */
int
cmdCheck(const Options &opts)
{
    const Source src = resolveSource(opts);
    const MachineConfig config =
        parseMachineConfig(opts.get("config", "dyn4/8A/enlarged"));

    // The passes' own post-pass assertions would throw on the first bad
    // image; keep them off so every stage reports through one Report.
    RunOptions run = opts.run;
    run.checks = false;

    verify::VerifyOptions vopts;
    vopts.strictUninit = opts.has("strict");

    verify::Report report;
    std::size_t blocks_checked = 0;
    std::size_t nodes_checked = 0;
    auto tally = [&](const CodeImage &image) {
        blocks_checked += image.blocks.size();
        nodes_checked += image.totalNodes();
    };

    const Images images = buildImages(src, opts, config, run.checks);
    verify::verifyImageInto(images.single, report, vopts, "single");
    tally(images.single);
    if (config.branch != BranchMode::Single) {
        verify::verifyImageInto(images.image, report, vopts, "enlarged");
        verify::checkEnlargementSoundness(images.single, images.image,
                                          images.plan, report,
                                          EnlargeOptions{}.maxInstances,
                                          "enlarged");
        tally(images.image);
    }

    // Translate exactly as a run would (with the no-alias facts, hoisted
    // loads are not flagged as IMG011; oracle schedules are adopted), so
    // check proves the image the sweeps measure.
    CodeImage translated = images.image;
    translateForRun(translated, config, run);
    verify::VerifyOptions topts = vopts;
    topts.issue = &config.issue;
    if (run.staticDisambig)
        topts.memFacts = analyze::disambigSchedulingHook();
    verify::verifyImageInto(translated, report, topts, "translated");
    verify::checkTranslationSoundness(images.image, translated, report,
                                      "translated");
    tally(translated);

    const std::size_t errors = report.errorCount();
    const std::size_t warnings = report.warningCount();

    if (opts.has("json")) {
        obs::JsonWriter json(std::cout);
        json.beginObject();
        json.field("schema", "fgpsim-check-v1");
        json.field("workload", opts.source);
        json.field("config", config.name());
        json.field("strict", vopts.strictUninit);
        json.field("blocks_checked",
                   static_cast<std::uint64_t>(blocks_checked));
        json.field("nodes_checked",
                   static_cast<std::uint64_t>(nodes_checked));
        json.field("errors", static_cast<std::uint64_t>(errors));
        json.field("warnings", static_cast<std::uint64_t>(warnings));
        json.beginArray("diagnostics");
        for (const verify::Diagnostic &diag : report.diagnostics()) {
            json.beginObject();
            json.field("code", verify::codeId(diag.code));
            json.field("name", verify::codeName(diag.code));
            json.field("severity", verify::severityName(diag.severity));
            json.field("stage", diag.stage);
            json.field("block", diag.block);
            json.field("node", diag.node);
            json.field("orig_pc", diag.origPc);
            json.field("message", diag.message);
            json.endObject();
        }
        json.endArray();
        json.endObject();
        std::cout << "\n";
    } else {
        std::cout << "check " << opts.source << " (" << config.name()
                  << ")\n"
                  << "  blocks checked     " << blocks_checked << "\n"
                  << "  nodes checked      " << nodes_checked << "\n";
        if (config.branch != BranchMode::Single)
            std::cout << "  enlargement        " << images.stats.chains
                      << " chains, " << images.stats.companions
                      << " companions, " << images.stats.faultNodes
                      << " fault nodes\n";
        if (!report.diagnostics().empty())
            std::cout << report.renderText();
        if (errors)
            std::cout << "check FAILED: " << errors << " errors, "
                      << warnings << " warnings\n";
        else
            std::cout << "check passed: 0 errors, " << warnings
                      << " warnings\n";
    }
    return errors ? 1 : 0;
}

/**
 * Static ILP analysis pipeline: build the single image, replay the
 * enlargement (when the config uses enlarged code), translate, and report
 * the analyzer's per-block dependence heights and ILP bounds plus the
 * workload lint's AN findings (docs/ANALYZER.md) — all without running a
 * single simulated cycle. --oracle adds the exact-schedule oracle's
 * certified per-block optimal lengths and the greedy gap.
 *
 * Exit codes: 0 clean; 1 lint errors, or — under --strict — any lint
 * finding at all; 4 oracle bound violation (the soundness sandwich
 * height <= oracle <= greedy broke on some block — an analyzer bug,
 * reported regardless of --strict).
 */
int
cmdAnalyze(const Options &opts)
{
    const Source src = resolveSource(opts);
    const MachineConfig config =
        parseMachineConfig(opts.get("config", "dyn4/8A/enlarged"));
    const int top = static_cast<int>(*parseInt(opts.get("top", "10")));

    const Images images = buildImages(src, opts, config, opts.run.checks);
    const CodeImage &single = images.single;
    const CodeImage &image = images.image;
    const EnlargePlan &plan = images.plan;
    const bool enlarged_mode = config.branch != BranchMode::Single;

    CodeImage translated = image;
    translateForRun(translated, config, opts.run);

    // Bounds come from the translated image (words are the packed bound);
    // the lint reads the pre-translation image, where source-level
    // anti-patterns live.
    const int hit_latency = config.memory.hitLatency;
    const analyze::ImageAnalysis analysis =
        analyze::analyzeImage(translated, hit_latency);

    // Exact-schedule oracle (--oracle): certified optimal-length
    // intervals per block plus the greedy gap, with the soundness
    // sandwich height <= oracle <= greedy cross-checked on every block
    // (a violation is an analyzer bug and exits 4).
    const bool oracle_mode = opts.has("oracle");
    analyze::ImageOracle oracle;
    std::size_t bound_violations = 0;
    if (oracle_mode) {
        analyze::OracleOptions oopts;
        if (opts.has("oracle-budget"))
            oopts.maxStates = static_cast<std::size_t>(
                *parseInt(opts.get("oracle-budget")));
        oracle = analyze::oracleImage(translated, config, oopts);
        for (const analyze::BlockOracle &b : oracle.blocks) {
            if (b.nodes == 0)
                continue;
            if (b.height > b.upperBound ||
                b.upperBound > b.greedyLength ||
                b.lowerBound > b.upperBound)
                ++bound_violations;
        }
        // Test-only injection so the exit-4 path stays covered without
        // requiring a genuine soundness bug (tests/cli_test.sh).
        if (const char *env = std::getenv("FGP_ORACLE_XFAIL"))
            bound_violations += env[0] == '1';
    }

    verify::Report report;
    analyze::LintOptions lopts;
    lopts.memHitLatency = hit_latency;
    if (oracle_mode)
        lopts.oracle = &oracle;
    if (enlarged_mode) {
        lopts.single = &single;
        lopts.plan = &plan;
        analyze::lintImage(image, report, lopts, "enlarged");
    } else {
        analyze::lintImage(single, report, lopts, "single");
    }

    std::vector<analyze::ChainAudit> audits;
    if (enlarged_mode)
        audits = analyze::auditChains(single, image, plan, hit_latency);

    // Static memory disambiguation over the translated image: the JSON
    // always carries the aggregate "memory" section plus the per-block
    // ranking; the human table is opt-in via --mem.
    const analyze::DisambigImage disambig =
        analyze::disambigImage(translated);
    std::vector<const analyze::BlockDisambig *> mem_ranked;
    for (const analyze::BlockDisambig &b : disambig.blocks)
        if (!b.pairs.empty())
            mem_ranked.push_back(&b);
    std::sort(mem_ranked.begin(), mem_ranked.end(),
              [](const analyze::BlockDisambig *a,
                 const analyze::BlockDisambig *b) {
                  if (a->mayDensity() != b->mayDensity())
                      return a->mayDensity() > b->mayDensity();
                  if (a->mayAlias != b->mayAlias)
                      return a->mayAlias > b->mayAlias;
                  return a->block < b->block;
              });
    if (static_cast<int>(mem_ranked.size()) > top)
        mem_ranked.resize(static_cast<std::size_t>(top));

    const std::size_t errors = report.errorCount();
    const std::size_t warnings = report.warningCount();

    // Blocks ranked by dependence height for the table / JSON array.
    std::vector<const analyze::BlockBounds *> ranked;
    ranked.reserve(analysis.blocks.size());
    for (const analyze::BlockBounds &b : analysis.blocks)
        ranked.push_back(&b);
    std::sort(ranked.begin(), ranked.end(),
              [](const analyze::BlockBounds *a,
                 const analyze::BlockBounds *b) {
                  if (a->critPath != b->critPath)
                      return a->critPath > b->critPath;
                  return a->block < b->block;
              });
    if (static_cast<int>(ranked.size()) > top)
        ranked.resize(static_cast<std::size_t>(top));

    // Human oracle table: widest proven gaps first, budget-exhausted
    // blocks next (their gap is unproven), ties by block id.
    std::vector<const analyze::BlockOracle *> oracle_ranked;
    for (const analyze::BlockOracle &b : oracle.blocks)
        if (b.nodes > 0 && (b.gap() > 0 || !b.exact))
            oracle_ranked.push_back(&b);
    std::sort(oracle_ranked.begin(), oracle_ranked.end(),
              [](const analyze::BlockOracle *a,
                 const analyze::BlockOracle *b) {
                  if (a->gap() != b->gap())
                      return a->gap() > b->gap();
                  if (a->exact != b->exact)
                      return !a->exact; // unproven (exhausted) first
                  return a->block < b->block;
              });
    if (static_cast<int>(oracle_ranked.size()) > top)
        oracle_ranked.resize(static_cast<std::size_t>(top));

    if (opts.has("json")) {
        obs::JsonWriter json(std::cout);
        json.beginObject();
        json.field("schema", "fgpsim-analyze-v1");
        json.field("workload", opts.source);
        json.field("config", config.name());
        json.field("mem_hit_latency", hit_latency);
        json.field("blocks_analyzed",
                   static_cast<std::uint64_t>(analysis.blocks.size()));
        json.field("nodes_analyzed",
                   static_cast<std::uint64_t>(analysis.totalNodes));
        json.field("enlarged_blocks",
                   static_cast<std::uint64_t>(analysis.enlargedBlocks));
        json.field("companion_blocks",
                   static_cast<std::uint64_t>(analysis.companionBlocks));
        json.field("crit_path_max", analysis.critPathMax);
        json.field("mean_height", analysis.meanHeight);
        json.field("dataflow_bound", analysis.dataflowBound);
        json.field("static_ipc_bound", analysis.staticIpcBound);
        json.field("errors", static_cast<std::uint64_t>(errors));
        json.field("warnings", static_cast<std::uint64_t>(warnings));
        json.beginArray("resource_bounds");
        for (const analyze::ResourceBound &rb : analysis.resourceBounds) {
            json.beginObject();
            json.field("model", rb.issueIndex);
            json.field("width", rb.width);
            json.field("nodes_per_cycle", rb.bound);
            json.endObject();
        }
        json.endArray();
        json.beginArray("blocks");
        for (const analyze::BlockBounds *b : ranked) {
            json.beginObject();
            json.field("block", b->block);
            json.field("entry_pc", b->entryPc);
            json.field("block_nodes", static_cast<std::uint64_t>(b->nodes));
            json.field("block_words", static_cast<std::uint64_t>(b->words));
            json.field("height", b->critPath);
            json.field("residual_height", b->critPathResidual);
            json.field("ipc_dataflow", b->dataflowBound);
            json.field("ipc_packed", b->packedBound);
            json.endObject();
        }
        json.endArray();
        json.beginArray("chains");
        for (const analyze::ChainAudit &audit : audits) {
            json.beginObject();
            json.field("chain", static_cast<std::uint64_t>(audit.chainIndex));
            json.field("chain_entry_pc", audit.entryPc);
            json.field("members", static_cast<std::uint64_t>(audit.members));
            json.field("chain_nodes", static_cast<std::uint64_t>(audit.nodes));
            json.field("member_height_sum", audit.memberHeightSum);
            json.field("fused_height", audit.fusedHeight);
            json.field("height_reduction", audit.heightReduction());
            json.endObject();
        }
        json.endArray();
        json.beginObject("memory");
        json.field("pairs",
                   static_cast<std::uint64_t>(disambig.pairsTotal));
        json.field("no_alias",
                   static_cast<std::uint64_t>(disambig.noAliasTotal));
        json.field("must_alias",
                   static_cast<std::uint64_t>(disambig.mustAliasTotal));
        json.field("may_alias",
                   static_cast<std::uint64_t>(disambig.mayAliasTotal));
        json.field("independent_loads",
                   static_cast<std::uint64_t>(
                       disambig.independentLoadsTotal));
        json.field("enlarged_no_alias",
                   static_cast<std::uint64_t>(disambig.enlargedNoAlias));
        json.endObject();
        json.beginArray("mem_blocks");
        for (const analyze::BlockDisambig *b : mem_ranked) {
            json.beginObject();
            json.field("block", b->block);
            json.field("entry_pc", b->entryPc);
            json.field("loads", static_cast<std::uint64_t>(b->loads));
            json.field("stores", static_cast<std::uint64_t>(b->stores));
            json.field("pairs",
                       static_cast<std::uint64_t>(b->pairs.size()));
            json.field("no_alias", static_cast<std::uint64_t>(b->noAlias));
            json.field("must_alias",
                       static_cast<std::uint64_t>(b->mustAlias));
            json.field("may_alias",
                       static_cast<std::uint64_t>(b->mayAlias));
            json.field("independent_loads",
                       static_cast<std::uint64_t>(b->independentLoads));
            json.field("may_density", b->mayDensity());
            json.endObject();
        }
        json.endArray();
        if (oracle_mode) {
            json.beginObject("oracle");
            json.field("blocks_exact",
                       static_cast<std::uint64_t>(oracle.exactBlocks));
            json.field("blocks_exhausted",
                       static_cast<std::uint64_t>(
                           oracle.exhaustedBlocks));
            json.field("greedy_cycles",
                       static_cast<std::int64_t>(oracle.greedyCycles));
            json.field("oracle_cycles",
                       static_cast<std::int64_t>(oracle.oracleCycles));
            json.field("max_gap", oracle.maxGap);
            json.field("bound_violations",
                       static_cast<std::uint64_t>(bound_violations));
            json.endObject();
            // All blocks, not top-N: check_bench.sh --validate-oracle
            // recomputes the sandwich invariant over every entry.
            json.beginArray("oracle_blocks");
            for (const analyze::BlockOracle &b : oracle.blocks) {
                json.beginObject();
                json.field("block", b.block);
                json.field("entry_pc", b.entryPc);
                json.field("block_nodes",
                           static_cast<std::uint64_t>(b.nodes));
                json.field("height", b.height);
                json.field("greedy_length", b.greedyLength);
                json.field("lower_bound", b.lowerBound);
                json.field("upper_bound", b.upperBound);
                json.field("exact", static_cast<std::uint64_t>(b.exact));
                json.field("states",
                           static_cast<std::uint64_t>(b.statesExplored));
                json.field("gap", b.gap());
                json.endObject();
            }
            json.endArray();
        }
        json.beginArray("diagnostics");
        for (const verify::Diagnostic &diag : report.diagnostics()) {
            json.beginObject();
            json.field("code", verify::codeId(diag.code));
            json.field("name", verify::codeName(diag.code));
            json.field("severity", verify::severityName(diag.severity));
            json.field("stage", diag.stage);
            json.field("block", diag.block);
            json.field("node", diag.node);
            json.field("orig_pc", diag.origPc);
            json.field("message", diag.message);
            json.endObject();
        }
        json.endArray();
        json.endObject();
        std::cout << "\n";
    } else {
        std::cout << "analyze " << opts.source << " (" << config.name()
                  << ")\n"
                  << "  blocks analyzed    " << analysis.blocks.size()
                  << " (" << analysis.enlargedBlocks << " enlarged, "
                  << analysis.companionBlocks << " companions)\n"
                  << "  nodes analyzed     " << analysis.totalNodes << "\n"
                  << "  dependence height  max " << analysis.critPathMax
                  << ", mean " << format("%.2f", analysis.meanHeight)
                  << "\n"
                  << "  dataflow bound     "
                  << format("%.3f", analysis.dataflowBound)
                  << " nodes/cycle\n"
                  << "  static IPC bound   "
                  << format("%.3f", analysis.staticIpcBound)
                  << " nodes/cycle (sound for any run)\n"
                  << "  resource bounds\n";
        for (const analyze::ResourceBound &rb : analysis.resourceBounds)
            std::cout << format("    model %d (width %2d)  %.3f\n",
                                rb.issueIndex, rb.width, rb.bound);
        if (!ranked.empty()) {
            std::cout << "  tallest blocks       nodes words height resid"
                         "  ipc\n";
            for (const analyze::BlockBounds *b : ranked)
                std::cout << format("    block %-4d pc %-5d %5zu %5zu "
                                    "%6d %5d %5.2f\n",
                                    b->block, b->entryPc, b->nodes,
                                    b->words, b->critPath,
                                    b->critPathResidual, b->packedBound);
        }
        if (!audits.empty()) {
            std::cout << "  chain audit (by predicted height reduction)\n";
            for (const analyze::ChainAudit &audit : audits)
                std::cout << format("    chain %-3zu pc %-5d %zu blocks: "
                                    "height %d -> %d (%+d)\n",
                                    audit.chainIndex, audit.entryPc,
                                    audit.members, audit.memberHeightSum,
                                    audit.fusedHeight,
                                    -audit.heightReduction());
        }
        if (oracle_mode) {
            std::cout << "  exact-schedule oracle  "
                      << oracle.exactBlocks << " blocks exact, "
                      << oracle.exhaustedBlocks
                      << " budget-exhausted; greedy "
                      << oracle.greedyCycles << " cycles vs oracle "
                      << oracle.oracleCycles << " (max gap "
                      << oracle.maxGap << ")\n";
            if (!oracle_ranked.empty()) {
                std::cout << "  widest schedule gaps   nodes height "
                             "greedy bound   gap\n";
                for (const analyze::BlockOracle *b : oracle_ranked)
                    std::cout << format(
                        "    block %-4d pc %-5d %5zu %6d %6d %s %5d%s\n",
                        b->block, b->entryPc, b->nodes, b->height,
                        b->greedyLength,
                        b->exact
                            ? format("%5d", b->upperBound).c_str()
                            : format("%2d-%-2d", b->lowerBound,
                                     b->upperBound)
                                  .c_str(),
                        b->gap(), b->exact ? "" : " (budget out)");
            }
            if (bound_violations)
                std::cout << "  ORACLE BOUND VIOLATION: "
                          << bound_violations
                          << " blocks break height <= oracle <= greedy\n";
        }
        if (opts.has("mem")) {
            std::cout << "  memory disambiguation  "
                      << disambig.pairsTotal << " pairs: "
                      << disambig.noAliasTotal << " no-alias, "
                      << disambig.mustAliasTotal << " must-alias, "
                      << disambig.mayAliasTotal << " may-alias; "
                      << disambig.independentLoadsTotal
                      << " independent loads\n";
            if (!mem_ranked.empty()) {
                std::cout << "  densest may-alias blocks  ld  st pairs  "
                             "no must  may density\n";
                for (const analyze::BlockDisambig *b : mem_ranked)
                    std::cout << format(
                        "    block %-4d pc %-5d %3zu %3zu %5zu %3zu "
                        "%4zu %4zu %7.2f\n",
                        b->block, b->entryPc, b->loads, b->stores,
                        b->pairs.size(), b->noAlias, b->mustAlias,
                        b->mayAlias, b->mayDensity());
            }
        }
        if (!report.diagnostics().empty())
            std::cout << report.renderText();
        std::cout << "analyze: " << errors << " errors, " << warnings
                  << " warnings\n";
    }
    // Distinct exit codes (mirroring compare's exit-3 convention for a
    // separate failure class): 4 = oracle bound violation (soundness
    // bug, reported regardless of --strict); 1 = lint errors or, under
    // --strict, any lint finding at all.
    if (bound_violations)
        return 4;
    if (errors)
        return 1;
    return opts.has("strict") && !report.diagnostics().empty() ? 1 : 0;
}

/** "10%" or "10" -> 10.0 (percent). */
double
parsePercent(const std::string &text, const char *flag)
{
    std::string digits = text;
    if (!digits.empty() && digits.back() == '%')
        digits.pop_back();
    char *end = nullptr;
    const double value = std::strtod(digits.c_str(), &end);
    if (digits.empty() || !end || *end != '\0' || value < 0.0)
        fgp_fatal("--", flag, " needs a non-negative percentage, got '",
                  text, "'");
    return value;
}

/** Render one signed delta with its percent-of-A movement. */
std::string
deltaText(std::int64_t delta, std::uint64_t base)
{
    if (!base)
        return format("%+lld", static_cast<long long>(delta));
    return format("%+lld (%+.2f%%)", static_cast<long long>(delta),
                  100.0 * static_cast<double>(delta) /
                      static_cast<double>(base));
}

void
printCellDiff(const diff::CellDiff &cell, int top)
{
    std::cout << "\n== " << cell.workload << " " << cell.config
              << " ==\n"
              << format("  cycles       %llu -> %llu  %s\n",
                        static_cast<unsigned long long>(cell.cyclesA),
                        static_cast<unsigned long long>(cell.cyclesB),
                        deltaText(static_cast<std::int64_t>(cell.cyclesB) -
                                      static_cast<std::int64_t>(
                                          cell.cyclesA),
                                  cell.cyclesA)
                            .c_str())
              << format("  IPC          %.4f -> %.4f  (%+.2f%%)\n",
                        cell.ipcA, cell.ipcB,
                        cell.ipcA > 0.0
                            ? (cell.ipcB - cell.ipcA) / cell.ipcA * 100.0
                            : 0.0)
              << format("  crit path    %llu -> %llu cycles\n",
                        static_cast<unsigned long long>(cell.critPathA),
                        static_cast<unsigned long long>(cell.critPathB));

    const diff::Divergence &div = cell.divergence;
    switch (div.level) {
      case diff::Divergence::Level::None:
        std::cout << "  schedule     no fingerprints in the streams\n";
        break;
      case diff::Divergence::Level::Identical:
        std::cout << "  schedule     identical (fingerprints match)\n";
        break;
      case diff::Divergence::Level::Run:
        std::cout << format("  schedule     DIVERGED (run hashes %s vs "
                            "%s; no per-window data)\n",
                            diff::hashText(div.hashA).c_str(),
                            diff::hashText(div.hashB).c_str());
        break;
      case diff::Divergence::Level::Window:
        std::cout << format(
            "  schedule     DIVERGED at window %llu%s\n",
            static_cast<unsigned long long>(div.firstWindow),
            div.truncated ? " (one stream ends there)" : "");
        break;
      case diff::Divergence::Level::Node:
        if (div.field == "log_length") {
            std::cout << format(
                "  schedule     DIVERGED at window %llu: retired logs "
                "share a prefix, lengths %llu vs %llu (first extra "
                "seq=%llu)\n",
                static_cast<unsigned long long>(div.firstWindow),
                static_cast<unsigned long long>(div.valueA),
                static_cast<unsigned long long>(div.valueB),
                static_cast<unsigned long long>(div.seq));
        } else {
            std::cout << format(
                "  schedule     DIVERGED at window %llu, node seq=%llu "
                "(log index %llu): %s %llu -> %llu\n",
                static_cast<unsigned long long>(div.firstWindow),
                static_cast<unsigned long long>(div.seq),
                static_cast<unsigned long long>(div.logIndex),
                div.field.c_str(),
                static_cast<unsigned long long>(div.valueA),
                static_cast<unsigned long long>(div.valueB));
        }
        break;
    }

    if (!cell.causes.empty()) {
        std::cout << "\n  Critical-path causes:\n";
        Table ct({"cause", "A", "B", "delta"});
        for (const diff::CauseDelta &c : cell.causes) {
            if (!c.a && !c.b)
                continue;
            ct.addRow({c.cause, std::to_string(c.a), std::to_string(c.b),
                       deltaText(c.delta(), c.a)});
        }
        ct.print(std::cout);
    }

    if (!cell.blocks.empty()) {
        const std::size_t limit = std::min(
            cell.blocks.size(),
            static_cast<std::size_t>(std::max(top, 0)));
        std::cout << "\n  Blocks that paid (top " << limit << " of "
                  << cell.blocks.size() << " by |path delta|):\n";
        Table bt({"block", "entry_pc", "A", "B", "delta"});
        for (std::size_t i = 0; i < limit; ++i) {
            const diff::BlockDelta &b = cell.blocks[i];
            bt.addRow({std::to_string(b.block),
                       b.entryPc >= 0 ? std::to_string(b.entryPc) : "-",
                       std::to_string(b.a), std::to_string(b.b),
                       deltaText(b.delta(), b.a)});
        }
        bt.print(std::cout);
    }

    if (!cell.windows.empty()) {
        // Windows that moved most: ranked by |slot delta - issue delta|
        // (the stall movement), which is exactly the sum of the
        // per-cause slot deltas — zero residual by the slot identity.
        std::vector<const diff::WindowDelta *> ranked;
        for (const diff::WindowDelta &w : cell.windows)
            ranked.push_back(&w);
        std::sort(ranked.begin(), ranked.end(),
                  [](const diff::WindowDelta *x,
                     const diff::WindowDelta *y) {
                      const double dx = std::abs(x->ipcB - x->ipcA);
                      const double dy = std::abs(y->ipcB - y->ipcA);
                      if (dx != dy)
                          return dx > dy;
                      return x->index < y->index;
                  });
        const std::size_t limit = std::min(
            ranked.size(), static_cast<std::size_t>(std::max(top, 0)));
        std::cout << "\n  Windows that moved most (top " << limit
                  << " of " << cell.windows.size() << " by |IPC delta|"
                  << (cell.windowsTruncated
                          ? ", window counts differ — common prefix only"
                          : "")
                  << "):\n";
        Table wt({"idx", "ipc A", "ipc B", "d_redirect", "d_idle",
                  "d_winfull", "d_shortword", "d_drain", "d_issued",
                  "resid"});
        for (std::size_t i = 0; i < limit; ++i) {
            const diff::WindowDelta &w = *ranked[i];
            wt.addRow({std::to_string(w.index), format("%.3f", w.ipcA),
                       format("%.3f", w.ipcB),
                       format("%+lld",
                              static_cast<long long>(w.dSlots[0])),
                       format("%+lld",
                              static_cast<long long>(w.dSlots[1])),
                       format("%+lld",
                              static_cast<long long>(w.dSlots[2])),
                       format("%+lld",
                              static_cast<long long>(w.dSlots[3])),
                       format("%+lld",
                              static_cast<long long>(w.dSlots[4])),
                       format("%+lld",
                              static_cast<long long>(
                                  static_cast<std::int64_t>(w.issuedB) -
                                  static_cast<std::int64_t>(w.issuedA))),
                       std::to_string(w.residual())});
        }
        wt.print(std::cout);
    }
}

void
emitDiffJson(const std::string &path_a, const std::string &path_b,
             const diff::DiffResult &result)
{
    const auto line = [](metrics::JsonLineWriter &w) {
        std::cout << w.str() << "\n";
    };
    {
        metrics::JsonLineWriter w;
        w.field("schema", "fgpsim-diff-v1");
        w.field("kind", "diff");
        w.field("a", path_a);
        w.field("b", path_b);
        w.field("cells", static_cast<std::uint64_t>(result.cells.size()));
        w.strings("cells_only_a", result.onlyA);
        w.strings("cells_only_b", result.onlyB);
        line(w);
    }
    for (const diff::CellDiff &cell : result.cells) {
        {
            metrics::JsonLineWriter w;
            w.field("kind", "cell");
            w.field("workload", cell.workload);
            w.field("config", cell.config);
            w.field("cycles_a", cell.cyclesA);
            w.field("cycles_b", cell.cyclesB);
            w.field("retired_a", cell.retiredA);
            w.field("retired_b", cell.retiredB);
            w.field("ipc_a", cell.ipcA);
            w.field("ipc_b", cell.ipcB);
            w.field("crit_path_a", cell.critPathA);
            w.field("crit_path_b", cell.critPathB);
            w.field("windows",
                    static_cast<std::uint64_t>(cell.windows.size()));
            w.field("windows_truncated",
                    static_cast<std::uint64_t>(cell.windowsTruncated));
            line(w);
        }
        for (const diff::WindowDelta &win : cell.windows) {
            metrics::JsonLineWriter w;
            w.field("kind", "wdelta");
            w.field("workload", cell.workload);
            w.field("config", cell.config);
            w.field("index", win.index);
            w.field("cycles_a", win.cyclesA);
            w.field("cycles_b", win.cyclesB);
            w.field("issued_a", win.issuedA);
            w.field("issued_b", win.issuedB);
            w.field("retired_a", win.retiredA);
            w.field("retired_b", win.retiredB);
            w.field("slots_a", win.slotsA);
            w.field("slots_b", win.slotsB);
            for (std::size_t c = 0; c < diff::kSlotCauseCount; ++c)
                w.field(std::string("d_") + diff::kSlotCauseKeys[c],
                        win.dSlots[c]);
            for (std::size_t c = 0; c < diff::kWaitCount; ++c)
                w.field(std::string("d_") + diff::kWaitKeys[c],
                        win.dWaits[c]);
            w.field("d_retired", win.dRetired());
            w.field("ipc_a", win.ipcA);
            w.field("ipc_b", win.ipcB);
            w.field("residual", win.residual());
            line(w);
        }
        for (const diff::CauseDelta &cause : cell.causes) {
            if (!cause.a && !cause.b)
                continue;
            metrics::JsonLineWriter w;
            w.field("kind", "dcause");
            w.field("workload", cell.workload);
            w.field("config", cell.config);
            w.field("cause", cause.cause);
            w.field("cycles_a", cause.a);
            w.field("cycles_b", cause.b);
            w.field("delta", cause.delta());
            line(w);
        }
        for (const diff::BlockDelta &block : cell.blocks) {
            metrics::JsonLineWriter w;
            w.field("kind", "dblock");
            w.field("workload", cell.workload);
            w.field("config", cell.config);
            w.field("block", static_cast<std::uint64_t>(block.block));
            w.field("entry_pc", block.entryPc);
            w.field("path_cycles_a", block.a);
            w.field("path_cycles_b", block.b);
            w.field("delta", block.delta());
            line(w);
        }
        {
            const diff::Divergence &div = cell.divergence;
            metrics::JsonLineWriter w;
            w.field("kind", "divergence");
            w.field("workload", cell.workload);
            w.field("config", cell.config);
            w.field("level", diff::divergenceLevelName(div.level));
            w.field("first_window", div.firstWindow);
            w.field("truncated",
                    static_cast<std::uint64_t>(div.truncated));
            if (div.level == diff::Divergence::Level::Node) {
                w.field("seq", div.seq);
                w.field("log_index", div.logIndex);
                w.field("field", div.field);
                w.field("value_a", div.valueA);
                w.field("value_b", div.valueB);
            }
            if (div.hashA || div.hashB) {
                w.field("hash_a", diff::hashText(div.hashA));
                w.field("hash_b", diff::hashText(div.hashB));
            }
            line(w);
        }
    }
}

void
writeDiffChrome(const std::string &path, const std::string &path_a,
                const std::string &path_b,
                const diff::DiffResult &result)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fgp_fatal("cannot write '", path, "'");
    // A/B overlay: run A is pid 1, run B pid 2, so the trace viewer
    // shows both runs' per-window counter tracks on one timeline.
    obs::ChromeTraceSink sink(out, "A: " + path_a, 1);
    sink.emitProcessName(2, "B: " + path_b);
    const bool multi = result.cells.size() > 1;
    for (const diff::CellDiff &cell : result.cells) {
        const std::string prefix =
            multi ? cell.workload + " " + cell.config + " " : "";
        std::uint64_t start_a = 0, start_b = 0;
        for (const diff::WindowDelta &win : cell.windows) {
            sink.emitCounter(1, start_a, prefix + "ipc", win.ipcA);
            sink.emitCounter(2, start_b, prefix + "ipc", win.ipcB);
            sink.emitCounter(1, start_a, prefix + "retired",
                             static_cast<double>(win.retiredA));
            sink.emitCounter(2, start_b, prefix + "retired",
                             static_cast<double>(win.retiredB));
            start_a += win.cyclesA;
            start_b += win.cyclesB;
        }
    }
    sink.onRunEnd();
}

/**
 * Differential observability: align two fgpsim-profile-v1 streams (or
 * fgpsim-run-v1 manifests) cell by cell and window by window, decompose
 * every IPC delta into the exact stall-slot breakdown, rank the blocks
 * that paid, and pinpoint where the schedules first diverge.
 */
int
cmdDiff(const Options &opts)
{
    if (opts.extra.size() != 1)
        fgp_fatal("diff needs exactly two stream files");
    const std::string path_a = opts.source;
    const std::string path_b = opts.extra[0];
    const int top = static_cast<int>(*parseInt(opts.get("top", "10")));

    const diff::Stream a = diff::loadStreamFile(path_a);
    const diff::Stream b = diff::loadStreamFile(path_b);
    const diff::DiffResult result = diff::diffStreams(a, b);

    if (opts.has("folded")) {
        std::ofstream out(opts.get("folded"), std::ios::binary);
        if (!out)
            fgp_fatal("cannot write '", opts.get("folded"), "'");
        diff::writeFoldedDiff(out, result);
    }
    if (opts.has("chrome"))
        writeDiffChrome(opts.get("chrome"), path_a, path_b, result);

    if (opts.has("json")) {
        emitDiffJson(path_a, path_b, result);
        return 0;
    }

    std::cout << "== fgpsim diff ==\n"
              << "A: " << path_a << " (" << a.schema << ")\n"
              << "B: " << path_b << " (" << b.schema << ")\n"
              << format("cells: %zu compared", result.cells.size());
    if (!result.onlyA.empty() || !result.onlyB.empty())
        std::cout << format(" (%zu only in A, %zu only in B)",
                            result.onlyA.size(), result.onlyB.size());
    std::cout << "\n";
    for (const std::string &key : result.onlyA)
        std::cout << "  only in A: " << key << "\n";
    for (const std::string &key : result.onlyB)
        std::cout << "  only in B: " << key << "\n";
    for (const diff::CellDiff &cell : result.cells)
        printCellDiff(cell, top);
    return 0;
}

/**
 * Diff two fgpsim-run-v1 manifests: join the per-point records on
 * (workload, configuration), gate per-point nodes/cycle against
 * --tolerance and the runs' wall time against --wall-tolerance, and
 * summarize the IPC / redundancy / stall / host-speed movement. Exit 1
 * when B regresses past a gate relative to A — the CI perf gate.
 * Mismatched cell sets exit 3 after naming the unmatched keys; a
 * failing gate prints `fgpsim diff` attribution for the regressed
 * cells before exiting.
 */
int
cmdCompare(const Options &opts)
{
    using metrics::RunFile;
    using metrics::RunPoint;

    if (opts.extra.size() != 1)
        fgp_fatal("compare needs exactly two manifest files");
    const std::string path_a = opts.source;
    const std::string path_b = opts.extra[0];

    const double tol = parsePercent(opts.get("tolerance", "10%"),
                                    "tolerance");
    const double wall_tol =
        parsePercent(opts.get("wall-tolerance",
                              opts.get("tolerance", "10%")),
                     "wall-tolerance");

    auto load = [](const std::string &path) {
        std::ifstream in(path);
        if (!in)
            fgp_fatal("cannot open '", path, "'");
        return metrics::parseRunFile(in, path);
    };
    const RunFile a = load(path_a);
    const RunFile b = load(path_b);
    // History files carry several runs; compare the most recent.
    const metrics::RunRecord &run_a = a.runs.back();
    const metrics::RunRecord &run_b = b.runs.back();

    std::map<std::pair<std::string, std::string>, const RunPoint *>
        b_points;
    for (const RunPoint &p : b.points)
        b_points[{p.workload, p.config}] = &p;

    struct PointDelta
    {
        const RunPoint *a = nullptr;
        const RunPoint *b = nullptr;
        double ipcPct = 0.0; ///< (b-a)/a in percent; negative = slower
    };
    std::vector<PointDelta> joined;
    std::vector<std::string> only_a, only_b;
    for (const RunPoint &p : a.points) {
        const auto it = b_points.find({p.workload, p.config});
        if (it == b_points.end()) {
            only_a.push_back(p.workload + " " + p.config);
            continue;
        }
        PointDelta d;
        d.a = &p;
        d.b = it->second;
        const double ipc_a = p.num("nodes_per_cycle");
        const double ipc_b = it->second->num("nodes_per_cycle");
        d.ipcPct = ipc_a > 0.0 ? (ipc_b - ipc_a) / ipc_a * 100.0 : 0.0;
        joined.push_back(d);
    }
    {
        std::set<std::pair<std::string, std::string>> a_keys;
        for (const RunPoint &p : a.points)
            a_keys.insert({p.workload, p.config});
        for (const RunPoint &p : b.points)
            if (!a_keys.count({p.workload, p.config}))
                only_b.push_back(p.workload + " " + p.config);
    }
    const std::size_t unmatched = only_a.size() + only_b.size();

    if (unmatched) {
        // Mismatched cell sets are not comparable — the aggregate gates
        // would silently mix different workload populations. Name the
        // offending cells and take a distinct exit path (3) so CI can
        // tell "incomparable manifests" from "regression" (1).
        if (opts.has("json")) {
            obs::JsonWriter json(std::cout);
            json.beginObject();
            json.field("schema", "fgpsim-compare-v1");
            json.field("a", path_a);
            json.field("b", path_b);
            json.field("points_compared",
                       static_cast<std::uint64_t>(joined.size()));
            json.field("points_unmatched",
                       static_cast<std::uint64_t>(unmatched));
            json.beginArray("cells_only_a");
            for (const std::string &key : only_a)
                json.element(key);
            json.endArray();
            json.beginArray("cells_only_b");
            for (const std::string &key : only_b)
                json.element(key);
            json.endArray();
            json.field("mismatched", true);
            json.endObject();
            std::cout << "\n";
            return 3;
        }
        constexpr std::size_t kShow = 5;
        const auto show = [&](const char *side,
                              const std::vector<std::string> &keys) {
            if (keys.empty())
                return;
            std::cerr << "compare: " << keys.size() << " cell(s) only in "
                      << side << ":";
            for (std::size_t i = 0; i < std::min(keys.size(), kShow); ++i)
                std::cerr << (i ? ", " : " ") << keys[i];
            if (keys.size() > kShow)
                std::cerr << ", ...";
            std::cerr << "\n";
        };
        show("A", only_a);
        show("B", only_b);
        std::cerr << "compare: MISMATCHED cell sets (" << joined.size()
                  << " joined, " << unmatched << " unmatched)\n";
        return 3;
    }

    // Gates.
    std::vector<const PointDelta *> ipc_regressions;
    const PointDelta *worst = nullptr;
    double ipc_pct_sum = 0.0;
    for (const PointDelta &d : joined) {
        ipc_pct_sum += d.ipcPct;
        if (!worst || d.ipcPct < worst->ipcPct)
            worst = &d;
        if (d.ipcPct < -tol)
            ipc_regressions.push_back(&d);
    }
    const double wall_a = run_a.num("wall_seconds");
    const double wall_b = run_b.num("wall_seconds");
    const double wall_pct =
        wall_a > 0.0 ? (wall_b - wall_a) / wall_a * 100.0 : 0.0;
    const bool wall_regressed = wall_pct > wall_tol;
    const bool regressed = wall_regressed || !ipc_regressions.empty();

    // Aggregate movement: redundancy, stall slots, host speed.
    auto point_sum = [](const std::vector<RunPoint> &points,
                        const std::string &key) {
        double sum = 0.0;
        for (const RunPoint &p : points)
            sum += p.num(key);
        return sum;
    };
    const double mean_ipc_pct =
        joined.empty() ? 0.0
                       : ipc_pct_sum / static_cast<double>(joined.size());
    const double red_a = point_sum(a.points, "redundancy");
    const double red_b = point_sum(b.points, "redundancy");
    const double ns_a = run_a.num("host_ns_per_sim_cycle");
    const double ns_b = run_b.num("host_ns_per_sim_cycle");

    static const char *const kStallKeys[] = {
        "stall_fetch_redirect", "stall_fetch_idle", "stall_window_full",
        "stall_short_word", "stall_drain", "stall_operand_wait",
        "stall_memory_wait", "stall_serialize_wait", "stall_fu_busy"};

    if (opts.has("json")) {
        obs::JsonWriter json(std::cout);
        json.beginObject();
        json.field("schema", "fgpsim-compare-v1");
        json.field("a", path_a);
        json.field("b", path_b);
        json.field("tolerance_pct", tol);
        json.field("wall_tolerance_pct", wall_tol);
        json.field("points_compared",
                   static_cast<std::uint64_t>(joined.size()));
        json.field("points_unmatched",
                   static_cast<std::uint64_t>(unmatched));
        json.field("mean_ipc_pct", mean_ipc_pct);
        if (worst) {
            json.field("worst_ipc_pct", worst->ipcPct);
            json.field("worst_point", worst->a->workload + " " +
                                          worst->a->config);
        }
        json.field("wall_seconds_a", wall_a);
        json.field("wall_seconds_b", wall_b);
        json.field("wall_pct", wall_pct);
        json.field("host_ns_per_sim_cycle_a", ns_a);
        json.field("host_ns_per_sim_cycle_b", ns_b);
        json.beginObject("stall_deltas");
        for (const char *key : kStallKeys)
            json.field(key, point_sum(b.points, key) -
                                point_sum(a.points, key));
        json.endObject();
        json.field("ipc_regressions",
                   static_cast<std::uint64_t>(ipc_regressions.size()));
        json.field("wall_regressed", wall_regressed);
        json.field("regressed", regressed);
        json.endObject();
        std::cout << "\n";
        return regressed ? 1 : 0;
    }

    std::cout << "compare " << path_a << " (A: "
              << run_a.str("bench", "?") << " @ "
              << run_a.str("git", "?") << ")\n"
              << "     vs " << path_b << " (B: "
              << run_b.str("bench", "?") << " @ "
              << run_b.str("git", "?") << ")\n"
              << format("  points compared    : %zu (%zu unmatched)\n",
                        joined.size(), unmatched)
              << format("  mean IPC delta     : %+.2f%%\n", mean_ipc_pct);
    if (worst)
        std::cout << format("  worst IPC delta    : %+.2f%% (%s %s)\n",
                            worst->ipcPct, worst->a->workload.c_str(),
                            worst->a->config.c_str());
    std::cout << format("  redundancy sum     : %.4f -> %.4f\n", red_a,
                        red_b)
              << format("  wall seconds       : %.3f -> %.3f (%+.1f%%)\n",
                        wall_a, wall_b, wall_pct)
              << format("  host ns/sim cycle  : %.1f -> %.1f\n", ns_a,
                        ns_b);
    for (const char *key : kStallKeys) {
        const double sa = point_sum(a.points, key);
        const double sb = point_sum(b.points, key);
        if (sa != sb)
            std::cout << format("  %-19s: %.0f -> %.0f\n", key, sa, sb);
    }
    for (const PointDelta *d : ipc_regressions)
        std::cout << format("  REGRESSION %s %s: IPC %+.2f%% "
                            "(tolerance %.1f%%)\n",
                            d->a->workload.c_str(), d->a->config.c_str(),
                            d->ipcPct, tol);
    if (wall_regressed)
        std::cout << format("  REGRESSION wall time %+.1f%% "
                            "(tolerance %.1f%%)\n",
                            wall_pct, wall_tol);
    std::cout << (regressed ? "compare: REGRESSED\n" : "compare: ok\n");
    if (!ipc_regressions.empty()) {
        // Gate failed: auto-invoke the differential attribution for the
        // regressed cells, so the CI log answers "which windows, which
        // stall causes, which blocks" without a second command.
        std::cout << "\nDifferential attribution (fgpsim diff " << path_a
                  << " " << path_b << "):\n";
        const diff::Stream da = diff::loadStreamFile(path_a);
        const diff::Stream db = diff::loadStreamFile(path_b);
        const diff::DiffResult dr = diff::diffStreams(da, db);
        std::set<std::string> bad;
        for (const PointDelta *d : ipc_regressions)
            bad.insert(d->a->workload + " " + d->a->config);
        for (const diff::CellDiff &cell : dr.cells)
            if (bad.count(cell.workload + " " + cell.config))
                printCellDiff(cell, 5);
    }
    return regressed ? 1 : 0;
}

/**
 * Print the perf trajectory of an appended run-header history file
 * (RunRecorder::appendHistory, e.g. BENCH_history.jsonl): one row per
 * run with git describe, host ns per simulated cycle and the delta
 * against the previous run — `fgpsim compare` for the time axis.
 */
int
cmdHistory(const Options &opts)
{
    std::ifstream in(opts.source);
    if (!in) {
        // A missing history file is the normal state of a fresh checkout,
        // not an error: say how to start one and exit cleanly.
        std::cout << "history: no history file at '" << opts.source
                  << "'\nAppend runs with: build/bench/perf_selfcheck "
                     "--append " << opts.source << "\n";
        return 0;
    }
    // parseRunFile treats a record-less file as fatal (a manifest with no
    // run header is corrupt for `compare`), but an empty history is just a
    // history nobody has appended to yet — check before parsing.
    if (in.peek() == std::ifstream::traits_type::eof()) {
        std::cout << "history: '" << opts.source
                  << "' contains no run records yet\nAppend runs with: "
                     "build/bench/perf_selfcheck --append " << opts.source
                  << "\n";
        return 0;
    }
    const metrics::RunFile file = metrics::parseRunFile(in, opts.source);
    if (file.runs.empty()) {
        std::cout << "history: '" << opts.source
                  << "' contains no run records yet\nAppend runs with: "
                     "build/bench/perf_selfcheck --append " << opts.source
                  << "\n";
        return 0;
    }

    Table t({"git", "time", "bench", "sims", "wall_s", "ns/cycle",
             "delta", "ipc", "d_ipc"});
    double prev = 0.0;
    double prev_ipc = 0.0;
    for (const metrics::RunRecord &run : file.runs) {
        const double ns = run.num("host_ns_per_sim_cycle");
        std::string delta = "-";
        if (prev > 0.0 && ns > 0.0)
            delta = format("%+.1f%%", (ns - prev) / prev * 100.0);
        if (ns > 0.0)
            prev = ns;
        // Simulated IPC of the benchmark run, when the record carries
        // the engine metrics (older history lines may not).
        const double cyc = run.num("sim_cycles");
        const double ret = run.num("engine.retired_nodes");
        const double ipc = cyc > 0.0 ? ret / cyc : 0.0;
        std::string ipc_txt = "-";
        std::string d_ipc = "-";
        if (ipc > 0.0) {
            ipc_txt = format("%.3f", ipc);
            if (prev_ipc > 0.0)
                d_ipc = format("%+.1f%%",
                               (ipc - prev_ipc) / prev_ipc * 100.0);
            prev_ipc = ipc;
        }
        t.addRow({run.str("git", "?"), run.str("iso_time", "?"),
                  run.str("bench", "?"),
                  format("%.0f", run.num("sims")),
                  format("%.2f", run.num("wall_seconds")),
                  format("%.1f", ns), delta, ipc_txt, d_ipc});
    }
    t.print(std::cout);
    std::cout << file.runs.size() << " runs\n";
    return 0;
}

int
runCli(int argc, char **argv)
{
    if (argc < 3)
        usage();
    Options opts;
    opts.command = argv[1];
    opts.source = argv[2];
    opts.run = RunOptions::fromEnv();
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        if (!startsWith(arg, "--")) {
            // compare and diff take an extra positional (their B file).
            if (opts.command != "compare" && opts.command != "diff")
                fgp_fatal("unexpected argument '", arg, "'");
            opts.extra.push_back(std::move(arg));
            continue;
        }
        arg = arg.substr(2);
        if (arg == "conservative" || arg == "json" || arg == "strict" ||
            arg == "mem" || arg == "retired" || arg == "oracle") {
            opts.flags[arg] = "1";
        } else {
            if (i + 1 >= argc)
                fgp_fatal("flag --", arg, " needs a value");
            opts.flags[arg] = argv[++i];
        }
    }

    if (opts.command == "asm")
        return cmdAsm(opts);
    if (opts.command == "run")
        return cmdRun(opts);
    if (opts.command == "profile")
        return cmdProfile(opts);
    if (opts.command == "bbe")
        return cmdBbe(opts);
    if (opts.command == "sim")
        return cmdSim(opts);
    if (opts.command == "trace")
        return cmdSim(opts, SimMode::Trace);
    if (opts.command == "report")
        return cmdSim(opts, SimMode::Report);
    if (opts.command == "check")
        return cmdCheck(opts);
    if (opts.command == "analyze")
        return cmdAnalyze(opts);
    if (opts.command == "compare")
        return cmdCompare(opts);
    if (opts.command == "diff")
        return cmdDiff(opts);
    if (opts.command == "history")
        return cmdHistory(opts);
    usage();
}

} // namespace
} // namespace fgp

int
main(int argc, char **argv)
{
    try {
        return fgp::runCli(argc, argv);
    } catch (const fgp::FatalError &err) {
        std::cerr << "fgpsim: " << err.what() << "\n";
        return 1;
    }
}
