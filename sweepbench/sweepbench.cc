/**
 * @file
 * Host-cost benchmark of the fgpsim pipeline.
 *
 * A single-threaded, closed-loop batch benchmark: one simulation at a time,
 * each started when the previous one finishes. It composes the pipeline
 * from each layer's public functions in the order the experiment harness
 * uses them (masm -> vm -> ir -> bbe -> vm trace; then per configuration
 * ir image copy -> tld -> engine) and times every call from outside. The
 * harness itself is bypassed because its input generators take no seed.
 *
 * Usage: sweepbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--smoke] [--git DESCRIBE] [--trace-out FILE]
 *
 * Host time is this thread's CPU time. The last stdout line is one JSON
 * object {correct, attempted, failed, metrics}; earlier lines starting
 * with '#' carry the provenance header, the simulated-statistics digest
 * and the per-pass sample summary. README.md explains the workloads and
 * which end-to-end metric each per-layer metric should move.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "arch/config.hh"
#include "bbe/enlarge.hh"
#include "engine/engine.hh"
#include "engine/workspace.hh"
#include "inputs.hh"
#include "ir/cfg.hh"
#include "spans.hh"
#include "tld/translate.hh"
#include "vm/atomic_runner.hh"
#include "vm/interp.hh"
#include "workloads/workloads.hh"

namespace sweepbench {
namespace {

using namespace fgp;

/**
 * Behaviour knobs the library reads from the environment. Each one
 * changes the program being measured (extra verification passes, other
 * schedules), so a timed run refuses to start while any is set.
 */
const char *const kKnobs[] = {
    "FGP_VERIFY",         "FGP_STATIC_DISAMBIG", "FGP_ORACLE_SCHED",
    "FGP_ORACLE_BUDGET",  "FGP_ANALYZE_XCHECK",  "FGP_DISAMBIG_XCHECK",
};

/**
 * Setups made before every pass; setup_s is the median over all of them.
 * Spreading the setups through the run, instead of timing them all at
 * its start, exposes them to the same host conditions as the passes.
 */
constexpr int kSetupsPerPass = 3;

/**
 * Passes a run makes even past --seconds: untraced passes in an untraced
 * run, and of each kind in a traced run.
 */
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMinTracedPasses = 2;

struct WorkloadSpec
{
    std::string name;
    double scale = 1.0; ///< input scale (0: every generator's minimum)
    std::vector<MachineConfig> configs;
};

WorkloadSpec
workloadSpec(const std::string &name)
{
    WorkloadSpec spec;
    spec.name = name;
    if (name == "wide-window") {
        // Large windows on the widest issue model: ready heaps, the
        // completion event heap, store-queue disambiguation and
        // squash/repair all work hard; memory G adds cache misses.
        spec.scale = 2.0;
        for (Discipline d : {Discipline::Dyn4, Discipline::Dyn256})
            for (char mem : {'A', 'G'})
                for (BranchMode b : {BranchMode::Single, BranchMode::Enlarged,
                                     BranchMode::Perfect})
                    spec.configs.push_back(
                        {d, issueModel(8), memoryConfig(mem), b});
    } else if (name == "in-order") {
        // Static discipline on narrow words over flat memory: never
        // enters the dynamic scheduler, so per-cycle bookkeeping and
        // sampling dominate.
        spec.scale = 1.0;
        for (int issue = 1; issue <= 4; ++issue)
            for (char mem : {'A', 'B', 'C'})
                for (BranchMode b : {BranchMode::Single, BranchMode::Enlarged})
                    spec.configs.push_back({Discipline::Static,
                                            issueModel(issue),
                                            memoryConfig(mem), b});
    } else if (name == "paper-grid") {
        // The paper's whole 560-point study at the smallest inputs:
        // per-simulation fixed costs, image copies and translation get
        // their largest share here.
        spec.scale = 0.0;
        spec.configs = fullConfigGrid();
    } else {
        fgp_fatal("unknown workload '", name,
                  "' (expected wide-window, in-order or paper-grid)");
    }
    return spec;
}

/** One utility, prepared once per setup repetition. */
struct Prepared
{
    std::string name;
    std::unique_ptr<Workload> workload; ///< images borrow its program
    Inputs measure;
    std::string refStdout;
    int refExit = 0;
    std::uint64_t refNodes = 0;
    CodeImage single;
    CodeImage enlarged;
    EnlargeStats enlargeStats;
    std::vector<std::int32_t> perfectTrace;
    std::uint64_t vmNodes = 0; ///< nodes the functional runs executed
};

using PreparedSet = std::vector<std::unique_ptr<Prepared>>;

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
fnvText(std::uint64_t h, const std::string &text)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::unique_ptr<Prepared>
prepare(const std::string &name, double scale, std::uint64_t seed,
        SpanRecorder &rec)
{
    auto p = std::make_unique<Prepared>();
    p->name = name;
    Inputs profile_in;
    {
        auto s = rec.open("bench.inputs");
        profile_in = generateInputs(name, Set::Profile, scale, seed);
        p->measure = generateInputs(name, Set::Measure, scale, seed);
    }
    {
        auto s = rec.open("masm.assemble");
        p->workload = std::make_unique<Workload>(makeWorkload(name));
    }
    const Program &prog = p->workload->program();

    Profile profile;
    {
        auto s = rec.open("vm.profile");
        SimOS os;
        profile_in.install(os);
        InterpOptions opts;
        opts.profile = &profile;
        const RunResult r = interpret(prog, os, opts);
        if (!r.exited || r.exitCode != 0)
            fgp_fatal(name, " failed its profile run (exit ", r.exitCode, ")");
        p->vmNodes += r.dynamicNodes;
    }
    {
        auto s = rec.open("vm.reference");
        SimOS os;
        p->measure.install(os);
        const RunResult r = interpret(prog, os);
        if (!r.exited || r.exitCode != 0)
            fgp_fatal(name, " failed its reference run (exit ", r.exitCode,
                      ")");
        p->refNodes = r.dynamicNodes;
        p->refStdout = os.stdoutText();
        p->refExit = r.exitCode;
        p->vmNodes += r.dynamicNodes;
    }
    {
        auto s = rec.open("ir.cfg");
        p->single = buildCfg(prog);
    }
    {
        auto s = rec.open("bbe.enlarge");
        p->enlarged = enlarge(p->single, profile, {}, &p->enlargeStats);
    }
    {
        auto s = rec.open("vm.trace");
        SimOS os;
        p->measure.install(os);
        AtomicRunOptions opts;
        opts.recordTrace = true;
        AtomicRunResult r = runAtomic(p->enlarged, os, opts);
        if (!r.exited || r.exitCode != p->refExit ||
            os.stdoutText() != p->refStdout)
            fgp_fatal("enlarged image of ", name,
                      " diverges from the reference run");
        p->perfectTrace = std::move(r.blockTrace);
        p->vmNodes += r.executedNodes;
    }
    return p;
}

/** Everything one setup repetition produced that must not vary. */
std::uint64_t
setupDigest(const PreparedSet &set)
{
    std::uint64_t h = kFnvBasis;
    for (const auto &p : set) {
        h = fnvText(h, p->refStdout);
        h = fnv(h, p->refNodes);
        h = fnv(h, p->vmNodes);
        h = fnv(h, p->single.blocks.size());
        h = fnv(h, p->enlarged.blocks.size());
        h = fnv(h, p->enlargeStats.chains);
        h = fnv(h, p->enlargeStats.blocksFused);
        h = fnv(h, p->enlargeStats.faultNodes);
        h = fnv(h, p->perfectTrace.size());
    }
    return h;
}

/** Deterministic work counts of one pass over every job. */
struct PassCounts
{
    std::uint64_t simCycles = 0;
    std::uint64_t issued = 0;
    std::uint64_t executed = 0;
    std::uint64_t retired = 0;
    std::uint64_t squashedBlocks = 0;
    std::uint64_t windowFullSlots = 0;
    std::uint64_t shortWordSlots = 0;
    std::uint64_t fetchRedirectSlots = 0;
    std::uint64_t operandWait = 0;
    std::uint64_t memoryWait = 0;
    std::uint64_t fuBusyWait = 0;
    std::uint64_t peakLiveNodes = 0;  ///< max over the pass
    std::uint64_t arenaNodeSlots = 0; ///< workspace high-water mark
    std::uint64_t branchLookups = 0;
    std::uint64_t branchResolved = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t memLoads = 0;
    std::uint64_t memLoadMisses = 0;
    std::uint64_t memWbHits = 0;
    std::uint64_t tldWords = 0;
    std::uint64_t tldDeadRemoved = 0;
};

struct Job
{
    const Prepared *prep;
    MachineConfig config;
};

struct PassResult
{
    std::int64_t cpuNs = 0;
    std::uint64_t digest = kFnvBasis;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    PassCounts counts;
    std::map<std::string, std::int64_t> selfNs; ///< traced passes only
};

PassResult
runPass(const std::vector<Job> &jobs, EngineWorkspace &workspace,
        SpanRecorder &rec)
{
    PassResult pass;
    PassCounts &c = pass.counts;
    const std::size_t first_span = rec.spans().size();
    const std::int64_t start = threadCpuNs();
    {
        auto sweep = rec.open("sweep");
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const Job &job = jobs[j];
            const Prepared &p = *job.prep;
            auto sim = rec.open("bench.sim");
            ++pass.attempted;
            try {
                CodeImage image;
                {
                    auto s = rec.open("ir.image_copy");
                    image = job.config.branch == BranchMode::Single
                                ? p.single
                                : p.enlarged;
                }
                OptimizerStats opt;
                {
                    auto s = rec.open("tld.translate");
                    opt = translate(image, job.config);
                }
                SimOS os;
                p.measure.install(os);
                EngineOptions opts;
                opts.config = job.config;
                if (job.config.branch == BranchMode::Perfect)
                    opts.perfectTrace = &p.perfectTrace;
                opts.workspace = &workspace;
                EngineResult r;
                {
                    auto s = rec.open("engine.simulate");
                    r = simulate(image, os, opts);
                }
                {
                    auto s = rec.open("bench.check");
                    if (!r.exited || r.exitCode != p.refExit ||
                        os.stdoutText() != p.refStdout) {
                        ++pass.failed;
                        std::fprintf(stderr,
                                     "sweepbench: %s %s: output differs "
                                     "from the reference run\n",
                                     p.name.c_str(),
                                     job.config.name().c_str());
                    }
                }
                for (const ImageBlock &b : image.blocks)
                    c.tldWords += b.words.size();
                c.tldDeadRemoved += opt.deadRemoved;

                c.simCycles += r.cycles;
                c.issued += r.issuedNodes;
                c.executed += r.executedNodes;
                c.retired += r.retiredNodes;
                c.squashedBlocks += r.squashedBlocks;
                c.windowFullSlots += r.stalls.windowFullSlots;
                c.shortWordSlots += r.stalls.shortWordSlots;
                c.fetchRedirectSlots += r.stalls.fetchRedirectSlots;
                c.operandWait += r.stalls.operandWaitNodeCycles;
                c.memoryWait += r.stalls.memoryWaitNodeCycles;
                c.fuBusyWait += r.stalls.fuBusyNodeCycles;
                c.peakLiveNodes = std::max(c.peakLiveNodes, r.peakLiveNodes);
                c.arenaNodeSlots = std::max(c.arenaNodeSlots,
                                            r.arenaNodeSlots);
                c.branchLookups += r.stats.get("bpred.lookups");
                c.branchResolved += r.stats.get("bpred.resolved");
                c.branchMispredicts += r.stats.get("bpred.mispredicts");
                c.memLoads += r.stats.get("mem.loads");
                c.memLoadMisses += r.stats.get("mem.load_misses");
                c.memWbHits += r.stats.get("mem.wb_hits");

                std::uint64_t &h = pass.digest;
                h = fnv(h, j);
                for (std::uint64_t v :
                     {r.cycles, r.retiredNodes, r.executedNodes,
                      r.issuedNodes, r.squashedBlocks, r.mispredicts,
                      r.stalls.fetchRedirectSlots, r.stalls.fetchIdleSlots,
                      r.stalls.windowFullSlots, r.stalls.shortWordSlots,
                      r.stalls.drainSlots, r.stalls.operandWaitNodeCycles,
                      r.stalls.memoryWaitNodeCycles,
                      r.stalls.serializeWaitNodeCycles,
                      r.stalls.fuBusyNodeCycles})
                    h = fnv(h, v);
            } catch (const std::exception &e) {
                ++pass.failed;
                std::fprintf(stderr, "sweepbench: %s %s: %s\n",
                             p.name.c_str(), job.config.name().c_str(),
                             e.what());
            }
        }
    }
    pass.cpuNs = threadCpuNs() - start;
    if (rec.enabled)
        pass.selfNs = rec.selfNsByName(first_span);
    return pass;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char ch : text) {
        const auto c = static_cast<unsigned char>(ch);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += ch;
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string model(brand);
        const auto b = model.find_first_not_of(' ');
        const auto e = model.find_last_not_of(' ');
        if (b != std::string::npos)
            return model.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

std::string
compilerVersion()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool smoke = false;
    std::string git = "unknown";
    std::string traceOut;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            fgp_fatal("missing value for ", flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::stoull(value);
            have_seed = true;
        } else if (flag == "--seconds") {
            a.seconds = std::stod(value);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                fgp_fatal("--trace takes 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--git") {
            a.git = value;
        } else if (flag == "--trace-out") {
            a.traceOut = value;
        } else {
            fgp_fatal("unknown flag ", flag);
        }
    }
    if (a.workload.empty() || !have_seed || (!have_seconds && !a.smoke))
        fgp_fatal("usage: sweepbench --workload NAME --seed N --seconds S "
                  "--trace 0|1 [--smoke] [--git DESCRIBE] [--trace-out F]");
    return a;
}

/** Metrics in output order. */
class MetricList
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        entries_.push_back(jsonString(name) + ":{\"value\":" + buf +
                           ",\"unit\":" + jsonString(unit) + "}");
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < entries_.size(); ++i)
            out += (i ? "," : "") + entries_[i];
        return out + "}";
    }

  private:
    std::vector<std::string> entries_;
};

double
medianSelf(const std::vector<std::map<std::string, std::int64_t>> &samples,
           const std::string &name)
{
    std::vector<double> v;
    for (const auto &s : samples) {
        const auto it = s.find(name);
        v.push_back(it == s.end() ? 0.0 : static_cast<double>(it->second));
    }
    return median(v);
}

/** Median over samples of the sum of every span's self time. */
double
medianTotal(const std::vector<std::map<std::string, std::int64_t>> &samples)
{
    std::vector<double> v;
    for (const auto &s : samples) {
        std::int64_t total = 0;
        for (const auto &[name, ns] : s)
            total += ns;
        v.push_back(static_cast<double>(total));
    }
    return median(v);
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

int
run(const Args &args)
{
    std::string knobs = "{";
    for (const char *knob : kKnobs) {
        const char *value = std::getenv(knob);
        if (knobs.size() > 1)
            knobs += ",";
        knobs += jsonString(knob) + ":" +
                 (value ? jsonString(value) : std::string("null"));
        if (value) {
            std::fprintf(stderr,
                         "sweepbench: refusing to time with %s=%s set; it "
                         "changes the program being measured\n",
                         knob, value);
            return 2;
        }
    }
    knobs += "}";

    WorkloadSpec spec = workloadSpec(args.workload);
    if (args.smoke)
        spec.scale = 0.0;

#ifdef NDEBUG
    const char *assertions = "off (NDEBUG)";
#else
    const char *assertions = "on";
#endif
    std::printf("# provenance {\"git\":%s,\"build_type\":%s,"
                "\"assertions\":%s,\"compiler\":%s,\"cpu\":%s,"
                "\"nproc\":%ld,\"workload\":%s,\"seed\":%" PRIu64
                ",\"seconds\":%g,\"trace\":%d,\"smoke\":%d,\"knobs\":%s}\n",
                jsonString(args.git).c_str(),
                jsonString(SWEEPBENCH_BUILD_TYPE).c_str(),
                jsonString(assertions).c_str(),
                jsonString(compilerVersion()).c_str(),
                jsonString(cpuModel()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
                jsonString(spec.name).c_str(), args.seed, args.seconds,
                args.trace ? 1 : 0, args.smoke ? 1 : 0, knobs.c_str());

    SpanRecorder rec;

    // Setup prepares the five utilities; every repetition must produce
    // the same artifacts, and the sweep uses the latest.
    PreparedSet prepared;
    std::vector<double> setup_s;
    std::vector<std::map<std::string, std::int64_t>> setup_self;
    std::vector<double> vm_ns_per_node;
    std::uint64_t setup_digest = 0;
    bool setup_stable = true;
    const auto setup = [&] {
        rec.enabled = args.trace;
        const std::size_t first_span = rec.spans().size();
        const std::int64_t start = threadCpuNs();
        PreparedSet set;
        {
            auto s = rec.open("setup");
            for (const std::string &name : workloadNames())
                set.push_back(prepare(name, spec.scale, args.seed, rec));
        }
        setup_s.push_back(static_cast<double>(threadCpuNs() - start) / 1e9);
        const std::uint64_t digest = setupDigest(set);
        if (setup_s.size() == 1)
            setup_digest = digest;
        else if (digest != setup_digest)
            setup_stable = false;
        if (rec.enabled) {
            setup_self.push_back(rec.selfNsByName(first_span));
            const auto &self = setup_self.back();
            double vm_ns = 0.0;
            for (const char *layer : {"vm.profile", "vm.reference",
                                      "vm.trace"})
                vm_ns += static_cast<double>(self.at(layer));
            std::uint64_t nodes = 0;
            for (const auto &p : set)
                nodes += p->vmNodes;
            vm_ns_per_node.push_back(vm_ns / static_cast<double>(nodes));
        }
        prepared = std::move(set);
    };

    // Passes until --seconds have passed and every kind has its minimum
    // sample count. A traced run alternates untraced and traced passes
    // so that the tracing overhead is measured in one process.
    EngineWorkspace workspace;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t pass_digest = 0;
    bool passes_stable = true;
    std::size_t jobs_per_pass = 0;
    PassCounts counts;
    std::vector<double> untraced_ns_per_cycle;
    std::vector<double> untraced_sweep_s;
    std::vector<double> traced_ns_per_cycle;
    std::vector<std::map<std::string, std::int64_t>> sweep_self;
    const std::size_t min_samples =
        args.smoke ? 1 : args.trace ? kMinTracedPasses : kMinPasses;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(args.smoke ? 0.0 : args.seconds);
    for (int pass = 0;; ++pass) {
        for (int rep = 0; rep < (args.smoke ? 1 : kSetupsPerPass); ++rep)
            setup();
        std::vector<Job> jobs;
        for (const auto &p : prepared)
            for (const MachineConfig &config : spec.configs)
                jobs.push_back({p.get(), config});
        jobs_per_pass = jobs.size();

        const bool traced = args.trace && pass % 2 == 1;
        rec.enabled = traced;
        PassResult r = runPass(jobs, workspace, rec);
        attempted += r.attempted;
        failed += r.failed;
        if (pass == 0) {
            pass_digest = r.digest;
            counts = r.counts;
        } else if (r.digest != pass_digest) {
            passes_stable = false;
        }
        const double ns_per_cycle =
            static_cast<double>(r.cpuNs) /
            static_cast<double>(std::max<std::uint64_t>(r.counts.simCycles,
                                                        1));
        if (traced) {
            traced_ns_per_cycle.push_back(ns_per_cycle);
            sweep_self.push_back(std::move(r.selfNs));
        } else {
            untraced_ns_per_cycle.push_back(ns_per_cycle);
            untraced_sweep_s.push_back(static_cast<double>(r.cpuNs) / 1e9);
        }
        const bool enough =
            untraced_ns_per_cycle.size() >= min_samples &&
            (!args.trace || traced_ns_per_cycle.size() >= min_samples);
        // Smoke runs make two passes so pass-to-pass determinism is
        // checked even at the smallest size.
        if (enough && pass >= 1 &&
            std::chrono::steady_clock::now() >= deadline)
            break;
    }
    rec.enabled = false;

    if (!args.traceOut.empty() && args.trace)
        rec.writeChromeTrace(args.traceOut);

    std::printf("# digest workload=%s seed=%" PRIu64 " sims=%" PRIu64
                " sweep=%016" PRIx64 " setup=%016" PRIx64 " cycles=%" PRIu64
                " retired=%" PRIu64 " executed=%" PRIu64
                " window_full=%" PRIu64 " short_word=%" PRIu64
                " fetch_redirect=%" PRIu64 "\n",
                spec.name.c_str(), args.seed,
                static_cast<std::uint64_t>(jobs_per_pass), pass_digest,
                setup_digest, counts.simCycles, counts.retired,
                counts.executed, counts.windowFullSlots,
                counts.shortWordSlots, counts.fetchRedirectSlots);
    if (!passes_stable)
        std::printf("# error: passes with one seed gave different "
                    "simulated-statistics digests\n");
    if (!setup_stable)
        std::printf("# error: setup repetitions with one seed gave "
                    "different results\n");
    // Every untraced pass's sample, in run order, for the sample count
    // and the within-run spread.
    std::printf("# samples host_ns_per_sim_cycle n=%zu:",
                untraced_ns_per_cycle.size());
    for (const double v : untraced_ns_per_cycle)
        std::printf(" %.1f", v);
    std::printf("; setup_s n=%zu:", setup_s.size());
    for (const double v : setup_s)
        std::printf(" %.4f", v);
    std::printf("\n");

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    MetricList m;
    if (!args.trace) {
        m.add("host_ns_per_sim_cycle", median(untraced_ns_per_cycle), "ns");
        m.add("sweep_s", median(untraced_sweep_s), "s");
        m.add("setup_s", median(setup_s), "s");
        m.add("peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0,
              "MiB");
    } else {
        const auto setup_layer = [&](const char *metric, const char *span) {
            m.add(metric, medianSelf(setup_self, span) / 1e9, "s");
        };
        setup_layer("masm.assemble_s", "masm.assemble");
        setup_layer("vm.profile_s", "vm.profile");
        setup_layer("vm.reference_s", "vm.reference");
        setup_layer("vm.trace_s", "vm.trace");
        m.add("vm.ns_per_node", median(vm_ns_per_node), "ns");
        setup_layer("ir.cfg_s", "ir.cfg");
        setup_layer("bbe.enlarge_s", "bbe.enlarge");
        setup_layer("bench.inputs_s", "bench.inputs");
        setup_layer("bench.setup_self_s", "setup");

        std::uint64_t chains = 0, fused = 0, faults = 0;
        for (const auto &p : prepared) {
            chains += p->enlargeStats.chains;
            fused += p->enlargeStats.blocksFused;
            faults += p->enlargeStats.faultNodes;
        }
        m.add("bbe.chains", static_cast<double>(chains), "count");
        m.add("bbe.blocks_fused", static_cast<double>(fused), "count");
        m.add("bbe.fault_nodes", static_cast<double>(faults), "count");

        const auto sweep_layer = [&](const char *metric, const char *span) {
            m.add(metric, medianSelf(sweep_self, span) / 1e9, "s");
        };
        sweep_layer("ir.image_copy_s", "ir.image_copy");
        sweep_layer("tld.translate_s", "tld.translate");
        m.add("tld.words", static_cast<double>(counts.tldWords), "count");
        m.add("tld.opt_dead_removed",
              static_cast<double>(counts.tldDeadRemoved), "count");
        sweep_layer("engine.simulate_s", "engine.simulate");
        m.add("engine.ns_per_cycle",
              medianSelf(sweep_self, "engine.simulate") /
                  static_cast<double>(std::max<std::uint64_t>(
                      counts.simCycles, 1)),
              "ns");
        sweep_layer("bench.check_s", "bench.check");
        sweep_layer("bench.sim_self_s", "bench.sim");
        sweep_layer("bench.sweep_self_s", "sweep");

        const auto count = [&](const char *metric, std::uint64_t v) {
            m.add(metric, static_cast<double>(v), "count");
        };
        count("engine.sim_cycles", counts.simCycles);
        count("engine.issued_nodes", counts.issued);
        count("engine.executed_nodes", counts.executed);
        count("engine.retired_nodes", counts.retired);
        count("engine.squashed_blocks", counts.squashedBlocks);
        m.add("engine.useful_ratio", ratio(counts.retired, counts.executed),
              "ratio");
        count("engine.stall.window_full_slots", counts.windowFullSlots);
        count("engine.stall.short_word_slots", counts.shortWordSlots);
        count("engine.stall.fetch_redirect_slots", counts.fetchRedirectSlots);
        count("engine.wait.operand_node_cycles", counts.operandWait);
        count("engine.wait.memory_node_cycles", counts.memoryWait);
        count("engine.wait.fu_busy_node_cycles", counts.fuBusyWait);
        count("engine.peak_live_nodes", counts.peakLiveNodes);
        count("engine.arena_node_slots", counts.arenaNodeSlots);
        count("branch.lookups", counts.branchLookups);
        count("branch.mispredicts", counts.branchMispredicts);
        m.add("branch.accuracy",
              1.0 - ratio(counts.branchMispredicts, counts.branchResolved),
              "ratio");
        count("memsys.loads", counts.memLoads);
        count("memsys.load_misses", counts.memLoadMisses);
        count("memsys.wb_hits", counts.memWbHits);
        m.add("memsys.hit_ratio",
              1.0 - ratio(counts.memLoadMisses, counts.memLoads), "ratio");

        // The self times above partition these two span totals.
        m.add("trace.setup_s", medianTotal(setup_self) / 1e9, "s");
        m.add("trace.sweep_s", medianTotal(sweep_self) / 1e9, "s");
        const double untraced = median(untraced_ns_per_cycle);
        const double traced = median(traced_ns_per_cycle);
        m.add("trace.untraced_ns_per_sim_cycle", untraced, "ns");
        m.add("trace.traced_ns_per_sim_cycle", traced, "ns");
        m.add("trace.overhead_ns_per_sim_cycle", traced - untraced, "ns");
    }

    const bool correct = failed == 0 && passes_stable && setup_stable;
    std::printf("{\"correct\":%s,\"attempted\":%" PRIu64
                ",\"failed\":%" PRIu64 ",\"metrics\":%s}\n",
                correct ? "true" : "false", attempted, failed,
                m.json().c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace
} // namespace sweepbench

int
main(int argc, char **argv)
{
    try {
        return sweepbench::run(sweepbench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sweepbench: %s\n", e.what());
        return 1;
    }
}
