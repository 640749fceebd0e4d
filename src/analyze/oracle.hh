/**
 * @file
 * Exact-schedule oracle: minimum-makespan block scheduling over the tld
 * dependence DAG (ROADMAP item 5(b)).
 *
 * The greedy list scheduler (tld/scheduleStatic) and the bbe enlargement
 * planner are heuristics; nothing else in the repo says how much schedule
 * length they leave on the table. The oracle answers that exactly:
 * branch-and-bound over per-cycle issue words, with memoized dominance
 * pruning over (scheduled-set, cycle, in-flight latency) states, under
 * the *same* resource model the greedy scheduler obeys — the IssueModel
 * word-packing rules (sequential = one node per word, else memSlots /
 * aluSlots class caps), the shared nodeLatency() model from
 * tld/depgraph.hh, and the same MemDepFacts edge drops.
 *
 * Every block result is a certified interval [lowerBound, upperBound]:
 *
 *  - when the search completes within budget, lowerBound == upperBound ==
 *    the optimal makespan (exact == true);
 *  - when the node or state budget is exhausted, the interval degrades to
 *    [max(critical-path height, resource floor), greedy length] — still
 *    sound on both sides, just not tight (lint AN010).
 *
 * The soundness sandwich `height <= oracle <= greedy` holds on every
 * block by construction and is asserted across all five workloads in
 * tests/analyze_test.cc and by `check_bench.sh --validate-oracle`.
 *
 * Consumers:
 *  - `fgpsim analyze --oracle`: per-block optimal/greedy lengths and the
 *    gap (human table + fgpsim-analyze-v1 extension, --strict gating);
 *  - lint AN009 (greedy gap on a hot block) and AN010 (budget exhausted)
 *    through the verify::diag registry;
 *  - an opt-in translation hook (TranslateOptions::oracleHook, installed
 *    under RunOptions::oracleSched, default off) that adopts
 *    provably shorter oracle schedules for small blocks — re-proven
 *    effect-equivalent by verify::postTranslationCheck like any other
 *    translation;
 *  - a bbe plan-audit hook ranking chains by oracle-measured makespan
 *    reduction, comparable against analyze::heightRankingHook.
 */

#ifndef FGP_ANALYZE_ORACLE_HH
#define FGP_ANALYZE_ORACLE_HH

#include <cstdint>
#include <vector>

#include "arch/config.hh"
#include "bbe/enlarge.hh"
#include "ir/image.hh"
#include "tld/depgraph.hh"

namespace fgp::analyze {

/** Search budget and adoption knobs. */
struct OracleOptions
{
    /**
     * Maximum branch-and-bound states expanded per block before the
     * search gives up and certifies the fallback interval instead.
     */
    std::size_t maxStates = 250000;

    /**
     * Blocks with more nodes than this skip the search entirely (the
     * scheduled-set bitmask holds 64 nodes; larger blocks would not
     * finish anyway) and report the fallback interval.
     */
    std::size_t maxNodes = 64;

    /**
     * Adoption hook only: blocks larger than this keep the greedy
     * schedule even when the oracle found a shorter one (adopting huge
     * re-ordered blocks buys little and costs search time per translate).
     */
    std::size_t adoptMaxNodes = 32;
};

/** Certified schedule-length interval of one block. */
struct BlockOracle
{
    std::int32_t block = -1;
    std::int32_t entryPc = -1;
    bool enlarged = false;

    std::size_t nodes = 0;

    /** Latency-weighted critical-path height (dependence lower bound). */
    int height = 0;

    /**
     * Makespan of the greedy scheduleStatic() schedule in cycles: every
     * word issues in order at the earliest cycle its operands allow, and
     * the makespan counts the last node's latency — the same completion
     * metric the oracle minimizes, so the two are directly comparable.
     */
    int greedyLength = 0;

    /** Certified bounds on the optimal makespan (see file comment). */
    int lowerBound = 0;
    int upperBound = 0;

    /** True when lowerBound == upperBound == optimal (search completed). */
    bool exact = false;

    /** Branch-and-bound states expanded (0 when the search was skipped). */
    std::size_t statesExplored = 0;

    /**
     * Proven greedy overshoot: greedyLength - upperBound. Zero when the
     * greedy schedule is optimal or when only the fallback interval is
     * known (upperBound == greedyLength then).
     */
    int gap() const { return greedyLength - upperBound; }

    /**
     * The optimal schedule's words (flattened, empty cycles dropped),
     * filled only when exact and strictly shorter than greedy — what the
     * adoption hook installs. Empty otherwise.
     */
    std::vector<Word> words;
};

/** Whole-image oracle summary. */
struct ImageOracle
{
    std::vector<BlockOracle> blocks; ///< indexed by block id

    std::size_t exactBlocks = 0;     ///< blocks solved to optimality
    std::size_t exhaustedBlocks = 0; ///< blocks on the fallback interval
    long long greedyCycles = 0;      ///< sum of greedy makespans
    long long oracleCycles = 0;      ///< sum of certified upper bounds
    int maxGap = 0;                  ///< largest proven per-block gap
};

/**
 * Engine-semantics makespan of @p block's current words: each word
 * issues in order at the earliest cycle >= previous + 1 at which all its
 * operands have finished; the makespan is the maximum node finish time.
 * Returns 0 for blocks without words.
 */
int packedMakespan(const ImageBlock &block, int mem_hit_latency,
                   const MemDepFacts *facts = nullptr);

/**
 * Solve one block. @p facts must be the same no-alias facts (or null)
 * the greedy schedule was built with, so both sides of the gap obey one
 * dependence lattice. The greedy baseline is always a fresh
 * scheduleStatic() run on a copy — for statically scheduled images that
 * reproduces the existing words bit-identically, and for dynamically
 * packed images it is the only baseline the static oracle is comparable
 * against (packDynamic words rely on intra-word forwarding).
 */
BlockOracle oracleBlock(const ImageBlock &block, const IssueModel &issue,
                        int mem_hit_latency,
                        const OracleOptions &opts = {},
                        const MemDepFacts *facts = nullptr);

/** Solve every block of a translated @p image. */
ImageOracle oracleImage(const CodeImage &image, const MachineConfig &config,
                        const OracleOptions &opts = {});

/**
 * Adapter for TranslateOptions::oracleHook: re-schedules a freshly
 * greedy-scheduled block with the oracle and adopts the result when the
 * search proved a strictly shorter makespan on a small block
 * (opts.adoptMaxNodes). The adopted words respect the same IssueModel
 * packing rules, and the translation pipeline's postTranslationCheck
 * re-proves effect-equivalence as for any schedule.
 */
std::function<void(ImageBlock &, const IssueModel &, int,
                   const MemDepFacts *)>
oracleAdoptionHook(const OracleOptions &opts = {});

/**
 * A bbe plan-audit hook (EnlargeOptions::auditHook) reordering planned
 * chains by oracle-measured makespan reduction — the exact counterpart
 * of analyze::heightRankingHook, which ranks by predicted dependence-
 * height reduction only. Fused blocks beyond the oracle budget fall back
 * to their certified upper bound, so the ranking is always defined.
 */
PlanAuditHook oracleRankingHook(const IssueModel &issue,
                                int mem_hit_latency,
                                const OracleOptions &opts = {});

} // namespace fgp::analyze

#endif // FGP_ANALYZE_ORACLE_HH
