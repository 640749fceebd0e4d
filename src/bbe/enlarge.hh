/**
 * @file
 * Basic block enlargement (§2.3, §3.1).
 *
 * Consumes the branch-arc profile of a first run and fuses hot chains of
 * basic blocks into enlarged atomic blocks:
 *
 *  - arcs are considered in decreasing dynamic weight; a chain grows along
 *    the dominant arc while its weight stays above an absolute threshold
 *    and its share of the branch stays above a ratio threshold;
 *  - only two-way conditional branches to explicit destinations are
 *    optimized (unconditional jumps and fall-throughs fuse for free;
 *    JAL/JR and system-call blocks stop a chain);
 *  - embedded conditional branches become *fault* nodes whose explicit
 *    fault-to target is a *companion* enlarged block that re-executes the
 *    shared prefix and exits along the cold arc (Figure 1's AB/AC pair;
 *    atomic commit makes the re-execution safe, and mutual fault targets
 *    avoid livelock);
 *  - loops unroll naturally when the dominant arc re-enters the chain; at
 *    most 16 instances of any original block are created (§3.1);
 *  - all control transfers to an enlarged entry are redirected to the
 *    primary instance, matching the paper's trap-only prediction
 *    ("branches to enlarged basic blocks will always execute the initial
 *    enlarged basic block first").
 */

#ifndef FGP_BBE_ENLARGE_HH
#define FGP_BBE_ENLARGE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "bbe/plan.hh"
#include "ir/image.hh"
#include "verify/postpass.hh"
#include "vm/profile.hh"

namespace fgp {

/**
 * Plan-audit hook: may reorder (or prune) the planned chains before
 * planEnlargement returns them. applyEnlargement consumes chains in plan
 * order and an earlier chain consumes the entry pcs of any later chain it
 * overlaps, so ordering decides which chains win conflicts. The analyzer
 * provides two hooks: analyze::heightRankingHook ranks chains by
 * predicted dependence-height reduction, and analyze::oracleRankingHook
 * ranks by exact (oracle-measured) makespan reduction under a concrete
 * issue model — comparing the two quantifies how often the height
 * heuristic mis-orders chains. The default pipeline installs none, so
 * built schedules are unchanged unless a caller opts in.
 */
using PlanAuditHook =
    std::function<void(const CodeImage &single, EnlargePlan &plan)>;

/** How a chain continues past one of its member blocks. */
enum class JunctionKind : std::uint8_t {
    CondHotTaken,    ///< conditional branch, dominant arc is the target
    CondHotFall,     ///< conditional branch, dominant arc falls through
    Uncond,          ///< unconditional J
    FallThrough,     ///< block without a terminal control node
    End,             ///< last member: terminal kept verbatim
};

/** One resolved chain member: source block plus how the chain leaves it. */
struct ChainLink
{
    std::int32_t blockId;
    JunctionKind kind = JunctionKind::End;
};

using Chain = std::vector<ChainLink>;

/** Count conditional junctions in positions [from, chain.size()-2]. */
int condJunctionsFrom(const Chain &chain, std::size_t from);

/**
 * Replay one planned chain of entry pcs against @p single, recovering
 * block ids and junction kinds. Throws FatalError when the plan does not
 * follow real control-flow arcs (the same validation applyEnlargement
 * performs); also used by the soundness checker to audit built images.
 */
Chain resolveChain(const CodeImage &single, const EnlargeChain &planned);

/** Enlargement thresholds and caps. */
struct EnlargeOptions
{
    /** Minimum dynamic executions of a branch before it may be embedded. */
    std::uint64_t minArcCount = 32;

    /** Minimum share of the dominant arc (the paper's ratio threshold). */
    double minArcRatio = 0.70;

    /** Maximum original blocks fused into one enlarged block. */
    int maxChainLen = 8;

    /** Maximum instances (copies) of one original block (paper: 16). */
    int maxInstances = 16;

    /** Optional chain-ranking hook applied to the finished plan. */
    PlanAuditHook auditHook;

    /** Run verify::postEnlargementCheck on the enlarged image. */
    bool verify = verify::kChecksDefault;
};

/** Summary statistics of one enlargement run. */
struct EnlargeStats
{
    std::uint64_t chains = 0;         ///< primary enlarged blocks built
    std::uint64_t companions = 0;     ///< companion blocks built
    std::uint64_t blocksFused = 0;    ///< original blocks consumed (w/ copies)
    std::uint64_t faultNodes = 0;     ///< embedded assert nodes created
    double meanChainLen = 0.0;
};

/**
 * Derive the enlargement plan (the paper's enlargement file) from the
 * branch-arc profile: chains of original block entry pcs to fuse.
 */
EnlargePlan planEnlargement(const CodeImage &single, const Profile &profile,
                            const EnlargeOptions &opts = {});

/**
 * Build the enlarged image of @p single from an explicit plan (e.g. one
 * parsed from an enlargement file). Validates that each chain follows
 * real control-flow arcs; throws FatalError on corrupt plans. Of
 * @p opts only the post-pass check settings (verify, maxInstances) apply.
 * The source image and its program must outlive the result.
 */
CodeImage applyEnlargement(const CodeImage &single, const EnlargePlan &plan,
                           EnlargeStats *stats = nullptr,
                           const EnlargeOptions &opts = {});

/** planEnlargement + applyEnlargement in one step. */
CodeImage enlarge(const CodeImage &single, const Profile &profile,
                  const EnlargeOptions &opts = {},
                  EnlargeStats *stats = nullptr);

} // namespace fgp

#endif // FGP_BBE_ENLARGE_HH
