/**
 * @file
 * Static ILP analyzer: per-block dependence-height and resource bounds
 * computed from a CodeImage without running the simulator.
 *
 * For every block the analyzer builds the latency-weighted dataflow
 * dependence DAG (true register/scratch dependencies, conservative
 * may-alias memory ordering, syscall barriers — the same conservative
 * lattice the translating loader schedules against) and derives:
 *
 *  - the critical path (dependence height) in cycles, assuming cache-hit
 *    load latency;
 *  - the pure-dataflow ILP bound nodes/height — what infinitely wide
 *    hardware could sustain inside the block;
 *  - analytic resource bounds at every issue model of the sweep grid
 *    (slot-count and width ceilings combined with the height floor);
 *  - for translated images, the *packed* bound nodes/words. Because the
 *    engine issues at most one multi-node word per cycle, the maximum of
 *    nodes/words over all blocks is a sound upper bound on the retired
 *    nodes-per-cycle of ANY run of that image — the machine-checked
 *    `static bound >= dynamic IPC` oracle (staticIpcBound, cross-checked
 *    by the harness after every simulation).
 *
 * The analyzer never mutates the image, so analyzing can never change a
 * simulated schedule.
 */

#ifndef FGP_ANALYZE_ANALYZE_HH
#define FGP_ANALYZE_ANALYZE_HH

#include <cstdint>
#include <vector>

#include "base/histogram.hh"
#include "bbe/enlarge.hh"
#include "ir/image.hh"

namespace fgp::analyze {

/** Dependence-height and bound summary of one block. */
struct BlockBounds
{
    std::int32_t block = -1;   ///< image block id
    std::int32_t entryPc = -1;
    bool enlarged = false;
    bool companion = false;
    std::int32_t chainLen = 1;

    std::size_t nodes = 0;
    std::size_t memNodes = 0;
    std::size_t aluNodes = 0; ///< everything occupying an ALU slot

    /**
     * Latency-weighted critical path of the dataflow DAG (RAW +
     * conservative memory ordering + syscall barriers), in cycles.
     */
    int critPath = 0;

    /**
     * Critical path with the anti-dependencies no renamer can kill added:
     * WAR edges from a read of a live-in register to that register's
     * final in-block definition. Hardware renaming (dynamic machines) and
     * the tld's local renaming both leave exactly these, so
     * critPathResidual > critPath flags height lost to a false
     * dependency (lint AN001).
     */
    int critPathResidual = 0;

    /** nodes / critPath — the infinite-resource ILP bound. */
    double dataflowBound = 0.0;

    /** Issue words (0 when the image is not yet translated). */
    std::size_t words = 0;

    /** nodes / words when words are present, else 0. */
    double packedBound = 0.0;
};

/** Analytic resource bound of a whole image at one issue shape. */
struct ResourceBound
{
    int issueIndex = 0; ///< paper's model number (0 for custom shapes)
    int width = 0;
    /**
     * max over blocks of nodes / max(height, slot ceilings): no machine
     * with this issue shape can beat this inside any single block.
     */
    double bound = 0.0;
};

/** Whole-image analysis. */
struct ImageAnalysis
{
    std::vector<BlockBounds> blocks;

    std::size_t totalNodes = 0;
    std::size_t enlargedBlocks = 0;
    std::size_t companionBlocks = 0;

    /** Per-block dependence heights (critPath), histogrammed. */
    Histogram heightHist{4, 32};

    int critPathMax = 0;
    double meanHeight = 0.0;

    /** max over blocks of the per-block dataflow bound. */
    double dataflowBound = 0.0;

    /**
     * max over blocks of nodes/words (0 for untranslated images). Sound
     * upper bound on retired nodes/cycle of any simulation of this
     * image — see staticIpcBound().
     */
    double staticIpcBound = 0.0;

    /** One analytic bound per issue model of the sweep grid (1..8). */
    std::vector<ResourceBound> resourceBounds;
};

/**
 * Analyze every block of @p image. @p mem_hit_latency is the load
 * latency assumed on the critical path (the scheduler's cache-hit
 * assumption; pass config.memory.hitLatency for a specific machine).
 */
ImageAnalysis analyzeImage(const CodeImage &image, int mem_hit_latency = 1);

/** Dataflow dependence height of one block (BlockBounds::critPath). */
int dependenceHeight(const ImageBlock &block, int mem_hit_latency = 1);

/** Height with the renamer-proof WAR edges added (critPathResidual). */
int residualHeight(const ImageBlock &block, int mem_hit_latency = 1);

/** One renamer-proof WAR: read of live-in @p reg before its final def. */
struct ResidualWar
{
    std::uint8_t reg = kRegNone;
    std::uint16_t reader = 0; ///< node index reading the live-in value
    std::uint16_t def = 0;    ///< node index of the final definition
};

/** All renamer-proof WAR edges of @p block (see lint AN001). */
std::vector<ResidualWar> residualWars(const ImageBlock &block);

/**
 * Sound static upper bound on retired nodes per cycle for a *translated*
 * image (words filled): the engine issues at most one word per cycle and
 * every retired node sits in exactly one word of a committed block, so
 * cycles >= committed words and IPC <= max over blocks of nodes/words.
 * Returns 0 for images without words.
 */
double staticIpcBound(const CodeImage &image);

/**
 * Audit of one planned enlargement chain: predicted dependence-height
 * reduction from fusing + re-optimizing the member blocks.
 */
struct ChainAudit
{
    std::size_t chainIndex = 0;     ///< index into plan.chains
    std::int32_t entryPc = -1;      ///< chain head entry pc
    std::size_t members = 0;        ///< chain length (with repeats)
    std::int32_t primaryBlock = -1; ///< primary block id in the enlarged image
    std::size_t nodes = 0;          ///< primary block nodes
    int memberHeightSum = 0;        ///< sum of member dataflow heights
    int fusedHeight = 0;            ///< height of the re-optimized primary

    /** Positive: fusion shortened the dependence chain. */
    int heightReduction() const { return memberHeightSum - fusedHeight; }
};

/**
 * Rank every chain of @p plan by predicted height reduction (descending;
 * ties by chain index). @p single is the pre-enlargement image the plan
 * applies to and @p enlarged the image applyEnlargement built from it.
 * Each primary block is re-optimized on a copy — mirroring what the
 * translating loader will do — before its fused height is measured.
 * Chains whose head was consumed by an earlier chain are skipped.
 */
std::vector<ChainAudit> auditChains(const CodeImage &single,
                                    const CodeImage &enlarged,
                                    const EnlargePlan &plan,
                                    int mem_hit_latency = 1);

/**
 * A bbe plan-audit hook (EnlargeOptions::auditHook) reordering planned
 * chains by predicted height reduction, descending (ties keep plan
 * order), so the most profitable fusions win entry-pc conflicts in
 * applyEnlargement. Measures fused heights against a throwaway enlarged
 * image. Opt-in: the default pipeline installs no hook, so schedules are
 * unchanged unless a caller asks for the ranking.
 */
PlanAuditHook heightRankingHook(int mem_hit_latency = 1);

} // namespace fgp::analyze

#endif // FGP_ANALYZE_ANALYZE_HH
