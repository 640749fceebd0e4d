/**
 * @file
 * Static memory disambiguation over the translated tld IR.
 *
 * For every same-block load/store and store/store pair the pass assigns
 * one of three lattice points:
 *
 *  - **no-alias**: the two accesses provably touch disjoint bytes on
 *    every execution of the block (same canonical symbolic base,
 *    non-overlapping constant offset ranges);
 *  - **must-alias**: the two accesses provably touch exactly the same
 *    bytes (equal canonical address expressions, equal widths);
 *  - **may-alias**: neither is provable — the pair stays in the
 *    hardware's run-time disambiguator.
 *
 * Addresses are evaluated with the verifier's hash-consed symbolic
 * algebra (verify/symexpr.hh), including scratch-register value tracking
 * and store-to-load forwarding through the block's store log, so the
 * facts are consistent with what the equivalence checker proves about
 * the same code. Enlarged blocks are single composed node lists, so the
 * same-block analysis classifies cross-companion (cross-junction) pairs
 * of a bbe chain with no extra machinery.
 *
 * Consumers:
 *  - the tld static scheduler (TranslateOptions::disambigHook) drops
 *    ordering edges for proven no-alias pairs, hoisting loads above
 *    independent stores — behind RunOptions::staticDisambig, default off;
 *  - the engine skips store-queue probes for loads proven independent of
 *    every store in their block (disambig.* stats);
 *  - a dynamic cross-check (RunOptions::checks, default on in debug
 *    builds) asserts at block retirement that no statically-proven
 *    no-alias pair ever overlaps at runtime, reporting violations
 *    through the verify::diag registry (MD family).
 */

#ifndef FGP_ANALYZE_DISAMBIG_HH
#define FGP_ANALYZE_DISAMBIG_HH

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "ir/image.hh"
#include "tld/depgraph.hh"

namespace fgp::analyze {

/** Classification lattice for one memory-access pair. */
enum class AliasClass : std::uint8_t {
    NoAlias,   ///< provably disjoint bytes
    MustAlias, ///< provably identical bytes
    MayAlias,  ///< unprovable either way
};

std::string_view aliasClassName(AliasClass cls);

/** One classified pair; first < second in translated node order. */
struct AliasPair
{
    std::uint16_t first;
    std::uint16_t second;
    AliasClass cls;
    bool storeStore; ///< store/store (else load/store)
};

/** Disambiguation summary of one block. */
struct BlockDisambig
{
    std::int32_t block = -1;
    std::int32_t entryPc = -1;
    bool enlarged = false;
    bool companion = false;

    /** Node count at analysis time (staleness cross-check, MD002). */
    std::size_t nodeCount = 0;
    std::size_t loads = 0;
    std::size_t stores = 0;

    /** Every classified pair, in (first, second) order. */
    std::vector<AliasPair> pairs;
    std::size_t noAlias = 0;
    std::size_t mustAlias = 0;
    std::size_t mayAlias = 0;

    /** No-alias pairs in the scheduler's packed form. */
    MemDepFacts facts;

    /**
     * loadIndependent[i] — node i is a load proven no-alias against
     * *every* store of the block (order-free, so the claim holds for any
     * legal schedule). The engine reads such loads straight from memory
     * once all older blocks' stores have retired. Always all-false for
     * blocks containing a system call.
     */
    std::vector<std::uint8_t> loadIndependent;
    std::size_t independentLoads = 0;

    /**
     * Flattened issue position of each node (words order), or empty for
     * an unpacked block. Lets the engine map a node index to its slot in
     * the retirement window.
     */
    std::vector<std::uint16_t> issuePos;

    double
    mayDensity() const
    {
        return pairs.empty() ? 0.0
                             : static_cast<double>(mayAlias) /
                                   static_cast<double>(pairs.size());
    }
};

/** Whole-image disambiguation summary. */
struct DisambigImage
{
    std::vector<BlockDisambig> blocks; ///< indexed by block id

    std::size_t pairsTotal = 0;
    std::size_t noAliasTotal = 0;
    std::size_t mustAliasTotal = 0;
    std::size_t mayAliasTotal = 0;
    std::size_t independentLoadsTotal = 0;
    /** No-alias pairs inside enlarged blocks (cross-companion facts). */
    std::size_t enlargedNoAlias = 0;
};

/**
 * Classify one block's memory pairs. Usable before packing (the
 * translate hook calls it per block, pre-scheduling); issuePos is filled
 * only when the block already has words.
 */
BlockDisambig disambigBlock(const ImageBlock &block);

/** Classify every block of @p image. */
DisambigImage disambigImage(const CodeImage &image);

/**
 * Adapter for TranslateOptions::disambigHook: computes per-block
 * no-alias facts for the static scheduler.
 */
std::function<MemDepFacts(const ImageBlock &)> disambigSchedulingHook();

} // namespace fgp::analyze

#endif // FGP_ANALYZE_DISAMBIG_HH
