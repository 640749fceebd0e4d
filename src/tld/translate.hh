/**
 * @file
 * Top of the translating loader: per-machine-configuration code
 * generation for a CodeImage (optimization + word packing), mirroring the
 * paper's tld, which "does an optimized code generation for a specific
 * machine configuration" (§3.1).
 */

#ifndef FGP_TLD_TRANSLATE_HH
#define FGP_TLD_TRANSLATE_HH

#include <functional>

#include "arch/config.hh"
#include "ir/image.hh"
#include "tld/depgraph.hh"
#include "tld/optimizer.hh"
#include "verify/postpass.hh"

namespace fgp {

/** Translation knobs. */
struct TranslateOptions
{
    /**
     * Optimize enlarged blocks (re-optimization as a unit, §2.3). Single
     * blocks are translated 1:1 so that the retired node count of a
     * single-block run equals the functional VM's dynamic node count —
     * the paper's "number of nodes retired is the same for a given
     * benchmark on a given set of input data".
     */
    bool optimizeEnlarged = true;

    /** Also optimize original single blocks (ablation only). */
    bool optimizeAll = false;

    OptimizerOptions optimizer = {};

    /**
     * Optional memory-disambiguation hook, invoked per block after
     * optimization and before static scheduling. The returned no-alias
     * facts let the scheduler hoist loads above provably independent
     * stores. Default none: schedules stay bit-identical to the
     * conservative baseline. Installed by translateForRun under
     * RunOptions::staticDisambig (analyze::disambigSchedulingHook); tld
     * itself never computes facts, keeping the layering acyclic.
     */
    std::function<MemDepFacts(const ImageBlock &)> disambigHook;

    /**
     * Optional exact-schedule adoption hook, invoked per block after
     * static scheduling with the issue model, hit latency and the same
     * facts the greedy schedule was built with. It may replace
     * block.words with a provably shorter schedule obeying the same
     * packing rules. Default none: schedules stay bit-identical to the
     * greedy baseline. Installed by translateForRun under
     * RunOptions::oracleSched (analyze::oracleAdoptionHook); like the
     * disambig hook, tld never computes the schedules itself, keeping
     * the layering acyclic. The post-translation verifier re-proves
     * adopted images effect-equivalent as for any other translation.
     */
    std::function<void(ImageBlock &, const IssueModel &, int,
                       const MemDepFacts *)>
        oracleHook;

    /** Run verify::postTranslationCheck on the result. */
    bool verify = verify::kChecksDefault;
};

/**
 * Optimize (per options) and pack every block of @p image for @p config.
 * Returns the optimizer statistics.
 */
OptimizerStats translate(CodeImage &image, const MachineConfig &config,
                         const TranslateOptions &opts = {});

} // namespace fgp

#endif // FGP_TLD_TRANSLATE_HH
