/**
 * @file
 * Mandatory post-pass assertions: the enlargement and translation passes
 * hand their results to the verifier before returning, so a transform bug
 * fails fast at the pass that introduced it instead of surfacing as a
 * wrong simulation result.
 *
 * Each pass runs its check when its options say so (EnlargeOptions::
 * verify, TranslateOptions::verify); both default to kChecksDefault, and
 * RunOptions::checks (FGP_VERIFY) sets them for a whole run. Violations
 * throw FatalError carrying the rendered diagnostics.
 */

#ifndef FGP_VERIFY_POSTPASS_HH
#define FGP_VERIFY_POSTPASS_HH

#include "bbe/plan.hh"
#include "ir/image.hh"

namespace fgp::verify {

/** Whether checks run by default: on in debug builds (!NDEBUG) only. */
#ifdef NDEBUG
inline constexpr bool kChecksDefault = false;
#else
inline constexpr bool kChecksDefault = true;
#endif

/**
 * Post-pass hook of applyEnlargement: structural verification of the
 * enlarged image plus plan-aware enlargement soundness. Throws
 * FatalError on any error finding.
 */
void postEnlargementCheck(const CodeImage &single, const CodeImage &enlarged,
                          const EnlargePlan &plan, int max_instances);

/**
 * Post-pass hook of translate(): structural verification of the
 * translated image plus per-block soundness against the pre-translation
 * snapshot. Throws FatalError on any error finding.
 */
void postTranslationCheck(const CodeImage &before, const CodeImage &after);

} // namespace fgp::verify

#endif // FGP_VERIFY_POSTPASS_HH
