/**
 * @file
 * Seeded input generators for the five utilities. They produce the same
 * shapes as the library's fixed-seed generators (workloads/workloads.cc):
 * the same line counts per scale, word alphabet, planted grep matches,
 * diff edit mix, cpp macro table and compress phrase repetition. Only the
 * seed differs, so each benchmark seed is a fresh draw of the same input
 * distribution. The library's own generators stay untouched because the
 * golden hashes and the paper figures depend on them.
 */

#ifndef SWEEPBENCH_INPUTS_HH
#define SWEEPBENCH_INPUTS_HH

#include <cstdint>
#include <string>

#include "vm/simos.hh"

namespace sweepbench {

/** Which of the paper's two input sets (§3.1). */
enum class Set : int { Profile = 1, Measure = 2 };

/** The generated input of one utility on one input set. */
struct Inputs
{
    std::string stdinText;
    bool files = false; ///< diff reads a.txt and b.txt, not stdin
    std::string fileA;
    std::string fileB;

    /** Install into a fresh SimOS the way Workload::prepareOs does. */
    void install(fgp::SimOS &os) const;
};

/**
 * Generate the inputs of @p program ("sort", "grep", "diff", "cpp" or
 * "compress") for @p set at input scale @p scale. Every (seed, program,
 * set) triple draws from its own sub-seed.
 */
Inputs generateInputs(const std::string &program, Set set, double scale,
                      std::uint64_t seed);

} // namespace sweepbench

#endif // SWEEPBENCH_INPUTS_HH
