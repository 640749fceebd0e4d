#include "tld/translate.hh"

#include "base/logging.hh"
#include "tld/schedule.hh"
#include "verify/postpass.hh"

namespace fgp {

OptimizerStats
translate(CodeImage &image, const MachineConfig &config,
          const TranslateOptions &opts)
{
    OptimizerStats stats;
    CodeImage before;
    if (opts.verify)
        before = image;
    for (ImageBlock &block : image.blocks) {
        if (opts.optimizeAll || (opts.optimizeEnlarged && block.enlarged))
            stats.mergeFrom(optimizeBlock(block, opts.optimizer));

        if (config.discipline == Discipline::Static) {
            const MemDepFacts facts =
                opts.disambigHook ? opts.disambigHook(block)
                                  : MemDepFacts{};
            const MemDepFacts *facts_ptr =
                facts.empty() ? nullptr : &facts;
            scheduleStatic(block, config.issue, config.memory.hitLatency,
                           facts_ptr);
            if (opts.oracleHook)
                opts.oracleHook(block, config.issue,
                                config.memory.hitLatency, facts_ptr);
        } else {
            packDynamic(block, config.issue);
        }
    }
    validateImage(image);
    if (opts.verify)
        verify::postTranslationCheck(before, image);
    return stats;
}

} // namespace fgp
