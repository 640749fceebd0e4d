#include "verify/postpass.hh"

#include "base/logging.hh"
#include "verify/equiv.hh"
#include "verify/verify.hh"

namespace fgp::verify {

namespace {

void
failOn(const Report &report, const char *pass)
{
    if (report.clean())
        return;
    fgp_fatal(pass, " post-pass verification failed (",
              report.errorCount(), " errors):\n", report.renderText());
}

} // namespace

void
postEnlargementCheck(const CodeImage &single, const CodeImage &enlarged,
                     const EnlargePlan &plan, int max_instances)
{
    Report report;
    verifyImageInto(enlarged, report, {}, "enlarged");
    checkEnlargementSoundness(single, enlarged, plan, report, max_instances,
                              "enlarged");
    failOn(report, "enlargement");
}

void
postTranslationCheck(const CodeImage &before, const CodeImage &after)
{
    Report report;
    verifyImageInto(after, report, {}, "translated");
    checkTranslationSoundness(before, after, report, "translated");
    failOn(report, "translation");
}

} // namespace fgp::verify
