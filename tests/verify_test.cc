/**
 * Static verifier tests: every diagnostic code has a hand-built broken
 * image that triggers it, clean images across the whole pipeline verify
 * clean, and the checks are schedule-neutral (running them changes no
 * simulated result).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "base/logging.hh"
#include "bbe/enlarge.hh"
#include "engine/engine.hh"
#include "ir/cfg.hh"
#include "masm/assembler.hh"
#include "tld/translate.hh"
#include "verify/equiv.hh"
#include "verify/postpass.hh"
#include "verify/verify.hh"
#include "vm/interp.hh"
#include "workloads/workloads.hh"

namespace fgp {
namespace {

using verify::Code;
using verify::Report;

/**
 * Loop whose body branches the same way most iterations (bbe_test's).
 * Returned by reference: images borrow their Program, so the tests'
 * `buildCfg(loopProgram())` one-liners need it to stay alive.
 */
const Program &
loopProgram()
{
    static const Program prog = assemble(R"(
main:   li   r8, 0           # i
        li   r9, 100         # n
        li   r10, 0          # even accumulator
        li   r11, 0          # multiple-of-7 accumulator
loop:   andi r12, r8, 1
        bnez r12, odd        # taken half of the time
        addi r10, r10, 1
odd:    li   r13, 7
        rem  r14, r8, r13
        bnez r14, next       # heavily biased: taken 6/7
        addi r11, r11, 1
next:   addi r8, r8, 1
        blt  r8, r9, loop    # heavily biased: taken
        la   r1, out
        sw   r10, 0(r1)
        sw   r11, 4(r1)
        li   v0, 0
        li   a0, 0
        syscall
        .data
out:    .space 8
)");
    return prog;
}

Profile
profileOf(const Program &prog)
{
    Profile profile;
    SimOS os;
    InterpOptions opts;
    opts.profile = &profile;
    interpret(prog, os, opts);
    return profile;
}

/** Fresh structural report for an image. */
Report
structural(const CodeImage &image, const verify::VerifyOptions &opts = {})
{
    return verify::verifyImage(image, opts);
}

/** Find the first node index in @p block satisfying @p pred, or -1. */
template <typename Pred>
int
findNode(const ImageBlock &block, Pred pred)
{
    for (std::size_t i = 0; i < block.nodes.size(); ++i) {
        if (pred(block.nodes[i]))
            return static_cast<int>(i);
    }
    return -1;
}

// ---------------------------------------------------------------------------
// Clean images verify clean.

TEST(Verify, CleanSingleImage)
{
    const Program &prog = loopProgram();
    const CodeImage single = buildCfg(prog);
    const Report report = structural(single);
    EXPECT_TRUE(report.clean()) << report.renderText();
    EXPECT_EQ(report.warningCount(), 0u) << report.renderText();
}

TEST(Verify, CleanPipelineEnlargedAndTranslated)
{
    const Program &prog = loopProgram();
    const CodeImage single = buildCfg(prog);
    const Profile profile = profileOf(prog);

    const EnlargePlan plan = planEnlargement(single, profile);
    ASSERT_FALSE(plan.chains.empty());
    const CodeImage enlarged = applyEnlargement(single, plan);

    Report report = structural(enlarged);
    verify::checkEnlargementSoundness(single, enlarged, plan, report);
    EXPECT_TRUE(report.clean()) << report.renderText();

    const MachineConfig config = parseMachineConfig("dyn4/8A/enlarged");
    CodeImage translated = enlarged;
    translate(translated, config);

    verify::VerifyOptions vopts;
    vopts.issue = &config.issue;
    Report treport = structural(translated, vopts);
    verify::checkTranslationSoundness(enlarged, translated, treport);
    EXPECT_TRUE(treport.clean()) << treport.renderText();
}

TEST(Verify, OptimizeAllBlocksStaysSound)
{
    // The ablation path optimizes every block, not just enlarged ones —
    // a much larger surface for the symbolic equivalence engine.
    const Program &prog = loopProgram();
    const CodeImage before = buildCfg(prog);
    CodeImage after = before;
    TranslateOptions topts;
    topts.optimizeAll = true;
    translate(after, parseMachineConfig("static/8A/single"), topts);

    Report report;
    verify::checkTranslationSoundness(before, after, report);
    EXPECT_TRUE(report.clean()) << report.renderText();
}

// ---------------------------------------------------------------------------
// Structural negatives: one broken image per code.

TEST(Verify, DetectsBlockIdMismatch)
{
    CodeImage image = buildCfg(loopProgram());
    image.blocks[1].id = 7;
    EXPECT_TRUE(structural(image).hasCode(Code::BlockIdMismatch));
}

TEST(Verify, DetectsEmptyBlock)
{
    CodeImage image = buildCfg(loopProgram());
    image.blocks[1].nodes.clear();
    image.blocks[1].words.clear();
    EXPECT_TRUE(structural(image).hasCode(Code::EmptyBlock));
}

TEST(Verify, DetectsEntryMapBroken)
{
    CodeImage image = buildCfg(loopProgram());
    // Route a real entry pc at a block whose entryPc differs.
    auto it = image.entryByPc.find(image.blocks[0].entryPc);
    ASSERT_NE(it, image.entryByPc.end());
    it->second = image.blocks[1].id;
    EXPECT_TRUE(structural(image).hasCode(Code::EntryMapBroken));
}

TEST(Verify, DetectsNonTerminalControl)
{
    CodeImage image = buildCfg(loopProgram());
    int victim = -1;
    for (ImageBlock &block : image.blocks) {
        if (block.nodes.size() >= 2 && block.terminal() != nullptr) {
            std::swap(block.nodes.front(), block.nodes.back());
            victim = block.id;
            break;
        }
    }
    ASSERT_GE(victim, 0);
    EXPECT_TRUE(structural(image).hasCode(Code::NonTerminalControl));
}

TEST(Verify, DetectsBadTerminator)
{
    CodeImage image = buildCfg(loopProgram());
    // A conditional branch must have a fall-through; sever it.
    int victim = -1;
    for (ImageBlock &block : image.blocks) {
        const Node *term = block.terminal();
        if (term != nullptr && term->op == Opcode::BNE &&
            block.fallthroughPc >= 0) {
            block.fallthroughPc = -1;
            victim = block.id;
            break;
        }
    }
    ASSERT_GE(victim, 0);
    EXPECT_TRUE(structural(image).hasCode(Code::BadTerminator));
}

TEST(Verify, DetectsDanglingBranchTarget)
{
    CodeImage image = buildCfg(loopProgram());
    int victim = -1;
    for (ImageBlock &block : image.blocks) {
        Node *term = block.nodes.empty() ? nullptr : &block.nodes.back();
        if (term != nullptr && term->isControl() &&
            term->op != Opcode::JR && term->target >= 0) {
            term->target = 999999;
            victim = block.id;
            break;
        }
    }
    ASSERT_GE(victim, 0);
    const Report report = structural(image);
    EXPECT_TRUE(report.hasCode(Code::DanglingBranchTarget))
        << report.renderText();
}

TEST(Verify, DetectsDanglingFallthrough)
{
    CodeImage image = buildCfg(loopProgram());
    int victim = -1;
    for (ImageBlock &block : image.blocks) {
        if (block.fallthroughPc >= 0) {
            block.fallthroughPc = 999999;
            victim = block.id;
            break;
        }
    }
    ASSERT_GE(victim, 0);
    EXPECT_TRUE(structural(image).hasCode(Code::DanglingFallthrough));
}

TEST(Verify, DetectsBadFaultTarget)
{
    const Program &prog = loopProgram();
    const CodeImage single = buildCfg(prog);
    CodeImage enlarged = enlarge(single, profileOf(prog));
    int victim = -1;
    for (ImageBlock &block : enlarged.blocks) {
        const int idx = findNode(block,
                                 [](const Node &n) { return n.isFault(); });
        if (idx >= 0) {
            block.nodes[static_cast<std::size_t>(idx)].target = 999999;
            victim = block.id;
            break;
        }
    }
    ASSERT_GE(victim, 0);
    EXPECT_TRUE(structural(enlarged).hasCode(Code::BadFaultTarget));
}

TEST(Verify, DetectsRegisterOutOfRange)
{
    CodeImage image = buildCfg(loopProgram());
    Node *node = nullptr;
    for (ImageBlock &block : image.blocks) {
        const int idx = findNode(block, [](const Node &n) {
            return operandUse(opcodeInfo(n.op).form).rs1;
        });
        if (idx >= 0) {
            node = &block.nodes[static_cast<std::size_t>(idx)];
            break;
        }
    }
    ASSERT_NE(node, nullptr);
    node->rs1 = kNumRegs; // one past the last scratch register
    EXPECT_TRUE(structural(image).hasCode(Code::RegisterOutOfRange));
}

TEST(Verify, DetectsOperandFormViolation)
{
    CodeImage image = buildCfg(loopProgram());
    Node *node = nullptr;
    for (ImageBlock &block : image.blocks) {
        const int idx = findNode(block, [](const Node &n) {
            return !operandUse(opcodeInfo(n.op).form).imm;
        });
        if (idx >= 0) {
            node = &block.nodes[static_cast<std::size_t>(idx)];
            break;
        }
    }
    ASSERT_NE(node, nullptr);
    node->imm = 7; // stray immediate outside the operand form
    EXPECT_TRUE(structural(image).hasCode(Code::OperandFormViolation));
}

TEST(Verify, DetectsWordPackingBroken)
{
    CodeImage image = buildCfg(loopProgram());
    const MachineConfig config = parseMachineConfig("dyn4/8A/single");
    translate(image, config);
    ImageBlock *victim = nullptr;
    for (ImageBlock &block : image.blocks) {
        if (!block.words.empty() && !block.words.front().empty()) {
            victim = &block;
            break;
        }
    }
    ASSERT_NE(victim, nullptr);
    victim->words.front().push_back(victim->words.front().front());
    verify::VerifyOptions vopts;
    vopts.issue = &config.issue;
    EXPECT_TRUE(structural(image, vopts).hasCode(Code::WordPackingBroken));
}

TEST(Verify, DetectsNoExitPath)
{
    CodeImage image = buildCfg(loopProgram());
    int victim = -1;
    for (ImageBlock &block : image.blocks) {
        if (block.terminal() != nullptr && !block.hasSyscall &&
            block.fallthroughPc < 0) {
            block.nodes.pop_back(); // strip the only way out
            victim = block.id;
            break;
        }
    }
    if (victim < 0) {
        // Fall back: make a branch block terminal-free and fall-through-free.
        for (ImageBlock &block : image.blocks) {
            if (block.terminal() != nullptr && !block.hasSyscall) {
                block.nodes.pop_back();
                block.fallthroughPc = -1;
                victim = block.id;
                break;
            }
        }
    }
    ASSERT_GE(victim, 0);
    EXPECT_TRUE(structural(image).hasCode(Code::NoExitPath));
}

TEST(Verify, DetectsBlockFlagMismatch)
{
    CodeImage image = buildCfg(loopProgram());
    int victim = -1;
    for (ImageBlock &block : image.blocks) {
        if (!block.hasSyscall) {
            block.hasSyscall = true;
            victim = block.id;
            break;
        }
    }
    ASSERT_GE(victim, 0);
    EXPECT_TRUE(structural(image).hasCode(Code::BlockFlagMismatch));
}

// ---------------------------------------------------------------------------
// Dataflow negatives.

TEST(Verify, DetectsScratchReadBeforeWrite)
{
    CodeImage image = buildCfg(loopProgram());
    Node *node = nullptr;
    for (ImageBlock &block : image.blocks) {
        const int idx = findNode(block, [](const Node &n) {
            return operandUse(opcodeInfo(n.op).form).rs1;
        });
        if (idx >= 0) {
            node = &block.nodes[static_cast<std::size_t>(idx)];
            break;
        }
    }
    ASSERT_NE(node, nullptr);
    node->rs1 = kNumArchRegs; // scratch r32, never defined in this block
    const Report report = structural(image);
    EXPECT_TRUE(report.hasCode(Code::ScratchReadBeforeWrite))
        << report.renderText();
    EXPECT_FALSE(report.clean());
}

TEST(Verify, StrictModeWarnsOnMaybeUninitRead)
{
    const Program prog = assemble(R"(
main:   add  r8, r20, r0    # r20 never written on any path
        li   v0, 0
        li   a0, 0
        syscall
)");
    const CodeImage image = buildCfg(prog);
    verify::VerifyOptions opts;
    opts.strictUninit = true;
    const Report report = structural(image, opts);
    EXPECT_TRUE(report.hasCode(Code::MaybeUninitRead)) << report.renderText();
    // Findings are warnings: legal (the register file zero-fills) but
    // suspicious, so strict mode must not fail the image.
    EXPECT_TRUE(report.clean()) << report.renderText();
    EXPECT_GT(report.warningCount(), 0u);
}

TEST(Verify, StrictModeAcceptsWellInitializedProgram)
{
    // Every register read on any path — including the syscall's implicit
    // argument registers — is defined first, so strict mode stays silent.
    const Program prog = assemble(R"(
main:   li   r8, 3
        addi r8, r8, 1
        li   v0, 0
        li   a0, 0
        li   a1, 0
        li   a2, 0
        li   a3, 0
        syscall
)");
    const CodeImage image = buildCfg(prog);
    verify::VerifyOptions opts;
    opts.strictUninit = true;
    const Report report = structural(image, opts);
    EXPECT_FALSE(report.hasCode(Code::MaybeUninitRead))
        << report.renderText();
}

// ---------------------------------------------------------------------------
// BBE invariant negatives.

TEST(Verify, DetectsFaultOutsideEnlarged)
{
    const Program &prog = loopProgram();
    const CodeImage single = buildCfg(prog);
    CodeImage enlarged = enlarge(single, profileOf(prog));
    // Copy a fault node into an original (non-enlarged) block.
    const Node *fault = nullptr;
    for (const ImageBlock &block : enlarged.blocks) {
        const int idx = findNode(block,
                                 [](const Node &n) { return n.isFault(); });
        if (idx >= 0) {
            fault = &block.nodes[static_cast<std::size_t>(idx)];
            break;
        }
    }
    ASSERT_NE(fault, nullptr);
    ImageBlock &plain = enlarged.blocks[0];
    ASSERT_FALSE(plain.enlarged);
    plain.nodes.insert(plain.nodes.begin(), *fault);
    EXPECT_TRUE(structural(enlarged).hasCode(Code::FaultOutsideEnlarged));
}

TEST(Verify, DetectsCompanionEntryReachable)
{
    const Program &prog = loopProgram();
    const CodeImage single = buildCfg(prog);
    CodeImage enlarged = enlarge(single, profileOf(prog));
    std::int32_t companion = -1;
    for (const ImageBlock &block : enlarged.blocks) {
        if (block.companion) {
            companion = block.id;
            break;
        }
    }
    ASSERT_GE(companion, 0);
    enlarged.entryByPc[enlarged.block(companion).entryPc] = companion;
    EXPECT_TRUE(structural(enlarged).hasCode(Code::CompanionEntryReachable));
}

TEST(Verify, DetectsCorruptedCompanionFaultTarget)
{
    const Program &prog = loopProgram();
    const CodeImage single = buildCfg(prog);
    CodeImage enlarged = enlarge(single, profileOf(prog));
    // Retarget a primary's fault edge at an original block: the edge now
    // leaves its chain and the mutual-fault pairing is broken.
    int victim = -1;
    for (ImageBlock &block : enlarged.blocks) {
        if (!block.enlarged || block.companion)
            continue;
        const int idx = findNode(block,
                                 [](const Node &n) { return n.isFault(); });
        if (idx >= 0) {
            block.nodes[static_cast<std::size_t>(idx)].target =
                enlarged.blocks[0].id;
            victim = block.id;
            break;
        }
    }
    ASSERT_GE(victim, 0);
    const Report report = structural(enlarged);
    EXPECT_TRUE(report.hasCode(Code::CompanionFaultNotMutual))
        << report.renderText();
}

TEST(Verify, DetectsInstanceCapExceeded)
{
    // A plan may legally unroll a loop by re-entering the chain, but at
    // most 16 instances of one original block are allowed (§3.1). Build a
    // 17-deep unroll by hand; applyEnlargement does not enforce the cap
    // (planEnlargement does), so the checker must.
    const Program prog = assemble(R"(
main:   li   r8, 200
loop:   addi r8, r8, -1
        bnez r8, loop
        li   v0, 0
        li   a0, 0
        syscall
)");
    const CodeImage single = buildCfg(prog);
    std::int32_t loop_pc = -1;
    for (const ImageBlock &block : single.blocks) {
        const Node *term = block.terminal();
        if (term != nullptr && term->op == Opcode::BNE &&
            term->target == block.entryPc) {
            loop_pc = block.entryPc;
            break;
        }
    }
    ASSERT_GE(loop_pc, 0);

    EnlargePlan plan;
    plan.chains.push_back(
        EnlargeChain{std::vector<std::int32_t>(17, loop_pc)});

    // The post-pass hook would (rightly) reject this build; leave it off
    // so the checker can be exercised directly.
    EnlargeOptions unchecked;
    unchecked.verify = false;
    const CodeImage enlarged =
        applyEnlargement(single, plan, nullptr, unchecked);

    Report report;
    verify::checkEnlargementSoundness(single, enlarged, plan, report);
    EXPECT_TRUE(report.hasCode(Code::InstanceCapExceeded))
        << report.renderText();

    // A shallower unroll stays within the cap. Instance accounting counts
    // companion replays too (each embedded junction re-executes the shared
    // prefix), so a 5-member self-loop chain costs 5 + 4+3+2+1 = 15.
    EnlargePlan capped;
    capped.chains.push_back(
        EnlargeChain{std::vector<std::int32_t>(5, loop_pc)});
    const CodeImage ok = applyEnlargement(single, capped);
    Report ok_report;
    verify::checkEnlargementSoundness(single, ok, capped, ok_report);
    EXPECT_TRUE(ok_report.clean()) << ok_report.renderText();
}

TEST(Verify, DetectsChainPlanBroken)
{
    const Program &prog = loopProgram();
    const CodeImage single = buildCfg(prog);
    const Profile profile = profileOf(prog);
    EnlargePlan plan = planEnlargement(single, profile);
    ASSERT_FALSE(plan.chains.empty());
    const CodeImage enlarged = applyEnlargement(single, plan);

    // Audit the image against a plan with one extra chain that the image
    // was never built from.
    EnlargePlan tampered = plan;
    tampered.chains.push_back(EnlargeChain{{-5, -6}});
    Report report;
    verify::checkEnlargementSoundness(single, enlarged, tampered, report);
    EXPECT_TRUE(report.hasCode(Code::ChainPlanBroken)) << report.renderText();
}

// ---------------------------------------------------------------------------
// Transform-soundness negatives: tampered results are proven unequal.

const char *const kStraightLine = R"(
main:   li   r8, 1
        li   r9, 2
        add  r10, r8, r9
        la   r1, out
        sw   r10, 0(r1)
        li   v0, 0
        li   a0, 0
        syscall
        .data
out:    .space 8
)";

TEST(Verify, SoundnessCatchesRegisterTamper)
{
    const Program prog = assemble(kStraightLine);
    const CodeImage before = buildCfg(prog);
    CodeImage after = before;
    Node *node = nullptr;
    for (ImageBlock &block : after.blocks) {
        const int idx = findNode(
            block, [](const Node &n) { return n.op == Opcode::ADD; });
        if (idx >= 0) {
            node = &block.nodes[static_cast<std::size_t>(idx)];
            break;
        }
    }
    ASSERT_NE(node, nullptr);
    node->rs2 = node->rs1; // r8 + r8 instead of r8 + r9
    Report report;
    verify::checkTranslationSoundness(before, after, report);
    EXPECT_TRUE(report.hasCode(Code::RegisterEffectMismatch))
        << report.renderText();
}

TEST(Verify, SoundnessCatchesStoreTamper)
{
    const Program prog = assemble(kStraightLine);
    const CodeImage before = buildCfg(prog);
    CodeImage after = before;
    Node *node = nullptr;
    for (ImageBlock &block : after.blocks) {
        const int idx = findNode(
            block, [](const Node &n) { return opcodeInfo(n.op).isStore; });
        if (idx >= 0) {
            node = &block.nodes[static_cast<std::size_t>(idx)];
            break;
        }
    }
    ASSERT_NE(node, nullptr);
    node->imm += 4; // store lands at the wrong address
    Report report;
    verify::checkTranslationSoundness(before, after, report);
    EXPECT_TRUE(report.hasCode(Code::MemoryEffectMismatch))
        << report.renderText();
}

TEST(Verify, SoundnessCatchesControlTamper)
{
    const Program &prog = loopProgram();
    const CodeImage before = buildCfg(prog);
    CodeImage after = before;
    Node *term = nullptr;
    for (ImageBlock &block : after.blocks) {
        if (!block.nodes.empty() && block.nodes.back().op == Opcode::BNE) {
            term = &block.nodes.back();
            break;
        }
    }
    ASSERT_NE(term, nullptr);
    term->target = after.blocks[0].entryPc; // valid entry, wrong one
    Report report;
    verify::checkTranslationSoundness(before, after, report);
    EXPECT_TRUE(report.hasCode(Code::ControlEffectMismatch))
        << report.renderText();
}

TEST(Verify, SoundnessCatchesGuardTamper)
{
    const Program &prog = loopProgram();
    const CodeImage single = buildCfg(prog);
    const Profile profile = profileOf(prog);
    const EnlargePlan plan = planEnlargement(single, profile);
    CodeImage enlarged = applyEnlargement(single, plan);

    // Flip the sense of an embedded fault guard: the enlarged block now
    // faults on the hot arc instead of the cold one.
    Node *fault = nullptr;
    for (ImageBlock &block : enlarged.blocks) {
        if (!block.enlarged || block.companion)
            continue;
        const int idx = findNode(block,
                                 [](const Node &n) { return n.isFault(); });
        if (idx >= 0) {
            fault = &block.nodes[static_cast<std::size_t>(idx)];
            break;
        }
    }
    ASSERT_NE(fault, nullptr);
    fault->op = fault->op == Opcode::FEQ ? Opcode::FNE : Opcode::FEQ;
    Report report;
    verify::checkEnlargementSoundness(single, enlarged, plan, report);
    EXPECT_TRUE(report.hasCode(Code::FaultGuardMismatch))
        << report.renderText();
}

TEST(Verify, SoundnessCatchesShapeTamper)
{
    const Program &prog = loopProgram();
    const CodeImage before = buildCfg(prog);
    CodeImage after = before;
    after.blocks.pop_back();
    Report report;
    verify::checkTranslationSoundness(before, after, report);
    EXPECT_TRUE(report.hasCode(Code::ImageShapeMismatch))
        << report.renderText();
}

// ---------------------------------------------------------------------------
// CFG successor helper.

TEST(Verify, ImageSuccessorsFollowBranchesAndFallthrough)
{
    const Program prog = assemble(R"(
main:   li   r8, 50
loop:   addi r8, r8, -1
        bnez r8, loop
        li   v0, 0
        li   a0, 0
        syscall
)");
    const CodeImage image = buildCfg(prog);
    ASSERT_EQ(image.blocks.size(), 3u);
    const std::int32_t main_id = image.entryBlock;
    // main falls through into the loop; the loop reaches itself and the
    // exit block.
    const auto main_succ = verify::imageSuccessors(image, main_id);
    ASSERT_EQ(main_succ.size(), 1u);
    const std::int32_t loop_id = main_succ[0];
    const auto loop_succ = verify::imageSuccessors(image, loop_id);
    EXPECT_EQ(loop_succ.size(), 2u);
    EXPECT_TRUE(std::find(loop_succ.begin(), loop_succ.end(), loop_id) !=
                loop_succ.end());
}

// ---------------------------------------------------------------------------
// All five workloads verify clean across the pipeline and config corners.

TEST(Verify, AllWorkloadsVerifyCleanAcrossConfigs)
{
    const std::vector<std::string> configs = {
        "static/4A/enlarged",
        "dyn1/8D/enlarged",
        "dyn4/8A/enlarged",
        "dyn256/8G/enlarged",
    };
    for (const std::string &name : workloadNames()) {
        Workload wl = makeWorkload(name);
        wl.setScale(0.1);

        Profile profile;
        SimOS os;
        wl.prepareOs(os, InputSet::Profile);
        InterpOptions iopts;
        iopts.profile = &profile;
        interpret(wl.program(), os, iopts);

        const CodeImage single = buildCfg(wl.program());
        const Report sreport = structural(single);
        EXPECT_TRUE(sreport.clean()) << name << "\n" << sreport.renderText();

        const EnlargePlan plan = planEnlargement(single, profile);
        const CodeImage enlarged = applyEnlargement(single, plan);
        Report ereport = structural(enlarged);
        verify::checkEnlargementSoundness(single, enlarged, plan, ereport);
        EXPECT_TRUE(ereport.clean()) << name << "\n" << ereport.renderText();

        for (const std::string &cname : configs) {
            const MachineConfig config = parseMachineConfig(cname);
            CodeImage translated = enlarged;
            translate(translated, config);
            verify::VerifyOptions vopts;
            vopts.issue = &config.issue;
            Report treport = structural(translated, vopts);
            verify::checkTranslationSoundness(enlarged, translated, treport);
            EXPECT_TRUE(treport.clean())
                << name << " @ " << cname << "\n" << treport.renderText();
        }
    }
}

// ---------------------------------------------------------------------------
// Schedule neutrality: enabling the post-pass checks cannot change any
// simulated result (the verifier never mutates an image).

TEST(Verify, PostPassChecksAreScheduleNeutral)
{
    const MachineConfig config = parseMachineConfig("dyn4/8A/enlarged");

    auto run = [&](bool checks) {
        const Program &prog = loopProgram();
        const CodeImage single = buildCfg(prog);
        EnlargeOptions eopts;
        eopts.verify = checks;
        CodeImage image = enlarge(single, profileOf(prog), eopts);
        TranslateOptions topts;
        topts.verify = checks;
        translate(image, config, topts);
        SimOS os;
        EngineOptions opts;
        opts.config = config;
        return simulate(image, os, opts);
    };

    const EngineResult off = run(false);
    const EngineResult on = run(true);
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.retiredNodes, on.retiredNodes);
    EXPECT_EQ(off.committedBlocks, on.committedBlocks);
}

} // namespace
} // namespace fgp
