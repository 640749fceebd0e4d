/**
 * Static ILP analyzer tests: hand-built DAG fixtures with known critical
 * paths, lint true/false-positive fixtures for every AN code, chain
 * audits on a real enlargement, and the sweep-level soundness oracle —
 * the analyzer's static IPC bound dominates the measured retired
 * nodes/cycle in every (workload, configuration) cell.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analyze/analyze.hh"
#include "analyze/disambig.hh"
#include "analyze/lint.hh"
#include "analyze/oracle.hh"
#include "arch/config.hh"
#include "bbe/enlarge.hh"
#include "harness/experiment.hh"
#include "ir/cfg.hh"
#include "masm/assembler.hh"
#include "tld/schedule.hh"
#include "tld/translate.hh"
#include "verify/diag.hh"
#include "vm/interp.hh"
#include "workloads/workloads.hh"

namespace fgp {
namespace {

using verify::Code;
using verify::Report;

// The full disambiguation pipeline, for every harness run this binary
// makes: the scheduler consumes no-alias facts, the engine takes the
// fast-load path, and retirement re-checks every proven pair (MD001/
// MD002 panics on unsoundness).
const RunOptions kDisambigChecked{.staticDisambig = true, .checks = true};

// ---------------------------------------------------------------------------
// Node/block fixture helpers.

Node
rrr(Opcode op, std::uint8_t rd, std::uint8_t rs1, std::uint8_t rs2)
{
    Node n;
    n.op = op;
    n.rd = rd;
    n.rs1 = rs1;
    n.rs2 = rs2;
    return n;
}

Node
rri(Opcode op, std::uint8_t rd, std::uint8_t rs1, std::int32_t imm)
{
    Node n;
    n.op = op;
    n.rd = rd;
    n.rs1 = rs1;
    n.imm = imm;
    return n;
}

Node
load(Opcode op, std::uint8_t rd, std::uint8_t base, std::int32_t imm)
{
    Node n;
    n.op = op;
    n.rd = rd;
    n.rs1 = base;
    n.imm = imm;
    return n;
}

Node
store(Opcode op, std::uint8_t data, std::uint8_t base, std::int32_t imm)
{
    Node n;
    n.op = op;
    n.rs2 = data;
    n.rs1 = base;
    n.imm = imm;
    return n;
}

ImageBlock
blockOf(std::vector<Node> nodes)
{
    ImageBlock block;
    block.id = 0;
    block.entryPc = 0;
    block.nodes = std::move(nodes);
    return block;
}

Report
lintBlock(const ImageBlock &block)
{
    CodeImage image;
    image.blocks.push_back(block);
    image.entryBlock = -1; // skip the reachability lint for fixtures
    Report report;
    analyze::lintImage(image, report);
    return report;
}

// ---------------------------------------------------------------------------
// Dependence heights on hand-built DAGs.

TEST(AnalyzeHeight, DependentChainIsSequential)
{
    // r1 = r2+r3; r4 = r1+r1; r5 = r4+r4 — a pure three-node chain.
    const ImageBlock block = blockOf({rrr(Opcode::ADD, 10, 2, 3),
                                      rrr(Opcode::ADD, 11, 10, 10),
                                      rrr(Opcode::ADD, 12, 11, 11)});
    EXPECT_EQ(analyze::dependenceHeight(block), 3);
}

TEST(AnalyzeHeight, IndependentNodesAreFlat)
{
    const ImageBlock block = blockOf({rri(Opcode::ADDI, 10, 0, 1),
                                      rri(Opcode::ADDI, 11, 0, 2),
                                      rri(Opcode::ADDI, 12, 0, 3),
                                      rri(Opcode::ADDI, 13, 0, 4)});
    EXPECT_EQ(analyze::dependenceHeight(block), 1);
}

TEST(AnalyzeHeight, LoadLatencyWeighsTheCriticalPath)
{
    // lw r10, 0(r2); add r11, r10, r10
    const ImageBlock block = blockOf(
        {load(Opcode::LW, 10, 2, 0), rrr(Opcode::ADD, 11, 10, 10)});
    EXPECT_EQ(analyze::dependenceHeight(block, 1), 2);
    EXPECT_EQ(analyze::dependenceHeight(block, 3), 4);
}

TEST(AnalyzeHeight, ResidualWarsNameTheRegister)
{
    // add r10, r2, r3 reads live-in r2; add r2, r4, r5 is r2's final
    // def — the one WAR no renamer can kill.
    const ImageBlock block = blockOf(
        {rrr(Opcode::ADD, 10, 2, 3), rrr(Opcode::ADD, 2, 4, 5)});
    const auto wars = analyze::residualWars(block);
    ASSERT_EQ(wars.size(), 1u);
    EXPECT_EQ(wars[0].reg, 2);
    EXPECT_EQ(wars[0].reader, 0);
    EXPECT_EQ(wars[0].def, 1);
    EXPECT_EQ(analyze::dependenceHeight(block), 1);
    EXPECT_EQ(analyze::residualHeight(block), 2);
}

TEST(AnalyzeHeight, RawChainHasNoResidualWars)
{
    const ImageBlock block = blockOf(
        {rrr(Opcode::ADD, 10, 2, 3), rrr(Opcode::ADD, 11, 10, 10)});
    EXPECT_TRUE(analyze::residualWars(block).empty());
    EXPECT_EQ(analyze::residualHeight(block),
              analyze::dependenceHeight(block));
}

TEST(AnalyzeHeight, ReadOfOwnFinalDefIsNotAWar)
{
    // addi r8, r8, 1: the read and the final def are the same node.
    const ImageBlock block = blockOf({rri(Opcode::ADDI, 8, 8, 1)});
    EXPECT_TRUE(analyze::residualWars(block).empty());
}

// ---------------------------------------------------------------------------
// Whole-image bounds.

TEST(AnalyzeBounds, StaticIpcBoundIsNodesOverWords)
{
    CodeImage image;
    ImageBlock block = blockOf({rri(Opcode::ADDI, 10, 0, 1),
                                rri(Opcode::ADDI, 11, 0, 2),
                                rri(Opcode::ADDI, 12, 0, 3),
                                rri(Opcode::ADDI, 13, 0, 4)});
    block.words = {{0, 1}, {2, 3}}; // 4 nodes in 2 words
    image.blocks.push_back(block);
    EXPECT_DOUBLE_EQ(analyze::staticIpcBound(image), 2.0);

    // An untranslated image has no words and no packed bound.
    CodeImage raw;
    raw.blocks.push_back(blockOf({rri(Opcode::ADDI, 10, 0, 1)}));
    EXPECT_DOUBLE_EQ(analyze::staticIpcBound(raw), 0.0);
}

TEST(AnalyzeBounds, ResourceBoundsRespectIssueShapes)
{
    CodeImage image;
    image.blocks.push_back(blockOf({rri(Opcode::ADDI, 10, 0, 1),
                                    rri(Opcode::ADDI, 11, 0, 2),
                                    load(Opcode::LW, 12, 2, 0),
                                    load(Opcode::LW, 13, 2, 4)}));
    const analyze::ImageAnalysis analysis = analyze::analyzeImage(image);
    ASSERT_EQ(analysis.resourceBounds.size(), allIssueModels().size());
    for (const analyze::ResourceBound &rb : analysis.resourceBounds) {
        EXPECT_GT(rb.bound, 0.0);
        EXPECT_LE(rb.bound, static_cast<double>(rb.width));
    }
    // Model 1 issues one node of any kind per cycle.
    EXPECT_DOUBLE_EQ(analysis.resourceBounds.front().bound, 1.0);
}

TEST(AnalyzeBounds, AnalyzeNeverMutatesTheImage)
{
    const Program prog = assemble(R"(
main:   li   r8, 3
        addi r9, r8, 1
        li   v0, 0
        li   a0, 0
        syscall
)");
    CodeImage image = buildCfg(prog);
    const CodeImage before = image;
    analyze::analyzeImage(image);
    Report report;
    analyze::lintImage(image, report);
    ASSERT_EQ(image.blocks.size(), before.blocks.size());
    for (std::size_t b = 0; b < image.blocks.size(); ++b) {
        EXPECT_EQ(image.blocks[b].nodes, before.blocks[b].nodes);
        EXPECT_EQ(image.blocks[b].words, before.blocks[b].words);
    }
}

// ---------------------------------------------------------------------------
// Lint fixtures: one true positive and one false-positive guard per code.

TEST(AnalyzeLint, SerializingFalseDepFires)
{
    const ImageBlock block = blockOf(
        {rrr(Opcode::ADD, 10, 2, 3), rrr(Opcode::ADD, 2, 4, 5)});
    const Report report = lintBlock(block);
    EXPECT_TRUE(report.hasCode(Code::SerializingFalseDep))
        << report.renderText();
}

TEST(AnalyzeLint, SerializingFalseDepSilentOffCriticalPath)
{
    // The WAR exists (r2 reader -> final def) but a longer true chain
    // hides it, so no height is lost and the lint stays quiet.
    const ImageBlock block = blockOf({rrr(Opcode::ADD, 10, 2, 3),
                                      rrr(Opcode::ADD, 11, 10, 10),
                                      rrr(Opcode::ADD, 12, 11, 11),
                                      rrr(Opcode::ADD, 2, 4, 5)});
    EXPECT_EQ(analyze::residualWars(block).size(), 1u);
    const Report report = lintBlock(block);
    EXPECT_FALSE(report.hasCode(Code::SerializingFalseDep))
        << report.renderText();
}

TEST(AnalyzeLint, DeadDefFires)
{
    const ImageBlock block = blockOf(
        {rri(Opcode::ADDI, 10, 0, 1), rri(Opcode::ADDI, 10, 0, 2)});
    const Report report = lintBlock(block);
    ASSERT_TRUE(report.hasCode(Code::DeadDefSurvives))
        << report.renderText();
    EXPECT_EQ(report.diagnostics()[0].node, 0);
}

TEST(AnalyzeLint, DeadDefSilentWhenRead)
{
    const ImageBlock block = blockOf({rri(Opcode::ADDI, 10, 0, 1),
                                      rrr(Opcode::ADD, 11, 10, 10),
                                      rri(Opcode::ADDI, 10, 0, 2)});
    const Report report = lintBlock(block);
    EXPECT_FALSE(report.hasCode(Code::DeadDefSurvives))
        << report.renderText();
}

TEST(AnalyzeLint, DeadDefSilentForLoads)
{
    // A load def overwritten unread is not flagged: the access itself
    // has architectural meaning (it may fault).
    const ImageBlock block = blockOf(
        {load(Opcode::LW, 10, 2, 0), rri(Opcode::ADDI, 10, 0, 2)});
    const Report report = lintBlock(block);
    EXPECT_FALSE(report.hasCode(Code::DeadDefSurvives))
        << report.renderText();
}

TEST(AnalyzeLint, ForwardingDefeatedByUnknownBase)
{
    // sw 0(r4) then lw 0(r6): distinct base values must be assumed to
    // alias, and run-time disambiguation serializes the pair.
    const ImageBlock block = blockOf(
        {store(Opcode::SW, 10, 4, 0), load(Opcode::LW, 11, 6, 0)});
    const Report report = lintBlock(block);
    EXPECT_TRUE(report.hasCode(Code::ForwardingDefeated))
        << report.renderText();
}

TEST(AnalyzeLint, ForwardingDefeatedByPartialOverlap)
{
    // sb covers one byte of the word the lw reads back.
    const ImageBlock block = blockOf(
        {store(Opcode::SB, 10, 4, 0), load(Opcode::LW, 11, 4, 0)});
    const Report report = lintBlock(block);
    EXPECT_TRUE(report.hasCode(Code::ForwardingDefeated))
        << report.renderText();
}

TEST(AnalyzeLint, ForwardingSatisfiedByFullCoverage)
{
    // Same base value, store fully covers the load: forwarding works.
    const ImageBlock covered = blockOf(
        {store(Opcode::SW, 10, 4, 0), load(Opcode::LW, 11, 4, 0)});
    // And disjoint offsets on one base never alias at all.
    const ImageBlock disjoint = blockOf(
        {store(Opcode::SW, 10, 4, 0), load(Opcode::LW, 11, 4, 8)});
    EXPECT_FALSE(lintBlock(covered).hasCode(Code::ForwardingDefeated));
    EXPECT_FALSE(lintBlock(disjoint).hasCode(Code::ForwardingDefeated));
}

TEST(AnalyzeLint, ForwardingDefeatedWhenBaseRedefinedBetween)
{
    // The base register changes between store and load, so the two
    // accesses use different base values even though rs1 matches.
    const ImageBlock block = blockOf({store(Opcode::SW, 10, 4, 0),
                                      rri(Opcode::ADDI, 4, 4, 16),
                                      load(Opcode::LW, 11, 4, 0)});
    const Report report = lintBlock(block);
    EXPECT_TRUE(report.hasCode(Code::ForwardingDefeated))
        << report.renderText();
}

TEST(AnalyzeLint, UnreachableBlockAndUnusedLabel)
{
    const Program prog = assemble(R"(
main:   j    end
dead:   addi r8, r8, 1
end:    li   v0, 0
        li   a0, 0
        syscall
)");
    const CodeImage image = buildCfg(prog);
    Report report;
    analyze::lintImage(image, report);
    EXPECT_TRUE(report.hasCode(Code::UnreachableBlock))
        << report.renderText();
    EXPECT_TRUE(report.hasCode(Code::UnusedLabel)) << report.renderText();
    // Exactly one unused label: "end" is targeted, "main" is the entry.
    EXPECT_EQ(report.countOf(Code::UnusedLabel), 1u);
}

TEST(AnalyzeLint, ReachableImageIsQuietOnThoseCodes)
{
    const Program prog = assemble(R"(
main:   li   r8, 0
loop:   addi r8, r8, 1
        slti r9, r8, 5
        bnez r9, loop
        li   v0, 0
        li   a0, 0
        syscall
)");
    const CodeImage image = buildCfg(prog);
    Report report;
    analyze::lintImage(image, report);
    EXPECT_FALSE(report.hasCode(Code::UnreachableBlock))
        << report.renderText();
    EXPECT_FALSE(report.hasCode(Code::UnusedLabel)) << report.renderText();
}

TEST(AnalyzeLint, AllFindingsAreWarnings)
{
    const ImageBlock block = blockOf(
        {rri(Opcode::ADDI, 10, 0, 1), rri(Opcode::ADDI, 10, 0, 2)});
    const Report report = lintBlock(block);
    ASSERT_FALSE(report.diagnostics().empty());
    EXPECT_EQ(report.errorCount(), 0u);
}

TEST(AnalyzeLint, AnCodesAreRegistered)
{
    // The AN family registers via verify::registerCodes from the lint's
    // own translation unit — no switch in diag.cc (the registry keeps
    // the verifier families intact alongside).
    EXPECT_EQ(verify::codeId(Code::SerializingFalseDep), "AN001");
    EXPECT_EQ(verify::codeName(Code::UnusedLabel), "unused-label");
    EXPECT_EQ(verify::codeId(Code::BlockIdMismatch), "IMG001");
}

// ---------------------------------------------------------------------------
// Chain audits against a real enlargement.

const Program &
loopProgram()
{
    static const Program prog = assemble(R"(
main:   li   r8, 0
        li   r9, 100
        li   r10, 0
loop:   andi r12, r8, 1
        bnez r12, odd
        addi r10, r10, 1
odd:    addi r8, r8, 1
        blt  r8, r9, loop
        la   r1, out
        sw   r10, 0(r1)
        li   v0, 0
        li   a0, 0
        syscall
        .data
out:    .space 4
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

TEST(AnalyzeChains, AuditCoversEveryBuiltChain)
{
    const Program &prog = loopProgram();
    const CodeImage single = buildCfg(prog);
    const EnlargePlan plan =
        planEnlargement(single, profileOf(prog));
    ASSERT_FALSE(plan.chains.empty());
    const CodeImage enlarged = applyEnlargement(single, plan);

    const std::vector<analyze::ChainAudit> audits =
        analyze::auditChains(single, enlarged, plan);
    ASSERT_FALSE(audits.empty());
    for (const analyze::ChainAudit &audit : audits) {
        EXPECT_GE(audit.members, 2u);
        EXPECT_GT(audit.nodes, 0u);
        EXPECT_GT(audit.fusedHeight, 0);
        EXPECT_GT(audit.memberHeightSum, 0);
    }
    // Sorted by predicted reduction, best first.
    for (std::size_t i = 1; i < audits.size(); ++i)
        EXPECT_GE(audits[i - 1].heightReduction(),
                  audits[i].heightReduction());
}

TEST(AnalyzeChains, HeightRankingHookPreservesTheChainSet)
{
    const Program &prog = loopProgram();
    const CodeImage single = buildCfg(prog);
    const Profile profile = profileOf(prog);

    EnlargeOptions opts;
    opts.auditHook = analyze::heightRankingHook();
    const EnlargePlan ranked = planEnlargement(single, profile, opts);
    const EnlargePlan plain = planEnlargement(single, profile);
    ASSERT_EQ(ranked.chains.size(), plain.chains.size());

    // The hook reorders; it must not invent or corrupt chains — the
    // ranked plan still applies.
    const CodeImage enlarged = applyEnlargement(single, ranked);
    EXPECT_GT(enlarged.blocks.size(), single.blocks.size());
}

// ---------------------------------------------------------------------------
// Static memory disambiguation: the classification lattice on hand-built
// pairs, scratch-register value tracking, scheduler integration, and the
// AN007/AN008 lints.

TEST(AnalyzeDisambig, SameBaseDisjointOffsetsAreNoAlias)
{
    const ImageBlock block = blockOf(
        {store(Opcode::SW, 10, 4, 0), load(Opcode::LW, 11, 4, 8)});
    const analyze::BlockDisambig bd = analyze::disambigBlock(block);
    ASSERT_EQ(bd.pairs.size(), 1u);
    EXPECT_EQ(bd.pairs[0].cls, analyze::AliasClass::NoAlias);
    EXPECT_FALSE(bd.pairs[0].storeStore);
    EXPECT_EQ(bd.noAlias, 1u);
    // The load is no-alias against every store, so it never needs the
    // store queue; the facts carry the packed pair for the scheduler.
    EXPECT_EQ(bd.independentLoads, 1u);
    EXPECT_TRUE(bd.loadIndependent[1]);
    EXPECT_TRUE(bd.facts.independent(0, 1));
}

TEST(AnalyzeDisambig, SameAddressSameWidthIsMustAlias)
{
    const ImageBlock block = blockOf(
        {store(Opcode::SW, 10, 4, 16), load(Opcode::LW, 11, 4, 16)});
    const analyze::BlockDisambig bd = analyze::disambigBlock(block);
    ASSERT_EQ(bd.pairs.size(), 1u);
    EXPECT_EQ(bd.pairs[0].cls, analyze::AliasClass::MustAlias);
    EXPECT_EQ(bd.independentLoads, 0u);
    EXPECT_TRUE(bd.facts.noAliasPairs.empty());
}

TEST(AnalyzeDisambig, UnknownBasesStayMayAlias)
{
    const ImageBlock block = blockOf(
        {store(Opcode::SW, 10, 4, 0), load(Opcode::LW, 11, 6, 0)});
    const analyze::BlockDisambig bd = analyze::disambigBlock(block);
    ASSERT_EQ(bd.pairs.size(), 1u);
    EXPECT_EQ(bd.pairs[0].cls, analyze::AliasClass::MayAlias);
    EXPECT_EQ(bd.independentLoads, 0u);
}

TEST(AnalyzeDisambig, ScratchRegisterTrackingProvesDisjoint)
{
    // r5 = r4 + 8, so 0(r5) and 0..3(r4) are provably disjoint even
    // though the base registers differ — the symbolic walker canonizes
    // both addresses over the same live-in.
    const ImageBlock block = blockOf({rri(Opcode::ADDI, 5, 4, 8),
                                      store(Opcode::SW, 10, 4, 0),
                                      load(Opcode::LW, 11, 5, 0)});
    const analyze::BlockDisambig bd = analyze::disambigBlock(block);
    ASSERT_EQ(bd.pairs.size(), 1u);
    EXPECT_EQ(bd.pairs[0].cls, analyze::AliasClass::NoAlias);
    EXPECT_TRUE(bd.facts.independent(1, 2));
    EXPECT_EQ(bd.independentLoads, 1u);
}

TEST(AnalyzeDisambig, StoreStorePairsAreClassified)
{
    const ImageBlock block = blockOf(
        {store(Opcode::SW, 10, 4, 0), store(Opcode::SW, 11, 4, 0)});
    const analyze::BlockDisambig bd = analyze::disambigBlock(block);
    ASSERT_EQ(bd.pairs.size(), 1u);
    EXPECT_TRUE(bd.pairs[0].storeStore);
    EXPECT_EQ(bd.pairs[0].cls, analyze::AliasClass::MustAlias);
}

TEST(AnalyzeDisambig, LoadPairsAreNotClassified)
{
    // Loads commute; only load/store and store/store pairs matter.
    const ImageBlock block = blockOf(
        {load(Opcode::LW, 10, 4, 0), load(Opcode::LW, 11, 4, 0)});
    const analyze::BlockDisambig bd = analyze::disambigBlock(block);
    EXPECT_TRUE(bd.pairs.empty());
}

TEST(AnalyzeDisambig, SyscallExcludesLoadIndependence)
{
    // The pair classification survives (addresses are unaffected), but
    // no load in a syscall block may bypass the store queue: the
    // syscall writes memory the symbolic store log cannot see.
    ImageBlock block = blockOf(
        {store(Opcode::SW, 10, 4, 0), load(Opcode::LW, 11, 4, 8)});
    block.hasSyscall = true;
    const analyze::BlockDisambig bd = analyze::disambigBlock(block);
    ASSERT_EQ(bd.pairs.size(), 1u);
    EXPECT_EQ(bd.pairs[0].cls, analyze::AliasClass::NoAlias);
    EXPECT_EQ(bd.independentLoads, 0u);
    EXPECT_FALSE(bd.loadIndependent[1]);
}

TEST(AnalyzeDisambig, EmptyFactsScheduleIsBitIdentical)
{
    // The facts plumbing itself must not perturb scheduling: a hook
    // returning no facts yields byte-for-byte the baseline words. This
    // is the FGP_STATIC_DISAMBIG=0 guarantee in unit form.
    const MachineConfig config{Discipline::Static, issueModel(8),
                               memoryConfig('A'), BranchMode::Single};
    CodeImage baseline = buildCfg(loopProgram());
    CodeImage hooked = buildCfg(loopProgram());
    translate(baseline, config);
    TranslateOptions topts;
    topts.disambigHook = [](const ImageBlock &) { return MemDepFacts{}; };
    translate(hooked, config, topts);
    ASSERT_EQ(baseline.blocks.size(), hooked.blocks.size());
    for (std::size_t b = 0; b < baseline.blocks.size(); ++b)
        EXPECT_EQ(baseline.blocks[b].words, hooked.blocks[b].words);
}

TEST(AnalyzeDisambig, FactsHoistLoadAboveIndependentStore)
{
    // The store's data arrives late; the load the facts prove disjoint
    // (through the r5 = r4 + 8 copy the baseline scheduler cannot see
    // through) no longer waits for it.
    const Program prog = assemble(R"(
main:   la   r4, buf
        addi r5, r4, 8
        add  r10, r2, r3
        add  r10, r10, r10
        add  r10, r10, r10
        sw   r10, 0(r4)
        lw   r11, 0(r5)
        li   v0, 0
        li   a0, 0
        syscall
        .data
buf:    .space 16
)");
    const MachineConfig config{Discipline::Static, issueModel(8),
                               memoryConfig('A'), BranchMode::Single};
    CodeImage baseline = buildCfg(prog);
    CodeImage hooked = buildCfg(prog);
    translate(baseline, config);
    TranslateOptions topts;
    topts.disambigHook = analyze::disambigSchedulingHook();
    translate(hooked, config, topts);

    const auto wordOf = [](const ImageBlock &block, std::uint16_t node) {
        for (std::size_t w = 0; w < block.words.size(); ++w)
            for (std::uint16_t idx : block.words[w])
                if (idx == node)
                    return w;
        return block.words.size();
    };
    // Node 6 is the lw; la/addi feed its address in the first words.
    ASSERT_TRUE(baseline.blocks[0].nodes[6].isLoad());
    EXPECT_LT(wordOf(hooked.blocks[0], 6), wordOf(baseline.blocks[0], 6));
}

TEST(AnalyzeDisambig, ImageSummaryCloses)
{
    const MachineConfig config{Discipline::Dyn4, issueModel(8),
                               memoryConfig('A'), BranchMode::Single};
    CodeImage image = buildCfg(loopProgram());
    translate(image, config);
    const analyze::DisambigImage di = analyze::disambigImage(image);
    ASSERT_EQ(di.blocks.size(), image.blocks.size());
    EXPECT_EQ(di.pairsTotal,
              di.noAliasTotal + di.mustAliasTotal + di.mayAliasTotal);
    std::size_t pairs = 0;
    for (const analyze::BlockDisambig &b : di.blocks) {
        pairs += b.pairs.size();
        // issuePos covers a translated block node-for-node.
        EXPECT_EQ(b.issuePos.size(),
                  image.blocks[static_cast<std::size_t>(b.block)]
                      .nodes.size());
    }
    EXPECT_EQ(di.pairsTotal, pairs);
}

TEST(AnalyzeLint, HighMayAliasDensityFires)
{
    // Four unknown bases: all five pairs stay may-alias.
    const ImageBlock block = blockOf(
        {store(Opcode::SW, 10, 4, 0), store(Opcode::SW, 11, 5, 0),
         load(Opcode::LW, 12, 6, 0), load(Opcode::LW, 13, 7, 0)});
    const Report report = lintBlock(block);
    EXPECT_TRUE(report.hasCode(Code::HighMayAliasDensity))
        << report.renderText();
}

TEST(AnalyzeLint, HighMayAliasDensitySilentWhenProven)
{
    // Same shape, one base: every pair is provably disjoint.
    const ImageBlock block = blockOf(
        {store(Opcode::SW, 10, 4, 0), store(Opcode::SW, 11, 4, 8),
         load(Opcode::LW, 12, 4, 16), load(Opcode::LW, 13, 4, 24)});
    const Report report = lintBlock(block);
    EXPECT_FALSE(report.hasCode(Code::HighMayAliasDensity))
        << report.renderText();
}

TEST(AnalyzeLint, HighMayAliasDensityRespectsNoiseFloor)
{
    // One may-alias pair is 100% density but below the pair floor.
    const ImageBlock block = blockOf(
        {store(Opcode::SW, 10, 4, 0), load(Opcode::LW, 11, 6, 0)});
    const Report report = lintBlock(block);
    EXPECT_FALSE(report.hasCode(Code::HighMayAliasDensity))
        << report.renderText();
}

TEST(AnalyzeLint, PackedDisjointPairFires)
{
    ImageBlock block = blockOf(
        {store(Opcode::SW, 10, 4, 0), load(Opcode::LW, 11, 4, 8)});
    block.words = {{0, 1}};
    const Report report = lintBlock(block);
    ASSERT_TRUE(report.hasCode(Code::PackedDisjointPair))
        << report.renderText();
    // The diagnostic anchors on the load.
    EXPECT_EQ(report.diagnostics()[0].node, 1);
}

TEST(AnalyzeLint, PackedDisjointPairSilentAcrossWords)
{
    ImageBlock block = blockOf(
        {store(Opcode::SW, 10, 4, 0), load(Opcode::LW, 11, 4, 8)});
    block.words = {{0}, {1}};
    const Report report = lintBlock(block);
    EXPECT_FALSE(report.hasCode(Code::PackedDisjointPair))
        << report.renderText();
}

TEST(AnalyzeLint, PackedMayAliasPairIsNotFlagged)
{
    // Unproven pairs are the run-time disambiguator's job, not AN008's.
    ImageBlock block = blockOf(
        {store(Opcode::SW, 10, 4, 0), load(Opcode::LW, 11, 6, 0)});
    block.words = {{0, 1}};
    const Report report = lintBlock(block);
    EXPECT_FALSE(report.hasCode(Code::PackedDisjointPair))
        << report.renderText();
}

// ---------------------------------------------------------------------------
// The machine-checked oracle: static bound >= dynamic IPC, every cell.

TEST(AnalyzeSweep, StaticBoundDominatesMeasuredIpc)
{
    ExperimentRunner runner(0.05, kDisambigChecked);
    std::vector<MachineConfig> configs;
    for (int im : {1, 2, 8})
        for (BranchMode bm : {BranchMode::Single, BranchMode::Enlarged})
            configs.push_back(
                {Discipline::Dyn4, issueModel(im), memoryConfig('A'), bm});
    configs.push_back({Discipline::Dyn256, issueModel(8), memoryConfig('G'),
                       BranchMode::Enlarged});

    for (const std::string &workload : workloadNames()) {
        for (const MachineConfig &config : configs) {
            const ExperimentResult r = runner.run(workload, config);
            EXPECT_GT(r.staticIpcBound, 0.0)
                << workload << " " << config.name();
            EXPECT_LE(r.engine.nodesPerCycle(),
                      r.staticIpcBound * (1.0 + 1e-9))
                << workload << " " << config.name() << ": retired "
                << r.engine.nodesPerCycle() << " nodes/cycle vs bound "
                << r.staticIpcBound;
        }
    }
}

// ---------------------------------------------------------------------------
// The disambiguator's own machine-checked soundness proof: with facts
// consumed (scheduling + fast loads) and the retirement cross-check
// armed (kDisambigChecked), every workload on every issue model
// must retire with zero MD001/MD002 violations — the harness panics on
// any, and the counters prove the check actually ran.

TEST(DisambigXcheck, NoAliasFactsSoundOnAllWorkloads)
{
    ExperimentRunner runner(0.05, kDisambigChecked);
    std::uint64_t checked = 0;
    std::size_t workloads_with_fast_loads = 0;
    for (const std::string &workload : workloadNames()) {
        std::uint64_t fast = 0;
        for (const IssueModel &issue : allIssueModels()) {
            const MachineConfig config{Discipline::Dyn256, issue,
                                       memoryConfig('A'),
                                       BranchMode::Enlarged};
            const ExperimentResult r = runner.run(workload, config);
            EXPECT_EQ(r.engine.disambigViolations, 0u)
                << workload << " " << config.name();
            checked += r.engine.disambigCheckedPairs;
            fast += r.engine.disambigFastLoads;
        }
        if (fast > 0)
            ++workloads_with_fast_loads;
    }
    // The cross-check must have exercised real pairs, and the fast path
    // must pay off broadly (the issue's acceptance bar: probes
    // eliminated on at least 3 of the 5 workloads).
    EXPECT_GT(checked, 0u);
    EXPECT_GE(workloads_with_fast_loads, 3u);
}

// ---------------------------------------------------------------------------
// Exact-schedule oracle: unit fixtures, a provable greedy gap, budget
// semantics, lint integration, schedule adoption, and the five-workload
// sandwich height <= oracle <= greedy.

/**
 * Six unit-latency ALU nodes on a 2-ALU machine (issue model 3) where
 * tallest-first greedy provably loses a cycle: 0, 1, 2 are independent
 * roots, 3 and 4 need {0, 2}, 5 needs {1, 2}. Greedy issues the three
 * height-2 roots over two cycles ({0,1} then {2}), leaving all of 3, 4,
 * 5 for cycles 2-3: four cycles total. Optimal issues {0,2}, {1,3},
 * {4,5}: three. Found by exhaustive search over 6-node DAGs.
 */
ImageBlock
gapFixture()
{
    return blockOf({rrr(Opcode::ADD, 10, 1, 2), rrr(Opcode::ADD, 11, 1, 2),
                    rrr(Opcode::ADD, 12, 1, 2), rrr(Opcode::ADD, 13, 10, 12),
                    rrr(Opcode::ADD, 14, 10, 12),
                    rrr(Opcode::ADD, 15, 11, 12)});
}

TEST(AnalyzeOracle, EmptyBlockIsExactZero)
{
    const analyze::BlockOracle r =
        analyze::oracleBlock(blockOf({}), issueModel(8), 1);
    EXPECT_TRUE(r.exact);
    EXPECT_EQ(r.greedyLength, 0);
    EXPECT_EQ(r.lowerBound, 0);
    EXPECT_EQ(r.upperBound, 0);
    EXPECT_EQ(r.gap(), 0);
    EXPECT_TRUE(r.words.empty());
}

TEST(AnalyzeOracle, SingleNodeMakespanIsItsLatency)
{
    const ImageBlock alu = blockOf({rrr(Opcode::ADD, 10, 1, 2)});
    const analyze::BlockOracle ra = analyze::oracleBlock(alu, issueModel(8), 3);
    EXPECT_TRUE(ra.exact);
    EXPECT_EQ(ra.upperBound, 1);
    EXPECT_EQ(ra.greedyLength, 1);

    const ImageBlock mem = blockOf({load(Opcode::LW, 10, 4, 0)});
    const analyze::BlockOracle rm = analyze::oracleBlock(mem, issueModel(8), 3);
    EXPECT_TRUE(rm.exact);
    EXPECT_EQ(rm.height, 3);
    EXPECT_EQ(rm.upperBound, 3);
    EXPECT_EQ(rm.greedyLength, 3);
}

TEST(AnalyzeOracle, GreedyIsOptimalOnAChain)
{
    // A pure dependent chain leaves greedy no choices: oracle == greedy
    // == height, no gap, and no shorter schedule to adopt.
    const ImageBlock block = blockOf(
        {rrr(Opcode::ADD, 10, 1, 2), rrr(Opcode::ADD, 11, 10, 2),
         rrr(Opcode::ADD, 12, 11, 2), rrr(Opcode::ADD, 13, 12, 2)});
    const analyze::BlockOracle r =
        analyze::oracleBlock(block, issueModel(8), 1);
    EXPECT_TRUE(r.exact);
    EXPECT_EQ(r.height, 4);
    EXPECT_EQ(r.upperBound, 4);
    EXPECT_EQ(r.greedyLength, 4);
    EXPECT_EQ(r.gap(), 0);
    EXPECT_TRUE(r.words.empty());
}

TEST(AnalyzeOracle, DetectsGreedyOvershoot)
{
    const analyze::BlockOracle r =
        analyze::oracleBlock(gapFixture(), issueModel(3), 1);
    ASSERT_TRUE(r.exact);
    EXPECT_EQ(r.height, 2);
    EXPECT_EQ(r.greedyLength, 4);
    EXPECT_EQ(r.upperBound, 3);
    EXPECT_EQ(r.lowerBound, 3);
    EXPECT_EQ(r.gap(), 1);

    // The shorter schedule is materialized, packs legally (<= 2 ALU
    // nodes per word), and replays to the claimed makespan.
    ASSERT_FALSE(r.words.empty());
    ImageBlock adopted = gapFixture();
    adopted.words = r.words;
    std::size_t packed = 0;
    for (const Word &word : adopted.words) {
        EXPECT_LE(word.size(), 2u);
        packed += word.size();
    }
    EXPECT_EQ(packed, adopted.nodes.size());
    EXPECT_EQ(analyze::packedMakespan(adopted, 1), 3);
}

TEST(AnalyzeOracle, StateBudgetExhaustionCertifiesInterval)
{
    analyze::OracleOptions opts;
    opts.maxStates = 1;
    const analyze::BlockOracle r =
        analyze::oracleBlock(gapFixture(), issueModel(3), 1, opts);
    EXPECT_FALSE(r.exact);
    EXPECT_GE(r.lowerBound, r.height);
    EXPECT_EQ(r.upperBound, r.greedyLength);
    EXPECT_LE(r.lowerBound, r.upperBound);
    EXPECT_EQ(r.gap(), 0);
    EXPECT_TRUE(r.words.empty());
}

TEST(AnalyzeOracle, NodeBudgetSkipsTheSearch)
{
    analyze::OracleOptions opts;
    opts.maxNodes = 2;
    const analyze::BlockOracle r =
        analyze::oracleBlock(gapFixture(), issueModel(3), 1, opts);
    EXPECT_FALSE(r.exact);
    EXPECT_EQ(r.statesExplored, 0u);
    EXPECT_GE(r.lowerBound, r.height);
    EXPECT_EQ(r.upperBound, r.greedyLength);
}

TEST(AnalyzeOracle, LintGapAndBudgetCodes)
{
    EXPECT_EQ(verify::codeId(Code::GreedyScheduleGap), "AN009");
    EXPECT_EQ(verify::codeId(Code::OracleBudgetExhausted), "AN010");

    CodeImage image;
    image.blocks.push_back(gapFixture());
    image.entryBlock = -1;
    const MachineConfig config{Discipline::Static, issueModel(3),
                               memoryConfig('A'), BranchMode::Single};

    // Exact solve with a 1-cycle threshold: the proven gap fires AN009.
    const analyze::ImageOracle oracle = analyze::oracleImage(image, config);
    analyze::LintOptions lopts;
    lopts.oracle = &oracle;
    lopts.oracleGapCycles = 1;
    lopts.oracleHotNodes = 6;
    Report report;
    analyze::lintImage(image, report, lopts);
    EXPECT_TRUE(report.hasCode(Code::GreedyScheduleGap))
        << report.renderText();
    EXPECT_FALSE(report.hasCode(Code::OracleBudgetExhausted))
        << report.renderText();

    // Default thresholds (gap >= 2, hot >= 16 nodes): the same 1-cycle
    // gap on a small block stays silent.
    Report quiet;
    analyze::LintOptions defaults;
    defaults.oracle = &oracle;
    analyze::lintImage(image, quiet, defaults);
    EXPECT_FALSE(quiet.hasCode(Code::GreedyScheduleGap))
        << quiet.renderText();

    // Budget exhaustion on any block fires AN010 instead.
    analyze::OracleOptions oopts;
    oopts.maxStates = 1;
    const analyze::ImageOracle starved =
        analyze::oracleImage(image, config, oopts);
    analyze::LintOptions slopts;
    slopts.oracle = &starved;
    Report sreport;
    analyze::lintImage(image, sreport, slopts);
    EXPECT_TRUE(sreport.hasCode(Code::OracleBudgetExhausted))
        << sreport.renderText();
}

TEST(AnalyzeOracle, AdoptionHookInstallsTheShorterSchedule)
{
    ImageBlock block = gapFixture();
    scheduleStatic(block, issueModel(3), 1);
    EXPECT_EQ(analyze::packedMakespan(block, 1), 4);

    const auto hook = analyze::oracleAdoptionHook();
    hook(block, issueModel(3), 1, nullptr);
    EXPECT_EQ(analyze::packedMakespan(block, 1), 3);
}

TEST(AnalyzeOracle, AdoptionHookKeepsOptimalGreedySchedules)
{
    // When greedy already matches the oracle the words are untouched —
    // with the hook never installed (the RunOptions::oracleSched default)
    // translation is bit-identical by construction.
    ImageBlock block = blockOf(
        {rrr(Opcode::ADD, 10, 1, 2), rrr(Opcode::ADD, 11, 10, 2),
         rrr(Opcode::ADD, 12, 11, 2)});
    scheduleStatic(block, issueModel(3), 1);
    const std::vector<Word> greedy = block.words;
    const auto hook = analyze::oracleAdoptionHook();
    hook(block, issueModel(3), 1, nullptr);
    EXPECT_EQ(block.words, greedy);
}

TEST(AnalyzeChains, OracleRankingHookPreservesTheChainSet)
{
    const Program &prog = loopProgram();
    const CodeImage single = buildCfg(prog);
    const Profile profile = profileOf(prog);

    EnlargeOptions opts;
    opts.auditHook = analyze::oracleRankingHook(issueModel(8), 1);
    const EnlargePlan ranked = planEnlargement(single, profile, opts);
    const EnlargePlan plain = planEnlargement(single, profile);
    ASSERT_EQ(ranked.chains.size(), plain.chains.size());

    const CodeImage enlarged = applyEnlargement(single, ranked);
    EXPECT_GT(enlarged.blocks.size(), single.blocks.size());
}

TEST(AnalyzeOracle, SandwichHoldsOnAllWorkloads)
{
    // oracleImage() itself asserts height <= upper and upper <= greedy
    // on every block (a violation panics); this re-checks the interval
    // invariants from outside and demands full exactness at the default
    // budget on every workload under three machine shapes.
    const std::vector<std::string> configs = {
        "static/4A/enlarged", "dyn4/8A/enlarged", "static/8A/single"};
    for (const std::string &name : workloadNames()) {
        const Workload workload = makeWorkload(name);
        const Program &prog = workload.program();
        const CodeImage single = buildCfg(prog);

        Profile profile;
        SimOS os;
        workload.prepareOs(os, InputSet::Profile);
        InterpOptions iopts;
        iopts.profile = &profile;
        interpret(prog, os, iopts);

        for (const std::string &cfg : configs) {
            const MachineConfig config = parseMachineConfig(cfg);
            CodeImage image = config.branch == BranchMode::Single
                                  ? buildCfg(prog)
                                  : applyEnlargement(
                                        single,
                                        planEnlargement(single, profile));
            translate(image, config);

            const analyze::ImageOracle oracle =
                analyze::oracleImage(image, config);
            ASSERT_EQ(oracle.blocks.size(), image.blocks.size())
                << name << " " << cfg;
            EXPECT_EQ(oracle.exactBlocks, oracle.blocks.size())
                << name << " " << cfg;
            EXPECT_EQ(oracle.exhaustedBlocks, 0u) << name << " " << cfg;
            EXPECT_LE(oracle.oracleCycles, oracle.greedyCycles)
                << name << " " << cfg;
            for (const analyze::BlockOracle &b : oracle.blocks) {
                EXPECT_LE(b.height, b.upperBound) << name << " " << cfg;
                EXPECT_LE(b.lowerBound, b.upperBound) << name << " " << cfg;
                EXPECT_LE(b.upperBound, b.greedyLength) << name << " " << cfg;
                EXPECT_GE(b.gap(), 0) << name << " " << cfg;
            }
        }
    }
}

} // namespace
} // namespace fgp
