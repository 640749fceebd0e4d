#include "bbe/enlarge.hh"

#include <algorithm>
#include <unordered_map>

#include "base/logging.hh"
#include "verify/postpass.hh"

namespace fgp {

namespace {

/**
 * Junction kind and successor pc when continuing past @p block toward
 * @p next_pc; fatal when @p next_pc is not a legal successor (used by
 * applyEnlargement to validate externally supplied plans).
 */
JunctionKind
junctionToward(const ImageBlock &block, std::int32_t next_pc)
{
    const Node *term = block.terminal();
    if (!term) {
        if (block.fallthroughPc != next_pc)
            fgp_fatal("enlargement plan: block at pc ", block.entryPc,
                      " cannot fall through to pc ", next_pc);
        return JunctionKind::FallThrough;
    }
    if (term->op == Opcode::J) {
        if (term->target != next_pc)
            fgp_fatal("enlargement plan: jump at pc ", term->origPc,
                      " does not target pc ", next_pc);
        return JunctionKind::Uncond;
    }
    if (isConditionalBranch(term->op)) {
        if (term->target == next_pc)
            return JunctionKind::CondHotTaken;
        if (block.fallthroughPc == next_pc)
            return JunctionKind::CondHotFall;
        fgp_fatal("enlargement plan: branch at pc ", term->origPc,
                  " has no arc to pc ", next_pc);
    }
    fgp_fatal("enlargement plan: block at pc ", block.entryPc,
              " ends in ", mnemonic(term->op),
              " and cannot be fused mid-chain");
}

} // namespace

int
condJunctionsFrom(const Chain &chain, std::size_t from)
{
    int count = 0;
    for (std::size_t i = from; i + 1 < chain.size(); ++i)
        if (chain[i].kind == JunctionKind::CondHotTaken ||
            chain[i].kind == JunctionKind::CondHotFall)
            ++count;
    return count;
}

Chain
resolveChain(const CodeImage &single, const EnlargeChain &planned)
{
    if (planned.entryPcs.size() < 2)
        fgp_fatal("enlargement plan: degenerate chain of ",
                  planned.entryPcs.size(), " blocks");
    Chain chain;
    chain.reserve(planned.entryPcs.size());
    for (std::size_t i = 0; i < planned.entryPcs.size(); ++i) {
        const std::int32_t id = single.blockAtPc(planned.entryPcs[i]);
        const ImageBlock &block = single.block(id);
        if (block.hasSyscall)
            fgp_fatal("enlargement plan: block at pc ", block.entryPc,
                      " contains a system call and cannot be fused");
        JunctionKind kind = JunctionKind::End;
        if (i + 1 < planned.entryPcs.size())
            kind = junctionToward(block, planned.entryPcs[i + 1]);
        chain.push_back({id, kind});
    }
    return chain;
}

EnlargePlan
planEnlargement(const CodeImage &single, const Profile &profile,
                const EnlargeOptions &opts)
{
    validateImage(single);

    // ---- rank candidate chain heads by the weight of their hottest arc.
    struct Head
    {
        std::int32_t blockId;
        std::uint64_t weight;
    };
    std::vector<Head> heads;
    for (const ImageBlock &block : single.blocks) {
        if (block.hasSyscall)
            continue;
        const Node *term = block.terminal();
        std::uint64_t weight = 0;
        if (term && isConditionalBranch(term->op)) {
            const auto it = profile.arcs.find(term->origPc);
            if (it != profile.arcs.end())
                weight = it->second.hot();
        } else if (term && term->op == Opcode::J) {
            const auto it = profile.jumps.find(term->origPc);
            if (it != profile.jumps.end())
                weight = it->second;
        } else if (!term && block.fallthroughPc >= 0) {
            weight = 1; // fall-through fusion is free but low priority
        }
        if (weight >= 1)
            heads.push_back({block.id, weight});
    }
    std::sort(heads.begin(), heads.end(), [](const Head &a, const Head &b) {
        if (a.weight != b.weight)
            return a.weight > b.weight;
        return a.blockId < b.blockId;
    });

    std::unordered_map<std::int32_t, int> instances; // orig block -> copies
    std::unordered_map<std::int32_t, bool> is_chain_head;
    EnlargePlan plan;

    for (const Head &head : heads) {
        if (is_chain_head.count(head.blockId))
            continue;

        // ---- grow the chain along dominant arcs.
        Chain chain{{head.blockId, JunctionKind::End}};
        std::int32_t cur = head.blockId;

        while (static_cast<int>(chain.size()) < opts.maxChainLen) {
            const ImageBlock &block = single.block(cur);
            const Node *term = block.terminal();

            JunctionKind kind;
            std::int32_t next_pc;
            if (!term) {
                if (block.fallthroughPc < 0)
                    break;
                kind = JunctionKind::FallThrough;
                next_pc = block.fallthroughPc;
            } else if (term->op == Opcode::J) {
                kind = JunctionKind::Uncond;
                next_pc = term->target;
            } else if (isConditionalBranch(term->op)) {
                const auto it = profile.arcs.find(term->origPc);
                if (it == profile.arcs.end())
                    break;
                const BranchArc &arc = it->second;
                if (arc.total() < opts.minArcCount)
                    break;
                const double ratio = static_cast<double>(arc.hot()) /
                                     static_cast<double>(arc.total());
                if (ratio < opts.minArcRatio)
                    break;
                kind = arc.hotIsTaken() ? JunctionKind::CondHotTaken
                                        : JunctionKind::CondHotFall;
                next_pc = arc.hotIsTaken() ? term->target
                                           : block.fallthroughPc;
            } else {
                break; // JAL / JR stop a chain
            }

            const auto next_it = single.entryByPc.find(next_pc);
            if (next_it == single.entryByPc.end())
                break;
            const ImageBlock &next_block = single.block(next_it->second);
            if (next_block.hasSyscall)
                break;

            // Trial: would instance caps hold if we extend?
            Chain trial = chain;
            trial.back().kind = kind;
            trial.push_back({next_block.id, JunctionKind::End});
            bool fits = true;
            std::unordered_map<std::int32_t, int> trial_copies;
            for (std::size_t j = 0; j < trial.size(); ++j)
                trial_copies[trial[j].blockId] +=
                    1 + condJunctionsFrom(trial, j);
            for (const auto &[id, copies] : trial_copies) {
                if (instances[id] + copies > opts.maxInstances) {
                    fits = false;
                    break;
                }
            }
            if (!fits)
                break;

            chain = std::move(trial);
            cur = next_block.id;
        }

        if (chain.size() < 2)
            continue;

        for (std::size_t j = 0; j < chain.size(); ++j)
            instances[chain[j].blockId] += 1 + condJunctionsFrom(chain, j);
        is_chain_head[head.blockId] = true;

        EnlargeChain planned;
        planned.entryPcs.reserve(chain.size());
        for (const ChainLink &link : chain)
            planned.entryPcs.push_back(single.block(link.blockId).entryPc);
        plan.chains.push_back(std::move(planned));
    }
    if (opts.auditHook)
        opts.auditHook(single, plan);
    return plan;
}

CodeImage
applyEnlargement(const CodeImage &single, const EnlargePlan &plan,
                 EnlargeStats *stats, const EnlargeOptions &opts)
{
    validateImage(single);

    CodeImage out;
    out.prog = single.prog;
    out.blocks = single.blocks;   // originals keep their ids
    out.entryByPc = single.entryByPc;
    out.entryBlock = single.entryBlock;

    EnlargeStats local;
    std::uint64_t total_len = 0;

    for (const EnlargeChain &planned : plan.chains) {
        // Reconstruct block ids and junction kinds from the entry pcs.
        const Chain chain = resolveChain(single, planned);
        const ImageBlock &head_block = single.block(chain.front().blockId);
        if (out.entryByPc.at(head_block.entryPc) != head_block.id)
            fgp_fatal("enlargement plan: two chains start at pc ",
                      head_block.entryPc);

        // ---- build the primary block and its companions. Fault targets
        // point at companion blocks that do not exist yet, so allocate
        // all ids first.
        const auto primary_id = static_cast<std::int32_t>(out.blocks.size());
        std::vector<std::int32_t> companion_id(chain.size(), -1);
        {
            std::int32_t next_id = primary_id + 1;
            for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
                if (chain[i].kind == JunctionKind::CondHotTaken ||
                    chain[i].kind == JunctionKind::CondHotFall)
                    companion_id[i] = next_id++;
            }
        }

        /**
         * Append the nodes of chain member @p i to @p dst, converting an
         * embedded conditional terminal into a fault node.
         */
        auto append_member = [&](ImageBlock &dst, std::size_t i,
                                 bool embed_junction) {
            const ImageBlock &src = single.block(chain[i].blockId);
            const Node *term = src.terminal();
            const std::size_t body =
                term ? src.nodes.size() - 1 : src.nodes.size();
            for (std::size_t k = 0; k < body; ++k)
                dst.nodes.push_back(src.nodes[k]);
            if (!term)
                return;
            if (!embed_junction) {
                dst.nodes.push_back(*term);
                return;
            }
            switch (chain[i].kind) {
              case JunctionKind::Uncond:
                return; // dropped: fall into the next member
              case JunctionKind::CondHotTaken:
              case JunctionKind::CondHotFall: {
                // Fault when the branch leaves the chain.
                Node fault;
                fault.op =
                    chain[i].kind == JunctionKind::CondHotTaken
                        ? branchToFault(invertCondition(term->op))
                        : branchToFault(term->op);
                fault.rs1 = term->rs1;
                fault.rs2 = term->rs2;
                fault.target = companion_id[i];
                fault.origPc = term->origPc;
                dst.nodes.push_back(fault);
                ++local.faultNodes;
                return;
              }
              default:
                fgp_panic("unexpected junction kind");
            }
        };

        ImageBlock primary;
        primary.id = primary_id;
        primary.entryPc = head_block.entryPc;
        primary.enlarged = true;
        primary.chainLen = static_cast<std::int32_t>(chain.size());
        for (std::size_t i = 0; i < chain.size(); ++i)
            append_member(primary, i,
                          /*embed_junction=*/i + 1 < chain.size());
        primary.fallthroughPc =
            single.block(chain.back().blockId).fallthroughPc;
        out.blocks.push_back(std::move(primary));

        for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
            if (companion_id[i] < 0)
                continue;
            ImageBlock comp;
            comp.id = companion_id[i];
            comp.entryPc = head_block.entryPc;
            comp.enlarged = true;
            comp.companion = true;
            comp.chainLen = static_cast<std::int32_t>(i + 1);
            for (std::size_t j = 0; j < i; ++j)
                append_member(comp, j, /*embed_junction=*/true);
            {
                // Member i: its branch goes the COLD way here. Emit a
                // fault on the HOT direction pointing back at the
                // primary (Figure 1: AB and AC fault to each other),
                // then exit unconditionally along the cold arc.
                const ImageBlock &src = single.block(chain[i].blockId);
                const Node *junction = src.terminal();
                fgp_assert(junction && isConditionalBranch(junction->op),
                           "companion junction must be conditional");
                for (std::size_t k = 0; k + 1 < src.nodes.size(); ++k)
                    comp.nodes.push_back(src.nodes[k]);

                Node fault;
                fault.op =
                    chain[i].kind == JunctionKind::CondHotTaken
                        ? branchToFault(junction->op)
                        : branchToFault(invertCondition(junction->op));
                fault.rs1 = junction->rs1;
                fault.rs2 = junction->rs2;
                fault.target = primary_id;
                fault.origPc = junction->origPc;
                comp.nodes.push_back(fault);
                ++local.faultNodes;

                Node exit;
                exit.op = Opcode::J;
                exit.target =
                    chain[i].kind == JunctionKind::CondHotTaken
                        ? single.block(chain[i].blockId).fallthroughPc
                        : junction->target;
                exit.origPc = junction->origPc;
                comp.nodes.push_back(exit);
            }
            comp.fallthroughPc = -1;
            out.blocks.push_back(std::move(comp));
            ++local.companions;
        }

        out.entryByPc[head_block.entryPc] = primary_id;
        ++local.chains;
        total_len += chain.size();
        local.blocksFused += chain.size();
    }

    if (local.chains)
        local.meanChainLen =
            static_cast<double>(total_len) /
            static_cast<double>(local.chains);
    if (stats)
        *stats = local;

    out.entryBlock = out.blockAtPc(single.prog->entry);
    validateImage(out);
    if (opts.verify)
        verify::postEnlargementCheck(single, out, plan, opts.maxInstances);
    return out;
}

CodeImage
enlarge(const CodeImage &single, const Profile &profile,
        const EnlargeOptions &opts, EnlargeStats *stats)
{
    return applyEnlargement(single, planEnlargement(single, profile, opts),
                            stats, opts);
}

} // namespace fgp
