#include "analyze/analyze.hh"

#include <algorithm>
#include <array>

#include "arch/config.hh"
#include "base/logging.hh"
#include "bbe/enlarge.hh"
#include "tld/depgraph.hh"
#include "tld/optimizer.hh"

namespace fgp::analyze {

namespace {

// nodeLatency comes from tld/depgraph.hh: one latency model shared with
// the greedy scheduler and the exact-schedule oracle.

/** Latency-weighted critical path (max finish time) of @p graph. */
int
criticalPath(const ImageBlock &block, const DepGraph &graph,
             int mem_hit_latency)
{
    int longest = 0;
    std::vector<int> finish(graph.size(), 0);
    // Nodes are in translated order, so every edge points forward and a
    // single left-to-right sweep visits predecessors first.
    for (std::size_t i = 0; i < graph.size(); ++i) {
        int start = 0;
        for (std::uint16_t p : graph.preds[i])
            start = std::max(start, finish[p]);
        finish[i] = start + nodeLatency(block.nodes[i], mem_hit_latency);
        longest = std::max(longest, finish[i]);
    }
    return longest;
}

/** Add the renamer-proof WAR edges of residualWars() to @p graph. */
void
addResidualAntideps(const ImageBlock &block, DepGraph &graph)
{
    for (const ResidualWar &war : residualWars(block)) {
        auto &preds = graph.preds[war.def];
        if (std::find(preds.begin(), preds.end(), war.reader) ==
            preds.end()) {
            preds.push_back(war.reader);
            graph.succs[war.reader].push_back(war.def);
        }
    }
}

int
ceilDiv(std::size_t num, int den)
{
    return den > 0 ? static_cast<int>((num + static_cast<std::size_t>(den) -
                                       1) /
                                      static_cast<std::size_t>(den))
                   : 0;
}

/** Minimum cycles block @p b needs under issue shape @p issue. */
int
resourceCycles(const BlockBounds &b, const IssueModel &issue)
{
    int cycles = b.critPath;
    if (issue.sequential) {
        cycles = std::max(cycles, static_cast<int>(b.nodes));
    } else {
        cycles = std::max(cycles, ceilDiv(b.memNodes, issue.memSlots));
        cycles = std::max(cycles, ceilDiv(b.aluNodes, issue.aluSlots));
        cycles = std::max(cycles, ceilDiv(b.nodes, issue.width()));
    }
    return cycles;
}

} // namespace

int
dependenceHeight(const ImageBlock &block, int mem_hit_latency)
{
    return criticalPath(block, buildDepGraph(block, /*with_antideps=*/false),
                        mem_hit_latency);
}

int
residualHeight(const ImageBlock &block, int mem_hit_latency)
{
    DepGraph graph = buildDepGraph(block, /*with_antideps=*/false);
    addResidualAntideps(block, graph);
    return criticalPath(block, graph, mem_hit_latency);
}

std::vector<ResidualWar>
residualWars(const ImageBlock &block)
{
    // A WAR edge survives both hardware renaming and tld local renaming
    // (which renames all-but-last definitions onto scratch) only when it
    // runs from a read of the live-in register value to that register's
    // final in-block definition.
    std::array<std::int32_t, kNumRegs> first_def;
    std::array<std::int32_t, kNumRegs> last_def;
    first_def.fill(-1);
    last_def.fill(-1);
    std::vector<std::vector<std::uint16_t>> livein_readers(kNumRegs);

    for (std::size_t i = 0; i < block.nodes.size(); ++i) {
        const Node &node = block.nodes[i];
        std::array<std::uint8_t, 5> srcs;
        const int nsrc = node.srcRegs(srcs);
        for (int s = 0; s < nsrc; ++s) {
            const std::uint8_t reg = srcs[s];
            if (reg == kRegNone || reg == kRegZero)
                continue;
            if (first_def[reg] < 0)
                livein_readers[reg].push_back(static_cast<std::uint16_t>(i));
        }
        const std::uint8_t dst = node.dstReg();
        if (dst != kRegNone && dst != kRegZero) {
            if (first_def[dst] < 0)
                first_def[dst] = static_cast<std::int32_t>(i);
            last_def[dst] = static_cast<std::int32_t>(i);
        }
    }

    std::vector<ResidualWar> wars;
    for (std::size_t reg = 0; reg < kNumRegs; ++reg) {
        if (last_def[reg] < 0)
            continue;
        const auto def = static_cast<std::uint16_t>(last_def[reg]);
        for (std::uint16_t reader : livein_readers[reg]) {
            if (reader == def)
                continue;
            wars.push_back({static_cast<std::uint8_t>(reg), reader, def});
        }
    }
    return wars;
}

ImageAnalysis
analyzeImage(const CodeImage &image, int mem_hit_latency)
{
    ImageAnalysis out;
    out.blocks.reserve(image.blocks.size());

    long long height_sum = 0;
    for (const ImageBlock &block : image.blocks) {
        BlockBounds b;
        b.block = block.id;
        b.entryPc = block.entryPc;
        b.enlarged = block.enlarged;
        b.companion = block.companion;
        b.chainLen = block.chainLen;
        b.nodes = block.nodes.size();
        for (const Node &node : block.nodes) {
            if (node.isMem())
                ++b.memNodes;
            else
                ++b.aluNodes;
        }

        DepGraph graph = buildDepGraph(block, /*with_antideps=*/false);
        b.critPath = criticalPath(block, graph, mem_hit_latency);
        addResidualAntideps(block, graph);
        b.critPathResidual = criticalPath(block, graph, mem_hit_latency);
        b.dataflowBound =
            b.critPath > 0 ? static_cast<double>(b.nodes) /
                                 static_cast<double>(b.critPath)
                           : 0.0;
        b.words = block.words.size();
        b.packedBound =
            b.words > 0 ? static_cast<double>(b.nodes) /
                              static_cast<double>(b.words)
                        : 0.0;

        out.totalNodes += b.nodes;
        out.enlargedBlocks += block.enlarged && !block.companion;
        out.companionBlocks += block.companion;
        out.heightHist.add(static_cast<std::uint64_t>(b.critPath));
        height_sum += b.critPath;
        out.critPathMax = std::max(out.critPathMax, b.critPath);
        out.dataflowBound = std::max(out.dataflowBound, b.dataflowBound);
        out.staticIpcBound = std::max(out.staticIpcBound, b.packedBound);
        out.blocks.push_back(std::move(b));
    }
    out.meanHeight =
        out.blocks.empty()
            ? 0.0
            : static_cast<double>(height_sum) /
                  static_cast<double>(out.blocks.size());

    for (const IssueModel &issue : allIssueModels()) {
        ResourceBound rb;
        rb.issueIndex = issue.index;
        rb.width = issue.width();
        for (const BlockBounds &b : out.blocks) {
            const int cycles = resourceCycles(b, issue);
            if (cycles > 0)
                rb.bound = std::max(rb.bound,
                                    static_cast<double>(b.nodes) /
                                        static_cast<double>(cycles));
        }
        out.resourceBounds.push_back(rb);
    }
    return out;
}

double
staticIpcBound(const CodeImage &image)
{
    double bound = 0.0;
    for (const ImageBlock &block : image.blocks) {
        if (block.words.empty())
            continue;
        bound = std::max(bound, static_cast<double>(block.nodes.size()) /
                                    static_cast<double>(block.words.size()));
    }
    return bound;
}

std::vector<ChainAudit>
auditChains(const CodeImage &single, const CodeImage &enlarged,
            const EnlargePlan &plan, int mem_hit_latency)
{
    // Member heights are reused across chains (loops repeat blocks).
    std::vector<int> height_of(single.blocks.size(), -1);
    auto member_height = [&](std::int32_t id) {
        int &h = height_of[static_cast<std::size_t>(id)];
        if (h < 0) {
            const ImageBlock &block = single.block(id);
            h = criticalPath(block, buildDepGraph(block, false),
                             mem_hit_latency);
        }
        return h;
    };

    std::vector<ChainAudit> audits;
    for (std::size_t c = 0; c < plan.chains.size(); ++c) {
        const EnlargeChain &planned = plan.chains[c];
        if (planned.entryPcs.empty())
            continue;
        const Chain chain = resolveChain(single, planned);

        // Locate the primary this chain produced. A chain whose head pc
        // was consumed by an earlier chain built no block — skip it, the
        // builder did too.
        const auto it = enlarged.entryByPc.find(planned.entryPcs.front());
        if (it == enlarged.entryByPc.end())
            continue;
        const ImageBlock &primary = enlarged.block(it->second);
        if (!primary.enlarged || primary.companion ||
            primary.chainLen != static_cast<std::int32_t>(chain.size()))
            continue;

        ChainAudit audit;
        audit.chainIndex = c;
        audit.entryPc = planned.entryPcs.front();
        audit.members = chain.size();
        audit.primaryBlock = primary.id;
        audit.nodes = primary.nodes.size();
        for (const ChainLink &link : chain)
            audit.memberHeightSum += member_height(link.blockId);

        // Re-optimize a copy the way the translating loader will, then
        // measure the fused dependence height.
        ImageBlock fused = primary;
        optimizeBlock(fused);
        audit.fusedHeight =
            criticalPath(fused, buildDepGraph(fused, false),
                         mem_hit_latency);
        audits.push_back(std::move(audit));
    }

    std::sort(audits.begin(), audits.end(),
              [](const ChainAudit &a, const ChainAudit &b) {
                  if (a.heightReduction() != b.heightReduction())
                      return a.heightReduction() > b.heightReduction();
                  return a.chainIndex < b.chainIndex;
              });
    return audits;
}

PlanAuditHook
heightRankingHook(int mem_hit_latency)
{
    return [mem_hit_latency](const CodeImage &single, EnlargePlan &plan) {
        if (plan.empty())
            return;
        const CodeImage enlarged = applyEnlargement(single, plan);
        const std::vector<ChainAudit> audits =
            auditChains(single, enlarged, plan, mem_hit_latency);

        // Audited chains in ranked order first; chains the builder
        // skipped (head consumed by an earlier chain) keep their
        // relative order at the back.
        std::vector<bool> placed(plan.chains.size(), false);
        std::vector<EnlargeChain> ordered;
        ordered.reserve(plan.chains.size());
        for (const ChainAudit &audit : audits) {
            ordered.push_back(std::move(plan.chains[audit.chainIndex]));
            placed[audit.chainIndex] = true;
        }
        for (std::size_t c = 0; c < plan.chains.size(); ++c)
            if (!placed[c])
                ordered.push_back(std::move(plan.chains[c]));
        plan.chains = std::move(ordered);
    };
}

} // namespace fgp::analyze
