#include "analyze/oracle.hh"

#include <algorithm>
#include <map>

#include "base/logging.hh"
#include "tld/optimizer.hh"
#include "tld/schedule.hh"

namespace fgp::analyze {

namespace {

int
ceilDiv(std::size_t num, int den)
{
    return den > 0 ? static_cast<int>((num + static_cast<std::size_t>(den) -
                                       1) /
                                      static_cast<std::size_t>(den))
                   : 0;
}

/**
 * Branch-and-bound search state for one block. One cycle per recursion
 * level: either issue one maximal word of ready nodes (there is always
 * an optimal schedule whose words are maximal — moving a ready node
 * into an earlier non-full word never delays anything) or, when nothing
 * is ready, jump to the next operand-finish cycle.
 *
 * Dominance memo: the future of a search state depends only on the
 * scheduled-node set and the in-flight finish times *relative to the
 * current cycle* (finished work can never outlast work still pending).
 * Two states with equal keys are therefore equivalent futures, and only
 * the one reached at the earliest absolute cycle can win — the memo
 * stores that cycle and prunes later arrivals.
 */
struct Searcher
{
    const ImageBlock &block;
    const IssueModel &issue;
    const DepGraph &graph;
    int lat;
    std::size_t n;
    std::size_t maxStates;

    std::vector<int> latency;  ///< per node, shared nodeLatency() model
    std::vector<int> height;   ///< remaining critical path incl. own latency

    std::size_t states = 0;
    bool exhausted = false;
    int best;                   ///< tightest upper bound found so far
    std::vector<int> bestIssue; ///< issue cycle per node of the best found

    std::vector<int> issueAt;   ///< current partial schedule (-1 unset)
    std::vector<int> finish;    ///< finish time of scheduled nodes
    std::vector<int> earliest;  ///< operand-ready cycle per node
    std::vector<int> predsLeft;

    std::map<std::vector<std::uint32_t>, int> seen;

    Searcher(const ImageBlock &b, const IssueModel &is, const DepGraph &g,
             int mem_hit_latency, std::size_t max_states, int upper)
        : block(b), issue(is), graph(g), lat(mem_hit_latency),
          n(b.nodes.size()), maxStates(max_states), best(upper)
    {
        latency.resize(n);
        height.assign(n, 0);
        for (std::size_t i = n; i-- > 0;) {
            latency[i] = nodeLatency(block.nodes[i], lat);
            for (std::uint16_t succ : graph.succs[i])
                height[i] = std::max(height[i], latency[i] + height[succ]);
            height[i] = std::max(height[i], latency[i]);
        }
        issueAt.assign(n, -1);
        finish.assign(n, 0);
        earliest.assign(n, 0);
        predsLeft.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            predsLeft[i] = static_cast<int>(graph.preds[i].size());
    }

    bool nodeFits(std::size_t i, int mem_free, int alu_free) const
    {
        if (issue.sequential)
            return mem_free + alu_free > 0;
        return block.nodes[i].isMem() ? mem_free > 0 : alu_free > 0;
    }

    /** Sound lower bound on the makespan of any completion of @p mask. */
    int remainingBound(std::uint64_t mask, int cycle, int finish_max) const
    {
        int bound = finish_max;
        std::size_t rem = 0;
        std::size_t rem_mem = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (mask & (1ULL << i))
                continue;
            ++rem;
            if (block.nodes[i].isMem())
                ++rem_mem;
            const int start = std::max(earliest[i], cycle);
            bound = std::max(bound, start + height[i]);
        }
        if (rem) {
            int slots;
            if (issue.sequential) {
                slots = static_cast<int>(rem);
            } else {
                slots = std::max(
                    {ceilDiv(rem_mem, issue.memSlots),
                     ceilDiv(rem - rem_mem, issue.aluSlots),
                     ceilDiv(rem, issue.width())});
            }
            bound = std::max(bound, cycle + slots);
        }
        return bound;
    }

    void dfs(std::uint64_t mask, int cycle, std::size_t done,
             int finish_max)
    {
        if (exhausted)
            return;
        if (done == n) {
            if (finish_max < best) {
                best = finish_max;
                bestIssue = issueAt;
            }
            return;
        }
        if (++states > maxStates) {
            exhausted = true;
            return;
        }
        if (remainingBound(mask, cycle, finish_max) >= best)
            return;

        // Dominance memo (see struct comment).
        std::vector<std::uint32_t> key;
        key.reserve(4 + n);
        key.push_back(static_cast<std::uint32_t>(mask));
        key.push_back(static_cast<std::uint32_t>(mask >> 32));
        for (std::size_t i = 0; i < n; ++i) {
            if (!(mask & (1ULL << i)) || finish[i] <= cycle)
                continue;
            const auto delta =
                static_cast<std::uint32_t>(finish[i] - cycle);
            key.push_back((static_cast<std::uint32_t>(i) << 16) | delta);
        }
        const auto [it, inserted] = seen.emplace(std::move(key), cycle);
        if (!inserted) {
            if (it->second <= cycle)
                return;
            it->second = cycle;
        }

        // Ready nodes at this cycle, tallest first so the greedy-shaped
        // branch is explored (and prunes) first.
        std::vector<std::uint16_t> ready;
        int next_cycle = -1;
        for (std::size_t i = 0; i < n; ++i) {
            if ((mask & (1ULL << i)) || predsLeft[i] != 0)
                continue;
            if (earliest[i] <= cycle) {
                ready.push_back(static_cast<std::uint16_t>(i));
            } else if (next_cycle < 0 || earliest[i] < next_cycle) {
                next_cycle = earliest[i];
            }
        }
        if (ready.empty()) {
            fgp_assert(next_cycle > cycle,
                       "oracle search stuck with no ready nodes");
            dfs(mask, next_cycle, done, finish_max);
            return;
        }
        std::sort(ready.begin(), ready.end(),
                  [&](std::uint16_t a, std::uint16_t b) {
                      if (height[a] != height[b])
                          return height[a] > height[b];
                      return a < b;
                  });

        const int mem0 = issue.sequential ? 1 : issue.memSlots;
        const int alu0 = issue.sequential ? 0 : issue.aluSlots;
        std::vector<std::uint16_t> word;
        chooseWord(ready, 0, word, mem0, alu0, mask, cycle, done,
                   finish_max);
    }

    /**
     * Enumerate the maximal ready-subsets fitting one issue word and
     * branch on each. @p mem_free / @p alu_free are the remaining slot
     * budgets (for sequential models the pair encodes "one node total").
     */
    void chooseWord(const std::vector<std::uint16_t> &ready,
                    std::size_t pos, std::vector<std::uint16_t> &word,
                    int mem_free, int alu_free, std::uint64_t mask,
                    int cycle, std::size_t done, int finish_max)
    {
        if (exhausted)
            return;
        if (pos == ready.size()) {
            if (word.empty())
                return;
            // Maximality: every ready node left out must genuinely not
            // fit, else a strictly better word exists and covers this one.
            for (std::uint16_t i : ready) {
                if (std::find(word.begin(), word.end(), i) == word.end() &&
                    nodeFits(i, mem_free, alu_free))
                    return;
            }
            issueWord(word, mask, cycle, done, finish_max);
            return;
        }

        const std::uint16_t idx = ready[pos];
        const bool fits = nodeFits(idx, mem_free, alu_free);
        if (fits) {
            int mem_next = mem_free;
            int alu_next = alu_free;
            if (issue.sequential) {
                mem_next = 0;
                alu_next = 0;
            } else if (block.nodes[idx].isMem()) {
                --mem_next;
            } else {
                --alu_next;
            }
            word.push_back(idx);
            chooseWord(ready, pos + 1, word, mem_next, alu_next, mask,
                       cycle, done, finish_max);
            word.pop_back();
        }
        chooseWord(ready, pos + 1, word, mem_free, alu_free, mask, cycle,
                   done, finish_max);
    }

    void issueWord(const std::vector<std::uint16_t> &word,
                   std::uint64_t mask, int cycle, std::size_t done,
                   int finish_max)
    {
        std::uint64_t mask_next = mask;
        int finish_next = finish_max;
        for (std::uint16_t idx : word) {
            mask_next |= 1ULL << idx;
            issueAt[idx] = cycle;
            finish[idx] = cycle + latency[idx];
            finish_next = std::max(finish_next, finish[idx]);
            for (std::uint16_t succ : graph.succs[idx]) {
                earliest[succ] = std::max(earliest[succ], finish[idx]);
                --predsLeft[succ];
            }
        }

        dfs(mask_next, cycle + 1, done + word.size(), finish_next);

        // Undo: clear the whole word's marks first, then rebuild each
        // touched successor's ready time from the preds still scheduled.
        for (std::uint16_t idx : word)
            issueAt[idx] = -1;
        for (std::uint16_t idx : word) {
            for (std::uint16_t succ : graph.succs[idx]) {
                ++predsLeft[succ];
                int e = 0;
                for (std::uint16_t p : graph.preds[succ])
                    if (issueAt[p] >= 0)
                        e = std::max(e, finish[p]);
                earliest[succ] = e;
            }
        }
    }
};

/** Flatten a per-node issue-cycle assignment into dense words. */
std::vector<Word>
wordsFromIssue(const std::vector<int> &issue_at)
{
    int last = -1;
    for (int c : issue_at)
        last = std::max(last, c);
    std::vector<Word> by_cycle(static_cast<std::size_t>(last + 1));
    for (std::size_t i = 0; i < issue_at.size(); ++i)
        by_cycle[static_cast<std::size_t>(issue_at[i])].push_back(
            static_cast<std::uint16_t>(i));
    std::vector<Word> words;
    for (Word &word : by_cycle) {
        if (word.empty())
            continue;
        std::sort(word.begin(), word.end());
        words.push_back(std::move(word));
    }
    return words;
}

/**
 * Greedy baseline makespan. Always re-schedules a copy with
 * scheduleStatic, never trusting the block's existing words: a
 * dynamically packed image (packDynamic) carries words that intra-word
 * forwarding makes shorter than any legal static schedule, which would
 * put the "greedy" side of the sandwich below the true optimum. For
 * statically scheduled images the copy reproduces the existing words
 * bit-identically (the scheduler is deterministic), so nothing changes.
 */
int
greedyMakespan(const ImageBlock &block, const IssueModel &issue,
               int mem_hit_latency, const MemDepFacts *facts)
{
    ImageBlock copy = block;
    scheduleStatic(copy, issue, mem_hit_latency, facts);
    return packedMakespan(copy, mem_hit_latency, facts);
}

} // namespace

int
packedMakespan(const ImageBlock &block, int mem_hit_latency,
               const MemDepFacts *facts)
{
    if (block.words.empty())
        return 0;
    const DepGraph graph =
        buildDepGraph(block, /*with_antideps=*/true, facts);

    std::vector<int> word_of(block.nodes.size(), -1);
    for (std::size_t w = 0; w < block.words.size(); ++w)
        for (std::uint16_t idx : block.words[w])
            word_of[idx] = static_cast<int>(w);

    std::vector<int> finish(block.nodes.size(), 0);
    int makespan = 0;
    int cycle = -1;
    for (std::size_t w = 0; w < block.words.size(); ++w) {
        int ready = cycle + 1;
        for (std::uint16_t idx : block.words[w])
            for (std::uint16_t p : graph.preds[idx])
                if (word_of[p] >= 0 &&
                    word_of[p] < static_cast<int>(w))
                    ready = std::max(ready, finish[p]);
        cycle = ready;
        for (std::uint16_t idx : block.words[w]) {
            finish[idx] =
                cycle + nodeLatency(block.nodes[idx], mem_hit_latency);
            makespan = std::max(makespan, finish[idx]);
        }
    }
    return makespan;
}

BlockOracle
oracleBlock(const ImageBlock &block, const IssueModel &issue,
            int mem_hit_latency, const OracleOptions &opts,
            const MemDepFacts *facts)
{
    BlockOracle out;
    out.block = block.id;
    out.entryPc = block.entryPc;
    out.enlarged = block.enlarged;
    out.nodes = block.nodes.size();
    if (out.nodes == 0) {
        out.exact = true;
        return out;
    }

    const DepGraph graph =
        buildDepGraph(block, /*with_antideps=*/true, facts);
    Searcher search(block, issue, graph, mem_hit_latency, opts.maxStates,
                    0);
    for (std::size_t i = 0; i < out.nodes; ++i)
        out.height = std::max(out.height, search.height[i]);
    out.greedyLength =
        greedyMakespan(block, issue, mem_hit_latency, facts);

    // Certified floor independent of the search: the critical path and
    // the slot-count ceilings (analyze::resourceCycles' shape).
    const int floor =
        search.remainingBound(/*mask=*/0, /*cycle=*/0, /*finish_max=*/0);

    if (out.nodes > opts.maxNodes || opts.maxStates == 0) {
        out.lowerBound = floor;
        out.upperBound = out.greedyLength;
        out.exact = out.lowerBound == out.upperBound;
        return out;
    }

    search.best = out.greedyLength;
    search.dfs(/*mask=*/0, /*cycle=*/0, /*done=*/0, /*finish_max=*/0);

    out.statesExplored = search.states;
    out.upperBound = search.best; // any found schedule is a valid ceiling
    if (search.exhausted) {
        out.lowerBound = std::min(floor, out.upperBound);
        out.exact = out.lowerBound == out.upperBound;
    } else {
        out.lowerBound = search.best;
        out.exact = true;
    }
    if (out.exact && out.upperBound < out.greedyLength &&
        !search.bestIssue.empty())
        out.words = wordsFromIssue(search.bestIssue);
    return out;
}

ImageOracle
oracleImage(const CodeImage &image, const MachineConfig &config,
            const OracleOptions &opts)
{
    ImageOracle out;
    out.blocks.reserve(image.blocks.size());
    for (const ImageBlock &block : image.blocks) {
        BlockOracle b =
            oracleBlock(block, config.issue, config.memory.hitLatency,
                        opts);
        fgp_assert(b.height <= b.upperBound || b.nodes == 0,
                   "oracle sandwich violated: height above upper bound");
        fgp_assert(b.upperBound <= b.greedyLength || b.nodes == 0,
                   "oracle sandwich violated: bound above greedy");
        out.exactBlocks += b.exact;
        out.exhaustedBlocks += !b.exact;
        out.greedyCycles += b.greedyLength;
        out.oracleCycles += b.upperBound;
        out.maxGap = std::max(out.maxGap, b.gap());
        out.blocks.push_back(std::move(b));
    }
    return out;
}

std::function<void(ImageBlock &, const IssueModel &, int,
                   const MemDepFacts *)>
oracleAdoptionHook(const OracleOptions &opts)
{
    return [hook_opts = opts](ImageBlock &block, const IssueModel &issue,
                       int mem_hit_latency, const MemDepFacts *facts) {
        if (block.nodes.size() > hook_opts.adoptMaxNodes)
            return;
        const BlockOracle oracle =
            oracleBlock(block, issue, mem_hit_latency, hook_opts, facts);
        if (oracle.words.empty())
            return; // greedy already optimal, or budget exhausted
        ImageBlock candidate = block;
        candidate.words = oracle.words;
        // The oracle schedules against the same DAG and packing rules,
        // so this can only fail if the search itself is buggy — keep the
        // greedy schedule rather than ship an unsound word layout.
        if (!wordsRespectModel(candidate, issue, facts))
            return;
        block.words = std::move(candidate.words);
    };
}

PlanAuditHook
oracleRankingHook(const IssueModel &issue, int mem_hit_latency,
                  const OracleOptions &opts)
{
    return [issue, mem_hit_latency, opts](const CodeImage &single,
                                          EnlargePlan &plan) {
        if (plan.empty())
            return;
        const CodeImage enlarged = applyEnlargement(single, plan);

        // Member upper bounds are reused across chains (loops repeat
        // blocks) — mirrors heightRankingHook's member-height cache.
        std::vector<int> member_len(single.blocks.size(), -1);
        auto member_bound = [&](std::int32_t id) {
            int &len = member_len[static_cast<std::size_t>(id)];
            if (len < 0)
                len = oracleBlock(single.block(id), issue,
                                  mem_hit_latency, opts)
                          .upperBound;
            return len;
        };

        struct Ranked
        {
            std::size_t chainIndex;
            int reduction;
        };
        std::vector<Ranked> ranked;
        for (std::size_t c = 0; c < plan.chains.size(); ++c) {
            const EnlargeChain &planned = plan.chains[c];
            if (planned.entryPcs.empty())
                continue;
            const auto it =
                enlarged.entryByPc.find(planned.entryPcs.front());
            if (it == enlarged.entryByPc.end())
                continue;
            const ImageBlock &primary = enlarged.block(it->second);
            if (!primary.enlarged || primary.companion)
                continue;

            int member_sum = 0;
            for (const ChainLink &link : resolveChain(single, planned))
                member_sum += member_bound(link.blockId);

            ImageBlock fused = primary;
            optimizeBlock(fused);
            const int fused_len =
                oracleBlock(fused, issue, mem_hit_latency, opts)
                    .upperBound;
            ranked.push_back({c, member_sum - fused_len});
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const Ranked &a, const Ranked &b) {
                      if (a.reduction != b.reduction)
                          return a.reduction > b.reduction;
                      return a.chainIndex < b.chainIndex;
                  });

        std::vector<bool> placed(plan.chains.size(), false);
        std::vector<EnlargeChain> ordered;
        ordered.reserve(plan.chains.size());
        for (const Ranked &r : ranked) {
            ordered.push_back(std::move(plan.chains[r.chainIndex]));
            placed[r.chainIndex] = true;
        }
        for (std::size_t c = 0; c < plan.chains.size(); ++c)
            if (!placed[c])
                ordered.push_back(std::move(plan.chains[c]));
        plan.chains = std::move(ordered);
    };
}

} // namespace fgp::analyze
