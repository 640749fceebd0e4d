#include "analyze/disambig.hh"

#include <algorithm>
#include <array>

#include "base/logging.hh"
#include "verify/diag.hh"
#include "verify/symexpr.hh"
#include "vm/exec.hh"

namespace fgp::analyze {

namespace {

namespace sym = verify::sym;
using sym::ExprId;

[[maybe_unused]] const bool g_codes_registered = [] {
    verify::registerCodes({
        {verify::Code::NoAliasViolated, {"MD001", "no-alias-violated"}},
        {verify::Code::DisambigFactsStale, {"MD002", "disambig-facts-stale"}},
    });
    return true;
}();

/**
 * True when every node can be evaluated symbolically (known opcode, real
 * registers behind every used field). Blocks failing this are already
 * rejected by the structural verifier; the disambiguator just declines
 * to prove anything about them, which is always sound.
 */
bool
operandsEvaluable(const std::vector<Node> &nodes)
{
    const auto bad = [](std::uint8_t reg) {
        return reg == kRegNone || reg >= kNumRegs;
    };
    for (const Node &node : nodes) {
        if (node.op >= Opcode::NUM_OPCODES)
            return false;
        const OperandUse use = operandUse(opcodeInfo(node.op).form);
        if ((use.rd && bad(node.rd)) || (use.rs1 && bad(node.rs1)) ||
            (use.rs2 && bad(node.rs2)))
            return false;
    }
    return true;
}

/** One memory access with its canonical symbolic address. */
struct MemRef
{
    std::uint16_t node;
    bool isStore;
    ExprId addr;
    std::uint32_t len;
};

/**
 * Symbolic register-state walker: a reduced SymState (verify/equiv.cc)
 * that only needs values, not effect summaries. The store log replays
 * equiv.cc's loadValue rule — forwarding on exact match, version bumps
 * past possible conflicts — so two loads of an unclobbered address
 * intern to the same expression and stay usable as bases.
 */
class AddrWalker
{
  public:
    explicit AddrWalker(sym::Arena &arena) : arena_(arena)
    {
        for (std::uint8_t r = 0; r < kNumRegs; ++r)
            regs_[r] = arena.init(r);
        regs_[kRegZero] = arena.constant(0);
    }

    /** Evaluate node @p i; appends to @p refs when it accesses memory. */
    void
    evalNode(const Node &node, std::uint16_t i, std::vector<MemRef> &refs)
    {
        switch (node.cls()) {
          case NodeClass::IntAlu:
            write(node.dstReg(), aluValue(node));
            return;
          case NodeClass::Mem: {
            const ExprId addr = arena_.makeAlu(
                Opcode::ADD, read(node.rs1),
                arena_.constant(static_cast<std::uint32_t>(node.imm)));
            const std::uint32_t len = accessBytes(node.op);
            refs.push_back({i, node.isStore(), addr, len});
            if (node.isLoad()) {
                write(node.rd, loadValue(node.op, addr));
            } else {
                log_.push_back(
                    {node.op, addr, read(node.rs2), ++memVersion_, false});
            }
            return;
          }
          case NodeClass::Sys:
            write(kRegV0, arena_.opaque(node.origPc, opaqueSerial_++));
            log_.push_back({node.op, -1, -1, ++memVersion_, true});
            return;
          case NodeClass::Fault:
            return; // reads only
          case NodeClass::Control:
            if (node.op == Opcode::JAL)
                write(node.rd,
                      arena_.constant(
                          static_cast<std::uint32_t>(node.origPc + 1)));
            return;
        }
    }

  private:
    ExprId
    read(std::uint8_t reg) const
    {
        fgp_assert(reg != kRegNone && reg < kNumRegs,
                   "symbolic read of bad register");
        return regs_[reg];
    }

    void
    write(std::uint8_t reg, ExprId value)
    {
        if (reg != kRegNone && reg != kRegZero && reg < kNumRegs)
            regs_[reg] = value;
    }

    ExprId
    aluValue(const Node &node)
    {
        switch (opcodeInfo(node.op).form) {
          case OperandForm::RRR:
            return arena_.makeAlu(node.op, read(node.rs1), read(node.rs2));
          case OperandForm::RRI:
            return arena_.makeAlu(
                sym::rriRoot(node.op), read(node.rs1),
                arena_.constant(static_cast<std::uint32_t>(node.imm)));
          case OperandForm::RI: // LUI: value depends only on the immediate
            return arena_.constant(evalAlu(node, 0, 0));
          default:
            fgp_panic("aluValue on ", mnemonic(node.op));
        }
    }

    ExprId
    loadValue(Opcode op, ExprId addr)
    {
        for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
            if (it->barrier)
                return arena_.load(op, addr, it->versionAfter);
            if (it->addr == addr && it->op == Opcode::SW && op == Opcode::LW)
                return it->value; // store-to-load forwarding
            if (sym::definitelyDisjoint(arena_, addr, accessBytes(op),
                                        it->addr, accessBytes(it->op)))
                continue;
            return arena_.load(op, addr, it->versionAfter);
        }
        return arena_.load(op, addr, 0);
    }

    struct StoreRec
    {
        Opcode op;
        ExprId addr;
        ExprId value;
        std::int32_t versionAfter;
        bool barrier;
    };

    sym::Arena &arena_;
    std::array<ExprId, kNumRegs> regs_{};
    std::vector<StoreRec> log_;
    std::int32_t memVersion_ = 0;
    std::uint32_t opaqueSerial_ = 0;
};

} // namespace

std::string_view
aliasClassName(AliasClass cls)
{
    switch (cls) {
      case AliasClass::NoAlias: return "no-alias";
      case AliasClass::MustAlias: return "must-alias";
      case AliasClass::MayAlias: return "may-alias";
    }
    return "?";
}

BlockDisambig
disambigBlock(const ImageBlock &block)
{
    BlockDisambig out;
    out.block = block.id;
    out.entryPc = block.entryPc;
    out.enlarged = block.enlarged;
    out.companion = block.companion;
    out.nodeCount = block.nodes.size();
    out.loadIndependent.assign(block.nodes.size(), 0);

    if (!operandsEvaluable(block.nodes))
        return out; // nothing provable: every pair stays may-alias

    sym::Arena arena;
    AddrWalker walker(arena);
    std::vector<MemRef> refs;
    for (std::size_t i = 0; i < block.nodes.size(); ++i)
        walker.evalNode(block.nodes[i], static_cast<std::uint16_t>(i), refs);

    for (const MemRef &ref : refs)
        ++(ref.isStore ? out.stores : out.loads);

    // Classify every load/store and store/store pair. Disjointness and
    // sameness are properties of the two canonical address expressions
    // alone, so intervening syscalls (which change memory contents, not
    // these addresses) do not weaken the classification.
    std::vector<std::uint8_t> vs_all_stores(block.nodes.size(), 1);
    for (std::size_t a = 0; a < refs.size(); ++a) {
        for (std::size_t b = a + 1; b < refs.size(); ++b) {
            const MemRef &ra = refs[a];
            const MemRef &rb = refs[b];
            if (!ra.isStore && !rb.isStore)
                continue; // loads commute
            AliasClass cls = AliasClass::MayAlias;
            if (sym::definitelySame(ra.addr, ra.len, rb.addr, rb.len))
                cls = AliasClass::MustAlias;
            else if (sym::definitelyDisjoint(arena, ra.addr, ra.len,
                                             rb.addr, rb.len))
                cls = AliasClass::NoAlias;
            out.pairs.push_back(
                {ra.node, rb.node, cls, ra.isStore && rb.isStore});
            switch (cls) {
              case AliasClass::NoAlias:
                ++out.noAlias;
                out.facts.noAliasPairs.push_back(
                    MemDepFacts::packPair(ra.node, rb.node));
                break;
              case AliasClass::MustAlias: ++out.mustAlias; break;
              case AliasClass::MayAlias: ++out.mayAlias; break;
            }
            if (cls != AliasClass::NoAlias) {
                // A load/store pair that is not proven disjoint pins
                // both ends: neither end is independent of all stores.
                if (ra.isStore != rb.isStore) {
                    vs_all_stores[ra.node] = 0;
                    vs_all_stores[rb.node] = 0;
                }
            }
        }
    }
    std::sort(out.facts.noAliasPairs.begin(), out.facts.noAliasPairs.end());

    // A load is independent when it is proven no-alias against every
    // store of the block, in any order — so the claim survives any legal
    // schedule. Blocks with a system call are excluded wholesale: the
    // syscall may write memory the symbolic log cannot see.
    if (!block.hasSyscall) {
        for (const MemRef &ref : refs) {
            if (ref.isStore || !vs_all_stores[ref.node])
                continue;
            out.loadIndependent[ref.node] = 1;
            ++out.independentLoads;
        }
    }

    if (!block.words.empty()) {
        out.issuePos.assign(block.nodes.size(), 0);
        std::uint16_t pos = 0;
        for (const Word &word : block.words)
            for (std::uint16_t idx : word)
                out.issuePos[idx] = pos++;
    }
    return out;
}

DisambigImage
disambigImage(const CodeImage &image)
{
    DisambigImage out;
    out.blocks.reserve(image.blocks.size());
    for (const ImageBlock &block : image.blocks) {
        BlockDisambig b = disambigBlock(block);
        out.pairsTotal += b.pairs.size();
        out.noAliasTotal += b.noAlias;
        out.mustAliasTotal += b.mustAlias;
        out.mayAliasTotal += b.mayAlias;
        out.independentLoadsTotal += b.independentLoads;
        if (b.enlarged)
            out.enlargedNoAlias += b.noAlias;
        out.blocks.push_back(std::move(b));
    }
    return out;
}

std::function<MemDepFacts(const ImageBlock &)>
disambigSchedulingHook()
{
    return [](const ImageBlock &block) {
        return disambigBlock(block).facts;
    };
}

} // namespace fgp::analyze
