#include "engine/engine.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <unordered_map>

#include "analyze/disambig.hh"
#include "base/logging.hh"
#include "branch/predictor.hh"
#include "engine/workspace.hh"
#include "memsys/memsys.hh"
#include "metrics/registry.hh"
#include "obs/bus.hh"
#include "profile/profile.hh"
#include "vm/exec.hh"

namespace fgp {

namespace {

std::atomic<std::uint64_t (*)()> g_allocHook{nullptr};

enum class NState : std::uint8_t { Waiting, Ready, Executing, Done };

using NodeRef = EngineWorkspace::NodeRef;
using BlockRec = EngineWorkspace::BlockRec;
using ChainItem = EngineWorkspace::ChainItem;
using ChainRef = EngineWorkspace::ChainRef;
using ExecRec = EngineWorkspace::ExecRec;
using MemRec = EngineWorkspace::MemRec;
using MetaRec = EngineWorkspace::MetaRec;

struct RenameEntry
{
    bool ready = true;
    std::uint32_t value = 0;
    std::uint64_t tag = 0;
    std::uint32_t tagPos = 0; ///< producer's node slot (tag != 0 only)
};

/**
 * The whole machine for one simulate() call. All per-node and per-block
 * state lives in the EngineWorkspace's SoA rings; a node is identified
 * by its dense issue position `pos` (ring slot `pos & nodeMask_`) and
 * validated by its unique sequence number — see workspace.hh and
 * DESIGN.md ("Engine memory layout").
 */
class Engine
{
  public:
    Engine(const CodeImage &image, SimOS &os, const EngineOptions &opts,
           EngineWorkspace &ws)
        : image_(image), os_(os), opts_(opts),
          bus_(opts.bus),
          prof_(opts.profile),
          memsys_(opts.config.memory),
          predictor_(opts.predictor),
          ws_(ws),
          mem_(ws.mem),
          windowCap_(opts.windowOverride > 0
                         ? opts.windowOverride
                         : windowBlocks(opts.config.discipline)),
          isStatic_(opts.config.discipline == Discipline::Static),
          perfect_(opts.config.branch == BranchMode::Perfect),
          hook_(g_allocHook.load(std::memory_order_relaxed)),
          disambig_(opts.disambig),
          disambigFast_(opts.disambig && opts.disambigFastPath),
          disambigXcheck_(opts.disambig && opts.disambigXcheck)
    {
        ws_.beginRun();
        nodeMask_ = ws_.nodeMask();
        blockMask_ = ws_.blockMask();
        if (prof_) {
            ws_.ensureProfLane();
            prof_->beginRun(opts.config.issue.width(),
                            image.blocks.size());
        }
        if (perfect_) {
            fgp_assert(opts.perfectTrace,
                       "perfect branch mode needs a committed-block trace");
            trace_ = opts.perfectTrace;
        }
    }

    EngineResult run();

  private:
    // ---- SoA accessors ----------------------------------------------
    std::uint64_t seqAt(std::uint32_t pos) const
    {
        return ws_.nodeSeq[pos & nodeMask_];
    }
    NState stateAt(std::uint32_t pos) const
    {
        return static_cast<NState>(ws_.nodeState[pos & nodeMask_]);
    }
    void setState(std::uint32_t pos, NState s)
    {
        ws_.nodeState[pos & nodeMask_] = static_cast<std::uint8_t>(s);
    }
    ExecRec &execAt(std::uint32_t pos)
    {
        return ws_.exec[pos & nodeMask_];
    }
    MemRec &memAt(std::uint32_t pos)
    {
        return ws_.memRec[pos & nodeMask_];
    }
    MetaRec &metaAt(std::uint32_t pos)
    {
        return ws_.meta[pos & nodeMask_];
    }
    ChainRef &waitAt(std::uint32_t pos)
    {
        return ws_.waitChain[pos & nodeMask_];
    }
    ChainRef &loadAt(std::uint32_t pos)
    {
        return ws_.loadChain[pos & nodeMask_];
    }
    BlockRec &blockAt(std::uint32_t bpos)
    {
        return ws_.blocks[bpos & blockMask_];
    }
    profile::NodeProf &profAt(std::uint32_t pos)
    {
        return ws_.profRec[pos & nodeMask_];
    }

    /** Monotone counter totals for the interval profiler's window
     *  folds (per-window values are deltas of these). */
    profile::CounterSnapshot
    profileCounters() const
    {
        profile::CounterSnapshot c;
        c.issuedNodes = result_.issuedNodes;
        c.retiredNodes = result_.retiredNodes;
        c.executedNodes = result_.executedNodes;
        c.committedBlocks = result_.committedBlocks;
        c.squashedBlocks = result_.squashedBlocks;
        c.mispredicts = result_.mispredicts;
        c.faultsFired = result_.faultsFired;
        c.fetchRedirectCycles = fetchRedirectCycles_;
        c.fetchIdleCycles = fetchIdleCycles_;
        c.windowFullCycles = issueStallWindow_;
        c.shortWordSlots = shortWordSlots_;
        c.operandWaitNodeCycles = result_.stalls.operandWaitNodeCycles;
        c.memoryWaitNodeCycles = result_.stalls.memoryWaitNodeCycles;
        c.serializeWaitNodeCycles =
            result_.stalls.serializeWaitNodeCycles;
        c.fuBusyNodeCycles = result_.stalls.fuBusyNodeCycles;
        return c;
    }

    /**
     * Is this (pos, seq) reference a currently in-flight node? Live
     * nodes occupy the contiguous pos range [headPos_, nextPos_);
     * squash rewinds nextPos_ (un-reused slots fail the range check)
     * and slot reuse changes the seq (reused slots fail the tag check),
     * so no slot ever needs wiping.
     */
    bool liveNode(const NodeRef &ref) const
    {
        return ref.pos >= headPos_ && ref.pos < nextPos_ &&
               seqAt(ref.pos) == ref.seq;
    }

    // ---- chain plumbing ---------------------------------------------
    void
    chainAppend(ChainRef &chain, const ChainItem &item)
    {
        const std::uint32_t idx = ws_.chains.alloc(item);
        if (chain.head == kNilIndex)
            chain.head = idx;
        else
            ws_.chains.setNext(chain.tail, idx);
        chain.tail = idx;
    }

    void
    releaseChain(ChainRef &chain)
    {
        std::uint32_t idx = chain.head;
        chain.head = chain.tail = kNilIndex;
        while (idx != kNilIndex) {
            const std::uint32_t nxt = ws_.chains.next(idx);
            ws_.chains.release(idx);
            idx = nxt;
        }
    }

    // ---- pipeline stages --------------------------------------------
    void processCompletions();
    void retireBlocks();
    void refreshPending();
    void scheduleDynamic();
    void scheduleStaticWord();
    void issueCycle();

    void onDataReady(std::uint32_t pos);
    void tryStoreAgen(std::uint32_t pos);
    void completeAt(std::uint64_t cycle, std::uint64_t seq,
                    std::uint32_t pos);
    void executeNode(std::uint32_t pos);
    bool tryExecuteLoad(std::uint32_t pos);
    bool disambigFastEligible(std::uint32_t pos);
    void xcheckRetiringBlock(const BlockRec &front);
    void resolveControl(std::uint32_t pos);
    void parkLoad(std::uint32_t blocker_pos, std::uint64_t blocker_seq,
                  std::uint32_t load_pos, std::uint32_t addr);

    void decideNextFetch(BlockRec &block);
    void squashFrom(std::uint64_t bseq_inclusive);
    void rebuildRenameMap();
    void redirectTo(std::int32_t image_block);
    std::int32_t mapPc(std::int32_t pc);

    enum class MergeStatus { Ok, NeedData, UnknownAddr };
    /**
     * Speculatively read @p len bytes at @p addr as seen by sequence
     * number @p seq_limit. On failure, @p blocker (when non-null) names
     * the oldest node whose resolution must precede a retry: a store
     * with an unknown address or unknown data, or a pending syscall;
     * @p blocker_pos receives that node's slot for chain parking.
     */
    MergeStatus specRead(std::uint64_t seq_limit, std::uint32_t addr,
                         std::uint32_t len, std::uint8_t *out,
                         bool *forwarded,
                         std::uint64_t *blocker = nullptr,
                         std::uint32_t *blocker_pos = nullptr);

    /** Watermark fronts: oldest live entry still unresolved, with
     *  resolved/dead entries popped lazily. Rings are pushed in issue
     *  (= seq) order and suffix-popped on squash, so the surviving
     *  front is exactly the old ordered-set begin(). */
    const NodeRef *frontUnknownStoreAddr();
    const NodeRef *frontPendingSyscall();
    const NodeRef *frontUnknownStoreData();

    /** Move loads blocked on slot @p pos to the retry list. */
    void wakeLoadsBlockedOn(std::uint32_t pos);

    void finishExit(std::uint32_t pos);

    // ---- members ----------------------------------------------------
    const CodeImage &image_;
    SimOS &os_;
    EngineOptions opts_;
    obs::EventBus *bus_;
    profile::IntervalProfiler *const prof_; ///< may be null (the default)
    MemorySystem memsys_;
    BranchPredictor predictor_;
    EngineWorkspace &ws_;
    SparseMemory &mem_;

    const int windowCap_;
    const bool isStatic_;
    const bool perfect_;
    std::uint64_t (*const hook_)(); ///< allocation sampler (may be null)
    /** Static no-alias facts (EngineOptions::disambig; may be null). */
    const analyze::DisambigImage *const disambig_;
    const bool disambigFast_;   ///< independent loads bypass the probe
    const bool disambigXcheck_; ///< retirement re-checks no-alias pairs
    const std::vector<std::int32_t> *trace_ = nullptr;
    std::size_t traceIdx_ = 0;

    EngineResult result_;
    std::uint64_t cycle_ = 0;
    std::uint64_t seqCounter_ = 1;
    std::uint64_t bseqCounter_ = 1;

    std::uint32_t nodeMask_ = 0;
    std::uint32_t blockMask_ = 0;
    std::uint32_t headPos_ = 0;      ///< oldest live node pos
    std::uint32_t nextPos_ = 0;      ///< next node pos to allocate
    std::uint32_t headBlockPos_ = 0; ///< oldest in-flight block pos
    std::uint32_t nextBlockPos_ = 0; ///< next block pos to allocate

    RenameEntry rename_[kNumRegs];
    std::uint32_t committedRegs_[kNumRegs] = {};

    /** Set when retirement/completion/squash may change syscall
     *  eligibility; cleared after the pendingSys scan. */
    bool sysWake_ = true;

    /** Fault-target chooser (extension): entry pc -> alternate block.
     *  Off the hot path; only predictFaultTargets configs touch it. */
    struct FaultChoice
    {
        std::int32_t target = -1;
        std::uint8_t counter = 0; ///< 0..3; >=2 selects the alternate
    };
    std::unordered_map<std::int32_t, FaultChoice> faultChoice_;
    std::uint64_t issueCycles_ = 0;

    // Per-cycle counters kept as members (a StatGroup add costs a string
    // key construction plus a map lookup; these fire nearly every cycle).
    std::uint64_t fetchRedirectCycles_ = 0;
    std::uint64_t fetchIdleCycles_ = 0;
    std::uint64_t issueStallWindow_ = 0;
    std::uint64_t wordStallCycles_ = 0;
    /** Issue slots wasted by words narrower than the machine width. */
    std::uint64_t shortWordSlots_ = 0;
    /** Static-disambiguation books (folded into result_ after the run). */
    std::uint64_t disambigFastLoads_ = 0;
    std::uint64_t disambigProbesEliminated_ = 0;
    std::uint64_t disambigCheckedPairs_ = 0;
    /** Refs currently parked on load chains (includes refs whose load
     *  was squashed while parked, until their blocker resolves). */
    std::uint64_t parkedLoads_ = 0;

    // Incremental window-content counters (the paper's three measures).
    std::int64_t validCount_ = 0;  ///< issued, not retired
    std::int64_t activeCount_ = 0; ///< issued, not scheduled
    std::int64_t readyCount_ = 0;  ///< active and schedulable

    // Fetch state.
    std::int32_t fetchImageBlock_ = -1; ///< block being issued (-1: pick new)
    std::int32_t nextFetchImageBlock_ = -1;
    std::uint64_t fetchBseq_ = 0;
    int fetchStall_ = 0;
    bool fetchIdle_ = false; ///< no known next block (exit path or JR wait)
    std::uint64_t jrWaitBseq_ = 0; ///< block whose JR fetch waits on

    /** Resolving control node of the last fetch redirect; the first node
     *  issued afterwards records it as its Branch dependence edge. */
    std::uint64_t pendingRedirectSeq_ = 0;

    bool exited_ = false;
};

/**
 * Publish one typed event when a bus is attached. The arguments are the
 * designated initializers of one obs::SimEvent; they must not be
 * evaluated when no bus is attached — emissions sit on the
 * execute/complete hot paths.
 */
#define OBS_EMIT(...)                                                         \
    do {                                                                      \
        if (bus_)                                                             \
            bus_->emit(obs::SimEvent{__VA_ARGS__});                           \
    } while (0)

// ---------------------------------------------------------------------
// Rename / operand plumbing
// ---------------------------------------------------------------------

/**
 * Address generation for stores happens as soon as the base register is
 * available, independent of the data operand — this is what lets younger
 * loads disambiguate and bypass (§2.1). No function unit is charged for
 * it; the store still occupies a memory port when it executes.
 */
void
Engine::tryStoreAgen(std::uint32_t pos)
{
    ExecRec &ex = execAt(pos);
    MemRec &mr = memAt(pos);
    if (!ex.node->isStore() || mr.addrKnown || !(ex.srcReadyMask & 1))
        return;
    mr.addr = effectiveAddress(*ex.node, ex.srcVal[0]);
    mr.len = static_cast<std::uint8_t>(accessBytes(ex.node->op));
    mr.addrKnown = true; // the unknown-addr watermark skips this entry now
    ws_.storeIndex.addStore(seqAt(pos), mr.addr, mr.len, pos);
    wakeLoadsBlockedOn(pos);
}

void
Engine::wakeLoadsBlockedOn(std::uint32_t pos)
{
    ChainRef &chain = loadAt(pos);
    std::uint32_t idx = chain.head;
    if (idx == kNilIndex)
        return;
    chain.head = chain.tail = kNilIndex;
    while (idx != kNilIndex) {
        const ChainItem item = ws_.chains.at(idx);
        const std::uint32_t nxt = ws_.chains.next(idx);
        ws_.chains.release(idx);
        --parkedLoads_;
        if (bus_)
            bus_->emit(obs::SimEvent{.kind = obs::EventKind::LoadWake,
                                     .cycle = cycle_,
                                     .seq = item.seq,
                                     .bseq = item.aux});
        ws_.retryLoads.push_back({item.seq, item.pos});
        idx = nxt;
    }
}

void
Engine::onDataReady(std::uint32_t pos)
{
    fgp_assert(stateAt(pos) == NState::Waiting, "double wakeup");
    setState(pos, NState::Ready);
    ++readyCount_;
    if (prof_)
        profAt(pos).readyCycle = static_cast<std::uint32_t>(cycle_);
    if (isStatic_)
        return; // the in-order word dispatcher polls readiness itself

    const Node &node = *execAt(pos).node;
    const NodeRef ref{seqAt(pos), pos};
    if (node.isSys()) {
        ws_.pendingSys.push_back(ref);
        sysWake_ = true;
    } else if (node.isLoad()) {
        // First attempt happens at the next refresh point, exactly when
        // the polled scheduler would have seen it.
        ws_.retryLoads.push_back(ref);
    } else if (node.isMem()) {
        ws_.readyMem.push(ref);
    } else {
        ws_.readyAlu.push(ref);
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

void
Engine::completeAt(std::uint64_t done_cycle, std::uint64_t seq,
                   std::uint32_t pos)
{
    ws_.events.push({done_cycle, seq, pos});
}

const NodeRef *
Engine::frontUnknownStoreAddr()
{
    auto &ring = ws_.unknownStoreAddrs;
    while (!ring.empty()) {
        const NodeRef &r = ring.front();
        if (liveNode(r) && !memAt(r.pos).addrKnown)
            return &r;
        ring.pop_front();
    }
    return nullptr;
}

const NodeRef *
Engine::frontPendingSyscall()
{
    auto &ring = ws_.pendingSyscallSeqs;
    while (!ring.empty()) {
        const NodeRef &r = ring.front();
        // A syscall stops being a barrier the moment it executes —
        // matching the old set erasure inside the execute path.
        if (liveNode(r) && stateAt(r.pos) < NState::Executing)
            return &r;
        ring.pop_front();
    }
    return nullptr;
}

const NodeRef *
Engine::frontUnknownStoreData()
{
    auto &ring = ws_.unknownStoreData;
    while (!ring.empty()) {
        const NodeRef &r = ring.front();
        if (liveNode(r) && !memAt(r.pos).dataKnown)
            return &r;
        ring.pop_front();
    }
    return nullptr;
}

Engine::MergeStatus
Engine::specRead(std::uint64_t seq_limit, std::uint32_t addr,
                 std::uint32_t len, std::uint8_t *out, bool *forwarded,
                 std::uint64_t *blocker, std::uint32_t *blocker_pos)
{
    // Gate: every older store must have a known address, and no older
    // system call may still be pending (system calls write memory
    // directly, so they are barriers for younger loads). The watermark
    // front is the oldest unresolved member, so the check is O(1).
    if (const NodeRef *w = frontUnknownStoreAddr();
        w && w->seq < seq_limit) {
        if (blocker) {
            *blocker = w->seq;
            *blocker_pos = w->pos;
        }
        return MergeStatus::UnknownAddr;
    }
    if (const NodeRef *w = frontPendingSyscall(); w && w->seq < seq_limit) {
        if (blocker) {
            *blocker = w->seq;
            *blocker_pos = w->pos;
        }
        return MergeStatus::UnknownAddr;
    }
    if (opts_.conservativeLoads) {
        // All older stores have known addresses here (gate above), so
        // "any older store still lacking data" is exactly the oldest
        // member of the unknown-data watermark.
        if (const NodeRef *w = frontUnknownStoreData();
            w && w->seq < seq_limit) {
            if (blocker) {
                *blocker = w->seq;
                *blocker_pos = w->pos;
            }
            return MergeStatus::NeedData;
        }
    }

    bool any_forward = false;
    for (std::uint32_t b = 0; b < len; ++b) {
        const std::uint32_t byte_addr = addr + b;
        const StoreIndex::Lookup hit =
            ws_.storeIndex.lookup(byte_addr, seq_limit);
        switch (hit.status) {
          case StoreIndex::Lookup::Status::NeedData:
            if (blocker) {
                *blocker = hit.blocker;
                *blocker_pos = hit.blockerPos;
            }
            return MergeStatus::NeedData;
          case StoreIndex::Lookup::Status::Hit:
            out[b] = hit.value;
            any_forward = true;
            break;
          case StoreIndex::Lookup::Status::Miss:
            out[b] = mem_.read8(byte_addr);
            break;
        }
    }
    if (forwarded)
        *forwarded = any_forward;
    return MergeStatus::Ok;
}

void
Engine::parkLoad(std::uint32_t blocker_pos, std::uint64_t blocker_seq,
                 std::uint32_t load_pos, std::uint32_t addr)
{
    const std::uint64_t bseq = blockAt(metaAt(load_pos).blockPos).bseq;
    chainAppend(loadAt(blocker_pos),
                {seqAt(load_pos), bseq, load_pos});
    ++parkedLoads_;
    if (prof_) {
        profile::NodeProf &pr = profAt(load_pos);
        pr.parentSeq = blocker_seq;
        pr.edge = profile::EdgeKind::Memory;
    }
    OBS_EMIT(.kind = obs::EventKind::LoadBlock, .cycle = cycle_,
             .seq = seqAt(load_pos), .bseq = bseq,
             .node = execAt(load_pos).node, .addr = addr,
             .blocker = blocker_seq);
}

/**
 * Can the load at @p pos skip run-time disambiguation entirely? Requires
 * facts proving it no-alias against every store of its block, in a window
 * state where every older in-flight store belongs to that same dynamic
 * block (store queue empty or fronted by it) and no older system call is
 * pending. Older-block stores already retired are visible in memory;
 * same-block stores are proven disjoint (so can neither forward to nor
 * conflict with the load); younger stores never affect an older load.
 * Facts whose shape does not match the image are stale and unusable.
 */
bool
Engine::disambigFastEligible(std::uint32_t pos)
{
    if (!disambigFast_ || opts_.conservativeLoads)
        return false;
    const MetaRec &meta = metaAt(pos);
    const BlockRec &block = blockAt(meta.blockPos);
    const analyze::BlockDisambig &bd =
        disambig_->blocks[static_cast<std::size_t>(block.imageId)];
    if (bd.nodeCount != image_.block(block.imageId).nodes.size() ||
        meta.nodeIdx >= bd.loadIndependent.size() ||
        !bd.loadIndependent[meta.nodeIdx])
        return false;
    if (!ws_.storeQueue.empty() &&
        metaAt(ws_.storeQueue.front().pos).blockPos != meta.blockPos)
        return false;
    if (const NodeRef *w = frontPendingSyscall(); w && w->seq < seqAt(pos))
        return false;
    return true;
}

bool
Engine::tryExecuteLoad(std::uint32_t pos)
{
    ExecRec &ex = execAt(pos);
    const std::uint32_t addr = effectiveAddress(*ex.node, ex.srcVal[0]);
    const std::uint32_t len = accessBytes(ex.node->op);
    std::uint8_t bytes[4];
    bool forwarded = false;
    if (disambigFastEligible(pos)) {
        // Statically proven independent: read memory directly, no
        // store-queue probe and nothing to park on.
        for (std::uint32_t b = 0; b < len; ++b)
            bytes[b] = mem_.read8(addr + b);
        ++disambigFastLoads_;
        disambigProbesEliminated_ += len;
    } else {
        std::uint64_t blocked_on = 0;
        std::uint32_t blocked_pos = 0;
        const MergeStatus status =
            specRead(seqAt(pos), addr, len, bytes, &forwarded,
                     &blocked_on, &blocked_pos);
        if (status != MergeStatus::Ok) {
            if (!isStatic_) {
                fgp_assert(blocked_on != 0,
                           "blocked load without a blocker");
                parkLoad(blocked_pos, blocked_on, pos, addr);
            }
            return false;
        }
    }

    MemRec &mr = memAt(pos);
    mr.addr = addr;
    mr.addrKnown = true;
    ex.value = loadResult(ex.node->op, bytes);
    setState(pos, NState::Executing);
    --activeCount_;
    --readyCount_;
    ++result_.executedNodes;
    if (prof_) {
        profile::NodeProf &pr = profAt(pos);
        pr.schedCycle = static_cast<std::uint32_t>(cycle_);
        // A parked load whose value arrived from the store queue was
        // bound by the forwarding store, not by disambiguation per se.
        if (forwarded && pr.edge == profile::EdgeKind::Memory)
            pr.edge = profile::EdgeKind::Forward;
    }
    const int latency = memsys_.loadLatency(addr, forwarded);
    const std::uint64_t bseq = blockAt(metaAt(pos).blockPos).bseq;
    if (bus_ && forwarded)
        bus_->emit(obs::SimEvent{.kind = obs::EventKind::StoreForward,
                                 .cycle = cycle_,
                                 .seq = seqAt(pos),
                                 .bseq = bseq,
                                 .node = ex.node,
                                 .addr = addr});
    OBS_EMIT(.kind = obs::EventKind::Schedule, .cycle = cycle_,
             .seq = seqAt(pos), .bseq = bseq, .node = ex.node,
             .addr = addr, .latency = latency, .forwarded = forwarded);
    completeAt(cycle_ + static_cast<std::uint64_t>(latency), seqAt(pos),
               pos);
    return true;
}

void
Engine::executeNode(std::uint32_t pos)
{
    ExecRec &ex = execAt(pos);
    setState(pos, NState::Executing);
    --activeCount_;
    --readyCount_;
    ++result_.executedNodes;
    if (prof_)
        profAt(pos).schedCycle = static_cast<std::uint32_t>(cycle_);
    OBS_EMIT(.kind = obs::EventKind::Schedule, .cycle = cycle_,
             .seq = seqAt(pos),
             .bseq = blockAt(metaAt(pos).blockPos).bseq, .node = ex.node,
             .latency = 1);
    int latency = 1;

    const Node &node = *ex.node;
    switch (node.cls()) {
      case NodeClass::IntAlu:
        ex.value = evalAlu(node, ex.srcVal[0], ex.srcVal[1]);
        break;
      case NodeClass::Fault:
        ex.value = evalCondition(node.op, ex.srcVal[0], ex.srcVal[1]) ? 1
                                                                      : 0;
        break;
      case NodeClass::Control:
        switch (node.op) {
          case Opcode::J:
            ex.value = 0;
            break;
          case Opcode::JAL:
            ex.value = static_cast<std::uint32_t>(node.origPc + 1);
            break;
          case Opcode::JR:
            ex.value = ex.srcVal[0];
            break;
          default: // conditional branch
            ex.value =
                evalCondition(node.op, ex.srcVal[0], ex.srcVal[1]) ? 1 : 0;
            break;
        }
        break;
      case NodeClass::Mem: {
        fgp_assert(node.isStore(), "loads take the tryExecuteLoad path");
        tryStoreAgen(pos); // usually already done at wakeup
        MemRec &mr = memAt(pos);
        fgp_assert(mr.addrKnown, "store executing without an address");
        const std::uint32_t len = storeBytes(node.op, ex.srcVal[1],
                                             mr.data);
        fgp_assert(len == mr.len, "store width changed");
        mr.dataKnown = true; // unknown-data watermark skips this entry
        ws_.storeIndex.setData(seqAt(pos), mr.data);
        wakeLoadsBlockedOn(pos);
        break;
      }
      case NodeClass::Sys: {
        // Reads observe in-flight older stores; writes are immediate (the
        // block is the window's oldest and cannot be squashed).
        const std::uint64_t seq = seqAt(pos);
        const MemPorts ports{
            [&](std::uint32_t a) {
                std::uint8_t byte;
                const MergeStatus st = specRead(seq, a, 1, &byte, nullptr);
                fgp_assert(st == MergeStatus::Ok,
                           "system call read raced an incomplete store");
                return byte;
            },
            [&](std::uint32_t a, std::uint8_t v) { mem_.write8(a, v); },
        };
        // The syscall barrier lifts here: state is Executing, so the
        // pending-syscall watermark now skips this entry.
        const std::uint64_t pre_alloc = hook_ ? hook_() : 0;
        const std::uint32_t res =
            os_.syscall(ex.srcVal[0], ex.srcVal[1], ex.srcVal[2],
                        ex.srcVal[3], ex.srcVal[4], ports);
        if (hook_)
            result_.allocSyscall += hook_() - pre_alloc;
        wakeLoadsBlockedOn(pos);
        if (os_.exited()) {
            finishExit(pos);
            return;
        }
        ex.value = res;
        break;
      }
    }
    completeAt(cycle_ + static_cast<std::uint64_t>(latency), seqAt(pos),
               pos);
}

void
Engine::finishExit(std::uint32_t pos)
{
    exited_ = true;
    result_.exited = true;
    result_.exitCode = os_.exitCode();

    // Commit the partial block up to and including the exit node, exactly
    // like the functional VM counts it.
    const BlockRec &block = blockAt(metaAt(pos).blockPos);
    const std::uint64_t partial = metaAt(pos).nodeIdx + 1;
    OBS_EMIT(.kind = obs::EventKind::Retire, .cycle = cycle_,
             .bseq = block.bseq, .imageId = block.imageId,
             .count = static_cast<std::uint32_t>(partial), .partial = true);
    BlockStat &bs = result_.blockStats[block.imageId];
    ++bs.retiredBlocks;
    bs.retiredNodes += partial;
    if (prof_) {
        for (std::uint32_t p = block.firstPos;
             p != block.firstPos + static_cast<std::uint32_t>(partial); ++p)
            prof_->appendRetired(seqAt(p), profAt(p),
                                 static_cast<std::uint32_t>(block.imageId));
    }
    result_.retiredNodes += partial;
    ++result_.committedBlocks;
    result_.blockSize.add(partial);
    result_.cycles = cycle_ + 1;
}

// ---------------------------------------------------------------------
// Completion, resolution, retirement
// ---------------------------------------------------------------------

void
Engine::processCompletions()
{
    auto &due = ws_.dueScratch;
    due.clear();
    auto &events = ws_.events;
    while (!events.empty() && events.top().cycle <= cycle_) {
        due.push_back({events.top().seq, events.top().pos});
        events.pop();
    }
    // In-order resolution priority: an older fault/mispredict must act
    // before younger control nodes completing in the same cycle.
    std::sort(due.begin(), due.end(),
              [](const NodeRef &a, const NodeRef &b) {
                  return a.seq < b.seq;
              });

    for (const NodeRef &ref : due) {
        if (!liveNode(ref) || stateAt(ref.pos) != NState::Executing)
            continue; // squashed since scheduling
        const std::uint32_t pos = ref.pos;
        ExecRec &ex = execAt(pos);
        BlockRec &block = blockAt(metaAt(pos).blockPos);
        setState(pos, NState::Done);
        ++block.doneCount;
        if (prof_)
            profAt(pos).completeCycle = static_cast<std::uint32_t>(cycle_);
        sysWake_ = true; // progress in the oldest block frees syscalls
        OBS_EMIT(.kind = obs::EventKind::Complete, .cycle = cycle_,
                 .seq = ref.seq, .bseq = block.bseq, .node = ex.node,
                 .value = ex.value);

        // Publish to the rename map.
        const std::uint8_t dst = ex.node->dstReg();
        if (dst != kRegNone && dst != kRegZero) {
            RenameEntry &entry = rename_[dst];
            if (!entry.ready && entry.tag == ref.seq) {
                entry.ready = true;
                entry.value = ex.value;
            }
        }

        // Wake consumers: drain the producer's wait chain in append
        // order (the order the old per-producer vector preserved).
        const std::uint32_t value = ex.value;
        ChainRef &chain = waitAt(pos);
        std::uint32_t idx = chain.head;
        chain.head = chain.tail = kNilIndex;
        while (idx != kNilIndex) {
            const ChainItem item = ws_.chains.at(idx);
            const std::uint32_t nxt = ws_.chains.next(idx);
            ws_.chains.release(idx);
            idx = nxt;
            if (!liveNode({item.seq, item.pos}))
                continue; // consumer squashed
            if (stateAt(item.pos) != NState::Waiting)
                continue;
            ExecRec &consumer = execAt(item.pos);
            const int slot = static_cast<int>(item.aux);
            if ((consumer.srcReadyMask >> slot) & 1)
                continue;
            consumer.srcVal[slot] = value;
            consumer.srcReadyMask |= 1u << slot;
            if (prof_) {
                // Last operand writer wins: the edge that releases the
                // consumer is the one critical-path walks follow.
                profile::NodeProf &pr = profAt(item.pos);
                pr.parentSeq = ref.seq;
                pr.edge = profile::EdgeKind::Data;
            }
            if (consumer.node->isStore() && slot == 0)
                tryStoreAgen(item.pos);
            if (--consumer.unresolved == 0)
                onDataReady(item.pos);
        }

        if (ex.node->isFault() || ex.node->isControl())
            resolveControl(pos);
    }
}

void
Engine::resolveControl(std::uint32_t pos)
{
    const Node &node = *execAt(pos).node;
    const std::uint32_t value = execAt(pos).value;
    const std::uint64_t seq = seqAt(pos);
    BlockRec &block = blockAt(metaAt(pos).blockPos);

    if (node.isFault()) {
        if (value) {
            if (perfect_)
                fgp_panic("fault node fired under perfect prediction");
            ++result_.faultsFired;
            ++result_.blockStats[block.imageId].faultsFired;
            const std::int32_t target = node.target;
            const std::uint64_t bseq = block.bseq;
            OBS_EMIT(.kind = obs::EventKind::AssertFire, .cycle = cycle_,
                     .seq = seq, .bseq = bseq,
                     .imageId = block.imageId, .node = &node,
                     .target = target);
            if (opts_.predictFaultTargets) {
                // Strengthen the chooser toward the block we fault into.
                FaultChoice &choice =
                    faultChoice_[image_.block(block.imageId).entryPc];
                if (choice.target == target) {
                    if (choice.counter < 3)
                        ++choice.counter;
                } else {
                    // A new alternate starts weak: only repeated faults
                    // into the same block switch the entry over.
                    choice.target = target;
                    choice.counter = 1;
                }
            }
            squashFrom(bseq);
            redirectTo(target);
            if (prof_)
                pendingRedirectSeq_ = seq;
        }
        return;
    }

    if (isConditionalBranch(node.op)) {
        const bool taken = value != 0;
        ++result_.branchesResolved;
        if (perfect_)
            return;
        predictor_.updateConditional(node.origPc, taken);
        if (!block.predictionMade) {
            block.resolvedEarly = true;
            block.resolvedTaken = taken;
            return;
        }
        predictor_.recordOutcome(taken == block.predictedTaken);
        OBS_EMIT(.kind = obs::EventKind::Resolve, .cycle = cycle_,
                 .seq = seq, .bseq = block.bseq,
                 .imageId = block.imageId, .node = &node, .taken = taken,
                 .mispredict = taken != block.predictedTaken);
        if (taken != block.predictedTaken) {
            ++result_.mispredicts;
            ++result_.blockStats[block.imageId].mispredicts;
            const ImageBlock &ib = image_.block(block.imageId);
            const std::int32_t pc = taken ? node.target : ib.fallthroughPc;
            squashFrom(block.bseq + 1);
            redirectTo(mapPc(pc));
            if (prof_)
                pendingRedirectSeq_ = seq;
        }
        return;
    }

    if (node.op == Opcode::JR) {
        const auto actual = static_cast<std::int32_t>(value);
        if (perfect_)
            return;
        predictor_.updateIndirect(node.origPc, actual);
        if (!block.predictionMade) {
            block.resolvedEarly = true;
            block.resolvedTargetPc = actual;
            return;
        }
        OBS_EMIT(.kind = obs::EventKind::Resolve, .cycle = cycle_,
                 .seq = seq, .bseq = block.bseq,
                 .imageId = block.imageId, .node = &node,
                 .value = value,
                 .mispredict = block.predictedTargetPc >= 0 &&
                               block.predictedTargetPc != actual);
        if (block.predictedTargetPc == actual)
            return;
        if (block.predictedTargetPc >= 0) {
            // Predicted some other target: squash the wrong path.
            ++result_.mispredicts;
            ++result_.blockStats[block.imageId].mispredicts;
            squashFrom(block.bseq + 1);
            const auto it = image_.entryByPc.find(actual);
            if (it != image_.entryByPc.end()) {
                redirectTo(it->second);
                if (prof_)
                    pendingRedirectSeq_ = seq;
            } else {
                // Wrong-path JR computed a garbage target; stall fetch
                // until an older control node repairs the path.
                fetchIdle_ = true;
                fetchImageBlock_ = -1;
                nextFetchImageBlock_ = -1;
            }
        } else if (fetchIdle_ && jrWaitBseq_ == block.bseq) {
            // Fetch was waiting for this JR to resolve. A wrong-path JR
            // can compute a garbage target; stay idle in that case until
            // an older control node repairs the path.
            const auto it = image_.entryByPc.find(actual);
            if (it != image_.entryByPc.end()) {
                fetchIdle_ = false;
                redirectTo(it->second);
                if (prof_)
                    pendingRedirectSeq_ = seq;
            }
        }
        return;
    }
    // J / JAL: statically determined, nothing to verify.
}

/**
 * Retirement-time soundness cross-check (MD family): every pair the
 * static pass proved no-alias must have produced disjoint byte ranges in
 * this dynamic block instance. The block is fully done here, so every
 * memory node's effective address is known. Violations are counted and
 * the first few recorded for the harness to render as MD001/MD002
 * verify diagnostics.
 */
void
Engine::xcheckRetiringBlock(const BlockRec &front)
{
    const analyze::BlockDisambig &bd =
        disambig_->blocks[static_cast<std::size_t>(front.imageId)];
    const ImageBlock &ib = image_.block(front.imageId);
    const auto record = [&](const DisambigViolation &v) {
        ++result_.disambigViolations;
        if (result_.disambigViolationLog.size() < 16)
            result_.disambigViolationLog.push_back(v);
    };
    if (bd.nodeCount != ib.nodes.size() ||
        bd.issuePos.size() != ib.nodes.size()) {
        record({.imageId = front.imageId, .stale = true});
        return;
    }
    for (const std::uint32_t packed : bd.facts.noAliasPairs) {
        const auto a = static_cast<std::uint16_t>(packed >> 16);
        const auto b = static_cast<std::uint16_t>(packed & 0xffffu);
        const std::uint32_t posA = front.firstPos + bd.issuePos[a];
        const std::uint32_t posB = front.firstPos + bd.issuePos[b];
        if (metaAt(posA).nodeIdx != a || metaAt(posB).nodeIdx != b) {
            record({.imageId = front.imageId, .nodeA = a, .nodeB = b,
                    .stale = true});
            continue;
        }
        const std::uint32_t lenA = accessBytes(execAt(posA).node->op);
        const std::uint32_t lenB = accessBytes(execAt(posB).node->op);
        const std::uint32_t addrA = memAt(posA).addr;
        const std::uint32_t addrB = memAt(posB).addr;
        if (addrA < addrB + lenB && addrB < addrA + lenA)
            record({.imageId = front.imageId, .nodeA = a, .nodeB = b,
                    .addrA = addrA, .addrB = addrB,
                    .lenA = lenA, .lenB = lenB});
    }
    disambigCheckedPairs_ += bd.facts.noAliasPairs.size();
}

void
Engine::retireBlocks()
{
    while (headBlockPos_ != nextBlockPos_) {
        BlockRec &front = blockAt(headBlockPos_);
        if (!front.fullyIssued || front.doneCount != front.count)
            break;
        if (disambigXcheck_)
            xcheckRetiringBlock(front);

        // Commit stores in issue order (program order for aliasing pairs).
        auto &storeQueue = ws_.storeQueue;
        while (!storeQueue.empty() &&
               metaAt(storeQueue.front().pos).blockPos == headBlockPos_) {
            const NodeRef sref = storeQueue.front();
            MemRec &mr = memAt(sref.pos);
            fgp_assert(liveNode(sref) &&
                           stateAt(sref.pos) == NState::Done &&
                           mr.addrKnown && mr.dataKnown,
                       "retiring block with incomplete store");
            mem_.writeBytes(mr.addr, mr.data, mr.len);
            memsys_.commitStore(mr.addr, mr.len);
            ws_.storeIndex.erase(sref.seq);
            storeQueue.pop_front();
        }

        // Architectural register state (pos order == program order).
        for (std::uint32_t p = front.firstPos;
             p != front.firstPos + front.count; ++p) {
            const std::uint8_t dst = execAt(p).node->dstReg();
            if (dst != kRegNone && dst != kRegZero)
                committedRegs_[dst] = execAt(p).value;
        }

        if (opts_.predictFaultTargets) {
            const ImageBlock &ib = image_.block(front.imageId);
            if (ib.enlarged) {
                const auto it = faultChoice_.find(ib.entryPc);
                if (it != faultChoice_.end() &&
                    it->second.target != front.imageId &&
                    it->second.counter > 0)
                    --it->second.counter;
            }
        }
        OBS_EMIT(.kind = obs::EventKind::Retire, .cycle = cycle_,
                 .bseq = front.bseq, .imageId = front.imageId,
                 .count = front.count);
        BlockStat &bs = result_.blockStats[front.imageId];
        ++bs.retiredBlocks;
        bs.retiredNodes += front.count;
        if (prof_) {
            for (std::uint32_t p = front.firstPos;
                 p != front.firstPos + front.count; ++p)
                prof_->appendRetired(
                    seqAt(p), profAt(p),
                    static_cast<std::uint32_t>(front.imageId));
        }
        validCount_ -= static_cast<std::int64_t>(front.count);
        result_.retiredNodes += front.count;
        result_.blockSize.add(front.count);
        ++result_.committedBlocks;
        headPos_ = front.firstPos + front.count;
        ++headBlockPos_;
        sysWake_ = true; // the new window front may free a syscall
    }
}

// ---------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------

void
Engine::refreshPending()
{
    // Deferred loads: re-attempt only those whose blocking node resolved
    // (or was squashed) since the last refresh. The retry list is
    // drained here — between completion processing and scheduling — so
    // wake-ups land on exactly the cycle the per-cycle poll would have
    // found them.
    if (!ws_.retryLoads.empty()) {
        auto &retry = ws_.retryScratch;
        retry.clear();
        retry.swap(ws_.retryLoads);
        for (const NodeRef &ref : retry) {
            if (!liveNode(ref) || stateAt(ref.pos) != NState::Ready)
                continue; // squashed (or already scheduled) meanwhile
            if (disambigFastEligible(ref.pos)) {
                // Proven independent: nothing to probe or park on, even
                // while an own-block store address is still unknown.
                ws_.readyMem.push(ref);
                continue;
            }
            ExecRec &ex = execAt(ref.pos);
            std::uint8_t scratch[4];
            std::uint64_t blocked_on = 0;
            std::uint32_t blocked_pos = 0;
            const std::uint32_t addr =
                effectiveAddress(*ex.node, ex.srcVal[0]);
            if (specRead(ref.seq, addr, accessBytes(ex.node->op),
                         scratch, nullptr, &blocked_on, &blocked_pos) ==
                MergeStatus::Ok) {
                ws_.readyMem.push(ref);
            } else {
                fgp_assert(blocked_on != 0,
                           "blocked load without a blocker");
                parkLoad(blocked_pos, blocked_on, ref.pos, addr);
            }
        }
    }

    // System calls become eligible when their block is the window's
    // oldest and every older node in the block is done. Only retirement,
    // completion or squash can change that, so skip the scan otherwise.
    if (!sysWake_)
        return;
    sysWake_ = false;
    auto &pendingSys = ws_.pendingSys;
    for (std::size_t i = 0; i < pendingSys.size();) {
        const NodeRef ref = pendingSys[i];
        if (!liveNode(ref) || stateAt(ref.pos) != NState::Ready) {
            pendingSys[i] = pendingSys.back();
            pendingSys.pop_back();
            continue;
        }
        const std::uint32_t bpos = metaAt(ref.pos).blockPos;
        bool eligible = headBlockPos_ != nextBlockPos_ &&
                        bpos == headBlockPos_;
        if (eligible) {
            const BlockRec &block = blockAt(bpos);
            for (std::uint32_t p = block.firstPos;
                 p != ref.pos && eligible; ++p)
                eligible = stateAt(p) == NState::Done;
        }
        if (eligible) {
            ws_.readyAlu.push(ref);
            pendingSys[i] = pendingSys.back();
            pendingSys.pop_back();
            continue;
        }
        ++i;
    }
}

void
Engine::scheduleDynamic()
{
    const IssueModel &issue = opts_.config.issue;
    auto &readyAlu = ws_.readyAlu;
    auto &readyMem = ws_.readyMem;

    if (issue.sequential) {
        // One node of any kind per cycle; oldest first.
        for (int budget = 1; budget > 0;) {
            NodeRef pick{};
            bool have = false;
            bool from_mem = false;
            while (!readyAlu.empty()) {
                const NodeRef top = readyAlu.top();
                if (liveNode(top) && stateAt(top.pos) == NState::Ready) {
                    pick = top;
                    have = true;
                    break;
                }
                readyAlu.pop();
            }
            while (!readyMem.empty()) {
                const NodeRef top = readyMem.top();
                if (liveNode(top) && stateAt(top.pos) == NState::Ready) {
                    if (!have || top.seq < pick.seq) {
                        pick = top;
                        have = true;
                        from_mem = true;
                    }
                    break;
                }
                readyMem.pop();
            }
            if (!have)
                break;
            (from_mem ? readyMem : readyAlu).pop();
            if (execAt(pick.pos).node->isLoad()) {
                if (!tryExecuteLoad(pick.pos))
                    continue; // parked on its blocker; next candidate
            } else {
                executeNode(pick.pos);
            }
            if (exited_)
                return;
            --budget;
        }
        return;
    }

    int mem_budget = issue.memSlots;
    while (mem_budget > 0 && !readyMem.empty()) {
        const NodeRef ref = readyMem.top();
        readyMem.pop();
        if (!liveNode(ref) || stateAt(ref.pos) != NState::Ready)
            continue;
        if (execAt(ref.pos).node->isLoad()) {
            if (!tryExecuteLoad(ref.pos))
                continue; // parked on its blocker
        } else {
            executeNode(ref.pos);
        }
        --mem_budget;
    }

    int alu_budget = issue.aluSlots;
    while (alu_budget > 0 && !readyAlu.empty()) {
        const NodeRef ref = readyAlu.top();
        readyAlu.pop();
        if (!liveNode(ref) || stateAt(ref.pos) != NState::Ready)
            continue;
        executeNode(ref.pos);
        if (exited_)
            return;
        --alu_budget;
    }
}

void
Engine::scheduleStaticWord()
{
    auto &wordQueue = ws_.wordQueue;
    while (!wordQueue.empty()) {
        const auto &wr = wordQueue.front();
        if (wr.blockPos >= headBlockPos_ && wr.blockPos < nextBlockPos_ &&
            blockAt(wr.blockPos).bseq == wr.bseq)
            break;
        wordQueue.pop_front();
    }
    if (wordQueue.empty())
        return;

    const auto wr = wordQueue.front();
    BlockRec &block = blockAt(wr.blockPos);
    const ImageBlock &ib = image_.block(block.imageId);
    const Word &word = ib.words[wr.wordIdx];
    // Words issue whole (one issueCycle call per word), so the word's
    // instances are the contiguous pos run starting at firstInst.
    fgp_assert(wr.firstInst + word.size() <= block.count,
               "word queued before its nodes issued");
    const std::uint32_t base = block.firstPos + wr.firstInst;

    // Full interlock: the word executes only when every node is ready.
    for (std::size_t k = 0; k < word.size(); ++k) {
        const std::uint32_t p = base + static_cast<std::uint32_t>(k);
        fgp_assert(metaAt(p).nodeIdx == word[k],
                   "static word slot mismatch");
        if (stateAt(p) != NState::Ready) {
            ++wordStallCycles_;
            return;
        }
        if (execAt(p).node->isSys()) {
            // Serialize: block must be oldest, all older nodes done.
            if (wr.blockPos != headBlockPos_)
                return;
            for (std::uint32_t q = block.firstPos; q != p; ++q)
                if (stateAt(q) != NState::Done)
                    return;
        }
    }

    // Execute stores and ALU work first so same-word loads can
    // disambiguate against them, then the loads.
    for (std::size_t k = 0; k < word.size(); ++k) {
        const std::uint32_t p = base + static_cast<std::uint32_t>(k);
        if (!execAt(p).node->isLoad()) {
            executeNode(p);
            if (exited_)
                return;
        }
    }
    for (std::size_t k = 0; k < word.size(); ++k) {
        const std::uint32_t p = base + static_cast<std::uint32_t>(k);
        if (execAt(p).node->isLoad()) {
            const bool ok = tryExecuteLoad(p);
            fgp_assert(ok, "in-order load failed to disambiguate");
        }
    }
    wordQueue.pop_front();
}

// ---------------------------------------------------------------------
// Fetch and issue
// ---------------------------------------------------------------------

std::int32_t
Engine::mapPc(std::int32_t pc)
{
    const std::int32_t primary = image_.blockAtPc(pc);
    if (opts_.predictFaultTargets) {
        const auto it = faultChoice_.find(pc);
        if (it != faultChoice_.end() && it->second.counter >= 2 &&
            it->second.target >= 0)
            return it->second.target;
    }
    return primary;
}

void
Engine::redirectTo(std::int32_t image_block)
{
    nextFetchImageBlock_ = image_block;
    fetchImageBlock_ = -1;
    fetchStall_ = opts_.redirectPenalty;
    fetchIdle_ = false;
}

void
Engine::decideNextFetch(BlockRec &block)
{
    block.predictionMade = true;

    if (perfect_) {
        if (traceIdx_ < trace_->size())
            nextFetchImageBlock_ = (*trace_)[traceIdx_++];
        else
            fetchIdle_ = true; // program exits inside a fetched block
        return;
    }

    const ImageBlock &ib = image_.block(block.imageId);
    const Node *term = ib.terminal();

    if (!term) {
        if (ib.fallthroughPc < 0)
            fetchIdle_ = true; // only an exit syscall can end this path
        else
            nextFetchImageBlock_ = mapPc(ib.fallthroughPc);
        return;
    }

    switch (term->op) {
      case Opcode::J:
        nextFetchImageBlock_ = mapPc(term->target);
        return;
      case Opcode::JAL:
        predictor_.pushReturn(term->origPc + 1);
        nextFetchImageBlock_ = mapPc(term->target);
        return;
      case Opcode::JR: {
        if (block.resolvedEarly) {
            block.predictedTargetPc = block.resolvedTargetPc;
            const auto it = image_.entryByPc.find(block.resolvedTargetPc);
            if (it == image_.entryByPc.end())
                fgp_fatal("JR to unmapped pc ", block.resolvedTargetPc);
            nextFetchImageBlock_ = it->second;
            return;
        }
        std::int32_t guess = -1;
        if (predictor_.rasEnabled())
            guess = predictor_.popReturn();
        if (guess < 0)
            guess = predictor_.predictIndirect(term->origPc);
        const auto it = guess >= 0 ? image_.entryByPc.find(guess)
                                   : image_.entryByPc.end();
        if (it != image_.entryByPc.end()) {
            block.predictedTargetPc = guess;
            nextFetchImageBlock_ = it->second;
        } else {
            block.predictedTargetPc = -1;
            fetchIdle_ = true;
            jrWaitBseq_ = block.bseq;
        }
        return;
      }
      default: { // conditional branch
        const bool taken =
            block.resolvedEarly
                ? block.resolvedTaken
                : predictor_.predictConditional(term->origPc, term->target);
        block.predictedTaken = taken;
        const std::int32_t pc = taken ? term->target : ib.fallthroughPc;
        nextFetchImageBlock_ = mapPc(pc);
        return;
      }
    }
}

void
Engine::issueCycle()
{
    if (fetchStall_ > 0) {
        --fetchStall_;
        ++fetchRedirectCycles_;
        return;
    }

    if (fetchImageBlock_ < 0) {
        if (fetchIdle_ || nextFetchImageBlock_ < 0) {
            ++fetchIdleCycles_;
            return;
        }
        if (static_cast<int>(nextBlockPos_ - headBlockPos_) >= windowCap_) {
            ++issueStallWindow_;
            return;
        }
        if (nextBlockPos_ - headBlockPos_ == ws_.blocks.size()) {
            ws_.growBlocks(headBlockPos_, nextBlockPos_);
            blockMask_ = ws_.blockMask();
        }
        BlockRec &nb = blockAt(nextBlockPos_);
        nb = BlockRec{};
        nb.bseq = bseqCounter_++;
        nb.imageId = nextFetchImageBlock_;
        nb.firstPos = nextPos_;
        nb.predictedTargetPc = -1;
        nb.resolvedTargetPc = -1;
        ++nextBlockPos_;
        fetchImageBlock_ = nextFetchImageBlock_;
        fetchBseq_ = nb.bseq;
        nextFetchImageBlock_ = -1;
    }

    // The block under fetch is always the window's youngest.
    const std::uint32_t bpos = nextBlockPos_ - 1;
    BlockRec &block = blockAt(bpos);
    fgp_assert(block.bseq == fetchBseq_, "fetch lost its block");
    const ImageBlock &ib = image_.block(block.imageId);
    fgp_assert(!ib.words.empty(), "image block ", ib.id,
               " has no issue words (image not translated?)");
    const Word &word = ib.words[block.issuedWords];

    for (std::uint16_t node_idx : word) {
        if (nextPos_ - headPos_ ==
            static_cast<std::uint32_t>(ws_.nodeSeq.size())) {
            ws_.growNodes(headPos_, nextPos_);
            nodeMask_ = ws_.nodeMask();
        }
        const std::uint32_t pos = nextPos_++;
        const std::uint64_t seq = seqCounter_++;
        const Node &node = ib.nodes[node_idx];

        ws_.nodeSeq[pos & nodeMask_] = seq;
        setState(pos, NState::Waiting);
        ExecRec &ex = execAt(pos);
        ex.node = &node;
        ex.value = 0;
        ex.unresolved = 0;
        ex.srcReadyMask = 0;
        memAt(pos) = MemRec{};
        metaAt(pos) = {bpos, node_idx};
        waitAt(pos) = {kNilIndex, kNilIndex};
        loadAt(pos) = {kNilIndex, kNilIndex};
        if (prof_) {
            profile::NodeProf &pr = profAt(pos);
            pr.issueCycle = static_cast<std::uint32_t>(cycle_);
            pr.readyCycle = pr.schedCycle = pr.completeCycle = 0;
            if (pendingRedirectSeq_) {
                // First node fetched after a redirect: its enabling
                // dependence is the resolving control node.
                pr.parentSeq = pendingRedirectSeq_;
                pr.edge = profile::EdgeKind::Branch;
                pendingRedirectSeq_ = 0;
            } else {
                pr.parentSeq = 0;
                pr.edge = profile::EdgeKind::Fetch;
            }
        }

        std::array<std::uint8_t, 5> srcs;
        ex.nSrc = static_cast<std::uint8_t>(node.srcRegs(srcs));
        for (int slot = 0; slot < ex.nSrc; ++slot) {
            const std::uint8_t reg = srcs[slot];
            if (reg == kRegNone || reg == kRegZero) {
                ex.srcVal[slot] = 0;
                ex.srcReadyMask |= 1u << slot;
                continue;
            }
            const RenameEntry &entry = rename_[reg];
            if (entry.ready) {
                ex.srcVal[slot] = entry.value;
                ex.srcReadyMask |= 1u << slot;
            } else {
                ++ex.unresolved;
                chainAppend(waitAt(entry.tagPos),
                            {seq, static_cast<std::uint64_t>(slot), pos});
            }
        }

        const std::uint8_t dst = node.dstReg();
        if (dst != kRegNone && dst != kRegZero)
            rename_[dst] = {false, 0, seq, pos};

        if (node.isStore()) {
            ws_.storeQueue.push_back({seq, pos});
            ws_.unknownStoreAddrs.push_back({seq, pos});
            if (opts_.conservativeLoads)
                ws_.unknownStoreData.push_back({seq, pos});
            tryStoreAgen(pos);
        }
        if (node.isSys())
            ws_.pendingSyscallSeqs.push_back({seq, pos});

        ++block.count;
        ++result_.issuedNodes;
        ++validCount_;
        ++activeCount_;
        if (ex.unresolved == 0)
            onDataReady(pos);
    }

    OBS_EMIT(.kind = obs::EventKind::Issue, .cycle = cycle_,
             .bseq = block.bseq, .imageId = block.imageId, .block = &ib,
             .wordIdx = static_cast<std::int32_t>(block.issuedWords));
    const std::size_t width =
        static_cast<std::size_t>(opts_.config.issue.width());
    if (word.size() < width)
        shortWordSlots_ += width - word.size();
    ++result_.blockStats[block.imageId].issuedWords;
    ++issueCycles_;
    if (isStatic_)
        ws_.wordQueue.push_back(
            {block.bseq, bpos, block.issuedWords,
             block.count - static_cast<std::uint32_t>(word.size())});

    if (++block.issuedWords == ib.words.size()) {
        block.fullyIssued = true;
        decideNextFetch(block);
        fetchImageBlock_ = -1;
    }
}

// ---------------------------------------------------------------------
// Squash / repair
// ---------------------------------------------------------------------

void
Engine::squashFrom(std::uint64_t bseq_inclusive)
{
    if (headBlockPos_ == nextBlockPos_ ||
        blockAt(nextBlockPos_ - 1).bseq < bseq_inclusive) {
        // Nothing younger is in flight; still cancel any in-progress fetch.
        fetchImageBlock_ = -1;
        rebuildRenameMap();
        return;
    }

    // Pop victim blocks, youngest first; the last (oldest) victim sets
    // the pos/seq boundary for the suffix repairs below.
    const std::uint32_t oldNextPos = nextPos_;
    std::uint32_t boundaryPos = nextPos_;
    std::uint64_t seqBoundary = 0;
    while (headBlockPos_ != nextBlockPos_ &&
           blockAt(nextBlockPos_ - 1).bseq >= bseq_inclusive) {
        const BlockRec &victim = blockAt(nextBlockPos_ - 1);
        fgp_assert(victim.count, "squashing an empty block");
        OBS_EMIT(.kind = obs::EventKind::Squash, .cycle = cycle_,
                 .bseq = victim.bseq, .imageId = victim.imageId,
                 .count = victim.count);
        BlockStat &bs = result_.blockStats[victim.imageId];
        ++bs.squashedBlocks;
        bs.squashedNodes += victim.count;
        for (std::uint32_t p = victim.firstPos;
             p != victim.firstPos + victim.count; ++p) {
            --validCount_;
            const NState s = stateAt(p);
            if (s == NState::Waiting || s == NState::Ready)
                --activeCount_;
            if (s == NState::Ready)
                --readyCount_;
        }
        ++result_.squashedBlocks;
        boundaryPos = victim.firstPos;
        seqBoundary = seqAt(victim.firstPos);
        --nextBlockPos_;
    }
    nextPos_ = boundaryPos;

    auto &storeQueue = ws_.storeQueue;
    while (!storeQueue.empty() && storeQueue.back().seq >= seqBoundary)
        storeQueue.pop_back();
    ws_.storeIndex.squash(seqBoundary);
    while (!ws_.unknownStoreAddrs.empty() &&
           ws_.unknownStoreAddrs.back().seq >= seqBoundary)
        ws_.unknownStoreAddrs.pop_back();
    while (!ws_.pendingSyscallSeqs.empty() &&
           ws_.pendingSyscallSeqs.back().seq >= seqBoundary)
        ws_.pendingSyscallSeqs.pop_back();
    while (!ws_.unknownStoreData.empty() &&
           ws_.unknownStoreData.back().seq >= seqBoundary)
        ws_.unknownStoreData.pop_back();
    while (!ws_.wordQueue.empty() &&
           ws_.wordQueue.back().bseq >= bseq_inclusive)
        ws_.wordQueue.pop_back();

    // Squashed nodes' chains: wait chains die with their consumers
    // (every waiter on a squashed producer is younger, hence squashed
    // too); load chains re-attempt every parked load, oldest blocker
    // first — surviving loads re-park on a live blocker at the next
    // refresh. Ascending pos is ascending blocker seq, matching the old
    // ordered-map drain.
    for (std::uint32_t p = boundaryPos; p != oldNextPos; ++p) {
        releaseChain(waitAt(p));
        ChainRef &lc = loadAt(p);
        std::uint32_t idx = lc.head;
        lc.head = lc.tail = kNilIndex;
        while (idx != kNilIndex) {
            const ChainItem item = ws_.chains.at(idx);
            const std::uint32_t nxt = ws_.chains.next(idx);
            ws_.chains.release(idx);
            --parkedLoads_;
            ws_.retryLoads.push_back({item.seq, item.pos});
            idx = nxt;
        }
    }
    sysWake_ = true;

    fetchImageBlock_ = -1; // any in-progress fetch was on the wrong path
    rebuildRenameMap();
}

void
Engine::rebuildRenameMap()
{
    for (std::uint8_t r = 0; r < kNumRegs; ++r)
        rename_[r] = {true, committedRegs_[r], 0, 0};
    for (std::uint32_t p = headPos_; p != nextPos_; ++p) {
        const std::uint8_t dst = execAt(p).node->dstReg();
        if (dst == kRegNone || dst == kRegZero)
            continue;
        if (stateAt(p) == NState::Done)
            rename_[dst] = {true, execAt(p).value, 0, 0};
        else
            rename_[dst] = {false, 0, seqAt(p), p};
    }
}

// ---------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------

EngineResult
Engine::run()
{
    validateImage(image_);
    result_.issueWidth = opts_.config.issue.width();
    result_.blockStats.resize(image_.blocks.size());
    for (std::size_t i = 0; i < image_.blocks.size(); ++i)
        result_.blockStats[i].entryPc = image_.blocks[i].entryPc;
    const Program &prog = *image_.prog;
    if (!prog.data.empty())
        mem_.writeBytes(kDataBase, prog.data.data(), prog.data.size());
    os_.setInitialBrk(prog.initialBrk());
    committedRegs_[kRegSp] = kStackTop;
    rebuildRenameMap();

    if (perfect_) {
        fgp_assert(!trace_->empty(), "empty perfect trace");
        nextFetchImageBlock_ = (*trace_)[0];
        traceIdx_ = 1;
    } else {
        nextFetchImageBlock_ = image_.entryBlock;
    }

    std::uint64_t last_progress = 0;
    std::uint64_t progress_marker = 0;
    const std::uint64_t alloc_start = hook_ ? hook_() : 0;

    for (cycle_ = 0; cycle_ < opts_.maxCycles; ++cycle_) {
        processCompletions();
        if (exited_)
            break;
        retireBlocks();
        if (!isStatic_)
            refreshPending();
        if (isStatic_)
            scheduleStaticWord();
        else
            scheduleDynamic();
        if (exited_)
            break;
        issueCycle();
        result_.windowOccupancy.add(nextBlockPos_ - headBlockPos_);
        result_.peakLiveNodes =
            std::max<std::uint64_t>(result_.peakLiveNodes,
                                    nextPos_ - headPos_);
        result_.validNodes.add(static_cast<std::uint64_t>(validCount_));
        result_.activeNodes.add(static_cast<std::uint64_t>(activeCount_));
        result_.readyNodes.add(static_cast<std::uint64_t>(readyCount_));

        // Waiting-node attribution (same sampling point as the window
        // histograms). Ready nodes split into memory-parked loads,
        // serializing syscalls, and genuinely slot-starved work; the
        // parked count can transiently include loads squashed while
        // parked, so the FU-busy remainder is clamped at zero.
        StallBreakdown &st = result_.stalls;
        st.operandWaitNodeCycles +=
            static_cast<std::uint64_t>(activeCount_ - readyCount_);
        const std::uint64_t sys_waiting = ws_.pendingSys.size();
        st.memoryWaitNodeCycles += parkedLoads_;
        st.serializeWaitNodeCycles += sys_waiting;
        const std::uint64_t ready = static_cast<std::uint64_t>(readyCount_);
        st.fuBusyNodeCycles += ready > parkedLoads_ + sys_waiting
                                   ? ready - parkedLoads_ - sys_waiting
                                   : 0;

        if (prof_) {
            prof_->noteCycle(ready, nextPos_ - headPos_,
                             ws_.storeQueue.size(),
                             static_cast<std::uint64_t>(
                                 memsys_.writeBufferLines()));
            if (prof_->windowBoundary(cycle_))
                prof_->closeWindow(cycle_ + 1, profileCounters(),
                                   result_.blockStats, false);
        }

        // Watchdog: the machine must make progress (issue, execute or
        // retire something) regularly or the model has deadlocked.
        const std::uint64_t marker = result_.issuedNodes +
                                     result_.executedNodes +
                                     result_.retiredNodes;
        if (marker != progress_marker) {
            progress_marker = marker;
            last_progress = cycle_;
        } else if (cycle_ - last_progress > 100000) {
            fgp_panic("engine deadlock: no progress for 100000 cycles "
                      "(config ", opts_.config.name(), ")");
        }
    }
    if (!exited_)
        fgp_fatal("cycle budget exceeded (", opts_.maxCycles, ") on config ",
                  opts_.config.name());

    // Final, possibly partial window (the exit cycle's slots land here
    // as drain, closing the per-window books against the global ones).
    if (prof_)
        prof_->closeWindow(result_.cycles, profileCounters(),
                           result_.blockStats, true);

    if (hook_) {
        result_.allocSampled = true;
        result_.allocCycleLoop =
            hook_() - alloc_start - result_.allocSyscall;
    }
    result_.arenaNodeSlots = ws_.nodeSeq.size();
    result_.arenaBlockSlots = ws_.blocks.size();
    result_.arenaChainSlots = ws_.chains.size();

    predictor_.exportStats(result_.stats, "bpred.");
    memsys_.exportStats(result_.stats, "mem.");
    result_.stats.set("window_cap", static_cast<std::uint64_t>(windowCap_));
    result_.stats.set("issue_cycles", issueCycles_);
    // Match the incremental-add behaviour: a counter that never fired
    // leaves no key behind.
    if (fetchRedirectCycles_)
        result_.stats.set("fetch_redirect_cycles", fetchRedirectCycles_);
    if (fetchIdleCycles_)
        result_.stats.set("fetch_idle_cycles", fetchIdleCycles_);
    if (issueStallWindow_)
        result_.stats.set("issue_stall_window", issueStallWindow_);
    if (wordStallCycles_)
        result_.stats.set("word_stall_cycles", wordStallCycles_);
    result_.disambigFastLoads = disambigFastLoads_;
    result_.disambigProbesEliminated = disambigProbesEliminated_;
    result_.disambigCheckedPairs = disambigCheckedPairs_;
    if (disambigFastLoads_) {
        result_.stats.set("disambig.fast_loads", disambigFastLoads_);
        result_.stats.set("disambig.probes_eliminated",
                          disambigProbesEliminated_);
    }
    if (issueCycles_) {
        result_.stats.setReal(
            "issue_slot_utilization",
            static_cast<double>(result_.issuedNodes) /
                (static_cast<double>(issueCycles_) *
                 opts_.config.issue.width()));
    }

    // Close the issue-slot books: every slot of every cycle is either an
    // issued node or attributed to exactly one cause. The remainder is
    // the exit cycle's drained slots (issue never runs on the cycle the
    // program exits).
    {
        StallBreakdown &st = result_.stalls;
        const std::uint64_t width =
            static_cast<std::uint64_t>(result_.issueWidth);
        st.fetchRedirectSlots = fetchRedirectCycles_ * width;
        st.fetchIdleSlots = fetchIdleCycles_ * width;
        st.windowFullSlots = issueStallWindow_ * width;
        st.shortWordSlots = shortWordSlots_;
        const std::uint64_t total = result_.cycles * width;
        const std::uint64_t accounted =
            result_.issuedNodes + st.fetchRedirectSlots +
            st.fetchIdleSlots + st.windowFullSlots + st.shortWordSlots;
        fgp_assert(accounted <= total,
                   "stall accounting overran the issue-slot budget");
        st.drainSlots = total - accounted;

        // Mirror into the named-stats registry (nonzero keys only, like
        // the other issue counters).
        const auto put = [&](const char *name, std::uint64_t v) {
            if (v)
                result_.stats.set(name, v);
        };
        put("stall.slots_fetch_redirect", st.fetchRedirectSlots);
        put("stall.slots_fetch_idle", st.fetchIdleSlots);
        put("stall.slots_window_full", st.windowFullSlots);
        put("stall.slots_short_word", st.shortWordSlots);
        put("stall.slots_drain", st.drainSlots);
        put("stall.node_cycles_operand_wait", st.operandWaitNodeCycles);
        put("stall.node_cycles_memory_wait", st.memoryWaitNodeCycles);
        put("stall.node_cycles_serialize_wait", st.serializeWaitNodeCycles);
        put("stall.node_cycles_fu_busy", st.fuBusyNodeCycles);
    }

    if (bus_)
        bus_->finish();
    return result_;
}

#undef OBS_EMIT

} // namespace

void
setAllocHook(std::uint64_t (*hook)())
{
    g_allocHook.store(hook, std::memory_order_relaxed);
}

EngineResult
simulate(const CodeImage &image, SimOS &os, const EngineOptions &opts)
{
    // A caller-provided workspace pools every arena across calls; the
    // private fallback costs one construction but behaves identically.
    std::unique_ptr<EngineWorkspace> local;
    EngineWorkspace *ws = opts.workspace;
    if (!ws) {
        local = std::make_unique<EngineWorkspace>();
        ws = local.get();
    }
    Engine engine{image, os, opts, *ws};
    EngineResult result = engine.run();

    // Fold the finished run into the sweep-level registry (one batch of
    // counter adds per simulation; the cycle loop stays untouched).
    if (opts.metrics && opts.metrics->enabled()) {
        metrics::Registry &m = *opts.metrics;
        m.add("engine.sims", 1);
        m.add("engine.cycles", result.cycles);
        m.add("engine.retired_nodes", result.retiredNodes);
        m.add("engine.executed_nodes", result.executedNodes);
        m.add("engine.issued_nodes", result.issuedNodes);
        m.add("engine.committed_blocks", result.committedBlocks);
        m.add("engine.squashed_blocks", result.squashedBlocks);
        m.add("engine.branches_resolved", result.branchesResolved);
        m.add("engine.mispredicts", result.mispredicts);
        m.add("engine.faults_fired", result.faultsFired);
        m.add("engine.stall_slots", result.stalls.totalSlots());
        if (result.allocSampled) {
            m.add("engine.alloc.sampled_sims", 1);
            m.add("engine.alloc.cycle_loop", result.allocCycleLoop);
            m.add("engine.alloc.syscall", result.allocSyscall);
        }
        if (result.disambigFastLoads || result.disambigCheckedPairs) {
            m.add("engine.disambig.fast_loads", result.disambigFastLoads);
            m.add("engine.disambig.probes_eliminated",
                  result.disambigProbesEliminated);
            m.add("engine.disambig.checked_pairs",
                  result.disambigCheckedPairs);
            m.add("engine.disambig.violations", result.disambigViolations);
        }
        if (opts.profile) {
            m.add("profile.sims", 1);
            m.add("profile.windows", opts.profile->windows().size());
            m.add("profile.retired_log_nodes",
                  opts.profile->retiredLog().size());
        }
        // Pooled-arena occupancy (last writer wins: capacities are
        // monotone per workspace, so the final sim reports the
        // high-water marks).
        m.setGauge("engine.arena.node_slots",
                   static_cast<double>(result.arenaNodeSlots));
        m.setGauge("engine.arena.block_slots",
                   static_cast<double>(result.arenaBlockSlots));
        m.setGauge("engine.arena.chain_slots",
                   static_cast<double>(result.arenaChainSlots));
    }
    return result;
}

} // namespace fgp
