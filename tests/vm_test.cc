/** Functional interpreter and SimOS semantics tests. */

#include <gtest/gtest.h>

#include "base/logging.hh"

#include "base/strutil.hh"
#include "masm/assembler.hh"
#include "vm/interp.hh"
#include "vm/memory.hh"

namespace fgp {
namespace {

/** Run a fragment that stores its result to `result` and exits. */
std::uint32_t
runFragment(const std::string &body)
{
    const std::string source = R"(
        .data
result: .word 0
        .text
main:
)" + body + R"(
        la   r1, result
        sw   r28, 0(r1)
        li   v0, 0
        li   a0, 0
        syscall
)";
    const Program prog = assemble(source, "fragment");
    SimOS os;
    SparseMemory mem;
    const RunResult r = interpret(prog, os, mem);
    EXPECT_TRUE(r.exited);
    return mem.read32(kDataBase);
}

struct AluCase
{
    const char *body;
    std::uint32_t expect;
};

/**
 * gtest names each case after its printed value; without this it dumps the
 * struct's raw bytes (a string pointer and padding), which differ per build.
 */
void
PrintTo(const AluCase &c, std::ostream *os)
{
    std::string body = c.body;
    if (!body.empty() && body.back() == '\n')
        body.pop_back();
    for (char &ch : body)
        if (ch == '\n')
            ch = '|';
    *os << body << " => " << c.expect;
}

class AluSemantics : public ::testing::TestWithParam<AluCase>
{
};

TEST_P(AluSemantics, Computes)
{
    EXPECT_EQ(runFragment(GetParam().body), GetParam().expect);
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, AluSemantics,
    ::testing::Values(
        AluCase{"li r8, 7\nli r9, 5\nadd r28, r8, r9\n", 12},
        AluCase{"li r8, 7\nli r9, 5\nsub r28, r8, r9\n", 2},
        AluCase{"li r8, 5\nli r9, 7\nsub r28, r8, r9\n", 0xfffffffe},
        AluCase{"li r8, 6\nli r9, 7\nmul r28, r8, r9\n", 42},
        AluCase{"li r8, -6\nli r9, 7\nmul r28, r8, r9\n", 0xffffffd6},
        AluCase{"li r8, 43\nli r9, 7\ndiv r28, r8, r9\n", 6},
        AluCase{"li r8, -43\nli r9, 7\ndiv r28, r8, r9\n", 0xfffffffa},
        AluCase{"li r8, 43\nli r9, 0\ndiv r28, r8, r9\n", 0xffffffff},
        AluCase{"li r8, 43\nli r9, 7\nrem r28, r8, r9\n", 1},
        AluCase{"li r8, -43\nli r9, 7\nrem r28, r8, r9\n",
                static_cast<std::uint32_t>(-1)},
        AluCase{"li r8, 43\nli r9, 0\nrem r28, r8, r9\n", 43},
        AluCase{"li r8, 0x80000000\nli r9, -1\ndiv r28, r8, r9\n",
                0x80000000u},
        AluCase{"li r8, 0x80000000\nli r9, -1\nrem r28, r8, r9\n", 0}));

INSTANTIATE_TEST_SUITE_P(
    Logic, AluSemantics,
    ::testing::Values(
        AluCase{"li r8, 0xf0\nli r9, 0x3c\nand r28, r8, r9\n", 0x30},
        AluCase{"li r8, 0xf0\nli r9, 0x3c\nor r28, r8, r9\n", 0xfc},
        AluCase{"li r8, 0xf0\nli r9, 0x3c\nxor r28, r8, r9\n", 0xcc},
        AluCase{"li r8, 0xff\nandi r28, r8, 0x0f\n", 0x0f},
        AluCase{"li r8, 0xf0\nori r28, r8, 0x0f\n", 0xff},
        AluCase{"li r8, 0xff\nxori r28, r8, 0x0f\n", 0xf0},
        AluCase{"li r8, 1\nnot r28, r8\n", 0xfffffffe}));

INSTANTIATE_TEST_SUITE_P(
    Shifts, AluSemantics,
    ::testing::Values(
        AluCase{"li r8, 1\nli r9, 4\nsll r28, r8, r9\n", 16},
        AluCase{"li r8, 1\nli r9, 36\nsll r28, r8, r9\n", 16}, // mask 31
        AluCase{"li r8, 0x80000000\nli r9, 4\nsrl r28, r8, r9\n",
                0x08000000u},
        AluCase{"li r8, 0x80000000\nli r9, 4\nsra r28, r8, r9\n",
                0xf8000000u},
        AluCase{"li r8, 3\nslli r28, r8, 2\n", 12},
        AluCase{"li r8, -8\nsrai r28, r8, 1\n", 0xfffffffcu},
        AluCase{"li r8, -8\nsrli r28, r8, 1\n", 0x7ffffffcu},
        AluCase{"lui r28, 0x1234\n", 0x12340000u}));

INSTANTIATE_TEST_SUITE_P(
    Compare, AluSemantics,
    ::testing::Values(
        AluCase{"li r8, -1\nli r9, 1\nslt r28, r8, r9\n", 1},
        AluCase{"li r8, -1\nli r9, 1\nsltu r28, r8, r9\n", 0},
        AluCase{"li r8, 1\nli r9, 1\nslt r28, r8, r9\n", 0},
        AluCase{"li r8, -5\nslti r28, r8, -4\n", 1},
        AluCase{"li r8, 3\nsltiu r28, r8, 9\n", 1}));

TEST(Vm, ZeroRegisterIsHardwired)
{
    EXPECT_EQ(runFragment("li r0, 99\nmov r28, r0\n"), 0u);
    EXPECT_EQ(runFragment("li r8, 5\nadd r0, r8, r8\nmov r28, r0\n"), 0u);
}

TEST(Vm, LoadStoreByteAndWord)
{
    EXPECT_EQ(runFragment(R"(
        la   r1, result
        li   r8, 0x11223344
        sw   r8, 0(r1)
        lb   r28, 1(r1)
)"),
              0x33u);
    EXPECT_EQ(runFragment(R"(
        la   r1, result
        li   r8, -1
        sb   r8, 0(r1)
        lb   r28, 0(r1)
)"),
              0xffffffffu);
    EXPECT_EQ(runFragment(R"(
        la   r1, result
        li   r8, -1
        sb   r8, 0(r1)
        lbu  r28, 0(r1)
)"),
              0xffu);
}

TEST(Vm, UnalignedWordAccess)
{
    EXPECT_EQ(runFragment(R"(
        la   r1, result
        li   r8, 0xAABBCCDD
        sw   r8, 1(r1)
        lw   r28, 1(r1)
)"),
              0xAABBCCDDu);
}

TEST(Vm, BranchDirections)
{
    EXPECT_EQ(runFragment(R"(
        li   r8, 1
        li   r28, 0
        beqz r8, skip
        li   r28, 1
skip:   nop
)"),
              1u);
    EXPECT_EQ(runFragment(R"(
        li   r8, -2
        li   r9, 3
        li   r28, 0
        bltu r8, r9, skip   # unsigned: 0xfffffffe is not < 3
        li   r28, 1
skip:   nop
)"),
              1u);
    EXPECT_EQ(runFragment(R"(
        li   r8, -2
        li   r9, 3
        li   r28, 0
        blt  r8, r9, skip   # signed: -2 < 3
        li   r28, 1
skip:   nop
)"),
              0u);
}

TEST(Vm, CallAndReturn)
{
    EXPECT_EQ(runFragment(R"(
        li   r28, 1
        jal  double_it
        jal  double_it
        j    done
double_it:
        add  r28, r28, r28
        jr   ra
done:   nop
)"),
              4u);
}

TEST(Vm, DynamicNodeCountsByClass)
{
    const Program prog = assemble(R"(
main:   li   r8, 2          # alu
loop:   addi r8, r8, -1     # alu x2
        bnez r8, loop       # control x2
        la   r1, buf        # alu
        lw   r9, 0(r1)      # mem load
        sw   r9, 4(r1)      # mem store
        li   v0, 0          # alu
        li   a0, 0          # alu
        syscall             # counts as one (alu-slot) node
        .data
buf:    .space 16
)");
    SimOS os;
    const RunResult r = interpret(prog, os);
    EXPECT_EQ(r.dynamicNodes, 11u);
    EXPECT_EQ(r.controlNodes, 2u);
    EXPECT_EQ(r.memNodes, 2u);
    EXPECT_EQ(r.loadNodes, 1u);
    EXPECT_EQ(r.storeNodes, 1u);
    EXPECT_EQ(r.aluNodes, 7u);
}

TEST(Vm, ProfileRecordsArcs)
{
    const Program prog = assemble(R"(
main:   li   r8, 3
loop:   addi r8, r8, -1
        bnez r8, loop
        j    tail
tail:   li   v0, 0
        li   a0, 0
        syscall
)");
    Profile profile;
    SimOS os;
    InterpOptions opts;
    opts.profile = &profile;
    interpret(prog, os, opts);

    const std::int32_t branch_pc = prog.codeLabels.at("loop") + 1;
    ASSERT_TRUE(profile.arcs.count(branch_pc));
    EXPECT_EQ(profile.arcs.at(branch_pc).taken, 2u);
    EXPECT_EQ(profile.arcs.at(branch_pc).notTaken, 1u);
    EXPECT_TRUE(profile.arcs.at(branch_pc).hotIsTaken());
    EXPECT_EQ(profile.totalBranches, 3u);
    const std::int32_t jump_pc = branch_pc + 1;
    EXPECT_EQ(profile.jumps.at(jump_pc), 1u);
}

TEST(Vm, ExitCodePropagates)
{
    const Program prog = assemble("main: li v0, 0\nli a0, 17\nsyscall\n");
    SimOS os;
    const RunResult r = interpret(prog, os);
    EXPECT_TRUE(r.exited);
    EXPECT_EQ(r.exitCode, 17);
}

TEST(Vm, RunawayGuard)
{
    const Program prog = assemble("main: j main\n");
    SimOS os;
    InterpOptions opts;
    opts.maxNodes = 1000;
    EXPECT_THROW(interpret(prog, os, opts), FatalError);
}

TEST(SimOs, StdoutCapture)
{
    const Program prog = assemble(R"(
main:   li   v0, 4
        li   a0, 1
        la   a1, msg
        li   a2, 5
        syscall
        li   v0, 0
        li   a0, 0
        syscall
        .data
msg:    .asciiz "hello"
)");
    SimOS os;
    interpret(prog, os);
    EXPECT_EQ(os.stdoutText(), "hello");
}

TEST(SimOs, StdinRead)
{
    const Program prog = assemble(R"(
        .data
buf:    .space 8
        .text
main:   li   v0, 3
        li   a0, 0
        la   a1, buf
        li   a2, 8
        syscall
        mov  r8, v0        # bytes read
        li   v0, 4
        li   a0, 1
        la   a1, buf
        mov  a2, r8
        syscall
        li   v0, 0
        li   a0, 0
        syscall
)");
    SimOS os;
    os.setStdin("abc");
    interpret(prog, os);
    EXPECT_EQ(os.stdoutText(), "abc");
}

TEST(SimOs, FileOpenReadClose)
{
    const Program prog = assemble(R"(
        .data
path:   .asciiz "in.txt"
buf:    .space 16
        .text
main:   li   v0, 1
        la   a0, path
        li   a1, 0
        syscall            # open
        mov  r20, v0
        li   v0, 3
        mov  a0, r20
        la   a1, buf
        li   a2, 16
        syscall            # read
        mov  r21, v0
        li   v0, 2
        mov  a0, r20
        syscall            # close
        li   v0, 4
        li   a0, 1
        la   a1, buf
        mov  a2, r21
        syscall            # write what we read
        li   v0, 0
        li   a0, 0
        syscall
)");
    SimOS os;
    os.addFile("in.txt", std::string("filedata"));
    interpret(prog, os);
    EXPECT_EQ(os.stdoutText(), "filedata");
}

TEST(SimOs, OpenMissingFileFails)
{
    SimOS os;
    SparseMemory mem;
    mem.write8(kDataBase, 'x');
    const MemPorts ports{
        [&](std::uint32_t a) { return mem.read8(a); },
        [&](std::uint32_t a, std::uint8_t v) { mem.write8(a, v); }};
    const std::uint32_t fd = os.syscall(
        static_cast<std::uint32_t>(Sys::Open), kDataBase, 0, 0, 0, ports);
    EXPECT_EQ(fd, static_cast<std::uint32_t>(-1));
}

TEST(SimOs, BrkGrowsAndQueries)
{
    SimOS os;
    os.setInitialBrk(kDataBase + 100);
    const MemPorts ports{[](std::uint32_t) { return std::uint8_t{0}; },
                         [](std::uint32_t, std::uint8_t) {}};
    const auto query = os.syscall(static_cast<std::uint32_t>(Sys::Brk), 0, 0,
                                  0, 0, ports);
    EXPECT_EQ(query, kDataBase + 100);
    const auto grown = os.syscall(static_cast<std::uint32_t>(Sys::Brk),
                                  kDataBase + 4096, 0, 0, 0, ports);
    EXPECT_EQ(grown, kDataBase + 4096);
    // Shrinking below the current break is refused.
    const auto refused = os.syscall(static_cast<std::uint32_t>(Sys::Brk),
                                    kDataBase, 0, 0, 0, ports);
    EXPECT_EQ(refused, kDataBase + 4096);
}

TEST(SimOs, WriteToFile)
{
    SimOS os;
    SparseMemory mem;
    const char *path = "out.txt";
    for (std::size_t i = 0; path[i]; ++i)
        mem.write8(kDataBase + static_cast<std::uint32_t>(i),
                   static_cast<std::uint8_t>(path[i]));
    mem.write8(kDataBase + 7, 0);
    mem.write8(kDataBase + 16, 'Q');
    const MemPorts ports{
        [&](std::uint32_t a) { return mem.read8(a); },
        [&](std::uint32_t a, std::uint8_t v) { mem.write8(a, v); }};
    const auto fd = os.syscall(static_cast<std::uint32_t>(Sys::Open),
                               kDataBase, 1, 0, 0, ports);
    ASSERT_NE(fd, static_cast<std::uint32_t>(-1));
    const auto n = os.syscall(static_cast<std::uint32_t>(Sys::Write), fd,
                              kDataBase + 16, 1, 0, ports);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(os.fileText("out.txt"), "Q");
}

TEST(Memory, SparsePagesAndDefaults)
{
    SparseMemory mem;
    EXPECT_EQ(mem.read8(0x12345678), 0u);
    EXPECT_EQ(mem.read32(0xdeadbeef), 0u);
    mem.write32(0x1000, 0x01020304);
    EXPECT_EQ(mem.read8(0x1000), 4u);
    EXPECT_EQ(mem.read8(0x1003), 1u);
    EXPECT_EQ(mem.read32(0x1000), 0x01020304u);
}

TEST(Memory, CrossPageAccess)
{
    SparseMemory mem;
    const std::uint32_t edge = SparseMemory::kPageSize - 2;
    mem.write32(edge, 0xCAFEBABE);
    EXPECT_EQ(mem.read32(edge), 0xCAFEBABEu);
    EXPECT_EQ(mem.numPages(), 2u);
}

TEST(Memory, ReadCString)
{
    SparseMemory mem;
    const char *s = "abc";
    mem.writeBytes(64, reinterpret_cast<const std::uint8_t *>(s), 4);
    EXPECT_EQ(mem.readCString(64), "abc");
    EXPECT_EQ(mem.readCString(64, 2), "ab"); // bounded
}

} // namespace
} // namespace fgp
