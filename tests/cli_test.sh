#!/bin/sh
# End-to-end test of the fgpsim CLI: the paper's three-stage pipeline
# (profile -> enlargement file -> simulation) plus asm/run on a file,
# the static verifier (check) and the static ILP analyzer (analyze),
# each against its JSON schema validator.
set -e
FGPSIM="$1"
CHECK_BENCH="$2"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Stage 1: statistics file.
"$FGPSIM" profile grep --out "$TMP/grep.prof" 2> "$TMP/log1"
grep -q "branch" "$TMP/grep.prof"

# Stage 2: enlargement file.
"$FGPSIM" bbe grep --profile "$TMP/grep.prof" --out "$TMP/grep.plan" \
    --max-chain 6 2> "$TMP/log2"
grep -q "chain" "$TMP/grep.plan"

# Stage 3: simulation consuming the plan; stdout must equal the VM's.
"$FGPSIM" run grep > "$TMP/vm.out" 2> /dev/null
"$FGPSIM" sim grep --config dyn4/8A/enlarged --plan "$TMP/grep.plan" \
    > "$TMP/sim.out" 2> "$TMP/stats"
cmp "$TMP/vm.out" "$TMP/sim.out"
grep -q "nodes per cycle" "$TMP/stats"

# Extensions reachable from the CLI.
"$FGPSIM" sim grep --config dyn256/8G/enlarged --ras 16 --window 32 \
    > /dev/null 2> "$TMP/stats2"
grep -q "cycles" "$TMP/stats2"

# asm/run on a user-supplied file with stdin.
cat > "$TMP/echo.s" <<'ASM'
        .data
buf:    .space 64
        .text
main:   li   v0, 3
        li   a0, 0
        la   a1, buf
        li   a2, 64
        syscall
        mov  r20, v0
        li   v0, 4
        li   a0, 1
        la   a1, buf
        mov  a2, r20
        syscall
        li   v0, 0
        li   a0, 0
        syscall
ASM
printf 'hello-cli' > "$TMP/input.txt"
"$FGPSIM" asm "$TMP/echo.s" | grep -q "block"
OUT="$("$FGPSIM" run "$TMP/echo.s" --stdin "$TMP/input.txt" 2>/dev/null)"
test "$OUT" = "hello-cli"

# Pipeline trace subcommand emits per-cycle events.
"$FGPSIM" trace "$TMP/echo.s" --config dyn4/8A/single \
    --stdin "$TMP/input.txt" 2> /dev/null | grep -q "retire"

# Static verifier: the whole pipeline (single -> enlarged via the plan
# from stage 2 -> translated) must verify clean.
"$FGPSIM" check grep --config dyn4/8A/enlarged --plan "$TMP/grep.plan" \
    > "$TMP/check.txt"
grep -q "check passed: 0 errors" "$TMP/check.txt"

# check --json validates against the fgpsim-check-v1 schema.
"$FGPSIM" check grep --config dyn4/8A/enlarged --plan "$TMP/grep.plan" \
    --json > "$TMP/check.json"
sh "$CHECK_BENCH" --validate-check "$TMP/check.json"

# A user-supplied file also verifies (single path: no enlargement).
"$FGPSIM" check "$TMP/echo.s" --config dyn4/8A/single \
    --stdin "$TMP/input.txt" | grep -q "check passed"

# Strict mode still exits 0 (uninitialized-read findings are warnings)
# and the schema holds with a non-empty diagnostics array.
"$FGPSIM" check grep --config dyn4/8A/single --strict --json \
    > "$TMP/check_strict.json"
sh "$CHECK_BENCH" --validate-check "$TMP/check_strict.json"

# Static ILP analyzer: human output carries the sound bound and a clean
# lint summary on the pipeline image built from the stage-2 plan.
"$FGPSIM" analyze grep --config dyn4/8A/enlarged --plan "$TMP/grep.plan" \
    > "$TMP/analyze.txt"
grep -q "static IPC bound" "$TMP/analyze.txt"
grep -q "chain audit" "$TMP/analyze.txt"
grep -q "analyze: 0 errors" "$TMP/analyze.txt"

# analyze --json validates against the fgpsim-analyze-v1 schema.
"$FGPSIM" analyze grep --config dyn4/8A/enlarged --plan "$TMP/grep.plan" \
    --json > "$TMP/analyze.json"
sh "$CHECK_BENCH" --validate-analyze "$TMP/analyze.json"

# A workload with lint findings: dead code after `j` plus an untargeted
# label. Non-strict runs exit 0 (warnings only); --strict exits nonzero.
cat > "$TMP/lint.s" <<'ASM'
main:   j    end
dead:   addi r8, r8, 1
end:    li   v0, 0
        li   a0, 0
        syscall
ASM
"$FGPSIM" analyze "$TMP/lint.s" --config dyn4/8A/single \
    > "$TMP/lint.txt"
grep -q "AN005" "$TMP/lint.txt"
grep -q "AN006" "$TMP/lint.txt"
if "$FGPSIM" analyze "$TMP/lint.s" --config dyn4/8A/single --strict \
    > /dev/null
then
    echo "expected strict analyze to fail on lint findings" >&2
    exit 1
fi
# The strict JSON dump still validates, with a non-empty diagnostics array.
"$FGPSIM" analyze "$TMP/lint.s" --config dyn4/8A/single --strict --json \
    > "$TMP/lint.json" || true
sh "$CHECK_BENCH" --validate-analyze "$TMP/lint.json"
grep -q '"code": "AN005"' "$TMP/lint.json"

# Exact-schedule oracle: summary line in the human output, and the JSON
# extension passes both the schema validator and the oracle sandwich
# gate (height <= lower <= upper <= greedy recomputed per block).
"$FGPSIM" analyze grep --config static/4A/enlarged --plan "$TMP/grep.plan" \
    --oracle > "$TMP/oracle.txt"
grep -q "exact-schedule oracle" "$TMP/oracle.txt"
"$FGPSIM" analyze grep --config static/4A/enlarged --plan "$TMP/grep.plan" \
    --oracle --json > "$TMP/oracle.json"
sh "$CHECK_BENCH" --validate-analyze "$TMP/oracle.json"
sh "$CHECK_BENCH" --validate-oracle "$TMP/oracle.json"
grep -q '"oracle_blocks"' "$TMP/oracle.json"

# A starved state budget degrades to certified intervals: AN010 warns,
# the gap table marks the block, plain runs still exit 0 and --strict
# exits 1 (the lint-finding class, not the bound-violation class).
"$FGPSIM" analyze grep --config static/4A/enlarged --plan "$TMP/grep.plan" \
    --oracle --oracle-budget 1 > "$TMP/oracle_budget.txt"
grep -q "AN010" "$TMP/oracle_budget.txt"
grep -q "budget out" "$TMP/oracle_budget.txt"
set +e
"$FGPSIM" analyze grep --config static/4A/enlarged --plan "$TMP/grep.plan" \
    --oracle --oracle-budget 1 --strict > /dev/null
rc=$?
set -e
test "$rc" = 1

# Starved runs are deterministic: byte-identical JSON across repeats.
"$FGPSIM" analyze grep --config static/4A/enlarged --plan "$TMP/grep.plan" \
    --oracle --oracle-budget 1 --json > "$TMP/oracle_b1.json"
"$FGPSIM" analyze grep --config static/4A/enlarged --plan "$TMP/grep.plan" \
    --oracle --oracle-budget 1 --json > "$TMP/oracle_b2.json"
cmp "$TMP/oracle_b1.json" "$TMP/oracle_b2.json"

# A broken sandwich is a distinct failure class: exit 4 even without
# --strict. Sound code cannot produce one, so FGP_ORACLE_XFAIL=1
# injects a synthetic violation to cover the path.
set +e
FGP_ORACLE_XFAIL=1 "$FGPSIM" analyze grep --config static/4A/enlarged \
    --plan "$TMP/grep.plan" --oracle > "$TMP/oracle_xfail.txt"
rc=$?
set -e
test "$rc" = 4
grep -q "ORACLE BOUND VIOLATION" "$TMP/oracle_xfail.txt"

# Interval profiler: human output carries the window table and the
# critical-path attribution; legacy `profile --out` above is untouched.
"$FGPSIM" profile grep --config dyn4/8A/enlarged --interval 5000 \
    --plan "$TMP/grep.plan" > "$TMP/profile.txt" 2> /dev/null
grep -q "critical path" "$TMP/profile.txt"
grep -q "ipc_bound" "$TMP/profile.txt"

# profile --json round-trips through the fgpsim-profile-v1 validator:
# per-window slot closure, window sums vs the run aggregates, and the
# critical-path bounds are all checked by the awk gate.
"$FGPSIM" profile grep --config dyn4/8A/enlarged --interval 5000 \
    --plan "$TMP/grep.plan" --json > "$TMP/profile.jsonl" 2> /dev/null
sh "$CHECK_BENCH" --validate-profile "$TMP/profile.jsonl"
grep -q '"kind":"critpath"' "$TMP/profile.jsonl"
grep -q '"kind":"critblock"' "$TMP/profile.jsonl"

# Every simulating subcommand translates under the same run options:
# with static disambiguation on, sim and profile schedule (and so
# report) the same cycles for one image.
FGP_STATIC_DISAMBIG=1 "$FGPSIM" sim compress --config static/8A/enlarged \
    --json > "$TMP/sim_sd.json" 2> /dev/null
FGP_STATIC_DISAMBIG=1 "$FGPSIM" profile compress \
    --config static/8A/enlarged --json > "$TMP/profile_sd.jsonl" 2> /dev/null
sim_cycles=$(grep -o '"cycles": *[0-9]*' "$TMP/sim_sd.json" | head -n 1 |
             tr -dc 0-9)
prof_cycles=$(head -n 1 "$TMP/profile_sd.jsonl" |
              grep -o '"cycles": *[0-9]*' | tr -dc 0-9)
if [ -z "$sim_cycles" ] || [ "$sim_cycles" != "$prof_cycles" ]; then
    echo "sim ($sim_cycles) and profile ($prof_cycles) cycles differ" >&2
    exit 1
fi

# Static configs profile too, and the stream still closes.
"$FGPSIM" profile sort --config static/4A/single --interval 2000 \
    --json > "$TMP/profile_static.jsonl" 2> /dev/null
sh "$CHECK_BENCH" --validate-profile "$TMP/profile_static.jsonl"

# profile --chrome rides the existing Chrome-trace sink: counter events
# (ph "C") with per-window IPC and stall shares.
"$FGPSIM" profile grep --config dyn4/8A/single --interval 5000 \
    --chrome "$TMP/profile.trace" > /dev/null 2>&1
grep -q '"ph":"C"' "$TMP/profile.trace"
grep -q '"name":"ipc"' "$TMP/profile.trace"

# report --top ranks blocks with their static IPC bounds alongside.
"$FGPSIM" report grep --config dyn4/8A/enlarged --top 5 \
    > "$TMP/report.txt" 2>&1
grep -q "ipc_bound" "$TMP/report.txt"

# fgpsim history: perf trajectory over a BENCH_history.jsonl file.
cat > "$TMP/history.jsonl" <<'JSONL'
{"schema":"fgpsim-run-v1","kind":"run","bench":"engine","git":"aaa1111","timestamp":1,"jobs":8,"scale":1,"sims":40,"wall_seconds":5.0,"sim_cycles":1000000,"host_ns_per_sim_cycle":800}
{"schema":"fgpsim-run-v1","kind":"run","bench":"engine","git":"bbb2222","timestamp":2,"jobs":8,"scale":1,"sims":40,"wall_seconds":2.5,"sim_cycles":1000000,"host_ns_per_sim_cycle":400}
JSONL
"$FGPSIM" history "$TMP/history.jsonl" > "$TMP/history.txt"
grep -q "aaa1111" "$TMP/history.txt"
grep -q -- "-50.0%" "$TMP/history.txt"
grep -q "2 runs" "$TMP/history.txt"

# A missing or empty history file is the normal fresh-checkout state,
# not an error: both exit 0 and say how to start accumulating runs.
"$FGPSIM" history "$TMP/no_such_history.jsonl" > "$TMP/history_missing.txt"
grep -q "no history file" "$TMP/history_missing.txt"
grep -q -- "--append" "$TMP/history_missing.txt"
: > "$TMP/empty_history.jsonl"
"$FGPSIM" history "$TMP/empty_history.jsonl" > "$TMP/history_empty.txt"
grep -q "no run records yet" "$TMP/history_empty.txt"
grep -q -- "--append" "$TMP/history_empty.txt"

# fgpsim compare: handcrafted fgpsim-run-v1 manifests. A run compared
# to itself is clean; an IPC drop or a wall-time blowup past tolerance
# exits nonzero (the CI perf gate contract).
cat > "$TMP/run_a.jsonl" <<'JSONL'
{"schema":"fgpsim-run-v1","kind":"run","bench":"t","git":"abc","build":"ndebug","timestamp":1,"jobs":1,"scale":1,"run_options":{"static_disambig":false,"oracle_sched":false,"oracle_budget":250000,"checks":false},"sims":2,"wall_seconds":1.0,"sim_cycles":1000,"host_ns_per_sim_cycle":100}
{"kind":"point","workload":"sort","config":"dyn4/8A/enlarged","nodes_per_cycle":2.0,"cycles":500,"host_ns":1000}
{"kind":"point","workload":"grep","config":"dyn4/8A/enlarged","nodes_per_cycle":1.0,"cycles":500,"host_ns":1000}
JSONL
sh "$CHECK_BENCH" --validate-run "$TMP/run_a.jsonl"
# The run header must carry its provenance: the build type and every
# behaviour knob.
for drop in 's/"build":"ndebug",//' 's/,"checks":false//' \
            's/"run_options":{[^}]*},//'; do
    sed "$drop" "$TMP/run_a.jsonl" > "$TMP/run_noprov.jsonl"
    if sh "$CHECK_BENCH" --validate-run "$TMP/run_noprov.jsonl" \
        2> /dev/null; then
        echo "expected --validate-run to reject: $drop" >&2
        exit 1
    fi
done
"$FGPSIM" compare "$TMP/run_a.jsonl" "$TMP/run_a.jsonl" > /dev/null

# A 20% IPC drop on one point regresses at the default 10% tolerance...
sed 's/"nodes_per_cycle":2.0/"nodes_per_cycle":1.6/' "$TMP/run_a.jsonl" \
    > "$TMP/run_ipc.jsonl"
if "$FGPSIM" compare "$TMP/run_a.jsonl" "$TMP/run_ipc.jsonl" > /dev/null
then
    echo "expected IPC regression" >&2
    exit 1
fi
# ...and is tolerated at 25%.
"$FGPSIM" compare "$TMP/run_a.jsonl" "$TMP/run_ipc.jsonl" \
    --tolerance 25% > /dev/null

# Doubled wall time: regression, unless --wall-tolerance is loosened.
sed 's/"wall_seconds":1.0/"wall_seconds":2.0/' "$TMP/run_a.jsonl" \
    > "$TMP/run_wall.jsonl"
if "$FGPSIM" compare "$TMP/run_a.jsonl" "$TMP/run_wall.jsonl" > /dev/null
then
    echo "expected wall-time regression" >&2
    exit 1
fi
"$FGPSIM" compare "$TMP/run_a.jsonl" "$TMP/run_wall.jsonl" \
    --wall-tolerance 150% > /dev/null

# --json output carries the compare schema and the verdict.
"$FGPSIM" compare "$TMP/run_a.jsonl" "$TMP/run_a.jsonl" --json \
    > "$TMP/compare.json"
grep -q '"schema": "fgpsim-compare-v1"' "$TMP/compare.json"
grep -q '"regressed": false' "$TMP/compare.json"

# Mismatched cell sets are a distinct failure (exit 3, not the
# regression exit 1): the unmatched keys are named on stderr.
grep -v '"workload":"grep"' "$TMP/run_a.jsonl" > "$TMP/run_short.jsonl"
set +e
"$FGPSIM" compare "$TMP/run_a.jsonl" "$TMP/run_short.jsonl" \
    > /dev/null 2> "$TMP/mismatch.err"
rc=$?
set -e
test "$rc" = 3
grep -q "only in A" "$TMP/mismatch.err"
grep -q "grep dyn4/8A/enlarged" "$TMP/mismatch.err"
grep -q "MISMATCHED cell sets" "$TMP/mismatch.err"
# The JSON mode reports the same verdict machine-readably.
set +e
"$FGPSIM" compare "$TMP/run_a.jsonl" "$TMP/run_short.jsonl" --json \
    > "$TMP/mismatch.json"
rc=$?
set -e
test "$rc" = 3
grep -q '"mismatched": true' "$TMP/mismatch.json"
grep -q '"grep dyn4/8A/enlarged"' "$TMP/mismatch.json"

# A failing IPC gate prints per-cell differential attribution inline.
set +e
"$FGPSIM" compare "$TMP/run_a.jsonl" "$TMP/run_ipc.jsonl" \
    > "$TMP/compare_fail.txt" 2>&1
set -e
grep -q "Differential attribution" "$TMP/compare_fail.txt"
grep -q "== sort dyn4/8A/enlarged ==" "$TMP/compare_fail.txt"

# fgpsim diff: the tentpole round-trip. Profile the same workload twice
# (baseline vs conservative loads — genuinely different schedules), diff
# the streams, and push the fgpsim-diff-v1 output through the validator:
# every aligned window's IPC delta must decompose into the stall-slot
# breakdown with zero residual, recomputed independently by the awk gate.
"$FGPSIM" profile grep --config dyn4/8A/enlarged --interval 5000 \
    --plan "$TMP/grep.plan" --conservative --json \
    > "$TMP/profile_cons.jsonl" 2> /dev/null
"$FGPSIM" diff "$TMP/profile.jsonl" "$TMP/profile_cons.jsonl" --json \
    > "$TMP/diff.jsonl"
sh "$CHECK_BENCH" --validate-diff "$TMP/diff.jsonl"
grep -q '"kind":"wdelta"' "$TMP/diff.jsonl"
grep -q '"kind":"dcause"' "$TMP/diff.jsonl"
grep -q '"kind":"divergence"' "$TMP/diff.jsonl"

# Human output names the cell and the schedule verdict.
"$FGPSIM" diff "$TMP/profile.jsonl" "$TMP/profile_cons.jsonl" \
    > "$TMP/diff.txt"
grep -q "== grep dyn4/8A/enlarged ==" "$TMP/diff.txt"
grep -q "Windows that moved most" "$TMP/diff.txt"

# A stream diffed against itself is clean: identical fingerprints.
"$FGPSIM" diff "$TMP/profile.jsonl" "$TMP/profile.jsonl" \
    | grep -q "identical"

# --retired streams carry the full retired-node log (validator-checked:
# record count must equal the header's retired_nodes; critedge rows must
# sum exactly to the critical path).
"$FGPSIM" profile sort --config static/4A/single --interval 2000 \
    --json --retired > "$TMP/profile_ret.jsonl" 2> /dev/null
sh "$CHECK_BENCH" --validate-profile "$TMP/profile_ret.jsonl"
grep -q '"kind":"retired"' "$TMP/profile_ret.jsonl"
grep -q '"kind":"critedge"' "$TMP/profile_ret.jsonl"

# Seed a one-node perturbation into the retired log: diff must pinpoint
# the exact window, node and field, at node level.
awk 'BEGIN{n=0}
     /"kind":"retired"/{n++; if (n==100)
         sub(/"sched_cycle":[0-9]+/, "\"sched_cycle\":54321")}
     {print}' "$TMP/profile_ret.jsonl" > "$TMP/profile_ret_b.jsonl"
"$FGPSIM" diff "$TMP/profile_ret.jsonl" "$TMP/profile_ret_b.jsonl" --json \
    > "$TMP/diff_ret.jsonl"
sh "$CHECK_BENCH" --validate-diff "$TMP/diff_ret.jsonl"
grep -q '"level":"node"' "$TMP/diff_ret.jsonl"
grep -q '"log_index":99,' "$TMP/diff_ret.jsonl"
grep -q '"field":"sched_cycle"' "$TMP/diff_ret.jsonl"
grep -q '"value_b":54321' "$TMP/diff_ret.jsonl"
"$FGPSIM" diff "$TMP/profile_ret.jsonl" "$TMP/profile_ret_b.jsonl" \
    | grep -q "DIVERGED"

# --folded writes the two-column folded-stack file flamegraph diff
# tooling consumes; --chrome writes an A/B overlay (two named pids).
"$FGPSIM" diff "$TMP/profile.jsonl" "$TMP/profile_cons.jsonl" \
    --folded "$TMP/diff.folded" --chrome "$TMP/diff.trace" > /dev/null
grep -q "^grep;dyn4/8A/enlarged;" "$TMP/diff.folded"
# Two trailing count columns (A and B) after the semicolon-joined stack.
awk '{ if (NF != 3) exit 1 }' "$TMP/diff.folded"
grep -q '"pid":1' "$TMP/diff.trace"
grep -q '"pid":2' "$TMP/diff.trace"
grep -q '"name":"process_name"' "$TMP/diff.trace"

# Manifests diff too: whole-run stall totals become one synthesized
# window per cell, and the residual still recomputes to zero.
"$FGPSIM" diff "$TMP/run_a.jsonl" "$TMP/run_ipc.jsonl" --json \
    > "$TMP/diff_run.jsonl"
sh "$CHECK_BENCH" --validate-diff "$TMP/diff_run.jsonl"

# fgpsim history grows per-point IPC columns when the run records carry
# the engine metrics: +20% retired nodes at equal cycles is +20.0% IPC.
cat > "$TMP/history_ipc.jsonl" <<'JSONL'
{"schema":"fgpsim-run-v1","kind":"run","bench":"engine","git":"ccc3333","timestamp":3,"jobs":8,"scale":1,"sims":40,"wall_seconds":5.0,"sim_cycles":1000000,"host_ns_per_sim_cycle":800,"engine.retired_nodes":2000000}
{"schema":"fgpsim-run-v1","kind":"run","bench":"engine","git":"ddd4444","timestamp":4,"jobs":8,"scale":1,"sims":40,"wall_seconds":2.5,"sim_cycles":1000000,"host_ns_per_sim_cycle":400,"engine.retired_nodes":2400000}
JSONL
"$FGPSIM" history "$TMP/history_ipc.jsonl" > "$TMP/history_ipc.txt"
grep -q "2.000" "$TMP/history_ipc.txt"
grep -q "2.400" "$TMP/history_ipc.txt"
grep -q -- "+20.0%" "$TMP/history_ipc.txt"
# Records without the engine metrics still render (dash columns).
grep -q "d_ipc" "$TMP/history.txt"

# Bad inputs fail cleanly.
if "$FGPSIM" sim grep --config bogus 2> /dev/null; then
    echo "expected failure on bogus config" >&2
    exit 1
fi
if "$FGPSIM" compare "$TMP/run_a.jsonl" 2> /dev/null; then
    echo "expected failure on compare with one file" >&2
    exit 1
fi
if "$FGPSIM" diff "$TMP/profile.jsonl" 2> /dev/null; then
    echo "expected failure on diff with one file" >&2
    exit 1
fi
echo "cli test ok"
