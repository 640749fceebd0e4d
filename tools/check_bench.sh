#!/bin/sh
# Validate and compare fgpsim machine-readable records.
#
#   tools/check_bench.sh <previous.json> <current.json> [max_regress_pct]
#       Schema-validate two BENCH_engine.json records emitted by
#       bench/perf_selfcheck and fail when the new wall time regresses
#       by more than the threshold (default 20 percent). A missing
#       previous record is not an error — the current record simply
#       becomes the new baseline.
#
#   tools/check_bench.sh --validate-bench <record.json>
#       Schema-validate one BENCH_engine.json record and exit.
#
#   tools/check_bench.sh --validate-sim <dump.json>
#       Schema-validate an `fgpsim sim --json` / `fgpsim report --json`
#       dump ("fgpsim-sim-v1"): required numeric keys, the stall
#       breakdown, and the issue-slot accounting identity
#       total == issued_nodes + sum(per-cause slots).
#
#   tools/check_bench.sh --validate-check <dump.json>
#       Schema-validate an `fgpsim check --json` dump
#       ("fgpsim-check-v1"): required numeric keys plus the diagnostic
#       accounting identity — the diagnostics array must carry exactly
#       errors + warnings entries.
#
#   tools/check_bench.sh --validate-analyze <dump.json>
#       Schema-validate an `fgpsim analyze --json` dump
#       ("fgpsim-analyze-v1"): required numeric keys, the memory
#       disambiguation section (pair counts must close:
#       pairs == no_alias + must_alias + may_alias), plus the same
#       diagnostic accounting identity as --validate-check.
#
#   tools/check_bench.sh --validate-oracle <dump.json>
#       Validate the exact-schedule oracle extension of an
#       `fgpsim analyze --oracle --json` dump: every oracle_blocks
#       entry must satisfy the certification sandwich
#       height <= lower_bound <= upper_bound <= greedy_length, the gap
#       arithmetic gap == greedy_length - upper_bound, exact blocks a
#       tight interval (lower == upper), exhausted blocks the greedy
#       fallback (upper == greedy) — and the per-block sums must
#       reproduce the aggregate "oracle" object exactly.
#
#   tools/check_bench.sh --validate-run <manifest.jsonl>
#       Schema-validate an fgpsim-run-v1 manifest or BENCH_history.jsonl:
#       the first record must be a "run" line carrying the schema tag,
#       every run line needs its numeric provenance fields, git and build
#       strings and a run_options object with all four behaviour knobs
#       (history lines written before the knobs were recorded fail),
#       every point line needs (workload, config) and its core
#       numerics. '#' comment lines, blank lines and "progress"
#       heartbeats are skipped; "window" records (interval-profile
#       streams) are checked for their core numerics.
#
#   tools/check_bench.sh --validate-profile <dump.jsonl>
#       Schema-validate an `fgpsim profile --json` stream
#       ("fgpsim-profile-v1"): the header line, every window record's
#       per-window slot-closure identity
#       issued + sum(stall slots) == cycles * issue_width, the
#       window-sum identities (retired/cycles vs the header), and the
#       critical-path bounds crit_path_cycles <= cycles and
#       implied IPC <= static_ipc_bound. "critedge" (joint block x
#       cause) records must sum exactly to crit_path_cycles; "retired"
#       records (--retired streams) are schema-checked and counted
#       against the header's retired_nodes.
#
#   tools/check_bench.sh --validate-diff <dump.jsonl>
#       Schema-validate an `fgpsim diff --json` stream
#       ("fgpsim-diff-v1"): the header line, and for every "wdelta"
#       record the differential slot-closure identity — the recomputed
#       residual (slots_b - slots_a) - (issued_b - issued_a)
#       - sum(d_stall_<slot causes>) must be zero and must equal the
#       record's own residual field. "dcause"/"dblock" deltas must
#       equal b - a; "divergence" records must carry a level and, at
#       node level, the pinpointed seq/log_index/field.
#
# Pure POSIX sh + awk so it runs anywhere the build runs.
set -eu

field() {
    # Extract a numeric field from one-key-per-line JSON.
    awk -F'[:,]' -v key="\"$2\"" '$1 ~ key { gsub(/[ \t]/, "", $2); print $2; exit }' "$1"
}

require_numeric() {
    # require_numeric FILE KEY...: every KEY must be present with a
    # numeric value.
    file="$1"; shift
    for key in "$@"; do
        value=$(field "$file" "$key")
        case "$value" in
            ''|*[!0-9.eE+-]*)
                echo "check_bench: $file: key \"$key\" missing or not numeric (got '$value')" >&2
                exit 1
                ;;
        esac
    done
}

validate_bench() {
    record="$1"
    if [ ! -f "$record" ]; then
        echo "check_bench: record $record missing" >&2
        exit 1
    fi
    require_numeric "$record" jobs scale sims wall_seconds sims_per_sec \
        sim_cycles host_ns_per_sim_cycle
    echo "check_bench: $record: bench schema OK"
}

validate_sim() {
    dump="$1"
    if [ ! -f "$dump" ]; then
        echo "check_bench: sim dump $dump missing" >&2
        exit 1
    fi
    if ! grep -q '"schema": "fgpsim-sim-v1"' "$dump"; then
        echo "check_bench: $dump: missing schema tag fgpsim-sim-v1" >&2
        exit 1
    fi
    require_numeric "$dump" cycles issue_width retired_nodes \
        executed_nodes issued_nodes committed_blocks squashed_blocks \
        nodes_per_cycle total fetch_redirect fetch_idle window_full \
        short_word drain operand_wait memory_wait serialize_wait fu_busy
    # The accounting identity: every slot of every cycle is either an
    # issued node or attributed to exactly one stall cause.
    awk -F'[:,]' '
        function num(s) { gsub(/[ \t]/, "", s); return s + 0 }
        $1 ~ /"total"/          { total = num($2) }
        $1 ~ /"issued_nodes"/   { issued = num($2) }
        $1 ~ /"fetch_redirect"/ { causes += num($2) }
        $1 ~ /"fetch_idle"/     { causes += num($2) }
        $1 ~ /"window_full"/    { causes += num($2) }
        $1 ~ /"short_word"/     { causes += num($2) }
        $1 ~ /"drain"/          { causes += num($2) }
        END {
            if (total != issued + causes) {
                printf "check_bench: slot accounting broken: total %d != issued %d + causes %d\n",
                       total, issued, causes > "/dev/stderr"
                exit 1
            }
        }' "$dump"
    echo "check_bench: $dump: sim schema OK (slot accounting closes)"
}

validate_check() {
    dump="$1"
    if [ ! -f "$dump" ]; then
        echo "check_bench: check dump $dump missing" >&2
        exit 1
    fi
    if ! grep -q '"schema": "fgpsim-check-v1"' "$dump"; then
        echo "check_bench: $dump: missing schema tag fgpsim-check-v1" >&2
        exit 1
    fi
    require_numeric "$dump" blocks_checked nodes_checked errors warnings
    # Every reported finding appears exactly once in the diagnostics
    # array (each entry carries one "code" key).
    awk -F'[:,]' '
        function num(s) { gsub(/[ \t]/, "", s); return s + 0 }
        $1 ~ /"errors"/   { errors = num($2) }
        $1 ~ /"warnings"/ { warnings = num($2) }
        $1 ~ /"code"/     { codes += 1 }
        END {
            if (codes != errors + warnings) {
                printf "check_bench: diagnostic accounting broken: %d entries != %d errors + %d warnings\n",
                       codes, errors, warnings > "/dev/stderr"
                exit 1
            }
        }' "$dump"
    echo "check_bench: $dump: check schema OK (diagnostics close)"
}

validate_analyze() {
    dump="$1"
    if [ ! -f "$dump" ]; then
        echo "check_bench: analyze dump $dump missing" >&2
        exit 1
    fi
    if ! grep -q '"schema": "fgpsim-analyze-v1"' "$dump"; then
        echo "check_bench: $dump: missing schema tag fgpsim-analyze-v1" >&2
        exit 1
    fi
    require_numeric "$dump" mem_hit_latency blocks_analyzed nodes_analyzed \
        crit_path_max mean_height dataflow_bound static_ipc_bound \
        errors warnings
    # The static memory-disambiguation section: aggregate counts plus
    # the lattice-closure identity (every classified pair lands on
    # exactly one of the three lattice points).
    if ! grep -q '"memory":' "$dump"; then
        echo "check_bench: $dump: missing \"memory\" disambiguation section" >&2
        exit 1
    fi
    require_numeric "$dump" pairs no_alias must_alias may_alias \
        independent_loads enlarged_no_alias
    awk -F'[:,]' '
        function num(s) { gsub(/[ \t]/, "", s); return s + 0 }
        # First occurrence wins: the aggregate "memory" object precedes
        # the per-block "mem_blocks" ranking in the dump.
        $1 ~ /"pairs"/      && !saw_p { pairs = num($2); saw_p = 1 }
        $1 ~ /"no_alias"/   && !saw_n { no = num($2); saw_n = 1 }
        $1 ~ /"must_alias"/ && !saw_m { must = num($2); saw_m = 1 }
        $1 ~ /"may_alias"/  && !saw_y { may = num($2); saw_y = 1 }
        END {
            if (pairs != no + must + may) {
                printf "check_bench: alias lattice broken: %d pairs != %d no + %d must + %d may\n",
                       pairs, no, must, may > "/dev/stderr"
                exit 1
            }
        }' "$dump"
    # Every lint finding appears exactly once in the diagnostics array
    # (each entry carries one "code" key).
    awk -F'[:,]' '
        function num(s) { gsub(/[ \t]/, "", s); return s + 0 }
        $1 ~ /"errors"/   { errors = num($2) }
        $1 ~ /"warnings"/ { warnings = num($2) }
        $1 ~ /"code"/     { codes += 1 }
        END {
            if (codes != errors + warnings) {
                printf "check_bench: lint accounting broken: %d entries != %d errors + %d warnings\n",
                       codes, errors, warnings > "/dev/stderr"
                exit 1
            }
        }' "$dump"
    echo "check_bench: $dump: analyze schema OK (lattice and diagnostics close)"
}

validate_oracle() {
    dump="$1"
    if [ ! -f "$dump" ]; then
        echo "check_bench: oracle dump $dump missing" >&2
        exit 1
    fi
    if ! grep -q '"schema": "fgpsim-analyze-v1"' "$dump"; then
        echo "check_bench: $dump: missing schema tag fgpsim-analyze-v1" >&2
        exit 1
    fi
    if ! grep -q '"oracle_blocks"' "$dump"; then
        echo "check_bench: $dump: missing oracle_blocks (run analyze --oracle --json)" >&2
        exit 1
    fi
    require_numeric "$dump" blocks_exact blocks_exhausted greedy_cycles \
        oracle_cycles max_gap bound_violations
    # Recompute the certification invariants over every oracle_blocks
    # entry: the sandwich height <= lower <= upper <= greedy, the gap
    # arithmetic gap == greedy - upper, exact blocks carry a tight
    # interval, exhausted blocks fall back to the greedy upper bound —
    # and the per-block sums must reproduce the aggregate totals.
    awk -F'[:,]' '
        function die(msg) {
            printf "check_bench: oracle block %d: %s\n", blk, msg \
                > "/dev/stderr"
            failed = 1
            exit 1
        }
        function num(s) { gsub(/[ \t]/, "", s); return s + 0 }
        $1 ~ /"blocks_exact"/     && !saw_e { agg_exact = num($2); saw_e = 1 }
        $1 ~ /"blocks_exhausted"/ && !saw_x { agg_exh = num($2); saw_x = 1 }
        $1 ~ /"greedy_cycles"/    && !saw_g { agg_greedy = num($2); saw_g = 1 }
        $1 ~ /"oracle_cycles"/    && !saw_o { agg_oracle = num($2); saw_o = 1 }
        $1 ~ /"max_gap"/          && !saw_m { agg_gap = num($2); saw_m = 1 }
        $1 ~ /"oracle_blocks"/ { in_blocks = 1 }
        $1 ~ /"diagnostics"/   { in_blocks = 0 }
        in_blocks && $1 ~ /"block"/ && $1 !~ /nodes/ { blk = num($2) }
        in_blocks && $1 ~ /"block_nodes"/   { nodes = num($2) }
        in_blocks && $1 ~ /"height"/        { height = num($2) }
        in_blocks && $1 ~ /"greedy_length"/ { greedy = num($2) }
        in_blocks && $1 ~ /"lower_bound"/   { lo = num($2) }
        in_blocks && $1 ~ /"upper_bound"/   { up = num($2) }
        in_blocks && $1 ~ /"exact"/         { exact = num($2) }
        in_blocks && $1 ~ /"gap"/ {
            gap = num($2)
            blocks += 1
            sum_greedy += greedy
            sum_oracle += up
            if (exact) n_exact += 1; else n_exh += 1
            if (gap > widest) widest = gap
            if (nodes > 0 && height > up)
                die(sprintf("height %d above upper bound %d", height, up))
            if (lo > up)
                die(sprintf("lower bound %d above upper bound %d", lo, up))
            if (up > greedy)
                die(sprintf("upper bound %d above greedy %d", up, greedy))
            if (gap != greedy - up)
                die(sprintf("gap %d != greedy %d - upper %d", gap, greedy, up))
            if (exact && lo != up)
                die(sprintf("exact block with loose interval %d-%d", lo, up))
            if (!exact && up != greedy)
                die(sprintf("exhausted block upper %d != greedy %d", up, greedy))
        }
        END {
            if (failed)
                exit 1
            if (blocks == 0) {
                print "check_bench: no oracle_blocks entries" > "/dev/stderr"
                exit 1
            }
            if (n_exact != agg_exact || n_exh != agg_exh) {
                printf "check_bench: oracle exact accounting broken: %d/%d blocks vs %d/%d aggregate\n",
                       n_exact, n_exh, agg_exact, agg_exh > "/dev/stderr"
                exit 1
            }
            if (sum_greedy != agg_greedy || sum_oracle != agg_oracle) {
                printf "check_bench: oracle cycle sums broken: %d/%d vs %d/%d aggregate\n",
                       sum_greedy, sum_oracle, agg_greedy, agg_oracle > "/dev/stderr"
                exit 1
            }
            if (widest != agg_gap) {
                printf "check_bench: max_gap %d != widest per-block gap %d\n",
                       agg_gap, widest > "/dev/stderr"
                exit 1
            }
        }' "$dump"
    echo "check_bench: $dump: oracle schema OK (sandwich certified on every block)"
}

validate_run() {
    manifest="$1"
    if [ ! -f "$manifest" ]; then
        echo "check_bench: run manifest $manifest missing" >&2
        exit 1
    fi
    # Compact JSONL (whole record on one line), so the line-oriented
    # field() helper does not apply; match() extracts keys in place.
    awk '
        function die(msg) {
            printf "check_bench: %s: line %d: %s\n", FILENAME, FNR, msg \
                > "/dev/stderr"
            failed = 1
            exit 1
        }
        function need_num(key) {
            if (!match($0, "\"" key "\":[ ]*[-+0-9.eE]"))
                die("missing numeric field \"" key "\"")
        }
        function need_str(key) {
            if (!match($0, "\"" key "\":[ ]*\""))
                die("missing string field \"" key "\"")
        }
        /^[ \t]*$/ { next }
        /^#/ { next }
        {
            records += 1
            if (index($0, "\"kind\":\"run\"")) {
                runs += 1
                if (!index($0, "\"schema\":\"fgpsim-run-v1\""))
                    die("run record without the fgpsim-run-v1 schema tag")
                need_str("bench"); need_str("git")
                need_num("timestamp"); need_num("jobs"); need_num("scale")
                need_num("sims"); need_num("wall_seconds")
                need_num("sim_cycles"); need_num("host_ns_per_sim_cycle")
                # Provenance: the build type and every behaviour knob.
                need_str("build")
                if (!match($0, "\"run_options\":[{][^}]*[}]"))
                    die("missing \"run_options\" object")
                knobs = substr($0, RSTART, RLENGTH)
                if (knobs !~ /"static_disambig":(true|false)/ ||
                    knobs !~ /"oracle_sched":(true|false)/ ||
                    knobs !~ /"oracle_budget":[0-9]/ ||
                    knobs !~ /"checks":(true|false)/)
                    die("run_options needs static_disambig, oracle_sched, oracle_budget and checks")
                # Allocation observability (engine/engine.hh setAllocHook):
                # when a run samples allocations, all three engine.alloc.*
                # registry fields must land in the snapshot together.
                if (index($0, "\"engine.alloc.")) {
                    need_num("engine.alloc.sampled_sims")
                    need_num("engine.alloc.cycle_loop")
                    need_num("engine.alloc.syscall")
                }
                # Static disambiguation observability: when any
                # engine.disambig.* counter folds into the snapshot, the
                # whole family must land together.
                if (index($0, "\"engine.disambig.")) {
                    need_num("engine.disambig.fast_loads")
                    need_num("engine.disambig.probes_eliminated")
                    need_num("engine.disambig.checked_pairs")
                    need_num("engine.disambig.violations")
                }
            } else if (index($0, "\"kind\":\"point\"")) {
                if (records == 1)
                    die("first record must be the \"run\" header")
                points += 1
                need_str("workload"); need_str("config")
                need_num("nodes_per_cycle"); need_num("cycles")
                need_num("host_ns")
                # Point records written since the disambiguation pass
                # carry its books unconditionally (zeros when off); the
                # presence of any implies all three.
                if (index($0, "\"disambig_")) {
                    need_num("disambig_fast_loads")
                    need_num("disambig_probes_eliminated")
                    need_num("disambig_checked_pairs")
                }
            } else if (index($0, "\"kind\":\"window\"")) {
                if (records == 1)
                    die("first record must be the \"run\" header")
                windows += 1
                need_str("workload"); need_str("config")
                need_num("index"); need_num("start_cycle")
                need_num("cycles"); need_num("retired_nodes")
            } else if (index($0, "\"kind\":\"progress\"")) {
                next # heartbeats may be interleaved in captured logs
            } else {
                die("unknown record kind")
            }
        }
        END {
            if (failed)
                exit 1
            if (!runs) {
                printf "check_bench: %s: no run records\n", FILENAME \
                    > "/dev/stderr"
                exit 1
            }
            printf "check_bench: %s: run schema OK (%d runs, %d points, %d windows)\n",
                   FILENAME, runs, points, windows
        }' "$manifest"
}

validate_profile() {
    dump="$1"
    if [ ! -f "$dump" ]; then
        echo "check_bench: profile dump $dump missing" >&2
        exit 1
    fi
    awk '
        function die(msg) {
            printf "check_bench: %s: line %d: %s\n", FILENAME, FNR, msg \
                > "/dev/stderr"
            failed = 1
            exit 1
        }
        function num(key,    s) {
            if (!match($0, "\"" key "\":[ ]*[-+0-9.eE]+"))
                die("missing numeric field \"" key "\"")
            s = substr($0, RSTART, RLENGTH)
            sub("\"" key "\":[ ]*", "", s)
            return s + 0
        }
        /^[ \t]*$/ { next }
        /^#/ { next }
        {
            records += 1
            if (index($0, "\"kind\":\"profile\"")) {
                if (records != 1)
                    die("\"profile\" header must be the first record")
                if (!index($0, "\"schema\":\"fgpsim-profile-v1\""))
                    die("header without the fgpsim-profile-v1 schema tag")
                width = num("issue_width")
                cycles = num("cycles")
                retired = num("retired_nodes")
                bound = num("static_ipc_bound")
                path = num("crit_path_cycles")
                implied = num("crit_path_implied_ipc")
                expect_windows = num("windows")
                if (width <= 0)
                    die("issue_width must be positive")
                if (path > cycles)
                    die(sprintf("crit_path_cycles %d > cycles %d", path, cycles))
                if (implied > bound + 1e-9)
                    die(sprintf("implied IPC %g beats the static bound %g", implied, bound))
            } else if (index($0, "\"kind\":\"window\"")) {
                if (!records || !width)
                    die("window record before the profile header")
                windows += 1
                wcycles = num("cycles")
                issued = num("issued_nodes")
                stalls = num("stall_fetch_redirect") + num("stall_fetch_idle") \
                       + num("stall_window_full") + num("stall_short_word") \
                       + num("stall_drain")
                # The slot-closure invariant, per window: every slot of
                # every cycle is an issued node or exactly one cause.
                if (issued + stalls != wcycles * width)
                    die(sprintf("window slot closure broken: %d issued + %d stalls != %d cycles * width %d",
                                issued, stalls, wcycles, width))
                sum_cycles += wcycles
                sum_retired += num("retired_nodes")
            } else if (index($0, "\"kind\":\"residency\"")) {
                num("window"); num("block"); num("retired_nodes")
            } else if (index($0, "\"kind\":\"critpath\"")) {
                if (!match($0, "\"cause\":[ ]*\""))
                    die("critpath record without a cause")
                cause_cycles += num("cycles")
            } else if (index($0, "\"kind\":\"critblock\"")) {
                num("block"); num("retired_nodes"); num("ipc_bound")
                block_cycles += num("path_cycles")
            } else if (index($0, "\"kind\":\"critedge\"")) {
                # Joint block x cause cells: unlike the top-N critblock
                # ranking these are exhaustive, so they must telescope
                # exactly to the whole path (checked in END).
                num("block")
                if (!match($0, "\"cause\":[ ]*\""))
                    die("critedge record without a cause")
                edge_records += 1
                edge_cycles += num("cycles")
            } else if (index($0, "\"kind\":\"retired\"")) {
                num("seq"); num("parent_seq"); num("issue_cycle")
                num("ready_cycle"); num("sched_cycle")
                num("complete_cycle"); num("block"); num("window")
                if (!match($0, "\"edge\":[ ]*\""))
                    die("retired record without an edge kind")
                retired_records += 1
            } else {
                die("unknown record kind")
            }
        }
        END {
            if (failed)
                exit 1
            if (!records) {
                printf "check_bench: %s: empty profile dump\n", FILENAME \
                    > "/dev/stderr"
                exit 1
            }
            if (windows != expect_windows) {
                printf "check_bench: %s: %d window records, header said %d\n",
                       FILENAME, windows, expect_windows > "/dev/stderr"
                exit 1
            }
            # Window streams must telescope exactly to the aggregates.
            if (sum_cycles != cycles) {
                printf "check_bench: %s: window cycles sum %d != run cycles %d\n",
                       FILENAME, sum_cycles, cycles > "/dev/stderr"
                exit 1
            }
            if (sum_retired != retired) {
                printf "check_bench: %s: window retired sum %d != run retired %d\n",
                       FILENAME, sum_retired, retired > "/dev/stderr"
                exit 1
            }
            # Every critical-path cycle is attributed to exactly one
            # cause; block residency never exceeds the path.
            if (cause_cycles != path) {
                printf "check_bench: %s: critpath cause sum %d != crit_path_cycles %d\n",
                       FILENAME, cause_cycles, path > "/dev/stderr"
                exit 1
            }
            if (block_cycles > path) {
                printf "check_bench: %s: critblock cycles %d exceed the path %d\n",
                       FILENAME, block_cycles, path > "/dev/stderr"
                exit 1
            }
            # The joint block x cause table partitions the path exactly:
            # every critical-path cycle lands on one (block, cause) cell.
            if (edge_records && edge_cycles != path) {
                printf "check_bench: %s: critedge cycles sum %d != crit_path_cycles %d\n",
                       FILENAME, edge_cycles, path > "/dev/stderr"
                exit 1
            }
            if (retired_records && retired_records != retired) {
                printf "check_bench: %s: %d retired records, header said %d retired nodes\n",
                       FILENAME, retired_records, retired > "/dev/stderr"
                exit 1
            }
            printf "check_bench: %s: profile schema OK (%d windows close, path %d cycles)\n",
                   FILENAME, windows, path
        }' "$dump"
}

validate_diff() {
    dump="$1"
    if [ ! -f "$dump" ]; then
        echo "check_bench: diff dump $dump missing" >&2
        exit 1
    fi
    awk '
        function die(msg) {
            printf "check_bench: %s: line %d: %s\n", FILENAME, FNR, msg \
                > "/dev/stderr"
            failed = 1
            exit 1
        }
        function num(key,    s) {
            if (!match($0, "\"" key "\":[ ]*[-+0-9.eE]+"))
                die("missing numeric field \"" key "\"")
            s = substr($0, RSTART, RLENGTH)
            sub("\"" key "\":[ ]*", "", s)
            return s + 0
        }
        /^[ \t]*$/ { next }
        /^#/ { next }
        {
            records += 1
            if (index($0, "\"kind\":\"diff\"")) {
                if (records != 1)
                    die("\"diff\" header must be the first record")
                if (!index($0, "\"schema\":\"fgpsim-diff-v1\""))
                    die("header without the fgpsim-diff-v1 schema tag")
                expect_cells = num("cells")
            } else if (index($0, "\"kind\":\"cell\"")) {
                if (!records)
                    die("cell record before the diff header")
                cells += 1
                num("cycles_a"); num("cycles_b")
                num("retired_a"); num("retired_b")
                num("ipc_a"); num("ipc_b")
            } else if (index($0, "\"kind\":\"wdelta\"")) {
                wdeltas += 1
                # The differential slot-closure identity: recompute the
                # residual from the record itself and require both the
                # recomputation and the emitted field to be zero. This
                # is the zero-residual attribution gate — any engine
                # accounting drift between runs A and B surfaces here.
                resid = (num("slots_b") - num("slots_a")) \
                      - (num("issued_b") - num("issued_a")) \
                      - num("d_stall_fetch_redirect") \
                      - num("d_stall_fetch_idle") \
                      - num("d_stall_window_full") \
                      - num("d_stall_short_word") \
                      - num("d_stall_drain")
                if (resid != 0)
                    die(sprintf("wdelta residual recomputes to %d, not 0", resid))
                if (num("residual") != 0)
                    die("wdelta carries a nonzero residual field")
            } else if (index($0, "\"kind\":\"dcause\"")) {
                if (!match($0, "\"cause\":[ ]*\""))
                    die("dcause record without a cause")
                if (num("delta") != num("cycles_b") - num("cycles_a"))
                    die("dcause delta != cycles_b - cycles_a")
            } else if (index($0, "\"kind\":\"dblock\"")) {
                num("block")
                if (num("delta") != num("path_cycles_b") - num("path_cycles_a"))
                    die("dblock delta != path_cycles_b - path_cycles_a")
            } else if (index($0, "\"kind\":\"divergence\"")) {
                if (!match($0, "\"level\":[ ]*\""))
                    die("divergence record without a level")
                divergences += 1
                if (index($0, "\"level\":\"node\"")) {
                    num("first_window"); num("seq"); num("log_index")
                    num("value_a"); num("value_b")
                    if (!match($0, "\"field\":[ ]*\""))
                        die("node-level divergence without a field name")
                } else if (index($0, "\"level\":\"window\"")) {
                    num("first_window")
                }
            } else {
                die("unknown record kind")
            }
        }
        END {
            if (failed)
                exit 1
            if (!records) {
                printf "check_bench: %s: empty diff dump\n", FILENAME \
                    > "/dev/stderr"
                exit 1
            }
            if (cells != expect_cells) {
                printf "check_bench: %s: %d cell records, header said %d\n",
                       FILENAME, cells, expect_cells > "/dev/stderr"
                exit 1
            }
            printf "check_bench: %s: diff schema OK (%d cells, %d wdeltas close, %d divergence records)\n",
                   FILENAME, cells, wdeltas, divergences
        }' "$dump"
}

case "${1:-}" in
    --validate-bench)
        validate_bench "${2:?usage: check_bench.sh --validate-bench <record.json>}"
        exit 0
        ;;
    --validate-sim)
        validate_sim "${2:?usage: check_bench.sh --validate-sim <dump.json>}"
        exit 0
        ;;
    --validate-check)
        validate_check "${2:?usage: check_bench.sh --validate-check <dump.json>}"
        exit 0
        ;;
    --validate-analyze)
        validate_analyze "${2:?usage: check_bench.sh --validate-analyze <dump.json>}"
        exit 0
        ;;
    --validate-oracle)
        validate_oracle "${2:?usage: check_bench.sh --validate-oracle <dump.json>}"
        exit 0
        ;;
    --validate-run)
        validate_run "${2:?usage: check_bench.sh --validate-run <manifest.jsonl>}"
        exit 0
        ;;
    --validate-profile)
        validate_profile "${2:?usage: check_bench.sh --validate-profile <dump.jsonl>}"
        exit 0
        ;;
    --validate-diff)
        validate_diff "${2:?usage: check_bench.sh --validate-diff <dump.jsonl>}"
        exit 0
        ;;
esac

prev="${1:?usage: check_bench.sh <previous.json> <current.json> [pct]}"
cur="${2:?usage: check_bench.sh <previous.json> <current.json> [pct]}"
pct="${3:-20}"

if [ ! -f "$cur" ]; then
    echo "check_bench: current record $cur missing" >&2
    exit 1
fi
validate_bench "$cur"
if [ ! -f "$prev" ]; then
    echo "check_bench: no previous record ($prev); accepting $cur as baseline"
    exit 0
fi
validate_bench "$prev"

prev_wall=$(field "$prev" wall_seconds)
cur_wall=$(field "$cur" wall_seconds)
prev_rate=$(field "$prev" sims_per_sec)
cur_rate=$(field "$cur" sims_per_sec)

echo "check_bench: wall ${prev_wall}s -> ${cur_wall}s, sims/sec ${prev_rate:-?} -> ${cur_rate:-?}"

awk -v prev="$prev_wall" -v cur="$cur_wall" -v pct="$pct" 'BEGIN {
    if (prev <= 0) exit 0;
    regress = (cur - prev) / prev * 100.0;
    if (regress > pct) {
        printf "check_bench: FAIL — wall time regressed %.1f%% (> %s%% allowed)\n",
               regress, pct;
        exit 1;
    }
    printf "check_bench: OK — wall time change %+.1f%% (<= %s%% allowed)\n",
           regress, pct;
}'
