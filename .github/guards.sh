#!/usr/bin/env bash
# CI's guards: one function a guard, each a check of one design rule,
# either a grep of the sources or a bound on a committed ledger. Nothing
# is built, so a run takes seconds.
#
# With no arguments every guard runs; with guard names, those. Each
# guard runs in its own `set -eo pipefail` subshell, as a CI step would,
# and a failing one is reported by name after its own message. The
# script exits non-zero if any guard failed.
#
# `--selftest` proves the guards instead: every guard has one or more
# recorded perturbations (see `perturbations` below), each applied to a
# temporary copy of the repository's files, and each must fail its own
# guard and no other.
#
# Run from the repository root: `.github/guards.sh [guard ...]` or
# `.github/guards.sh --selftest`.
set -uo pipefail
shopt -s globstar

# Fails with `why` when an extended regex matches a line of `paths`:
# `forbid <regex> <why> <paths...>`.
forbid() {
    local re=$1 why=$2
    shift 2
    if grep -rnE "$re" "$@"; then
        echo "$why" >&2
        return 1
    fi
}

# One FNV-1a in the program.
guard_hash() {
    if grep -rnE '0x100000001b3|0x0100_0193' crates/*/src \
        | grep -vE '^crates/(sim/src/hash\.rs|compat-[^/]*/)'; then
        echo "FNV-1a is defined in crates/sim/src/hash.rs only" >&2
        return 1
    fi
}

# Replication pins a snapshot in one place only: anchor ships.
guard_pin() {
    local n
    n=$(grep -rn 'msnap_snapshot_object' crates/repl/src | wc -l)
    if [ "$n" -ne 1 ]; then
        echo "crates/repl/src must call msnap_snapshot_object exactly once (pin_live in engine/ship.rs), found $n" >&2
        return 1
    fi
}

# One door to the store above the tests, no retired knobs.
guard_commit_pipeline() {
    # Calls of the literal $1 in crates/core/src, counted above each
    # file's first #[cfg(test)]: a test may forge what the program
    # must not.
    above_tests() {
        awk -v lit="$1" '
          FNR == 1 { tests = 0 }
          /^#\[cfg\(test\)\]/ { tests = 1 }
          !tests && index($0, lit) { n++ }
          END { print n + 0 }' $(find crates/core/src -name '*.rs' | sort)
    }
    local n
    n=$(above_tests '.persist_batch(')
    if [ "$n" -ne 1 ]; then
        echo "crates/core/src must call ObjectStore::persist_batch exactly once (MemSnap::commit_batch), found $n" >&2
        return 1
    fi
    n=$(above_tests '.persist(')
    if [ "$n" -ne 1 ]; then
        echo "crates/core/src must call ObjectStore::persist exactly once (MemSnap::persist_manifest), found $n" >&2
        return 1
    fi
    forbid 'set_async_pipeline_depth|set_reset_strategy|shares_a_batch_record|pub coalesce_window' "retired commit-pipeline knobs must stay deleted" crates/*/src
}

# Crash-surviving bytes decode through one reader: no program source
# unwraps a try_into above its tests.
guard_reader_decode() {
    local f n
    for f in crates/*/src/**/*.rs; do
        case "$f" in crates/bench/* | crates/compat-*/* | */tests/*) continue ;; esac
        n=$(awk '/^#\[cfg\(test\)\]/ { exit } /try_into\(\)\.unwrap\(\)/ { n++ } END { print n + 0 }' "$f")
        if [ "$n" -gt 0 ]; then
            echo "$f has $n try_into().unwrap() above its tests: decode through msnap_sim::wire::Reader" >&2
            return 1
        fi
    done
}

# Typed errors, ratcheted: each program crate's lines with an `.unwrap()`
# or `.expect(` above its files' first #[cfg(test)] (bench, compat-* and
# the store's split-out tests excluded) equal a committed ceiling. The
# ceilings only go down: a crate that sheds one lowers its ceiling here.
# A `try_into().unwrap()` is reader_decode's to refuse, so it is not
# counted here.
guard_unwrap_ceiling() {
    local crate max n bad=0
    local ceilings='aurora 2 core 4 disk 5 fs 1 litedb 5 pgdb 25 pindex 16 repl 0 serve 4 sim 5 skipdb 10 snap 0 store 20 vm 1 workloads 0'
    for crate in crates/*/; do
        crate=${crate#crates/}
        crate=${crate%/}
        case "$crate" in bench | compat-*) continue ;; esac
        if [[ " $ceilings " != *" $crate "* ]]; then
            echo "crates/$crate has no unwrap ceiling: add its count to guard_unwrap_ceiling" >&2
            bad=1
        fi
    done
    set -- $ceilings
    while [ $# -gt 0 ]; do
        crate=$1 max=$2
        shift 2
        n=$(find "crates/$crate/src" -name '*.rs' ! -path '*/store/src/store/tests/*' -print0 | sort -z \
            | xargs -0 awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t && /\.unwrap\(\)|\.expect\(/ && !/try_into\(\)\.unwrap\(\)/ { n++ } END { print n + 0 }')
        if [ "$n" -gt "$max" ]; then
            echo "crates/$crate has $n non-test lines with .unwrap() or .expect(, over its ceiling of $max: return a typed error" >&2
            bad=1
        elif [ "$n" -lt "$max" ]; then
            echo "crates/$crate has $n non-test lines with .unwrap() or .expect(: lower its ceiling from $max to $n" >&2
            bad=1
        fi
    done
    return $bad
}

# One persistent skip list in skipdb: above the tests, only the node
# codec and the list name the codec and the per-node lock, so no variant
# carries its own copy of the list.
guard_one_node_list() {
    if awk 'FILENAME ~ /\/(node|plist)\.rs$/ || /^#\[cfg\(test\)\]/ { nextfile }
            /(^|[^A-Za-z0-9_])(encode_node|decode_node|decode_head|decode_next|NODE_LOCK)([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0; found = 1 }
            END { exit !found }' crates/skipdb/src/*.rs; then
        echo "skipdb has one node list: the node codec and NODE_LOCK are named only in node.rs and plist.rs; read and write pages through plist's NodePages" >&2
        return 1
    fi
}

# The store's commit rules are decided once, in commit.rs's pure plan:
# above the tests of the store's modules, the window and the ring's
# constants are compared nowhere else.
guard_one_plan() {
    if awk '/^#\[cfg\(test\)\]/ { nextfile }
            FILENAME ~ /\/commit\.rs$/ && /^fn plan\(/ { plan = 1 }
            plan { if (/^}/) plan = 0; next }
            /^[[:space:]]*\/\// { next }
            /(window\(\)|COMPACT_AFTER|PLACE_ROOT_AT|DELTA_SLOTS)/ && / (<|>|<=|>=|==|!=) / { print FILENAME ":" FNR ": " $0; found = 1 }
            END { exit !found }' crates/store/src/store.rs crates/store/src/store/*.rs; then
        echo "the store's commit rules live in one plan: compare the window, COMPACT_AFTER, PLACE_ROOT_AT and DELTA_SLOTS only inside plan in crates/store/src/store/commit.rs" >&2
        return 1
    fi
}

# The group-commit hold is decided once, in core's pure rule (`hold` and
# `close_at` in commit.rs): above the tests of core's modules, no other
# line compares the batch close, the device's idle instant or the window,
# or takes a `.max(` of one.
guard_one_hold() {
    if awk '/^#\[cfg\(test\)\]/ { nextfile }
            FNR == 1 { rule = 0 }
            FILENAME ~ /\/commit\.rs$/ && /^fn (hold|close_at)\(/ { rule = 1 }
            rule { if (/^}/) rule = 0; next }
            /^[[:space:]]*\/\// { next }
            /(submit_at|idle_at\(\)|coalesce_window)/ && (/ (<|>|<=|>=|==|!=) / || /\.max\(/) { print FILENAME ":" FNR ": " $0; found = 1 }
            END { exit !found }' crates/core/src/*.rs; then
        echo "the group-commit hold lives in one rule: compare submit_at, idle_at() and coalesce_window only inside hold and close_at in crates/core/src/commit.rs" >&2
        return 1
    fi
}

# Each replication ship is decided once, in ship.rs's pure plan (and
# the anchor rule, is_anchor): above the tests of the engine's modules,
# no other code line compares DROP_BASE_LAG or WINDOW_SPAN, reads the
# replica's length or retained epochs, or asks how many ships are in
# flight (or which is the newest); a field declaration or a plain
# assignment (drain_up recording what the replica reported) is no
# decision.
guard_one_ship_plan() {
    if awk '/^#\[cfg\(test\)\]/ { nextfile }
            FNR == 1 { rule = 0 }
            /^fn (plan|is_anchor)\(/ { rule = 1 }
            rule { if (/^}/) rule = 0; next }
            /^[[:space:]]*\/\// { next }
            /(DROP_BASE_LAG|WINDOW_SPAN)/ && / (<|>|<=|>=|==|!=) / { print FILENAME ":" FNR ": " $0; found = 1; next }
            /inflight\.(len|is_empty|is_some|is_none|front|back)\(/ { print FILENAME ":" FNR ": " $0; found = 1; next }
            /(remote_len|retained_remote)/ && !/^[[:space:]]*(pub\(super\) )?[a-z_.]*(remote_len|retained_remote)(: | = [^=])/ { print FILENAME ":" FNR ": " $0; found = 1 }
            END { exit !found }' crates/repl/src/engine.rs crates/repl/src/engine/*.rs; then
        echo "each replication ship is decided in one plan: compare DROP_BASE_LAG and WINDOW_SPAN, read remote_len and retained_remote, and count the ships in flight only inside plan in crates/repl/src/engine/ship.rs (and is_anchor)" >&2
        return 1
    fi
}

# Each replica arrival is decided once, in replica.rs's pure rule (`fate`,
# and `never` for the records that can never land): above its tests, no
# other code line compares a header's base_epoch, and nak_at is set only
# to the rule's answer (`rec.nak_at = nak_at`; a fired `Nak` takes it).
guard_one_landing_rule() {
    if awk '/^#\[cfg\(test\)\]/ { exit }
            /^fn (fate|never)\(/ { rule = 1 }
            rule { if (/^}/) rule = 0; next }
            /^[[:space:]]*\/\// { next }
            /base_epoch/ && / (<|>|<=|>=|==|!=) / { print FILENAME ":" FNR ": " $0; found = 1; next }
            /nak_at( =|: )/ && !/nak_at = nak_at;$/ && !/^[[:space:]]*nak_at: Option</ { print FILENAME ":" FNR ": " $0; found = 1 }
            END { exit !found }' crates/repl/src/engine/replica.rs; then
        echo "each replica arrival is decided in one rule: compare base_epoch and arm nak_at only inside fate and never in crates/repl/src/engine/replica.rs" >&2
        return 1
    fi
}

# Each resend is decided once, in ship.rs's pure rule (`resend` for a pass,
# and `hear` for what the replica says of a ship): above the tests of the
# engine's modules, no other code line compares a ship's last send or the
# probe timeout, reads whether a ship is held or was resent as a condition,
# refreshes the loss memory or samples the link's lag; a field declaration
# or a plain recording assignment (drain_up marking a ship held) is no
# decision.
guard_one_resend() {
    if awk '/^#\[cfg\(test\)\]/ { nextfile }
            FNR == 1 { rule = 0 }
            /^(pub\(super\) )?fn (hear|resend)\(/ { rule = 1 }
            rule { if (/^}/) rule = 0; next }
            /^[[:space:]]*\/\// { next }
            /(last_send|(^|[^A-Za-z0-9_])pto([^A-Za-z0-9_]|$))/ && / (<|>|<=|>=|==|!=) / { print FILENAME ":" FNR ": " $0; found = 1; next }
            /\.(held|resent)([^(A-Za-z0-9_]|$)/ && !/\.(held|resent) = [^=]/ { print FILENAME ":" FNR ": " $0; found = 1; next }
            /window_ships = LOSS_MEMORY/ || /rtt\.sample\(/ { print FILENAME ":" FNR ": " $0; found = 1 }
            END { exit !found }' crates/repl/src/engine.rs crates/repl/src/engine/*.rs; then
        echo "each resend is decided in one rule: compare last_send and pto, read .held and .resent, set window_ships = LOSS_MEMORY and call rtt.sample only inside hear and resend in crates/repl/src/engine/ship.rs" >&2
        return 1
    fi
}

# Each recovered record is decided once, in replay.rs's pure rule (`link`,
# its chain half, and `verdict`): above its tests, no other code line
# compares a record's first epoch or `payload_sum` or tests its tag
# against a tip, and no line exempts an untagged record (every record
# carries its tip tag: one chain rule).
guard_one_verdict() {
    if awk '/^#\[cfg\(test\)\]/ { exit }
            /tag (!=|==) 0/ { print FILENAME ":" FNR ": " $0; found = 1; next }
            /^fn (link|verdict)\(/ { rule = 1 }
            rule { if (/^}/) rule = 0; next }
            /^[[:space:]]*\/\// { next }
            /(first_epoch\(\)|payload_sum)/ && (/ (<|>|<=|>=|==|!=) / || /contains\(/) { print FILENAME ":" FNR ": " $0; found = 1; next }
            /\.tag([^A-Za-z0-9_]|$)/ && /tip/ { print FILENAME ":" FNR ": " $0; found = 1 }
            END { exit !found }' crates/store/src/store/replay.rs; then
        echo "each recovered record is decided in one rule: compare first_epoch() and payload_sum, and test a record's tag against a tip, only inside link and verdict in crates/store/src/store/replay.rs; no record is exempt from its tag" >&2
        return 1
    fi
}

# The index carve is owned by pindex.
guard_pindex_carve() {
    forbid 'msnap_open_index|IndexCarve|CARVE_MAGIC' "the index carve (header codec, geometry, open-or-create) belongs to msnap-pindex, its only user" crates/core/src
}

# One binary manifest.
guard_binary_manifest() {
    forbid 'from_utf8_lossy|@shards' "the region manifest is one binary record read through msnap_sim::wire::Reader, with no shard directive" crates/core/src/manifest.rs
}

# One history depth.
guard_history_depth() {
    forbid 'const DROP_BASE_LAG: u64 = [0-9]' "DROP_BASE_LAG is memsnap::SUBPAGE_KEEP: one constant for the recorded-history depth" crates/repl/src/engine.rs
}

# Every radix hydration is verified, the root's included.
guard_verified_radix() {
    local n
    n=$(awk '/^#\[cfg\(test\)\]/ { exit } /!= DIGEST_NONE/ { n++ } END { print n + 0 }' crates/store/src/radix.rs)
    if [ "$n" -gt 0 ]; then
        echo "radix.rs exempts DIGEST_NONE $n time(s) above its tests: every hydration, the root's included, is verified" >&2
        return 1
    fi
}

# One radix surface: no resident-only twin, one node reader, one path
# hydration, one fill step, one cached read.
guard_radix_surface() {
    if grep -nE 'fn (load|pages|set|get_or_load|set_entry_with|from_committed|diff_pages)\(|fn reachable_blocks' crates/store/src/radix.rs \
        || grep -rnE 'fn hydrate_path\(|\bBlockRead\b|read_block_cached|hydrate_slot|hydrate_all' crates; then
        echo "RadixTree has one surface, lazy and digest-verified: the resident-only twin, the per-node reader (BlockRead), the per-page hydrate_path, the copying hydrate_slot and hydrate_all, and read_block_cached stay deleted" >&2
        return 1
    fi
}

# A radix walk copies only what it writes: Arc::make_mut stays in the
# four places that write the tree (slot_at_mut, set_entry, commit_slot,
# dirty_committed_node), so a node a walk only reads stays shared with
# every snapshot that holds it.
guard_radix_copies() {
    local n
    n=$(awk '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next } index($0, "Arc::make_mut(") { n++ } END { print n + 0 }' crates/store/src/radix.rs)
    if [ "$n" -gt 4 ]; then
        echo "crates/store/src/radix.rs has $n Arc::make_mut( code lines above its tests (at most 4): a walk reads nodes by shared reference and fills through the one fill step" >&2
        return 1
    fi
}

# One record codec and one record ring: a batch group is a delta record
# in its own object's ring.
guard_record_codec() {
    forbid 'GROUP_HEADER' "a batch group is a delta record: encode and decode it with DeltaRecord's codec" crates/store/src
    forbid 'BatchRecord|BATCH_SLOTS|batch_ring' "a group commit writes each object's DeltaRecord into that object's own ring: the shard keeps no second record ring" crates/*/src
}

# One payload frame and one finish.
guard_payload_frame() {
    forbid '\bPageFrame\b|Frame::Full|finish_with' "the wire has one payload frame (SubPageFrame) and ApplySession one finish" crates/*/src tests crates/bench
}

# Retired config fields stay constants.
guard_retired_fields() {
    forbid 'pub (max_lag_bytes|drop_base_lag|keep_applied|fence_gap|pages_per_stripe|cut_every|notify_retransmit|ack_replicated|retransmit_timeout)\b' "retired ReplConfig/ServeConfig fields must stay constants" crates/*/src tests crates/bench
}

# One pindex structure.
guard_pindex_structure() {
    forbid '\bPHash\b|KIND_HASH|mod clevel' "msnap-pindex is one structure (PSkipList): the retired hash must stay deleted" crates/*/src tests crates/bench examples
}

# No read that bypasses the fault plan.
guard_fault_plan_reads() {
    if grep -rnE '\.read_block(_at)?\(' crates/*/src tests crates/bench \
        | grep -vE '^crates/pgdb/src/'; then
        echo "Disk has no read that bypasses the ReadFaultPlan: use try_read_block / try_readv" >&2
        return 1
    fi
}

# One experiment harness, in msnap-bench.
guard_experiment_harness() {
    if grep -rnE '^\s*pub mod (drivers|harness|tpcc);' crates/*/src \
        | grep -vE '^crates/(bench|compat-[^/]*)/|^crates/workloads/src/lib\.rs:[0-9]+:pub mod tpcc;'; then
        echo "experiment drivers live in msnap-bench's library, not in a program crate (msnap-workloads' tpcc is the transaction generator)" >&2
        return 1
    fi
}

# msnap-workloads feeds the drivers, not the programs.
guard_workloads() {
    forbid 'msnap_workloads' "litedb, skipdb, serve and pgdb do not use msnap-workloads: its generators feed the drivers in msnap-bench" crates/{litedb,skipdb,serve,pgdb}/src
    forbid 'msnap-workloads' "litedb and pgdb do not depend on msnap-workloads" crates/{litedb,pgdb}/Cargo.toml
}

# One landing step: ApplySession lands a complete ship.
guard_landing_step() {
    forbid 'fn feed\(|fn next_seq\(|SequenceGap' "ApplySession lands a complete ship in one finish: no in-order feed, no resume point" crates/snap/src
}

# A delta stream travels as its pieces.
guard_stream_pieces() {
    if awk '/^impl DeltaStream/ { inside = 1 } inside && /^}/ { inside = 0 }
            inside && /fn (encode|decode)\(/ { print FILENAME ":" FNR ": " $0; found = 1 }
            END { exit !found }' crates/snap/src/*.rs; then
        echo "DeltaStream has no whole-stream codec: the wire carries its pieces (header, frames, trailer)" >&2
        return 1
    fi
}

# The catch-up driver lives in msnap-bench.
guard_sync_to() {
    if grep -rn 'fn sync_to(' crates/*/src | grep -vE '^crates/bench/'; then
        echo "sync_to is an experiment driver: it lives in msnap_bench::replica" >&2
        return 1
    fi
}

# One splitmix64.
guard_splitmix64() {
    if grep -rniE '0x94d0_?49bb_?1331_?11eb' crates/*/src \
        | grep -vE '^crates/(sim/src/hash\.rs|compat-[^/]*/)'; then
        echo "splitmix64 is defined in crates/sim/src/hash.rs only (msnap_sim::hash::splitmix64)" >&2
        return 1
    fi
}

# One trailing-zero scan: above the tests of every program crate, only
# msnap-sim's zero_tail helper scans an image for its zero tail (the
# device and the VM both call it), and the VM allocates no whole-page
# frame of zeroes: a frame holds only the bytes before its zero tail.
guard_zero_tail() {
    local f bad=0
    for f in crates/*/src/**/*.rs; do
        case "$f" in crates/bench/* | crates/compat-*/* | */tests/* | crates/sim/src/zero_tail.rs) continue ;; esac
        if awk '/^#\[cfg\(test\)\]/ { exit }
                /(rposition|rev\(\)\.position)\(.*!= *0|rev\(\)\.take_while\(.*== *0|leading_zeros\(\) as usize \/ 8/ { print FILENAME ":" FNR ": " $0; found = 1 }
                END { exit !found }' "$f"; then
            bad=1
        fi
    done
    if [ "$bad" -ne 0 ]; then
        echo "the trailing-zero scan lives in crates/sim/src/zero_tail.rs only: call msnap_sim::zero_tail::trim" >&2
    fi
    if awk '/^#\[cfg\(test\)\]/ { exit }
            /vec!\[0(u8)?; *PAGE_SIZE\]/ { print FILENAME ":" FNR ": " $0; found = 1 }
            END { exit !found }' crates/vm/src/vm.rs; then
        echo "a VM page frame holds only the bytes before its zero tail: allocate no vec![0u8; PAGE_SIZE] frame in crates/vm/src/vm.rs (pad with msnap_sim::zero_tail)" >&2
        bad=1
    fi
    return $bad
}

# One image door.
guard_image_door() {
    forbid 'fence_epoch|apply_image_at_base' "the store has one image door: ObjectStore::apply_image(.., base, pages, target_epoch)" crates/*/src tests crates/bench examples
}

# One public store.
guard_public_store() {
    if grep -n 'StoreShard' crates/store/src/lib.rs || ! grep -q '^pub(crate) struct StoreShard' crates/store/src/store.rs; then
        echo "StoreShard is crate-private and not re-exported: ObjectStore is the one public store" >&2
        return 1
    fi
}

# No program source over 1 200 lines above its tests.
guard_file_size() {
    local f n
    for f in crates/*/src/**/*.rs; do
        case "$f" in crates/bench/* | crates/compat-*/* | */tests/*) continue ;; esac
        n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        if [ "$n" -gt 1200 ]; then
            echo "$f has $n lines above its first #[cfg(test)] (> 1200): split it along its seams" >&2
            return 1
        fi
    done
}

# Surface ratchet: every pub fn with no caller in the program's non-test
# code is allowlisted with the file that uses it, and every allowlisted
# user still names its fn.
guard_surface() {
    .github/surface-check.sh
}

# Bounds one metric of every judged run: `judged_max <workload-regex>
# <metric> <bound> <why>` fails unless each run of a workload the regex
# matches carries `metric` at or under `bound` in BENCH_judged.json.
judged_max() {
    awk -v re="^($1)\$" -v key="\"$2\":" -v metric="$2" -v bound="$3" -v why="$4" '
      /"workload":/ {
        match($0, /"workload": "[^"]*"/)
        wl = substr($0, RSTART + 13, RLENGTH - 14)
        if (wl ~ re) runs++
      }
      index($0, key) && wl ~ re {
        v = $2; sub(/,$/, "", v); seen++
        if (v + 0 > bound) {
          printf "BENCH_judged.json %s %s is %s (> %s): %s\n", wl, metric, v, bound, why > "/dev/stderr"
          bad = 1
        }
      }
      END {
        if (runs == 0 || seen != runs) {
          printf "BENCH_judged.json: %d %s runs, %d %s values\n", runs, re, seen, metric > "/dev/stderr"
          bad = 1
        }
        exit bad
      }' BENCH_judged.json
}

# Bounds one field of one ledger row: `row_max <file> <row> <field>
# <bound> <why>` fails unless the first line of `file` containing the
# fixed string `row` has a numeric `"field":` at or under `bound`.
row_max() {
    local v
    v=$(grep -m1 -F -- "$2" "$1" | sed -nE "s/.*\"$3\":([0-9.]+).*/\1/p" || true)
    if ! awk -v v="$v" -v bound="$4" 'BEGIN { exit !(v != "" && v + 0 <= bound + 0) }'; then
        echo "$1 row $2 $3 is '$v' (> $4): $5" >&2
        return 1
    fi
}

# Serve and replication write every integer on their wires as a varint;
# only checksums and digests stay fixed-width (serve's frame checksum;
# the replication wire's two repair digests and, in snap's pieces, the
# header checksum, a payload frame's page digest and checksum, a
# reference's digest and checksum, the trailer's stream sum and
# checksum); and serve-open / serve-sat send at most 100 wire bytes an
# operation.
guard_wire() {
    forbid 'put_u(16|32)' "the serve and replication wires write every integer with put_varint: no put_u16 / put_u32" \
        crates/serve/src/wire.rs crates/repl/src/proto.rs crates/snap/src/codec.rs
    local f want n
    for f in crates/serve/src/wire.rs:1 crates/repl/src/proto.rs:2 crates/snap/src/codec.rs:7; do
        want=${f#*:}
        f=${f%:*}
        n=$(awk '/^#\[cfg\(test\)\]/ { exit } /put_u64\(/ { n++ } END { print n + 0 }' "$f")
        if [ "$n" -ne "$want" ]; then
            echo "$f calls put_u64 $n times above its tests, not $want: only checksums and digests are fixed-width" >&2
            return 1
        fi
    done
    # ≈ 81 B an operation with varints; ≈ 180-190 B with fixed widths.
    judged_max 'serve-open|serve-sat' serve.wire_bytes_per_op 100 "every integer on the wire is a varint"
}

# A compaction root journals the pages it remaps instead of rewriting the
# leaves, so every kv-mixgraph run writes at most 100 device bytes a user
# byte.
guard_root_size() {
    # ≈ 91 with journaled compaction roots; ≈ 130 when every root
    # rewrites the radix nodes its overlay pages dirty.
    judged_max kv-mixgraph io_amp 100 "a compaction root journals its remapped pages"
}

# A scrub slice submits its read in the device's idle class and
# verifies the previous slice's, so every crash-recover run's put tail
# stays at or under 80 µs.
guard_background_scrub() {
    # 71.0 / 71.2 / 73.4 with idle-class reads and compaction roots
    # (69.6–73.2 with idle-class reads and foreground roots); ≈ 88 when
    # the read holds both channels ahead of the next put; ≈ 112 when a
    # slice waits on its own read.
    judged_max crash-recover put_tail_us 80 "a scrub slice must not wait on its own read, and a put must not queue behind it"
}

# Compaction is the device's only idle-class writer: one caller of
# submit_idle_writev, the store's landing step.
guard_idle_writer() {
    local callers
    callers=$(grep -rn 'submit_idle_writev(' crates/*/src tests examples --include=*.rs \
        | grep -v '^crates/disk/src/' || true)
    if [ "$(printf '%s' "$callers" | grep -c .)" -ne 1 ] \
        || ! printf '%s' "$callers" | grep -q '^crates/store/src/store/commit.rs:'; then
        printf '%s\n' "$callers" >&2
        echo "submit_idle_writev has one caller, land in crates/store/src/store/commit.rs: compaction roots are the only idle-class writes" >&2
        return 1
    fi
}

# A compaction root is an idle-class write that waits for a gap, with a
# 256-slot ring behind it, so every kv-mixgraph run's put tail stays at
# or under 52 µs.
guard_idle_roots() {
    # ≈ 43.5 (seed 5, --seconds 6) with 256 ring slots, roots placed by
    # the commit 118 epochs up at the latest; 68.8 / 69.3 / 69.3 in the
    # ledger with 32 slots and roots placed by the sixth commit;
    # 79.3–80.2 when each root's extent and record take the channels
    # right behind the record that filled the window; ≈ 84.6 (seed 5,
    # --seconds 6) when a 32-slot root waits in the idle class until the
    # record 13 epochs above it needs it.
    judged_max kv-mixgraph put_tail_us 52 "a compaction root must yield to commits and wait for a gap, with the ring slack behind it"
}

# A budgeted scrub slice is one device submission however many shards
# the store has.
guard_scrub_slice() {
    row_max BENCH_store.json '"shards":8,"budget":64,' slice_us 90 "scrub walks the shards in turn, it does not split a slice across them"
}

# A batch stays open while the device is saturated, so 8 LiteDB writers
# share commits even at a 2 µs window.
guard_device_pacing() {
    row_max BENCH_persist.json '"db":"litedb","threads":8,"window_us":2,' disk_writes 256 "a batch must be held while every device channel is busy"
}

# An uncoalesced SkipDB put is one device write: the record carries the
# lines.
guard_line_grain() {
    row_max BENCH_persist.json '"db":"skipdb","threads":1,"window_us":0,' ios_per_commit 1.1 "sparse commits must not write a data extent"
}

# 8 uncoalesced SkipDB writers share queued line records: a commit that
# arrives before its object's record starts rides it.
guard_fold() {
    row_max BENCH_persist.json '"db":"skipdb","threads":8,"window_us":0,' ios_per_commit 0.7 "a line commit must fold into its object's still-queued record"
}

# A link that loses nothing retransmits next to nothing; a lost ship
# costs one probe timeout and one round trip; go-back-N stays retired.
guard_loss_recovery() {
    # loss_sweep[0] is the 0 %-loss row; 10 % of its datagrams are
    # still held 4 ms, so a few early Naks are legitimate (76 frames
    # before selective repeat).
    row_max BENCH_repl.json '"loss":0.00,' retransmit_frames 8 "reordering alone must not cost retransmissions"
    # Every judged repl-wan run's ack lag p99, each over ≈ 1 050 acked
    # ships on lossy links: with tail-loss probes a lost ship is resent
    # by the timer's one probe, not a bare End and a Nak round after it
    # (11 796 / 11 534 / 12 059 µs on seeds 5 / 11 / 23 with causal
    # delivery and End-first packing, the bound their maximum + 10 %;
    # 14 156 / 15 991 / 16 253 with the window and a spare End; 17 302 /
    # 16 777 / 17 302 with the window alone; 27 787 µs before the probes).
    judged_max repl-wan repl.ack_lag_us_p99 13265 "a lost ship must cost one probe timeout and one round trip"
    forbid 'resend_from' "go-back-N stays retired: a Nak names the pieces to resend" crates/repl/src
}

# Once a link has lost a datagram, each replica Ack goes up twice, the
# primary keeps a window of ships in flight per object and sends each
# ship's first datagram, which carries its Begin and End, twice; a
# replica takes no datagram the link holds back before the ones sent
# after it. So no judged repl-wan run's put mean climbs back to what one
# ship in flight, a lost Ack's probe timeouts, a lost End's round trip
# or a replica stalled behind a held datagram cost.
guard_ack_redundancy() {
    # 5 654 / 5 335 / 5 606 (seeds 5 / 11 / 23) with causal delivery and
    # End-first packing, the bound their maximum + 10 %; 7 211 / 6 963 /
    # 7 019 with the window and a spare End; 8 434 / 7 780 / 8 404 with
    # the window alone; 12 478 / 11 936 / 11 974 with one ship in flight
    # and doubled Acks; 14 180 / 13 716 / 14 057 with one Ack a ship.
    judged_max repl-wan put_mean_us 6219 "a lossy link must double its Acks, keep a window of ships in flight and send each ship's first datagram twice, and a replica must not wait behind a held datagram"
}

# A replica takes only what the link lets it take while the primary's
# clock reads now (SimLink::releasable): no program line of repl polls a
# link with Nanos::MAX, which would hand over a held datagram before the
# ones sent after it can arrive, and stall the replica behind it.
guard_causal_delivery() {
    if awk 'FNR == 1 { tests = 0 }
            /^#\[cfg\(test\)\]/ { tests = 1 }
            tests || /^[[:space:]]*\/\// { next }
            /\.poll\(Nanos::MAX\)/ { print FILENAME ":" FNR ": " $0; found = 1 }
            END { exit !found }' crates/repl/src/**/*.rs; then
        echo "a replica takes datagrams through SimLink::releasable: no program line of crates/repl/src polls a link with Nanos::MAX" >&2
        return 1
    fi
}

# The epoch-vector cut has one wire form, repl's CutAnnounce: snap's
# stream header carries no cut, and the primary builds an announce in
# announce_cuts only (the decoder rebuilds one off the wire).
guard_cut_carrier() {
    if awk '/#\[cfg\(test\)\]/ { nextfile }
            /(^|[^A-Za-z0-9_])(VectorCut|last_cut|MAX_CUT_EPOCHS)([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0; found = 1 }
            END { exit !found }' crates/snap/src/**/*.rs; then
        echo "crates/snap/src names no cut: the epoch-vector cut travels in repl's CutAnnounce only" >&2
        return 1
    fi
    if awk 'FNR == 1 { f = "" }
            /#\[cfg\(test\)\]/ { nextfile }
            match($0, /fn [a-z_0-9]+/) { f = substr($0, RSTART + 3, RLENGTH - 3) }
            /Msg::CutAnnounce \{/ && !/=>/ && f != "announce_cuts" && !(f == "decode" && FILENAME ~ /proto\.rs$/) {
                print FILENAME ":" FNR ": " $0; found = 1
            }
            END { exit !found }' crates/*/src/**/*.rs; then
        echo "a CutAnnounce is built in ReplEngine::announce_cuts only" >&2
        return 1
    fi
}

# Each fact is held once: the copies the program derives, and the
# counters it never read, stay deleted.
guard_held_once() {
    if grep -rnwE 'deltas_since_full|pins_ready|CutRecord|QueuedOp|replica_fallbacks' crates/*/src tests examples \
        || grep -rnw 'bytes_written' crates/store/src \
        || grep -rnE '\b(OwnedSnap|next_snap)\b|\bapplied *:|\.applied\b' crates/repl/src; then
        echo "derived state stays deleted: read the window, the pins, the cut, the request, the device bytes and replication's retained snapshots (the catalog) from their one source" >&2
        return 1
    fi
}

# Every committed ledger has one writer, which writes it whole: each root
# BENCH_* file is named in a path literal on exactly one code line under
# crates/bench, the judged and paper ledgers by their binaries and every
# other by its one bench. No bench splices a section into another's.
guard_ledger_writer() {
    local f lines want
    for f in BENCH_*; do
        lines=$(grep -rnF --include='*.rs' "/$f\"" crates/bench/benches crates/bench/src \
            | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
        case "$f" in
            BENCH_judged.json) want=crates/bench/src/bin/judged.rs ;;
            BENCH_paper.txt) want=crates/bench/src/bin/paper.rs ;;
            *) want=crates/bench/benches/ ;;
        esac
        if [ "$(printf '%s' "$lines" | grep -c .)" -ne 1 ] || [[ "$lines" != "$want"* ]]; then
            printf '%s\n' "$lines" >&2
            echo "$f needs exactly one writer, in $want: one code line under crates/bench names its path" >&2
            return 1
        fi
    done
}

# The recorded perturbations, one `perturb guard file sed-script` each:
# the sed script turns `file` into a tree its guard must reject.
perturbations() {
    perturb hash crates/store/src/lib.rs '$a const PRIME: u64 = 0x100000001b3;'
    perturb pin crates/repl/src/engine/ship.rs '$a // ms.msnap_snapshot_object(vt, object, name)'
    perturb commit_pipeline crates/core/src/commit.rs '$a // ms.set_reset_strategy(strategy)'
    perturb commit_pipeline crates/core/src/api.rs '1i fn second() { store.persist_batch(vt, disk, groups); }'
    perturb reader_decode crates/core/src/manifest.rs '1i fn word(b: &[u8]) -> u64 { u64::from_le_bytes(b.try_into().unwrap()) }'
    perturb reader_decode crates/fs/src/wal.rs '1i fn word(b: &[u8]) -> u64 { u64::from_le_bytes(b.try_into().unwrap()) }'
    perturb reader_decode crates/litedb/src/btree.rs '1i fn word(b: &[u8]) -> u64 { u64::from_le_bytes(b.try_into().unwrap()) }'
    perturb reader_decode crates/litedb/src/file_backend.rs '1i fn word(b: &[u8]) -> u64 { u64::from_le_bytes(b.try_into().unwrap()) }'
    perturb reader_decode crates/skipdb/src/baseline.rs '1i fn word(b: &[u8]) -> u64 { u64::from_le_bytes(b.try_into().unwrap()) }'
    perturb reader_decode crates/pgdb/src/engine.rs '1i fn word(b: &[u8]) -> u64 { u64::from_le_bytes(b.try_into().unwrap()) }'
    perturb one_node_list crates/skipdb/src/aurora_kv.rs '1i const NODE_LOCK: u64 = 25;'
    perturb one_plan crates/store/src/store/scrub.rs '1i fn due(window: u64) -> bool { window >= COMPACT_AFTER }'
    perturb one_hold crates/core/src/api.rs '1i fn late(now: Nanos, b: &OpenBatch) -> bool { now >= b.submit_at }'
    perturb one_ship_plan crates/repl/src/engine/replica.rs '1i fn deep(lag: u64) -> bool { lag > DROP_BASE_LAG }'
    perturb one_ship_plan crates/repl/src/engine.rs '1i fn idle(os: &ObjShip) -> bool { os.inflight.is_empty() }'
    perturb one_landing_rule crates/repl/src/engine/replica.rs '1i fn ahead(h: &StreamHeader, at: Epoch) -> bool { h.base_epoch > Some(at) }'
    perturb one_landing_rule crates/repl/src/engine/replica.rs '1i fn arm(r: &mut Reassembly, now: Nanos) { r.nak_at = Some(now); }'
    perturb unwrap_ceiling crates/snap/src/lib.rs '1i fn first(v: &[u8]) -> u8 { *v.first().unwrap() }'
    perturb pindex_carve crates/core/src/api.rs '$a // CARVE_MAGIC'
    perturb binary_manifest crates/core/src/manifest.rs '$a // @shards 4'
    perturb history_depth crates/repl/src/engine.rs 's/^const DROP_BASE_LAG: u64 = .*;/const DROP_BASE_LAG: u64 = 64;/'
    perturb verified_radix crates/store/src/radix.rs '1i // if digest != DIGEST_NONE {'
    perturb radix_surface crates/store/src/radix.rs '$a // fn hydrate_path(page)'
    perturb radix_surface crates/store/src/store/snapshot.rs '$a // snap.tree.hydrate_all(read)?;'
    perturb radix_copies crates/store/src/radix.rs '1i fn copy(node: &mut Arc<Node>) -> &mut Node { Arc::make_mut(node) }'
    perturb record_codec crates/store/src/layout.rs '$a // const GROUP_HEADER: usize = 24;'
    perturb record_codec crates/store/src/store.rs '$a // let slot = self.batch_seq % BATCH_SLOTS;'
    perturb one_resend crates/repl/src/engine.rs '1i fn late(s: &Ship, pto: Nanos, now: Nanos) -> bool { now.saturating_sub(s.last_send) > pto }'
    perturb one_resend crates/repl/src/engine/replica.rs '1i fn shown(link: &mut Link) { link.window_ships = LOSS_MEMORY; }'
    perturb one_resend crates/repl/src/engine.rs '1i fn karn(l: &mut Link, s: &Ship, lag: Nanos) { if !s.held { l.rtt.sample(lag) } }'
    perturb one_verdict crates/store/src/store/replay.rs '1i fn untagged(r: &DeltaRecord) -> bool { r.tag == 0 }'
    perturb one_verdict crates/store/src/store/replay.rs '1i fn linked(r: &DeltaRecord, tips: &[(Epoch, u32)]) -> bool { tips.contains(&(r.first_epoch() - 1, r.tag)) }'
    perturb one_verdict crates/store/src/store/replay.rs '1i fn torn(r: &DeltaRecord, sum: u64) -> bool { sum != r.payload_sum }'
    perturb payload_frame crates/snap/src/lib.rs '$a // Frame::Full(page)'
    perturb retired_fields crates/serve/src/lib.rs '$a // pub cut_every: u32,'
    perturb pindex_structure crates/pindex/src/lib.rs '$a // PHash'
    perturb fault_plan_reads crates/store/src/store/read.rs '$a // disk.read_block(block)'
    perturb experiment_harness crates/core/src/lib.rs '$a pub mod harness;'
    perturb workloads crates/serve/src/lib.rs '$a // use msnap_workloads::dist;'
    perturb landing_step crates/snap/src/apply.rs '$a // fn feed(frame)'
    perturb stream_pieces crates/snap/src/codec.rs '/^impl DeltaStream/a \    // fn encode(&self) -> Vec<u8>'
    perturb sync_to crates/repl/src/lib.rs '$a // fn sync_to(primary, replica)'
    perturb splitmix64 crates/store/src/lib.rs '$a // z * 0x94d049bb133111eb'
    perturb zero_tail crates/disk/src/device.rs 's/^    zero_tail::trim\(data\)\.into\(\)$/    let end = data.iter().rposition(|\&b| b != 0).map_or(0, |i| i + 1);\n    data[..end].into()/'
    perturb zero_tail crates/vm/src/vm.rs 's/^                data: Vec::new\(\),$/                data: vec![0u8; PAGE_SIZE],/'
    perturb image_door crates/core/src/api.rs '$a // store.fence_epoch(id)'
    perturb public_store crates/store/src/lib.rs '$a // pub use store::StoreShard;'
    perturb file_size crates/store/src/shard.rs "1i $(printf '// padding\\n%.0s' $(seq 150))"
    perturb surface crates/sim/src/time.rs '1i pub fn uncalled_probe() {}'
    perturb surface .github/surface-allowlist.txt '$a crates/sim/src/sched.rs run_until tests/pindex.rs'
    perturb wire crates/serve/src/wire.rs '$a // put_u32(out, v)'
    perturb wire crates/repl/src/proto.rs '$a // put_u16(out, tag)'
    perturb wire crates/snap/src/codec.rs '1i fn seq(out: &mut Vec<u8>, v: u64) { put_u64(out, v) }'
    perturb wire BENCH_judged.json 's/"serve.wire_bytes_per_op": [0-9.]+/"serve.wire_bytes_per_op": 183.2/'
    perturb root_size BENCH_judged.json 's/"io_amp": [0-9.]+/"io_amp": 130.4/'
    perturb background_scrub BENCH_judged.json '/"workload": "crash-recover"/,/"put_tail_us"/s/"put_tail_us": [0-9.]+/"put_tail_us": 84.9/'
    perturb idle_writer crates/store/src/store/scrub.rs '$a // disk.submit_idle_writev(now, iov, gate)'
    perturb idle_roots BENCH_judged.json '/"workload": "kv-mixgraph"/,/"put_tail_us"/s/"put_tail_us": [0-9.]+/"put_tail_us": 69.3/'
    perturb scrub_slice BENCH_store.json 's/("shards":8,"budget":64,[^}]*"slice_us":)[0-9.]+/\1120.5/'
    perturb device_pacing BENCH_persist.json '/"db":"litedb","threads":8,"window_us":2,/s/"disk_writes":[0-9]+/"disk_writes":512/'
    perturb line_grain BENCH_persist.json '/"db":"skipdb","threads":1,"window_us":0/s/"ios_per_commit":[0-9.]+/"ios_per_commit":2.0/'
    perturb fold BENCH_persist.json '/"db":"skipdb","threads":8,"window_us":0/s/"ios_per_commit":[0-9.]+/"ios_per_commit":1.0/'
    perturb loss_recovery BENCH_repl.json '/"loss":0.00/s/"retransmit_frames":[0-9]+/"retransmit_frames":76/'
    perturb loss_recovery BENCH_judged.json '/"seed": 11, "workload": "repl-wan"/,/"repl.ack_lag_us_p99"/s/"repl.ack_lag_us_p99": [0-9.]+/"repl.ack_lag_us_p99": 27787/'
    perturb loss_recovery BENCH_judged.json '/"seed": 23, "workload": "repl-wan"/,/"repl.ack_lag_us_p99"/s/"repl.ack_lag_us_p99": [0-9.]+/"repl.ack_lag_us_p99": 13266/'
    perturb loss_recovery crates/repl/src/engine.rs '$a // fn resend_from(seq)'
    perturb cut_carrier crates/snap/src/assemble.rs '1i // let cut = store.last_cut().cloned();'
    perturb cut_carrier crates/repl/src/engine/ship.rs '1i fn stamp() -> Msg { Msg::CutAnnounce { seq: 0, epochs: Vec::new() } }'
    perturb retired_fields crates/repl/src/engine.rs 's/^    pub max_lag_epochs: u64,$/&\n    pub retransmit_timeout: Nanos,/'
    perturb held_once crates/store/src/store.rs 's/^    queued: Option<DeltaRecord>,$/&\n    deltas_since_full: u64,/'
    perturb held_once crates/store/src/store.rs 's/^    pub completes: Nanos,$/&\n    pub bytes_written: u64,/'
    perturb held_once crates/repl/src/engine.rs 's/^    next_ship: u64,$/&\n    next_snap: u64,/'
    perturb ledger_writer crates/bench/benches/pindex.rs '$a const SECOND_WRITER: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");'
    perturb ack_redundancy BENCH_judged.json '/"workload": "repl-wan"/,/"put_mean_us"/s/"put_mean_us": [0-9.]+/"put_mean_us": 14179.715756363637/'
    perturb ack_redundancy BENCH_judged.json '/"seed": 5, "workload": "repl-wan"/,/"put_mean_us"/s/"put_mean_us": [0-9.]+/"put_mean_us": 12477.975921818183/'
    perturb ack_redundancy BENCH_judged.json '/"seed": 5, "workload": "repl-wan"/,/"put_mean_us"/s/"put_mean_us": [0-9.]+/"put_mean_us": 8433.621659999999/'
    perturb ack_redundancy BENCH_judged.json '/"seed": 5, "workload": "repl-wan"/,/"put_mean_us"/s/"put_mean_us": [0-9.]+/"put_mean_us": 7210.691217272727/'
    perturb causal_delivery crates/repl/src/engine.rs 's/link\.down\.poll\(at\)/link.down.poll(Nanos::MAX)/'
}

# Runs every guard in a scratch copy of the repository's files once as
# they are (all must pass) and once per perturbation (exactly its guard
# must fail), restoring the perturbed file after each.
selftest() {
    local root tmp bad=0 cases=0
    root=$(pwd)
    tmp=$(mktemp -d)
    trap "rm -rf '$tmp'" EXIT
    git ls-files -z --cached --others --exclude-standard \
        | while IFS= read -r -d '' f; do [ -f "$f" ] && printf '%s\0' "$f"; done \
        | xargs -0 cp --parents -t "$tmp"
    # The guards that fail in the scratch copy, one a line.
    failing() {
        (cd "$tmp" && bash .github/guards.sh 2>&1 >/dev/null) | sed -n 's/^FAILED guard: //p' | sort
    }
    local base
    base=$(failing)
    if [ -n "$base" ]; then
        echo "selftest: the unperturbed copy fails:" $base >&2
        return 1
    fi
    local covered=()
    perturb() {
        local guard=$1 file=$2 script=$3 got
        cases=$((cases + 1))
        covered+=("$guard")
        sed -E -i -e "$script" "$tmp/$file"
        if cmp -s "$root/$file" "$tmp/$file"; then
            echo "selftest: the $guard perturbation no longer changes $file" >&2
            bad=1
        else
            got=$(failing)
            if [ "$got" != "$guard" ]; then
                echo "selftest: the $guard perturbation of $file failed: '${got//$'\n'/ }', not just $guard" >&2
                bad=1
            fi
        fi
        cp "$root/$file" "$tmp/$file"
    }
    perturbations
    local name
    for name in $all; do
        if [[ " ${covered[*]} " != *" $name "* ]]; then
            echo "selftest: guard $name has no recorded perturbation" >&2
            bad=1
        fi
    done
    if [ "$bad" -ne 0 ]; then
        return 1
    fi
    echo "selftest: $cases perturbations, each failed its own guard and no other"
}

all=$(compgen -A function guard_ | sed 's/^guard_//')
if [ "${1:-}" = --selftest ]; then
    selftest
    exit
fi
if [ $# -eq 0 ]; then
    set -- $all
fi
failed=()
for name in "$@"; do
    if ! declare -F "guard_$name" >/dev/null; then
        echo "no guard named '$name'; the guards are:" $all >&2
        exit 2
    fi
    (
        set -eo pipefail
        "guard_$name"
    )
    if [ $? -ne 0 ]; then
        echo "FAILED guard: $name" >&2
        failed+=("$name")
    fi
done
if [ ${#failed[@]} -gt 0 ]; then
    echo "${#failed[@]} of $# guards failed: ${failed[*]}" >&2
    exit 1
fi
echo "all $# guards passed"
