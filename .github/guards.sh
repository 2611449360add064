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
# Run from the repository root: `.github/guards.sh [guard ...]`.
set -uo pipefail
shopt -s globstar

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
        echo "crates/repl/src must call msnap_snapshot_object exactly once (ReplEngine::pin_live), found $n" >&2
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
    if grep -rnE 'set_async_pipeline_depth|set_reset_strategy|shares_a_batch_record|pub coalesce_window' crates/*/src; then
        echo "retired commit-pipeline knobs must stay deleted" >&2
        return 1
    fi
}

# Crash-surviving bytes decode through one reader.
guard_reader_decode() {
    local f n
    for f in crates/store/src/layout.rs crates/store/src/radix.rs crates/core/src/*.rs crates/pindex/src/*.rs; do
        n=$(awk '/^#\[cfg\(test\)\]/ { exit } /try_into\(\)\.unwrap\(\)/ { n++ } END { print n + 0 }' "$f")
        if [ "$n" -gt 0 ]; then
            echo "$f has $n try_into().unwrap() above its tests: decode through msnap_sim::wire::Reader" >&2
            return 1
        fi
    done
}

# The index carve is owned by pindex.
guard_pindex_carve() {
    if grep -rnE 'msnap_open_index|IndexCarve|CARVE_MAGIC' crates/core/src; then
        echo "the index carve (header codec, geometry, open-or-create) belongs to msnap-pindex, its only user" >&2
        return 1
    fi
}

# One binary manifest.
guard_binary_manifest() {
    if grep -nE 'from_utf8_lossy|@shards' crates/core/src/manifest.rs; then
        echo "the region manifest is one binary record read through msnap_sim::wire::Reader, with no shard directive" >&2
        return 1
    fi
}

# One history depth.
guard_history_depth() {
    if grep -nE 'const DROP_BASE_LAG: u64 = [0-9]' crates/repl/src/engine.rs; then
        echo "DROP_BASE_LAG is memsnap::SUBPAGE_KEEP: one constant for the recorded-history depth" >&2
        return 1
    fi
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
# hydration, one cached read.
guard_radix_surface() {
    if grep -nE 'fn (load|pages|set|get_or_load|set_entry_with|from_committed|diff_pages)\(|fn reachable_blocks' crates/store/src/radix.rs \
        || grep -rnE 'fn hydrate_path\(|\bBlockRead\b|read_block_cached' crates; then
        echo "RadixTree has one surface, lazy and digest-verified: the resident-only twin, the per-node reader (BlockRead), the per-page hydrate_path and read_block_cached stay deleted" >&2
        return 1
    fi
}

# One record codec: a batch group is a delta record.
guard_record_codec() {
    if grep -rn 'GROUP_HEADER' crates/store/src; then
        echo "a batch group is a delta record: encode and decode it with DeltaRecord's codec" >&2
        return 1
    fi
}

# One chain rule in replay.
guard_chain_rule() {
    if grep -nE 'tag != 0|tag == 0' crates/store/src/store/replay.rs; then
        echo "every record carries its tip tag: replay has one chain rule, no untagged exemption" >&2
        return 1
    fi
}

# One payload frame and one finish.
guard_payload_frame() {
    if grep -rnE '\bPageFrame\b|Frame::Full|finish_with' crates/*/src tests crates/bench; then
        echo "the wire has one payload frame (SubPageFrame) and ApplySession one finish" >&2
        return 1
    fi
}

# Retired config fields stay constants.
guard_retired_fields() {
    if grep -rnE 'pub (max_lag_bytes|drop_base_lag|keep_applied|fence_gap|pages_per_stripe|cut_every|notify_retransmit|ack_replicated)\b' crates/*/src tests crates/bench; then
        echo "retired ReplConfig/ServeConfig fields must stay constants" >&2
        return 1
    fi
}

# One pindex structure.
guard_pindex_structure() {
    if grep -rnE '\bPHash\b|KIND_HASH|mod clevel' crates/*/src tests crates/bench examples; then
        echo "msnap-pindex is one structure (PSkipList): the retired hash must stay deleted" >&2
        return 1
    fi
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
    if grep -rn 'msnap_workloads' crates/{litedb,skipdb,serve,pgdb}/src; then
        echo "litedb, skipdb, serve and pgdb do not use msnap-workloads: its generators feed the drivers in msnap-bench" >&2
        return 1
    fi
    if grep -n 'msnap-workloads' crates/{litedb,pgdb}/Cargo.toml; then
        echo "litedb and pgdb do not depend on msnap-workloads" >&2
        return 1
    fi
}

# One landing step: ApplySession lands a complete ship.
guard_landing_step() {
    if grep -rnE 'fn feed\(|fn next_seq\(|SequenceGap' crates/snap/src; then
        echo "ApplySession lands a complete ship in one finish: no in-order feed, no resume point" >&2
        return 1
    fi
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

# One image door.
guard_image_door() {
    if grep -rnE 'fence_epoch|apply_image_at_base' crates/*/src tests crates/bench examples; then
        echo "the store has one image door: ObjectStore::apply_image(.., base, pages, target_epoch)" >&2
        return 1
    fi
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

# Serve writes every integer on its wire as a varint, the frame checksum
# is its one fixed-width field, and serve-open / serve-sat send at most
# 100 wire bytes an operation.
guard_wire() {
    if grep -nE 'put_u(16|32)' crates/serve/src/wire.rs; then
        echo "crates/serve/src/wire.rs writes every integer with put_varint: no put_u16 / put_u32" >&2
        return 1
    fi
    local n
    n=$(grep -c 'put_u64(' crates/serve/src/wire.rs)
    if [ "$n" -ne 1 ]; then
        echo "crates/serve/src/wire.rs calls put_u64 $n times: the frame checksum is its one fixed-width field" >&2
        return 1
    fi
    # ≈ 81 B an operation with varints; ≈ 180-190 B with fixed widths.
    awk '
      /"workload":/ {
        match($0, /"workload": "[^"]*"/)
        wl = substr($0, RSTART + 13, RLENGTH - 14)
        if (wl == "serve-open" || wl == "serve-sat") runs++
      }
      /"serve.wire_bytes_per_op":/ && (wl == "serve-open" || wl == "serve-sat") {
        v = $2; sub(/,$/, "", v); seen++
        if (v + 0 > 100) {
          printf "BENCH_judged.json %s serve.wire_bytes_per_op is %s (> 100): every integer on the wire is a varint\n", wl, v > "/dev/stderr"
          bad = 1
        }
      }
      END {
        if (runs == 0 || seen != runs) {
          printf "BENCH_judged.json: %d serve-open / serve-sat runs, %d serve.wire_bytes_per_op values\n", runs, seen > "/dev/stderr"
          bad = 1
        }
        exit bad
      }' BENCH_judged.json
}

# A compaction root journals the pages it remaps instead of rewriting the
# leaves, so every kv-mixgraph run writes at most 100 device bytes a user
# byte.
guard_root_size() {
    # ≈ 91 with journaled compaction roots; ≈ 130 when every root
    # rewrites the radix nodes its overlay pages dirty.
    awk '
      /"workload":/ {
        match($0, /"workload": "[^"]*"/)
        wl = substr($0, RSTART + 13, RLENGTH - 14)
        if (wl == "kv-mixgraph") runs++
      }
      /"io_amp":/ && wl == "kv-mixgraph" {
        v = $2; sub(/,$/, "", v); seen++
        if (v + 0 > 100) {
          printf "BENCH_judged.json kv-mixgraph io_amp is %s (> 100): a compaction root journals its remapped pages\n", v > "/dev/stderr"
          bad = 1
        }
      }
      END {
        if (runs == 0 || seen != runs) {
          printf "BENCH_judged.json: %d kv-mixgraph runs, %d io_amp values\n", runs, seen > "/dev/stderr"
          bad = 1
        }
        exit bad
      }' BENCH_judged.json
}

# A scrub slice submits its read and verifies the previous slice's, so
# every crash-recover run's put tail stays at or under 100 µs.
guard_background_scrub() {
    # ≈ 88 with pipelined slices; ≈ 112 when a slice waits on its
    # own read.
    awk '
      /"workload":/ {
        match($0, /"workload": "[^"]*"/)
        wl = substr($0, RSTART + 13, RLENGTH - 14)
        if (wl == "crash-recover") runs++
      }
      /"put_tail_us":/ && wl == "crash-recover" {
        v = $2; sub(/,$/, "", v); seen++
        if (v + 0 > 100) {
          printf "BENCH_judged.json crash-recover put_tail_us is %s (> 100): a scrub slice must not wait on its own read\n", v > "/dev/stderr"
          bad = 1
        }
      }
      END {
        if (runs == 0 || seen != runs) {
          printf "BENCH_judged.json: %d crash-recover runs, %d put_tail_us values\n", runs, seen > "/dev/stderr"
          bad = 1
        }
        exit bad
      }' BENCH_judged.json
}

# A budgeted scrub slice is one device submission however many shards
# the store has.
guard_scrub_slice() {
    local n
    n=$(grep -m1 '"shards":8,"budget":64' BENCH_store.json | sed -E 's/.*"slice_us":([0-9.]+).*/\1/')
    if ! awk -v n="$n" 'BEGIN { exit !(n != "" && n <= 90) }'; then
        echo "BENCH_store.json scrub_sharded 8 shards/budget 64 slice_us is '$n' (> 90): scrub walks the shards in turn, it does not split a slice across them" >&2
        return 1
    fi
}

# A batch stays open while the device is saturated, so 8 LiteDB writers
# share commits even at a 2 µs window.
guard_device_pacing() {
    local n
    n=$(grep -m1 '"db":"litedb","threads":8,"window_us":2,' BENCH_persist.json | sed -E 's/.*"disk_writes":([0-9]+).*/\1/')
    if ! awk -v n="$n" 'BEGIN { exit !(n != "" && n <= 256) }'; then
        echo "BENCH_persist.json litedb/8 threads/window 2 disk_writes is '$n' (> 256): a batch must be held while every device channel is busy" >&2
        return 1
    fi
}

# An uncoalesced SkipDB put is one device write: the record carries the
# lines.
guard_line_grain() {
    local n
    n=$(grep -m1 '"db":"skipdb","threads":1,"window_us":0' BENCH_persist.json | sed -E 's/.*"ios_per_commit":([0-9.]+).*/\1/')
    if ! awk -v n="$n" 'BEGIN { exit !(n != "" && n <= 1.1) }'; then
        echo "BENCH_persist.json skipdb/1 thread/window 0 ios_per_commit is '$n' (> 1.1): sparse commits must not write a data extent" >&2
        return 1
    fi
}

# 8 uncoalesced SkipDB writers share queued line records: a commit that
# arrives before its object's record starts rides it.
guard_fold() {
    local n
    n=$(grep -m1 '"db":"skipdb","threads":8,"window_us":0' BENCH_persist.json | sed -E 's/.*"ios_per_commit":([0-9.]+).*/\1/')
    if ! awk -v n="$n" 'BEGIN { exit !(n != "" && n <= 0.7) }'; then
        echo "BENCH_persist.json skipdb/8 threads/window 0 ios_per_commit is '$n' (> 0.7): a line commit must fold into its object's still-queued record" >&2
        return 1
    fi
}

# A link that loses nothing retransmits next to nothing; a lost ship
# costs one probe timeout and one round trip; go-back-N stays retired.
guard_loss_recovery() {
    # loss_sweep[0] is the 0 %-loss row; 10 % of its datagrams are
    # still held 4 ms, so a few early Naks are legitimate (76 frames
    # before selective repeat).
    local n lags lag
    n=$(grep -m1 '"loss":0.00' BENCH_repl.json | sed -E 's/.*"retransmit_frames":([0-9]+).*/\1/')
    if [ "$n" -gt 8 ]; then
        echo "BENCH_repl.json loss_sweep[0].retransmit_frames is $n (> 8): reordering alone must not cost retransmissions" >&2
        return 1
    fi
    # Both sweeps' 15 %-loss rows: with tail-loss probes a lost ship
    # is resent by the timer's one probe, not a bare End and a Nak
    # round after it (≈ 14 ms here; ≈ 26-30 ms before the probes).
    lags=$(grep '"loss":0.15' BENCH_repl.json | sed -E 's/.*"ack_lag_us":([0-9.]+).*/\1/')
    if [ "$(echo $lags | wc -w)" -ne 2 ]; then
        echo "BENCH_repl.json must hold one 15 %-loss row per sweep, found: '$lags'" >&2
        return 1
    fi
    for lag in $lags; do
        if awk -v l="$lag" 'BEGIN { exit !(l > 20000) }'; then
            echo "BENCH_repl.json 15 %-loss ack_lag_us is $lag (> 20000): a lost ship must cost one probe timeout and one round trip" >&2
            return 1
        fi
    done
    if grep -rn 'resend_from' crates/repl/src; then
        echo "go-back-N stays retired: a Nak names the pieces to resend" >&2
        return 1
    fi
}

all=$(compgen -A function guard_ | sed 's/^guard_//')
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
