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
    for f in crates/store/src/layout.rs crates/store/src/radix.rs crates/core/src/*.rs crates/pindex/src/*.rs crates/fs/src/*.rs \
        crates/litedb/src/btree.rs crates/litedb/src/file_backend.rs; do
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
    if grep -rn 'GROUP_HEADER' crates/store/src; then
        echo "a batch group is a delta record: encode and decode it with DeltaRecord's codec" >&2
        return 1
    fi
    if grep -rnE 'BatchRecord|BATCH_SLOTS|batch_ring' crates/*/src; then
        echo "a group commit writes each object's DeltaRecord into that object's own ring: the shard keeps no second record ring" >&2
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

# A scrub slice submits its read in the device's idle class and
# verifies the previous slice's, so every crash-recover run's put tail
# stays at or under 80 µs.
guard_background_scrub() {
    # 71.0 / 71.2 / 73.4 with idle-class reads and compaction roots
    # (69.6–73.2 with idle-class reads and foreground roots); ≈ 88 when
    # the read holds both channels ahead of the next put; ≈ 112 when a
    # slice waits on its own read.
    awk '
      /"workload":/ {
        match($0, /"workload": "[^"]*"/)
        wl = substr($0, RSTART + 13, RLENGTH - 14)
        if (wl == "crash-recover") runs++
      }
      /"put_tail_us":/ && wl == "crash-recover" {
        v = $2; sub(/,$/, "", v); seen++
        if (v + 0 > 80) {
          printf "BENCH_judged.json crash-recover put_tail_us is %s (> 80): a scrub slice must not wait on its own read, and a put must not queue behind it\n", v > "/dev/stderr"
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
    awk '
      /"workload":/ {
        match($0, /"workload": "[^"]*"/)
        wl = substr($0, RSTART + 13, RLENGTH - 14)
        if (wl == "kv-mixgraph") runs++
      }
      /"put_tail_us":/ && wl == "kv-mixgraph" {
        v = $2; sub(/,$/, "", v); seen++
        if (v + 0 > 52) {
          printf "BENCH_judged.json kv-mixgraph put_tail_us is %s (> 52): a compaction root must yield to commits and wait for a gap, with the ring slack behind it\n", v > "/dev/stderr"
          bad = 1
        }
      }
      END {
        if (runs == 0 || seen != runs) {
          printf "BENCH_judged.json: %d kv-mixgraph runs, %d put_tail_us values\n", runs, seen > "/dev/stderr"
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

# Once a link has lost a datagram, each replica Ack goes up twice, so no
# judged repl-wan run's put mean climbs back to what a lost Ack costs in
# probe timeouts.
guard_ack_redundancy() {
    # 12 588 / 11 986 / 12 466 (seeds 5 / 11 / 23) with doubled Acks;
    # 14 180 / 13 716 / 14 057 with one Ack a ship.
    awk '
      /"workload":/ {
        match($0, /"workload": "[^"]*"/)
        wl = substr($0, RSTART + 13, RLENGTH - 14)
        if (wl == "repl-wan") runs++
      }
      /"put_mean_us":/ && wl == "repl-wan" {
        v = $2; sub(/,$/, "", v); seen++
        if (v + 0 > 13000) {
          printf "BENCH_judged.json repl-wan put_mean_us is %s (> 13000): a lossy link must double its Acks\n", v > "/dev/stderr"
          bad = 1
        }
      }
      END {
        if (runs == 0 || seen != runs) {
          printf "BENCH_judged.json: %d repl-wan runs, %d put_mean_us values\n", runs, seen > "/dev/stderr"
          bad = 1
        }
        exit bad
      }' BENCH_judged.json
}

# Each fact is held once: the copies the program derives, and the
# counters it never read, stay deleted.
guard_held_once() {
    if grep -rnwE 'deltas_since_full|pins_ready|CutRecord|QueuedOp|replica_fallbacks' crates/*/src tests examples \
        || grep -rnw 'bytes_written' crates/store/src; then
        echo "derived state stays deleted: read the window, the pins, the cut, the request and the device bytes from their one source" >&2
        return 1
    fi
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
    perturb pindex_carve crates/core/src/api.rs '$a // CARVE_MAGIC'
    perturb binary_manifest crates/core/src/manifest.rs '$a // @shards 4'
    perturb history_depth crates/repl/src/engine.rs 's/^const DROP_BASE_LAG: u64 = .*;/const DROP_BASE_LAG: u64 = 64;/'
    perturb verified_radix crates/store/src/radix.rs '1i // if digest != DIGEST_NONE {'
    perturb radix_surface crates/store/src/radix.rs '$a // fn hydrate_path(page)'
    perturb radix_surface crates/store/src/store/snapshot.rs '$a // snap.tree.hydrate_all(read)?;'
    perturb radix_copies crates/store/src/radix.rs '1i fn copy(node: &mut Arc<Node>) -> &mut Node { Arc::make_mut(node) }'
    perturb record_codec crates/store/src/layout.rs '$a // const GROUP_HEADER: usize = 24;'
    perturb record_codec crates/store/src/store.rs '$a // let slot = self.batch_seq % BATCH_SLOTS;'
    perturb chain_rule crates/store/src/store/replay.rs '$a // if record.tag == 0 { accept }'
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
    perturb image_door crates/core/src/api.rs '$a // store.fence_epoch(id)'
    perturb public_store crates/store/src/lib.rs '$a // pub use store::StoreShard;'
    perturb file_size crates/store/src/shard.rs "1i $(printf '// padding\\n%.0s' $(seq 150))"
    perturb surface crates/sim/src/time.rs '1i pub fn uncalled_probe() {}'
    perturb surface .github/surface-allowlist.txt '$a crates/sim/src/sched.rs run_until tests/pindex.rs'
    perturb wire crates/serve/src/wire.rs '$a // put_u32(out, v)'
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
    perturb loss_recovery crates/repl/src/engine.rs '$a // fn resend_from(seq)'
    perturb held_once crates/store/src/store.rs 's/^    queued: Option<DeltaRecord>,$/&\n    deltas_since_full: u64,/'
    perturb held_once crates/store/src/store.rs 's/^    pub completes: Nanos,$/&\n    pub bytes_written: u64,/'
    perturb ack_redundancy BENCH_judged.json '/"workload": "repl-wan"/,/"put_mean_us"/s/"put_mean_us": [0-9.]+/"put_mean_us": 14179.715756363637/'
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
