//! The metric catalog: every name the benchmark prints, with its unit,
//! its clock, and — written down before anyone measures — what it is
//! expected to move. `BENCHMARK.json` at the repo root lists the same
//! names; a unit test keeps the two in step.
//!
//! **virtual**: what the modelled hardware would take; a pure function
//! of `(seed, seconds)`, bit-for-bit repeatable. **host**: what the
//! simulator costs to run on this machine; noisy.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Virtual,
    Host,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric @ workload this should move.
    pub moves: &'static str,
}

impl PerLayer {
    /// The layer is the name's prefix: this repo's crate names, plus
    /// `bench` for the benchmark's own validity checks.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().expect("split yields one item")
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Virtual};

/// Every workload reports every one of these, and none is ever 0.
/// Each bound is at least three times the widest spread (quartile
/// distance over median) the metric showed on any workload across two
/// sets of ten seeds at the defining commit: the driver compares runs
/// on different seeds, so seed-to-seed spread, not run-to-run noise,
/// is what a bound has to clear.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "put_mean_us",
        unit: "us",
        clock: Virtual,
        better: Lower,
        bound: 0.05,
        what: "mean durable-write latency as promised to the caller",
    },
    EndToEnd {
        name: "put_tail_us",
        unit: "us",
        clock: Virtual,
        better: Lower,
        bound: 0.15,
        what: "mean of the slowest 5 % of durable writes",
    },
    EndToEnd {
        name: "op_mean_us",
        unit: "us",
        clock: Virtual,
        better: Lower,
        bound: 0.06,
        what: "mean latency over every operation of the mix, reads included",
    },
    EndToEnd {
        name: "vt_kops",
        unit: "kops/s",
        clock: Virtual,
        better: Higher,
        bound: 0.05,
        what: "oracle-correct operations completed per virtual second of the window",
    },
    EndToEnd {
        name: "io_amp",
        unit: "ratio",
        clock: Virtual,
        better: Lower,
        bound: 0.18,
        what: "bytes on the workload's costliest medium per user byte",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        clock: Host,
        better: Lower,
        bound: 0.08,
        what: "VmHWM at exit",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Host,
        better: Lower,
        bound: 0.25,
        what: "user-CPU seconds to build the warm state, median of 5 set-ups",
    },
];

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const SERVE_PUT: &str = "put_mean_us, put_tail_us @ serve-open; vt_kops @ serve-sat";
const SERVE_NOTIFY: &str = "serve.notify_us_p99 @ serve-* (rarer cuts help put_tail_us, hurt this)";
const SERVE_LOSS: &str = "failed ops @ serve-open (the backlog must not grow)";
const SERVE_HOST: &str = "bench.host_kops_per_cpu_s @ serve-*";
const REPL_PUT: &str = "put_mean_us, put_tail_us @ repl-wan (and, unobserved, serve-*)";
const REPL_RATE: &str = "vt_kops, bench.host_kops_per_cpu_s @ repl-wan";
const WIRE: &str = "io_amp @ repl-wan";
const KV_PUT: &str = "put_mean_us, put_tail_us @ kv-mixgraph; about nothing @ serve-open";
const RECOVER: &str = "vt_kops, bench.host_kops_per_cpu_s @ crash-recover";
const HOST_LOW: &str = "bench.host_kops_per_cpu_s @ repl-wan, crash-recover";
const VM: &str = "put_mean_us @ kv-mixgraph; vt_kops @ kv-group8";
const STORE_AMP: &str = "io_amp @ kv-mixgraph, kv-group8, crash-recover";
const STORE_CACHE: &str = "vt_kops @ crash-recover; put_tail_us @ repl-wan (delta assembly)";
const SCRUB: &str = "vt_kops, bench.host_kops_per_cpu_s, put_tail_us @ crash-recover";
const DISK: &str = "put_mean_us @ kv-mixgraph; vt_kops @ kv-group8, crash-recover";
const SKIPDB: &str =
    "op_mean_us, put_*, bench.host_kops_per_cpu_s, peak_rss_mb, io_amp @ kv-mixgraph";
const PINDEX: &str = "put_*, bench.host_kops_per_cpu_s @ kv-group8";
const VALIDITY: &str = "none: validity of the run itself";
const DIAGNOSTIC: &str = "none: the percentile behind a gated mean";

/// From the traced run. A metric whose layer did no work on a workload
/// reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    m("serve.step_busy_us_p50", "us", Lower, SERVE_PUT),
    m("serve.step_busy_us_p99", "us", Lower, SERVE_PUT),
    m("serve.ops_per_round", "count", Higher, SERVE_PUT),
    m("serve.rounds_per_put_p50", "count", Lower, SERVE_PUT),
    m("serve.cuts", "count", Higher, VALIDITY),
    m("serve.rounds_per_cut", "count", Higher, SERVE_NOTIFY),
    m("serve.bundles_per_cut", "count", Lower, SERVE_NOTIFY),
    m("serve.events_per_put", "count", Lower, SERVE_NOTIFY),
    m("serve.notify_us_p99", "us", Lower, "itself: PutOk of a write to delivery of the Notify covering it"),
    m("serve.replica_read_share", "ratio", Higher, "op_mean_us @ serve-*"),
    m("serve.client_retransmits", "count", Lower, SERVE_LOSS),
    m("serve.backlog_max", "count", Lower, SERVE_LOSS),
    m("serve.wire_bytes_per_op", "B", Lower, "io_amp, bench.host_kops_per_cpu_s @ serve-*"),
    m("serve.codec_host_ns_per_msg", "ns", Lower, SERVE_HOST),
    m("serve.step_host_us_p50", "us", Lower, SERVE_HOST),
    m("repl.ack_lag_us_p50", "us", Lower, REPL_PUT),
    m("repl.ack_lag_us_p99", "us", Lower, REPL_PUT),
    m("repl.lag_epochs_mean", "count", Lower, REPL_PUT),
    m("repl.lag_epochs_max", "count", Lower, REPL_PUT),
    m("repl.commits_per_ack", "count", Higher, REPL_PUT),
    m("repl.acked_ships", "count", Higher, VALIDITY),
    m("repl.throttled_tick_ratio", "ratio", Lower, REPL_RATE),
    m("repl.tick_us_p50", "us", Lower, REPL_RATE),
    m("repl.tick_host_us_p50", "us", Lower, REPL_RATE),
    m("repl.retransmit_frames_per_commit", "count", Lower, WIRE),
    m("repl.full_sync_ratio", "ratio", Lower, WIRE),
    m("repl.goodput_ratio", "ratio", Higher, WIRE),
    m("repl.wire_amp", "ratio", Lower, WIRE),
    m("snap.subpage_frames_per_commit", "count", Higher, "io_amp @ repl-wan; no move @ kv-*"),
    m("snap.saved_dedup_bytes_per_commit", "B", Higher, "io_amp @ repl-wan; no move @ kv-*"),
    m("snap.saved_compress_bytes_per_commit", "B", Higher, "io_amp @ repl-wan; no move @ kv-*"),
    m("sim.link_drop_ratio", "ratio", Lower, "none: checks the workload got the link it asked for"),
    m("sim.link_reorder_ratio", "ratio", Lower, "none: checks the workload got the link it asked for"),
    m("core.persist_us_p50", "us", Lower, KV_PUT),
    m("core.persist_us_p99", "us", Lower, KV_PUT),
    m("core.persist_reset_us_mean", "us", Lower, KV_PUT),
    m("core.persist_initiate_us_mean", "us", Lower, KV_PUT),
    m("core.persist_iowait_us_mean", "us", Lower, KV_PUT),
    m("core.pages_per_persist", "count", Lower, KV_PUT),
    m("core.group_size_mean", "count", Higher, "vt_kops @ kv-group8"),
    m("core.recover_ms", "ms", Lower, RECOVER),
    m("core.restore_us_mean", "us", Lower, RECOVER),
    m("core.pagein_us_per_page", "us", Lower, RECOVER),
    m("core.pagein_host_ns_per_page", "ns", Lower, RECOVER),
    m("core.persist_host_ns_p50", "ns", Lower, HOST_LOW),
    m("core.write_host_ns_p50", "ns", Lower, HOST_LOW),
    m("vm.minor_faults_per_persist", "count", Lower, VM),
    m("vm.shootdowns_per_persist", "count", Lower, VM),
    m("vm.pte_resets_per_persist", "count", Lower, VM),
    m("vm.cow_faults_per_kpersist", "count", Lower, VM),
    m("store.group_commits", "count", Higher, VALIDITY),
    m("store.delta_commit_ratio", "ratio", Higher, STORE_AMP),
    m("store.pages_per_commit", "count", Lower, STORE_AMP),
    m("store.nodes_per_commit", "count", Lower, STORE_AMP),
    m("store.objects_per_batch", "count", Higher, STORE_AMP),
    m("store.cache_hit_ratio", "ratio", Higher, STORE_CACHE),
    m("store.cache_evictions", "count", Lower, STORE_CACHE),
    m("store.hydrations", "count", Lower, STORE_CACHE),
    m("store.scrub_kpages_per_vs", "kpages/s", Higher, SCRUB),
    m("store.scrub_host_ns_per_page", "ns", Lower, SCRUB),
    m("store.scrub_stall_us_p99", "us", Lower, SCRUB),
    m("store.corruptions_found", "count", Lower, "must be 0: anything else fails the run"),
    m("disk.write_amp", "ratio", Lower, STORE_AMP),
    m("disk.writes_per_commit", "count", Lower, DISK),
    m("disk.bytes_per_write", "B", Higher, DISK),
    m("disk.write_lat_us_p50", "us", Lower, DISK),
    m("disk.write_lat_us_p99", "us", Lower, DISK),
    m("disk.read_lat_us_p50", "us", Lower, DISK),
    m("disk.avg_queue_depth", "count", Higher, DISK),
    m("disk.merged_parts_per_submission", "count", Higher, DISK),
    m("disk.reads_per_recovered_page", "count", Lower, RECOVER),
    m("skipdb.put_us_p50", "us", Lower, SKIPDB),
    m("skipdb.put_us_p99", "us", Lower, SKIPDB),
    m("skipdb.get_us_p50", "us", Lower, SKIPDB),
    m("skipdb.seek_us_p50", "us", Lower, SKIPDB),
    m("skipdb.put_host_ns_p50", "ns", Lower, SKIPDB),
    m("skipdb.get_host_ns_p50", "ns", Lower, SKIPDB),
    m("skipdb.pages_per_key", "count", Lower, SKIPDB),
    m("pindex.batch_us_p50", "us", Lower, PINDEX),
    m("pindex.batch_us_p99", "us", Lower, PINDEX),
    m("pindex.batch_host_us_p50", "us", Lower, PINDEX),
    m("pindex.live_keys", "count", Higher, PINDEX),
    m("bench.put_p50_us", "us", Lower, DIAGNOSTIC),
    m("bench.put_p99_us", "us", Lower, DIAGNOSTIC),
    m("bench.get_p50_us", "us", Lower, DIAGNOSTIC),
    m("bench.get_p99_us", "us", Lower, DIAGNOSTIC),
    m("bench.failed_op_ratio", "ratio", Lower, "must be 0 at the defining commit"),
    m("bench.slo_miss_ratio", "ratio", Lower, "serve-open: put over 5 ms, get over 2.5 ms, or failed"),
    m("bench.gen_late_us_p99", "us", Lower, SERVE_LOSS),
    m(
        "bench.host_kops_per_cpu_s",
        "kops/cpu-s",
        Higher,
        "itself: simulated ops per user-CPU second, median of 16 slices; spreads 5-20 % here, too noisy to gate",
    ),
    m("bench.host_cpu_s", "s", Lower, "itself: user-CPU seconds the measured window took"),
    m("bench.steady_drift_pct", "pct", Lower, VALIDITY),
    m("bench.trace_overhead_pct", "pct", Lower, VALIDITY),
    m("bench.spans", "count", Lower, VALIDITY),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|e| e.bound > 0.0 && e.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|e| e.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(
            END_TO_END.iter().all(|e| e.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn every_layer_is_a_crate_or_the_benchmark() {
        const LAYERS: [&str; 11] = [
            "serve", "repl", "snap", "sim", "core", "vm", "store", "disk", "skipdb", "pindex",
            "bench",
        ];
        for p in PER_LAYER {
            assert!(LAYERS.contains(&p.layer()), "{}", p.name);
        }
    }

    /// `BENCHMARK.json` is what the driver reads; this catalog is what
    /// the program prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for e in END_TO_END {
            let better = if e.better == Lower { "lower" } else { "higher" };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                e.name, e.unit, better, e.bound
            );
            assert!(text.contains(&entry), "missing or different: {entry}");
        }
        for p in PER_LAYER {
            let better = if p.better == Lower { "lower" } else { "higher" };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                p.name, p.unit, better
            );
            assert!(text.contains(&entry), "missing or different: {entry}");
        }
        for w in crate::WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name)),
                "{}",
                w.name
            );
        }
        let listed = text.matches("{\"name\": ").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len()
        );
    }
}
