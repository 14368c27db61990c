//! From raw results to named metrics. Names, units and sources are
//! documented in README.md; the names are what later PRs cite.

use crate::config::{StorageKind, WorkloadSpec, CLEAN_STEAL_TICKS, SYNC_DELAY};
use crate::driver::{Completion, RunStats};
use crate::live::LiveResult;
use crate::shuttle::Outcome;
use crate::sim::SimCounts;
use crate::stats::{median, percentile, supports};
use crate::trace::{self_times, Span, CLIENT};
use std::time::Duration;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count behind a percentile.
    pub samples: Option<usize>,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        // An empty float sum is -0.0; print it as zero.
        value: value + 0.0,
        samples: None,
    }
}

/// Latencies (ns, ascending) of the completions inside the window that
/// `keep` selects.
fn latencies(stats: &RunStats, keep: impl Fn(&Completion) -> bool) -> Vec<u64> {
    let mut ns: Vec<u64> = stats
        .completions
        .iter()
        .filter(|c| c.at <= stats.window && keep(c))
        .map(|c| c.latency.as_nanos() as u64)
        .collect();
    ns.sort_unstable();
    ns
}

/// A percentile metric; NaN ("refused") when the sample cannot support
/// it — fewer than ten samples beyond the percentile.
fn pct(
    name: &'static str,
    unit: &'static str,
    sorted_ns: &[u64],
    p: f64,
    per_unit_ns: f64,
) -> Metric {
    let value = percentile(sorted_ns, p)
        .filter(|_| p <= 50.0 || supports(sorted_ns.len(), p))
        .map_or(f64::NAN, |v| v as f64 / per_unit_ns);
    Metric {
        name,
        unit,
        value,
        samples: Some(sorted_ns.len()),
    }
}

/// Which seconds of phase B the gated metrics are taken over: as many as
/// were planned, those the host stole the least vCPU time from (the
/// earlier one where two tie).
fn kept_seconds(live: &LiveResult) -> Vec<bool> {
    let mut by_steal: Vec<usize> = (0..live.steal_b.len()).collect();
    by_steal.sort_by_key(|&i| live.steal_b[i]);
    let mut kept = vec![false; live.steal_b.len()];
    for &i in by_steal.iter().take(live.planned_b_secs as usize) {
        kept[i] = true;
    }
    kept
}

/// Whether a phase B completion fell into one of the `kept` seconds.
fn in_kept(c: &Completion, kept: &[bool]) -> bool {
    kept.get(c.at.as_secs() as usize).copied().unwrap_or(false)
}

/// Requests completed in each whole second of a run's window.
pub fn per_second(stats: &RunStats) -> Vec<u64> {
    let mut counts = vec![0; stats.window.as_secs() as usize];
    for c in &stats.completions {
        if let Some(n) = counts.get_mut(c.at.as_secs() as usize) {
            *n += 1;
        }
    }
    counts
}

/// Completed ops per second in phase B: (the median over its `kept`
/// seconds, so one stall — a checkpoint, a scheduler hiccup — does not
/// decide the figure; the mean over all of it).
fn throughput(stats: &RunStats, kept: &[bool]) -> (f64, f64) {
    let counts = per_second(stats);
    let mean = counts.iter().sum::<u64>() as f64 / counts.len().max(1) as f64;
    let mut kept_counts: Vec<f64> = counts
        .into_iter()
        .zip(kept)
        .filter_map(|(n, &keep)| keep.then_some(n as f64))
        .collect();
    (median(&mut kept_counts).unwrap_or(mean), mean)
}

/// The gated metrics: `(name, better, bound)`, mirrored in
/// `BENCHMARK.json` (a test keeps the two in step).
pub const E2E_BOUNDS: [(&str, &str, f64); 4] = [
    ("setup_s", "lower", 0.25),
    ("tput_ops_s", "higher", 0.25),
    ("loaded_p50_ms", "lower", 0.25),
    ("peak_rss_mb", "lower", 0.15),
];

/// The end-to-end metrics, all from the untraced live run. (Phase A's
/// single-client RRT is reported per layer, as `client.rrt_*`: see
/// README, "Demoted".)
pub fn end_to_end(live: &LiveResult) -> Vec<Metric> {
    let mut setups = live.setups_s.clone();
    let kept = kept_seconds(live);
    let kept_b = latencies(&live.phase_b, |c| in_kept(c, &kept));
    vec![
        Metric {
            samples: Some(setups.len()),
            ..metric("setup_s", "s", median(&mut setups).unwrap_or(0.0))
        },
        Metric {
            samples: Some(kept_b.len()),
            ..metric("tput_ops_s", "ops/s", throughput(&live.phase_b, &kept).0)
        },
        pct("loaded_p50_ms", "ms", &kept_b, 50.0, 1e6),
        metric("peak_rss_mb", "MB", live.peak_rss_mb),
    ]
}

/// Sums over the measured spans of one name prefix.
struct SpanSums<'a> {
    spans: &'a [Span],
    own: Vec<u64>,
}

impl SpanSums<'_> {
    fn self_ns(&self, keep: impl Fn(&Span) -> bool) -> f64 {
        self.spans
            .iter()
            .zip(&self.own)
            .filter(|(s, _)| keep(s))
            .map(|(_, own)| *own as f64)
            .sum()
    }

    fn count(&self, keep: impl Fn(&Span) -> bool) -> f64 {
        self.spans.iter().filter(|s| keep(s)).count() as f64
    }

    /// Median over write requests of the blocking self time, in ns.
    /// `reads[id - 1]` tells whether request `id` was a read.
    fn blocking_ns_per_write(&self, reads: &[bool]) -> f64 {
        let n = self.spans.iter().map(|s| s.request_id).max().unwrap_or(0) as usize;
        let mut per_request = vec![0.0f64; n + 1];
        // The `request` root's own self time is the shuttle's queue
        // handling, not a layer's work.
        for (s, own) in self.spans.iter().zip(&self.own) {
            if s.blocking && s.name != "request" && s.name != "request.tail" {
                per_request[s.request_id as usize] += *own as f64;
            }
        }
        let mut writes: Vec<f64> = per_request
            .into_iter()
            .enumerate()
            .filter(|(id, _)| *id > 0 && !reads[id - 1])
            .map(|(_, ns)| ns)
            .collect();
        median(&mut writes).unwrap_or(0.0)
    }
}

/// Everything the traced run feeds into [`per_layer`].
pub struct TraceInputs<'a> {
    pub traced: &'a Outcome,
    pub bare: &'a Outcome,
    pub sim: SimCounts,
    /// p50 of real `fdatasync` calls in the checkout, µs (informational).
    pub disk_flush_p50_us: f64,
}

/// The per-layer metrics: live counters diffed over phase B, the traced
/// shuttle's self times and counts, and the simulator's counts.
pub fn per_layer(spec: &WorkloadSpec, live: &LiveResult, t: &TraceInputs<'_>) -> Vec<Metric> {
    let ops_b = live
        .phase_b
        .completions
        .iter()
        .filter(|c| c.at <= live.phase_b.window)
        .count()
        .max(1) as f64;
    let (b0, b1) = (&live.before_b, &live.after_b);
    let leader = live.leader;
    let followers: Vec<usize> = (0..b1.reactor.len()).filter(|&i| i != leader).collect();
    let rd = |f: fn(&gridpaxos_transport::ReactorStats) -> u64| {
        (f(&b1.reactor[leader]) - f(&b0.reactor[leader])) as f64 / ops_b
    };
    let total = |f: fn(&gridpaxos_transport::ReactorStats) -> u64| {
        b1.reactor.iter().map(f).sum::<u64>() as f64
    };
    let diff = |v1: &[u64], v0: &[u64], i: usize| -> f64 {
        v1.get(i)
            .zip(v0.get(i))
            .map_or(0.0, |(a, b)| (a - b) as f64)
    };
    let follower_syncs = followers
        .iter()
        .map(|&i| diff(&b1.syncs, &b0.syncs, i))
        .sum::<f64>()
        / followers.len().max(1) as f64;

    let lead = &live.replica_stats[leader];
    let sum_stats = |f: fn(&gridpaxos_core::replica::ReplicaStats) -> u64| {
        live.replica_stats.iter().map(f).sum::<u64>() as f64
    };
    let writes_b = live
        .phase_b
        .completions
        .iter()
        .filter(|c| c.at <= live.phase_b.window && !c.read)
        .count() as f64;
    let rrt_reads = latencies(&live.phase_a, |c| c.read);
    let rrt_writes = latencies(&live.phase_a, |c| !c.read);
    let all_b = latencies(&live.phase_b, |_| true);
    let c = &t.traced.counts;
    let ops = (c.writes + c.reads).max(1) as f64;
    let sums = SpanSums {
        spans: &t.traced.spans,
        own: self_times(&t.traced.spans),
    };
    let named = |name: &'static str| move |s: &Span| s.name == name;
    let step = |s: &Span| s.name.starts_with("core.replica.");
    let syncs_waited = c.blocking_flushes as f64 / ops;
    let modelled_ns = match spec.storage {
        StorageKind::Mem => 0.0,
        StorageKind::Durable => {
            // A write waits for the leader's and one follower's barriers.
            c.blocking_flushes as f64 / c.writes.max(1) as f64 * SYNC_DELAY.as_nanos() as f64
        }
    };
    let blocking_ns = sums.blocking_ns_per_write(&t.traced.reads) + modelled_ns;
    let rrt_write_p50_ns = percentile(&rrt_writes, 50.0).unwrap_or(0) as f64;
    let overhead =
        (t.traced.wall.as_secs_f64() / t.bare.wall.as_secs_f64().max(1e-9) - 1.0) * 100.0;
    let cpu_b = (b1.process_cpu_ns - b0.process_cpu_ns).max(1) as f64;
    let client_ops = (live.attempted).max(1) as f64;
    let (_, tput_mean) = throughput(&live.phase_b, &kept_seconds(live));
    let flushes = sums.count(named("transport.fstorage.flush")).max(1.0);
    let appends = sums.count(named("transport.fstorage.append")).max(1.0);

    vec![
        // core.replica — trace
        metric(
            "core.replica.leader_step_ns_per_op",
            "ns",
            sums.self_ns(|s| step(s) && s.node == 0) / ops,
        ),
        metric(
            "core.replica.follower_step_ns_per_op",
            "ns",
            sums.self_ns(|s| step(s) && s.node != 0 && s.node != CLIENT) / 2.0 / ops,
        ),
        metric(
            "core.replica.actions_per_op",
            "count",
            c.actions as f64 / ops,
        ),
        metric(
            "core.replica.msgs_per_write",
            "count",
            c.msgs_write as f64 / c.writes.max(1) as f64,
        ),
        metric(
            "core.replica.msgs_per_read",
            "count",
            c.msgs_read as f64 / c.reads.max(1) as f64,
        ),
        // core.replica — live
        metric(
            "core.replica.ops_per_decree",
            "count",
            writes_b / diff(&b1.accepts, &b0.accepts, leader).max(1.0),
        ),
        metric(
            "core.replica.reads_per_confirm_round",
            "count",
            lead.batched_reads as f64 / lead.confirm_rounds.max(1) as f64,
        ),
        metric(
            "core.replica.elections_started",
            "count",
            sum_stats(|s| s.elections_started),
        ),
        metric(
            "core.replica.step_downs",
            "count",
            sum_stats(|s| s.step_downs),
        ),
        metric(
            "core.replica.lag_at_shutdown",
            "count",
            live.lag_at_shutdown as f64,
        ),
        metric("core.replica.checkpoints", "count", lead.checkpoints as f64),
        metric(
            "core.replica.last_checkpoint_ms",
            "ms",
            lead.last_checkpoint_dur.as_millis_f64(),
        ),
        // core.client
        metric(
            "core.client.ns_per_op",
            "ns",
            sums.self_ns(|s| s.name.starts_with("core.client.")) / ops,
        ),
        metric(
            "core.client.retries_per_op",
            "count",
            live.client.retries as f64 / client_ops,
        ),
        metric(
            "core.client.redirects",
            "count",
            live.client.redirects as f64,
        ),
        // transport.wire / framing — trace
        metric(
            "transport.wire.encode_ns_per_op",
            "ns",
            sums.self_ns(named("transport.wire.encode")) / ops,
        ),
        metric(
            "transport.wire.decode_ns_per_op",
            "ns",
            sums.self_ns(named("transport.wire.decode")) / ops,
        ),
        metric("transport.wire.bytes_per_op", "B", c.bytes as f64 / ops),
        metric(
            "transport.framing.ns_per_op",
            "ns",
            sums.self_ns(|s| s.name.starts_with("transport.framing.")) / ops,
        ),
        // transport.reactor — live, leader node over phase B
        metric(
            "transport.reactor.msgs_in_per_op",
            "count",
            rd(|s| s.msgs_in),
        ),
        metric(
            "transport.reactor.msgs_out_per_op",
            "count",
            rd(|s| s.msgs_out),
        ),
        metric("transport.reactor.bytes_in_per_op", "B", rd(|s| s.bytes_in)),
        metric(
            "transport.reactor.bytes_out_per_op",
            "B",
            rd(|s| s.bytes_out),
        ),
        metric(
            "transport.reactor.busy_shed",
            "count",
            total(|s| s.busy_shed),
        ),
        metric(
            "transport.reactor.frames_dropped",
            "count",
            total(|s| s.frames_dropped),
        ),
        metric(
            "transport.reactor.partial_writes",
            "count",
            total(|s| s.partial_writes),
        ),
        metric(
            "transport.reactor.reads_suspended",
            "count",
            total(|s| s.reads_suspended),
        ),
        metric(
            "transport.reactor.unroutable",
            "count",
            total(|s| s.unroutable),
        ),
        metric(
            "transport.reactor.residual_us_per_op",
            "us",
            (rrt_write_p50_ns - blocking_ns) / 1e3,
        ),
        // transport.fstorage — live
        metric(
            "transport.fstorage.leader_syncs_per_op",
            "count",
            diff(&b1.syncs, &b0.syncs, leader) / ops_b,
        ),
        metric(
            "transport.fstorage.follower_syncs_per_op",
            "count",
            follower_syncs / ops_b,
        ),
        metric(
            "transport.fstorage.appends_per_op",
            "count",
            diff(&b1.wal_appends, &b0.wal_appends, leader) / ops_b,
        ),
        // transport.fstorage — trace
        metric(
            "transport.fstorage.append_ns_per_record",
            "ns",
            sums.self_ns(named("transport.fstorage.append")) / appends,
        ),
        metric(
            "transport.fstorage.wal_bytes_per_op",
            "B",
            c.wal_bytes as f64 / c.wal_ops.max(1) as f64,
        ),
        metric(
            "transport.fstorage.flush_us",
            "us",
            sums.self_ns(named("transport.fstorage.flush")) / flushes / 1e3,
        ),
        metric(
            "transport.fstorage.syncs_waited_per_op",
            "count",
            syncs_waited,
        ),
        metric(
            "transport.fstorage.flush_disk_p50_us",
            "us",
            t.disk_flush_p50_us,
        ),
        // services.kvstore — trace
        metric(
            "services.kvstore.execute_ns_per_op",
            "ns",
            sums.self_ns(named("services.kvstore.execute")) / ops,
        ),
        metric(
            "services.kvstore.apply_ns_per_op",
            "ns",
            sums.self_ns(named("services.kvstore.apply")) / ops,
        ),
        metric(
            "services.kvstore.update_bytes_per_op",
            "B",
            t.traced.update_bytes as f64 / ops,
        ),
        metric(
            "services.kvstore.snapshot_ms",
            "ms",
            t.traced.snapshot.as_secs_f64() * 1e3,
        ),
        // simnet — counts only
        metric("simnet.msgs_per_write", "count", t.sim.msgs_per_write),
        metric("simnet.msgs_per_read", "count", t.sim.msgs_per_read),
        metric("simnet.fsyncs_per_write", "count", t.sim.fsyncs_per_write),
        // process
        metric("process.cpu_us_per_op", "us", cpu_b / 1e3 / ops_b),
        metric(
            "driver.cpu_share",
            "ratio",
            (b1.driver_cpu_ns - b0.driver_cpu_ns) as f64 / cpu_b,
        ),
        metric(
            "process.stolen_seconds",
            "s",
            live.steal_b
                .iter()
                .filter(|&&ticks| ticks > CLEAN_STEAL_TICKS)
                .count() as f64,
        ),
        metric("trace.overhead_pct", "%", overhead),
        // Demoted from the gated list: zero on some workload, carried by
        // `failed` / `attempted`, or a tail whose run-to-run spread
        // exceeded any bound the contract allows (see README).
        pct("client.rrt_read_p50_us", "us", &rrt_reads, 50.0, 1e3),
        pct("client.rrt_read_p99_us", "us", &rrt_reads, 99.0, 1e3),
        pct("client.rrt_write_p50_us", "us", &rrt_writes, 50.0, 1e3),
        pct("client.rrt_write_p99_us", "us", &rrt_writes, 99.0, 1e3),
        pct("client.loaded_p99_ms", "ms", &all_b, 99.0, 1e6),
        metric(
            "client.failed_ratio",
            "ratio",
            live.failed as f64 / live.attempted.max(1) as f64,
        ),
        metric("client.tput_mean_ops_s", "ops/s", tput_mean),
    ]
}

/// p50 of `n` real `fdatasync` calls after small appends to a file in
/// `dir` — what the modelled delay stands in for, on this disk.
pub fn disk_flush_p50_us(dir: &std::path::Path, n: usize) -> std::io::Result<f64> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("fsync-probe-{}", std::process::id()));
    let mut f = std::fs::File::create(&path)?;
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        f.write_all(&[0u8; 128])?;
        let t0 = std::time::Instant::now();
        f.sync_data()?;
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(f);
    std::fs::remove_file(&path)?;
    Ok(median(&mut us).unwrap_or(0.0))
}

/// How `--seconds` is split: phase B gets two thirds, in whole seconds
/// (at least one), and phase A the rest.
pub fn phases(seconds: u64) -> (Duration, u64) {
    let b = ((2 * seconds + 1) / 3).max(1);
    (Duration::from_secs(seconds.saturating_sub(b)), b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WORKLOADS;
    use crate::live::LiveCounters;

    fn empty_live() -> LiveResult {
        let counters = LiveCounters {
            reactor: vec![Default::default(); 3],
            ..LiveCounters::default()
        };
        LiveResult {
            setups_s: vec![1.0, 3.0, 2.0],
            phase_a: RunStats::default(),
            phase_b: RunStats::default(),
            steal_b: Vec::new(),
            planned_b_secs: 0,
            before_b: counters.clone(),
            after_b: counters,
            client: Default::default(),
            leader: 0,
            replica_stats: vec![Default::default(); 3],
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
            lag_at_shutdown: 0,
            peak_rss_mb: 1.0,
        }
    }

    fn empty_outcome() -> Outcome {
        Outcome {
            counts: Default::default(),
            spans: Vec::new(),
            wall: Duration::from_secs(1),
            update_bytes: 0,
            snapshot: Duration::ZERO,
            wrong_replies: 0,
            reads: Vec::new(),
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the names, units and
    /// bounds in it must be the ones this code prints.
    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let flat: String = json.split_whitespace().collect();
        let live = empty_live();
        let e2e = end_to_end(&live);
        assert_eq!(e2e.len(), E2E_BOUNDS.len());
        for (m, (name, better, bound)) in e2e.iter().zip(E2E_BOUNDS) {
            assert_eq!(m.name, name);
            let entry = format!(
                "{{\"name\":\"{name}\",\"unit\":\"{}\",\"better\":\"{better}\",\"bound\":{bound}}}",
                m.unit
            );
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let (traced, bare) = (empty_outcome(), empty_outcome());
        let inputs = TraceInputs {
            traced: &traced,
            bare: &bare,
            sim: SimCounts::default(),
            disk_flush_p50_us: 0.0,
        };
        let layers = per_layer(&WORKLOADS[0], &live, &inputs);
        for m in &layers {
            let percentile_of_nothing = m.samples == Some(0);
            assert!(m.value.is_finite() || percentile_of_nothing, "{}", m.name);
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":",
                m.name, m.unit
            );
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            flat.matches("\"better\":").count(),
            e2e.len() + layers.len(),
            "BENCHMARK.json lists a metric the benchmark does not print"
        );
        for w in &WORKLOADS {
            assert!(flat.contains(&format!("{{\"name\":\"{}\",\"why\":", w.name)));
        }
    }

    #[test]
    fn throughput_is_the_median_kept_second() {
        let at = |ms: u64| Completion {
            at: Duration::from_millis(ms),
            latency: Duration::from_micros(100),
            read: false,
        };
        // 3 ops in second 0, 1 in second 1 (a stall), 3 in second 2, 2 in
        // second 3, one after the window.
        let stats = RunStats {
            completions: [10, 500, 900, 1500, 2100, 2500, 2900, 3400, 3600, 4001]
                .map(at)
                .to_vec(),
            window: Duration::from_secs(4),
            ..RunStats::default()
        };
        let (median_rate, mean_rate) = throughput(&stats, &[true; 4]);
        assert_eq!(median_rate, 2.5);
        assert_eq!(mean_rate, 9.0 / 4.0, "the op past the window is left out");
        // With second 1 stolen the median is over 3, 3 and 2.
        let (median_rate, _) = throughput(&stats, &[true, false, true, true]);
        assert_eq!(median_rate, 3.0);
    }

    #[test]
    fn the_planned_number_of_least_stolen_seconds_is_kept() {
        let mut live = empty_live();
        live.planned_b_secs = 3;
        live.steal_b = vec![0, 40, 1, 0, 7];
        assert_eq!(kept_seconds(&live), [true, false, true, true, false]);
        live.steal_b = vec![9, 40, 30, 12, 7];
        assert_eq!(kept_seconds(&live), [true, false, false, true, true]);
        live.steal_b = vec![0, 0, 0];
        assert_eq!(kept_seconds(&live), [true; 3]);
    }

    #[test]
    fn phase_b_is_two_thirds_in_whole_seconds() {
        assert_eq!(phases(15), (Duration::from_secs(5), 10));
        assert_eq!(phases(6), (Duration::from_secs(2), 4));
        assert_eq!(phases(10), (Duration::from_secs(3), 7));
        assert_eq!(phases(1), (Duration::ZERO, 1));
    }
}
