//! Measurement collection: request/transaction latencies, throughput and
//! message accounting.

use crate::stats::{summarize, Summary};
use gridpaxos_core::request::{Request, RequestKind};
use gridpaxos_core::types::{Dur, Time};
use std::collections::HashMap;

/// Everything a simulation run measures.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Request round-trip times in milliseconds, keyed by kind
    /// (`"read"`, `"write"`, `"original"`).
    pub rtt_ms: HashMap<&'static str, Vec<f64>>,
    /// Transaction response times in milliseconds (first op sent →
    /// commit acknowledged).
    pub txn_ms: Vec<f64>,
    /// Committed transactions.
    pub txn_commits: u64,
    /// Aborted transactions.
    pub txn_aborts: u64,
    /// Completed operations (any kind).
    pub completed_ops: u64,
    /// Time measurement started (first client kicked off).
    pub measure_start: Option<Time>,
    /// Completion time of the last operation.
    pub last_op_done: Option<Time>,
    /// Messages delivered, by protocol tag.
    pub msgs_by_tag: HashMap<&'static str, u64>,
    /// Messages dropped by the lossy network.
    pub dropped_msgs: u64,
    /// Client retransmissions observed.
    pub retries: u64,
    /// WAL records persisted across all replicas.
    pub wal_appends: u64,
    /// Stable-storage syncs charged across all replicas (durability model
    /// only): one per flush barrier, so `fsyncs / wal_appends` is the
    /// amortization group commit buys.
    pub fsyncs: u64,
}

/// Measurement key for a request kind.
#[must_use]
pub fn kind_key(kind: RequestKind) -> &'static str {
    match kind {
        RequestKind::Read => "read",
        RequestKind::Write => "write",
        RequestKind::Original => "original",
    }
}

impl Metrics {
    /// Record one completed operation.
    pub fn record_op(&mut self, req: &Request, rtt: Dur, now: Time, retries: u32) {
        self.rtt_ms
            .entry(kind_key(req.kind))
            .or_default()
            .push(rtt.as_millis_f64());
        self.completed_ops += 1;
        self.retries += u64::from(retries);
        self.last_op_done = Some(self.last_op_done.map_or(now, |t| t.max(now)));
    }

    /// Record one finished transaction.
    pub fn record_txn(&mut self, elapsed: Dur, committed: bool) {
        if committed {
            self.txn_ms.push(elapsed.as_millis_f64());
            self.txn_commits += 1;
        } else {
            self.txn_aborts += 1;
        }
    }

    /// Latency summary for a request kind.
    #[must_use]
    pub fn rtt_summary(&self, kind: &str) -> Summary {
        summarize(self.rtt_ms.get(kind).map_or(&[][..], Vec::as_slice))
    }

    /// Latency summary over transactions.
    #[must_use]
    pub fn txn_summary(&self) -> Summary {
        summarize(&self.txn_ms)
    }

    /// Operations per second over the measurement window.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        self.per_sec(self.completed_ops)
    }

    /// Committed transactions per second over the measurement window.
    #[must_use]
    pub fn txns_per_sec(&self) -> f64 {
        self.per_sec(self.txn_commits)
    }

    fn per_sec(&self, count: u64) -> f64 {
        match (self.measure_start, self.last_op_done) {
            (Some(a), Some(b)) if b > a => count as f64 / b.since(a).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Confirm-path messages delivered per completed read: every per-read
    /// `confirm` plus the epoch-batched `confirm_req`/`confirm_batch`
    /// exchanges, divided by completed reads. The per-read protocol pays
    /// `n - 1` confirms per read, so this sits near 2.0 for `n = 3`;
    /// epoch batching drives it below 1.0 at saturation (one round
    /// validates many reads). `NaN` when no reads completed.
    #[must_use]
    pub fn confirm_msgs_per_read(&self) -> f64 {
        let confirm_msgs: u64 = ["confirm", "confirm_req", "confirm_batch"]
            .iter()
            .filter_map(|t| self.msgs_by_tag.get(t))
            .sum();
        let reads = self.rtt_ms.get("read").map_or(0, Vec::len);
        confirm_msgs as f64 / reads as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridpaxos_core::request::RequestId;
    use gridpaxos_core::types::{ClientId, Seq};

    fn req(kind: RequestKind) -> Request {
        Request::new(
            RequestId::new(ClientId(1), Seq(1)),
            kind,
            bytes::Bytes::new(),
        )
    }

    #[test]
    fn ops_accumulate_per_kind() {
        let mut m = Metrics {
            measure_start: Some(Time::ZERO),
            ..Metrics::default()
        };
        m.record_op(
            &req(RequestKind::Read),
            Dur::from_millis(1),
            Time(2_000_000_000),
            0,
        );
        m.record_op(
            &req(RequestKind::Write),
            Dur::from_millis(2),
            Time(4_000_000_000),
            1,
        );
        assert_eq!(m.rtt_summary("read").n, 1);
        assert_eq!(m.rtt_summary("write").n, 1);
        assert_eq!(m.rtt_summary("original").n, 0);
        assert_eq!(m.completed_ops, 2);
        assert_eq!(m.retries, 1);
        // 2 ops over 4 seconds.
        assert!((m.ops_per_sec() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn txn_accounting_separates_aborts() {
        let mut m = Metrics {
            measure_start: Some(Time::ZERO),
            last_op_done: Some(Time(1_000_000_000)),
            ..Metrics::default()
        };
        m.record_txn(Dur::from_millis(3), true);
        m.record_txn(Dur::from_millis(9), false);
        assert_eq!(m.txn_commits, 1);
        assert_eq!(m.txn_aborts, 1);
        assert_eq!(m.txn_summary().n, 1, "aborted txns don't pollute latency");
        assert!((m.txns_per_sec() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn confirm_msgs_per_read_counts_all_confirm_traffic() {
        let mut m = Metrics::default();
        for _ in 0..4 {
            m.record_op(
                &req(RequestKind::Read),
                Dur::from_millis(1),
                Time(1_000_000),
                0,
            );
        }
        m.msgs_by_tag.insert("confirm", 2);
        m.msgs_by_tag.insert("confirm_req", 1);
        m.msgs_by_tag.insert("confirm_batch", 1);
        m.msgs_by_tag.insert("accept", 99); // unrelated traffic ignored
        assert!((m.confirm_msgs_per_read() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_is_zero_without_window() {
        let m = Metrics::default();
        assert_eq!(m.ops_per_sec(), 0.0);
    }
}
