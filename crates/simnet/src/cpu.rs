//! Per-process CPU cost model.
//!
//! The paper's throughput curves (Figures 5–6, 9) saturate because real
//! machines spend CPU per message; a pure latency simulation would scale
//! forever. We model each replica as a single-server queue: handling an
//! event occupies the process for a cost derived from the message kind and
//! the number of messages it emits. This yields the characteristic
//! closed-loop saturation (Figure 6's peak between 32 and 64 clients) with
//! realistic read/write asymmetry — a write makes the leader send accepts,
//! process accepted acks and send chosen notifications, while a read only
//! costs confirm processing.

use gridpaxos_core::msg::Msg;
use gridpaxos_core::types::Dur;

/// CPU cost parameters (all per-event costs).
#[derive(Clone, Copy, Debug)]
pub struct CpuModel {
    /// Cost to process an incoming client request (parse, classify,
    /// execute the no-op service method).
    pub client_request: Dur,
    /// Cost to process an incoming coordination message.
    pub coord_msg: Dur,
    /// Cost to serialize and push one outgoing message.
    pub send: Dur,
    /// Extra cost per logged decree entry in an accept message — the
    /// state-serialization and write-ahead-logging work each replicated
    /// request costs, on both the sending leader and the accepting backup.
    /// This is what makes write throughput saturate below read throughput,
    /// as in the paper's Figures 5–6.
    pub accept_entry: Dur,
    /// Cost of one stable-storage sync (`fsync`). Only charged when the
    /// simulation opts into a durability model
    /// ([`crate::world::DurabilityMode`]), once per flush barrier.
    /// Dominates everything above by orders of magnitude on real disks —
    /// which is exactly why group commit is worth modeling.
    pub fsync: Dur,
}

impl CpuModel {
    /// Calibrated for the paper's Pentium IV 2.8 GHz Sysnet machines:
    /// peak service throughput in the tens of thousands of requests per
    /// second with 3 replicas, writes saturating below reads.
    #[must_use]
    pub fn sysnet() -> CpuModel {
        CpuModel {
            client_request: Dur::from_nanos(16_000),
            coord_msg: Dur::from_nanos(1_300),
            send: Dur::from_nanos(700),
            accept_entry: Dur::from_nanos(800),
            // ~half a 7200 rpm rotation + controller overhead: the
            // write-cache-disabled commodity disks of the paper's era.
            fsync: Dur::from_nanos(2_000_000),
        }
    }

    /// A message-bound profile: per-message overhead (syscall, wakeup,
    /// parse) dominates and request execution is cheap — the regime of
    /// small-payload services behind an unbatched socket layer, where the
    /// kernel crossings cost more than the service method. Coordination
    /// messages are priced above the (no-op) client requests because they
    /// also run the protocol path — ballot validation plus a read-table
    /// mutation and completion check per confirm. Under this model
    /// coordination fan-in, not request parsing, is the saturating
    /// resource, which is exactly the load the epoch-batched confirm
    /// rounds target; used by the `read-batching` experiment for both of
    /// its arms.
    #[must_use]
    pub fn msg_bound() -> CpuModel {
        CpuModel {
            client_request: Dur::from_nanos(8_000),
            coord_msg: Dur::from_nanos(12_000),
            send: Dur::from_nanos(2_000),
            accept_entry: Dur::from_nanos(800),
            fsync: Dur::from_nanos(2_000_000),
        }
    }

    /// No CPU cost at all: pure latency simulation (useful for protocol
    /// tests where queueing is noise).
    #[must_use]
    pub fn free() -> CpuModel {
        CpuModel {
            client_request: Dur::ZERO,
            coord_msg: Dur::ZERO,
            send: Dur::ZERO,
            accept_entry: Dur::ZERO,
            fsync: Dur::ZERO,
        }
    }

    /// Cost to receive and handle `msg`. The group envelope is priced as
    /// its payload — demuxing a 4-byte tag is noise next to the handling.
    #[must_use]
    pub fn recv_cost(&self, msg: &Msg) -> Dur {
        match msg {
            Msg::Request(_) => self.client_request,
            Msg::Accept { entries, .. } => self
                .coord_msg
                .saturating_add(self.accept_entry.mul(total_entries(entries))),
            Msg::Grouped { inner, .. } => self.recv_cost(inner),
            _ => self.coord_msg,
        }
    }

    /// Cost to emit one copy of `msg`.
    #[must_use]
    pub fn send_cost_one(&self, msg: &Msg) -> Dur {
        match msg {
            Msg::Accept { entries, .. } => self
                .send
                .saturating_add(self.accept_entry.mul(total_entries(entries))),
            Msg::Grouped { inner, .. } => self.send_cost_one(inner),
            _ => self.send,
        }
    }
}

fn total_entries(
    entries: &[(
        gridpaxos_core::types::Instance,
        gridpaxos_core::command::Decree,
    )],
) -> u64 {
    entries.iter().map(|(_, d)| d.entries.len() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridpaxos_core::ballot::Ballot;
    use gridpaxos_core::types::Instance;

    #[test]
    fn requests_cost_more_than_coordination() {
        let c = CpuModel::sysnet();
        let req = Msg::Request(gridpaxos_core::request::Request::new(
            gridpaxos_core::request::RequestId::new(
                gridpaxos_core::types::ClientId(1),
                gridpaxos_core::types::Seq(1),
            ),
            gridpaxos_core::request::RequestKind::Read,
            bytes::Bytes::new(),
        ));
        let hb = Msg::Heartbeat {
            ballot: Ballot::ZERO,
            chosen: Instance::ZERO,
            hb_seq: 0,
        };
        assert!(c.recv_cost(&req) > c.recv_cost(&hb));
    }

    #[test]
    fn accept_cost_scales_with_batched_entries() {
        use gridpaxos_core::command::{Command, Decree, DecreeEntry, StateUpdate};
        use gridpaxos_core::request::{ReplyBody, Request, RequestId, RequestKind};
        use gridpaxos_core::types::{ClientId, Seq};
        let c = CpuModel::sysnet();
        let entry = |_| DecreeEntry {
            cmd: Command::Req(Request::new(
                RequestId::new(ClientId(1), Seq(1)),
                RequestKind::Write,
                bytes::Bytes::new(),
            )),
            update: StateUpdate::None,
            reply: ReplyBody::Empty,
        };
        let d = Decree {
            entries: (0..3).map(entry).collect(),
        };
        let small = Msg::Accept {
            ballot: Ballot::ZERO,
            entries: vec![(Instance(1), Decree::noop())],
        };
        let big = Msg::Accept {
            ballot: Ballot::ZERO,
            entries: vec![(Instance(1), d)],
        };
        assert!(c.recv_cost(&big) > c.recv_cost(&small));
        assert!(c.send_cost_one(&big) > c.send_cost_one(&small));
        assert_eq!(
            c.recv_cost(&big).0 - c.recv_cost(&small).0,
            c.accept_entry.0 * 3
        );
    }

    #[test]
    fn free_model_is_free() {
        let c = CpuModel::free();
        let hb = Msg::Heartbeat {
            ballot: Ballot::ZERO,
            chosen: Instance::ZERO,
            hb_seq: 0,
        };
        assert_eq!(c.recv_cost(&hb), Dur::ZERO);
        assert_eq!(c.send_cost_one(&hb), Dur::ZERO);
    }
}
