//! The same traffic through the seeded simulator, for its *counts* only.
//!
//! The simulator's clock and CPU are modelled, so its times say nothing
//! about this machine; but its message and fsync counts per operation
//! should equal the shipped path's. A gap between these and the live
//! `transport.reactor.msgs_*` / `transport.fstorage.*syncs_per_op` means
//! the simulator's model has drifted from the code it models.

use crate::config::{cluster_config, StorageKind, WorkloadSpec, N_REPLICAS, SIM_OPS};
use crate::workload::{Model, Op, OpGen};
use gridpaxos_core::action::Action;
use gridpaxos_core::client::{ClientCore, CompletedOp};
use gridpaxos_core::types::Time;
use gridpaxos_services::KvStore;
use gridpaxos_simnet::metrics::Metrics;
use gridpaxos_simnet::topology::Topology;
use gridpaxos_simnet::workload::Driver;
use gridpaxos_simnet::world::{DurabilityMode, SimOpts, World};

/// Seeded-stream label of the simulated ops.
const PHASE_SIM: u64 = 5;
/// Message kinds an operation causes (heartbeats and elections excluded).
const OP_TAGS: [&str; 9] = [
    "request",
    "reply",
    "accept",
    "accepted",
    "accept_nack",
    "chosen",
    "confirm",
    "confirm_req",
    "confirm_batch",
];

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimCounts {
    pub msgs_per_write: f64,
    pub msgs_per_read: f64,
    pub fsyncs_per_write: f64,
}

/// One closed-loop client issuing the workload's keys, all reads or all
/// writes.
struct SimLoop {
    gen: OpGen,
    model: Model,
    reads: bool,
    remaining: u64,
    outstanding: bool,
}

impl Driver for SimLoop {
    fn kick(&mut self, core: &mut ClientCore, now: Time) -> Option<Vec<Action>> {
        if self.remaining == 0 || self.outstanding {
            return None;
        }
        self.remaining -= 1;
        self.outstanding = true;
        let key = self.gen.next_op().key();
        let op = if self.reads {
            Op::Get { key }
        } else {
            Op::Put { key }
        };
        let (kind, payload) = self.model.request(op);
        Some(core.submit_op(kind, payload, now))
    }

    fn on_complete(&mut self, _done: &CompletedOp, _now: Time, _metrics: &mut Metrics) {
        self.outstanding = false;
    }

    fn done(&self) -> bool {
        self.remaining == 0 && !self.outstanding
    }
}

/// Messages and fsyncs per completed op of one all-reads or all-writes run.
fn one_run(spec: &WorkloadSpec, seed: u64, reads: bool) -> (f64, f64) {
    let mut opts = SimOpts::for_topology(Topology::sysnet(N_REPLICAS), seed);
    if spec.storage == StorageKind::Durable {
        opts.durability = DurabilityMode::Batched;
    }
    let mut world = World::new(
        cluster_config(),
        opts,
        Box::new(|| Box::new(KvStore::new())),
    );
    world.add_client(
        Box::new(SimLoop {
            gen: OpGen::new(spec, seed, PHASE_SIM, 0, 1),
            model: Model::new(spec),
            reads,
            remaining: SIM_OPS,
            outstanding: false,
        }),
        None,
        Time(200_000_000), // after the bootstrap election
    );
    let fsyncs_before = {
        world.run_until(Time(199_000_000));
        world.metrics.fsyncs
    };
    let finished = world.run_to_completion(Time(600_000_000_000));
    assert!(finished, "simulated run did not finish");
    let ops = world.metrics.completed_ops.max(1) as f64;
    let msgs: u64 = OP_TAGS
        .iter()
        .filter_map(|t| world.metrics.msgs_by_tag.get(t))
        .sum();
    (
        msgs as f64 / ops,
        (world.metrics.fsyncs - fsyncs_before) as f64 / ops,
    )
}

pub fn run(spec: &WorkloadSpec, seed: u64) -> SimCounts {
    let (msgs_per_write, fsyncs_per_write) = one_run(spec, seed, false);
    let msgs_per_read = if spec.read_pct > 0 {
        one_run(spec, seed, true).0
    } else {
        0.0
    };
    SimCounts {
        msgs_per_write,
        msgs_per_read,
        fsyncs_per_write,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WORKLOADS;

    #[test]
    fn simulated_counts_repeat_exactly() {
        let spec = &WORKLOADS[2];
        let a = run(spec, 42);
        assert_eq!(a, run(spec, 42));
        assert!(a.msgs_per_write > a.msgs_per_read && a.msgs_per_read > 0.0);
        assert!(a.fsyncs_per_write > 0.0);
        assert_eq!(run(&WORKLOADS[0], 42).fsyncs_per_write, 0.0);
    }
}
