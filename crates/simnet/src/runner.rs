//! The one runner behind every simulated table and figure: an
//! [`Experiment`] describes a world (config, network, CPU model, groups,
//! service) and its clients, and [`Experiment::run`] builds it, starts
//! the clients and runs them to completion. Callers read the returned
//! world's [`Metrics`](crate::metrics::Metrics). A caller that measures
//! between events takes [`Experiment::build`] and steps the world itself.

use crate::cpu::CpuModel;
use crate::topology::{SiteId, Topology};
use crate::workload::Driver;
use crate::world::{SimOpts, World};
use gridpaxos_core::client::ShardRouter;
use gridpaxos_core::config::{Config, ReadMode, TxnMode};
use gridpaxos_core::service::{App, NoopApp};
use gridpaxos_core::types::{Addr, ClientId, Dur, GroupId, ProcessId, Time};

/// What to run.
pub struct Experiment {
    /// Replica configuration (protocol modes, timeouts).
    pub cfg: Config,
    /// Network.
    pub topology: Topology,
    /// CPU model.
    pub cpu: CpuModel,
    /// Seed.
    pub seed: u64,
    /// Wall-clock budget for the virtual run.
    pub deadline: Dur,
    /// Consensus groups every node hosts.
    pub groups: usize,
    /// How clients route requests to groups (`None`: all to group 0).
    pub router: Option<ShardRouter>,
    /// The service, built once per group on every replica.
    pub app: Box<dyn Fn(GroupId) -> Box<dyn App> + Send>,
    /// The clients, each pinned to a site or at the topology's default.
    pub clients: Vec<(Box<dyn Driver>, Option<SiteId>)>,
    /// Runs on the built world, clients added, before the clock starts
    /// (e.g. a crash schedule).
    pub before_run: Box<dyn FnOnce(&mut World)>,
}

/// Clients start only after the bootstrap election has settled — the
/// paper's "start signal" sent by the leader.
const CLIENT_START: Time = Time(200_000_000); // 200 ms into the run

impl Experiment {
    /// Default experiment on a topology: cluster-tuned config for the
    /// Sysnet topology, WAN-tuned otherwise; bootstrap leader `r0`; X-Paxos
    /// reads on; one group of [`NoopApp`]; no clients.
    #[must_use]
    pub fn on(topology: Topology, seed: u64) -> Experiment {
        let n = topology.n_replicas();
        let wan = topology.nominal_ms(Addr::Client(ClientId(0)), Addr::Replica(ProcessId(0))) > 5.0;
        let cfg = if wan {
            Config::wan(n)
        } else {
            Config::cluster(n)
        };
        Experiment {
            cfg,
            topology,
            cpu: CpuModel::sysnet(),
            seed,
            deadline: Dur::from_secs(3600),
            groups: 1,
            router: None,
            app: Box::new(|_| Box::new(NoopApp::new())),
            clients: Vec::new(),
            before_run: Box::new(|_| {}),
        }
    }

    /// Override the read mode.
    #[must_use]
    pub fn read_mode(mut self, m: ReadMode) -> Experiment {
        self.cfg.read_mode = m;
        self
    }

    /// Override the transaction mode.
    #[must_use]
    pub fn txn_mode(mut self, m: TxnMode) -> Experiment {
        self.cfg.txn_mode = m;
        self
    }

    /// Add `n` clients at the default site, the `i`-th running `driver(i)`.
    #[must_use]
    pub fn clients<D: Driver + 'static>(
        mut self,
        n: usize,
        mut driver: impl FnMut(usize) -> D,
    ) -> Experiment {
        let added = (0..n).map(|i| (Box::new(driver(i)) as Box<dyn Driver>, None));
        self.clients.extend(added);
        self
    }

    /// Build the world, add every client to start at 200 ms, and run
    /// [`before_run`](Experiment::before_run). The clock has not moved:
    /// the caller steps the world.
    #[must_use]
    pub fn build(self) -> World {
        let opts = SimOpts {
            cpu: self.cpu,
            ..SimOpts::for_topology(self.topology, self.seed)
        };
        let mut w = World::new_sharded(self.cfg, opts, self.app, self.groups, self.router);
        for (driver, site) in self.clients {
            w.add_client(driver, site, CLIENT_START);
        }
        (self.before_run)(&mut w);
        w
    }

    /// [`build`](Experiment::build) the world and run until every client
    /// finishes or the deadline passes. Returns the world and whether
    /// every client finished.
    #[must_use]
    pub fn run(self) -> (World, bool) {
        let deadline = Time::ZERO.after(self.deadline);
        let mut w = self.build();
        let done = w.run_to_completion(deadline);
        (w, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::kind_key;
    use crate::stats::Summary;
    use crate::workload::{OpLoop, TxnLoop};
    use gridpaxos_core::client::TxnScript;
    use gridpaxos_core::request::RequestKind;

    /// `clients` closed-loop clients of `per_client` requests, run to
    /// completion.
    fn ops(exp: Experiment, kind: RequestKind, clients: usize, per_client: u64) -> World {
        let (w, done) = exp
            .clients(clients, |_| OpLoop::new(kind, per_client))
            .run();
        assert!(done, "run did not complete within the deadline");
        w
    }

    fn rrt(exp: Experiment, kind: RequestKind, total: u64) -> Summary {
        ops(exp, kind, 1, total).metrics.rtt_summary(kind_key(kind))
    }

    fn trt(exp: Experiment, script: TxnScript, total: u64) -> Summary {
        let (w, done) = exp
            .clients(1, |_| TxnLoop::new(script.clone(), total))
            .run();
        assert!(done, "txn run did not complete within the deadline");
        w.metrics.txn_summary()
    }

    #[test]
    fn sysnet_rrt_matches_paper_shape() {
        // §4.1: original 0.181 ms < read 0.263 ms < write 0.338 ms.
        let orig = rrt(
            Experiment::on(Topology::sysnet(3), 1),
            RequestKind::Original,
            200,
        );
        let read = rrt(
            Experiment::on(Topology::sysnet(3), 1),
            RequestKind::Read,
            200,
        );
        let write = rrt(
            Experiment::on(Topology::sysnet(3), 1),
            RequestKind::Write,
            200,
        );
        assert!(
            orig.mean < read.mean && read.mean < write.mean,
            "orig {:.3} < read {:.3} < write {:.3}",
            orig.mean,
            read.mean,
            write.mean
        );
        // Within a loose band of the paper's absolute numbers.
        assert!((0.10..0.30).contains(&orig.mean), "orig {:.3}", orig.mean);
        assert!((0.18..0.40).contains(&read.mean), "read {:.3}", read.mean);
        assert!(
            (0.25..0.50).contains(&write.mean),
            "write {:.3}",
            write.mean
        );
        // X-Paxos saves a meaningful fraction vs the basic protocol.
        let saving = 1.0 - read.mean / write.mean;
        assert!(saving > 0.10, "X-Paxos saving {saving:.2}");
    }

    #[test]
    fn sysnet_read_throughput_beats_write_throughput() {
        // §4.1: "the throughput of reads was at least 13% higher than that
        // of writes".
        let reads = ops(
            Experiment::on(Topology::sysnet(3), 2),
            RequestKind::Read,
            8,
            125,
        )
        .metrics
        .ops_per_sec();
        let writes = ops(
            Experiment::on(Topology::sysnet(3), 2),
            RequestKind::Write,
            8,
            125,
        )
        .metrics
        .ops_per_sec();
        assert!(
            reads > writes * 1.10,
            "reads {reads:.0}/s vs writes {writes:.0}/s"
        );
    }

    #[test]
    fn wan_spread_xpaxos_beats_consensus_reads() {
        // §4.1 configuration 3: read RRT well below write RRT.
        let read = rrt(
            Experiment::on(Topology::wan_spread(), 3),
            RequestKind::Read,
            40,
        );
        let write = rrt(
            Experiment::on(Topology::wan_spread(), 3),
            RequestKind::Write,
            40,
        );
        assert!(
            write.mean - read.mean > 15.0,
            "read {:.1} ms vs write {:.1} ms",
            read.mean,
            write.mean
        );
    }

    #[test]
    fn tpaxos_reduces_transaction_latency() {
        // Table 1's shape: optimized < read/write < write-only.
        let script = TxnScript::write_only(3);
        let unopt = trt(
            Experiment::on(Topology::sysnet(3), 4).txn_mode(TxnMode::PerOp),
            script.clone(),
            100,
        );
        let opt = trt(
            Experiment::on(Topology::sysnet(3), 4).txn_mode(TxnMode::TPaxos),
            script,
            100,
        );
        assert!(
            opt.mean < unopt.mean * 0.80,
            "T-Paxos {:.3} ms vs per-op {:.3} ms",
            opt.mean,
            unopt.mean
        );
    }

    #[test]
    fn replicas_converge_after_throughput_run() {
        let mut w = ops(
            Experiment::on(Topology::sysnet(3), 5),
            RequestKind::Write,
            4,
            50,
        );
        // Let heartbeats flush the last chosen notifications.
        let settle = w.now.after(Dur::from_secs(1));
        w.run_until(settle);
        let states = w.replica_states();
        assert_eq!(states.len(), 3);
        assert!(states.windows(2).all(|p| p[0] == p[1]), "replicas diverged");
    }
}
