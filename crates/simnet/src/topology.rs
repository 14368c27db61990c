//! Network topologies: who sits where, and what the links cost.
//!
//! Processes are grouped into *sites*; a latency model is attached to each
//! ordered site pair. The three presets reproduce the paper's three
//! evaluation configurations (§4).

use crate::latency::LatencyModel;
use gridpaxos_core::types::{Addr, ClientId, Dur, ProcessId};
use rand::rngs::SmallRng;
use std::collections::HashMap;

/// A site index.
pub type SiteId = usize;

/// Placement of replicas and clients onto sites, plus the site-to-site
/// latency matrix.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Site of each replica (index = replica id).
    pub replica_sites: Vec<SiteId>,
    /// Site of specific clients; clients not listed use
    /// [`Topology::default_client_site`].
    pub client_sites: HashMap<ClientId, SiteId>,
    /// Site used by clients without an explicit placement.
    pub default_client_site: SiteId,
    /// `links[a][b]` = one-way latency model from site `a` to site `b`.
    pub links: Vec<Vec<LatencyModel>>,
    /// Message loss probability per hop (applies to inter-site links).
    pub loss: f64,
    /// Transmission cost in nanoseconds per wire byte, added on top of the
    /// propagation latency (Gigabit Ethernet ≈ 0.8 ns/B; a 100 Mbit WAN
    /// path ≈ 80 ns/B). Makes large shipped states cost real time — the
    /// overhead §3.3 argues should be engineered away with deltas or
    /// reproduction records.
    pub ns_per_byte: f64,
    /// Human-readable name (reports).
    pub name: &'static str,
}

impl Topology {
    /// Number of replicas placed.
    #[must_use]
    pub fn n_replicas(&self) -> usize {
        self.replica_sites.len()
    }

    fn site_of(&self, a: Addr) -> SiteId {
        match a {
            Addr::Replica(p) => self.replica_sites[p.0 as usize],
            Addr::Client(c) => *self
                .client_sites
                .get(&c)
                .unwrap_or(&self.default_client_site),
        }
    }

    /// Draw the one-way latency for a message from `from` to `to`.
    pub fn sample(&self, from: Addr, to: Addr, rng: &mut SmallRng) -> Dur {
        let (a, b) = (self.site_of(from), self.site_of(to));
        self.links[a][b].sample(rng)
    }

    /// Nominal one-way latency (ms) between the sites of two processes.
    #[must_use]
    pub fn nominal_ms(&self, from: Addr, to: Addr) -> f64 {
        let (a, b) = (self.site_of(from), self.site_of(to));
        self.links[a][b].nominal_ms()
    }

    /// Place `client` at `site` (builder form of
    /// [`Topology::client_sites`]). Used to model per-site client
    /// populations — e.g. half the clients at Berkeley, half at Utah —
    /// on top of the paper presets.
    #[must_use]
    pub fn with_client_at(mut self, client: ClientId, site: SiteId) -> Topology {
        self.client_sites.insert(client, site);
        self
    }

    /// The replica with the lowest nominal one-way latency from `client`
    /// — where that client's bounded-staleness follower reads should go.
    /// Ties break toward the lowest replica id.
    #[must_use]
    pub fn nearest_replica(&self, client: ClientId) -> ProcessId {
        let from = Addr::Client(client);
        let mut best = (0u32, f64::INFINITY);
        for r in 0..self.n_replicas() as u32 {
            let ms = self.nominal_ms(from, Addr::Replica(ProcessId(r)));
            if ms < best.1 {
                best = (r, ms);
            }
        }
        ProcessId(best.0)
    }

    /// Mean nominal client→replica one-way latency across `clients`
    /// (every client weighted equally) — the score the geo-aware leader
    /// placement minimizes. With no clients listed, scores from the
    /// default client site.
    #[must_use]
    pub fn client_weighted_rtt(&self, replica: ProcessId, clients: &[ClientId]) -> f64 {
        let to = Addr::Replica(replica);
        if clients.is_empty() {
            // A probe client nobody placed explicitly sits at the
            // default site.
            return self.nominal_ms(Addr::Client(ClientId(u64::MAX)), to);
        }
        let total: f64 = clients
            .iter()
            .map(|&c| self.nominal_ms(Addr::Client(c), to))
            .sum();
        total / clients.len() as f64
    }

    /// Geo-aware leader placement: score every replica by
    /// client-weighted RTT and lead each group from one of the best.
    /// Candidates within 10% of the optimum count as tied and groups
    /// round-robin across them, so symmetric (LAN) topologies keep the
    /// load-spreading rotation while asymmetric WANs concentrate
    /// leadership where the client population actually is. The result
    /// plugs straight into `Config::placement`.
    #[must_use]
    pub fn place_leaders(&self, clients: &[ClientId], n_groups: usize) -> Vec<ProcessId> {
        let scores: Vec<f64> = (0..self.n_replicas() as u32)
            .map(|r| self.client_weighted_rtt(ProcessId(r), clients))
            .collect();
        let best = scores.iter().copied().fold(f64::INFINITY, f64::min);
        // 10% slack plus a small absolute epsilon so an all-LAN score
        // of ~0 still groups its jitter-level ties together.
        let cutoff = best * 1.10 + 0.01;
        let near_optimal: Vec<u32> = (0..self.n_replicas() as u32)
            .filter(|&r| scores[r as usize] <= cutoff)
            .collect();
        (0..n_groups)
            .map(|g| ProcessId(near_optimal[g % near_optimal.len()]))
            .collect()
    }

    /// Build a symmetric latency matrix from an upper-triangular
    /// description: `pairs[(a, b)]` for `a < b`, `diag` within a site.
    fn symmetric(
        n_sites: usize,
        diag: LatencyModel,
        pairs: &[(SiteId, SiteId, LatencyModel)],
    ) -> Vec<Vec<LatencyModel>> {
        let mut m = vec![vec![diag; n_sites]; n_sites];
        for &(a, b, l) in pairs {
            m[a][b] = l;
            m[b][a] = l;
        }
        m
    }

    // ------------------------------------------------------------------
    // The paper's three configurations
    // ------------------------------------------------------------------

    /// Configuration 1 — the UCSD *Sysnet* cluster: everything on one
    /// Gigabit-Ethernet site. Calibrated so that the no-op service RRTs
    /// land near the paper's measurements (original 0.181 ms, read
    /// 0.263 ms, write 0.338 ms): client↔replica one-way ≈ 86 µs,
    /// replica↔replica ≈ 76 µs, small uniform jitter.
    ///
    /// Sites: 0 = servers, 1 = client machines.
    #[must_use]
    pub fn sysnet(n: usize) -> Topology {
        Topology {
            replica_sites: vec![0; n],
            client_sites: HashMap::new(),
            default_client_site: 1,
            links: Self::symmetric(
                2,
                LatencyModel::Uniform {
                    lo: 0.071,
                    hi: 0.079,
                }, // server↔server
                &[(
                    0,
                    1,
                    LatencyModel::Uniform {
                        lo: 0.078,
                        hi: 0.086,
                    },
                )],
            ),
            loss: 0.0,
            ns_per_byte: 0.8,
            name: "sysnet",
        }
    }

    /// [`sysnet`](Topology::sysnet) with every link a near-zero constant.
    /// Time is virtual, so with [`CpuModel::free`](crate::cpu::CpuModel::free)
    /// a run's wall time is the protocol stack's own cost.
    #[must_use]
    pub fn fast(n: usize) -> Topology {
        let mut t = Topology::sysnet(n);
        for row in &mut t.links {
            for l in row.iter_mut() {
                *l = LatencyModel::Constant(0.0001);
            }
        }
        t
    }

    /// Configuration 2 — clients at Berkeley, all replicas at Princeton:
    /// "the clients are remote from the service replicas but the service
    /// replicas are located relatively close to one another." One-way WAN
    /// ≈ 45.9 ms (RRT of original requests was 91.85 ms), LAN between the
    /// Princeton machines ≈ 0.25 ms.
    ///
    /// Sites: 0 = Princeton (replicas), 1 = Berkeley (clients).
    #[must_use]
    pub fn berkeley_princeton(n: usize) -> Topology {
        Topology {
            replica_sites: vec![0; n],
            client_sites: HashMap::new(),
            default_client_site: 1,
            links: Self::symmetric(
                2,
                LatencyModel::Uniform { lo: 0.2, hi: 0.3 },
                &[(
                    0,
                    1,
                    LatencyModel::LogNormal {
                        median: 45.8,
                        sigma: 0.004,
                    },
                )],
            ),
            loss: 0.0,
            ns_per_byte: 80.0,
            name: "berkeley-princeton",
        }
    }

    /// A heterogeneous variant of the §4.3 setting: the replicas share a
    /// LAN, but the *clients'* WAN paths to individual replicas differ —
    /// the leader and one backup are well connected (`fast_ms` median),
    /// the remaining backups sit behind a worse path (`slow_ms` median).
    /// As `t` grows, X-Paxos needs confirms from more backups, so reads
    /// increasingly wait on the slow paths, while the basic protocol
    /// (which only talks to the leader over the WAN) is unaffected — the
    /// degradation §4.3 predicts.
    ///
    /// Sites: `0..n` = one per replica (LAN between them), `n` = clients.
    #[must_use]
    pub fn heterogeneous_wan(n: usize, fast_ms: f64, slow_ms: f64, sigma: f64) -> Topology {
        let n_sites = n + 1;
        let lan = LatencyModel::Uniform {
            lo: 0.072,
            hi: 0.080,
        };
        let mut links = vec![vec![lan; n_sites]; n_sites];
        for (i, row) in links.iter_mut().enumerate().take(n) {
            // Leader (replica 0) and replica 1 get the fast client path.
            let median = if i <= 1 { fast_ms } else { slow_ms };
            row[n] = LatencyModel::LogNormal { median, sigma };
        }
        let client_row: Vec<LatencyModel> = (0..n).map(|i| links[i][n]).collect();
        links[n][..n].copy_from_slice(&client_row);
        Topology {
            replica_sites: (0..n).collect(),
            client_sites: HashMap::new(),
            default_client_site: n,
            links,
            loss: 0.0,
            ns_per_byte: 0.8,
            name: "heterogeneous-wan",
        }
    }

    /// Configuration 3 — replicas spread across a WAN to mask correlated
    /// failures: leader at UIUC, backups at Utah and UT Austin, clients at
    /// Berkeley (and Intel Oregon). One-way latencies approximating the
    /// paper's RRTs (original 70.82 ms ⇒ Berkeley↔UIUC ≈ 35.4 ms; write
    /// 106.73 ms ⇒ replica↔replica ≈ 17.9 ms; read 75.49 ms constrains
    /// the client↔backup + backup↔leader path).
    ///
    /// Sites: 0 = UIUC (r0, the bootstrap leader), 1 = Utah (r1),
    /// 2 = UT Austin (r2), 3 = Berkeley (clients).
    #[must_use]
    pub fn wan_spread() -> Topology {
        let jitter = |median: f64| LatencyModel::LogNormal {
            median,
            sigma: 0.01,
        };
        Topology {
            replica_sites: vec![0, 1, 2],
            client_sites: HashMap::new(),
            default_client_site: 3,
            links: Self::symmetric(
                4,
                LatencyModel::Uniform { lo: 0.2, hi: 0.3 },
                &[
                    (0, 1, jitter(17.5)), // UIUC – Utah
                    (0, 2, jitter(18.3)), // UIUC – Texas
                    (1, 2, jitter(16.0)), // Utah – Texas
                    (0, 3, jitter(35.4)), // UIUC – Berkeley
                    (1, 3, jitter(21.5)), // Utah – Berkeley
                    (2, 3, jitter(24.0)), // Texas – Berkeley
                ],
            ),
            loss: 0.0,
            ns_per_byte: 80.0,
            name: "wan-spread",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sysnet_places_everything_close() {
        let t = Topology::sysnet(3);
        assert_eq!(t.n_replicas(), 3);
        let mut rng = SmallRng::seed_from_u64(1);
        let rr = t.sample(
            Addr::Replica(ProcessId(0)),
            Addr::Replica(ProcessId(1)),
            &mut rng,
        );
        let cr = t.sample(
            Addr::Client(ClientId(1)),
            Addr::Replica(ProcessId(0)),
            &mut rng,
        );
        assert!(rr.as_millis_f64() < 0.1);
        assert!(cr.as_millis_f64() < 0.1);
        // Client→replica slightly slower than replica→replica (M > m).
        assert!(
            t.nominal_ms(Addr::Client(ClientId(1)), Addr::Replica(ProcessId(0)))
                > t.nominal_ms(Addr::Replica(ProcessId(0)), Addr::Replica(ProcessId(1)))
        );
    }

    #[test]
    fn berkeley_princeton_wan_dwarfs_lan() {
        let t = Topology::berkeley_princeton(3);
        let wan = t.nominal_ms(Addr::Client(ClientId(1)), Addr::Replica(ProcessId(0)));
        let lan = t.nominal_ms(Addr::Replica(ProcessId(0)), Addr::Replica(ProcessId(1)));
        assert!(wan > 40.0);
        assert!(lan < 1.0);
        assert!(wan / lan > 100.0, "coordination must be comparatively free");
    }

    #[test]
    fn wan_spread_has_expensive_coordination() {
        let t = Topology::wan_spread();
        let m = t.nominal_ms(Addr::Client(ClientId(1)), Addr::Replica(ProcessId(0)));
        let coord = t.nominal_ms(Addr::Replica(ProcessId(0)), Addr::Replica(ProcessId(1)));
        assert!((m - 35.4).abs() < 0.1);
        assert!(coord > 10.0, "replica coordination is WAN-priced");
    }

    #[test]
    fn explicit_client_placement_overrides_default() {
        let mut t = Topology::wan_spread();
        t.client_sites.insert(ClientId(7), 1); // a client at Utah
        let near = t.nominal_ms(Addr::Client(ClientId(7)), Addr::Replica(ProcessId(1)));
        let far = t.nominal_ms(Addr::Client(ClientId(8)), Addr::Replica(ProcessId(1)));
        assert!(near < 1.0);
        assert!(far > 20.0);
    }

    #[test]
    fn nearest_replica_tracks_client_site() {
        let t = Topology::wan_spread().with_client_at(ClientId(7), 2);
        // Default clients sit at Berkeley: Utah (r1, 21.5 ms) is closest.
        assert_eq!(t.nearest_replica(ClientId(1)), ProcessId(1));
        // A client co-located with UT Austin reads from r2 for ~free.
        assert_eq!(t.nearest_replica(ClientId(7)), ProcessId(2));
    }

    #[test]
    fn leader_placement_follows_the_client_population() {
        // All clients at Berkeley: Utah is strictly closest, so every
        // group's leader lands there.
        let t = Topology::wan_spread();
        let clients: Vec<ClientId> = (1..=4).map(ClientId).collect();
        let placement = t.place_leaders(&clients, 3);
        assert_eq!(placement, vec![ProcessId(1); 3]);
        let utah = t.client_weighted_rtt(ProcessId(1), &clients);
        let uiuc = t.client_weighted_rtt(ProcessId(0), &clients);
        assert!(utah < uiuc, "placement minimizes client-weighted RTT");

        // A LAN topology scores all replicas the same, so placement
        // keeps the load-spreading rotation instead of hotspotting.
        let lan = Topology::sysnet(3);
        let placement = lan.place_leaders(&clients, 3);
        assert_eq!(
            placement,
            vec![ProcessId(0), ProcessId(1), ProcessId(2)],
            "symmetric sites round-robin"
        );
    }

    #[test]
    fn symmetric_links_are_symmetric() {
        let t = Topology::wan_spread();
        for a in 0..3u32 {
            for b in 0..3u32 {
                assert_eq!(
                    t.nominal_ms(Addr::Replica(ProcessId(a)), Addr::Replica(ProcessId(b))),
                    t.nominal_ms(Addr::Replica(ProcessId(b)), Addr::Replica(ProcessId(a)))
                );
            }
        }
    }
}
