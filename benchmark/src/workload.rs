//! Seeded input generation and the expected-state model the outputs are
//! checked against.
//!
//! `--seed` reaches nothing but this file: the cluster only ever sees the
//! requests generated here. Every virtual client draws from its own
//! stream, so a client's op sequence is a function of `(seed, phase,
//! client)` alone; only the interleaving between clients depends on
//! timing, as in any closed loop.
//!
//! Keys are partitioned between the clients of a phase (`key % clients ==
//! client`), so no two in-flight operations touch one key and every reply
//! has exactly one correct value.

use crate::config::WorkloadSpec;
use bytes::Bytes;
use gridpaxos_core::request::RequestKind;
use gridpaxos_services::{KvOp, KvStore};

/// SplitMix64: small, seedable, and the stream is fixed by this file
/// rather than by a vendored crate.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        (self.unit() * n as f64) as u64 % n
    }
}

/// Zipfian ranks over `0..n` (rank 0 hottest), after Gray et al.,
/// "Quickly generating billion-record synthetic databases".
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    zetan: f64,
    zeta2: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 1 && (0.0..1.0).contains(&theta));
        let zetan: f64 = (1..=n).map(|i| (i as f64).powf(-theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        Zipf {
            n,
            zetan,
            zeta2,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if self.n == 1 || uz < 1.0 {
            return 0;
        }
        if uz < self.zeta2 {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// One generated operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Get { key: usize },
    Put { key: usize },
}

impl Op {
    pub fn key(self) -> usize {
        match self {
            Op::Get { key } | Op::Put { key } => key,
        }
    }

    pub fn is_read(self) -> bool {
        matches!(self, Op::Get { .. })
    }
}

/// The op stream of one virtual client in one phase.
#[derive(Clone, Debug)]
pub struct OpGen {
    rng: SplitMix64,
    read_pct: u32,
    /// Keys this client owns: `client + rank * stride` for `rank < ranks`.
    client: usize,
    stride: usize,
    ranks: u64,
    zipf: Option<Zipf>,
}

impl OpGen {
    /// Stream for `client` of `clients` in `phase` (any label that keeps
    /// the phases' streams apart).
    pub fn new(spec: &WorkloadSpec, seed: u64, phase: u64, client: usize, clients: usize) -> OpGen {
        assert!(client < clients && clients <= spec.n_keys);
        // Ranks every client has (the few keys past the last full stride
        // are preloaded and then left alone).
        let ranks = (spec.n_keys / clients) as u64;
        let mut mix = SplitMix64::new(seed);
        let stream = mix.next_u64() ^ (phase << 32) ^ client as u64;
        OpGen {
            rng: SplitMix64::new(stream),
            read_pct: spec.read_pct,
            client,
            stride: clients,
            ranks,
            zipf: spec.zipf_theta.map(|theta| Zipf::new(ranks, theta)),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let read = self.rng.below(100) < u64::from(self.read_pct);
        let rank = match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.below(self.ranks),
        };
        let key = self.client + rank as usize * self.stride;
        if read {
            Op::Get { key }
        } else {
            Op::Put { key }
        }
    }
}

pub fn key_name(key: usize) -> String {
    format!("k{key:07}")
}

/// The value version `version` of `key` carries: self-describing, so a
/// stale or misrouted value can never pass for the right one, and padded
/// to the workload's value size.
pub fn value_for(key: usize, version: u64, len: usize) -> String {
    let mut v = format!("{key:07}.{version:012}.");
    while v.len() < len {
        let take = (len - v.len()).min(64);
        v.push_str(&"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"[..take]);
    }
    v.truncate(len);
    v
}

fn version_of(value: &str) -> Option<u64> {
    value.get(8..20)?.parse().ok()
}

#[derive(Clone, Debug, Default)]
struct KeyState {
    /// Version of the last acknowledged `Put` (0 = never written).
    acked: u64,
    /// Version of the `Put` now in flight, if any.
    pending: Option<u64>,
    /// Versions of abandoned `Put`s: the cluster may or may not have
    /// applied them, at any later point, so a read may return any of them.
    in_doubt: Vec<u64>,
    next_version: u64,
}

/// What the cluster must hold, as the issuing clients know it.
#[derive(Clone, Debug)]
pub struct Model {
    keys: Vec<KeyState>,
    value_bytes: usize,
}

impl Model {
    pub fn new(spec: &WorkloadSpec) -> Model {
        Model {
            keys: vec![KeyState::default(); spec.n_keys],
            value_bytes: spec.value_bytes,
        }
    }

    /// Encode `op` as the request the client submits; a `Put` takes the
    /// key's next version.
    pub fn request(&mut self, op: Op) -> (RequestKind, Bytes) {
        match op {
            Op::Get { key } => (RequestKind::Read, KvOp::Get(key_name(key)).encode()),
            Op::Put { key } => {
                let k = &mut self.keys[key];
                k.next_version += 1;
                k.pending = Some(k.next_version);
                let value = value_for(key, k.next_version, self.value_bytes);
                (RequestKind::Write, KvOp::Put(key_name(key), value).encode())
            }
        }
    }

    /// Check the reply to `op`; a correct `Put` reply acknowledges it.
    pub fn check_reply(&mut self, op: Op, payload: &Bytes) -> bool {
        let len = self.value_bytes;
        match op {
            Op::Put { key } => {
                let k = &mut self.keys[key];
                let Some(version) = k.pending.take() else {
                    return false;
                };
                // KvStore echoes the written value.
                let ok = payload.as_ref() == value_for(key, version, len).as_bytes();
                if ok {
                    k.acked = version;
                }
                ok
            }
            Op::Get { key } => self.holds(key, KvStore::decode_reply(payload).as_deref()),
        }
    }

    /// The client gave up on `op` (deadline passed).
    pub fn abandon(&mut self, op: Op) {
        if let Op::Put { key } = op {
            let k = &mut self.keys[key];
            if let Some(v) = k.pending.take() {
                k.in_doubt.push(v);
            }
        }
    }

    /// Whether `value` is what `key` may hold now: the last acknowledged
    /// write, or an abandoned one.
    fn holds(&self, key: usize, value: Option<&str>) -> bool {
        let k = &self.keys[key];
        match value {
            None => k.acked == 0,
            Some(v) => {
                let Some(version) = version_of(v) else {
                    return false;
                };
                (version == k.acked || k.in_doubt.contains(&version))
                    && v == value_for(key, version, self.value_bytes)
            }
        }
    }

    /// Check a replica's final state: every key holds its last
    /// acknowledged write. Returns the number of keys that do not.
    pub fn mismatches(&self, store: &KvStore) -> usize {
        (0..self.keys.len())
            .filter(|&key| !self.holds(key, store.get(&key_name(key))))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WORKLOADS;

    #[test]
    fn same_seed_same_ops_and_other_seed_differs() {
        let spec = &WORKLOADS[2];
        let draw = |seed| {
            let mut g = OpGen::new(spec, seed, 1, 3, 16);
            (0..500).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn clients_own_disjoint_keys_and_mix_matches() {
        let spec = &WORKLOADS[2];
        let mut reads = 0;
        for client in 0..16 {
            let mut g = OpGen::new(spec, 7, 2, client, 16);
            for _ in 0..2_000 {
                let op = g.next_op();
                assert_eq!(op.key() % 16, client);
                assert!(op.key() < spec.n_keys);
                reads += usize::from(op.is_read());
            }
        }
        let share = reads as f64 / 32_000.0;
        assert!((share - 0.9).abs() < 0.01, "read share {share}");
    }

    #[test]
    fn zipf_is_skewed_and_uniform_is_not() {
        let mut rng = SplitMix64::new(1);
        let z = Zipf::new(625, 0.99);
        let mut hits = vec![0u32; 625];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        // theta = 0.99 over 625 ranks: rank 0 draws 1/zeta(625) ~ 14 %.
        let top = f64::from(hits[0]) / 100_000.0;
        assert!((0.11..0.18).contains(&top), "rank-0 share {top}");
        assert!(hits[0] > hits[1] && hits[1] > hits[10] && hits[10] > hits[300]);
        let top10: u32 = hits[..10].iter().sum();
        assert!(top10 > 35_000, "top-10 share {top10}");

        let spec = &WORKLOADS[0];
        let mut g = OpGen::new(spec, 1, 0, 0, 1);
        let mut low = 0;
        for _ in 0..20_000 {
            low += usize::from(g.next_op().key() < spec.n_keys / 10);
        }
        assert!((1_700..2_300).contains(&low), "uniform low-decile {low}");
    }

    #[test]
    fn model_accepts_only_the_acknowledged_value() {
        let spec = &WORKLOADS[0];
        let mut m = Model::new(spec);
        let put = Op::Put { key: 5 };
        let get = Op::Get { key: 5 };
        assert!(m.check_reply(get, &Bytes::from_static(b"\0NOT_FOUND")));
        let _ = m.request(put);
        let v1 = Bytes::from(value_for(5, 1, 64).into_bytes());
        assert_eq!(v1.len(), 64);
        assert!(m.check_reply(put, &v1));
        assert!(m.check_reply(get, &v1));
        assert!(!m.check_reply(get, &Bytes::from_static(b"\0NOT_FOUND")));
        let _ = m.request(put);
        m.abandon(put);
        let v2 = Bytes::from(value_for(5, 2, 64).into_bytes());
        assert!(m.check_reply(get, &v1) && m.check_reply(get, &v2));
        let v3 = Bytes::from(value_for(5, 3, 64).into_bytes());
        assert!(!m.check_reply(get, &v3));
        let other = Bytes::from(value_for(6, 1, 64).into_bytes());
        assert!(!m.check_reply(get, &other), "another key's value");
    }
}
