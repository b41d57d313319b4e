//! The benchmark's own seeded generator: SplitMix64, a Zipf sampler, the
//! row-value function and the abstract op streams of the five workloads.
//!
//! Ops are *abstract*: a historical read names its target as a fraction
//! of the history (`when`), a write names only its key. The executor
//! resolves fractions to commit timestamps and version numbers to values
//! through the oracle, so a stream depends on nothing but its seed and
//! the engine sees only generated SQL and values.

/// SplitMix64 (Steele, Lea, Flood 2014): one 64-bit state word, full
/// period, good enough to decorrelate streams seeded a few units apart.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for
    /// every `n` the workloads use).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `(LocationX, LocationY)` of the `n`-th version of `key`. A pure
/// function, so the oracle stores version *counts* and timestamps and
/// recomputes every expected value.
pub fn row_value(key: i32, n: u32) -> (i32, i32) {
    let h = mix64((u64::from(key as u32) << 32) | u64::from(n));
    ((h & 0x3FFF_FFFF) as i32, ((h >> 32) & 0x3FFF_FFFF) as i32)
}

/// Zipf-distributed ranks in `0..n` (Gray et al.'s rejection-free
/// method, the one YCSB uses). Rank 0 is the hottest.
pub struct Zipf {
    n: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// One abstract operation. `when` is a position in the history as a
/// fraction of `u32::MAX`; `slot` indexes the workload's key table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Autocommit `INSERT` of a key not yet in the table.
    Insert { key: i32 },
    /// Autocommit `UPDATE` of a preloaded key.
    Update { key: i32 },
    /// `begin`, four `UPDATE`s of distinct keys, `commit`.
    WriteTxn { keys: [i32; 4] },
    /// `begin_as_of_ts` + single-key `SELECT` + `commit`.
    AsOfPoint { key: i32, when: u32 },
    /// Single-key `VERSIONS BETWEEN` over a tenth of the history.
    Versions { key: i32, when: u32 },
    /// Full-table `AS OF` scan.
    Scan { when: u32 },
    /// `AS OF` scan of `RANGE_KEYS` consecutive keys starting at `key`.
    Range { key: i32, when: u32 },
}

/// Keys a `Range` op covers.
pub const RANGE_KEYS: i32 = 100;

/// Preloaded keys of the `commit.*` tables are `slot * KEY_STRIDE`, which
/// leaves `KEY_STRIDE - 1` free keys after each for the run's `INSERT`s —
/// they land all over the tree, not at its right edge.
pub const KEY_STRIDE: i32 = 64;

/// A client's stream of abstract ops.
pub enum Stream {
    /// `commit.*`: nine `UPDATE`s then one `INSERT`, on the key half
    /// this client owns (slots congruent to `client` modulo 2).
    Commit {
        rng: SplitMix64,
        client: u64,
        /// Preloaded slots per client.
        owned: u64,
        /// Ops and inserts emitted so far.
        n: u64,
        inserts: u64,
    },
    /// `asof.deep`: point reads, with every 33rd op a full scan and every
    /// 1000th a `VERSIONS BETWEEN` (3 % and 0.1 %).
    AsOfDeep {
        rng: SplitMix64,
        keys: u64,
        client: u64,
        n: u64,
    },
    /// `mixed.spill` writer: four distinct Zipf(0.99) keys per
    /// transaction.
    SpillWriter { rng: SplitMix64, zipf: Zipf },
    /// `mixed.spill` reader: point reads, with every 100th op a 100-key
    /// range scan and every 500th a `VERSIONS BETWEEN` (1 % and 0.2 %).
    SpillReader { rng: SplitMix64, keys: u64, n: u64 },
}

/// Multiplier of the position permutations: a prime above every divisor
/// of the slot counts the workloads use, so `m -> m * STEP mod n` is a
/// bijection on `0..n`.
const INSERT_STEP: u64 = 7919;

impl Stream {
    /// Seed of one client's stream: the run seed, the workload and the
    /// client index, decorrelated by one mixing round.
    pub fn seed_for(seed: u64, workload: &str, client: u64) -> u64 {
        let tag = workload.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
        });
        mix64(seed ^ tag.rotate_left(17) ^ client.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_op(&mut self) -> Op {
        match self {
            // The rare, heavy ops come at a fixed cadence, not by dice: how
            // many a window holds would otherwise be the largest source of
            // run-to-run difference.
            Stream::Commit {
                rng,
                client,
                owned,
                n,
                inserts,
            } => {
                *n += 1;
                let slot_of = |i: u64| (i * 2 + *client) as i32;
                // The m-th insert fills the next free key after a slot;
                // once every gap is full (never within 60 s) the stream
                // is all updates.
                let fill = 1 + (*inserts / *owned) as i32;
                if *n % 10 == 0 && fill < KEY_STRIDE {
                    let slot = slot_of(*inserts * INSERT_STEP % *owned);
                    *inserts += 1;
                    Op::Insert {
                        key: slot * KEY_STRIDE + fill,
                    }
                } else {
                    Op::Update {
                        key: slot_of(rng.below(*owned)) * KEY_STRIDE,
                    }
                }
            }
            Stream::AsOfDeep {
                rng,
                keys,
                client,
                n,
            } => {
                *n += 1;
                let key = rng.below(*keys) as i32;
                let when = rng.next_u64() as u32;
                // The two clients' heavy ops are half a period apart.
                if *n % 1000 == 250 + 500 * (*client % 2) {
                    Op::Versions { key, when }
                } else if *n % 33 == 8 + 16 * (*client % 2) {
                    Op::Scan { when }
                } else {
                    Op::AsOfPoint { key, when }
                }
            }
            Stream::SpillWriter { rng, zipf } => {
                let mut keys = [0i32; 4];
                let mut n = 0;
                while n < 4 {
                    // Scatter the ranks over the key space, or the hot
                    // keys would all sit on the tree's first leaf.
                    let k = (zipf.sample(rng) * INSERT_STEP % zipf.n) as i32;
                    if !keys[..n].contains(&k) {
                        keys[n] = k;
                        n += 1;
                    }
                }
                Op::WriteTxn { keys }
            }
            Stream::SpillReader { rng, keys, n } => {
                *n += 1;
                let key = rng.below(*keys) as i32;
                let when = rng.next_u64() as u32;
                if *n % 500 == 250 {
                    Op::Versions { key, when }
                } else if *n % 100 == 50 {
                    Op::Range {
                        key: key.min((*keys as i32 - RANGE_KEYS).max(0)),
                        when,
                    }
                } else {
                    Op::AsOfPoint { key, when }
                }
            }
        }
    }

    /// FNV-1a over the first `n` ops' debug form: the identity of a
    /// stream, compared by the self-tests and printed by every run.
    pub fn hash_prefix(mut self, n: usize) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for _ in 0..n {
            for b in format!("{:?}", self.next_op()).bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit_stream(seed: u64) -> Stream {
        Stream::Commit {
            rng: SplitMix64::new(Stream::seed_for(seed, "commit.cpu", 0)),
            client: 0,
            owned: 10_000,
            n: 0,
            inserts: 0,
        }
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        assert_eq!(
            commit_stream(7).hash_prefix(5_000),
            commit_stream(7).hash_prefix(5_000)
        );
        assert_ne!(
            commit_stream(7).hash_prefix(5_000),
            commit_stream(8).hash_prefix(5_000)
        );
    }

    #[test]
    fn streams_of_two_clients_and_two_workloads_differ() {
        assert_ne!(
            Stream::seed_for(1, "commit.cpu", 0),
            Stream::seed_for(1, "commit.cpu", 1)
        );
        assert_ne!(
            Stream::seed_for(1, "commit.cpu", 0),
            Stream::seed_for(1, "commit.conv", 0)
        );
    }

    #[test]
    fn inserts_never_repeat_a_key_and_stay_in_the_owned_half() {
        let mut s = Stream::Commit {
            rng: SplitMix64::new(3),
            client: 1,
            owned: 100,
            n: 0,
            inserts: 0,
        };
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5_000 {
            if let Op::Insert { key } = s.next_op() {
                assert!(seen.insert(key), "key {key} inserted twice");
                assert_eq!((key / KEY_STRIDE) % 2, 1);
                assert_ne!(key % KEY_STRIDE, 0, "collides with a preloaded key");
            }
        }
        assert!(seen.len() > 300);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(4_000, 0.99);
        let mut rng = SplitMix64::new(11);
        let mut hot = 0;
        for _ in 0..20_000 {
            let r = z.sample(&mut rng);
            assert!(r < 4_000);
            if r < 40 {
                hot += 1;
            }
        }
        // The hottest 1 % of ranks draw roughly half of Zipf(0.99)'s mass.
        assert!(hot > 8_000 && hot < 14_000, "hot share {hot}");
    }

    #[test]
    fn write_txn_keys_are_distinct() {
        let mut s = Stream::SpillWriter {
            rng: SplitMix64::new(5),
            zipf: Zipf::new(50, 0.99),
        };
        for _ in 0..2_000 {
            let Op::WriteTxn { keys } = s.next_op() else {
                panic!("writer stream emits only write transactions")
            };
            let set: std::collections::HashSet<_> = keys.iter().collect();
            assert_eq!(set.len(), 4);
        }
    }
}
