//! Property-based tests for the storage substrate: slotted-page
//! operations against a model, compaction transparency, and the
//! time-split invariant ("each page contains all the versions that are
//! alive in the key and time region of the page").

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;

use immortaldb_common::{PageId, Tid, Timestamp};
use immortaldb_storage::page::{Page, PageType, FLAG_VERSIONED};
use immortaldb_storage::version::{self, Visible};
use immortaldb_storage::TimestampResolver;

struct NoResolver;
impl TimestampResolver for NoResolver {
    fn resolve(&self, _tid: Tid) -> Option<Timestamp> {
        None
    }
}

#[derive(Debug, Clone)]
enum PageOp {
    Insert { key: u8, len: usize },
    Update { key: u8, len: usize },
    Remove { key: u8 },
    Compact,
}

fn page_op() -> impl Strategy<Value = PageOp> {
    prop_oneof![
        4 => (any::<u8>(), 1..120usize).prop_map(|(key, len)| PageOp::Insert { key, len }),
        3 => (any::<u8>(), 1..120usize).prop_map(|(key, len)| PageOp::Update { key, len }),
        2 => any::<u8>().prop_map(|key| PageOp::Remove { key }),
        1 => Just(PageOp::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Unversioned slotted-page operations match a BTreeMap model; slots
    /// stay sorted; compaction is content-transparent.
    #[test]
    fn slotted_page_matches_model(ops in proptest::collection::vec(page_op(), 1..150)) {
        let mut page = Page::zeroed();
        page.format(PageId(3), PageType::Leaf, 0, 0);
        let mut model: BTreeMap<u8, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                PageOp::Insert { key, len } => {
                    let data = vec![key ^ 0x5A; len];
                    match page.insert_sorted(&[key], &data, 0) {
                        Ok(_) => {
                            prop_assert!(!model.contains_key(&key));
                            model.insert(key, data);
                        }
                        Err(immortaldb_common::Error::DuplicateKey) => {
                            prop_assert!(model.contains_key(&key));
                        }
                        Err(immortaldb_common::Error::PageFull) => {}
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                PageOp::Update { key, len } => {
                    let data = vec![key ^ 0xA5; len];
                    match page.update_sorted(&[key], &data) {
                        Ok(()) => {
                            prop_assert!(model.contains_key(&key));
                            model.insert(key, data);
                        }
                        Err(immortaldb_common::Error::KeyNotFound) => {
                            prop_assert!(!model.contains_key(&key));
                        }
                        Err(immortaldb_common::Error::PageFull) => {}
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                PageOp::Remove { key } => {
                    match page.remove_sorted(&[key]) {
                        Ok(()) => {
                            prop_assert!(model.remove(&key).is_some());
                        }
                        Err(immortaldb_common::Error::KeyNotFound) => {
                            prop_assert!(!model.contains_key(&key));
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                PageOp::Compact => {
                    page.compact().unwrap();
                    prop_assert_eq!(page.frag_space(), 0);
                }
            }
            // Full-content comparison + sortedness after every step.
            prop_assert_eq!(page.slot_count(), model.len());
            let mut prev: Option<Vec<u8>> = None;
            for i in 0..page.slot_count() {
                let off = page.slot(i);
                let k = page.rec_key(off).to_vec();
                if let Some(p) = &prev {
                    prop_assert!(p < &k, "slots sorted");
                }
                let expect = model.get(&k[0]).expect("model has key");
                prop_assert_eq!(page.rec_data(off), expect.as_slice());
                prev = Some(k);
            }
        }
    }

    /// The time-split invariant: for any set of stamped version chains and
    /// any split time, every version alive at time `t` is findable in the
    /// page covering `t` (history page for t < split, current for
    /// t >= split), with exactly the value the pre-split page reports.
    #[test]
    fn time_split_preserves_every_time_slice(
        // Per key: number of versions (committed at ticks 1..=n) and
        // whether the chain ends in a delete stub.
        chains in proptest::collection::vec((1..8u64, any::<bool>()), 1..12),
        split_tick in 1..10u64,
    ) {
        let mut page = Page::zeroed();
        page.format(PageId(5), PageType::Leaf, FLAG_VERSIONED, 0);
        let resolver = NoResolver;
        let mut tid = 0u64;
        // Build chains: key k gets versions at ticks 1..=n_k spaced by key
        // to vary lifetimes, optionally a stub at n_k+1.
        type Versions = Vec<(Timestamp, Option<Vec<u8>>)>;
        let mut stamps: HashMap<u8, Versions> = HashMap::new();
        for (k, (nvers, ends_deleted)) in chains.iter().enumerate() {
            let key = [k as u8];
            let (nvers, ends_deleted) = (*nvers, *ends_deleted);
            for v in 1..=nvers {
                tid += 1;
                let off = version::add_version(
                    &mut page, &key, format!("k{k}v{v}").as_bytes(), false, Tid(tid),
                ).unwrap();
                let ts = Timestamp::new(v * 20, k as u32);
                page.stamp_rec(off, ts);
                stamps.entry(k as u8).or_default()
                    .push((ts, Some(format!("k{k}v{v}").into_bytes())));
            }
            if ends_deleted {
                tid += 1;
                let off = version::add_version(&mut page, &key, &[], true, Tid(tid)).unwrap();
                let ts = Timestamp::new((nvers + 1) * 20, k as u32);
                page.stamp_rec(off, ts);
                stamps.entry(k as u8).or_default().push((ts, None));
            }
        }
        let split_ts = Timestamp::new(split_tick * 20, 0);
        if split_ts <= page.start_ts() {
            return Ok(());
        }
        let (hist, cur, _) = version::time_split(&page, split_ts, PageId(99)).unwrap();

        // Probe every (key, tick) instant against the pre-split truth.
        for probe_tick in 0..12u64 {
            let t = Timestamp::new(probe_tick * 20, 1_000_000);
            let target = if t >= split_ts { &cur } else { &hist };
            for (key, versions) in &stamps {
                // Model answer: newest version with ts <= t.
                let expect = versions.iter().rev().find(|(ts, _)| *ts <= t)
                    .map(|(_, v)| v.clone());
                let got = match target.find_slot(&[*key]) {
                    Ok(i) => match version::visible_as_of(target, i, t, None, &resolver) {
                        Visible::Version(off) => Some(Some(target.rec_data(off).to_vec())),
                        Visible::Deleted => Some(None),
                        Visible::NotHere => None,
                    },
                    Err(_) => None,
                };
                match expect {
                    // A deletion may surface as an explicit stub or — per
                    // the paper's rule that stubs older than the split
                    // time are removed from the current page — as plain
                    // absence. Both mean "no row at t".
                    Some(None) => {
                        prop_assert!(got == Some(None) || got.is_none(),
                            "key {key} at tick {probe_tick}: expected deleted, got {got:?}");
                    }
                    None => {
                        // Didn't exist at t: page must report NotHere/absent
                        // (a Deleted report is also unreachable here since
                        // the first version is never a stub).
                        prop_assert!(got.is_none(),
                            "key {key} at tick {probe_tick}: expected absent, got {got:?}");
                    }
                    Some(val) => {
                        prop_assert_eq!(got, Some(val),
                            "key {} at tick {}", key, probe_tick);
                    }
                }
            }
        }
    }

    /// Versioned-page compaction preserves every chain byte-for-byte.
    #[test]
    fn compaction_preserves_version_chains(
        nkeys in 1..10usize,
        nvers in 1..6u64,
    ) {
        let mut page = Page::zeroed();
        page.format(PageId(7), PageType::Leaf, FLAG_VERSIONED, 0);
        let mut tid = 0u64;
        for k in 0..nkeys {
            for v in 1..=nvers {
                tid += 1;
                let off = version::add_version(
                    &mut page, &[k as u8], format!("{k}:{v}").as_bytes(), false, Tid(tid),
                ).unwrap();
                page.stamp_rec(off, Timestamp::new(v * 20, 0));
            }
        }
        // Pop one version to create garbage, then compact.
        tid += 1;
        version::add_version(&mut page, &[0], b"temp", false, Tid(tid)).unwrap();
        version::pop_newest(&mut page, &[0], Tid(tid)).unwrap();
        let before: Vec<Vec<Vec<u8>>> = (0..page.slot_count())
            .map(|i| version::chain_offsets(&page, i)
                .iter().map(|&o| page.rec_data(o).to_vec()).collect())
            .collect();
        page.compact().unwrap();
        let after: Vec<Vec<Vec<u8>>> = (0..page.slot_count())
            .map(|i| version::chain_offsets(&page, i)
                .iter().map(|&o| page.rec_data(o).to_vec()).collect())
            .collect();
        prop_assert_eq!(before, after);
        prop_assert_eq!(page.frag_space(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// Prefix/suffix delta encoding round-trips for arbitrary byte pairs,
    /// including pathological overlaps (empty, identical, contained).
    #[test]
    fn delta_encoding_round_trips(
        base in proptest::collection::vec(any::<u8>(), 0..300),
        new in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let delta = version::encode_delta(&base, &new);
        let back = version::apply_delta(&base, &delta).unwrap();
        prop_assert_eq!(back, new);
    }

    /// Deltas against a shared prefix/suffix shrink to (roughly) the size
    /// of the differing middle, and still round-trip.
    #[test]
    fn delta_encoding_exploits_overlap(
        prefix in proptest::collection::vec(any::<u8>(), 0..120),
        mid_a in proptest::collection::vec(any::<u8>(), 1..40),
        mid_b in proptest::collection::vec(any::<u8>(), 1..40),
        suffix in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let base: Vec<u8> = [prefix.clone(), mid_a, suffix.clone()].concat();
        let new: Vec<u8> = [prefix, mid_b.clone(), suffix].concat();
        let delta = version::encode_delta(&base, &new);
        prop_assert!(
            delta.len() <= mid_b.len() + 20,
            "delta {} bytes vs middle {}", delta.len(), mid_b.len()
        );
        prop_assert_eq!(version::apply_delta(&base, &delta).unwrap(), new);
    }

    /// Packing a chain delta-encoded and materializing it back is
    /// lossless: every version's bytes, timestamp and flags survive.
    #[test]
    fn pack_chain_round_trips(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..120), 1..20),
    ) {
        // Newest-first chain with strictly decreasing timestamps.
        let n = payloads.len() as u64;
        let mut page = Page::zeroed();
        page.format(PageId(9), PageType::Leaf, FLAG_VERSIONED, 0);
        let mut packer = version::ChainPacker::default();
        for (i, p) in payloads.iter().enumerate() {
            let ttime = (n - i as u64) * 10;
            packer.push(&mut page, b"key", p, 0, ttime, 0).unwrap();
        }
        packer.finish(&mut page).unwrap();
        let mut walker = version::ChainWalker::new(&page, 0);
        let mut back = 0;
        while let Some(rec) = walker.step().unwrap() {
            prop_assert_eq!(walker.data(), &payloads[back][..]);
            prop_assert_eq!(rec.ttime, (n - back as u64) * 10);
            back += 1;
        }
        prop_assert_eq!(back, payloads.len());
    }
}
