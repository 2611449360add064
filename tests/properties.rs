//! Property-based tests of the core invariants (DESIGN.md §6).

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

use msnap_disk::{Disk, DiskConfig, IoError, BLOCK_SIZE};
use msnap_sim::{LatencyStats, Nanos, Vt, VthreadId};
use msnap_store::{ObjectId, ObjectStore, RadixTree, RootRecord, ShardLayout, TreeError};
use msnap_vm::{TrackMode, Vm, PAGE_SIZE};

// ---- Radix tree ≅ BTreeMap --------------------------------------------

/// The radix tree's fixed height: a path crosses one node a level.
const LEVELS: usize = 3;

/// The hydration read of a tree built in memory, which needs none.
fn no_read(iov: &mut [(u64, &mut [u8])]) -> Result<(), IoError> {
    panic!("a resident tree read block {}", iov[0].0)
}

/// Serves a hydration read from the committed node images `blocks`.
fn serve(blocks: &HashMap<u64, Box<[u8]>>, iov: &mut [(u64, &mut [u8])]) -> Result<(), IoError> {
    for (b, out) in iov.iter_mut() {
        out.copy_from_slice(&blocks[b]);
    }
    Ok(())
}

/// Every `(page, block, digest)` entry of a resident tree, in page order.
fn entries(tree: &mut RadixTree) -> Vec<(u64, u64, u32)> {
    tree.entries_from(0, usize::MAX, &mut no_read).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The COW radix tree behaves exactly like a map from page to
    /// `(block, digest)`, across arbitrary interleavings of
    /// set/get/commit.
    #[test]
    fn radix_tree_matches_model(ops in prop::collection::vec((0u64..100_000, 1u64..1_000_000, any::<u32>()), 1..200)) {
        let mut tree = RadixTree::new();
        let mut model = std::collections::BTreeMap::new();
        let mut next_block = 1u64;
        let mut writes = Vec::new();
        for (i, (page, block, digest)) in ops.iter().enumerate() {
            let old = tree.set_entry(*page, *block, *digest);
            let model_old = model.insert(*page, (*block, *digest));
            prop_assert_eq!(old, model_old.map(|(b, _)| b));
            if i % 17 == 0 {
                tree.commit(&mut || { next_block += 1; next_block + 10_000_000 }, &mut writes);
            }
        }
        for (page, entry) in &model {
            prop_assert_eq!(tree.get_entry(*page), Some(*entry));
        }
        let listed: Vec<_> = model.iter().map(|(p, (b, d))| (*p, *b, *d)).collect();
        prop_assert_eq!(entries(&mut tree), listed);
    }

    /// Committing a tree from any dirty state and reopening it from its
    /// emitted blocks the way the store does, every node verified
    /// against its recorded digest, is an identity.
    #[test]
    fn radix_commit_reload_identity(pages in prop::collection::btree_set(0u64..50_000, 1..100)) {
        let mut tree = RadixTree::new();
        for (i, page) in pages.iter().enumerate() {
            tree.set_entry(*page, 1_000 + i as u64, i as u32);
        }
        let mut next = 1u64;
        let mut writes = Vec::new();
        let root = tree.commit(&mut || { next += 1; next }, &mut writes);
        let blocks: HashMap<u64, Box<[u8]>> = writes.into_iter().collect();
        let mut reopened =
            RadixTree::from_committed_digest(root, tree.committed_root_digest(), tree.len_pages());
        let listed = reopened
            .entries_from(0, usize::MAX, &mut |iov| serve(&blocks, iov))
            .unwrap();
        prop_assert_eq!(reopened.unloaded_nodes(), 0);
        prop_assert_eq!(listed, entries(&mut tree));
    }

    /// An Arc-shared O(1) clone diverged on both sides behaves exactly
    /// like the old deep-copy semantics: path-copying keeps every
    /// mutation private to its side, byte for byte.
    #[test]
    fn arc_clone_divergence_matches_deep_clone(
        base in prop::collection::vec((0u64..50_000, 1u64..1_000_000), 1..100),
        left in prop::collection::vec((0u64..50_000, 1u64..1_000_000), 0..100),
        right in prop::collection::vec((0u64..50_000, 1u64..1_000_000), 0..100),
    ) {
        let mut tree = RadixTree::new();
        for (page, block) in &base {
            tree.set_entry(*page, *block, *block as u32);
        }
        let mut next = 1u64;
        let mut writes = Vec::new();
        tree.commit(&mut || { next += 1; next }, &mut writes);

        let mut shared_l = tree.clone();
        let mut shared_r = tree;
        let mut deep_l = shared_l.deep_clone();
        let mut deep_r = shared_r.deep_clone();
        for (page, block) in &left {
            let digest = *block as u32;
            prop_assert_eq!(
                shared_l.set_entry(*page, *block, digest),
                deep_l.set_entry(*page, *block, digest)
            );
        }
        for (page, block) in &right {
            let digest = *block as u32;
            prop_assert_eq!(
                shared_r.set_entry(*page, *block, digest),
                deep_r.set_entry(*page, *block, digest)
            );
        }
        // Neither side's mutations leaked into the other (the deep
        // copies never shared structure, so they are the oracle).
        prop_assert_eq!(entries(&mut shared_l), entries(&mut deep_l));
        prop_assert_eq!(entries(&mut shared_r), entries(&mut deep_r));
    }

    /// Diffing partially-hydrated trees gives the diff of the two
    /// page → block models the trees were built from: equal committed
    /// block numbers substitute for descending into (or even loading)
    /// shared subtrees. The oracle shares no code with the tree, so it
    /// checks the skip rule itself.
    ///
    /// Hydrating every path of the target in one batch equals hydrating
    /// them page by page: the same entries, each node block read once, a
    /// level per read; and with the node `rot` picks rotted, the same
    /// report of it, every other page's path resident.
    #[test]
    fn lazy_diff_matches_eager_diff(
        base in prop::collection::vec((0u64..50_000, 1u64..1_000_000), 1..100),
        delta in prop::collection::vec((any::<bool>(), any::<usize>(), 0u64..50_000, 1u64..1_000_000), 1..50),
        prehydrate in prop::collection::vec(0u64..50_000, 0..10),
        rot in any::<usize>(),
    ) {
        let mut next = 10_000u64;
        let mut tree_a = RadixTree::new();
        let mut model_a = std::collections::BTreeMap::new();
        for (page, block) in &base {
            tree_a.set_entry(*page, *block, *block as u32);
            model_a.insert(*page, *block);
        }
        let mut writes = Vec::new();
        let root_a = tree_a.commit(&mut || { next += 1; next }, &mut writes);
        let mut tree_b = tree_a.clone();
        let mut model_b = model_a.clone();
        // About half the delta overwrites a page the base already maps.
        for (overwrite, pick, fresh, block) in &delta {
            let page = if *overwrite { base[pick % base.len()].0 } else { *fresh };
            tree_b.set_entry(page, *block, *block as u32);
            model_b.insert(page, *block);
        }
        let root_b = tree_b.commit(&mut || { next += 1; next }, &mut writes);
        let blocks: HashMap<u64, Box<[u8]>> = writes.into_iter().collect();

        let model_diff: Vec<(u64, u64)> = model_b
            .iter()
            .filter(|&(page, block)| model_a.get(page) != Some(block))
            .map(|(page, block)| (*page, *block))
            .collect();

        let mut lazy_a =
            RadixTree::from_committed_digest(root_a, tree_a.committed_root_digest(), tree_a.len_pages());
        let mut lazy_b =
            RadixTree::from_committed_digest(root_b, tree_b.committed_root_digest(), tree_b.len_pages());
        let mut read = |iov: &mut [(u64, &mut [u8])]| serve(&blocks, iov);
        // Hydrate an arbitrary subset of paths on alternating sides so
        // the diff walks a mix of resident and unloaded nodes.
        for (i, page) in prehydrate.iter().enumerate() {
            if i % 2 == 0 {
                lazy_a.hydrate_paths(&[*page], &mut read).unwrap();
            } else {
                lazy_b.hydrate_paths(&[*page], &mut read).unwrap();
            }
        }
        let lazy =
            RadixTree::diff_pages_with(Some(&mut lazy_a), &mut lazy_b, &mut read).unwrap();
        prop_assert_eq!(lazy, model_diff);

        let pages: Vec<u64> = model_b.keys().copied().collect();
        let nodes = tree_b.committed_nodes();
        let (rotted, _) = nodes[rot % nodes.len()];
        let mut rotten = blocks.clone();
        rotten.get_mut(&rotted).unwrap()[0] ^= 1;
        for (images, rotted_run) in [(&blocks, false), (&rotten, true)] {
            let reopen = || {
                RadixTree::from_committed_digest(root_b, tree_b.committed_root_digest(), tree_b.len_pages())
            };
            let (mut batch, mut twin) = (reopen(), reopen());
            let (mut reads, mut read_blocks) = (0, Vec::new());
            let batched = batch.hydrate_paths(&pages, &mut |iov| {
                reads += 1;
                read_blocks.extend(iov.iter().map(|(b, _)| *b));
                serve(images, iov)
            });
            prop_assert!(reads <= LEVELS);
            let read_once: HashSet<u64> = read_blocks.iter().copied().collect();
            prop_assert_eq!(read_once.len(), read_blocks.len(), "each node read once");
            let rot_found = Err(TreeError::CorruptNode { block: rotted });
            let mut under_rot = 0;
            for &page in &pages {
                let single = twin.hydrate_paths(&[page], &mut |iov| serve(images, iov));
                let entry = batch.resident_entry(page);
                prop_assert_eq!(entry, twin.resident_entry(page));
                if single.is_ok() {
                    prop_assert_eq!(entry.map(|(b, _)| b), model_b.get(&page).copied());
                } else {
                    prop_assert_eq!(&single, &rot_found);
                    prop_assert_eq!(entry, None);
                    under_rot += 1;
                }
            }
            if !rotted_run {
                prop_assert_eq!(batched, Ok(()));
                prop_assert_eq!(reads, LEVELS);
                prop_assert_eq!(read_blocks.len(), nodes.len());
                prop_assert_eq!(under_rot, 0);
                prop_assert_eq!(entries(&mut batch), entries(&mut twin));
            } else {
                prop_assert_eq!(batched, rot_found);
                prop_assert!(under_rot > 0);
            }
        }
    }
}

// ---- Object store crash serializability --------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After a crash at an arbitrary instant, recovery yields exactly the
    /// state of a prefix of committed μCheckpoints, and that prefix
    /// includes every checkpoint durable before the crash.
    #[test]
    fn store_crash_recovers_a_prefix(
        commits in prop::collection::vec(prop::collection::vec(0u64..64, 1..6), 1..40),
        crash_fraction in 0.0f64..1.0,
    ) {
        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format(&mut disk);
        let mut vt = Vt::new(0);
        let obj = store.create(&mut vt, &mut disk, "o").unwrap();
        // The object exists durably from here; crash points before this
        // instant would (correctly) lose the creation itself.
        let created_at = vt.now();

        // Apply the commits; page contents encode (epoch, page).
        let mut completions = Vec::new();
        for (epoch0, pages) in commits.iter().enumerate() {
            let epoch = epoch0 as u64 + 1;
            let images: Vec<Vec<u8>> = pages
                .iter()
                .map(|p| {
                    let mut img = vec![0u8; BLOCK_SIZE];
                    img[0..8].copy_from_slice(&epoch.to_le_bytes());
                    img[8..16].copy_from_slice(&p.to_le_bytes());
                    img
                })
                .collect();
            let iov: Vec<(u64, &[u8])> =
                pages.iter().zip(&images).map(|(p, img)| (*p, &img[..])).collect();
            let token = store.persist(&mut vt, &mut disk, obj, &iov).unwrap();
            ObjectStore::wait(&mut vt, token);
            completions.push(token.completes);
        }

        let end = vt.now();
        let crash_at =
            Nanos::from_ns((end.as_ns() as f64 * crash_fraction) as u64).max(created_at);
        let durable_prefix = completions.iter().filter(|&&c| c <= crash_at).count();
        disk.crash(crash_at);

        let mut vt2 = Vt::new(1);
        let mut store2 = ObjectStore::open(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("o").unwrap();
        let recovered_epoch = store2.epoch(obj2) as usize;

        prop_assert!(recovered_epoch <= commits.len());
        prop_assert!(
            recovered_epoch >= durable_prefix,
            "recovered epoch {} < durable prefix {}",
            recovered_epoch,
            durable_prefix
        );

        // The recovered image equals the replay of the first
        // `recovered_epoch` commits.
        let mut model: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for (epoch0, pages) in commits.iter().take(recovered_epoch).enumerate() {
            for p in pages {
                model.insert(*p, epoch0 as u64 + 1);
            }
        }
        let mut buf = vec![0u8; BLOCK_SIZE];
        for page in 0..64u64 {
            store2.read_page(&mut vt2, &mut disk, obj2, page, &mut buf).unwrap();
            let got_epoch = u64::from_le_bytes(buf[0..8].try_into().unwrap());
            let got_page = u64::from_le_bytes(buf[8..16].try_into().unwrap());
            match model.get(&page) {
                Some(&e) => {
                    prop_assert_eq!(got_epoch, e, "page {}", page);
                    prop_assert_eq!(got_page, page);
                }
                None => prop_assert_eq!(got_epoch, 0, "page {} should be empty", page),
            }
        }
    }
}

// ---- Crash serializability under fault injection -----------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under any seeded fault plan — torn writes, silent bit flips,
    /// dropped writes, latency spikes — recovery after a crash at an
    /// arbitrary instant still yields *exactly* the state of a prefix of
    /// the commits that succeeded. Faults may truncate the prefix (a
    /// corrupted commit and everything after it is rejected), but they
    /// never fabricate state, tear a commit in half, or reorder commits.
    ///
    /// Delta payloads carry the checksums recovery verifies. A workload
    /// longer than `COMPACT_AFTER` commits also writes a compaction root,
    /// and a root's payload is not re-verified (DESIGN.md, fault model):
    /// a root adopts the mappings of the records under it, so a block a
    /// fault damaged at or below the epoch of the root recovery adopted
    /// survives as detected rot. Such a page reads `CorruptData`, never
    /// other bytes; above that root, replay's payload check must have cut
    /// the chain before any damaged commit, so every page reads exactly.
    #[test]
    fn recovery_is_a_committed_prefix_under_any_fault_plan(
        commits in prop::collection::vec(prop::collection::vec(0u64..64, 1..6), 1..30),
        seed in any::<u64>(),
        crash_fraction in 0.0f64..1.0,
    ) {
        use msnap_disk::{Fault, FaultPlan, FaultProfile};

        let mut disk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format(&mut disk);
        let mut vt = Vt::new(0);
        let obj = store.create(&mut vt, &mut disk, "o").unwrap();
        let created_at = vt.now();
        disk.set_fault_plan(FaultPlan::seeded(seed, 4096, &FaultProfile::light()));

        // Apply the commits; failed persists abort cleanly and simply do
        // not advance the object (the store promises no leaks, no torn
        // in-memory state). Page contents encode (epoch, page).
        let mut applied: Vec<&Vec<u64>> = Vec::new();
        let mut completions = Vec::new();
        let mut commit_io = Vec::new();
        for pages in &commits {
            let epoch = applied.len() as u64 + 1;
            let images: Vec<Vec<u8>> = pages
                .iter()
                .map(|p| {
                    let mut img = vec![0u8; BLOCK_SIZE];
                    img[0..8].copy_from_slice(&epoch.to_le_bytes());
                    img[8..16].copy_from_slice(&p.to_le_bytes());
                    img
                })
                .collect();
            let iov: Vec<(u64, &[u8])> =
                pages.iter().zip(&images).map(|(p, img)| (*p, &img[..])).collect();
            let io_before = disk.io_seq();
            match store.persist(&mut vt, &mut disk, obj, &iov) {
                Ok(token) => {
                    ObjectStore::wait(&mut vt, token);
                    applied.push(pages);
                    completions.push(token.completes);
                    commit_io.push((io_before, disk.io_seq()));
                }
                Err(e) => prop_assert!(!matches!(e, msnap_store::StoreError::NotFound),
                    "only IO errors may abort a commit, got {}", e),
            }
        }

        let end = vt.now();
        let crash_at =
            Nanos::from_ns((end.as_ns() as f64 * crash_fraction) as u64).max(created_at);
        let durable_prefix = completions.iter().filter(|&&c| c <= crash_at).count();

        // Commits at or after the first torn/bit-flipped submission may
        // (correctly) be rejected by recovery; everything before the
        // first corruption that was durable at the crash must survive.
        let injector = disk.clear_fault_plan().expect("plan was installed");
        let mut damaged = std::collections::BTreeSet::new();
        for injected in injector.injected() {
            if matches!(injected.fault, Fault::Torn { .. } | Fault::BitFlip { .. }) {
                if let Some(k) =
                    commit_io.iter().position(|&(a, b)| injected.io >= a && injected.io < b)
                {
                    damaged.insert(k);
                }
            }
        }
        let corrupted_from = damaged.first().copied().unwrap_or(usize::MAX);
        let guaranteed = durable_prefix.min(corrupted_from);
        disk.crash(crash_at);

        let mut vt2 = Vt::new(1);
        let mut store2 = ObjectStore::open(&mut vt2, &mut disk).unwrap();
        let obj2 = store2.lookup("o").unwrap();
        let recovered_epoch = store2.epoch(obj2) as usize;

        prop_assert!(recovered_epoch <= applied.len());
        prop_assert!(
            recovered_epoch >= guaranteed,
            "recovered epoch {} < guaranteed prefix {} (durable {}, first corruption at commit {:?})",
            recovered_epoch,
            guaranteed,
            durable_prefix,
            corrupted_from
        );

        // The recovered image equals the replay of exactly the first
        // `recovered_epoch` successful commits — never a torn hybrid.
        let mut model: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for (epoch0, pages) in applied.iter().take(recovered_epoch).enumerate() {
            for p in *pages {
                model.insert(*p, epoch0 as u64 + 1);
            }
        }
        let root_epoch = adopted_root_epoch(&disk);
        let mut buf = vec![0u8; BLOCK_SIZE];
        for page in 0..64u64 {
            if let Err(e) = store2.read_page(&mut vt2, &mut disk, obj2, page, &mut buf) {
                let rot = matches!(e, msnap_store::StoreError::CorruptData { .. });
                let under_root = model
                    .get(&page)
                    .is_some_and(|&e| e <= root_epoch && damaged.contains(&(e as usize - 1)));
                prop_assert!(
                    rot && under_root,
                    "page {}: {:?} (adopted root at epoch {})",
                    page,
                    e,
                    root_epoch
                );
                continue;
            }
            let got_epoch = u64::from_le_bytes(buf[0..8].try_into().unwrap());
            let got_page = u64::from_le_bytes(buf[8..16].try_into().unwrap());
            match model.get(&page) {
                Some(&e) => {
                    prop_assert_eq!(got_epoch, e, "page {}", page);
                    prop_assert_eq!(got_page, page);
                }
                None => prop_assert_eq!(got_epoch, 0, "page {} should be empty", page),
            }
        }
    }
}

/// The epoch of the newest valid full root in the root slots of the
/// first object of a single-shard store — the root recovery adopts — or
/// 0 without one. Directory entries are 128 bytes: present flag at 0,
/// `meta_base` at bytes 9..17; the two root slots start at `meta_base`.
fn adopted_root_epoch(disk: &Disk) -> u64 {
    let dir = disk
        .peek(ShardLayout::sharded(0, 1).base + 1)
        .expect("directory block exists");
    assert_eq!(dir[0], 1, "directory entry present");
    let meta_base = u64::from_le_bytes(dir[9..17].try_into().unwrap());
    (meta_base..meta_base + 2)
        .filter_map(|slot| RootRecord::from_block(&disk.peek(slot)?, ObjectId(0)))
        .map(|root| root.epoch)
        .max()
        .unwrap_or(0)
}

// ---- VM per-thread isolation -------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dirty sets are per thread: each thread's take_dirty returns exactly
    /// the distinct pages it dirtied, regardless of interleaving — as long
    /// as threads touch disjoint pages (paper property (3), which the
    /// databases enforce by locking).
    #[test]
    fn vm_dirty_sets_are_per_thread(
        writes in prop::collection::vec((0u32..4, 0u64..64), 1..150),
    ) {
        let mut vm = Vm::new();
        let space = vm.create_space();
        // 4 threads own disjoint page ranges of one object.
        let obj = vm.create_object(4 * 64);
        vm.map(space, obj, 0x7000_0000_0000, TrackMode::Tracked).unwrap();
        let mut vt = Vt::new(0);
        let mut expected: Vec<std::collections::BTreeSet<u64>> =
            vec![Default::default(); 4];
        for (thread, page) in writes {
            let global_page = thread as u64 * 64 + page;
            vm.write(
                &mut vt,
                space,
                VthreadId(thread),
                0x7000_0000_0000 + global_page * PAGE_SIZE as u64,
                &[1],
            );
            expected[thread as usize].insert(global_page);
        }
        for thread in 0..4u32 {
            let dirty = vm.take_dirty(VthreadId(thread), None);
            let got: std::collections::BTreeSet<u64> =
                dirty.iter().map(|d| d.obj_page).collect();
            prop_assert_eq!(got.len(), dirty.len(), "no duplicates");
            prop_assert_eq!(&got, &expected[thread as usize], "thread {}", thread);
        }
    }

    /// Write/read round trips through the VM at arbitrary (possibly
    /// page-spanning) offsets.
    #[test]
    fn vm_write_read_round_trip(
        offset in 0u64..60_000,
        data in prop::collection::vec(any::<u8>(), 1..9_000),
    ) {
        let mut vm = Vm::new();
        let space = vm.create_space();
        let obj = vm.create_object(32);
        vm.map(space, obj, 0x7000_0000_0000, TrackMode::Tracked).unwrap();
        let mut vt = Vt::new(0);
        let t = vt.id();
        let offset = offset.min((32 * PAGE_SIZE - data.len()) as u64);
        vm.write(&mut vt, space, t, 0x7000_0000_0000 + offset, &data);
        let mut out = vec![0u8; data.len()];
        vm.read(&mut vt, space, 0x7000_0000_0000 + offset, &mut out);
        prop_assert_eq!(out, data);
    }
}

// ---- Latency statistics accuracy ----------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Histogram percentiles stay within the documented ~5% relative
    /// error of the exact order statistics.
    #[test]
    fn latency_stats_percentiles_accurate(
        samples in prop::collection::vec(1u64..10_000_000, 10..500),
    ) {
        let mut stats = LatencyStats::new();
        for &s in &samples {
            stats.record(Nanos::from_ns(s));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for p in [50.0, 90.0, 99.0] {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            let exact = sorted[rank.saturating_sub(1).min(sorted.len() - 1)] as f64;
            let approx = stats.percentile(p).as_ns() as f64;
            prop_assert!(
                (approx - exact).abs() / exact.max(1.0) < 0.05,
                "p{}: approx {} vs exact {}",
                p,
                approx,
                exact
            );
        }
        prop_assert_eq!(stats.count(), samples.len() as u64);
        prop_assert_eq!(stats.max().as_ns(), *sorted.last().unwrap());
        prop_assert_eq!(stats.min().as_ns(), sorted[0]);
    }
}

// ---- Skip index ≅ BTreeMap ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The skip index is a faithful ordered map.
    #[test]
    fn skiplist_matches_model(ops in prop::collection::vec((0u64..500, 0u64..1000), 1..300)) {
        use msnap_skipdb::SkipIndex;
        let mut index = SkipIndex::new(u64::MAX);
        let mut model = std::collections::BTreeMap::new();
        let mut vt = Vt::new(0);
        for (key, payload) in ops {
            index.insert(&mut vt, key, payload);
            model.insert(key, payload);
        }
        prop_assert_eq!(index.len(), model.len());
        let got: Vec<(u64, u64)> = index.iter_from(&mut vt, 0).map(|(k, p)| (k, *p)).collect();
        let want: Vec<(u64, u64)> = model.iter().map(|(k, p)| (*k, *p)).collect();
        prop_assert_eq!(got, want);
        for (k, v) in &model {
            prop_assert_eq!(index.find(&mut vt, *k), Some(v));
        }
    }
}

// ---- WAL crash prefix -----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// WAL replay after a crash yields a prefix of appended records that
    /// covers at least everything synced before the crash.
    #[test]
    fn wal_replay_is_a_covering_prefix(
        batches in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..60), 1..20),
        crash_fraction in 0.0f64..1.0,
    ) {
        use msnap_fs::{FileSystem, FsKind, WriteAheadLog};
        let mut disk = Disk::new(DiskConfig::paper());
        let mut fs = FileSystem::new(FsKind::Ffs);
        let mut vt = Vt::new(0);
        let mut wal = WriteAheadLog::create(&mut vt, &mut fs, "wal");
        let mut synced_at = Vec::new();
        for (i, payload) in batches.iter().enumerate() {
            let mut record = vec![i as u8];
            record.extend_from_slice(payload);
            wal.append(&mut vt, &mut disk, &mut fs, &record);
            wal.sync(&mut vt, &mut disk, &mut fs);
            synced_at.push(vt.now());
        }
        let end = vt.now();
        let crash_at = Nanos::from_ns((end.as_ns() as f64 * crash_fraction) as u64);
        let durable = synced_at.iter().filter(|&&c| c <= crash_at).count();
        disk.crash(crash_at);
        fs.discard_cache(&disk);

        let mut wal2 = WriteAheadLog::attach(&fs, "wal").unwrap();
        let records = wal2.replay(&mut vt, &mut disk, &mut fs);
        prop_assert!(records.len() >= durable, "lost a synced record");
        prop_assert!(records.len() <= batches.len());
        for (i, r) in records.iter().enumerate() {
            prop_assert_eq!(r.payload[0], i as u8, "replay must be in order");
        }
    }
}

// ---- Snapshot diff / delta-stream fidelity -----------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any persist history, diffing two retained snapshots and
    /// applying the delta stream to a replica sitting at the base
    /// reproduces the target epoch byte-for-byte. Histories cross the
    /// delta-window boundary (> 32 commits total) so the structural diff
    /// is exercised across full-root flushes, not just within one window.
    #[test]
    fn delta_stream_reproduces_target_snapshot_byte_for_byte(
        prefix in prop::collection::vec(prop::collection::vec(0u64..64, 1..5), 1..25),
        suffix in prop::collection::vec(prop::collection::vec(0u64..64, 1..5), 1..25),
    ) {
        use msnap_bench::replica::sync_to;

        let mut pdisk = Disk::new(DiskConfig::paper());
        let mut store = ObjectStore::format(&mut pdisk);
        let mut vt = Vt::new(0);
        let obj = store.create(&mut vt, &mut pdisk, "o").unwrap();

        // Page contents encode (global commit index, page) so every
        // commit writes fresh bytes.
        let mut seq = 0u64;
        let mut run = |store: &mut ObjectStore,
                       pdisk: &mut Disk,
                       vt: &mut Vt,
                       commits: &[Vec<u64>]| {
            for pages in commits {
                seq += 1;
                let images: Vec<Vec<u8>> = pages
                    .iter()
                    .map(|p| {
                        let mut img = vec![0u8; BLOCK_SIZE];
                        img[0..8].copy_from_slice(&seq.to_le_bytes());
                        img[8..16].copy_from_slice(&p.to_le_bytes());
                        img
                    })
                    .collect();
                let iov: Vec<(u64, &[u8])> =
                    pages.iter().zip(&images).map(|(p, img)| (*p, &img[..])).collect();
                let t = store.persist(vt, pdisk, obj, &iov).unwrap();
                ObjectStore::wait(vt, t);
            }
        };
        run(&mut store, &mut pdisk, &mut vt, &prefix);
        store.snapshot_create(&mut vt, &mut pdisk, obj, "a").unwrap();
        run(&mut store, &mut pdisk, &mut vt, &suffix);
        store.snapshot_create(&mut vt, &mut pdisk, obj, "b").unwrap();

        // Replica: full image of "a", then the structural delta to "b".
        let mut rdisk = Disk::new(DiskConfig::paper());
        let mut replica = ObjectStore::format(&mut rdisk);
        let r1 = sync_to(&mut vt, &mut store, &mut pdisk, &mut replica, &mut rdisk, "a").unwrap();
        prop_assert!(r1.full_sync);
        let r2 = sync_to(&mut vt, &mut store, &mut pdisk, &mut replica, &mut rdisk, "b").unwrap();
        prop_assert!(!r2.full_sync, "base is retained: the second round must ship a delta");

        let b = store.snapshot_lookup("b").unwrap().clone();
        let robj = replica.lookup("o").unwrap();
        prop_assert_eq!(replica.epoch(robj), b.epoch);
        prop_assert_eq!(replica.len_pages(robj), b.len_pages);
        let mut want = vec![0u8; BLOCK_SIZE];
        let mut got = vec![0u8; BLOCK_SIZE];
        for page in 0..b.len_pages {
            store
                .read_page_at(&mut vt, &mut pdisk, "b", page, &mut want)
                .unwrap();
            replica
                .read_page(&mut vt, &mut rdisk, robj, page, &mut got)
                .unwrap();
            prop_assert_eq!(&got, &want, "replica page {} diverges from snapshot b", page);
        }

        // The delta never ships more than the full image would.
        prop_assert!(r2.pages <= r1.pages.max(b.len_pages));
    }
}
