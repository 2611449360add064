//! Rotating MemTables: the paper's described alternative design (§7.2).
//!
//! "MemSnap integration does not fundamentally require using a single
//! MemTable or removing the LSM tree. Alternative designs can
//! periodically swap out MemTables to generate multiple smaller on-disk
//! regions and tier them into an LSM tree in the same way that the
//! baseline creates an LSM tree out of SSTable files."
//!
//! [`RotatingMemSnapKv`] implements that design: writes go to an *active*
//! persistent skip list; when it fills past the rotation threshold it is
//! *sealed* (immutable) and a fresh region becomes active. Reads check
//! the active list, then sealed lists newest-first. Restore walks every
//! region's linked list. Each region keeps its own epoch chain, so
//! μCheckpoints of different tiers never serialize against each other.

use memsnap::{Md, MemSnap, MsnapError, PersistFlags, RegionSel};
use msnap_disk::Disk;
use msnap_sim::{Meters, Nanos, Vt};

use crate::kv::{Kv, KvError, KvStats};
use crate::plist::{Mapping, PersistentSkipList};

/// The tiered persistent-skip-list store. See the module docs.
#[derive(Debug)]
pub struct RotatingMemSnapKv {
    ms: MemSnap,
    active: PersistentSkipList<Mapping>,
    /// The active tier's region.
    active_md: Md,
    /// Sealed tiers, oldest first.
    sealed: Vec<PersistentSkipList<Mapping>>,
    region_pages: u64,
    /// Seal the active MemTable once it holds this many node pages.
    rotate_pages: u64,
    stats: KvStats,
}

fn tier_name(generation: usize) -> String {
    format!("memtable-{generation:05}")
}

impl RotatingMemSnapKv {
    /// Creates a fresh store. Each tier's region holds `region_pages`
    /// node pages; the active MemTable is sealed at `rotate_pages`. A
    /// `multi_put` batch lands in one tier, so it must hold fewer than
    /// `region_pages` pairs (a larger one panics).
    ///
    /// # Panics
    ///
    /// Panics if `rotate_pages >= region_pages` (a tier must be able to
    /// hold its rotation threshold plus the head sentinel).
    pub fn format(disk: Disk, region_pages: u64, rotate_pages: u64, vt: &mut Vt) -> Self {
        assert!(
            rotate_pages < region_pages,
            "rotation threshold must fit in a region"
        );
        let mut ms = MemSnap::format(disk);
        let space = ms.vm_mut().create_space();
        let region = ms
            .msnap_open(vt, space, &tier_name(0), region_pages)
            .expect("fresh store accepts the first tier");
        let mapping = Mapping(space, region.addr);
        let active = PersistentSkipList::format(&mut ms, mapping, region_pages, vt);
        RotatingMemSnapKv {
            ms,
            active,
            active_md: region.md,
            sealed: Vec::new(),
            region_pages,
            rotate_pages,
            stats: KvStats::default(),
        }
    }

    /// Restores after a crash: every tier region is remapped and its
    /// linked list walked; the newest tier becomes active again.
    ///
    /// # Errors
    ///
    /// The store's error if `disk` holds no MemSnap store, or
    /// `BadDescriptor` if its first tier is not durable.
    pub fn restore(disk: Disk, vt: &mut Vt) -> Result<Self, MsnapError> {
        let mut ms = MemSnap::restore(vt, disk)?;
        let space = ms.vm_mut().create_space();
        let mut tiers = Vec::new();
        for generation in 0.. {
            let name = tier_name(generation);
            if ms.region(&name).is_none() {
                break;
            }
            let region = ms.msnap_open(vt, space, &name, 0)?;
            let mapping = Mapping(space, region.addr);
            let tier = PersistentSkipList::restore(&mut ms, mapping, region.pages, vt);
            tiers.push(tier);
        }
        let active = tiers.pop().ok_or(MsnapError::BadDescriptor)?;
        let active_md = ms
            .region(&tier_name(tiers.len()))
            .ok_or(MsnapError::BadDescriptor)?;
        let region_pages = active.capacity;
        Ok(RotatingMemSnapKv {
            ms,
            active,
            active_md,
            sealed: tiers,
            region_pages,
            rotate_pages: region_pages.saturating_sub(1),
            stats: KvStats::default(),
        })
    }

    /// Simulates a power failure; pass the device to
    /// [`RotatingMemSnapKv::restore`].
    pub fn crash(self, at: Nanos) -> Disk {
        self.ms.crash(at)
    }

    /// Number of tiers (active + sealed).
    pub fn tiers(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Seals the active MemTable and opens a fresh tier.
    fn rotate(&mut self, vt: &mut Vt) -> Result<(), MsnapError> {
        let generation = self.sealed.len() + 1;
        let space = self.active.region.0;
        let region = self
            .ms
            .msnap_open(vt, space, &tier_name(generation), self.region_pages)?;
        let mapping = Mapping(space, region.addr);
        let fresh = PersistentSkipList::format(&mut self.ms, mapping, region.pages, vt);
        let sealed = std::mem::replace(&mut self.active, fresh);
        self.sealed.push(sealed);
        self.active_md = region.md;
        self.stats.flushes += 1;
        Ok(())
    }

    /// Inserts `pairs` into one tier and commits them in one μCheckpoint.
    /// Rotation is decided once, before the first insert: a tier sealed
    /// mid-batch would keep its share of the batch dirty in a region no
    /// later persist covers.
    ///
    /// # Panics
    ///
    /// Panics if the batch cannot fit an empty tier.
    fn commit<V: AsRef<[u8]>>(&mut self, vt: &mut Vt, pairs: &[(u64, V)]) -> Result<(), KvError> {
        let incoming = pairs.len() as u64;
        assert!(
            incoming < self.region_pages,
            "batch of {incoming} exceeds a {}-page tier",
            self.region_pages
        );
        // `rotate_pages < region_pages`: a batch that stays under the
        // threshold also fits the region.
        if self.active.pages_used() + incoming > self.rotate_pages {
            self.rotate(vt)?;
        }
        for (key, value) in pairs {
            self.active
                .insert_volatile(&mut self.ms, vt, *key, value.as_ref());
        }
        let thread = vt.id();
        let sel = RegionSel::Region(self.active_md);
        self.ms
            .msnap_persist(vt, thread, sel, PersistFlags::sync())?;
        self.stats.commits += 1;
        Ok(())
    }
}

impl Kv for RotatingMemSnapKv {
    fn put(&mut self, vt: &mut Vt, key: u64, value: &[u8]) -> Result<(), KvError> {
        self.commit(vt, &[(key, value)])
    }

    fn multi_put(&mut self, vt: &mut Vt, pairs: &[(u64, Vec<u8>)]) -> Result<(), KvError> {
        self.commit(vt, pairs)
    }

    fn get(&mut self, vt: &mut Vt, key: u64) -> Option<Vec<u8>> {
        if let Some(v) = self.active.get(&mut self.ms, vt, key) {
            return Some(v);
        }
        for tier in self.sealed.iter().rev() {
            if let Some(v) = tier.get(&mut self.ms, vt, key) {
                return Some(v);
            }
        }
        None
    }

    fn seek(&mut self, vt: &mut Vt, key: u64, limit: usize) -> Vec<(u64, Vec<u8>)> {
        // Merge across tiers, newest version of each key winning.
        let mut merged: std::collections::BTreeMap<u64, Vec<u8>> =
            std::collections::BTreeMap::new();
        for tier in &self.sealed {
            for (k, v) in tier.seek(&mut self.ms, vt, key, limit) {
                merged.insert(k, v);
            }
        }
        for (k, v) in self.active.seek(&mut self.ms, vt, key, limit) {
            merged.insert(k, v);
        }
        merged.into_iter().take(limit).collect()
    }

    fn len(&self) -> usize {
        // Approximate: keys shadowed across tiers double-count (like the
        // baseline's SSTable levels).
        self.active.index.len() + self.sealed.iter().map(|t| t.index.len()).sum::<usize>()
    }

    fn stats(&self) -> KvStats {
        self.stats
    }

    fn meters(&self) -> Meters {
        self.ms.meters().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msnap_disk::DiskConfig;

    fn fresh(rotate_pages: u64) -> (RotatingMemSnapKv, Vt) {
        let mut vt = Vt::new(0);
        let kv = RotatingMemSnapKv::format(
            Disk::new(DiskConfig::paper()),
            rotate_pages * 2,
            rotate_pages,
            &mut vt,
        );
        (kv, vt)
    }

    #[test]
    fn put_get_across_rotation() {
        let (mut kv, mut vt) = fresh(16);
        for k in 0..60u64 {
            kv.put(&mut vt, k, &k.to_le_bytes()).unwrap();
        }
        assert!(kv.tiers() > 1, "rotation must have happened");
        for k in 0..60u64 {
            assert_eq!(
                kv.get(&mut vt, k),
                Some(k.to_le_bytes().to_vec()),
                "key {k}"
            );
        }
    }

    #[test]
    fn newest_tier_wins_for_rewritten_keys() {
        let (mut kv, mut vt) = fresh(8);
        for round in 0..4u64 {
            for k in 0..10u64 {
                kv.put(&mut vt, k, &(round * 100 + k).to_le_bytes())
                    .unwrap();
            }
        }
        assert!(kv.tiers() >= 3);
        for k in 0..10u64 {
            let got = u64::from_le_bytes(kv.get(&mut vt, k).unwrap().try_into().unwrap());
            assert_eq!(got, 300 + k, "latest version of key {k}");
        }
    }

    #[test]
    fn seek_merges_tiers_in_order() {
        let (mut kv, mut vt) = fresh(8);
        for k in (0..40u64).rev() {
            kv.put(&mut vt, k, b"v").unwrap();
        }
        let keys: Vec<u64> = kv.seek(&mut vt, 10, 8).iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![10, 11, 12, 13, 14, 15, 16, 17]);
    }

    #[test]
    fn crash_restore_recovers_all_tiers() {
        let (mut kv, mut vt) = fresh(12);
        for k in 0..50u64 {
            kv.put(&mut vt, k, &(k * 3).to_le_bytes()).unwrap();
        }
        let tiers_before = kv.tiers();
        assert!(tiers_before > 1);
        let disk = kv.crash(vt.now());

        let mut vt2 = Vt::new(1);
        let mut kv2 = RotatingMemSnapKv::restore(disk, &mut vt2).unwrap();
        assert_eq!(kv2.tiers(), tiers_before);
        for k in 0..50u64 {
            assert_eq!(
                kv2.get(&mut vt2, k),
                Some((k * 3).to_le_bytes().to_vec()),
                "key {k} lost across tiers"
            );
        }
    }

    #[test]
    fn sealed_tiers_keep_independent_epochs() {
        let (mut kv, mut vt) = fresh(8);
        for k in 0..30u64 {
            kv.put(&mut vt, k, b"x").unwrap();
        }
        // Epochs advance only on the active tier; sealed regions stay at
        // their sealing epoch (no global serialization).
        let store = kv.ms.store();
        let active_epoch = store.epoch(
            store
                .lookup(&tier_name(kv.sealed.len()))
                .expect("active tier object"),
        );
        assert!(active_epoch > 0);
    }

    #[test]
    #[should_panic(expected = "rotation threshold")]
    fn rotation_must_fit_region() {
        let mut vt = Vt::new(0);
        let _ = RotatingMemSnapKv::format(Disk::new(DiskConfig::paper()), 8, 8, &mut vt);
    }
}
