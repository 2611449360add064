//! Public API types.

use std::error::Error;
use std::fmt;

use msnap_disk::Disk;
use msnap_sim::Nanos;
use msnap_store::StoreError;
use msnap_vm::VmError;

/// A MemSnap region descriptor — the paper's opaque `md`. "Similar to
/// POSIX shared memory descriptors, these are opaque descriptors, not
/// files" (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Md(pub u32);

impl fmt::Display for Md {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "md{}", self.0)
    }
}

/// Selects which regions a persist/wait call applies to: one region, or
/// all of them (the paper's `md == -1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionSel {
    /// A single region.
    Region(Md),
    /// All regions ("persists all modifications across all regions").
    All,
}

/// Flags to [`MemSnap::msnap_persist`](crate::MemSnap::msnap_persist),
/// mirroring `MS_SYNC` / `MS_ASYNC` / `MS_GLOBAL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistFlags {
    /// Wait for the μCheckpoint to be durable before returning (`MS_SYNC`;
    /// the default). When `false` (`MS_ASYNC`), the call returns after
    /// initiating the IO and the caller uses `msnap_wait`.
    pub sync: bool,
    /// Persist modifications made by *all* threads, not just the caller
    /// (`MS_GLOBAL`) — the existing SLS whole-application semantics.
    pub global: bool,
}

impl PersistFlags {
    /// Synchronous persist of the calling thread's modifications.
    pub fn sync() -> Self {
        PersistFlags {
            sync: true,
            global: false,
        }
    }

    /// Asynchronous persist (`MS_ASYNC`): return after initiating the IO.
    pub fn async_() -> Self {
        PersistFlags {
            sync: false,
            global: false,
        }
    }

    /// Adds `MS_GLOBAL`: include every thread's dirty set.
    pub fn with_global(mut self) -> Self {
        self.global = true;
        self
    }
}

impl Default for PersistFlags {
    /// `msnap_persist` "is synchronous by default".
    fn default() -> Self {
        Self::sync()
    }
}

/// Handle to one participant's share of a pending group commit, returned
/// by [`MemSnap::msnap_persist_grouped`](crate::MemSnap::msnap_persist_grouped)
/// and redeemed — exactly once — with
/// [`MemSnap::msnap_group_poll`](crate::MemSnap::msnap_group_poll).
///
/// The ticket is opaque: it identifies the batch the caller joined and the
/// caller's slot within it. Polling a ticket twice reports
/// [`MsnapError::BadDescriptor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitTicket {
    pub(crate) batch: u64,
    pub(crate) participant: u32,
}

/// Result of `msnap_open`: the region descriptor plus its fixed address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionHandle {
    /// The region descriptor.
    pub md: Md,
    /// The region's fixed virtual address — identical on every open, so
    /// pointers into the region survive crashes (§3).
    pub addr: u64,
    /// Region length in pages.
    pub pages: u64,
}

/// Result of
/// [`MemSnap::msnap_open_index`](crate::MemSnap::msnap_open_index): one
/// region carved into the fixed layout a concurrent persistent index uses.
///
/// ```text
/// page 0                  carve header (validated magic/geometry) +
///                         structure meta area (bytes 64..)
/// pages 1 ..= writers     per-writer detectable-descriptor log pages
/// pages 1+writers ..      slot arena (nodes)
/// ```
///
/// The carve is an ordinary region: μCheckpoints of descriptor logs and
/// arena pages ride the normal per-thread commit and group-commit lanes,
/// and the geometry is re-derived from the durable header on reopen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexCarve {
    /// The backing region.
    pub region: RegionHandle,
    /// Writer slots carved out (one descriptor-log page each).
    pub writers: u32,
    /// Arena length in pages.
    pub arena_pages: u64,
    /// Caller-defined structure tag, checked on reopen.
    pub kind: u32,
}

impl IndexCarve {
    /// Byte offset of the structure-owned meta area within the header
    /// page (the carve header occupies bytes `0..META_OFF`).
    pub const META_OFF: u64 = 64;

    /// Address of the structure meta area (header page, bytes 64..).
    pub fn meta_addr(&self) -> u64 {
        self.region.addr + Self::META_OFF
    }

    /// Address of one writer's private descriptor-log page.
    ///
    /// # Panics
    ///
    /// Panics if `writer >= self.writers`.
    pub fn log_addr(&self, writer: u32) -> u64 {
        assert!(writer < self.writers, "writer {writer} of {}", self.writers);
        self.region.addr + (1 + writer as u64) * msnap_vm::PAGE_SIZE as u64
    }

    /// Base address of the slot arena.
    pub fn arena_addr(&self) -> u64 {
        self.region.addr + (1 + self.writers as u64) * msnap_vm::PAGE_SIZE as u64
    }
}

/// Result of [`MemSnap::msnap_open_at`](crate::MemSnap::msnap_open_at): a
/// read-only mapping of one retained snapshot's image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotView {
    /// Fresh fixed virtual address of the mapping (distinct from the live
    /// region's address, so both images can be compared side by side).
    pub addr: u64,
    /// Mapping length in pages (the live region's length).
    pub pages: u64,
    /// The retained epoch the view shows.
    pub epoch: crate::Epoch,
}

/// Cost breakdown of one `msnap_persist` call — the rows of the paper's
/// Table 5.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PersistBreakdown {
    /// "Resetting Tracking": trace-buffer PTE resets + TLB shootdown.
    pub resetting_tracking: Nanos,
    /// "Initiating Writes": building and submitting the scatter/gather IO.
    pub initiating_writes: Nanos,
    /// "Waiting on IO": for synchronous calls, the time blocked on the
    /// device; zero for `MS_ASYNC`.
    pub waiting_on_io: Nanos,
    /// Pages included in the μCheckpoint.
    pub pages: u64,
}

impl PersistBreakdown {
    /// Total call latency.
    pub fn total(&self) -> Nanos {
        self.resetting_tracking + self.initiating_writes + self.waiting_on_io
    }
}

/// Errors returned by the MemSnap API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MsnapError {
    /// Unknown region descriptor or name.
    BadDescriptor,
    /// `msnap_open` of an existing region with a different length.
    LengthMismatch,
    /// Error from the object store.
    Store(StoreError),
    /// Error from the VM subsystem.
    Vm(VmError),
}

impl fmt::Display for MsnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsnapError::BadDescriptor => f.write_str("unknown region descriptor"),
            MsnapError::LengthMismatch => f.write_str("region exists with a different length"),
            MsnapError::Store(e) => write!(f, "object store: {e}"),
            MsnapError::Vm(e) => write!(f, "vm: {e}"),
        }
    }
}

impl Error for MsnapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MsnapError::Store(e) => Some(e),
            MsnapError::Vm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for MsnapError {
    fn from(e: StoreError) -> Self {
        MsnapError::Store(e)
    }
}

impl From<VmError> for MsnapError {
    fn from(e: VmError) -> Self {
        MsnapError::Vm(e)
    }
}

/// A failed [`crate::MemSnap::restore`]: why it failed, and the device it
/// was given — untouched, so a transient failure is retried by taking
/// `disk` back out and restoring again.
pub struct RestoreError {
    /// Why the restore failed.
    pub error: MsnapError,
    /// The device, exactly as it was passed in.
    pub disk: Disk,
}

impl fmt::Debug for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RestoreError")
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "restore: {}", self.error)
    }
}

impl Error for RestoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.error)
    }
}

impl From<RestoreError> for MsnapError {
    fn from(e: RestoreError) -> Self {
        e.error
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_flags_are_sync_non_global() {
        let f = PersistFlags::default();
        assert!(f.sync);
        assert!(!f.global);
    }

    #[test]
    fn flag_builders() {
        let f = PersistFlags::async_().with_global();
        assert!(!f.sync);
        assert!(f.global);
    }

    #[test]
    fn breakdown_total_sums_rows() {
        let b = PersistBreakdown {
            resetting_tracking: Nanos::from_us(5),
            initiating_writes: Nanos::from_us(6),
            waiting_on_io: Nanos::from_us(40),
            pages: 16,
        };
        assert_eq!(b.total(), Nanos::from_us(51));
    }

    #[test]
    fn errors_display_and_convert() {
        let e: MsnapError = StoreError::NotFound.into();
        assert!(e.to_string().contains("object store"));
        let e: MsnapError = VmError::Overlap.into();
        assert!(e.to_string().contains("vm"));
    }
}
