//! The storage-engine persistence boundary (SQLite's "VFS").

use std::fmt;

use msnap_sim::{Meters, Vt, VthreadId};

use crate::PAGE_SIZE;

/// A commit the backend could not make durable. The transaction is
/// *aborted*: none of its writes are durable, the engine releases the
/// write lock, and the caller decides whether to acknowledge the
/// underlying device error and retry.
///
/// On the MemSnap backend the failed pages stay dirty in the region, so
/// an acknowledged retry re-persists exactly the aborted transaction
/// (plus anything written since).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitError(pub memsnap::MsnapError);

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transaction aborted: {}", self.0)
    }
}

impl std::error::Error for CommitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.0)
    }
}

impl From<memsnap::MsnapError> for CommitError {
    fn from(e: memsnap::MsnapError) -> Self {
        CommitError(e)
    }
}

/// Aggregate persistence statistics a backend exposes for the evaluation
/// tables.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BackendStats {
    /// Transaction commits.
    pub commits: u64,
    /// WAL checkpoints performed (file backend only).
    pub checkpoints: u64,
    /// Pages persisted across all commits.
    pub pages_persisted: u64,
}

/// The engine's page-persistence interface.
///
/// The B-tree and transaction layers above this trait are byte-identical
/// between the baseline and MemSnap builds — swapping the backend is the
/// whole integration, as in the paper ("the plugin … replaces the standard
/// Unix file module").
pub trait Backend {
    /// Reads page `page` into `out`.
    fn read_page(&mut self, vt: &mut Vt, page: u64, out: &mut [u8; PAGE_SIZE]);

    /// Writes page `page` on behalf of `thread`; buffered until
    /// [`Backend::commit`].
    fn write_page(&mut self, vt: &mut Vt, thread: VthreadId, page: u64, data: &[u8; PAGE_SIZE]);

    /// Durably commits everything `thread` has written since its previous
    /// commit.
    ///
    /// # Errors
    ///
    /// [`CommitError`] when the device rejects the commit IO: the
    /// transaction is aborted, not partially durable.
    fn commit(&mut self, vt: &mut Vt, thread: VthreadId) -> Result<(), CommitError>;

    /// Enqueues `thread`'s writes into a cross-thread group commit and
    /// returns a ticket for [`Backend::commit_poll`], or `None` if the
    /// backend committed durably right here (the default for backends
    /// without a group-commit path, e.g. the WAL baseline).
    ///
    /// # Errors
    ///
    /// As for [`Backend::commit`].
    fn commit_enqueue(
        &mut self,
        vt: &mut Vt,
        thread: VthreadId,
    ) -> Result<Option<memsnap::CommitTicket>, CommitError> {
        self.commit(vt, thread)?;
        Ok(None)
    }

    /// Polls a ticket from [`Backend::commit_enqueue`]: `Ok(true)` once
    /// the transaction is durable, `Ok(false)` while the group's
    /// coalescing window is still open (poll again).
    ///
    /// # Errors
    ///
    /// The group's error if the combined commit failed — a faulted batch
    /// aborts *every* transaction in it.
    fn commit_poll(
        &mut self,
        _vt: &mut Vt,
        _ticket: memsnap::CommitTicket,
    ) -> Result<bool, CommitError> {
        Ok(true)
    }

    /// Number of pages the backend can hold.
    fn capacity_pages(&self) -> u64;

    /// Persistence statistics.
    fn stats(&self) -> BackendStats;

    /// Per-syscall latency meters (`"write"`, `"read"`, `"fsync"`,
    /// `"msnap_persist"`, …).
    fn meters(&self) -> Meters;

    /// Resets meters and counters (workload warm-up).
    fn reset_metrics(&mut self);

    /// Recovers the concrete backend type (crash-test plumbing).
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;

    /// In-place access to the concrete backend type, for configuration
    /// that has no trait-level surface (coalescing window, pipeline
    /// depth). `None` for backends that opt out.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}
