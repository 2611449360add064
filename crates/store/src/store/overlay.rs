//! The line overlay, and the one rule that lands a durable record in an
//! object: the commit path and replay both go through `apply_record`.

use super::*;

/// Pages one object's overlay may hold before a line-sparse commit takes
/// the full-root path instead (which writes the overlay out and empties
/// it): bounds the memory of an object whose window of line commits keeps
/// touching new pages.
pub const OVERLAY_PAGE_BUDGET: usize = 256;

impl ObjectState {
    /// Object length in pages, overlay included (a line commit past the
    /// tree's end grows the object before any full root maps the page).
    pub(super) fn len_pages(&self) -> u64 {
        let overlay_end = self.overlay.keys().next_back().map_or(0, |p| p + 1);
        self.tree.len_pages().max(overlay_end)
    }
}

impl StoreShard {
    /// Lands one durable record in its object — the one rule the commit
    /// path and replay share, so a recovered object is the object its
    /// commits built. An inline pair's patched page (the next of
    /// `patched`) enters the overlay under the pair's digest; a page pair
    /// maps its block in the tree and takes the page out of the overlay.
    /// The record's epoch becomes the object's, and every epoch it covers
    /// counts against the delta window — a folded record is as many
    /// commits as it spans, so full roots stay every [`DELTA_SLOTS`]
    /// epochs and no two live records share a ring slot. Returns the
    /// blocks the tree stopped referencing.
    pub(super) fn apply_record(
        &mut self,
        record: &DeltaRecord,
        patched: &mut impl Iterator<Item = Box<[u8]>>,
    ) -> Vec<u64> {
        let state = &mut self.objects[record.object.0 as usize];
        let mut superseded = Vec::new();
        for (page, word) in &record.pairs {
            let (block, digest) = layout::unpack_entry(*word);
            if block == INLINE_BLOCK {
                let image = patched.next().expect("one image per inline pair");
                state.overlay.insert(*page, (digest, image));
            } else {
                // A whole page supersedes whatever the records held.
                state.overlay.remove(page);
                superseded.extend(state.tree.set_entry(*page, block, digest));
            }
        }
        superseded.extend(state.tree.take_freed());
        state.deltas_since_full += record.span + 1;
        state.epoch = record.epoch;
        // Each landed page supersedes the rotted block a scrub report may
        // name (an inline page's whole image is in the overlay).
        let landed = |page| record.pairs.iter().any(|(p, _)| *p == page);
        self.unrepaired
            .retain(|u| u.object != record.object || !landed(u.page));
        superseded
    }
}
