//! The one sub-page encoding: a page's dirty 64-byte lines as a bitmap,
//! as sorted byte runs, and the gather / scatter between a page image and
//! the runs' packed bytes. The store's line-grain [`DeltaRecord`] bodies
//! and `msnap-snap`'s sub-page wire frames are both built on these.
//!
//! [`DeltaRecord`]: crate::DeltaRecord

use msnap_disk::BLOCK_SIZE;

/// Dirty-tracking granularity: one cache line.
pub const LINE_SIZE: usize = 64;
/// Lines per page — one `u64` bitmap covers a page exactly.
pub const LINES_PER_PAGE: usize = BLOCK_SIZE / LINE_SIZE;

/// Merges a dirty-line bitmap into sorted `(offset, len)` byte runs
/// (adjacent dirty lines coalesce into one run).
pub fn line_runs(mask: u64) -> Vec<(u16, u16)> {
    let mut runs: Vec<(u16, u16)> = Vec::new();
    for line in 0..LINES_PER_PAGE {
        if mask & (1 << line) == 0 {
            continue;
        }
        let off = (line * LINE_SIZE) as u16;
        match runs.last_mut() {
            Some((o, l)) if *o + *l == off => *l += LINE_SIZE as u16,
            _ => runs.push((off, LINE_SIZE as u16)),
        }
    }
    runs
}

/// Appends the bytes `runs` cover of `page` to `out`, run after run.
///
/// # Panics
///
/// Panics if a run reaches past the end of `page`.
pub fn gather(page: &[u8], runs: &[(u16, u16)], out: &mut Vec<u8>) {
    for &(off, len) in runs {
        out.extend_from_slice(&page[off as usize..off as usize + len as usize]);
    }
}

/// Copies `raw` — run bytes packed back to back, as [`gather`] wrote them
/// — over the byte ranges `runs` name in `page`. `None` if a run reaches
/// past the page or `raw` is too short; bytes past the last run are
/// ignored.
pub fn scatter(page: &mut [u8], runs: &[(u16, u16)], raw: &[u8]) -> Option<()> {
    let mut at = 0usize;
    for &(off, len) in runs {
        let (off, len) = (off as usize, len as usize);
        page.get_mut(off..off + len)?
            .copy_from_slice(raw.get(at..at + len)?);
        at += len;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_coalesce_adjacent_lines() {
        assert!(line_runs(0).is_empty());
        assert_eq!(line_runs(0b1), vec![(0, 64)]);
        assert_eq!(line_runs(0b1011), vec![(0, 128), (192, 64)]);
        assert_eq!(line_runs(1 << 63), vec![(4032, 64)]);
        assert_eq!(line_runs(u64::MAX), vec![(0, BLOCK_SIZE as u16)]);
    }

    #[test]
    fn scatter_inverts_gather_and_rejects_bad_shapes() {
        let src: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
        let runs = line_runs(0b101 | 1 << 40);
        let mut raw = Vec::new();
        gather(&src, &runs, &mut raw);
        assert_eq!(raw.len(), 3 * LINE_SIZE);
        let mut page = vec![0u8; BLOCK_SIZE];
        scatter(&mut page, &runs, &raw).unwrap();
        for (i, (got, want)) in page.iter().zip(&src).enumerate() {
            let dirty = [0usize, 2, 40].contains(&(i / LINE_SIZE));
            assert_eq!(*got, if dirty { *want } else { 0 }, "byte {i}");
        }
        assert!(
            scatter(&mut page, &runs, &raw[..100]).is_none(),
            "short raw"
        );
        assert!(
            scatter(&mut page, &[(4090, 64)], &raw).is_none(),
            "past the page"
        );
    }
}
