//! On-page layout of persistent skip-list nodes.
//!
//! Each node occupies one whole 4 KiB page ("we adjust the node size to
//! 4 KiB to align them with MemSnap's page tracking", §7.2 — property ②
//! at the cost of write amplification). Only the base linked list is
//! persistent; skip pointers are volatile.

use msnap_sim::wire::Reader;

/// Page size (mirrors the VM page size).
pub(crate) const PAGE: usize = 4096;
/// Magic of a regular node page.
pub(crate) const NODE_MAGIC: u32 = 0x534B_4E44; // "SKND"
/// Magic of the head sentinel page (page 0).
pub(crate) const HEAD_MAGIC: u32 = 0x534B_4844; // "SKHD"
/// Bytes of a node page before the value: magic, key, next, value length.
pub(crate) const NODE_HEADER: usize = 32;
/// Maximum value length.
pub(crate) const MAX_VALUE: usize = PAGE - NODE_HEADER;

/// Decoded node contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NodeView {
    pub key: u64,
    pub next: u64,
    pub value: Vec<u8>,
}

/// Encodes a node into a page image.
///
/// # Panics
///
/// Panics if the value exceeds [`MAX_VALUE`].
pub(crate) fn encode_node(key: u64, value: &[u8], next: u64) -> [u8; PAGE] {
    assert!(value.len() <= MAX_VALUE, "value exceeds node page");
    let mut page = [0u8; PAGE];
    page[0..4].copy_from_slice(&NODE_MAGIC.to_le_bytes());
    page[8..16].copy_from_slice(&key.to_le_bytes());
    page[16..24].copy_from_slice(&next.to_le_bytes());
    page[24..26].copy_from_slice(&(value.len() as u16).to_le_bytes());
    page[NODE_HEADER..NODE_HEADER + value.len()].copy_from_slice(value);
    page
}

/// Encodes the head sentinel.
pub(crate) fn encode_head(next: u64) -> [u8; PAGE] {
    let mut page = [0u8; PAGE];
    page[0..4].copy_from_slice(&HEAD_MAGIC.to_le_bytes());
    page[16..24].copy_from_slice(&next.to_le_bytes());
    page
}

/// Decodes a node page; `None` if the page is not a valid node or ends
/// inside it.
pub(crate) fn decode_node(page: &[u8]) -> Option<NodeView> {
    let mut r = Reader::new(page);
    let (key, next) = prefix(&mut r, NODE_MAGIC)?;
    let vlen = r.u16().ok()?;
    r.take(NODE_HEADER - r.at()).ok()?;
    let value = r.take(vlen.into()).ok()?.to_vec();
    Some(NodeView { key, next, value })
}

/// A node's next pointer from its first [`NODE_HEADER`] bytes alone;
/// `None` if they do not open a valid node.
pub(crate) fn decode_next(header: &[u8]) -> Option<u64> {
    prefix(&mut Reader::new(header), NODE_MAGIC).map(|(_, next)| next)
}

/// Decodes the head sentinel's next pointer; `None` if page 0 is not a
/// head (fresh store).
pub(crate) fn decode_head(page: &[u8]) -> Option<u64> {
    prefix(&mut Reader::new(page), HEAD_MAGIC).map(|(_, next)| next)
}

/// The key and next pointer of a page that opens with `magic`.
fn prefix(r: &mut Reader, magic: u32) -> Option<(u64, u64)> {
    if r.u32().ok()? != magic {
        return None;
    }
    r.take(4).ok()?;
    Some((r.u64().ok()?, r.u64().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_round_trips() {
        let page = encode_node(42, b"value-bytes", 7);
        let view = decode_node(&page).unwrap();
        assert_eq!(view.key, 42);
        assert_eq!(view.next, 7);
        assert_eq!(view.value, b"value-bytes");
    }

    #[test]
    fn head_round_trips() {
        let page = encode_head(99);
        assert_eq!(decode_head(&page), Some(99));
        assert_eq!(decode_node(&page), None);
    }

    #[test]
    fn zero_page_is_neither() {
        let page = [0u8; PAGE];
        assert_eq!(decode_node(&page), None);
        assert_eq!(decode_head(&page), None);
    }

    /// A torn or short read decodes to `None`, never a panic: every
    /// strict prefix of a node page (its value fills the page) and of the
    /// head's fields (magic, key slot and next end at byte 24; the rest of
    /// the head page is padding it does not read), and a node whose value
    /// length runs past its slice.
    #[test]
    fn short_pages_decode_to_none() {
        let node = encode_node(7, &[0xAB; MAX_VALUE], 9);
        assert!(decode_node(&node).is_some());
        for len in 0..PAGE {
            assert_eq!(decode_node(&node[..len]), None, "node prefix of {len}");
        }
        for len in 0..24 {
            assert_eq!(decode_next(&node[..len]), None, "header prefix of {len}");
        }
        let head = encode_head(5);
        for len in 0..24 {
            assert_eq!(decode_head(&head[..len]), None, "head prefix of {len}");
        }
        let mut long = encode_node(1, b"short", 0);
        long[24..26].copy_from_slice(&100u16.to_le_bytes());
        assert_eq!(decode_node(&long[..NODE_HEADER + 99]), None);
        assert!(decode_node(&long[..NODE_HEADER + 100]).is_some());
    }

    #[test]
    #[should_panic(expected = "exceeds node page")]
    fn oversized_value_rejected() {
        encode_node(1, &vec![0u8; MAX_VALUE + 1], 0);
    }
}
