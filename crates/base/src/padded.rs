//! The workspace's one padding type: [`CachePadded`].
//!
//! Host layout rule (DESIGN §7.2): state one tile's thread writes per guest
//! op lives in that tile's own padded block, and no 128-byte host block ever
//! holds hot words of two tiles. Per-tile arrays on the access path are
//! therefore slices of `CachePadded<T>`; [`crate::Clock`] carries the same
//! alignment by attribute because its type appears unwrapped in public
//! signatures.

use std::ops::Deref;

/// Host bytes one padded element owns: two 64-byte cache lines, because the
/// adjacent-line prefetcher pulls lines in pairs — with 64-byte padding a
/// write to one element still steals its neighbour's line.
pub const PAD_BYTES: usize = 128;

/// `T` alone on its 128-byte block(s): aligned to [`PAD_BYTES`], size rounded
/// up to a multiple of it, so neighbours in a slice never share a block.
///
/// # Examples
///
/// ```
/// use graphite_base::CachePadded;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let lanes: Vec<CachePadded<AtomicU64>> = (0..2).map(|_| CachePadded::default()).collect();
/// lanes[1].fetch_add(3, Ordering::Relaxed); // derefs to the inner value
/// assert_eq!(lanes[1].load(Ordering::Relaxed), 3);
/// assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
/// ```
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    /// Wraps `value`.
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

/// The host address of `value`, for layout tests (safe: the pointer is only
/// turned into an integer, never dereferenced).
#[doc(hidden)]
pub fn addr_of<T>(value: &T) -> usize {
    value as *const T as usize
}

/// Layout-test helper: panics when two *different* tiles have a hot word in
/// the same [`PAD_BYTES`] block. `words` yields `(tile, label, address)`.
#[doc(hidden)]
pub fn assert_tiles_isolated(words: impl IntoIterator<Item = (usize, &'static str, usize)>) {
    let mut owner = std::collections::HashMap::new();
    for (tile, label, addr) in words {
        let (t0, l0) = *owner.entry(addr / PAD_BYTES).or_insert((tile, label));
        assert!(
            t0 == tile,
            "tile {tile}'s {label} at {addr:#x} shares a {PAD_BYTES}-byte block with tile {t0}'s {l0}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_elements_own_whole_blocks() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), PAD_BYTES);
        assert_eq!(std::mem::size_of::<CachePadded<u8>>(), PAD_BYTES);
        assert_eq!(std::mem::size_of::<CachePadded<[u8; 129]>>(), 2 * PAD_BYTES);
        let v: Vec<CachePadded<u32>> = (0..4).map(CachePadded::new).collect();
        assert_tiles_isolated(v.iter().enumerate().map(|(t, w)| (t, "word", addr_of(&**w))));
        assert_eq!(*v[3], 3);
    }

    #[test]
    #[should_panic(expected = "shares a 128-byte block")]
    fn unpadded_neighbours_are_caught() {
        let v = [0u64; 2];
        assert_tiles_isolated(v.iter().enumerate().map(|(t, w)| (t, "word", addr_of(w))));
    }
}
