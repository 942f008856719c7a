//! Recycled zero-filled storage for simulated RAM and block devices.
//!
//! A fault-injection campaign builds one machine per experiment: 32 MiB of
//! RAM plus 16 MiB of disks, of which a run touches a few MiB. Allocating
//! that afresh every time costs a host page fault per touched page (fresh
//! `mmap` memory) or a full `memset` (heap memory), and dominated the
//! campaign's host time.
//!
//! [`ZeroedBuf`] is a flat byte buffer that remembers, one bit per 4 KiB
//! block, which blocks were ever written. On drop it zeroes exactly those
//! blocks and parks the buffer in a small per-thread pool keyed by exact
//! length; [`ZeroedBuf::new`] takes from that pool before allocating. The
//! invariant: a buffer in the pool is all zero, so a recycled buffer is
//! byte-for-byte what `vec![0; len]` gives and every simulated result is
//! unchanged. Reads go straight to the flat slice (via `Deref`); only the
//! two mutating accessors below exist, and both mark before they hand out
//! a writable view.

use std::cell::RefCell;
use std::ops::{Deref, Range};

/// Granularity of the dirty map, in bytes.
const BLOCK: usize = 4096;

/// Most buffers one thread keeps for reuse: a campaign worker holds one
/// machine at a time (RAM plus three devices), a few tests hold two.
const POOL_BUFFERS: usize = 8;

/// Most bytes one thread keeps for reuse.
const POOL_BYTES: usize = 128 << 20;

/// A parked buffer: all-zero data and an all-clear dirty map.
type Parked = (Vec<u8>, Vec<u64>);

thread_local! {
    static POOL: RefCell<Vec<Parked>> = const { RefCell::new(Vec::new()) };
}

/// A zero-initialised byte buffer whose memory is recycled on drop.
pub(crate) struct ZeroedBuf {
    data: Vec<u8>,
    /// One bit per [`BLOCK`]: set once any byte of the block was written.
    dirty: Vec<u64>,
}

impl ZeroedBuf {
    /// An all-zero buffer of `len` bytes, recycled from this thread's pool
    /// when one of exactly that length is parked there.
    pub(crate) fn new(len: usize) -> Self {
        let parked = POOL
            .try_with(|pool| {
                let mut pool = pool.try_borrow_mut().ok()?;
                let at = pool.iter().position(|(data, _)| data.len() == len)?;
                Some(pool.swap_remove(at))
            })
            .ok()
            .flatten();
        let (data, dirty) = parked
            .unwrap_or_else(|| (vec![0u8; len], vec![0u64; len.div_ceil(BLOCK).div_ceil(64)]));
        ZeroedBuf { data, dirty }
    }

    /// Marks the blocks of `start..start + len` dirty. `start + len` must
    /// not exceed the buffer length.
    fn mark_blocks(&mut self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        for block in start / BLOCK..(start + len - 1) / BLOCK + 1 {
            self.dirty[block / 64] |= 1 << (block % 64);
        }
    }

    /// A writable view of `start..start + len`, whose blocks are marked
    /// dirty first.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds; callers bounds-check first.
    pub(crate) fn dirty_span_mut(&mut self, start: usize, len: usize) -> &mut [u8] {
        self.mark_blocks(start, len);
        &mut self.data[start..start + len]
    }

    /// `copy_within` that marks the destination range dirty first.
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds; callers bounds-check first.
    pub(crate) fn copy_within_marked(&mut self, src: Range<usize>, dst: usize) {
        self.mark_blocks(dst, src.len());
        self.data.copy_within(src, dst);
    }

    /// Zeroes every dirty block and clears the dirty map, restoring the
    /// all-zero state a pooled buffer must have.
    fn scrub(&mut self) {
        let len = self.data.len();
        for (word_index, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let block = word_index * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let start = block * BLOCK;
                self.data[start..(start + BLOCK).min(len)].fill(0);
            }
        }
    }
}

impl Deref for ZeroedBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl Drop for ZeroedBuf {
    fn drop(&mut self) {
        let len = self.data.len();
        // A thread that is exiting (pool already destroyed) or a pool that
        // is full simply frees the buffer; only a buffer that will be
        // parked is scrubbed.
        let _ = POOL.try_with(|pool| {
            let Ok(mut pool) = pool.try_borrow_mut() else {
                return;
            };
            let parked_bytes: usize = pool.iter().map(|(data, _)| data.len()).sum();
            if len == 0 || pool.len() >= POOL_BUFFERS || parked_bytes + len > POOL_BYTES {
                return;
            }
            self.scrub();
            pool.push((
                std::mem::take(&mut self.data),
                std::mem::take(&mut self.dirty),
            ));
        });
    }
}

/// Empties this thread's pool, so a test that checks recycling starts from
/// a known state even if an earlier test ran on the same thread.
#[cfg(test)]
pub(crate) fn empty_pool() {
    POOL.with(|pool| pool.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_zero(buf: &ZeroedBuf) -> bool {
        buf.iter().all(|&b| b == 0)
    }

    #[test]
    fn recycles_an_exact_length_buffer_all_zero() {
        empty_pool();
        let mut buf = ZeroedBuf::new(3 * BLOCK);
        buf.dirty_span_mut(BLOCK - 2, 4).fill(0xaa);
        let ptr = buf.as_ptr();
        drop(buf);
        let again = ZeroedBuf::new(3 * BLOCK);
        assert_eq!(again.as_ptr(), ptr, "same-length buffer must be recycled");
        assert!(all_zero(&again));
        assert!(again.dirty.iter().all(|&w| w == 0));
    }

    #[test]
    fn other_lengths_are_not_recycled() {
        let buf = ZeroedBuf::new(2 * BLOCK);
        drop(buf);
        let other = ZeroedBuf::new(BLOCK);
        assert_eq!(other.len(), BLOCK);
        assert!(all_zero(&other));
    }

    #[test]
    fn copy_marks_the_destination_only() {
        let mut buf = ZeroedBuf::new(4 * BLOCK);
        buf.dirty_span_mut(0, 8).fill(7);
        buf.copy_within_marked(0..BLOCK, 2 * BLOCK);
        assert_eq!(buf.dirty[0], 0b101);
        assert_eq!(buf[2 * BLOCK], 7);
    }

    #[test]
    fn zero_length_spans_mark_nothing() {
        let mut buf = ZeroedBuf::new(BLOCK);
        assert!(buf.dirty_span_mut(BLOCK, 0).is_empty());
        assert_eq!(buf.dirty[0], 0);
    }

    #[test]
    fn pool_is_bounded() {
        empty_pool();
        let bufs: Vec<ZeroedBuf> = (0..POOL_BUFFERS + 3).map(|_| ZeroedBuf::new(64)).collect();
        drop(bufs);
        POOL.with(|pool| assert_eq!(pool.borrow().len(), POOL_BUFFERS));
    }
}
