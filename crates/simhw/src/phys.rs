//! Simulated physical memory.
//!
//! A flat, byte-addressable array of RAM divided into 4 KiB frames. All
//! kernel structures that the crash kernel must later parse are serialized
//! into this memory, so corrupting a byte here corrupts the "real" system
//! state, exactly as a wild write on hardware would.

use crate::zeroed::ZeroedBuf;
use std::fmt;

/// Size of one physical page frame in bytes.
pub const PAGE_SIZE: usize = 4096;

/// A physical memory address (byte offset into RAM).
pub type PhysAddr = u64;

/// Errors raised by physical memory accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Access extended past the end of installed physical memory.
    OutOfRange {
        /// Start address of the offending access.
        addr: PhysAddr,
        /// Length of the offending access in bytes.
        len: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, len } => {
                write!(f, "physical access out of range: {addr:#x}+{len}")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Simulated physical RAM.
///
/// All multi-byte accessors use little-endian byte order, matching the x86
/// machines the paper evaluates on.
pub struct PhysMem {
    bytes: ZeroedBuf,
}

impl PhysMem {
    /// Creates `frames` frames of zeroed physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `frames == 0`.
    pub fn new(frames: usize) -> Self {
        // ow-lint: allow(recovery-panic) -- documented # Panics contract: machine-geometry precondition at construction
        assert!(frames > 0, "machine needs at least one frame of RAM");
        PhysMem {
            bytes: ZeroedBuf::new(frames * PAGE_SIZE),
        }
    }

    /// Total installed memory in bytes.
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Number of installed physical frames.
    pub fn frames(&self) -> u64 {
        (self.bytes.len() / PAGE_SIZE) as u64
    }

    fn check(&self, addr: PhysAddr, len: usize) -> Result<usize, MemError> {
        let start = addr as usize;
        let end = start
            .checked_add(len)
            .ok_or(MemError::OutOfRange { addr, len })?;
        if end > self.bytes.len() {
            return Err(MemError::OutOfRange { addr, len });
        }
        Ok(start)
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let start = self.check(addr, buf.len())?;
        buf.copy_from_slice(&self.bytes[start..start + buf.len()]);
        Ok(())
    }

    /// Writes `buf` starting at `addr`.
    pub fn write(&mut self, addr: PhysAddr, buf: &[u8]) -> Result<(), MemError> {
        let start = self.check(addr, buf.len())?;
        self.bytes
            .dirty_span_mut(start, buf.len())
            .copy_from_slice(buf);
        Ok(())
    }

    /// Returns a read-only view of `len` bytes at `addr`.
    pub fn slice(&self, addr: PhysAddr, len: usize) -> Result<&[u8], MemError> {
        let start = self.check(addr, len)?;
        Ok(&self.bytes[start..start + len])
    }

    /// Returns a mutable view of `len` bytes at `addr`.
    pub fn slice_mut(&mut self, addr: PhysAddr, len: usize) -> Result<&mut [u8], MemError> {
        let start = self.check(addr, len)?;
        Ok(self.bytes.dirty_span_mut(start, len))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: PhysAddr) -> Result<u8, MemError> {
        let start = self.check(addr, 1)?;
        Ok(self.bytes[start])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: PhysAddr, v: u8) -> Result<(), MemError> {
        let start = self.check(addr, 1)?;
        self.bytes.dirty_span_mut(start, 1)[0] = v;
        Ok(())
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: PhysAddr) -> Result<u16, MemError> {
        let mut b = [0u8; 2];
        self.read(addr, &mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: PhysAddr, v: u16) -> Result<(), MemError> {
        let start = self.check(addr, 2)?;
        self.bytes
            .dirty_span_mut(start, 2)
            .copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: PhysAddr) -> Result<u32, MemError> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: PhysAddr, v: u32) -> Result<(), MemError> {
        let start = self.check(addr, 4)?;
        self.bytes
            .dirty_span_mut(start, 4)
            .copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: PhysAddr) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: PhysAddr, v: u64) -> Result<(), MemError> {
        let start = self.check(addr, 8)?;
        self.bytes
            .dirty_span_mut(start, 8)
            .copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Zeroes an entire frame.
    pub fn zero_frame(&mut self, pfn: u64) -> Result<(), MemError> {
        let addr = pfn * PAGE_SIZE as u64;
        let start = self.check(addr, PAGE_SIZE)?;
        self.bytes.dirty_span_mut(start, PAGE_SIZE).fill(0);
        Ok(())
    }

    /// Copies a whole frame from `src_pfn` to `dst_pfn`.
    pub fn copy_frame(&mut self, src_pfn: u64, dst_pfn: u64) -> Result<(), MemError> {
        let src = self.check(src_pfn * PAGE_SIZE as u64, PAGE_SIZE)?;
        let dst = self.check(dst_pfn * PAGE_SIZE as u64, PAGE_SIZE)?;
        self.bytes.copy_within_marked(src..src + PAGE_SIZE, dst);
        Ok(())
    }

    /// Flips bits at `addr` with the given XOR mask — the fault injector's
    /// "wild write" primitive. Out-of-range corruption is silently dropped
    /// (a wild write beyond installed RAM faults on real hardware too).
    pub fn corrupt_u64(&mut self, addr: PhysAddr, xor_mask: u64) {
        if let Ok(v) = self.read_u64(addr) {
            let _ = self.write_u64(addr, v ^ xor_mask);
        }
    }
}

impl fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysMem")
            .field("frames", &self.frames())
            .field("bytes", &self.size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_widths() {
        let mut m = PhysMem::new(2);
        m.write_u8(0, 0xab).unwrap();
        m.write_u16(8, 0xbeef).unwrap();
        m.write_u32(16, 0xdead_beef).unwrap();
        m.write_u64(24, 0x0123_4567_89ab_cdef).unwrap();
        assert_eq!(m.read_u8(0).unwrap(), 0xab);
        assert_eq!(m.read_u16(8).unwrap(), 0xbeef);
        assert_eq!(m.read_u32(16).unwrap(), 0xdead_beef);
        assert_eq!(m.read_u64(24).unwrap(), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = PhysMem::new(1);
        m.write_u32(0, 0x0102_0304).unwrap();
        assert_eq!(m.read_u8(0).unwrap(), 0x04);
        assert_eq!(m.read_u8(3).unwrap(), 0x01);
    }

    #[test]
    fn rejects_out_of_range() {
        let m = PhysMem::new(1);
        assert!(matches!(
            m.read_u64(PAGE_SIZE as u64 - 4),
            Err(MemError::OutOfRange { .. })
        ));
        assert!(m.read_u8(PAGE_SIZE as u64 - 1).is_ok());
    }

    #[test]
    fn rejects_wraparound() {
        let m = PhysMem::new(1);
        assert!(m.slice(u64::MAX, 16).is_err());
    }

    #[test]
    fn frame_copy_and_zero() {
        let mut m = PhysMem::new(3);
        m.write_u64(PAGE_SIZE as u64, 42).unwrap();
        m.copy_frame(1, 2).unwrap();
        assert_eq!(m.read_u64(2 * PAGE_SIZE as u64).unwrap(), 42);
        m.zero_frame(2).unwrap();
        assert_eq!(m.read_u64(2 * PAGE_SIZE as u64).unwrap(), 0);
    }

    /// Each mutator dirties its own block of a fresh memory; after a drop,
    /// the next memory of the same size must reuse the buffer and read all
    /// zero. A mutator that forgot to mark its block would leave it dirty.
    #[test]
    fn recycled_memory_is_zero_after_every_mutator() {
        const P: u64 = PAGE_SIZE as u64;
        let mutators: [(&str, fn(&mut PhysMem)); 10] = [
            ("write across a block boundary", |m| {
                m.write(2 * P - 3, &[0xa5; 7]).unwrap()
            }),
            ("write_u8", |m| m.write_u8(3 * P + 5, 0x5a).unwrap()),
            ("write_u16 across a boundary", |m| {
                m.write_u16(2 * P - 1, 0xbeef).unwrap()
            }),
            ("write_u32", |m| m.write_u32(P + 12, 0xdead_beef).unwrap()),
            ("write_u64 across a boundary", |m| {
                m.write_u64(3 * P - 4, u64::MAX).unwrap()
            }),
            ("slice_mut", |m| {
                m.slice_mut(P + 100, 50).unwrap().fill(0x11)
            }),
            ("zero_frame after a write", |m| {
                m.write_u64(P, 1).unwrap();
                m.zero_frame(1).unwrap();
                m.write_u64(P + 8, 2).unwrap();
            }),
            ("copy_frame destination", |m| {
                m.write_u64(0, 0x77).unwrap();
                m.copy_frame(0, 3).unwrap();
                // Clear the source through the marked path so only the
                // destination's mark is under test.
                m.zero_frame(0).unwrap();
            }),
            ("corrupt_u64", |m| m.corrupt_u64(2 * P + 64, 0xf0f0)),
            ("corrupt_u64 across a boundary", |m| {
                m.corrupt_u64(P - 2, u64::MAX)
            }),
        ];
        for (what, mutate) in mutators {
            crate::zeroed::empty_pool();
            let mut m = PhysMem::new(4);
            let ptr = m.slice(0, 1).unwrap().as_ptr();
            mutate(&mut m);
            assert!(
                m.slice(0, 4 * PAGE_SIZE).unwrap().iter().any(|&b| b != 0),
                "{what}: the mutator must leave a mark"
            );
            drop(m);
            let m = PhysMem::new(4);
            assert_eq!(m.slice(0, 1).unwrap().as_ptr(), ptr, "{what}: recycled");
            assert!(
                m.slice(0, 4 * PAGE_SIZE).unwrap().iter().all(|&b| b == 0),
                "{what}: recycled memory must read all zero"
            );
        }
    }

    #[test]
    fn corruption_flips_bits() {
        let mut m = PhysMem::new(1);
        m.write_u64(0, 0xff).unwrap();
        m.corrupt_u64(0, 0x0f);
        assert_eq!(m.read_u64(0).unwrap(), 0xf0);
        // Out-of-range corruption is a no-op, not a panic.
        m.corrupt_u64(u64::MAX - 3, 0xff);
    }
}
