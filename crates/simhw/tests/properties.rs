//! Property-based tests for the hardware substrate, driven by the vendored
//! [`SimRng`] instead of proptest so they run fully offline.
//!
//! Gated behind the off-by-default `heavy-tests` feature: these are the
//! many-cases sweeps, kept out of `cargo test --workspace`. The tier-1
//! offline gate (`ci.sh`) runs them on their own
//! (`cargo test -p ow-simhw --features heavy-tests`, a few seconds).
#![cfg(feature = "heavy-tests")]

use ow_simhw::{
    paging::{PageFault, VA_LIMIT},
    AccessKind, AddressSpace, BlockDevice, Clock, CostModel, FrameAllocator, Mmu, PhysMem, Pte,
    PteFlags, SimRng, KERNEL_ASID, PAGE_SIZE,
};
use std::collections::{HashMap, HashSet};

const CASES: u64 = 64;

/// PTE pack/unpack is lossless for any frame number and flag set.
#[test]
fn pte_round_trip() {
    let mut rng = SimRng::seed_from_u64(0x907e_0001);
    for _ in 0..CASES * 4 {
        let pfn = rng.gen_range(0u64..(1 << 40));
        let flags = rng.gen_range(0u64..0x80);
        let pte = Pte::new(pfn, PteFlags::from_bits(flags));
        assert_eq!(pte.pfn(), pfn);
        assert_eq!(pte.flags().bits(), flags);
    }
}

/// Every allocated frame is unique and within range; freeing makes the
/// allocator reach its full capacity again.
#[test]
fn frame_allocator_never_double_allocates() {
    let mut rng = SimRng::seed_from_u64(0x907e_0002);
    for _ in 0..CASES {
        let base = rng.gen_range(0u64..100);
        let count = rng.gen_range(1usize..64);
        let nops = rng.gen_range(0usize..200);
        let mut fa = FrameAllocator::new(base, count);
        let mut live: Vec<u64> = Vec::new();
        let mut seen = HashSet::new();
        for _ in 0..nops {
            if rng.gen_bool(0.5) && !live.is_empty() {
                let f = live.pop().unwrap();
                fa.free(f);
                seen.remove(&f);
            } else if let Some(f) = fa.alloc() {
                assert!(fa.contains(f), "frame in range");
                assert!(seen.insert(f), "frame {f} double-allocated");
                live.push(f);
            }
        }
        assert_eq!(fa.allocated_frames(), live.len());
        for f in live.drain(..) {
            fa.free(f);
        }
        // Full capacity is reusable.
        for _ in 0..count {
            assert!(fa.alloc().is_some());
        }
        assert!(fa.alloc().is_none());
    }
}

/// The page-table walk agrees with a software map oracle under random
/// map/unmap sequences.
#[test]
fn page_walk_matches_oracle() {
    let mut rng = SimRng::seed_from_u64(0x907e_0003);
    for _ in 0..CASES {
        let mut phys = PhysMem::new(512);
        let mut fa = FrameAllocator::new(0, 512);
        let asp = AddressSpace::new(&mut phys, &mut fa).unwrap();
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        let nops = rng.gen_range(1usize..80);
        for _ in 0..nops {
            let page = rng.gen_range(0u64..256);
            let unmap = rng.gen_bool(0.5);
            let pfn = rng.gen_range(1u64..512);
            // Spread pages across both levels of the table.
            let vaddr = (page % 16) * 0x20_0000 + (page / 16) * PAGE_SIZE as u64;
            if unmap {
                asp.unmap(&mut phys, vaddr).unwrap();
                oracle.remove(&vaddr);
            } else if asp
                .map(
                    &mut phys,
                    &mut fa,
                    vaddr,
                    pfn,
                    PteFlags::WRITABLE | PteFlags::USER,
                )
                .is_ok()
            {
                oracle.insert(vaddr, pfn);
            }
        }
        for (vaddr, pfn) in &oracle {
            let pte = asp.walk(&phys, *vaddr).unwrap();
            assert_eq!(pte.pfn(), *pfn);
        }
        // And nothing else is mapped.
        let mut mapped = 0;
        asp.for_each_mapped(&phys, |va, _| {
            assert!(oracle.contains_key(&va), "unexpected mapping at {va:#x}");
            mapped += 1;
        })
        .unwrap();
        assert_eq!(mapped, oracle.len());
    }
}

/// Physical memory behaves like a byte array (random read/write oracle).
#[test]
fn phys_mem_matches_byte_oracle() {
    let mut rng = SimRng::seed_from_u64(0x907e_0004);
    for _ in 0..CASES {
        let mut phys = PhysMem::new(2);
        let mut oracle = vec![0u8; 8192];
        let nwrites = rng.gen_range(0usize..200);
        for _ in 0..nwrites {
            let addr = rng.gen_range(0usize..8192);
            let v = rng.gen_range(0u32..256) as u8;
            phys.write_u8(addr as u64, v).unwrap();
            oracle[addr] = v;
        }
        let mut got = vec![0u8; 8192];
        phys.read(0, &mut got).unwrap();
        assert_eq!(got, oracle);
    }
}

/// The tagged TLB never serves a stale translation: on random traces of
/// map/unmap/remap (followed by the kernel's ranged-invalidation rule),
/// small-capacity ASID rollovers, and protected-style kernel enter/exit tag
/// switches, every translation through a tagged [`Mmu`] agrees exactly with
/// a flush-always oracle MMU that re-walks the page tables on every access.
#[test]
fn tagged_translation_matches_flush_always_oracle() {
    let mut rng = SimRng::seed_from_u64(0x907e_0006);
    let cost = CostModel::default();
    for case in 0..CASES {
        let mut phys = PhysMem::new(512);
        let mut fa = FrameAllocator::new(0, 512);
        // Capacity 3 = two allocatable user tags for three spaces, so the
        // round-robin below keeps recycling generations.
        let mut tagged = Mmu::with_asid_capacity(16, 3);
        let mut oracle = Mmu::new(16);
        let mut tclock = Clock::new();
        let mut oclock = Clock::new();
        let spaces: Vec<AddressSpace> = (0..3)
            .map(|_| AddressSpace::new(&mut phys, &mut fa).unwrap())
            .collect();
        let vaddr_of = |page: u64| (page % 8) * 0x20_0000 + (page / 8) * PAGE_SIZE as u64;
        let nops = rng.gen_range(40usize..120);
        for _ in 0..nops {
            let asp = spaces[rng.gen_range(0usize..spaces.len())];
            let page = rng.gen_range(0u64..24);
            let vaddr = vaddr_of(page);
            match rng.gen_range(0u32..8) {
                // Map or remap, then apply the ranged-invalidation rule the
                // kernel follows after any PTE rewrite.
                0 | 1 | 2 => {
                    let pfn = rng.gen_range(1u64..512);
                    let mut flags = PteFlags::USER;
                    if rng.gen_bool(0.75) {
                        flags |= PteFlags::WRITABLE;
                    }
                    if asp.pte(&phys, vaddr).unwrap().is_some() {
                        asp.unmap(&mut phys, vaddr).unwrap();
                    }
                    if asp.map(&mut phys, &mut fa, vaddr, pfn, flags).is_ok() {
                        tagged.invalidate_range(
                            &mut tclock,
                            &cost,
                            asp.root(),
                            vaddr,
                            PAGE_SIZE as u64,
                        );
                    }
                }
                // Unmap + invalidate.
                3 => {
                    asp.unmap(&mut phys, vaddr).unwrap();
                    tagged.invalidate_range(
                        &mut tclock,
                        &cost,
                        asp.root(),
                        vaddr,
                        PAGE_SIZE as u64,
                    );
                }
                // A protected-mode kernel excursion: tag switch to the
                // kernel-only set, kernel working set competes for slots,
                // tag switch back. No flush anywhere.
                4 => {
                    tagged.switch_asid(&mut tclock, &cost, KERNEL_ASID);
                    let pages = rng.gen_range(1u64..8);
                    tagged.touch_kernel(&mut tclock, &cost, VA_LIMIT >> 12, pages);
                    tagged.switch_to_space(&mut tclock, &cost, asp.root());
                }
                // Translate through both MMUs and demand identical results.
                _ => {
                    let kind = if rng.gen_bool(0.5) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    oracle.flush(&mut oclock, &cost);
                    let want = oracle.access(&mut phys, &mut oclock, &cost, asp, vaddr, kind);
                    let got = tagged.access(&mut phys, &mut tclock, &cost, asp, vaddr, kind);
                    assert_eq!(
                        got, want,
                        "case {case}: stale translation at {vaddr:#x} ({kind:?})"
                    );
                }
            }
        }
        assert!(
            tagged.asid_generation() > 0,
            "case {case}: three spaces over two tags must roll the generation"
        );
        assert_eq!(tagged.stats().flushes, tagged.asid_generation());
    }
}

/// Out-of-space virtual addresses always fault, never alias.
#[test]
fn addresses_beyond_va_limit_fault() {
    let mut rng = SimRng::seed_from_u64(0x907e_0005);
    let mut phys = PhysMem::new(16);
    let mut fa = FrameAllocator::new(0, 16);
    let asp = AddressSpace::new(&mut phys, &mut fa).unwrap();
    for _ in 0..CASES * 4 {
        let off = rng.gen_range(0u64..(1 << 33));
        let vaddr = VA_LIMIT + off;
        assert_eq!(asp.walk(&phys, vaddr), Err(PageFault::OutOfSpace(vaddr)));
    }
}

/// Recycled memory is indistinguishable from fresh memory. Random traces of
/// every `PhysMem` mutator (plain and cross-block writes of each width,
/// `slice_mut`, `zero_frame`, `copy_frame`, in-range and out-of-range
/// `corrupt_u64`) run against a plain `Vec<u8>` shadow, with reads checked
/// against it throughout. After the drop, the next memory of the same size
/// reuses the buffer and must read all zero; it then runs the next trace.
#[test]
fn recycled_phys_mem_matches_a_fresh_shadow() {
    let mut rng = SimRng::seed_from_u64(0x907e_0006);
    for case in 0..CASES {
        let frames = rng.gen_range(1usize..9);
        let size = frames * PAGE_SIZE;
        let mut phys = PhysMem::new(frames);
        for round in 0..4 {
            let ptr = phys.slice(0, 1).unwrap().as_ptr();
            let mut shadow = vec![0u8; size];
            let nops = rng.gen_range(1usize..120);
            for _ in 0..nops {
                // Addresses cluster around block boundaries half the time.
                let addr = if rng.gen_bool(0.5) {
                    let edge = rng.gen_range(0..frames) * PAGE_SIZE;
                    (edge + size - 8 + rng.gen_range(0usize..16)) % size
                } else {
                    rng.gen_range(0..size)
                };
                let v = rng.next_u64();
                let width = [1usize, 2, 4, 8][rng.gen_range(0usize..4)];
                let fits = addr + width <= size;
                match rng.gen_range(0u32..9) {
                    0 => {
                        let len = rng.gen_range(0..(size - addr).min(3 * PAGE_SIZE) + 1);
                        let bytes: Vec<u8> = (0..len).map(|i| (v >> (i % 8 * 8)) as u8).collect();
                        phys.write(addr as u64, &bytes).unwrap();
                        shadow[addr..addr + len].copy_from_slice(&bytes);
                    }
                    1 if fits => {
                        let bytes = &v.to_le_bytes()[..width];
                        match width {
                            1 => phys.write_u8(addr as u64, v as u8),
                            2 => phys.write_u16(addr as u64, v as u16),
                            4 => phys.write_u32(addr as u64, v as u32),
                            _ => phys.write_u64(addr as u64, v),
                        }
                        .unwrap();
                        shadow[addr..addr + width].copy_from_slice(bytes);
                    }
                    2 => {
                        let len = rng.gen_range(0..(size - addr).min(2 * PAGE_SIZE) + 1);
                        phys.slice_mut(addr as u64, len).unwrap().fill(v as u8);
                        shadow[addr..addr + len].fill(v as u8);
                    }
                    3 => {
                        let pfn = rng.gen_range(0..frames);
                        phys.zero_frame(pfn as u64).unwrap();
                        shadow[pfn * PAGE_SIZE..(pfn + 1) * PAGE_SIZE].fill(0);
                    }
                    4 => {
                        let (src, dst) = (rng.gen_range(0..frames), rng.gen_range(0..frames));
                        phys.copy_frame(src as u64, dst as u64).unwrap();
                        shadow.copy_within(src * PAGE_SIZE..(src + 1) * PAGE_SIZE, dst * PAGE_SIZE);
                    }
                    5 => {
                        phys.corrupt_u64(addr as u64, v);
                        if addr + 8 <= size {
                            for (i, b) in v.to_le_bytes().iter().enumerate() {
                                shadow[addr + i] ^= b;
                            }
                        }
                    }
                    6 => {
                        // Out-of-range writes fail and change nothing.
                        assert!(phys.write_u64((size - 4) as u64, v).is_err());
                        assert!(phys.write(size as u64, &[1]).is_err());
                    }
                    _ => {
                        let len = rng.gen_range(0..(size - addr).min(64) + 1);
                        assert_eq!(
                            phys.slice(addr as u64, len).unwrap(),
                            &shadow[addr..addr + len],
                            "case {case} round {round}: read at {addr:#x}+{len}"
                        );
                    }
                }
            }
            assert!(
                phys.slice(0, size).unwrap() == &shadow[..],
                "case {case} round {round}: memory diverged from the shadow"
            );
            drop(phys);
            phys = PhysMem::new(frames);
            assert_eq!(phys.slice(0, 1).unwrap().as_ptr(), ptr, "buffer recycled");
            assert!(
                phys.slice(0, size).unwrap().iter().all(|&b| b == 0),
                "case {case} round {round}: recycled memory is not zero"
            );
        }
    }
}

/// The same for block devices, whose sizes need not be a multiple of the
/// 4 KiB block (the last block is partial).
#[test]
fn recycled_block_device_matches_a_fresh_shadow() {
    let mut rng = SimRng::seed_from_u64(0x907e_0007);
    let cost = CostModel::default();
    for case in 0..CASES {
        let size = rng.gen_range(1usize..5 * PAGE_SIZE);
        let mut clock = Clock::new();
        let mut dev = BlockDevice::new(0, "sda", size);
        for round in 0..4 {
            let mut shadow = vec![0u8; size];
            for _ in 0..rng.gen_range(1usize..60) {
                let offset = rng.gen_range(0..size);
                let len = rng.gen_range(0..(size - offset).min(2 * PAGE_SIZE) + 1);
                let byte = rng.gen_range(1u32..256) as u8;
                dev.write_at(&mut clock, &cost, offset as u64, &vec![byte; len])
                    .unwrap();
                shadow[offset..offset + len].fill(byte);
                let mut got = vec![0u8; len];
                dev.read_at(&mut clock, &cost, offset as u64, &mut got)
                    .unwrap();
                assert_eq!(got, &shadow[offset..offset + len]);
            }
            let mut all = vec![0u8; size];
            dev.peek(0, &mut all).unwrap();
            assert_eq!(all, shadow, "case {case} round {round}: device diverged");
            drop(dev);
            dev = BlockDevice::new(0, "sda", size);
            dev.peek(0, &mut all).unwrap();
            assert!(
                all.iter().all(|&b| b == 0),
                "case {case} round {round}: recycled device is not zero"
            );
        }
    }
}
