//! Simulated per-node address spaces.
//!
//! On the real SP, LAPI operations name raw virtual addresses in the target
//! process. Our nodes are threads of one host process, so raw pointers would
//! neither be safe nor faithful (every thread could touch every "remote"
//! address directly). Instead each node owns an [`AddressSpace`] — a
//! segmented, zero-on-demand byte arena whose addresses never move — and
//! remote memory is named by [`Addr`] handles into the *target's* arena.
//! Exactly like real addresses, an `Addr` is only meaningful on the node it
//! was allocated on, and programs exchange them with `LAPI_Address_init`
//! before use.
//!
//! ## `Addr` layout
//!
//! ```text
//!  63            40 39                                   0
//! +----------------+--------------------------------------+
//! | segment index  | byte offset within the segment       |
//! +----------------+--------------------------------------+
//! ```
//!
//! A segment is one zeroed host allocation that is never resized, moved or
//! cleared again, so the host maps the pages of a large reservation only
//! when something touches them: memory nobody touches costs nothing.
//! Allocations of 64 KiB and more get a segment of exactly their size;
//! smaller ones share small segments that start at 4 KiB and double up to
//! 64 KiB. The first allocation of a space is always `Addr(0)`.

use std::fmt;

/// Bit position of the segment index within an [`Addr`].
const SEG_SHIFT: u32 = 40;
/// Mask of the byte-offset field of an [`Addr`].
const OFF_MASK: u64 = (1 << SEG_SHIFT) - 1;
/// Allocations at least this long get a segment of their own; it is also the
/// size small segments stop doubling at.
const LARGE: usize = 64 << 10;
/// Size of a space's first small segment. Small because below glibc's
/// 128 KiB mmap threshold `calloc` clears what it returns: a node that
/// allocates a few hundred bytes should not pay for `LARGE` of them.
const FIRST_SMALL: usize = 4 << 10;

/// An address within some node's [`AddressSpace`]: a segment index in bits
/// 40 and up, a byte offset within that segment below (see the module docs).
///
/// Plain data: addresses travel inside message headers, exactly like the
/// 64-bit virtual addresses in real LAPI packets.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Address `off` bytes past `self`, within the same segment: stepping
    /// out of the offset field is a wild address, not a neighbouring
    /// segment, and panics.
    #[inline]
    pub fn offset(self, off: usize) -> Addr {
        let within = (self.0 & OFF_MASK).checked_add(off as u64);
        assert!(
            within.is_some_and(|o| o <= OFF_MASK),
            "out-of-bounds access: {self:?}+{off} leaves its segment"
        );
        Addr(self.0 + off as u64)
    }

    /// Segment index and byte offset within it.
    #[inline]
    fn split(self) -> (usize, usize) {
        ((self.0 >> SEG_SHIFT) as usize, (self.0 & OFF_MASK) as usize)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// One zeroed host allocation; `mem` is never resized, so addresses into it
/// stay valid for the life of the space.
#[derive(Debug)]
struct Segment {
    mem: Box<[u8]>,
    /// Bytes handed out so far; accesses past it are out of bounds.
    brk: usize,
}

impl Segment {
    /// Whether `start..start + len` lies inside what has been handed out.
    #[inline]
    fn holds(&self, start: usize, len: usize) -> bool {
        start.checked_add(len).is_some_and(|end| end <= self.brk)
    }
}

/// A node's memory: a table of zero-on-demand segments with a bump
/// allocator (layout in the module docs).
///
/// All bounds violations panic — they correspond to wild stores through a
/// bad address in the real system, which is a program bug, not a
/// recoverable condition.
#[derive(Debug, Default)]
pub struct AddressSpace {
    segs: Vec<Segment>,
    /// Index of the small segment currently being bumped, once one exists.
    small: Option<usize>,
    /// Sum of the lengths requested from [`AddressSpace::alloc`].
    allocated: usize,
}

#[cold]
fn out_of_bounds(addr: Addr, len: usize, brk: usize) -> ! {
    let (seg, _) = addr.split();
    panic!(
        "out-of-bounds access: {addr:?}+{len} exceeds the {brk} bytes allocated in segment {seg}"
    )
}

impl AddressSpace {
    /// An empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate `len` bytes, 8-byte aligned, zero-initialized.
    pub fn alloc(&mut self, len: usize) -> Addr {
        self.allocated += len;
        if len >= LARGE {
            return self.push_segment(len, len);
        }
        let mut next_size = FIRST_SMALL;
        if let Some(i) = self.small {
            let seg = &mut self.segs[i];
            let start = (seg.brk + 7) & !7;
            if start + len <= seg.mem.len() {
                seg.brk = start + len;
                return Addr((i as u64) << SEG_SHIFT).offset(start);
            }
            next_size = (seg.mem.len() * 2).min(LARGE);
        }
        self.small = Some(self.segs.len());
        self.push_segment(next_size.max(len.next_power_of_two()), len)
    }

    /// Append a zeroed segment of `size` bytes with its first `brk` handed
    /// out, and return its base address.
    fn push_segment(&mut self, size: usize, brk: usize) -> Addr {
        let idx = self.segs.len() as u64;
        assert!(
            size as u64 <= OFF_MASK && idx <= u64::MAX >> SEG_SHIFT,
            "address space exhausted: segment {idx} of {size} bytes"
        );
        self.segs.push(Segment {
            mem: vec![0u8; size].into_boxed_slice(),
            brk,
        });
        Addr(idx << SEG_SHIFT)
    }

    /// Bytes currently allocated: the sum of the lengths requested.
    pub fn allocated(&self) -> usize {
        self.allocated
    }

    /// Read `len` bytes starting at `addr`.
    pub fn read(&self, addr: Addr, len: usize) -> &[u8] {
        let (seg, start) = addr.split();
        match self.segs.get(seg) {
            Some(s) if s.holds(start, len) => &s.mem[start..start + len],
            other => out_of_bounds(addr, len, other.map_or(0, |s| s.brk)),
        }
    }

    /// The `len` writable bytes starting at `addr`.
    fn slice_mut(&mut self, addr: Addr, len: usize) -> &mut [u8] {
        let (seg, start) = addr.split();
        match self.segs.get_mut(seg) {
            Some(s) if s.holds(start, len) => &mut s.mem[start..start + len],
            other => out_of_bounds(addr, len, other.map_or(0, |s| s.brk)),
        }
    }

    /// Copy bytes into `out` starting from `addr`.
    pub fn read_into(&self, addr: Addr, out: &mut [u8]) {
        out.copy_from_slice(self.read(addr, out.len()));
    }

    /// Write `data` starting at `addr`.
    pub fn write(&mut self, addr: Addr, data: &[u8]) {
        self.slice_mut(addr, data.len()).copy_from_slice(data);
    }

    /// Read one little-endian u64 cell.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read_into(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write one little-endian u64 cell.
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Read `n` f64 values starting at `addr`.
    pub fn read_f64s(&self, addr: Addr, n: usize) -> Vec<f64> {
        self.read(addr, n * 8)
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect()
    }

    /// Write f64 values starting at `addr`.
    pub fn write_f64s(&mut self, addr: Addr, vals: &[f64]) {
        let cells = self.slice_mut(addr, vals.len() * 8).chunks_exact_mut(8);
        for (cell, v) in cells.zip(vals) {
            cell.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Apply a read-modify-write on the u64 cell at `addr`, returning the
    /// previous value. Callers must hold the arena lock for atomicity (the
    /// engine does).
    pub fn rmw_u64(&mut self, addr: Addr, f: impl FnOnce(u64) -> u64) -> u64 {
        let cell = self.slice_mut(addr, 8);
        let prev = u64::from_le_bytes((&*cell).try_into().expect("8-byte cell"));
        cell.copy_from_slice(&f(prev).to_le_bytes());
        prev
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn alloc_is_aligned_and_zeroed() {
        let mut a = AddressSpace::new();
        let p = a.alloc(3);
        let q = a.alloc(8);
        assert_eq!(p.0 % 8, 0);
        assert_eq!(q.0 % 8, 0);
        assert!(q.0 >= p.0 + 3);
        assert_eq!(a.read(q, 8), &[0u8; 8]);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut a = AddressSpace::new();
        let p = a.alloc(16);
        a.write(p, b"hello world!!!!!");
        assert_eq!(a.read(p, 5), b"hello");
        assert_eq!(a.read(p.offset(6), 5), b"world");
    }

    #[test]
    fn u64_cells() {
        let mut a = AddressSpace::new();
        let p = a.alloc(8);
        a.write_u64(p, 0xdead_beef);
        assert_eq!(a.read_u64(p), 0xdead_beef);
        let prev = a.rmw_u64(p, |v| v + 1);
        assert_eq!(prev, 0xdead_beef);
        assert_eq!(a.read_u64(p), 0xdead_bef0);
    }

    #[test]
    fn f64_roundtrip() {
        let mut a = AddressSpace::new();
        let p = a.alloc(4 * 8);
        a.write_f64s(p, &[1.5, -2.5, 3.25, 0.0]);
        assert_eq!(a.read_f64s(p, 4), vec![1.5, -2.5, 3.25, 0.0]);
        assert_eq!(a.read_f64s(p.offset(8), 2), vec![-2.5, 3.25]);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds")]
    fn oob_read_panics() {
        let mut a = AddressSpace::new();
        let p = a.alloc(8);
        let _ = a.read(p, 9);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds")]
    fn unallocated_access_panics() {
        let a = AddressSpace::new();
        let _ = a.read(Addr(0), 1);
    }

    #[test]
    fn grows_on_demand() {
        let mut a = AddressSpace::new();
        let p = a.alloc(10_000);
        let q = a.alloc(100_000);
        a.write(p, &vec![7u8; 10_000]);
        a.write(q, &vec![9u8; 100_000]);
        assert_eq!(a.read(q, 3), &[9, 9, 9]);
        assert_eq!(a.read(p, 10_000), &vec![7u8; 10_000][..]);
    }

    #[test]
    fn first_allocation_is_address_zero() {
        assert_eq!(AddressSpace::new().alloc(8), Addr(0));
        assert_eq!(AddressSpace::new().alloc(LARGE), Addr(0));
    }

    #[test]
    fn allocated_is_the_sum_of_requested_lengths() {
        let mut a = AddressSpace::new();
        let lens = [3, 0, 8, 4097, LARGE - 1, LARGE, 5, 3 * LARGE + 1];
        for len in lens {
            a.alloc(len);
        }
        assert_eq!(a.allocated(), lens.iter().sum::<usize>());
    }

    #[test]
    fn fresh_allocations_read_zero_after_neighbours_were_written() {
        let mut a = AddressSpace::new();
        for len in [24, 5000, LARGE, 100, 2 * LARGE, 40_000, 8] {
            let p = a.alloc(len);
            assert!(a.read(p, len).iter().all(|&b| b == 0), "{len} at {p:?}");
            a.write(p, &vec![0xAB; len]);
        }
    }

    #[test]
    fn large_allocation_does_not_move_or_disturb_earlier_data() {
        let mut a = AddressSpace::new();
        let p = a.alloc(100);
        let big_early = a.alloc(LARGE);
        a.write(p, &[5u8; 100]);
        a.write(big_early.offset(LARGE - 4), &[6u8; 4]);
        let q = a.alloc(8 << 20);
        assert_eq!(a.read(p, 100), &[5u8; 100]);
        assert_eq!(a.read(big_early.offset(LARGE - 4), 4), &[6u8; 4]);
        assert_eq!(a.read(q.offset((8 << 20) - 8), 8), &[0u8; 8]);
        a.write(q.offset((8 << 20) - 8), &[7u8; 8]);
        assert_eq!(a.read(p, 100), &[5u8; 100]);
    }

    #[test]
    fn small_segments_double_up_to_the_large_threshold() {
        let mut a = AddressSpace::new();
        let sizes = |a: &AddressSpace| a.segs.iter().map(|s| s.mem.len()).collect::<Vec<_>>();
        for _ in 0..(4096 + 8192) / 8 + 1 {
            a.alloc(8);
        }
        assert_eq!(sizes(&a), [4096, 8192, 16384]);
        // One that fits no doubling step gets the power of two that holds it.
        a.alloc(LARGE - 8);
        assert_eq!(sizes(&a), [4096, 8192, 16384, LARGE]);
        // ...and the cap holds from then on.
        a.alloc(16);
        assert_eq!(sizes(&a), [4096, 8192, 16384, LARGE, LARGE]);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds access")]
    fn access_straddling_two_segments_panics() {
        let mut a = AddressSpace::new();
        let p = a.alloc(LARGE);
        let _q = a.alloc(LARGE);
        let _ = a.read(p.offset(LARGE - 4), 8);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds access")]
    fn raw_arithmetic_past_a_segment_does_not_reach_the_next() {
        let mut a = AddressSpace::new();
        let p = a.alloc(LARGE);
        let _q = a.alloc(LARGE);
        a.write(Addr(p.0 + LARGE as u64), &[1]);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds access")]
    fn segment_past_the_table_panics() {
        let mut a = AddressSpace::new();
        a.alloc(8);
        let _ = a.read(Addr(1 << SEG_SHIFT), 0);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds access")]
    fn access_past_a_small_segments_break_panics() {
        let mut a = AddressSpace::new();
        let p = a.alloc(8);
        // Inside the 4 KiB segment's storage, beyond what it has handed out.
        a.write_u64(p.offset(8), 1);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds access")]
    fn max_address_panics() {
        let mut a = AddressSpace::new();
        a.alloc(8);
        let _ = a.rmw_u64(Addr(u64::MAX), |v| v);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds access")]
    fn offset_does_not_carry_into_the_segment_field() {
        let _ = Addr(OFF_MASK).offset(1);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds access")]
    fn offset_overflow_panics() {
        let _ = Addr(u64::MAX).offset(usize::MAX);
    }

    /// Length of the `k`th allocation class: tiny, sub-page, either side of
    /// the large threshold, and large. Never zero: empty allocations share
    /// an address, which a model keyed by address cannot tell apart.
    fn class_len(class: usize, x: usize) -> usize {
        match class % 4 {
            0 => 1 + x % 64,
            1 => 1 + x % 5000,
            2 => LARGE - 20_000 + x % 40_000,
            _ => LARGE + x % 200_000,
        }
    }

    proptest! {
        #[test]
        fn random_sequences_match_a_per_allocation_model(
            ops in proptest::collection::vec((0usize..5, 0usize..1 << 20, 0usize..1 << 20, 0u64..u64::MAX), 1..60)
        ) {
            let mut a = AddressSpace::new();
            let mut model: HashMap<Addr, Vec<u8>> = HashMap::new();
            let mut order: Vec<Addr> = Vec::new();
            let mut requested = 0usize;
            for (kind, x, y, v) in ops {
                if kind == 0 || order.is_empty() {
                    let len = class_len(x, y);
                    let p = a.alloc(len);
                    requested += len;
                    prop_assert_eq!(p.0 % 8, 0);
                    prop_assert!(a.read(p, len).iter().all(|&b| b == 0), "fresh {len} at {p:?} not zero");
                    prop_assert!(model.insert(p, vec![0; len]).is_none(), "{p:?} handed out twice");
                    order.push(p);
                    continue;
                }
                let p = order[x % order.len()];
                let shadow = model.get_mut(&p).expect("allocated above");
                match kind {
                    1 | 2 if !shadow.is_empty() => {
                        let off = y % shadow.len();
                        let n = (v as usize % 300).min(shadow.len() - off);
                        let data: Vec<u8> = (0..n).map(|i| (v as usize + i) as u8).collect();
                        a.write(p.offset(off), &data);
                        shadow[off..off + n].copy_from_slice(&data);
                    }
                    3 if shadow.len() >= 8 => {
                        let off = y % (shadow.len() - 7);
                        let cell: [u8; 8] = shadow[off..off + 8].try_into().expect("8 bytes");
                        let prev = a.rmw_u64(p.offset(off), |old| old.wrapping_add(v));
                        prop_assert_eq!(prev, u64::from_le_bytes(cell));
                        shadow[off..off + 8].copy_from_slice(&prev.wrapping_add(v).to_le_bytes());
                    }
                    _ => prop_assert_eq!(a.read(p, shadow.len()), &shadow[..]),
                }
            }
            prop_assert_eq!(a.allocated(), requested);
            for (p, shadow) in &model {
                prop_assert_eq!(a.read(*p, shadow.len()), &shadow[..], "allocation at {p:?}");
            }
        }
    }
}
