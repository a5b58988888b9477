//! Sparse flat backing store holding all architectural data.
//!
//! The store is data-oriented: page payloads live in one append-only arena
//! (`Vec<Box<Page>>`) and a `HashMap` maps page id → arena slot. Hot
//! accessors go word-at-a-time through a small cache of recently resolved
//! `(page id, slot)` pairs, so sequential and strided traffic resolves its
//! page with a short associative probe instead of a hash lookup, and a
//! `read_u32` is one slice read instead of four byte reads. The recency
//! cache deliberately does **not** reorder on hit: entries are replaced
//! round-robin, so a steady working set of up to [`MRU_SLOTS`] pages probes
//! with pure loads and never writes. Accesses that straddle a page boundary
//! fall back to the byte-at-a-time reference path (`read_u8`/`write_u8`),
//! which is the semantic ground truth the property tests compare against.

use remap_snap::{SnapError, Visit, Visitor};
use std::cell::Cell;
use std::collections::HashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Entries in the MRU page-handle cache (checked linearly; keep tiny).
/// Sized to cover the distinct pages a multi-core cycle touches back to
/// back: per-thread input/output slices plus shared flag words.
const MRU_SLOTS: usize = 8;

/// Sentinel page id for empty MRU slots. Unreachable by real addresses:
/// the largest page id is `u64::MAX >> PAGE_SHIFT`.
const NO_PAGE: u64 = u64::MAX;

type Page = [u8; PAGE_SIZE];

/// A sparse, paged, byte-addressable memory.
///
/// Unwritten bytes read as zero. The address space is the full 64-bit range;
/// pages are allocated lazily, so programs may use widely separated regions
/// (per-thread heaps, shared flags) without cost. Pages are never freed, so
/// arena slots stay valid for the lifetime of the memory and the MRU cache
/// never needs invalidation.
///
/// The MRU cache uses interior mutability ([`Cell`]) so that read accessors
/// keep their `&self` signature; as a consequence `FlatMem` is [`Send`] but
/// not [`Sync`] — each simulated system owns its memory exclusively, which
/// is exactly how the parallel sweep runner uses it.
///
/// ```
/// use remap_mem::FlatMem;
/// let mut m = FlatMem::new();
/// m.write_u32(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u32(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u32(0x9999_0000), 0, "unwritten memory reads as zero");
/// ```
#[derive(Debug, Clone)]
pub struct FlatMem {
    /// Page id → slot in `data`.
    index: HashMap<u64, u32>,
    /// Page payloads, append-only (slots are stable).
    data: Vec<Box<Page>>,
    /// Recently resolved `(page id, slot)` pairs; probed linearly, replaced
    /// round-robin (no reordering on hit).
    mru: [Cell<(u64, u32)>; MRU_SLOTS],
    /// Next MRU slot to replace.
    mru_next: Cell<u8>,
}

impl Default for FlatMem {
    fn default() -> FlatMem {
        FlatMem {
            index: HashMap::new(),
            data: Vec::new(),
            mru: [const { Cell::new((NO_PAGE, 0)) }; MRU_SLOTS],
            mru_next: Cell::new(0),
        }
    }
}

impl FlatMem {
    /// Creates an empty memory.
    pub fn new() -> FlatMem {
        FlatMem::default()
    }

    /// Resolves a page id to its arena slot, consulting the MRU cache
    /// before the hash index. Returns `None` for pages never written.
    #[inline]
    fn page_slot(&self, id: u64) -> Option<u32> {
        for slot in &self.mru {
            let (cached_id, s) = slot.get();
            if cached_id == id {
                return Some(s);
            }
        }
        let s = *self.index.get(&id)?;
        self.remember(id, s);
        Some(s)
    }

    /// Installs a freshly resolved page handle at the round-robin slot.
    #[inline]
    fn remember(&self, id: u64, slot: u32) {
        let n = self.mru_next.get() as usize;
        self.mru[n].set((id, slot));
        self.mru_next.set(((n + 1) % MRU_SLOTS) as u8);
    }

    /// The resident page containing `addr`, if any.
    #[inline]
    fn page_of(&self, addr: u64) -> Option<&Page> {
        self.page_slot(addr >> PAGE_SHIFT)
            .map(|s| &*self.data[s as usize])
    }

    /// The page containing `addr`, allocating it (zeroed) if absent.
    #[inline]
    fn page_of_mut(&mut self, addr: u64) -> &mut Page {
        let id = addr >> PAGE_SHIFT;
        let slot = match self.page_slot(id) {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.data.len()).expect("page arena slot overflow");
                self.data.push(Box::new([0u8; PAGE_SIZE]));
                self.index.insert(id, s);
                self.remember(id, s);
                s
            }
        };
        &mut self.data[slot as usize]
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page_of(addr) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        self.page_of_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = val;
    }

    /// Reads a little-endian 32-bit word (no alignment requirement).
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 4 {
            match self.page_of(addr) {
                Some(p) => u32::from_le_bytes(p[off..off + 4].try_into().unwrap()),
                None => 0,
            }
        } else {
            let mut b = [0u8; 4];
            for (i, byte) in b.iter_mut().enumerate() {
                *byte = self.read_u8(addr.wrapping_add(i as u64));
            }
            u32::from_le_bytes(b)
        }
    }

    /// Writes a little-endian 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, val: u32) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 4 {
            self.page_of_mut(addr)[off..off + 4].copy_from_slice(&val.to_le_bytes());
        } else {
            for (i, byte) in val.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), *byte);
            }
        }
    }

    /// Reads a little-endian 64-bit word.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 8 {
            match self.page_of(addr) {
                Some(p) => u64::from_le_bytes(p[off..off + 8].try_into().unwrap()),
                None => 0,
            }
        } else {
            (self.read_u32(addr) as u64) | ((self.read_u32(addr.wrapping_add(4)) as u64) << 32)
        }
    }

    /// Writes a little-endian 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 8 {
            self.page_of_mut(addr)[off..off + 8].copy_from_slice(&val.to_le_bytes());
        } else {
            self.write_u32(addr, val as u32);
            self.write_u32(addr.wrapping_add(4), (val >> 32) as u32);
        }
    }

    /// Copies `out.len()` bytes starting at `addr` into `out`, page by page
    /// (line-granular reads for cache-line–sized transfers).
    pub fn read_bytes(&self, mut addr: u64, out: &mut [u8]) {
        let mut out = &mut out[..];
        while !out.is_empty() {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let chunk = out.len().min(PAGE_SIZE - off);
            let (head, tail) = out.split_at_mut(chunk);
            match self.page_of(addr) {
                Some(p) => head.copy_from_slice(&p[off..off + chunk]),
                None => head.fill(0),
            }
            out = tail;
            addr = addr.wrapping_add(chunk as u64);
        }
    }

    /// Writes `src` starting at `addr`, page by page.
    pub fn write_bytes(&mut self, mut addr: u64, mut src: &[u8]) {
        while !src.is_empty() {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let chunk = src.len().min(PAGE_SIZE - off);
            self.page_of_mut(addr)[off..off + chunk].copy_from_slice(&src[..chunk]);
            src = &src[chunk..];
            addr = addr.wrapping_add(chunk as u64);
        }
    }

    /// Writes a slice of 32-bit words starting at `addr` (a convenience for
    /// initializing workload arrays).
    pub fn write_words(&mut self, addr: u64, words: &[i32]) {
        for (i, w) in words.iter().enumerate() {
            self.write_u32(addr + 4 * i as u64, *w as u32);
        }
    }

    /// Fills `n` consecutive 32-bit words starting at `addr` with `val`
    /// (workload setup helper for constant-initialized arrays).
    pub fn fill_words(&mut self, addr: u64, val: i32, n: usize) {
        for i in 0..n {
            self.write_u32(addr + 4 * i as u64, val as u32);
        }
    }

    /// Reads `n` consecutive 32-bit words starting at `addr`.
    pub fn read_words(&self, addr: u64, n: usize) -> Vec<i32> {
        (0..n)
            .map(|i| self.read_u32(addr + 4 * i as u64) as i32)
            .collect()
    }

    /// Number of resident (lazily allocated) pages; useful in tests.
    pub fn resident_pages(&self) -> usize {
        self.data.len()
    }
}

/// Checkpoint support: all resident pages in page-id order, so the encoding
/// is independent of hash-map iteration order. Arena slot numbers are an
/// internal detail and are renumbered on load; the MRU handle cache is a
/// pure lookup shortcut, reset on load.
impl Visit for FlatMem {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        if !V::READS {
            let mut ids: Vec<(u64, u32)> = self.index.iter().map(|(&id, &s)| (id, s)).collect();
            ids.sort_unstable_by_key(|&(id, _)| id);
            v.len(ids.len(), usize::MAX)?;
            for (mut id, slot) in ids {
                v.u64(&mut id)?;
                v.bytes(&mut self.data[slot as usize][..])?;
            }
            return Ok(());
        }
        let n = v.len(0, 1 << 28)?;
        self.index.clear();
        self.data.clear();
        for slot in self.mru.iter() {
            slot.set((NO_PAGE, 0));
        }
        self.mru_next.set(0);
        for slot in 0..n as u32 {
            let mut id = 0;
            v.u64(&mut id)?;
            let mut page = Box::new([0u8; PAGE_SIZE]);
            v.bytes(&mut page[..])?;
            self.data.push(page);
            if self.index.insert(id, slot).is_some() {
                return Err(SnapError::Corrupt(format!("duplicate page id {id:#x}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_before_write() {
        let m = FlatMem::new();
        assert_eq!(m.read_u8(12345), 0);
        assert_eq!(m.read_u64(0xffff_ffff_ffff_fff0), 0);
    }

    #[test]
    fn byte_word_round_trip() {
        let mut m = FlatMem::new();
        m.write_u32(10, 0x0403_0201);
        assert_eq!(m.read_u8(10), 1);
        assert_eq!(m.read_u8(11), 2);
        assert_eq!(m.read_u8(12), 3);
        assert_eq!(m.read_u8(13), 4);
    }

    #[test]
    fn cross_page_word() {
        let mut m = FlatMem::new();
        let addr = PAGE_SIZE as u64 - 2; // straddles the page boundary
        m.write_u32(addr, 0xaabb_ccdd);
        assert_eq!(m.read_u32(addr), 0xaabb_ccdd);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn cross_page_u64() {
        let mut m = FlatMem::new();
        for lead in 1..8u64 {
            let addr = 3 * PAGE_SIZE as u64 - lead;
            let v = 0x0102_0304_0506_0708u64.wrapping_mul(lead);
            m.write_u64(addr, v);
            assert_eq!(m.read_u64(addr), v, "straddle with {lead} leading bytes");
        }
    }

    #[test]
    fn u64_round_trip() {
        let mut m = FlatMem::new();
        m.write_u64(100, u64::MAX - 3);
        assert_eq!(m.read_u64(100), u64::MAX - 3);
    }

    #[test]
    fn word_slice_helpers() {
        let mut m = FlatMem::new();
        m.write_words(0x2000, &[1, -2, 3]);
        assert_eq!(m.read_words(0x2000, 3), vec![1, -2, 3]);
    }

    #[test]
    fn fill_words_matches_write_words() {
        let mut m = FlatMem::new();
        m.fill_words(0x3000, -7, 5);
        assert_eq!(m.read_words(0x3000, 5), vec![-7; 5]);
    }

    #[test]
    fn bulk_bytes_round_trip_across_pages() {
        let mut m = FlatMem::new();
        let base = PAGE_SIZE as u64 - 13;
        let src: Vec<u8> = (0..40).map(|i| i as u8 ^ 0x5a).collect();
        m.write_bytes(base, &src);
        let mut out = vec![0u8; src.len()];
        m.read_bytes(base, &mut out);
        assert_eq!(out, src);
        for (i, &b) in src.iter().enumerate() {
            assert_eq!(m.read_u8(base + i as u64), b);
        }
    }

    #[test]
    fn read_bytes_of_unwritten_memory_is_zero() {
        let m = FlatMem::new();
        let mut out = [0xffu8; 16];
        m.read_bytes(0x7000_0000, &mut out);
        assert_eq!(out, [0u8; 16]);
    }

    #[test]
    fn mru_cache_survives_many_pages() {
        // Touch more distinct pages than the MRU has slots, then revisit
        // them all: every value must still read back.
        let mut m = FlatMem::new();
        for p in 0..(4 * MRU_SLOTS as u64) {
            m.write_u32(p * PAGE_SIZE as u64 + 8, p as u32 + 1);
        }
        for p in 0..(4 * MRU_SLOTS as u64) {
            assert_eq!(m.read_u32(p * PAGE_SIZE as u64 + 8), p as u32 + 1);
        }
    }

    #[test]
    fn clone_is_independent() {
        let mut a = FlatMem::new();
        a.write_u32(0x100, 1);
        let mut b = a.clone();
        b.write_u32(0x100, 2);
        assert_eq!(a.read_u32(0x100), 1);
        assert_eq!(b.read_u32(0x100), 2);
    }
}
