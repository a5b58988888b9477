//! Set-associative cache tag array with MESI state and LRU replacement.

use remap_snap::{SnapError, Visit, Visitor};
use std::fmt;

/// MESI coherence state of a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mesi {
    /// Modified: this cache holds the only, dirty copy.
    Modified,
    /// Exclusive: this cache holds the only, clean copy.
    Exclusive,
    /// Shared: possibly other caches also hold clean copies.
    Shared,
    /// Invalid.
    Invalid,
}

/// Encoded as its declaration index.
impl Visit for Mesi {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        const ALL: [Mesi; 4] = [Mesi::Modified, Mesi::Exclusive, Mesi::Shared, Mesi::Invalid];
        let t = v.tag(*self as u8, 4, "MESI")?;
        if V::READS {
            *self = ALL[t as usize];
        }
        Ok(())
    }
}

impl fmt::Display for Mesi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Mesi::Modified => 'M',
            Mesi::Exclusive => 'E',
            Mesi::Shared => 'S',
            Mesi::Invalid => 'I',
        };
        write!(f, "{c}")
    }
}

/// Geometry and latency of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Access latency in core cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// The paper's L1 configuration: 8 kB, 2-way, 2-cycle access, 32 B lines.
    pub fn l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 8 * 1024,
            ways: 2,
            line_bytes: 32,
            hit_latency: 2,
        }
    }

    /// The paper's L2 configuration: 1 MB per core, 10-cycle access.
    /// We use 8-way associativity and the same 32 B lines as the L1 so that
    /// L1 ⊆ L2 inclusion is a one-to-one line mapping.
    pub fn l2() -> CacheConfig {
        CacheConfig {
            size_bytes: 1024 * 1024,
            ways: 8,
            line_bytes: 32,
            hit_latency: 10,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Hit/miss and coherence activity counters, used by the power model.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction or snoop.
    pub writebacks: u64,
    /// Lines invalidated by remote stores.
    pub invalidations: u64,
}

remap_snap::visit_fields!(CacheStats: hits, misses, writebacks, invalidations);

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A cache tag array (data lives in [`FlatMem`](crate::FlatMem)).
///
/// The cache tracks MESI state per line and uses true LRU within a set.
/// Protocol decisions (what state to fill with, whom to invalidate) are made
/// by the owning [`Hierarchy`](crate::Hierarchy); the cache only provides
/// mechanical probe/insert/invalidate operations.
///
/// Storage is data-oriented: tags, states, and LRU stamps live in three
/// parallel flat arrays indexed `set * ways + way` (empty ways carry
/// `Mesi::Invalid`), and each set remembers its last-hit way (`mru_way`).
/// Every lookup goes through [`find_way`](Cache::find_way), which checks
/// the predicted way before falling back to the linear scan — on hit-heavy
/// traffic the common case touches a single tag. Way prediction is a pure
/// search shortcut: tags of valid lines are unique within a set, so the
/// predicted-way probe and the linear scan always agree.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    num_sets: usize,
    /// `log2(line_bytes)` — geometry is power-of-two, so indexing is all
    /// shifts and masks instead of integer division.
    line_shift: u32,
    /// `log2(line_bytes * num_sets)`: shift that strips line offset and
    /// set index off an address, leaving the tag.
    tag_shift: u32,
    tags: Vec<u64>,
    states: Vec<Mesi>,
    lru: Vec<u64>,
    /// Last way hit (or filled) per set; purely a prediction hint.
    mru_way: Vec<u32>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or non-power-of-two
    /// sets/line size).
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        assert!(sets > 0, "cache must have at least one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let line_shift = cfg.line_bytes.trailing_zeros();
        Cache {
            num_sets: sets,
            line_shift,
            tag_shift: line_shift + sets.trailing_zeros(),
            tags: vec![0; sets * cfg.ways],
            states: vec![Mesi::Invalid; sets * cfg.ways],
            lru: vec![0; sets * cfg.ways],
            mru_way: vec![0; sets],
            cfg,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Activity counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) as usize) & (self.num_sets - 1)
    }

    #[inline]
    fn tag(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }

    /// Line-aligned base address for `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes as u64 - 1)
    }

    /// Locates the way holding `tag` in set `si`, if resident. Checks the
    /// set's MRU way first (way prediction), then scans linearly. This is
    /// the single lookup used by every probe/access/set_state/invalidate/
    /// insert path.
    #[inline]
    fn find_way(&self, si: usize, tag: u64) -> Option<usize> {
        let ways = self.cfg.ways;
        let base = si * ways;
        let pred = self.mru_way[si] as usize;
        debug_assert!(pred < ways);
        if self.states[base + pred] != Mesi::Invalid && self.tags[base + pred] == tag {
            return Some(pred);
        }
        (0..ways).find(|&w| {
            w != pred && self.states[base + w] != Mesi::Invalid && self.tags[base + w] == tag
        })
    }

    /// Returns the MESI state of the line containing `addr` without touching
    /// LRU or statistics (used for snooping).
    #[inline]
    pub fn probe(&self, addr: u64) -> Mesi {
        let si = self.set_index(addr);
        match self.find_way(si, self.tag(addr)) {
            Some(w) => self.states[si * self.cfg.ways + w],
            None => Mesi::Invalid,
        }
    }

    /// Performs a demand access: bumps LRU and hit/miss counters. Returns the
    /// state if the line is present (hit), else `None` (miss).
    #[inline]
    pub fn access(&mut self, addr: u64) -> Option<Mesi> {
        self.tick += 1;
        let si = self.set_index(addr);
        match self.find_way(si, self.tag(addr)) {
            Some(w) => {
                let i = si * self.cfg.ways + w;
                self.lru[i] = self.tick;
                self.mru_way[si] = w as u32;
                self.stats.hits += 1;
                Some(self.states[i])
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Changes the state of a resident line; no-op if not resident.
    #[inline]
    pub fn set_state(&mut self, addr: u64, state: Mesi) {
        let si = self.set_index(addr);
        if let Some(w) = self.find_way(si, self.tag(addr)) {
            self.states[si * self.cfg.ways + w] = state;
            self.mru_way[si] = w as u32;
        }
    }

    /// Invalidates the line containing `addr` (remote store snoop). Returns
    /// the previous state, counting a writeback if it was Modified.
    pub fn invalidate(&mut self, addr: u64) -> Mesi {
        let si = self.set_index(addr);
        if let Some(w) = self.find_way(si, self.tag(addr)) {
            let i = si * self.cfg.ways + w;
            let prev = self.states[i];
            self.tags[i] = 0;
            self.states[i] = Mesi::Invalid;
            self.lru[i] = 0;
            self.stats.invalidations += 1;
            if prev == Mesi::Modified {
                self.stats.writebacks += 1;
            }
            prev
        } else {
            Mesi::Invalid
        }
    }

    /// Inserts the line containing `addr` with the given state, evicting the
    /// LRU line of the set if full. Returns the evicted line's base address
    /// and state, if any (the hierarchy uses this to maintain inclusion and
    /// count writebacks).
    pub fn insert(&mut self, addr: u64, state: Mesi) -> Option<(u64, Mesi)> {
        self.tick += 1;
        let si = self.set_index(addr);
        let tag = self.tag(addr);
        let base = si * self.cfg.ways;
        if let Some(w) = self.find_way(si, tag) {
            // Already resident (e.g. refill racing an upgrade): just update.
            self.states[base + w] = state;
            self.lru[base + w] = self.tick;
            self.mru_way[si] = w as u32;
            return None;
        }
        // Prefer an empty way; otherwise evict the LRU of the set (LRU stamps
        // are unique — `tick` is monotonic — so the victim is unambiguous).
        let mut evicted = None;
        let set_states = &self.states[base..base + self.cfg.ways];
        let slot = match set_states.iter().position(|&s| s == Mesi::Invalid) {
            Some(w) => w,
            None => {
                let mut w = 0;
                for cand in 1..self.cfg.ways {
                    if self.lru[base + cand] < self.lru[base + w] {
                        w = cand;
                    }
                }
                let victim_state = self.states[base + w];
                if victim_state == Mesi::Modified {
                    self.stats.writebacks += 1;
                }
                let victim_base =
                    (self.tags[base + w] << self.tag_shift) | ((si as u64) << self.line_shift);
                evicted = Some((victim_base, victim_state));
                w
            }
        };
        self.tags[base + slot] = tag;
        self.states[base + slot] = state;
        self.lru[base + slot] = self.tick;
        self.mru_way[si] = slot as u32;
        evicted
    }

    /// Number of resident lines (for tests).
    pub fn resident_lines(&self) -> usize {
        self.states.iter().filter(|&&s| s != Mesi::Invalid).count()
    }

    /// Line-aligned base address of every resident line (used to reseed
    /// the coherence directory when it is enabled mid-run).
    pub fn resident_line_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        let ways = self.cfg.ways;
        self.states.iter().enumerate().filter_map(move |(i, &st)| {
            if st == Mesi::Invalid {
                return None;
            }
            let si = (i / ways) as u64;
            Some((self.tags[i] << self.tag_shift) | (si << self.line_shift))
        })
    }
}

/// Checkpoint support: the dynamic tag-array state. Geometry is not
/// visited — it is part of the config fingerprint. Sets are sparse rows
/// (tags, states and LRU stamps of every way, then the way hint), so only
/// the sets that differ from what [`Cache::new`] builds are carried.
impl Visit for Cache {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        let (sets, ways) = (self.num_sets, self.cfg.ways);
        let set = move |si: usize| si * ways..(si + 1) * ways;
        v.sparse_rows(
            self,
            sets,
            |c, si| {
                c.mru_way[si] == 0
                    && c.states[set(si)].iter().all(|&s| s == Mesi::Invalid)
                    && c.tags[set(si)].iter().all(|&t| t == 0)
                    && c.lru[set(si)].iter().all(|&t| t == 0)
            },
            |c, si| {
                c.tags[set(si)].fill(0);
                c.states[set(si)].fill(Mesi::Invalid);
                c.lru[set(si)].fill(0);
                c.mru_way[si] = 0;
            },
            |v, c, si| {
                v.each(&mut c.tags[set(si)])?;
                v.each(&mut c.states[set(si)])?;
                v.each(&mut c.lru[set(si)])?;
                v.index(&mut c.mru_way[si], ways)
            },
        )?;
        v.u64(&mut self.tick)?;
        self.stats.visit(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets, 2 ways, 16-byte lines.
        Cache::new(CacheConfig {
            size_bytes: 64,
            ways: 2,
            line_bytes: 16,
            hit_latency: 1,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::l1().sets(), 128);
        assert_eq!(CacheConfig::l2().sets(), 4096);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0x100), None);
        c.insert(0x100, Mesi::Exclusive);
        assert_eq!(c.access(0x100), Some(Mesi::Exclusive));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = tiny();
        c.insert(0x100, Mesi::Shared);
        assert_eq!(c.access(0x10f), Some(Mesi::Shared));
        assert_eq!(c.access(0x110), None, "next line misses");
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny();
        // All map to set 0: line addresses multiples of 32 (2 sets * 16B).
        c.insert(0x000, Mesi::Exclusive);
        c.insert(0x020, Mesi::Exclusive);
        c.access(0x000); // make 0x000 most recent
        let ev = c.insert(0x040, Mesi::Exclusive).expect("evicts");
        assert_eq!(ev.0, 0x020, "LRU line evicted");
        assert_eq!(c.probe(0x000), Mesi::Exclusive);
        assert_eq!(c.probe(0x020), Mesi::Invalid);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.insert(0x000, Mesi::Modified);
        c.insert(0x020, Mesi::Exclusive);
        c.insert(0x040, Mesi::Exclusive); // evicts 0x000 (LRU)
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn invalidate_returns_previous_state() {
        let mut c = tiny();
        c.insert(0x100, Mesi::Modified);
        assert_eq!(c.invalidate(0x100), Mesi::Modified);
        assert_eq!(c.invalidate(0x100), Mesi::Invalid);
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut c = tiny();
        c.insert(0x100, Mesi::Shared);
        assert_eq!(c.insert(0x100, Mesi::Modified), None);
        assert_eq!(c.probe(0x100), Mesi::Modified);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn way_prediction_tracks_alternating_lines() {
        let mut c = tiny();
        // Two lines in the same set: alternating hits flip the MRU way and
        // must keep hitting (the prediction is a shortcut, not a filter).
        c.insert(0x000, Mesi::Exclusive);
        c.insert(0x020, Mesi::Shared);
        for _ in 0..8 {
            assert_eq!(c.access(0x000), Some(Mesi::Exclusive));
            assert_eq!(c.access(0x020), Some(Mesi::Shared));
        }
        assert_eq!(c.stats().hits, 16);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn invalidated_mru_way_is_not_a_false_hit() {
        let mut c = tiny();
        c.insert(0x000, Mesi::Exclusive);
        assert_eq!(c.access(0x000), Some(Mesi::Exclusive));
        c.invalidate(0x000);
        // The MRU way still points at the cleared slot; a fresh line with a
        // different tag must not hit through the stale prediction.
        assert_eq!(c.access(0x040), None);
    }

    fn encode(c: &mut Cache) -> Vec<u8> {
        let mut w = remap_snap::Writer::default();
        c.visit(&mut w).unwrap();
        w.into_vec()
    }

    fn decode(c: &mut Cache, buf: &[u8]) {
        let mut r = remap_snap::Reader::new(buf);
        c.visit(&mut r).unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn invalidated_set_with_a_way_hint_round_trips() {
        let mut c = tiny();
        c.insert(0x000, Mesi::Exclusive);
        c.insert(0x020, Mesi::Shared);
        c.invalidate(0x000);
        c.invalidate(0x020);
        // Every line of set 0 is back to its reset contents, but the way
        // hint still points at way 1: the set is not in its reset state.
        assert_eq!((c.resident_lines(), c.mru_way[0]), (0, 1));
        let buf = encode(&mut c);
        let mut back = tiny();
        decode(&mut back, &buf);
        assert_eq!(back.mru_way, c.mru_way);
        assert_eq!(encode(&mut back), buf);
    }

    #[test]
    fn decoding_replaces_whatever_the_cache_held() {
        let mut c = tiny();
        c.insert(0x000, Mesi::Modified);
        c.access(0x000);
        let buf = encode(&mut c);
        // The target holds other lines, in both sets.
        let mut back = tiny();
        for a in [0x020, 0x040, 0x010, 0x030] {
            back.insert(a, Mesi::Shared);
        }
        decode(&mut back, &buf);
        assert_eq!(encode(&mut back), buf);
        assert_eq!(back.resident_line_addrs().collect::<Vec<_>>(), [0x000]);
        assert_eq!(back.probe(0x000), Mesi::Modified);
    }

    #[test]
    fn line_addr_masks_low_bits() {
        let c = tiny();
        assert_eq!(c.line_addr(0x10f), 0x100);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 48,
            ways: 1,
            line_bytes: 16,
            hit_latency: 1,
        });
    }
}
