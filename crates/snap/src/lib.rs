//! Binary snapshot codec: one state visitor with three implementations,
//! plus the framed on-disk snapshot format.
//!
//! Every simulator component implements [`Visit`] next to its own type
//! (so private fields stay private): a single `visit` walks the state once,
//! and the [`Visitor`] decides what the walk does — [`Writer`] encodes,
//! [`Reader`] decodes with bounds checks, [`Hasher`] digests. The encoding
//! is deliberately dumb: fixed-width little-endian integers, length-prefixed
//! sequences, sparse rows for large fixed tables, no schema, no varints, no
//! serde. Robustness comes from the outer frame ([`encode_file`] /
//! [`decode_file`]): magic, format version, a configuration fingerprint, a
//! payload length, and a trailing FNV-1a checksum over everything before it.
//! Torn tails, foreign files, and fingerprint mismatches are all refused
//! with a typed [`SnapError`] before a single payload byte is interpreted.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};

/// Magic bytes opening every snapshot file.
pub const MAGIC: &[u8; 8] = b"RMAPSNAP";

/// Current snapshot format version. Bump on any payload layout change:
/// old files must be refused, never misread.
pub const FORMAT_VERSION: u32 = 2;

/// Why a snapshot could not be decoded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the value being read (torn file).
    Truncated,
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file is a snapshot, but of an unknown format version.
    BadVersion { found: u32 },
    /// The snapshot was taken under a different system configuration.
    BadFingerprint { expected: u64, found: u64 },
    /// The frame checksum does not match (torn or bit-rotted tail).
    BadChecksum,
    /// A payload value is inconsistent with the restoring system's
    /// geometry (wrong vector length, out-of-range index, bad discriminant).
    Corrupt(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::BadVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {FORMAT_VERSION})"
            ),
            SnapError::BadFingerprint { expected, found } => write!(
                f,
                "snapshot was taken under a different configuration \
                 (fingerprint {found:#018x}, this system is {expected:#018x})"
            ),
            SnapError::BadChecksum => {
                write!(f, "snapshot checksum mismatch (torn or corrupt file)")
            }
            SnapError::Corrupt(why) => write!(f, "snapshot payload corrupt: {why}"),
        }
    }
}

impl std::error::Error for SnapError {}

// --- FNV-1a -----------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running 64-bit FNV-1a hash.
fn fnv_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// One-shot FNV-1a over a byte slice (fingerprints and frame checksums).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv_update(FNV_OFFSET, bytes)
}

// --- Visitor ----------------------------------------------------------------

/// State that walks itself through a [`Visitor`]. One `visit` per type
/// serves encoding, decoding and hashing: the visitor decides the direction.
pub trait Visit {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError>;
}

/// Implements [`Visit`] for a struct by visiting the named fields in order.
#[macro_export]
macro_rules! visit_fields {
    ($t:ty: $($f:ident),+ $(,)?) => {
        impl $crate::Visit for $t {
            fn visit<V: $crate::Visitor>(&mut self, v: &mut V) -> Result<(), $crate::SnapError> {
                $($crate::Visit::visit(&mut self.$f, v)?;)+
                Ok(())
            }
        }
    };
}

macro_rules! int_method {
    ($($name:ident: $t:ty),*) => {$(
        fn $name(&mut self, x: &mut $t) -> Result<(), SnapError> {
            let mut b = x.to_le_bytes();
            self.bytes(&mut b)?;
            if Self::READS {
                *x = <$t>::from_le_bytes(b);
            }
            Ok(())
        }
    )*};
}

/// A walk over simulator state that encodes it ([`Writer`]), decodes into
/// it ([`Reader`]) or hashes it ([`Hasher`]). Encoding is fixed-width
/// little-endian with `u64` length prefixes; every check a decoder needs
/// (exact and bounded lengths, indices, enum tags, presence flags, sparse
/// row counts and order) lives in the provided methods and runs only when
/// [`Visitor::READS`] is set. Encoders and hashers never modify the state
/// they walk.
pub trait Visitor: Sized {
    /// True for the decoder: visited fields are overwritten.
    const READS: bool;

    /// Visits a fixed-size byte run (no length prefix).
    fn bytes(&mut self, b: &mut [u8]) -> Result<(), SnapError>;

    /// Starts (or returns to) the digest part `name`; the bytes that follow
    /// belong to it. Only the [`Hasher`] acts on it.
    fn part(&mut self, _name: impl FnOnce() -> String) {}

    int_method!(u8: u8, u16: u16, u32: u32, u64: u64, i64: i64);

    fn bool(&mut self, x: &mut bool) -> Result<(), SnapError> {
        let mut b = u8::from(*x);
        self.u8(&mut b)?;
        if b > 1 {
            return Err(SnapError::Corrupt(format!("bad bool byte {b}")));
        }
        if Self::READS {
            *x = b == 1;
        }
        Ok(())
    }

    /// `usize` values travel as `u64` so 32- and 64-bit hosts interoperate.
    fn usize(&mut self, x: &mut usize) -> Result<(), SnapError> {
        let mut v = *x as u64;
        self.u64(&mut v)?;
        if Self::READS {
            *x = usize::try_from(v)
                .map_err(|_| SnapError::Corrupt(format!("usize overflow: {v}")))?;
        }
        Ok(())
    }

    /// Several `u64` fields in order (statistics blocks).
    fn u64s<const N: usize>(&mut self, xs: [&mut u64; N]) -> Result<(), SnapError> {
        xs.into_iter().try_for_each(|x| self.u64(x))
    }

    /// Length prefix of a sequence of `n` elements. A decoded length above
    /// `max` is refused, so a corrupt prefix cannot trigger a huge
    /// allocation. Returns the (decoded) length.
    fn len(&mut self, n: usize, max: usize) -> Result<usize, SnapError> {
        let mut n = n;
        self.usize(&mut n)?;
        if Self::READS && n > max {
            return Err(SnapError::Corrupt(format!(
                "sequence length {n} exceeds bound {max}"
            )));
        }
        Ok(n)
    }

    /// Length prefix that must equal `n` (fixed-geometry vectors: per-core
    /// arrays, cache ways, bank tables).
    fn exact_len(&mut self, n: usize) -> Result<(), SnapError> {
        let mut m = n;
        self.usize(&mut m)?;
        if m != n {
            return Err(SnapError::Corrupt(format!(
                "sequence length {m}, expected {n}"
            )));
        }
        Ok(())
    }

    /// A value that later indexes a table of `bound` entries.
    fn index<T>(&mut self, i: &mut T, bound: usize) -> Result<(), SnapError>
    where
        T: Visit + Copy + TryInto<usize> + std::fmt::Display,
    {
        i.visit(self)?;
        if Self::READS && (*i).try_into().map_or(true, |x| x >= bound) {
            return Err(SnapError::Corrupt(format!(
                "index {i} out of range (bound {bound})"
            )));
        }
        Ok(())
    }

    /// Enum discriminant `t` of `n` variants; returns the (decoded) tag.
    fn tag(&mut self, t: u8, n: u8, what: &str) -> Result<u8, SnapError> {
        let mut t = t;
        self.u8(&mut t)?;
        if t >= n {
            return Err(SnapError::Corrupt(format!("bad {what} tag {t}")));
        }
        Ok(t)
    }

    /// Presence flag and contents of an optional component the restoring
    /// system builds itself: the flag must match, it is never rebuilt here.
    fn present<T: Visit>(&mut self, what: &str, x: Option<&mut T>) -> Result<(), SnapError> {
        let mut has = x.is_some();
        self.bool(&mut has)?;
        if has != x.is_some() {
            return Err(SnapError::Corrupt(format!(
                "{what} presence mismatch (snapshot {has}, system {})",
                x.is_some()
            )));
        }
        x.map_or(Ok(()), |x| x.visit(self))
    }

    /// Elements of a fixed-geometry slice, without a length prefix.
    fn each<T: Visit>(&mut self, xs: &mut [T]) -> Result<(), SnapError> {
        xs.iter_mut().try_for_each(|x| x.visit(self))
    }

    /// Exact length prefix, then the elements.
    fn exact<T: Visit>(&mut self, xs: &mut [T]) -> Result<(), SnapError> {
        self.exact_len(xs.len())?;
        self.each(xs)
    }

    /// The rows of a fixed-geometry table of `n` rows, stored sparsely: a
    /// count (at most `n`), then the index and contents (`row`) of each row
    /// not in its reset state (`is_reset`), in ascending index order. On
    /// read, every row is first returned to its reset state (`reset`), then
    /// the listed rows are decoded; the count must be at most `n` and the
    /// indices strictly ascending and below `n`.
    fn sparse_rows<T: ?Sized>(
        &mut self,
        table: &mut T,
        n: usize,
        is_reset: impl Fn(&T, usize) -> bool,
        mut reset: impl FnMut(&mut T, usize),
        mut row: impl FnMut(&mut Self, &mut T, usize) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        if Self::READS {
            let count = self.len(0, n)?;
            (0..n).for_each(|i| reset(table, i));
            let mut next = 0;
            for _ in 0..count {
                let mut i = 0usize;
                self.index(&mut i, n)?;
                if i < next {
                    return Err(SnapError::Corrupt(format!(
                        "row index {i} not above the previous row"
                    )));
                }
                row(self, table, i)?;
                next = i + 1;
            }
            return Ok(());
        }
        let count = (0..n).filter(|&i| !is_reset(table, i)).count();
        self.len(count, n)?;
        for mut i in 0..n {
            if !is_reset(table, i) {
                self.usize(&mut i)?;
                row(self, table, i)?;
            }
        }
        Ok(())
    }

    /// Bounded length prefix, then each element through `f`.
    fn seq<T: Default>(
        &mut self,
        xs: &mut Vec<T>,
        max: usize,
        mut f: impl FnMut(&mut Self, &mut T) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let n = self.len(xs.len(), max)?;
        if Self::READS {
            xs.clear();
            xs.resize_with(n, T::default);
        }
        xs.iter_mut().try_for_each(|x| f(self, x))
    }

    /// Bounded length prefix, then the elements.
    fn vec<T: Visit + Default>(&mut self, xs: &mut Vec<T>, max: usize) -> Result<(), SnapError> {
        self.seq(xs, max, |v, x| x.visit(v))
    }

    /// As [`Visitor::vec`], for a ring buffer.
    fn deque<T: Visit + Default>(
        &mut self,
        xs: &mut VecDeque<T>,
        max: usize,
    ) -> Result<(), SnapError> {
        let n = self.len(xs.len(), max)?;
        if Self::READS {
            xs.clear();
            xs.resize_with(n, T::default);
        }
        xs.iter_mut().try_for_each(|x| x.visit(self))
    }

    /// Bounded length prefix, then `(key, value)` pairs in key order, so the
    /// encoding does not depend on hash-map iteration order. A duplicate
    /// decoded key is refused.
    fn map<K, T, S>(&mut self, m: &mut HashMap<K, T, S>, max: usize) -> Result<(), SnapError>
    where
        K: Visit + Default + Copy + Ord + Hash + std::fmt::Debug,
        T: Visit + Default,
        S: BuildHasher,
    {
        if Self::READS {
            let n = self.len(0, max)?;
            m.clear();
            for _ in 0..n {
                let (mut k, mut x) = (K::default(), T::default());
                k.visit(self)?;
                x.visit(self)?;
                if m.insert(k, x).is_some() {
                    return Err(SnapError::Corrupt(format!("duplicate key {k:?}")));
                }
            }
            return Ok(());
        }
        let mut entries: Vec<(K, &mut T)> = m.iter_mut().map(|(&k, x)| (k, x)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        self.len(entries.len(), max)?;
        for (mut k, x) in entries {
            k.visit(self)?;
            x.visit(self)?;
        }
        Ok(())
    }
}

macro_rules! visit_scalar {
    ($($t:ident),*) => {$(
        impl Visit for $t {
            fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
                v.$t(self)
            }
        }
    )*};
}

visit_scalar!(u8, u16, u32, u64, i64, bool, usize);

/// Presence flag, then the value.
impl<T: Visit + Default> Visit for Option<T> {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        let mut some = self.is_some();
        v.bool(&mut some)?;
        if V::READS {
            *self = some.then(T::default);
        }
        self.as_mut().map_or(Ok(()), |x| x.visit(v))
    }
}

impl<A: Visit, B: Visit> Visit for (A, B) {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        self.0.visit(v)?;
        self.1.visit(v)
    }
}

impl<T: Visit, const N: usize> Visit for [T; N] {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        v.each(self)
    }
}

// --- Writer -----------------------------------------------------------------

/// The encoding visitor: appends the visited state to a byte buffer.
#[derive(Debug, Default)]
pub struct Writer(Vec<u8>);

impl Writer {
    pub fn into_vec(self) -> Vec<u8> {
        self.0
    }
}

impl Visitor for Writer {
    const READS: bool = false;

    #[inline]
    fn bytes(&mut self, b: &mut [u8]) -> Result<(), SnapError> {
        self.0.extend_from_slice(b);
        Ok(())
    }
}

// --- Reader -----------------------------------------------------------------

/// The decoding visitor: a cursor over a payload; every read is
/// bounds-checked and a failed read consumes nothing.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Refuses a payload with bytes left over after the visit.
    pub fn finish(&self) -> Result<(), SnapError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(SnapError::Corrupt(format!("{n} trailing payload bytes"))),
        }
    }
}

impl Visitor for Reader<'_> {
    const READS: bool = true;

    #[inline]
    fn bytes(&mut self, b: &mut [u8]) -> Result<(), SnapError> {
        let src = self
            .buf
            .get(self.pos..self.pos + b.len())
            .ok_or(SnapError::Truncated)?;
        b.copy_from_slice(src);
        self.pos += b.len();
        Ok(())
    }
}

// --- Hasher -----------------------------------------------------------------

/// The hashing visitor: FNV-1a over exactly the bytes a [`Writer`] would
/// emit, one running hash per named part ([`Visitor::part`]), in order of
/// first use. Bytes visited before any part hash into an unnamed one.
#[derive(Debug, Clone, Default)]
pub struct Hasher {
    parts: Vec<(String, u64)>,
    cur: usize,
}

impl Hasher {
    /// The `(part, hash)` pairs.
    pub fn finish(self) -> Vec<(String, u64)> {
        self.parts
    }
}

impl Visitor for Hasher {
    const READS: bool = false;

    #[inline]
    fn bytes(&mut self, b: &mut [u8]) -> Result<(), SnapError> {
        match self.parts.get_mut(self.cur) {
            Some((_, h)) => *h = fnv_update(*h, b),
            None => self.parts.push((String::new(), fnv_update(FNV_OFFSET, b))),
        }
        Ok(())
    }

    fn part(&mut self, name: impl FnOnce() -> String) {
        let name = name();
        self.cur = match self.parts.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.parts.push((name, FNV_OFFSET));
                self.parts.len() - 1
            }
        };
    }
}

// --- file frame -------------------------------------------------------------

/// Bytes before the payload: magic, version, fingerprint, payload length.
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Bytes after the payload: the FNV-1a checksum.
pub const TRAILER_LEN: usize = 8;

/// Frames `payload` into a self-validating snapshot file image:
/// `MAGIC | version | fingerprint | payload_len | payload | fnv1a(all prior)`.
pub fn encode_file(fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates a snapshot file image and returns its payload slice.
///
/// Refusal order matters for diagnostics: magic first (is this even a
/// snapshot?), then version, then the checksum (torn tail), then the
/// fingerprint (right file, wrong system).
pub fn decode_file(bytes: &[u8], expected_fingerprint: u64) -> Result<&[u8], SnapError> {
    if bytes.len() < MAGIC.len() {
        return Err(SnapError::Truncated);
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let mut r = Reader::new(&bytes[MAGIC.len()..]);
    let (mut version, mut fingerprint, mut payload_len) = (0u32, 0u64, 0usize);
    r.u32(&mut version)?;
    if version != FORMAT_VERSION {
        return Err(SnapError::BadVersion { found: version });
    }
    r.u64(&mut fingerprint)?;
    r.usize(&mut payload_len)?;
    let body_end = HEADER_LEN
        .checked_add(payload_len)
        .ok_or(SnapError::Truncated)?;
    if body_end.checked_add(TRAILER_LEN) != Some(bytes.len()) {
        return Err(SnapError::Truncated);
    }
    let sum = fnv1a(&bytes[..body_end]);
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().unwrap());
    if sum != stored {
        return Err(SnapError::BadChecksum);
    }
    if fingerprint != expected_fingerprint {
        return Err(SnapError::BadFingerprint {
            expected: expected_fingerprint,
            found: fingerprint,
        });
    }
    Ok(&bytes[HEADER_LEN..body_end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, Clone, PartialEq)]
    struct Sample {
        a: u8,
        flag: bool,
        b: u16,
        c: u32,
        d: u64,
        e: i64,
        f: usize,
        tail: [u8; 4],
        opt: Option<u64>,
        list: Vec<(u32, bool)>,
        ring: VecDeque<u16>,
        table: HashMap<u64, u32>,
    }

    impl Visit for Sample {
        fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
            v.u8(&mut self.a)?;
            v.bool(&mut self.flag)?;
            v.u16(&mut self.b)?;
            v.u32(&mut self.c)?;
            v.u64(&mut self.d)?;
            v.i64(&mut self.e)?;
            v.usize(&mut self.f)?;
            v.bytes(&mut self.tail)?;
            self.opt.visit(v)?;
            v.vec(&mut self.list, 8)?;
            v.deque(&mut self.ring, 8)?;
            v.map(&mut self.table, 8)
        }
    }

    fn sample() -> Sample {
        Sample {
            a: 0xAB,
            flag: true,
            b: 0xBEEF,
            c: 0xDEAD_BEEF,
            d: u64::MAX - 3,
            e: -42,
            f: 12345,
            tail: *b"tail",
            opt: Some(7),
            list: vec![(1, true), (2, false)],
            ring: VecDeque::from([5, 6, 7]),
            table: HashMap::from([(30, 3), (10, 1), (20, 2)]),
        }
    }

    fn encode(x: &mut impl Visit) -> Vec<u8> {
        let mut w = Writer::default();
        x.visit(&mut w).unwrap();
        w.into_vec()
    }

    #[test]
    fn round_trips_through_one_visit() {
        let mut s = sample();
        let buf = encode(&mut s);
        assert_eq!(s, sample(), "encoding must not modify the state");
        let mut back = Sample::default();
        let mut r = Reader::new(&buf);
        back.visit(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, s);
        // Fixed-width little-endian layout, map entries in key order.
        assert_eq!(&buf[..4], &[0xAB, 1, 0xEF, 0xBE]);
        let table = &buf[buf.len() - 8 - 3 * 12..];
        assert_eq!(table[..8], 3u64.to_le_bytes());
        assert_eq!(table[8..16], 10u64.to_le_bytes());
    }

    #[test]
    fn hasher_digests_exactly_the_encoded_bytes() {
        let mut s = sample();
        let buf = encode(&mut s);
        let mut h = Hasher::default();
        s.visit(&mut h).unwrap();
        assert_eq!(h.finish(), vec![(String::new(), fnv1a(&buf))]);
        // Named parts partition the stream.
        let mut h = Hasher::default();
        h.part(|| "a".into());
        h.u8(&mut 1).unwrap();
        h.part(|| "b".into());
        h.u8(&mut 2).unwrap();
        h.part(|| "a".into());
        h.u8(&mut 3).unwrap();
        let parts = vec![("a".into(), fnv1a(&[1, 3])), ("b".into(), fnv1a(&[2]))];
        assert_eq!(h.finish(), parts);
    }

    #[test]
    fn reads_past_end_are_truncated_not_panics() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u64(&mut 0), Err(SnapError::Truncated));
        // Failed reads consume nothing.
        let mut x = 0u16;
        r.u16(&mut x).unwrap();
        assert_eq!(x, 0x0201);
        assert_eq!(r.u32(&mut 0), Err(SnapError::Truncated));
        assert!(matches!(r.finish(), Err(SnapError::Corrupt(_))));
        let buf = encode(&mut sample());
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert_eq!(Sample::default().visit(&mut r), Err(SnapError::Truncated));
        }
    }

    #[test]
    fn decoder_checks_live_in_the_primitives() {
        let corrupt = |r: Result<(), SnapError>| matches!(r, Err(SnapError::Corrupt(_)));
        assert!(corrupt(Reader::new(&[7]).bool(&mut false)));
        let ten = 10u64.to_le_bytes();
        assert!(matches!(
            Reader::new(&ten).len(0, 8),
            Err(SnapError::Corrupt(_))
        ));
        assert_eq!(Reader::new(&ten).len(0, 16), Ok(10));
        assert!(corrupt(Reader::new(&ten).exact_len(5)));
        assert!(corrupt(Reader::new(&ten).index(&mut 0usize, 10)));
        assert!(Reader::new(&ten).index(&mut 0usize, 11).is_ok());
        assert!(corrupt(Reader::new(&ten[..4]).index(&mut 0u32, 10)));
        assert!(matches!(
            Reader::new(&[3]).tag(0, 3, "test"),
            Err(SnapError::Corrupt(_))
        ));
        assert!(corrupt(Reader::new(&[1]).present::<u8>("model", None)));
        assert!(corrupt(Reader::new(&[0]).present("model", Some(&mut 0u8))));
        // Encoders do not validate: they only ever see live state.
        let mut w = Writer::default();
        w.index(&mut 12usize, 10).unwrap();
        assert_eq!(w.len(12, 10), Ok(12));
        // A duplicate map key is refused.
        let mut w = Writer::default();
        w.len(2, 2).unwrap();
        for _ in 0..2 {
            w.u64(&mut 1).unwrap();
            w.u32(&mut 9).unwrap();
        }
        let buf = w.into_vec();
        assert!(corrupt(
            Reader::new(&buf).map(&mut HashMap::<u64, u32>::new(), 2)
        ));
    }

    /// A table of `u32` rows whose reset state is 0, visited sparsely.
    fn visit_rows<V: Visitor>(v: &mut V, t: &mut [u32]) -> Result<(), SnapError> {
        let n = t.len();
        v.sparse_rows(
            t,
            n,
            |t, i| t[i] == 0,
            |t, i| t[i] = 0,
            |v, t, i| v.u32(&mut t[i]),
        )
    }

    /// Count, then `(index, row)` pairs, as a [`Writer`] lays them out.
    fn rows_payload(mut count: u64, rows: &[(u64, u32)]) -> Vec<u8> {
        let mut w = Writer::default();
        w.u64(&mut count).unwrap();
        for &(mut i, mut x) in rows {
            w.u64(&mut i).unwrap();
            w.u32(&mut x).unwrap();
        }
        w.into_vec()
    }

    #[test]
    fn sparse_rows_carry_only_rows_off_their_reset_state() {
        let mut t = [0, 5, 0, 7];
        let mut w = Writer::default();
        visit_rows(&mut w, &mut t).unwrap();
        let buf = w.into_vec();
        assert_eq!(buf, rows_payload(2, &[(1, 5), (3, 7)]));
        // Decoding resets every row first, so rows absent from the payload
        // do not keep what the table held before.
        let mut back = [9, 9, 9, 9];
        let mut r = Reader::new(&buf);
        visit_rows(&mut r, &mut back).unwrap();
        r.finish().unwrap();
        assert_eq!(back, t);
        let mut h = Hasher::default();
        visit_rows(&mut h, &mut t).unwrap();
        assert_eq!(h.finish(), vec![(String::new(), fnv1a(&buf))]);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert_eq!(visit_rows(&mut r, &mut [0; 4]), Err(SnapError::Truncated));
        }
    }

    #[test]
    fn sparse_row_checks_live_in_the_primitive() {
        let decode = |buf: Vec<u8>| visit_rows(&mut Reader::new(&buf), &mut [0; 4]);
        let corrupt = |buf| matches!(decode(buf), Err(SnapError::Corrupt(_)));
        assert!(corrupt(rows_payload(5, &[])), "count above n");
        assert!(corrupt(rows_payload(2, &[(2, 1), (1, 1)])), "descending");
        assert!(corrupt(rows_payload(2, &[(1, 1), (1, 2)])), "duplicate");
        assert!(corrupt(rows_payload(1, &[(4, 1)])), "out of range");
        assert_eq!(
            decode(rows_payload(4, &[(0, 1), (1, 1), (2, 1), (3, 1)])),
            Ok(())
        );
    }

    #[test]
    fn file_frame_round_trip() {
        let img = encode_file(0x1234, b"payload bytes");
        assert_eq!(decode_file(&img, 0x1234).unwrap(), b"payload bytes");
        assert_eq!(img.len(), HEADER_LEN + 13 + TRAILER_LEN);
    }

    #[test]
    fn file_frame_refuses_foreign_and_torn_files() {
        let img = encode_file(0x1234, b"payload");
        // Foreign fingerprint.
        assert_eq!(
            decode_file(&img, 0x9999),
            Err(SnapError::BadFingerprint {
                expected: 0x9999,
                found: 0x1234
            })
        );
        // Torn tail: every strict prefix must be refused.
        for cut in 0..img.len() {
            let e = decode_file(&img[..cut], 0x1234).unwrap_err();
            assert!(
                matches!(
                    e,
                    SnapError::Truncated | SnapError::BadMagic | SnapError::BadChecksum
                ),
                "cut at {cut}: {e:?}"
            );
        }
        // Flipped payload bit: checksum catches it.
        let mut bad = img.clone();
        bad[30] ^= 1;
        assert!(matches!(
            decode_file(&bad, 0x1234),
            Err(SnapError::BadChecksum) | Err(SnapError::BadMagic) | Err(SnapError::Truncated)
        ));
        // Wrong version.
        let mut wrongver = img.clone();
        wrongver[8] = 0xFE;
        assert!(matches!(
            decode_file(&wrongver, 0x1234),
            Err(SnapError::BadVersion { .. })
        ));
        // Not a snapshot at all.
        assert_eq!(
            decode_file(b"definitely-not-a-snapshot", 0x1234),
            Err(SnapError::BadMagic)
        );
        // A crafted payload length whose end overflows `usize`.
        let mut crafted = img.clone();
        crafted[20..28].copy_from_slice(&(usize::MAX as u64 - 28).to_le_bytes());
        assert_eq!(decode_file(&crafted, 0x1234), Err(SnapError::Truncated));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
