//! Hardware prefetchers for the non-blocking hierarchy.
//!
//! * L1D: a classic reference prediction table (RPT) — PC-indexed stride
//!   detection with 2-bit confidence, trained **only on demand full
//!   misses**. Training on the miss stream rather than every access means
//!   the observed stride of a sequential word-walk is the *line* stride
//!   (one miss per line), which is exactly the distance worth fetching.
//! * L1I: simple next-line, implemented inline in the hierarchy's fetch
//!   miss path (no state needed beyond the MSHR file).
//!
//! Both only ever *suggest* lines; the hierarchy issues a prefetch only
//! when an MSHR register and a memory-controller slot are free, so
//! prefetching can never block or starve demand traffic.

use remap_snap::{SnapError, Visit, Visitor};

/// One RPT row.
#[derive(Debug, Clone, Copy)]
struct RptEntry {
    /// Full PC tag of the load instruction that owns the row.
    pc: u32,
    /// Address of the owner's previous miss.
    last: u64,
    /// Last observed miss-to-miss stride in bytes.
    stride: i64,
    /// 2-bit saturating confidence; predictions fire at ≥ 2.
    conf: u8,
    valid: bool,
}

/// PC-indexed stride reference prediction table.
#[derive(Debug, Clone)]
pub struct StrideRpt {
    entries: Vec<RptEntry>,
}

impl StrideRpt {
    /// A direct-mapped table with `rows` entries.
    pub fn new(rows: usize) -> StrideRpt {
        StrideRpt {
            entries: vec![
                RptEntry {
                    pc: 0,
                    last: 0,
                    stride: 0,
                    conf: 0,
                    valid: false,
                };
                rows.max(1)
            ],
        }
    }

    /// Trains on a demand full miss of `addr` by the load at `pc` and
    /// returns the predicted stride when confidence has built up.
    pub fn train(&mut self, pc: u32, addr: u64) -> Option<i64> {
        // PCs arrive as instruction indices, so consecutive instructions
        // land in consecutive rows without shifting.
        let i = (pc as usize) % self.entries.len();
        let e = &mut self.entries[i];
        if !e.valid || e.pc != pc {
            *e = RptEntry {
                pc,
                last: addr,
                stride: 0,
                conf: 0,
                valid: true,
            };
            return None;
        }
        let s = addr.wrapping_sub(e.last) as i64;
        if s == e.stride && s != 0 {
            e.conf = (e.conf + 1).min(3);
        } else {
            e.conf = e.conf.saturating_sub(1);
            e.stride = s;
        }
        e.last = addr;
        if e.conf >= 2 && e.stride != 0 {
            Some(e.stride)
        } else {
            None
        }
    }
}

remap_snap::visit_fields!(RptEntry: pc, last, stride, conf, valid);

/// Checkpoint support: every table row.
impl Visit for StrideRpt {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        v.exact(&mut self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_stride_gains_confidence_after_three_misses() {
        let mut r = StrideRpt::new(16);
        assert_eq!(r.train(0x40, 0x1000), None, "first touch allocates");
        assert_eq!(r.train(0x40, 0x1020), None, "stride learned, conf 0->0");
        assert_eq!(r.train(0x40, 0x1040), None, "conf 1");
        assert_eq!(r.train(0x40, 0x1060), Some(0x20), "conf 2: predict");
        assert_eq!(r.train(0x40, 0x1080), Some(0x20), "conf saturates");
    }

    #[test]
    fn irregular_strides_never_fire() {
        let mut r = StrideRpt::new(16);
        let addrs = [0x1000u64, 0x5420, 0x2260, 0x9fa0, 0x30c0, 0x7780];
        for a in addrs {
            assert_eq!(r.train(0x40, a), None, "pointer chase stays quiet");
        }
    }

    #[test]
    fn negative_strides_are_predicted() {
        let mut r = StrideRpt::new(16);
        r.train(0x40, 0x5000);
        r.train(0x40, 0x4fe0);
        r.train(0x40, 0x4fc0);
        assert_eq!(r.train(0x40, 0x4fa0), Some(-0x20));
    }

    #[test]
    fn conflicting_pcs_steal_the_row() {
        let mut r = StrideRpt::new(1);
        r.train(0x40, 0x1000);
        r.train(0x40, 0x1020);
        r.train(0x40, 0x1040);
        // A different PC maps to the same (only) row and resets it.
        assert_eq!(r.train(0x80, 0x9000), None);
        assert_eq!(r.train(0x40, 0x1060), None, "row was stolen");
    }
}
