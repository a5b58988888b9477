//! Hybrid gshare + bimodal branch predictor with BTB and return-address
//! stack, per Table II of the paper.

use remap_snap::{SnapError, Visit, Visitor};

/// Prediction returned by [`Predictor::predict`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction for conditional branches (always `true` for
    /// unconditional jumps).
    pub taken: bool,
    /// Predicted target instruction index, if the BTB (or RAS) knows one.
    /// `None` models a BTB miss: the front end cannot redirect until the
    /// branch resolves even if predicted taken.
    pub target: Option<u32>,
    /// Snapshot of the global history register for recovery on squash.
    pub history: u32,
}

/// Predictor activity counters for the power model and reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PredStats {
    /// Direction lookups.
    pub lookups: u64,
    /// Conditional branches whose direction was mispredicted.
    pub dir_mispredicts: u64,
    /// Taken control transfers whose target was unknown or wrong in the BTB.
    pub target_mispredicts: u64,
    /// RAS pushes + pops.
    pub ras_ops: u64,
}

remap_snap::visit_fields!(PredStats: lookups, dir_mispredicts, target_mispredicts, ras_ops);

fn counter_update(c: &mut u8, taken: bool) {
    if taken {
        *c = (*c + 1).min(3);
    } else {
        *c = c.saturating_sub(1);
    }
}

/// A hybrid (tournament) predictor: a gshare component indexed by
/// `PC ⊕ history`, a bimodal component indexed by `PC`, and a chooser table
/// that learns per-branch which component to trust, plus a direct-mapped BTB
/// and a return-address stack.
///
/// ```
/// use remap_cpu::Predictor;
/// let mut p = Predictor::new(12, 128, 32);
/// // A strongly-biased branch becomes predictable after training.
/// for _ in 0..8 { let pr = p.predict(10, true); p.update(10, true, 42, pr); }
/// assert!(p.predict(10, true).taken);
/// ```
#[derive(Debug, Clone)]
pub struct Predictor {
    gshare: Vec<u8>,
    bimodal: Vec<u8>,
    chooser: Vec<u8>, // 0..=3: low trusts bimodal, high trusts gshare
    history: u32,
    mask: u32,
    btb: Vec<Option<(u32, u32)>>, // (pc, target)
    ras: Vec<u32>,
    ras_max: usize,
    stats: PredStats,
}

impl Predictor {
    /// Creates a predictor with `bits`-indexed tables, `btb_entries` BTB
    /// slots and a `ras_max`-deep return-address stack.
    pub fn new(bits: u32, btb_entries: usize, ras_max: usize) -> Predictor {
        let n = 1usize << bits;
        Predictor {
            gshare: vec![1; n],
            bimodal: vec![1; n],
            chooser: vec![2; n],
            history: 0,
            mask: (n - 1) as u32,
            btb: vec![None; btb_entries],
            ras: Vec::with_capacity(ras_max),
            ras_max,
            stats: PredStats::default(),
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> &PredStats {
        &self.stats
    }

    fn gshare_idx(&self, pc: u32) -> usize {
        ((pc ^ self.history) & self.mask) as usize
    }

    fn bimodal_idx(&self, pc: u32) -> usize {
        (pc & self.mask) as usize
    }

    /// Predicts a control-flow instruction at `pc`. `conditional` selects
    /// whether the direction tables are consulted (unconditional transfers
    /// are always taken). Speculatively updates the global history.
    pub fn predict(&mut self, pc: u32, conditional: bool) -> Prediction {
        self.stats.lookups += 1;
        let history = self.history;
        let taken = if conditional {
            let g = self.gshare[self.gshare_idx(pc)] >= 2;
            let b = self.bimodal[self.bimodal_idx(pc)] >= 2;
            let use_g = self.chooser[self.bimodal_idx(pc)] >= 2;
            let t = if use_g { g } else { b };
            // Speculative history insert (recovered on mispredict).
            self.history = ((self.history << 1) | t as u32) & self.mask;
            t
        } else {
            true
        };
        let target = self.btb_lookup(pc);
        Prediction {
            taken,
            target,
            history,
        }
    }

    fn btb_lookup(&self, pc: u32) -> Option<u32> {
        let e = self.btb[(pc as usize) % self.btb.len()];
        match e {
            Some((tag, tgt)) if tag == pc => Some(tgt),
            _ => None,
        }
    }

    /// Resolves a control-flow instruction: trains the tables, installs the
    /// BTB entry, repairs speculative history on a direction mispredict.
    /// `pred` must be the value returned by the matching [`predict`] call.
    ///
    /// [`predict`]: Predictor::predict
    pub fn update(&mut self, pc: u32, taken: bool, target: u32, pred: Prediction) {
        // Train direction tables using the history at prediction time.
        let gi = ((pc ^ pred.history) & self.mask) as usize;
        let bi = (pc & self.mask) as usize;
        let g_correct = (self.gshare[gi] >= 2) == taken;
        let b_correct = (self.bimodal[bi] >= 2) == taken;
        if g_correct != b_correct {
            counter_update(&mut self.chooser[bi], g_correct);
        }
        counter_update(&mut self.gshare[gi], taken);
        counter_update(&mut self.bimodal[bi], taken);
        if taken != pred.taken {
            self.stats.dir_mispredicts += 1;
            // Repair the speculative history with the actual outcome.
            self.history = (((pred.history << 1) | taken as u32) & self.mask).to_owned();
        }
        if taken {
            let slot = (pc as usize) % self.btb.len();
            let hit = matches!(self.btb[slot], Some((tag, tgt)) if tag == pc && tgt == target);
            if !hit {
                self.stats.target_mispredicts += 1;
                self.btb[slot] = Some((pc, target));
            }
        }
    }

    /// Pushes a return address (call).
    pub fn ras_push(&mut self, ret: u32) {
        self.stats.ras_ops += 1;
        if self.ras.len() == self.ras_max {
            self.ras.remove(0);
        }
        self.ras.push(ret);
    }

    /// Pops a predicted return address (return).
    pub fn ras_pop(&mut self) -> Option<u32> {
        self.stats.ras_ops += 1;
        self.ras.pop()
    }
}

remap_snap::visit_fields!(Prediction: taken, target, history);

/// Checkpoint support: all predictor state. The counter tables travel as
/// raw bytes.
impl Visit for Predictor {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        v.exact_len(self.gshare.len())?;
        v.bytes(&mut self.gshare)?;
        v.bytes(&mut self.bimodal)?;
        v.bytes(&mut self.chooser)?;
        v.u32(&mut self.history)?;
        v.exact(&mut self.btb)?;
        v.vec(&mut self.ras, self.ras_max)?;
        self.stats.visit(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Predictor {
        Predictor::new(10, 64, 4)
    }

    #[test]
    fn learns_always_taken() {
        let mut pr = p();
        for _ in 0..4 {
            let pred = pr.predict(100, true);
            pr.update(100, true, 7, pred);
        }
        assert!(pr.predict(100, true).taken);
    }

    #[test]
    fn learns_never_taken() {
        let mut pr = p();
        for _ in 0..4 {
            let pred = pr.predict(100, true);
            pr.update(100, false, 7, pred);
        }
        assert!(!pr.predict(100, true).taken);
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        let mut pr = p();
        // Pattern TNTNTN... is history-predictable: after warmup the hybrid
        // should stop mispredicting.
        let mut t = true;
        for _ in 0..64 {
            let pred = pr.predict(5, true);
            pr.update(5, t, 9, pred);
            t = !t;
        }
        let before = pr.stats().dir_mispredicts;
        for _ in 0..64 {
            let pred = pr.predict(5, true);
            pr.update(5, t, 9, pred);
            t = !t;
        }
        let after = pr.stats().dir_mispredicts;
        assert!(
            after - before <= 4,
            "alternating pattern should be learned, got {} extra mispredicts",
            after - before
        );
    }

    #[test]
    fn btb_fill_and_hit() {
        let mut pr = p();
        let pred = pr.predict(33, true);
        assert_eq!(pred.target, None, "cold BTB misses");
        pr.update(33, true, 77, pred);
        assert_eq!(pr.predict(33, true).target, Some(77));
    }

    #[test]
    fn btb_conflict_evicts() {
        let mut pr = p();
        let pred = pr.predict(1, true);
        pr.update(1, true, 10, pred);
        let pred = pr.predict(65, true); // 65 % 64 == 1
        pr.update(65, true, 20, pred);
        assert_eq!(
            pr.predict(1, true).target,
            None,
            "conflicting entry evicted"
        );
    }

    #[test]
    fn unconditional_is_always_taken() {
        let mut pr = p();
        assert!(pr.predict(50, false).taken);
    }

    #[test]
    fn ras_lifo_and_overflow() {
        let mut pr = p();
        for i in 0..6 {
            pr.ras_push(i);
        }
        assert_eq!(pr.ras_pop(), Some(5));
        assert_eq!(pr.ras_pop(), Some(4));
        assert_eq!(pr.ras_pop(), Some(3));
        assert_eq!(pr.ras_pop(), Some(2));
        assert_eq!(pr.ras_pop(), None, "oldest entries were shifted out");
    }

    #[test]
    fn mispredict_counted() {
        let mut pr = p();
        // Train strongly not-taken, then observe taken.
        for _ in 0..4 {
            let pred = pr.predict(8, true);
            pr.update(8, false, 3, pred);
        }
        let m0 = pr.stats().dir_mispredicts;
        let pred = pr.predict(8, true);
        pr.update(8, true, 3, pred);
        assert_eq!(pr.stats().dir_mispredicts, m0 + 1);
    }
}
