//! Idealized dedicated hardware barrier network (homogeneous baseline,
//! §V-C.2).
//!
//! Models dedicated-interconnect barrier proposals (Beckmann &
//! Polychronopoulos; Shang & Hwang): cores announce arrival over a private
//! network with no cost, and all participants release the cycle after the
//! last arrival. Reusable across barrier instances via generation counters
//! (sense reversal).

use remap_snap::{SnapError, Visit, Visitor};
use std::collections::HashMap;

#[derive(Debug, Clone, Default)]
struct BarState {
    total: u32,
    count: u32,
    generation: u64,
    /// Generation at which each waiting core arrived.
    waiting: HashMap<usize, u64>,
}

/// An ideal hardware barrier network.
///
/// Cores poll [`HwBarrierNet::poll`] each cycle while blocked at a `hwbar`
/// instruction; the first poll registers arrival, subsequent polls check for
/// release.
#[derive(Debug, Clone, Default)]
pub struct HwBarrierNet {
    barriers: HashMap<u8, BarState>,
    /// Barrier episodes completed.
    pub completions: u64,
}

impl HwBarrierNet {
    /// Creates an empty network.
    pub fn new() -> HwBarrierNet {
        HwBarrierNet::default()
    }

    /// Declares barrier `id` to synchronize `total` cores. Must be called
    /// before any participant polls.
    pub fn configure(&mut self, id: u8, total: u32) {
        self.barriers.entry(id).or_default().total = total;
    }

    /// Polls barrier `id` from `core`. The first poll of an episode arrives;
    /// returns `true` once the episode has released this core.
    ///
    /// Polling a barrier that was never configured returns `false` forever
    /// (it can never release); callers that want a structured error check
    /// [`HwBarrierNet::is_configured`] first, as the system loop does.
    pub fn poll(&mut self, core: usize, id: u8) -> bool {
        let Some(b) = self.barriers.get_mut(&id) else {
            return false;
        };
        match b.waiting.get(&core).copied() {
            None => {
                // Arrival.
                b.count += 1;
                if b.count == b.total {
                    // Last arrival: release everyone.
                    b.generation += 1;
                    b.count = 0;
                    b.waiting.remove(&core);
                    self.completions += 1;
                    true
                } else {
                    b.waiting.insert(core, b.generation);
                    false
                }
            }
            Some(gen) => {
                if b.generation > gen {
                    b.waiting.remove(&core);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Whether barrier `id` has been configured. Callers that cannot
    /// tolerate the poll panics (the panic-free system loop) check this
    /// before polling and surface a structured error instead.
    pub fn is_configured(&self, id: u8) -> bool {
        self.barriers.contains_key(&id)
    }

    /// Whether the next [`HwBarrierNet::poll`] by `core` would make progress
    /// (arrive or observe a release), without mutating anything. A core that
    /// has not yet arrived always progresses (its first poll counts it); a
    /// waiting core progresses only once a newer generation has released.
    pub fn poll_ready(&self, core: usize, id: u8) -> bool {
        let Some(b) = self.barriers.get(&id) else {
            return false;
        };
        match b.waiting.get(&core).copied() {
            None => true,
            Some(gen) => b.generation > gen,
        }
    }

    /// Configured barrier geometry as sorted `(id, participant total)`
    /// pairs. Exported for the static message-flow verifier.
    pub fn configured(&self) -> Vec<(u8, u32)> {
        let mut v: Vec<(u8, u32)> = self.barriers.iter().map(|(&id, b)| (id, b.total)).collect();
        v.sort_unstable();
        v
    }
}

impl Visit for BarState {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        v.u32(&mut self.total)?;
        v.u32(&mut self.count)?;
        v.u64(&mut self.generation)?;
        v.map(&mut self.waiting, 1 << 20)
    }
}

/// Checkpoint support: all barrier state, in id order; decoding replaces
/// any existing configuration.
impl Visit for HwBarrierNet {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        v.map(&mut self.barriers, 256)?;
        v.u64(&mut self.completions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_core_barrier_releases_both() {
        let mut net = HwBarrierNet::new();
        net.configure(0, 2);
        assert!(!net.poll(0, 0), "first core waits");
        assert!(!net.poll(0, 0), "still waiting");
        assert!(net.poll(1, 0), "last arrival releases immediately");
        assert!(net.poll(0, 0), "waiter observes release");
        assert_eq!(net.completions, 1);
    }

    #[test]
    fn barrier_is_reusable() {
        let mut net = HwBarrierNet::new();
        net.configure(3, 2);
        for _ in 0..5 {
            assert!(!net.poll(0, 3));
            assert!(net.poll(1, 3));
            assert!(net.poll(0, 3));
        }
        assert_eq!(net.completions, 5);
    }

    #[test]
    fn interleaved_episodes_do_not_confuse_generations() {
        let mut net = HwBarrierNet::new();
        net.configure(0, 2);
        assert!(!net.poll(0, 0));
        assert!(net.poll(1, 0));
        // Core 1 races ahead into the next episode before core 0 noticed.
        assert!(!net.poll(1, 0), "core 1 arrives at episode 2");
        assert!(net.poll(0, 0), "core 0 releases from episode 1");
        assert!(!net.poll(1, 0), "episode 2 still waiting for core 0");
        assert!(net.poll(0, 0), "core 0's arrival completes episode 2");
        assert!(net.poll(1, 0));
        assert_eq!(net.completions, 2);
    }

    #[test]
    fn independent_ids() {
        let mut net = HwBarrierNet::new();
        net.configure(0, 2);
        net.configure(1, 2);
        assert!(!net.poll(0, 0));
        assert!(!net.poll(0, 1));
        assert!(net.poll(1, 1));
        assert!(net.poll(1, 0));
    }

    #[test]
    fn unconfigured_never_releases() {
        let mut net = HwBarrierNet::new();
        assert!(!net.poll(0, 9));
        assert!(!net.poll_ready(0, 9));
        assert!(!net.is_configured(9));
    }

    #[test]
    fn configured_geometry_is_sorted() {
        let mut net = HwBarrierNet::new();
        net.configure(2, 8);
        net.configure(0, 4);
        assert_eq!(net.configured(), vec![(0, 4), (2, 8)]);
    }
}
