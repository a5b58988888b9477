//! # remap-fault
//!
//! Deterministic fault-injection primitives for the ReMAP simulator.
//!
//! The SPL fabric is a *shared, dynamically reconfigured* resource, and the
//! hardware queues and barrier networks it subsumes are exactly the places
//! where transient faults, backpressure, and stragglers turn into silent
//! corruption or hangs. This crate provides the seeded plan
//! ([`FaultPlan`]), the per-site decision machinery ([`Roller`]/[`Draw`]),
//! and the accounting types ([`SiteCounters`], [`FaultReport`]) that the
//! subsystem crates thread through their models.
//!
//! ## Determinism invariant
//!
//! Every fault decision is a pure function of `(seed, site, event index)` —
//! a counter of *architectural events* (SPL completions, queue sends,
//! barrier releases, cache line fills), never of wall time or of how the
//! simulator chose to advance cycles. The quiescence skip engine bulk-jumps
//! idle stretches; because no architectural event occurs inside a skipped
//! stretch, a skipped run draws exactly the same fault sequence as a ticked
//! run and stays bit-identical to it, fault counters included.
//!
//! ```
//! use remap_fault::{Roller, SiteCfg, SITE_SPL};
//!
//! let mut a = Roller::new(42, SITE_SPL);
//! let mut b = Roller::new(42, SITE_SPL);
//! let cfg = SiteCfg::rate(500_000); // one fault per two events, on average
//! let fires: Vec<bool> = (0..8).map(|_| a.draw().fires(&cfg)).collect();
//! let again: Vec<bool> = (0..8).map(|_| b.draw().fires(&cfg)).collect();
//! assert_eq!(fires, again, "same seed, same site: same decisions");
//! ```

/// Fault rates are expressed in events per million (ppm).
pub const PPM_SCALE: u64 = 1_000_000;

/// Site-domain separator for SPL row-output bit-flips (per cluster:
/// `SITE_SPL ^ (cluster << 8)`).
pub const SITE_SPL: u64 = 0x51;
/// Site-domain separator for hardware-queue transit faults.
pub const SITE_HWQ: u64 = 0x52;
/// Site-domain separator for barrier-release delays.
pub const SITE_BARRIER: u64 = 0x53;
/// Site-domain separator for cache line-fill corruption.
pub const SITE_CACHE: u64 = 0x54;

/// Rate and event-window configuration of one injection site.
///
/// The window is expressed in *event indices* at the site (0-based count of
/// completions / sends / releases / fills), not cycles: cycle-based windows
/// would couple fault decisions to how the run loop advances time and break
/// the skip-engine bit-parity invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteCfg {
    /// Faults per million events; 0 disables the site.
    pub rate_ppm: u32,
    /// First event index (inclusive) at which the site may fire.
    pub from_event: u64,
    /// First event index at which the site stops firing (exclusive).
    pub until_event: u64,
}

impl SiteCfg {
    /// A disabled site.
    pub const OFF: SiteCfg = SiteCfg {
        rate_ppm: 0,
        from_event: 0,
        until_event: u64::MAX,
    };

    /// An unbounded-window site firing at `rate_ppm` events per million.
    pub fn rate(rate_ppm: u32) -> SiteCfg {
        SiteCfg {
            rate_ppm,
            ..SiteCfg::OFF
        }
    }

    /// A site active only for event indices in `[from_event, until_event)`.
    pub fn windowed(rate_ppm: u32, from_event: u64, until_event: u64) -> SiteCfg {
        SiteCfg {
            rate_ppm,
            from_event,
            until_event,
        }
    }

    /// Whether the site can fire at all for event index `event`.
    pub fn active(&self, event: u64) -> bool {
        self.rate_ppm > 0 && event >= self.from_event && event < self.until_event
    }
}

impl Default for SiteCfg {
    fn default() -> Self {
        SiteCfg::OFF
    }
}

/// The full seeded fault plan: one [`SiteCfg`] per injection site plus the
/// modeled detection/recovery parameters (`*_parity`, timeouts, costs).
///
/// All cycle costs are in *core cycles* except [`spl_replay_ticks`]
/// (SPL cycles — the fabric runs at a quarter of the core clock).
///
/// [`spl_replay_ticks`]: FaultPlan::spl_replay_ticks
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Master seed; every site derives its own stream from it.
    pub seed: u64,
    /// SPL row-output bit-flips (one roll per completing operation).
    pub spl_bitflip: SiteCfg,
    /// Parity/CRC on SPL results: a flipped result is detected at the output
    /// bus, the rows are scrubbed, and the operation replays. Without it the
    /// flipped result is delivered (silent corruption).
    pub spl_parity: bool,
    /// Row scrub + replay cost in SPL cycles (minimum 1).
    pub spl_replay_ticks: u64,
    /// Hardware-queue message drops (one roll per otherwise-successful send).
    pub hwq_drop: SiteCfg,
    /// Hardware-queue message duplication.
    pub hwq_dup: SiteCfg,
    /// Hardware-queue transient link congestion (delayed delivery).
    pub hwq_delay: SiteCfg,
    /// Sequence numbers on queue messages: a duplicate is detected and
    /// discarded at the receiver. Without them the duplicate is delivered.
    pub hwq_seqno: bool,
    /// Cycles for the sender to detect a lost message (ack timeout).
    pub hwq_ack_timeout: u64,
    /// First retry backoff in cycles; doubles per consecutive drop.
    pub hwq_backoff_base: u64,
    /// Consecutive drops tolerated before the run escalates with
    /// `RunError::FaultEscalation`.
    pub hwq_max_attempts: u32,
    /// Sender stall in cycles when the link is transiently congested.
    pub hwq_delay_cycles: u64,
    /// Barrier-release delays (one roll per completed barrier episode).
    pub barrier_delay: SiteCfg,
    /// Cycles a faulted release is held back.
    pub barrier_delay_cycles: u64,
    /// Watchdog threshold: a release delayed by at least this many cycles
    /// demotes the barrier configuration to the software path for the rest
    /// of the run. 0 disables the watchdog.
    pub barrier_watchdog: u64,
    /// Extra cycles every release of a demoted configuration pays (the
    /// software barrier's cost over the hardware path).
    pub barrier_sw_cost: u64,
    /// Cache line corruption (one roll per full-miss line fill).
    pub cache_corrupt: SiteCfg,
    /// Line parity: a corrupted fill is detected and re-fetched (scrub
    /// latency). Without it one bit of the filled word flips in memory.
    pub cache_parity: bool,
    /// Extra latency of a detected-and-scrubbed fill, in core cycles.
    pub cache_scrub_cycles: u32,
}

impl FaultPlan {
    /// A plan with every site disabled and every protection enabled.
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            spl_bitflip: SiteCfg::OFF,
            spl_parity: true,
            spl_replay_ticks: 6,
            hwq_drop: SiteCfg::OFF,
            hwq_dup: SiteCfg::OFF,
            hwq_delay: SiteCfg::OFF,
            hwq_seqno: true,
            hwq_ack_timeout: 32,
            hwq_backoff_base: 8,
            hwq_max_attempts: 12,
            hwq_delay_cycles: 24,
            barrier_delay: SiteCfg::OFF,
            barrier_delay_cycles: 48,
            barrier_watchdog: 40,
            barrier_sw_cost: 24,
            cache_corrupt: SiteCfg::OFF,
            cache_parity: true,
            cache_scrub_cycles: 30,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::quiet(0)
    }
}

/// SplitMix64: a full-period 64-bit mixer with excellent avalanche, used as
/// a stateless hash so a draw depends only on `(seed, site, event)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-site event counter producing one deterministic [`Draw`] per
/// architectural event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Roller {
    seed: u64,
    site: u64,
    event: u64,
}

impl Roller {
    /// A roller for `site` under master `seed`, starting at event 0.
    pub fn new(seed: u64, site: u64) -> Roller {
        Roller {
            seed: splitmix64(seed ^ splitmix64(site)),
            site,
            event: 0,
        }
    }

    /// Events drawn so far (the index the *next* draw will use).
    pub fn event(&self) -> u64 {
        self.event
    }

    /// The stream position, for checkpointing: a roller rebuilt from the
    /// same `(seed, site)` and repositioned draws exactly the stream the
    /// original would have continued with.
    pub fn event_mut(&mut self) -> &mut u64 {
        &mut self.event
    }

    /// Consumes the next event index and returns its deterministic draw.
    pub fn draw(&mut self) -> Draw {
        let event = self.event;
        self.event += 1;
        Draw {
            event,
            hash: splitmix64(self.seed ^ event.wrapping_mul(0x2545_f491_4f6c_dd1d)),
        }
    }
}

/// One event's worth of deterministic randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draw {
    /// Event index this draw belongs to.
    pub event: u64,
    /// Raw 64-bit hash; low bits drive the rate check, high bits the
    /// auxiliary pick (bit position, etc.) so the two are independent.
    pub hash: u64,
}

impl Draw {
    /// Uniform value in `[0, 1_000_000)` used for rate checks.
    pub fn ppm(&self) -> u64 {
        self.hash % PPM_SCALE
    }

    /// Whether this event fires under `cfg` (rate and window).
    pub fn fires(&self, cfg: &SiteCfg) -> bool {
        cfg.active(self.event) && self.ppm() < cfg.rate_ppm as u64
    }

    /// Auxiliary uniform pick in `[0, bound)` from the high hash bits.
    pub fn pick(&self, bound: u64) -> u64 {
        (self.hash >> 32) % bound.max(1)
    }

    /// Multi-way site selection: stacks the active `cfgs` into adjacent ppm
    /// bands and returns the index of the band this draw lands in, if any.
    /// With a single draw per event, at most one of the stacked sites fires.
    pub fn select(&self, cfgs: &[SiteCfg]) -> Option<usize> {
        let p = self.ppm();
        let mut acc = 0u64;
        for (i, c) in cfgs.iter().enumerate() {
            if !c.active(self.event) {
                continue;
            }
            acc += c.rate_ppm as u64;
            if p < acc {
                return Some(i);
            }
        }
        None
    }
}

/// Injected/detected/recovered/silent accounting for one site.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SiteCounters {
    /// Faults injected at this site.
    pub injected: u64,
    /// Of those, detected by the modeled protection mechanism.
    pub detected: u64,
    /// Of the detected, fully recovered (replayed, retried, re-fetched).
    pub recovered: u64,
    /// Faults that reached architectural state undetected.
    pub silent: u64,
}

impl SiteCounters {
    /// Accumulates another site's counters into this one.
    pub fn add(&mut self, other: &SiteCounters) {
        self.injected += other.injected;
        self.detected += other.detected;
        self.recovered += other.recovered;
        self.silent += other.silent;
    }
}

/// Aggregated fault accounting of one run, per injection site.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultReport {
    /// SPL row-output bit-flips (summed over clusters).
    pub spl: SiteCounters,
    /// Hardware-queue transit faults.
    pub hwq: SiteCounters,
    /// Barrier-release delays.
    pub barrier: SiteCounters,
    /// Cache line-fill corruption.
    pub cache: SiteCounters,
    /// Hardware-queue send retries performed (drop recovery attempts).
    pub hwq_retries: u64,
    /// Barrier configurations demoted to the software path by the watchdog.
    pub barrier_demotions: u64,
}

impl FaultReport {
    /// Total faults injected across all sites.
    pub fn total_injected(&self) -> u64 {
        self.spl.injected + self.hwq.injected + self.barrier.injected + self.cache.injected
    }

    /// Total faults that reached architectural state undetected.
    pub fn total_silent(&self) -> u64 {
        self.spl.silent + self.hwq.silent + self.barrier.silent + self.cache.silent
    }

    /// Total faults fully recovered by the modeled mechanisms.
    pub fn total_recovered(&self) -> u64 {
        self.spl.recovered + self.hwq.recovered + self.barrier.recovered + self.cache.recovered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_per_seed_site_event() {
        let mut a = Roller::new(7, SITE_HWQ);
        let mut b = Roller::new(7, SITE_HWQ);
        for _ in 0..1000 {
            assert_eq!(a.draw(), b.draw());
        }
        // A different site (or seed) decorrelates the stream.
        let mut c = Roller::new(7, SITE_SPL);
        let mut a2 = Roller::new(7, SITE_HWQ);
        let divergent = (0..64).any(|_| a2.draw().hash != c.draw().hash);
        assert!(divergent, "site separation must change the stream");
    }

    #[test]
    fn rate_is_approximately_honoured() {
        let mut r = Roller::new(99, SITE_CACHE);
        let cfg = SiteCfg::rate(100_000); // 10%
        let fired = (0..100_000).filter(|_| r.draw().fires(&cfg)).count();
        assert!(
            (8_000..12_000).contains(&fired),
            "10% rate over 100k events fired {fired} times"
        );
    }

    #[test]
    fn window_gates_events() {
        let cfg = SiteCfg::windowed(PPM_SCALE as u32, 10, 20); // always fires inside
        let mut r = Roller::new(1, SITE_BARRIER);
        let fired: Vec<u64> = (0..30)
            .filter_map(|_| {
                let d = r.draw();
                d.fires(&cfg).then_some(d.event)
            })
            .collect();
        assert_eq!(fired, (10..20).collect::<Vec<u64>>());
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut r = Roller::new(3, SITE_SPL);
        assert!((0..10_000).all(|_| !r.draw().fires(&SiteCfg::OFF)));
    }

    #[test]
    fn select_stacks_bands_and_honours_windows() {
        let drop = SiteCfg::rate(300_000);
        let dup = SiteCfg::rate(300_000);
        let off = SiteCfg::OFF;
        let mut r = Roller::new(21, SITE_HWQ);
        let mut counts = [0usize; 3];
        let mut none = 0usize;
        for _ in 0..30_000 {
            match r.draw().select(&[drop, off, dup]) {
                Some(i) => counts[i] += 1,
                None => none += 1,
            }
        }
        assert_eq!(counts[1], 0, "disabled band never selected");
        assert!(counts[0] > 7_000 && counts[2] > 7_000, "{counts:?}");
        assert!(none > 9_000, "{none} draws outside all bands");
        // Band assignment is exclusive: totals add up.
        assert_eq!(counts[0] + counts[2] + none, 30_000);
    }

    #[test]
    fn pick_is_bounded() {
        let mut r = Roller::new(5, SITE_SPL);
        for _ in 0..1000 {
            assert!(r.draw().pick(64) < 64);
        }
        assert_eq!(r.draw().pick(0), 0, "bound 0 clamps to 1");
    }

    #[test]
    fn report_aggregation() {
        let mut rep = FaultReport::default();
        rep.spl.add(&SiteCounters {
            injected: 3,
            detected: 3,
            recovered: 3,
            silent: 0,
        });
        rep.cache.add(&SiteCounters {
            injected: 2,
            detected: 0,
            recovered: 0,
            silent: 2,
        });
        assert_eq!(rep.total_injected(), 5);
        assert_eq!(rep.total_silent(), 2);
        assert_eq!(rep.total_recovered(), 3);
    }
}
