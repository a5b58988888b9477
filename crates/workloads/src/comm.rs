//! Communication+computation workloads (Figures 1(b), 5, 10, 11): the
//! second group of Table III, each hand-parallelized into a
//! producer/consumer pair exactly as §III-A describes for hmmer.
//!
//! Every benchmark runs in seven modes ([`CommMode`]): sequential OOO1/OOO2
//! baselines, 1-thread+SPL computation, SPL communication only, SPL
//! computation+communication, idealized hardware queues on OOO2 cores
//! (OOO2+Comm), and software queues through shared memory (§V-B).
//!
//! Communicating SPL modes get **half the fabric** (12 of 24 rows), matching
//! §V-A's assumption that another communicating pair owns the other half.

use crate::framework::{run_checked, CommMode, Measurement, ADDR_IN, ADDR_OUT, ADDR_SHARED};
use remap::{CoreKind, System, SystemBuilder};
use remap_isa::{Asm, Program, Reg, Reg::*};
use remap_spl::{Dest, SplConfig, SplFunction};

/// SPL configuration id used for each benchmark's main function.
pub const CFG_MAIN: u16 = 1;
/// SPL configuration id of the pass-through (communication-only) function.
pub const CFG_PASS: u16 = 2;

/// The communication workloads of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommBench {
    /// Unix `wc`: byte classification and word/line counting (100%).
    Wc,
    /// unepic: Huffman-style decode with a pointer-chasing load and an
    /// unpredictable branch (22%).
    Unepic,
    /// cjpeg: `rgb_ycc_convert` plus a block checksum standing in for the
    /// DCT stage (50%).
    Cjpeg,
    /// adpcm decoder: step-size table walk with clamps, fully serial (99%).
    Adpcm,
    /// 300.twolf `new_dbox_a`: net half-perimeter cost with min/max tracking
    /// (30%).
    Twolf,
    /// 456.hmmer `P7Viterbi`: exactly the Figure 5 inner loop (85%).
    Hmmer,
    /// 473.astar `regwayobj::makebound2`: wavefront expansion with
    /// compare-and-update of neighbor distances (33%).
    Astar,
}

impl CommBench {
    /// All benchmarks in Table III order.
    pub const ALL: [CommBench; 7] = [
        CommBench::Wc,
        CommBench::Unepic,
        CommBench::Cjpeg,
        CommBench::Adpcm,
        CommBench::Twolf,
        CommBench::Hmmer,
        CommBench::Astar,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            CommBench::Wc => "wc",
            CommBench::Unepic => "unepic",
            CommBench::Cjpeg => "cjpeg",
            CommBench::Adpcm => "adpcm",
            CommBench::Twolf => "twolf",
            CommBench::Hmmer => "hmmer",
            CommBench::Astar => "astar",
        }
    }

    /// Table III's "% Exec Time" for the optimized functions.
    pub fn exec_fraction(self) -> f64 {
        match self {
            CommBench::Wc => 1.00,
            CommBench::Unepic => 0.22,
            CommBench::Cjpeg => 0.50,
            CommBench::Adpcm => 0.99,
            CommBench::Twolf => 0.30,
            CommBench::Hmmer => 0.85,
            CommBench::Astar => 0.33,
        }
    }

    /// Builds the system for `mode` over `n` elements.
    pub fn build(self, mode: CommMode, n: usize) -> System {
        let mut b = SystemBuilder::new();
        match mode {
            CommMode::SeqOoo1 | CommMode::SeqOoo2 => {
                let kind = if mode == CommMode::SeqOoo2 {
                    CoreKind::Ooo2
                } else {
                    CoreKind::Ooo1
                };
                b.add_core(kind, self.seq_program(n));
            }
            CommMode::Comp1T => {
                b.add_core(CoreKind::Ooo1, self.comp1t_program(n));
                b.add_spl_cluster(SplConfig::with_rows(1, 12), vec![0]);
                b.register_spl(CFG_MAIN, self.spl_function(Dest::SelfCore));
            }
            CommMode::Comm2T => {
                b.add_core(CoreKind::Ooo1, self.comm_producer(n));
                b.add_core(CoreKind::Ooo1, self.comm_consumer(n));
                b.add_spl_cluster(SplConfig::with_rows(2, 12), vec![0, 1]);
                b.register_spl(CFG_PASS, pass_function());
            }
            CommMode::CompComm2T => {
                b.add_core(CoreKind::Ooo1, self.compcomm_producer(n));
                b.add_core(CoreKind::Ooo1, self.compcomm_consumer(n));
                b.add_spl_cluster(SplConfig::with_rows(2, 12), vec![0, 1]);
                b.register_spl(CFG_MAIN, self.spl_function(Dest::Thread(1)));
            }
            CommMode::Ooo2Comm => {
                b.add_core(CoreKind::Ooo2, self.hwq_producer(n));
                b.add_core(CoreKind::Ooo2, self.hwq_consumer(n));
            }
            CommMode::SwQueue2T => {
                b.add_core(CoreKind::Ooo1, self.swq_producer(n));
                b.add_core(CoreKind::Ooo1, self.swq_consumer(n));
            }
        }
        let mut sys = b.build();
        self.init_memory(&mut sys, n);
        sys
    }

    /// Builds, runs, and validates; returns the measurement.
    ///
    /// # Errors
    ///
    /// Returns a description when the run dies or the oracle check fails.
    pub fn run(self, mode: CommMode, n: usize) -> Result<Measurement, String> {
        let sys = self.build(mode, n);
        run_checked(sys, 200_000_000, |s| self.check(s, n))
            .map_err(|e| format!("{} [{}]: {e}", self.name(), mode.label()))
    }

    /// Validates simulated memory against the oracle.
    pub fn check(self, sys: &System, n: usize) -> Result<(), String> {
        let expect = self.oracle(n);
        let got = sys.mem().read_words(ADDR_OUT as u64, expect.len());
        if got == expect {
            Ok(())
        } else {
            let idx = got
                .iter()
                .zip(&expect)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            Err(format!(
                "{}: output mismatch at {idx}: got {} expected {}",
                self.name(),
                got[idx],
                expect[idx]
            ))
        }
    }

    // =====================================================================
    // data
    // =====================================================================

    fn rng(self) -> impl FnMut() -> u32 {
        let mut s: u32 = 0xface_0000 ^ (self as u32).wrapping_mul(0x9e37_79b9);
        move || {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            s >> 8
        }
    }

    fn init_memory(self, sys: &mut System, n: usize) {
        let mut r = self.rng();
        let m = sys.mem_mut();
        match self {
            CommBench::Wc => {
                for i in 0..n {
                    let x = r() % 100;
                    let c = if x < 5 {
                        b'\n'
                    } else if x < 25 {
                        b' '
                    } else {
                        b'a' + (x % 26) as u8
                    };
                    m.write_u8(ADDR_IN as u64 + i as u64, c);
                }
            }
            CommBench::Unepic => {
                let tokens: Vec<i32> = (0..n).map(|_| (r() % 16) as i32).collect();
                m.write_words(ADDR_IN as u64, &tokens);
                m.write_words(LUT_BASE as u64, &unepic_lut());
                m.write_words(LUT2_BASE as u64, &unepic_lut2());
            }
            CommBench::Cjpeg => {
                let px: Vec<i32> = (0..n).map(|_| (r() & 0xff_ffff) as i32).collect();
                m.write_words(ADDR_IN as u64, &px);
            }
            CommBench::Adpcm => {
                let codes: Vec<i32> = (0..n).map(|_| (r() % 16) as i32).collect();
                m.write_words(ADDR_IN as u64, &codes);
                m.write_words(STEP_BASE as u64, &step_table());
                m.write_words(IDXT_BASE as u64, &index_table());
            }
            CommBench::Twolf => {
                let xy: Vec<i32> = (0..2 * n).map(|_| (r() % 1024) as i32).collect();
                m.write_words(ADDR_IN as u64, &xy);
            }
            CommBench::Hmmer => {
                // 13 planar arrays of M+1 small signed values, plus an
                // interleaved operand stream for the SPL modes: per row k,
                // the eight 16-bit mc operands (six [k-1] values, bp[k],
                // ms[k]) packed into one 16-byte record — one SPL row width,
                // loadable with four word loads.
                let len = n + 1;
                let mut arr = Vec::new();
                for j in 0..13 {
                    let vals: Vec<i32> = (0..len).map(|_| (r() % 2001) as i32 - 1000).collect();
                    m.write_words(ADDR_IN as u64 + (j * len * 4) as u64, &vals);
                    arr.push(vals);
                }
                for k in 1..=n {
                    let fields: [i32; 8] = [
                        arr[0][k - 1], // mpp
                        arr[3][k - 1], // tpmm
                        arr[1][k - 1], // ip
                        arr[4][k - 1], // tpim
                        arr[2][k - 1], // dpp
                        arr[5][k - 1], // tpdm
                        arr[6][k],     // bp[k] (xmb added in the fabric)
                        arr[7][k],     // ms[k]
                    ];
                    for (f, v) in fields.iter().enumerate() {
                        let addr = (HMMER_ILV + 16 * (k as i64 - 1) + 2 * f as i64) as u64;
                        m.write_u8(addr, *v as u8);
                        m.write_u8(addr + 1, (*v >> 8) as u8);
                    }
                }
            }
            CommBench::Astar => {
                let cells: Vec<i32> = (0..n)
                    .map(|_| GRID_W + 1 + (r() as i32 % (GRID - 2 * GRID_W - 2)))
                    .collect();
                let wave: Vec<i32> = (0..n).map(|_| (r() % 60) as i32).collect();
                let cost: Vec<i32> = (0..4 * n).map(|_| 1 + (r() % 10) as i32).collect();
                m.write_words(ADDR_IN as u64, &cells);
                m.write_words(WAVE_BASE as u64, &wave);
                m.write_words(COST_BASE as u64, &cost);
                m.write_words(DELTA_BASE as u64, &[1, -1, GRID_W, -GRID_W]);
                // dist lives in the output region (the consumer owns and
                // mutates it); initialized identically in the oracle.
                let dist: Vec<i32> = (0..GRID).map(|_| 20 + (r() % 100) as i32).collect();
                m.write_words(ADDR_OUT as u64 + 4, &dist);
            }
        }
    }

    // =====================================================================
    // oracles
    // =====================================================================

    /// Host-Rust oracle producing the exact expected output-region contents.
    pub fn oracle(self, n: usize) -> Vec<i32> {
        let mut r = self.rng();
        match self {
            CommBench::Wc => {
                let mut chars = 0i32;
                let mut words = 0i32;
                let mut lines = 0i32;
                let mut in_word = 0i32;
                for _ in 0..n {
                    let x = r() % 100;
                    let c = if x < 5 {
                        b'\n'
                    } else if x < 25 {
                        b' '
                    } else {
                        b'a' + (x % 26) as u8
                    };
                    chars += 1;
                    let is_space = c == b' ' || c == b'\n';
                    if c == b'\n' {
                        lines += 1;
                    }
                    if !is_space && in_word == 0 {
                        words += 1;
                    }
                    in_word = if is_space { 0 } else { 1 };
                }
                vec![chars, words, lines]
            }
            CommBench::Unepic => {
                let lut = unepic_lut();
                let lut2 = unepic_lut2();
                let mut acc = 0i32;
                (0..n)
                    .map(|_| {
                        let token = (r() % 16) as usize;
                        let mut v = lut[token];
                        if v < 0 {
                            v = lut2[(-v - 1) as usize];
                        }
                        acc = acc.wrapping_add(v);
                        acc
                    })
                    .collect()
            }
            CommBench::Cjpeg => {
                let mut out = vec![0i32; n + n / 8];
                let mut s = 0i32;
                for (i, slot) in out.iter_mut().take(n).enumerate() {
                    let px = (r() & 0xff_ffff) as i64;
                    let packed = rgb_ycc(px);
                    *slot = packed as i32;
                    s += (packed & 0xff) as i32;
                    if i % 8 == 7 {
                        // filled below (can't write out[n + i/8] while
                        // borrowing): record separately.
                    }
                }
                // Second pass for block sums (deterministic regeneration).
                let mut r2 = self.rng();
                let mut s2 = 0i32;
                for i in 0..n {
                    let px = (r2() & 0xff_ffff) as i64;
                    let packed = rgb_ycc(px);
                    s2 += (packed & 0xff) as i32;
                    if i % 8 == 7 {
                        out[n + i / 8] = s2;
                        s2 = 0;
                    }
                }
                let _ = s;
                out
            }
            CommBench::Adpcm => {
                let codes: Vec<i64> = (0..n).map(|_| (r() % 16) as i64).collect();
                let steps = step_table();
                let idxt = index_table();
                let mut valpred = 0i64;
                let mut index = 0i64;
                codes
                    .iter()
                    .map(|&c| {
                        let step = steps[index as usize] as i64;
                        let vpdiff = adpcm_vpdiff(c, step);
                        valpred = (valpred + vpdiff).clamp(-32768, 32767);
                        index = (index + idxt[c as usize] as i64).clamp(0, 88);
                        valpred as i32
                    })
                    .collect()
            }
            CommBench::Twolf => {
                let xy: Vec<i64> = (0..2 * n).map(|_| (r() % 1024) as i64).collect();
                let nets = n / 8;
                let mut out = vec![0i32; 2 * nets];
                for net in 0..nets {
                    let mut cost = 0i64;
                    let mut minx = i64::MAX;
                    let mut maxx = i64::MIN;
                    for t in 0..8 {
                        let x = xy[2 * (net * 8 + t)];
                        let y = xy[2 * (net * 8 + t) + 1];
                        cost += (x - 512).abs() + (y - 512).abs();
                        minx = minx.min(x);
                        maxx = maxx.max(x);
                    }
                    out[2 * net] = cost as i32;
                    out[2 * net + 1] = (maxx - minx) as i32;
                }
                out
            }
            CommBench::Hmmer => {
                let m = n;
                let len = m + 1;
                let mut arr = Vec::new();
                for _ in 0..13 {
                    let vals: Vec<i64> = (0..len).map(|_| (r() % 2001) as i64 - 1000).collect();
                    arr.push(vals);
                }
                let (mpp, ip, dpp, tpmm) = (&arr[0], &arr[1], &arr[2], &arr[3]);
                let (tpim, tpdm, bp, ms) = (&arr[4], &arr[5], &arr[6], &arr[7]);
                let (tpdd, tpmd, tpmi, tpii, is_) =
                    (&arr[8], &arr[9], &arr[10], &arr[11], &arr[12]);
                let mut mc = vec![0i64; len];
                let mut dc = vec![0i64; len];
                let mut ic = vec![0i64; len];
                for k in 1..=m {
                    mc[k] = hmmer_mc(
                        mpp[k - 1],
                        tpmm[k - 1],
                        ip[k - 1],
                        tpim[k - 1],
                        dpp[k - 1],
                        tpdm[k - 1],
                        XMB + bp[k],
                        ms[k],
                    );
                    let mut d = dc[k - 1] + tpdd[k - 1];
                    let sc = mc[k - 1] + tpmd[k - 1];
                    if sc > d {
                        d = sc;
                    }
                    if d < NEG_INFTY {
                        d = NEG_INFTY;
                    }
                    dc[k] = d;
                    if k < m {
                        let mut i = mpp[k] + tpmi[k];
                        let sc = ip[k] + tpii[k];
                        if sc > i {
                            i = sc;
                        }
                        i += is_[k];
                        if i < NEG_INFTY {
                            i = NEG_INFTY;
                        }
                        ic[k] = i;
                    }
                }
                let mut out = Vec::with_capacity(3 * len);
                out.extend(mc.iter().map(|&v| v as i32));
                out.extend(dc.iter().map(|&v| v as i32));
                out.extend(ic.iter().map(|&v| v as i32));
                out
            }
            CommBench::Astar => {
                let cells: Vec<i32> = (0..n)
                    .map(|_| GRID_W + 1 + (r() as i32 % (GRID - 2 * GRID_W - 2)))
                    .collect();
                let wave: Vec<i32> = (0..n).map(|_| (r() % 60) as i32).collect();
                let cost: Vec<i32> = (0..4 * n).map(|_| 1 + (r() % 10) as i32).collect();
                let delta = [1, -1, GRID_W, -GRID_W];
                let mut dist: Vec<i32> = (0..GRID).map(|_| 20 + (r() % 100) as i32).collect();
                let mut count = 0i32;
                for i in 0..n {
                    for d in 0..4 {
                        let nbr = (cells[i] + delta[d]) as usize;
                        let nd = wave[i] + cost[4 * i + d];
                        if nd < dist[nbr] {
                            dist[nbr] = nd;
                            count += 1;
                        }
                    }
                }
                let mut out = vec![count];
                out.extend(dist);
                out
            }
        }
    }

    // =====================================================================
    // SPL functions
    // =====================================================================

    /// The benchmark's accelerated datapath as an SPL function.
    pub fn spl_function(self, dest: Dest) -> SplFunction {
        match self {
            CommBench::Wc => {
                // Eight bytes stream through the 16-byte-wide rows per
                // operation; the row flip-flops hold the running stream
                // state (in_word, word count, line count) — a streaming
                // reduction computed while data flows to the consumer,
                // which then only drains running totals.
                SplFunction::stateful("wc_count8", 8, dest, &[0], |e, state| {
                    let s = state[0];
                    let mut in_word = s & 1;
                    let mut words = (s >> 1) & 0x7f_ffff;
                    let mut lines = s >> 24;
                    for i in 0..8 {
                        let c = e.u8(i);
                        let is_space = c == b' ' || c == b'\n';
                        words += (!is_space && in_word == 0) as u64;
                        lines += (c == b'\n') as u64;
                        in_word = !is_space as u64;
                    }
                    state[0] = in_word | (words << 1) | (lines << 24);
                    (words & 0xffff) | ((lines & 0xffff) << 16)
                })
            }
            CommBench::Unepic => SplFunction::compute("tok_class", 4, dest, |e| {
                let v = e.i32(0) as i64;
                let neg = (v < 0) as u64;
                let off = if v < 0 { ((-v - 1) * 4) as u64 } else { 0 };
                ((v as u64) & 0xffff) | (neg << 16) | (off << 24)
            }),
            CommBench::Cjpeg => {
                SplFunction::compute("rgb_ycc", 10, dest, |e| rgb_ycc(e.u32(0) as i64) as u64)
            }
            CommBench::Adpcm => SplFunction::compute("vpdiff", 8, dest, |e| {
                let c = e.u8(0) as i64;
                let step = e.i32(4) as i64;
                (adpcm_vpdiff(c, step) as u64) & 0xffff_ffff
            }),
            CommBench::Twolf => SplFunction::compute("manhattan", 6, dest, |e| {
                let x = e.i32(0) as i64;
                let y = e.i32(4) as i64;
                let cost = (x - 512).abs() + (y - 512).abs();
                ((cost as u64) & 0xffff) | (((x as u64) & 0xffff) << 16)
            }),
            CommBench::Hmmer => SplFunction::compute("p7v_mc", 10, dest, |e| {
                let f = |o: usize| ((e.u32(o * 2) & 0xffff) as u16 as i16) as i64;
                // xmb is a configured constant; the fabric adds it to bp[k].
                let mc = hmmer_mc(f(0), f(1), f(2), f(3), f(4), f(5), XMB + f(6), f(7));
                (mc as u64) & 0xffff
            }),
            CommBench::Astar => SplFunction::compute("bound2", 5, dest, |e| {
                let cell = e.i32(0) as i64;
                let dir = e.u8(4) as i64;
                let wave = (e.u32(8) & 0xffff) as i64;
                let cost = ((e.u32(8) >> 16) & 0xffff) as i64;
                let delta = [1i64, -1, GRID_W as i64, -(GRID_W as i64)][dir as usize];
                let nbr = cell + delta;
                let nd = wave + cost;
                ((nbr as u64) & 0xffff) | (((nd as u64) & 0xffff) << 16)
            }),
        }
    }

    // =====================================================================
    // programs (emitters live in `comm_progs`)
    // =====================================================================

    fn seq_program(self, n: usize) -> Program {
        crate::comm_progs::seq(self, n)
    }
    fn comp1t_program(self, n: usize) -> Program {
        crate::comm_progs::comp1t(self, n)
    }
    fn comm_producer(self, n: usize) -> Program {
        crate::comm_progs::producer(self, n, Transport::SplPass)
    }
    fn comm_consumer(self, n: usize) -> Program {
        crate::comm_progs::consumer(self, n, Transport::SplPass)
    }
    fn compcomm_producer(self, n: usize) -> Program {
        crate::comm_progs::compcomm_producer(self, n)
    }
    fn compcomm_consumer(self, n: usize) -> Program {
        crate::comm_progs::compcomm_consumer(self, n)
    }
    fn hwq_producer(self, n: usize) -> Program {
        crate::comm_progs::producer(self, n, Transport::Hwq)
    }
    fn hwq_consumer(self, n: usize) -> Program {
        crate::comm_progs::consumer(self, n, Transport::Hwq)
    }
    fn swq_producer(self, n: usize) -> Program {
        crate::comm_progs::producer(self, n, Transport::Swq)
    }
    fn swq_consumer(self, n: usize) -> Program {
        crate::comm_progs::consumer(self, n, Transport::Swq)
    }
}

/// How a producer/consumer pair communicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Through the SPL with the pass-through function (2Th+Comm).
    SplPass,
    /// Idealized hardware queues (OOO2+Comm).
    Hwq,
    /// Software ring buffer in shared memory.
    Swq,
}

/// The communication-only pass function (2 rows: input alignment + bypass).
pub fn pass_function() -> SplFunction {
    SplFunction::compute("pass", 2, Dest::Thread(1), |e| e.u32(0) as u64)
}

// --- shared constants / tables ---------------------------------------------

/// hmmer's `xmb` scalar operand.
pub const XMB: i64 = 55;
/// hmmer's −∞ floor (16-bit score space).
pub const NEG_INFTY: i64 = -30000;
/// astar grid width.
pub const GRID_W: i32 = 64;
/// astar grid cells.
pub const GRID: i32 = 64 * 16;

/// Address of unepic's first-level table.
pub const LUT_BASE: i64 = ADDR_IN + 0x4000;
/// Address of unepic's second-level (pointer-chased) table.
pub const LUT2_BASE: i64 = ADDR_IN + 0x4100;
/// Address of adpcm's step-size table.
pub const STEP_BASE: i64 = ADDR_IN + 0x4000;
/// Address of adpcm's index-adaptation table.
pub const IDXT_BASE: i64 = ADDR_IN + 0x4200;
/// Address of astar's per-cell wavefront distances.
pub const WAVE_BASE: i64 = ADDR_IN + 0x8000;
/// Address of astar's per-edge costs.
pub const COST_BASE: i64 = ADDR_IN + 0xc000;
/// Address of astar's neighbor-delta table.
pub const DELTA_BASE: i64 = ADDR_IN + 0x14000;
/// Address of hmmer's interleaved 16-byte-per-row operand stream.
pub const HMMER_ILV: i64 = ADDR_IN + 0x40000;

fn unepic_lut() -> Vec<i32> {
    (0..16)
        .map(|j| if j < 8 { j * 7 + 1 } else { -(j - 8) - 1 })
        .collect()
}

fn unepic_lut2() -> Vec<i32> {
    (0..8).map(|j| 3 * (j + 1) * (j + 1)).collect()
}

/// The 89-entry IMA ADPCM step-size table.
pub fn step_table() -> Vec<i32> {
    vec![
        7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37, 41, 45, 50, 55, 60,
        66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173, 190, 209, 230, 253, 279, 307, 337, 371,
        408, 449, 494, 544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878,
        2066, 2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894, 6484, 7132, 7845,
        8630, 9493, 10442, 11487, 12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086,
        29794, 32767,
    ]
}

/// The IMA ADPCM index-adaptation table.
pub fn index_table() -> Vec<i32> {
    vec![-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8]
}

/// ADPCM's signed value delta for code `c` at step size `step`.
pub fn adpcm_vpdiff(c: i64, step: i64) -> i64 {
    let mut vpdiff = step >> 3;
    if c & 4 != 0 {
        vpdiff += step;
    }
    if c & 2 != 0 {
        vpdiff += step >> 1;
    }
    if c & 1 != 0 {
        vpdiff += step >> 2;
    }
    if c & 8 != 0 {
        -vpdiff
    } else {
        vpdiff
    }
}

/// cjpeg's RGB→YCC conversion on a packed `r | g<<8 | b<<16` pixel,
/// returning `y | cb<<8 | cr<<16`.
pub fn rgb_ycc(px: i64) -> i64 {
    let r = px & 0xff;
    let g = (px >> 8) & 0xff;
    let b = (px >> 16) & 0xff;
    let y = (77 * r + 150 * g + 29 * b) >> 8;
    let cb = ((-43 * r - 85 * g + 128 * b) >> 8) + 128;
    let cr = ((128 * r - 107 * g - 21 * b) >> 8) + 128;
    y | (cb << 8) | (cr << 16)
}

/// hmmer's `mc[k]` dataflow (Figure 6): max of four sums plus `ms`, floored
/// at −∞. `xb` is the precomputed `xmb + bp[k]`.
#[allow(clippy::too_many_arguments)]
pub fn hmmer_mc(
    mpp: i64,
    tpmm: i64,
    ip: i64,
    tpim: i64,
    dpp: i64,
    tpdm: i64,
    xb: i64,
    ms: i64,
) -> i64 {
    let mut mc = mpp + tpmm;
    let sc = ip + tpim;
    if sc > mc {
        mc = sc;
    }
    let sc = dpp + tpdm;
    if sc > mc {
        mc = sc;
    }
    if xb > mc {
        mc = xb;
    }
    mc += ms;
    if mc < NEG_INFTY {
        mc = NEG_INFTY;
    }
    mc
}

// --- software-queue emission --------------------------------------------------

/// Shared-memory ring-buffer layout for the software-queue mode.
pub mod swq {
    use super::ADDR_SHARED;
    /// Consumer-published head counter.
    pub const HEAD: i64 = ADDR_SHARED;
    /// Producer-published tail counter.
    pub const TAIL: i64 = ADDR_SHARED + 64;
    /// Ring storage.
    pub const BUF: i64 = ADDR_SHARED + 128;
    /// Entries in the ring — sized like the hardware queues it stands in
    /// for (a deeper queue would hide less of the coherence ping-pong the
    /// paper's §V-B comparison is about).
    pub const CAPACITY: i32 = 8;
}

/// Emits the software-queue register setup (both roles). Reserves
/// `r20`–`r23`.
pub fn swq_prologue(a: &mut Asm) {
    a.li(R20, swq::HEAD as i32);
    a.li(R21, swq::TAIL as i32);
    a.li(R22, swq::BUF as i32);
    a.li(R23, 0); // local index (tail for producer, head for consumer)
}

/// Emits a blocking software-queue send of `val`. Clobbers `r24`–`r26`.
pub fn swq_send(a: &mut Asm, val: Reg) {
    let full = a.fresh_label("swq_full");
    a.label(full.clone());
    a.lw(R24, R20, 0); // head
    a.sub(R25, R23, R24);
    a.slti(R26, R25, swq::CAPACITY);
    a.beq(R26, R0, full); // full → spin
    a.andi(R25, R23, swq::CAPACITY - 1);
    a.slli(R25, R25, 2);
    a.add(R25, R22, R25);
    a.sw(val, R25, 0);
    a.fence(); // data visible before the tail publish
    a.addi(R23, R23, 1);
    a.sw(R23, R21, 0);
}

/// Emits a blocking software-queue receive into `dst`. Clobbers `r24`–`r26`.
pub fn swq_recv(a: &mut Asm, dst: Reg) {
    let empty = a.fresh_label("swq_empty");
    a.label(empty.clone());
    a.lw(R24, R21, 0); // tail
    a.beq(R24, R23, empty); // empty → spin
    a.andi(R25, R23, swq::CAPACITY - 1);
    a.slli(R25, R25, 2);
    a.add(R25, R22, R25);
    a.lw(dst, R25, 0);
    a.addi(R23, R23, 1);
    a.sw(R23, R20, 0);
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 128;

    #[test]
    fn all_benches_all_modes_match_oracle() {
        for bench in CommBench::ALL {
            for mode in CommMode::ALL {
                let m = bench.run(mode, N).unwrap_or_else(|e| panic!("{e}"));
                assert!(m.cycles > 0, "{} {:?}", bench.name(), mode);
            }
        }
    }

    #[test]
    fn compcomm_beats_comm_only() {
        // The headline claim: integrated computation+communication beats
        // communication alone (Figure 10).
        for bench in [CommBench::Hmmer, CommBench::Adpcm, CommBench::Wc] {
            let comm = bench.run(CommMode::Comm2T, 256).unwrap();
            let cc = bench.run(CommMode::CompComm2T, 256).unwrap();
            assert!(
                cc.cycles < comm.cycles,
                "{}: CompComm {} !< Comm {}",
                bench.name(),
                cc.cycles,
                comm.cycles
            );
        }
    }

    #[test]
    fn software_queues_are_catastrophic() {
        // §V-B: software queues degrade performance vs the sequential
        // baseline.
        let seq = CommBench::Wc.run(CommMode::SeqOoo1, 256).unwrap();
        let swq = CommBench::Wc.run(CommMode::SwQueue2T, 256).unwrap();
        assert!(
            swq.cycles > seq.cycles,
            "sw queues {} should be slower than seq {}",
            swq.cycles,
            seq.cycles
        );
    }

    #[test]
    fn adpcm_vpdiff_reference() {
        assert_eq!(adpcm_vpdiff(0, 8), 1);
        assert_eq!(adpcm_vpdiff(7, 8), 1 + 8 + 4 + 2);
        assert_eq!(adpcm_vpdiff(15, 8), -(1 + 8 + 4 + 2));
    }

    #[test]
    fn hmmer_mc_floors_at_neg_infty() {
        assert_eq!(
            hmmer_mc(-29000, -2000, -30000, -1000, -30000, -1000, -31000, -500),
            NEG_INFTY
        );
    }

    #[test]
    fn exec_fractions_match_table3() {
        assert_eq!(CommBench::Wc.exec_fraction(), 1.00);
        assert_eq!(CommBench::Hmmer.exec_fraction(), 0.85);
        assert_eq!(CommBench::Adpcm.exec_fraction(), 0.99);
    }
}
