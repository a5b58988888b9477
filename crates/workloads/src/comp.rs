//! Computation-only workloads (Figure 1(a)): the optimized functions of
//! Table III's first group, each as a sequential kernel and a 1-thread+SPL
//! kernel.
//!
//! Every kernel reads an input array at [`ADDR_IN`], writes an output array
//! at [`ADDR_OUT`], and is validated against a host-Rust oracle that mirrors
//! the assembly exactly.

use crate::framework::{run_checked, CompMode, Measurement, ADDR_IN, ADDR_OUT};
use remap::{CoreKind, System, SystemBuilder};
use remap_isa::{Asm, Program, Reg::*};
use remap_spl::{Dest, SplConfig, SplFunction};

/// The computation-only benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompBench {
    /// g721 encode: the `fmult` floating-point-like multiply (48% of
    /// execution).
    G721Enc,
    /// g721 decode: `fmult` with the decoder's operand mix (46%).
    G721Dec,
    /// mpeg2dec: chroma upsampling filter (`conv422to444`-style, 63%).
    Mpeg2Dec,
    /// mpeg2enc: `dist1` sum-of-absolute-differences with early exit (70%).
    Mpeg2Enc,
    /// gsmtoast: the weighting FIR filter (54%).
    GsmToast,
    /// gsmuntoast: short-term synthesis filtering, a serial IIR recurrence
    /// (76%).
    GsmUntoast,
    /// 462.libquantum: `quantum_toffoli`/`quantum_cnot` conditional bit
    /// flips over the state vector (40%).
    Libquantum,
}

impl CompBench {
    /// All benchmarks in Table III order.
    pub const ALL: [CompBench; 7] = [
        CompBench::G721Enc,
        CompBench::G721Dec,
        CompBench::Mpeg2Dec,
        CompBench::Mpeg2Enc,
        CompBench::GsmToast,
        CompBench::GsmUntoast,
        CompBench::Libquantum,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            CompBench::G721Enc => "g721enc",
            CompBench::G721Dec => "g721dec",
            CompBench::Mpeg2Dec => "mpeg2dec",
            CompBench::Mpeg2Enc => "mpeg2enc",
            CompBench::GsmToast => "gsmtoast",
            CompBench::GsmUntoast => "gsmuntoast",
            CompBench::Libquantum => "libquantum",
        }
    }

    /// Fraction of whole-program execution time the optimized functions
    /// consume (Table III).
    pub fn exec_fraction(self) -> f64 {
        match self {
            CompBench::G721Enc => 0.46,
            CompBench::G721Dec => 0.48,
            CompBench::Mpeg2Dec => 0.63,
            CompBench::Mpeg2Enc => 0.70,
            CompBench::GsmToast => 0.54,
            CompBench::GsmUntoast => 0.76,
            CompBench::Libquantum => 0.40,
        }
    }

    /// Builds the system for `mode` over `n` elements.
    pub fn build(self, mode: CompMode, n: usize) -> System {
        let program = match mode {
            CompMode::SeqOoo1 | CompMode::SeqOoo2 => self.seq_program(n),
            CompMode::Spl => self.spl_program(n),
        };
        let kind = match mode {
            CompMode::SeqOoo2 => CoreKind::Ooo2,
            _ => CoreKind::Ooo1,
        };
        let mut b = SystemBuilder::new();
        b.add_core(kind, program);
        if mode == CompMode::Spl {
            b.add_spl_cluster(SplConfig::paper(1), vec![0]);
            b.register_spl(1, self.spl_function(Dest::SelfCore));
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
    pub fn run(self, mode: CompMode, n: usize) -> Result<Measurement, String> {
        let sys = self.build(mode, n);
        run_checked(sys, 80_000_000, |s| self.check(s, n))
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

    // --- inputs ---------------------------------------------------------------

    /// Deterministic pseudo-random inputs (one or two arrays at `ADDR_IN`).
    fn inputs(self, n: usize) -> (Vec<i32>, Vec<i32>) {
        let mut s: u32 = match self {
            CompBench::G721Dec => 0x1234_5678,
            _ => 0x9e37_79b9,
        };
        let mut next = move || {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            s >> 8
        };
        let (mask_a, mask_b): (u32, u32) = match self {
            CompBench::G721Enc | CompBench::G721Dec => (0x1fff, 0x3ff),
            CompBench::Mpeg2Dec => (0xff, 0),
            CompBench::Mpeg2Enc => (0xff, 0xff),
            CompBench::GsmToast => (0x7fff, 0),
            CompBench::GsmUntoast => (0x3fff, 0),
            CompBench::Libquantum => (0x00ff_ffff, 0),
        };
        let a = (0..n).map(|_| (next() & mask_a) as i32).collect();
        let b = (0..n).map(|_| (next() & mask_b) as i32).collect();
        (a, b)
    }

    fn init_memory(self, sys: &mut System, n: usize) {
        let (a, b) = self.inputs(n);
        sys.mem_mut().write_words(ADDR_IN as u64, &a);
        sys.mem_mut().write_words(ADDR_IN as u64 + 4 * n as u64, &b);
    }

    // --- semantics (shared by oracle and SPL closures) ---------------------------

    fn eval(self, x: i64, y: i64) -> i64 {
        match self {
            CompBench::G721Enc | CompBench::G721Dec => fmult(x, y),
            CompBench::Mpeg2Dec => unreachable!("uses eval4"),
            CompBench::Mpeg2Enc => unreachable!("uses eval4"),
            CompBench::GsmToast => unreachable!("uses eval4"),
            CompBench::GsmUntoast => unreachable!("uses synth_step"),
            CompBench::Libquantum => toffoli(x),
        }
    }

    /// Host-Rust oracle mirroring the assembly exactly.
    pub fn oracle(self, n: usize) -> Vec<i32> {
        let (a, b) = self.inputs(n);
        match self {
            CompBench::G721Enc | CompBench::G721Dec => (0..n)
                .map(|i| self.eval(a[i] as i64, b[i] as i64) as i32)
                .collect(),
            CompBench::Mpeg2Dec => (0..mpeg2dec_outs(n))
                .map(|i| {
                    upsample(
                        a[i] as i64,
                        a[i + 1] as i64,
                        a[i + 2] as i64,
                        a[i + 3] as i64,
                    ) as i32
                })
                .collect(),
            CompBench::Mpeg2Enc => {
                // Blocks of 16, SAD with early exit at > 2000.
                let blocks = n / 16;
                (0..blocks)
                    .map(|blk| {
                        let mut s: i64 = 0;
                        for i in 0..16 {
                            let d = (a[blk * 16 + i] - b[blk * 16 + i]) as i64;
                            s += d.abs();
                            if s > 2000 {
                                break;
                            }
                        }
                        s as i32
                    })
                    .collect()
            }
            CompBench::GsmToast => (0..fir_outs(n))
                .map(|i| {
                    fir5(
                        a[i] as i64,
                        a[i + 1] as i64,
                        a[i + 2] as i64,
                        a[i + 3] as i64,
                        a[i + 4] as i64,
                    ) as i32
                })
                .collect(),
            CompBench::GsmUntoast => {
                let mut v = [0i64; 4];
                (0..n)
                    .map(|k| {
                        let (sri, p) = synth_step(a[k] as i64, v);
                        // State update mirrors both the asm and SPL modes.
                        v[3] = sat16(v[2] + p[2]);
                        v[2] = sat16(v[1] + p[1]);
                        v[1] = sat16(v[0] + p[0]);
                        v[0] = sri;
                        sri as i32
                    })
                    .collect()
            }
            CompBench::Libquantum => (0..n).map(|i| gate3(a[i] as i64) as i32).collect(),
        }
    }

    /// SPL function implementing the kernel's accelerated datapath.
    pub fn spl_function(self, dest: Dest) -> SplFunction {
        match self {
            CompBench::G721Enc | CompBench::G721Dec => {
                SplFunction::compute("fmult", 8, dest, |e| {
                    fmult(e.u32(0) as i64, e.u32(4) as i64) as u64
                })
            }
            CompBench::Mpeg2Dec => SplFunction::compute("upsample4", 8, dest, |e| {
                // Four up-samples per operation: inputs are the seven bytes
                // a[i..i+7], outputs pack four clamped bytes.
                let mut out = 0u64;
                for j in 0..4 {
                    let v = upsample(
                        e.u8(j) as i64,
                        e.u8(j + 1) as i64,
                        e.u8(j + 2) as i64,
                        e.u8(j + 3) as i64,
                    ) as u64;
                    out |= v << (8 * j);
                }
                out
            }),
            CompBench::Mpeg2Enc => SplFunction::compute("sad4", 5, dest, |e| {
                let mut s: i64 = 0;
                for i in 0..4 {
                    s += (e.u8(i) as i64 - e.u8(4 + i) as i64).abs();
                }
                s as u64
            }),
            CompBench::GsmToast => SplFunction::compute("fir5x4", 12, dest, |e| {
                // Four filter taps per operation over the eight packed
                // 16-bit samples a[i..i+8]; outputs pack four saturated
                // 16-bit results.
                let s = |o: usize| ((e.u32(o * 2) & 0xffff) as u16 as i16) as i64;
                let mut out = 0u64;
                for j in 0..4 {
                    let v = fir5(s(j), s(j + 1), s(j + 2), s(j + 3), s(j + 4)) as u64 & 0xffff;
                    out |= v << (16 * j);
                }
                out
            }),
            CompBench::GsmUntoast => {
                // Systolic lattice: the reflection state v[0..4] lives in
                // the row flip-flops, updated stage by stage as samples
                // stream through — successive samples pipeline wavefront
                // style, exactly like PipeRench streaming filters.
                SplFunction::stateful("synth", 14, dest, &[0; 4], |e, regs| {
                    let v = [0, 1, 2, 3].map(|i| regs[i] as i64);
                    let (sri, p) = synth_step(e.i32(0) as i64, v);
                    regs[3] = sat16(v[2] + p[2]) as u64;
                    regs[2] = sat16(v[1] + p[1]) as u64;
                    regs[1] = sat16(v[0] + p[0]) as u64;
                    regs[0] = sri as u64;
                    (sri as u64) & 0xffff
                })
            }
            CompBench::Libquantum => SplFunction::compute("gate3x2", 5, dest, |e| {
                // Two state-vector elements per operation, three fused
                // gates each.
                let lo = gate3(e.u32(0) as i64) as u64 & 0xffff_ffff;
                let hi = gate3(e.u32(4) as i64) as u64 & 0xffff_ffff;
                lo | (hi << 32)
            }),
        }
    }

    // --- programs --------------------------------------------------------------

    fn seq_program(self, n: usize) -> Program {
        match self {
            CompBench::G721Enc | CompBench::G721Dec => g721_seq(self.name(), n),
            CompBench::Mpeg2Dec => mpeg2dec_seq(n),
            CompBench::Mpeg2Enc => mpeg2enc_seq(n),
            CompBench::GsmToast => gsmtoast_seq(n),
            CompBench::GsmUntoast => gsmuntoast_seq(n),
            CompBench::Libquantum => libquantum_seq(n),
        }
    }

    fn spl_program(self, n: usize) -> Program {
        match self {
            CompBench::G721Enc | CompBench::G721Dec => g721_spl(self.name(), n),
            CompBench::Mpeg2Dec => mpeg2dec_spl(n),
            CompBench::Mpeg2Enc => mpeg2enc_spl(n),
            CompBench::GsmToast => gsmtoast_spl(n),
            CompBench::GsmUntoast => gsmuntoast_spl(n),
            CompBench::Libquantum => libquantum_spl(n),
        }
    }
}

// --- shared arithmetic -----------------------------------------------------

/// g721's `fmult`: a 16-bit floating-point-style multiply built from
/// exponent extraction, mantissa scaling, and variable shifts.
pub fn fmult(an: i64, srn: i64) -> i64 {
    let anmag = an & 0x1fff;
    // Exponent: number of significant bits.
    let mut e = 0i64;
    let mut t = anmag;
    while t > 0 {
        t >>= 1;
        e += 1;
    }
    let anexp = e - 6;
    let anmant = if anmag == 0 {
        1 << 5
    } else if anexp >= 0 {
        anmag >> anexp
    } else {
        anmag << -anexp
    };
    let wanexp = anexp + ((srn >> 6) & 0xf) - 13;
    let wanmant = (anmant * (srn & 0x3f) + 0x30) >> 4;
    if wanexp >= 0 {
        (wanmant << wanexp.min(30)) & 0x7fff
    } else {
        wanmant >> (-wanexp).min(30)
    }
}

/// mpeg2dec's chroma upsampling tap with clamping to 0..255.
pub fn upsample(m1: i64, x0: i64, x1: i64, x2: i64) -> i64 {
    let v = (21 * (x0 + x1) - 5 * (m1 + x2) + 16) >> 5;
    v.clamp(0, 255)
}

/// gsmtoast's 5-tap weighting filter with 16-bit saturation.
pub fn fir5(x0: i64, x1: i64, x2: i64, x3: i64, x4: i64) -> i64 {
    let acc = -13 * x0 + 37 * x1 + 170 * x2 + 37 * x3 - 13 * x4;
    sat16(acc >> 7)
}

/// Saturate to 16-bit signed range.
pub fn sat16(v: i64) -> i64 {
    v.clamp(-32768, 32767)
}

/// GSM's rounded fixed-point multiply.
pub fn mult_r(a: i64, b: i64) -> i64 {
    sat16((a * b + 16384) >> 15)
}

/// One step of the short-term synthesis lattice filter: returns the output
/// sample and the three reflection products needed for the state update.
pub fn synth_step(input: i64, v: [i64; 4]) -> (i64, [i64; 3]) {
    const RRP: [i64; 4] = [13107, -9830, 6553, -3277];
    let mut sri = input;
    for j in 0..4 {
        sri = sat16(sri - mult_r(RRP[j], v[j]));
    }
    (
        sri,
        [
            mult_r(RRP[0], sri),
            mult_r(RRP[1], sri),
            mult_r(RRP[2], sri),
        ],
    )
}

/// libquantum's toffoli conditional bit flip.
pub fn toffoli(state: i64) -> i64 {
    const CONTROL: i64 = 0x48; // bits 3 and 6
    const TARGET: i64 = 0x100;
    if state & CONTROL == CONTROL {
        state ^ TARGET
    } else {
        state
    }
}

/// The fused three-gate sequence applied to each state-vector element:
/// a toffoli, a cnot, and a conditional phase-bit flip (the
/// `quantum_toffoli`/`quantum_cnot` pair of Table III plus the following
/// gate of the circuit).
pub fn gate3(state: i64) -> i64 {
    let s = toffoli(state);
    let s = if s & 0x2 != 0 { s ^ 0x800 } else { s };
    if s & 0x10 != 0 {
        s ^ 0x1
    } else {
        s
    }
}

/// mpeg2dec output count: `(n-4)` rounded down to a multiple of four (the
/// SPL kernel produces four up-samples per fabric operation).
pub fn mpeg2dec_outs(n: usize) -> usize {
    n.saturating_sub(4) & !3
}

/// gsmtoast output count, 4-aligned for the same reason.
pub fn fir_outs(n: usize) -> usize {
    n.saturating_sub(4) & !3
}

// --- assembly kernels ---------------------------------------------------------
//
// Register use: r1 = i, r2 = n, r3 = in base, r4 = out base, r5.. temps.

fn prologue(a: &mut Asm, n: usize) {
    a.li(R1, 0);
    a.li(R2, n as i32);
    a.li(R3, ADDR_IN as i32);
    a.li(R4, ADDR_OUT as i32);
}

fn g721_seq(name: &str, n: usize) -> Program {
    let mut a = Asm::new(format!("{name}-seq"));
    prologue(&mut a, n);
    a.li(R15, n as i32 * 4); // offset of srn array
    a.add(R15, R3, R15);
    a.label("loop");
    a.slli(R5, R1, 2);
    a.add(R6, R3, R5);
    a.lw(R7, R6, 0); // an
    a.add(R6, R15, R5);
    a.lw(R8, R6, 0); // srn
                     // anmag = an & 0x1fff
    a.andi(R9, R7, 0x1fff);
    // exponent loop: e in r10
    a.li(R10, 0);
    a.mv(R11, R9);
    a.label("explo");
    a.beq(R11, R0, "expdone");
    a.srai(R11, R11, 1);
    a.addi(R10, R10, 1);
    a.j("explo");
    a.label("expdone");
    a.addi(R10, R10, -6); // anexp
                          // anmant
    a.bne(R9, R0, "nz");
    a.li(R12, 32);
    a.j("mantdone");
    a.label("nz");
    a.blt(R10, R0, "neg_exp");
    a.sra(R12, R9, R10);
    a.j("mantdone");
    a.label("neg_exp");
    a.sub(R13, R0, R10);
    a.sll(R12, R9, R13);
    a.label("mantdone");
    // wanexp = anexp + ((srn>>6)&0xf) - 13
    a.srai(R13, R8, 6);
    a.andi(R13, R13, 0xf);
    a.add(R13, R10, R13);
    a.addi(R13, R13, -13);
    // wanmant = (anmant*(srn&0x3f)+0x30)>>4
    a.andi(R14, R8, 0x3f);
    a.mul(R14, R12, R14);
    a.addi(R14, R14, 0x30);
    a.srai(R14, R14, 4);
    // retval
    a.blt(R13, R0, "rshift");
    a.sll(R14, R14, R13);
    a.andi(R14, R14, 0x7fff);
    a.j("store");
    a.label("rshift");
    a.sub(R13, R0, R13);
    a.sra(R14, R14, R13);
    a.label("store");
    a.add(R6, R4, R5);
    a.sw(R14, R6, 0);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("g721 seq assembles")
}

use crate::pipeline::pipelined_spl_kernel;

fn g721_spl(name: &str, n: usize) -> Program {
    let srn_off = n as i32 * 4;
    pipelined_spl_kernel(
        name,
        n,
        4,
        2,
        |a| {
            a.add(R6, R3, R5);
            a.lw(R7, R6, 0);
            a.lw(R8, R6, srn_off);
            a.spl_load(R7, 0, 4);
            a.spl_load(R8, 4, 4);
            a.spl_init(1);
        },
        |a| {
            a.spl_store(R14);
            a.add(R6, R4, R5);
            a.sw(R14, R6, 0);
        },
    )
}

fn mpeg2dec_seq(n: usize) -> Program {
    let mut a = Asm::new("mpeg2dec-seq");
    prologue(&mut a, mpeg2dec_outs(n));
    a.label("loop");
    a.slli(R5, R1, 2);
    a.add(R6, R3, R5);
    a.lw(R7, R6, 0); // m1
    a.lw(R8, R6, 4); // x0
    a.lw(R9, R6, 8); // x1
    a.lw(R10, R6, 12); // x2
    a.add(R11, R8, R9);
    a.muli(R11, R11, 21);
    a.add(R12, R7, R10);
    a.muli(R12, R12, 5);
    a.sub(R11, R11, R12);
    a.addi(R11, R11, 16);
    a.srai(R11, R11, 5);
    // clamp 0..255
    a.bge(R11, R0, "notneg");
    a.li(R11, 0);
    a.label("notneg");
    a.li(R12, 255);
    a.blt(R11, R12, "inrange");
    a.li(R11, 255);
    a.label("inrange");
    a.add(R6, R4, R5);
    a.sw(R11, R6, 0);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("mpeg2dec seq assembles")
}

fn mpeg2dec_spl(n: usize) -> Program {
    // Four up-samples per fabric operation (chunk = 16 output bytes).
    pipelined_spl_kernel(
        "mpeg2dec",
        mpeg2dec_outs(n) / 4,
        4,
        4,
        |a| {
            a.add(R6, R3, R5);
            for j in 0..7 {
                a.lw(R7, R6, 4 * j);
                a.spl_load(R7, j as u8, 1);
            }
            a.spl_init(1);
        },
        |a| {
            a.spl_store(R15);
            a.add(R6, R4, R5);
            a.andi(R7, R15, 0xff);
            a.sw(R7, R6, 0);
            for j in 1..4 {
                a.srli(R15, R15, 8);
                a.andi(R7, R15, 0xff);
                a.sw(R7, R6, 4 * j);
            }
        },
    )
}

fn mpeg2enc_seq(n: usize) -> Program {
    let blocks = n / 16;
    let mut a = Asm::new("mpeg2enc-seq");
    a.li(R1, 0); // block index
    a.li(R2, blocks as i32);
    a.li(R3, ADDR_IN as i32);
    a.li(R4, ADDR_OUT as i32);
    a.li(R15, n as i32 * 4);
    a.add(R15, R3, R15); // b array
    a.li(R16, 2000); // early-exit limit
    a.label("blk");
    a.li(R10, 0); // s
    a.li(R11, 0); // i
    a.slli(R5, R1, 6); // block byte offset = blk*16*4
    a.label("inner");
    a.slli(R6, R11, 2);
    a.add(R6, R6, R5);
    a.add(R7, R3, R6);
    a.lw(R8, R7, 0); // a[i]
    a.add(R7, R15, R6);
    a.lw(R9, R7, 0); // b[i]
    a.sub(R8, R8, R9);
    a.bge(R8, R0, "abs_done");
    a.sub(R8, R0, R8);
    a.label("abs_done");
    a.add(R10, R10, R8);
    a.blt(R16, R10, "early"); // s > 2000
    a.addi(R11, R11, 1);
    a.slti(R12, R11, 16);
    a.bne(R12, R0, "inner");
    a.label("early");
    a.slli(R6, R1, 2);
    a.add(R6, R4, R6);
    a.sw(R10, R6, 0);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "blk");
    a.halt();
    a.assemble().expect("mpeg2enc seq assembles")
}

fn mpeg2enc_spl(n: usize) -> Program {
    // SPL computes 4-wide partial SADs; the core accumulates and keeps the
    // early-exit semantics at 4-element granularity boundaries. To preserve
    // exact oracle equality, the core replicates the scalar early-exit by
    // checking after each element *within* the SPL result: instead we feed
    // the SPL one element pair at a time when near the limit. For
    // simplicity and exactness, this kernel uses 4-wide ops only while
    // `s + 4*255 <= limit`, then falls back to scalar for the tail.
    let blocks = n / 16;
    let mut a = Asm::new("mpeg2enc-spl");
    a.li(R1, 0);
    a.li(R2, blocks as i32);
    a.li(R3, ADDR_IN as i32);
    a.li(R4, ADDR_OUT as i32);
    a.li(R15, n as i32 * 4);
    a.add(R15, R3, R15);
    a.li(R16, 2000);
    a.li(R17, 2000 - 4 * 255); // safe threshold for 4-wide ops
    a.label("blk");
    a.li(R10, 0); // s
    a.li(R11, 0); // i
    a.slli(R5, R1, 6);
    a.label("inner");
    a.blt(R17, R10, "scalar"); // s too close to the limit: go scalar
                               // Pack a[i..i+4] and b[i..i+4] as bytes into the SPL entry.
    a.slli(R6, R11, 2);
    a.add(R6, R6, R5);
    a.add(R7, R3, R6);
    a.lw(R8, R7, 0);
    a.spl_load(R8, 0, 1);
    a.lw(R8, R7, 4);
    a.spl_load(R8, 1, 1);
    a.lw(R8, R7, 8);
    a.spl_load(R8, 2, 1);
    a.lw(R8, R7, 12);
    a.spl_load(R8, 3, 1);
    a.add(R7, R15, R6);
    a.lw(R8, R7, 0);
    a.spl_load(R8, 4, 1);
    a.lw(R8, R7, 4);
    a.spl_load(R8, 5, 1);
    a.lw(R8, R7, 8);
    a.spl_load(R8, 6, 1);
    a.lw(R8, R7, 12);
    a.spl_load(R8, 7, 1);
    a.spl_init(1);
    a.spl_store(R8);
    a.add(R10, R10, R8);
    a.addi(R11, R11, 4);
    a.slti(R12, R11, 16);
    a.bne(R12, R0, "inner");
    a.j("done_blk");
    a.label("scalar");
    a.slti(R12, R11, 16);
    a.beq(R12, R0, "done_blk");
    a.slli(R6, R11, 2);
    a.add(R6, R6, R5);
    a.add(R7, R3, R6);
    a.lw(R8, R7, 0);
    a.add(R7, R15, R6);
    a.lw(R9, R7, 0);
    a.sub(R8, R8, R9);
    a.bge(R8, R0, "abs_done");
    a.sub(R8, R0, R8);
    a.label("abs_done");
    a.add(R10, R10, R8);
    a.blt(R16, R10, "done_blk");
    a.addi(R11, R11, 1);
    a.j("scalar");
    a.label("done_blk");
    a.slli(R6, R1, 2);
    a.add(R6, R4, R6);
    a.sw(R10, R6, 0);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "blk");
    a.halt();
    a.assemble().expect("mpeg2enc spl assembles")
}

fn gsmtoast_seq(n: usize) -> Program {
    let mut a = Asm::new("gsmtoast-seq");
    prologue(&mut a, fir_outs(n));
    a.label("loop");
    a.slli(R5, R1, 2);
    a.add(R6, R3, R5);
    a.lw(R7, R6, 0);
    a.lw(R8, R6, 4);
    a.lw(R9, R6, 8);
    a.lw(R10, R6, 12);
    a.lw(R11, R6, 16);
    a.muli(R7, R7, -13);
    a.muli(R8, R8, 37);
    a.muli(R9, R9, 170);
    a.muli(R10, R10, 37);
    a.muli(R11, R11, -13);
    a.add(R7, R7, R8);
    a.add(R7, R7, R9);
    a.add(R7, R7, R10);
    a.add(R7, R7, R11);
    a.srai(R7, R7, 7);
    // saturate
    a.li(R12, 32767);
    a.blt(R7, R12, "nothigh");
    a.mv(R7, R12);
    a.label("nothigh");
    a.li(R12, -32768);
    a.bge(R7, R12, "notlow");
    a.mv(R7, R12);
    a.label("notlow");
    a.add(R6, R4, R5);
    a.sw(R7, R6, 0);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("gsmtoast seq assembles")
}

fn gsmtoast_spl(n: usize) -> Program {
    // Four filter outputs per fabric operation (chunk = 16 output bytes).
    pipelined_spl_kernel(
        "gsmtoast",
        fir_outs(n) / 4,
        4,
        4,
        |a| {
            a.add(R6, R3, R5);
            for j in 0..8 {
                a.lw(R7, R6, 4 * j);
                a.spl_load(R7, 2 * j as u8, 2);
            }
            a.spl_init(1);
        },
        |a| {
            a.spl_store(R15);
            a.add(R6, R4, R5);
            for j in 0..4 {
                a.slli(R7, R15, 48 - 16 * j);
                a.srai(R7, R7, 48);
                a.sw(R7, R6, 4 * j);
            }
        },
    )
}

fn gsmuntoast_seq(n: usize) -> Program {
    // State: v0..v3 in r10..r13. RRP constants in r16..r19.
    let mut a = Asm::new("gsmuntoast-seq");
    prologue(&mut a, n);
    a.li(R10, 0);
    a.li(R11, 0);
    a.li(R12, 0);
    a.li(R13, 0);
    a.li(R16, 13107);
    a.li(R17, -9830);
    a.li(R18, 6553);
    a.li(R19, -3277);
    a.label("loop");
    a.slli(R5, R1, 2);
    a.add(R6, R3, R5);
    a.lw(R7, R6, 0); // sri = in[k]
                     // four lattice stages: sri = sat16(sri - mult_r(rrp[j], v[j]))
    for (rrp, v) in [(R16, R10), (R17, R11), (R18, R12), (R19, R13)] {
        emit_mult_r(&mut a, R8, rrp, v); // r8 = mult_r
        a.sub(R7, R7, R8);
        emit_sat16(&mut a, R7);
    }
    // products for state update
    emit_mult_r(&mut a, R8, R16, R7); // p0
    emit_mult_r(&mut a, R9, R17, R7); // p1
    emit_mult_r(&mut a, R14, R18, R7); // p2
                                       // v3 = sat16(v2 + p2); v2 = sat16(v1 + p1); v1 = sat16(v0 + p0); v0 = sri
    a.add(R13, R12, R14);
    emit_sat16(&mut a, R13);
    a.add(R12, R11, R9);
    emit_sat16(&mut a, R12);
    a.add(R11, R10, R8);
    emit_sat16(&mut a, R11);
    a.mv(R10, R7);
    a.add(R6, R4, R5);
    a.sw(R7, R6, 0);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("gsmuntoast seq assembles")
}

fn gsmuntoast_spl(n: usize) -> Program {
    // Systolic: the lattice state lives in the fabric's flip-flops, so the
    // core only streams samples in and results out, and successive samples
    // pipeline through the rows.
    pipelined_spl_kernel(
        "gsmuntoast",
        n,
        4,
        2,
        |a| {
            a.add(R6, R3, R5);
            a.lw(R7, R6, 0);
            a.spl_load(R7, 0, 4);
            a.spl_init(1);
        },
        |a| {
            a.spl_store(R8);
            a.slli(R8, R8, 48);
            a.srai(R8, R8, 48); // sri, sign-extended
            a.add(R6, R4, R5);
            a.sw(R8, R6, 0);
        },
    )
}

fn libquantum_seq(n: usize) -> Program {
    let mut a = Asm::new("libquantum-seq");
    prologue(&mut a, n);
    a.li(R15, 0x48);
    a.label("loop");
    a.slli(R5, R1, 2);
    a.add(R6, R3, R5);
    a.lw(R7, R6, 0);
    // toffoli
    a.and(R8, R7, R15);
    a.bne(R8, R15, "g1");
    a.xori(R7, R7, 0x100);
    a.label("g1");
    // cnot on bit 1 -> bit 11
    a.andi(R8, R7, 2);
    a.beq(R8, R0, "g2");
    a.xori(R7, R7, 0x800);
    a.label("g2");
    // conditional phase-bit flip
    a.andi(R8, R7, 0x10);
    a.beq(R8, R0, "g3");
    a.xori(R7, R7, 1);
    a.label("g3");
    a.add(R6, R4, R5);
    a.sw(R7, R6, 0);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("libquantum seq assembles")
}

fn libquantum_spl(n: usize) -> Program {
    // Two elements per fabric operation (chunk = 8 bytes in and out).
    pipelined_spl_kernel(
        "libquantum",
        n / 2,
        6,
        3,
        |a| {
            a.add(R6, R3, R5);
            a.lw(R7, R6, 0);
            a.spl_load(R7, 0, 4);
            a.lw(R7, R6, 4);
            a.spl_load(R7, 4, 4);
            a.spl_init(1);
        },
        |a| {
            a.spl_store(R7);
            a.add(R6, R4, R5);
            a.sw(R7, R6, 0); // low 32 bits
            a.srli(R8, R7, 32);
            a.sw(R8, R6, 4);
        },
    )
}

/// Emits `dst = mult_r(ra, rb) = sat16((ra*rb + 16384) >> 15)`.
/// Clobbers `r28`.
fn emit_mult_r(a: &mut Asm, dst: remap_isa::Reg, ra: remap_isa::Reg, rb: remap_isa::Reg) {
    a.mul(dst, ra, rb);
    a.li(R28, 16384);
    a.add(dst, dst, R28);
    a.srai(dst, dst, 15);
    emit_sat16(a, dst);
}

/// Emits in-place 16-bit saturation of `r` using fresh labels. Clobbers
/// `r29`.
fn emit_sat16(a: &mut Asm, r: remap_isa::Reg) {
    let hi = a.fresh_label("sat_hi");
    let lo = a.fresh_label("sat_lo");
    a.li(R29, 32767);
    a.blt(r, R29, hi.clone());
    a.mv(r, R29);
    a.label(hi);
    a.li(R29, -32768);
    a.bge(r, R29, lo.clone());
    a.mv(r, R29);
    a.label(lo);
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 96;

    #[test]
    fn all_benches_all_modes_match_oracle() {
        for bench in CompBench::ALL {
            for mode in CompMode::ALL {
                let m = bench.run(mode, N).unwrap_or_else(|e| panic!("{e}"));
                assert!(m.cycles > 0 && m.energy_pj > 0.0);
            }
        }
    }

    #[test]
    fn spl_mode_speeds_up_branchy_kernels() {
        // fmult's exponent loop and conditionals collapse into the fabric.
        let seq = CompBench::G721Enc.run(CompMode::SeqOoo1, 256).unwrap();
        let spl = CompBench::G721Enc.run(CompMode::Spl, 256).unwrap();
        assert!(
            spl.cycles * 2 < seq.cycles,
            "SPL {} vs seq {} cycles",
            spl.cycles,
            seq.cycles
        );
    }

    #[test]
    fn ooo2_beats_ooo1_sequentially() {
        // A kernel whose OOO2 advantage is window ILP, not just memory
        // stalls: on streaming kernels like gsm_toast the stride prefetcher
        // hides the misses and erases (even inverts) the gap, so the
        // ranking is asserted where it is microarchitecturally robust.
        let o1 = CompBench::GsmUntoast.run(CompMode::SeqOoo1, 256).unwrap();
        let o2 = CompBench::GsmUntoast.run(CompMode::SeqOoo2, 256).unwrap();
        assert!(
            o2.cycles < o1.cycles,
            "ooo2 {} vs ooo1 {}",
            o2.cycles,
            o1.cycles
        );
    }

    #[test]
    fn fmult_matches_reference_semantics() {
        assert_eq!(fmult(0, 0), {
            // anmag 0 → anmant 32, wanexp = -6 - 13 = -19 → 0
            0
        });
        assert!(fmult(0x1234, 0x3ff) >= 0);
    }

    #[test]
    fn exec_fractions_match_table3() {
        assert_eq!(CompBench::Mpeg2Enc.exec_fraction(), 0.70);
        assert_eq!(CompBench::Libquantum.exec_fraction(), 0.40);
    }
}
