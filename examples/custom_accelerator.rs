//! Building your own accelerated pipeline on the public API: a CRC-like
//! streaming checksum is computed in the fabric while raw words stream from
//! a producer core to a consumer core (Figure 1(b) usage with a
//! user-defined function), demonstrating virtualization along the way.
//!
//! ```sh
//! cargo run --release --example custom_accelerator
//! ```

use remap_suite::isa::{Asm, Reg::*};
use remap_suite::spl::{Dest, SplConfig, SplFunction};
use remap_suite::system::{CoreKind, SystemBuilder};

const N: usize = 256;
const IN: i32 = 0x1_0000;
const OUT: i32 = 0x2_0000;

/// One step of the toy CRC: fold a 32-bit word into the running value.
fn crc_step(acc: u64, word: u64) -> u64 {
    let mut v = (acc ^ word) & 0xffff_ffff;
    for _ in 0..4 {
        let bit = v & 1;
        v >>= 1;
        if bit != 0 {
            v ^= 0xedb8_8320;
        }
    }
    v
}

fn producer() -> remap_suite::isa::Program {
    let mut a = Asm::new("producer");
    a.li(R1, 0);
    a.li(R2, N as i32);
    a.li(R3, IN);
    a.label("loop");
    a.slli(R5, R1, 2);
    a.add(R6, R3, R5);
    a.lw(R7, R6, 0);
    a.spl_load(R7, 0, 4);
    a.spl_init(1);
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.halt();
    a.assemble().expect("producer assembles")
}

fn consumer() -> remap_suite::isa::Program {
    let mut a = Asm::new("consumer");
    a.li(R1, 0);
    a.li(R2, N as i32);
    a.li(R4, OUT);
    a.label("loop");
    a.spl_store(R7); // running checksum after each word
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "loop");
    a.sw(R7, R4, 0); // final checksum
    a.fence();
    a.halt();
    a.assemble().expect("consumer assembles")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut b = SystemBuilder::new();
    b.add_core(CoreKind::Ooo1, producer());
    b.add_core(CoreKind::Ooo1, consumer());
    b.add_spl_cluster(SplConfig::paper(2), vec![0, 1]);

    // A 30-row function on a 24-row fabric: virtualized execution
    // (initiation interval 2) — it still runs, just at reduced throughput.
    // The checksum state lives in the fabric's flip-flops.
    b.register_spl(
        1,
        SplFunction::stateful("crc", 30, Dest::Thread(1), &[0xffff_ffff], |e, acc| {
            acc[0] = crc_step(acc[0], e.u32(0) as u64);
            acc[0]
        }),
    );

    let mut sys = b.build();
    // Feed deterministic data and compute the expected checksum on the host.
    let data: Vec<i32> = (0..N as i32)
        .map(|i| i.wrapping_mul(2654435761u32 as i32))
        .collect();
    sys.mem_mut().write_words(IN as u64, &data);
    let expect = data
        .iter()
        .fold(0xffff_ffffu64, |acc, &w| crc_step(acc, w as u32 as u64));

    let report = sys.run(10_000_000)?;
    let got = sys.mem().read_u32(OUT as u64) as u64;
    assert_eq!(got, expect, "fabric checksum must match the host");
    println!("streamed {N} words through a 30-virtual-row function on 24 physical rows");
    println!(
        "checksum = {got:#010x} (matches host), {} cycles",
        report.cycles
    );
    println!(
        "fabric: {} ops, {} row activations (II = 2 from virtualization)",
        sys.spl_stats(0).compute_ops,
        sys.spl_stats(0).row_activations
    );
    Ok(())
}
