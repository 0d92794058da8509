//! Seeded mutation fuzzing of the real-binary front end's untrusted
//! input: the ELF loader and the x86-64 length decoder.
//!
//! * Damaged copies of `fixture::demo_elf()` (byte stomps, bit flips,
//!   truncations) go through `ElfImage::parse` → `Cfg::recover` → a
//!   bounded number of `Walker` steps.
//! * Random byte strings go through `decode`.
//!
//! Each call must return a typed error or a valid value: a parse either
//! fails or yields an image whose walk stays inside its executable
//! segments, and a decode either fails or reports a length that fits the
//! bytes and the architectural limit. A panic fails the test. The
//! tier-1 counts run in well under a second in debug; the `#[ignore]`d
//! variants run 100× as many inputs in the weekly acceptance job.

use std::sync::Arc;

use pif_repro::bintrace::cfg::Cfg;
use pif_repro::bintrace::decode::{decode, MAX_INSN_LEN};
use pif_repro::bintrace::elf::ElfImage;
use pif_repro::bintrace::fixture::demo_elf;
use pif_repro::bintrace::walk::{WalkConfig, Walker};
use pif_repro::types::rng::SmallRng;

const ELF_INPUTS: usize = 1_000;
const WALK_STEPS: usize = 2_000;
const DECODE_INPUTS: usize = 50_000;

/// One damaged copy of `elf`.
fn mutate(rng: &mut SmallRng, elf: &[u8]) -> Vec<u8> {
    let mut bytes = elf.to_vec();
    match rng.gen_range(0..3u32) {
        0 => {
            for _ in 0..rng.gen_range(1..=8usize) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = rng.next_u64() as u8;
            }
        }
        1 => {
            for _ in 0..rng.gen_range(1..=8usize) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        _ => bytes.truncate(rng.gen_range(0..bytes.len())),
    }
    bytes
}

/// Parses, recovers and walks `inputs` damaged demo ELFs; returns how
/// many parsed and how many were walked.
fn fuzz_elf(seed: u64, inputs: usize) -> (usize, usize) {
    let elf = demo_elf();
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut parsed, mut walked) = (0, 0);
    for _ in 0..inputs {
        let bytes = mutate(&mut rng, &elf);
        let Ok(image) = ElfImage::parse(&bytes) else {
            continue;
        };
        parsed += 1;
        let cfg = Arc::new(Cfg::recover(&image));
        let Ok(walker) = Walker::new(
            cfg,
            WalkConfig::default().with_seed(seed).with_interrupts(50),
        ) else {
            continue;
        };
        walked += 1;
        for instr in walker.take(WALK_STEPS) {
            let pc = instr.pc.raw();
            assert!(
                image.slice_at(pc).is_some(),
                "walk left the executable segments at {pc:#x}"
            );
        }
    }
    (parsed, walked)
}

/// Decodes `inputs` random byte strings of 0 to 20 bytes.
fn fuzz_decode(seed: u64, inputs: usize) -> (usize, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut ok, mut err) = (0, 0);
    for _ in 0..inputs {
        let bytes: Vec<u8> = (0..rng.gen_range(0..=20usize))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let pc = rng.next_u64();
        match decode(&bytes, pc) {
            Ok(insn) => {
                let len = usize::from(insn.len);
                assert!(
                    (1..=MAX_INSN_LEN.min(bytes.len())).contains(&len),
                    "length {len} for {bytes:02x?}"
                );
                ok += 1;
            }
            Err(_) => err += 1,
        }
    }
    (ok, err)
}

#[test]
fn mutated_elfs_parse_walk_or_fail_without_panicking() {
    let (parsed, walked) = fuzz_elf(0x0e1f_f022, ELF_INPUTS);
    // Neither outcome may be vacuous: some damage is benign, most is not.
    assert!(
        parsed > 0 && parsed < ELF_INPUTS,
        "{parsed} of {ELF_INPUTS} parsed"
    );
    assert!(walked > 0, "no damaged image was walked");
}

#[test]
fn random_bytes_decode_or_fail_without_panicking() {
    let (ok, err) = fuzz_decode(0xdec0_de22, DECODE_INPUTS);
    assert!(ok > 0 && err > 0, "{ok} decoded, {err} rejected");
}

#[test]
#[ignore = "acceptance-scale (100x the tier-1 inputs); run with --ignored --release"]
fn mutated_elfs_at_acceptance_scale() {
    let (parsed, walked) = fuzz_elf(0x0e1f_f023, 100 * ELF_INPUTS);
    assert!(parsed > 0 && walked > 0);
}

#[test]
#[ignore = "acceptance-scale (100x the tier-1 inputs); run with --ignored --release"]
fn random_bytes_at_acceptance_scale() {
    let (ok, err) = fuzz_decode(0xdec0_de23, 100 * DECODE_INPUTS);
    assert!(ok > 0 && err > 0);
}
