//! Prints CFG-recovery and walk statistics for real ELF binaries — the
//! `pif-bintrace` counterpart of the synthetic workload Table I half.
//!
//! With no arguments, analyses the built-in demo fixture plus any repo
//! release binaries present under `target/release`; explicit paths
//! analyse those binaries instead.
//!
//! Usage: `cargo run --example bintrace [-- <elf>...]`

use std::sync::Arc;

use pif_bintrace::cfg::{Cfg, Terminator};
use pif_bintrace::elf::ElfImage;
use pif_bintrace::walk::{WalkConfig, Walker};
use pif_lab::Table;

const WALK_SAMPLE: usize = 200_000;

fn analyse(name: &str, image: &ElfImage, table: &mut Table) -> Result<(), String> {
    let cfg = Arc::new(Cfg::recover(image));
    let mut dead_ends = 0usize;
    let mut indirect = 0usize;
    for b in cfg.blocks.values() {
        match b.term {
            Terminator::DeadEnd => dead_ends += 1,
            Terminator::IndirectCall { .. } | Terminator::IndirectJump => indirect += 1,
            _ => {}
        }
    }
    let walker = Walker::new(Arc::clone(&cfg), WalkConfig::default().with_seed(1))
        .map_err(|e| e.to_string())?;
    let mut branches = 0usize;
    let mut calls = 0usize;
    for i in walker.take(WALK_SAMPLE) {
        if let Some(info) = i.branch {
            branches += 1;
            if info.kind.pushes_return() {
                calls += 1;
            }
        }
    }
    table.row(vec![
        name.to_string(),
        format!("{}", image.code_bytes() / 1024),
        format!("{}", cfg.func_starts.len()),
        format!("{}", cfg.block_count()),
        format!("{}", cfg.insn_count()),
        format!("{dead_ends}"),
        format!("{indirect}"),
        format!("{:.1}%", 100.0 * branches as f64 / WALK_SAMPLE as f64),
        format!("{:.1}%", 100.0 * calls as f64 / branches.max(1) as f64),
    ]);
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut table = Table::new(vec![
        "Binary",
        "Code KiB",
        "Funcs",
        "Blocks",
        "Static instrs",
        "Dead ends",
        "Indirect",
        "Branch rate",
        "Calls/branch",
    ]);

    let mut failures = 0usize;
    if args.is_empty() {
        let image = ElfImage::parse(&pif_bintrace::fixture::demo_elf()).expect("fixture parses");
        analyse("demo-fixture", &image, &mut table).expect("fixture walks");
        for (name, path) in pif_workloads::corpus::find_binaries("target/release") {
            match ElfImage::from_file(&path) {
                Ok(image) => {
                    if let Err(e) = analyse(&name, &image, &mut table) {
                        eprintln!("bintrace: {name}: {e}");
                        failures += 1;
                    }
                }
                Err(e) => {
                    eprintln!("bintrace: {name}: {e}");
                    failures += 1;
                }
            }
        }
    } else {
        for path in &args {
            match ElfImage::from_file(path) {
                Ok(image) => {
                    if let Err(e) = analyse(path, &image, &mut table) {
                        eprintln!("bintrace: {path}: {e}");
                        failures += 1;
                    }
                }
                Err(e) => {
                    eprintln!("bintrace: {path}: {e}");
                    failures += 1;
                }
            }
        }
    }

    println!("CFG recovery & seeded walk (sample {WALK_SAMPLE} instrs, seed 1)\n");
    print!("{table}");
    if failures > 0 {
        std::process::exit(1);
    }
}
