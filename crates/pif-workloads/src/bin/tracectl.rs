//! `tracectl` — record, inspect, and preview PIF trace files.
//!
//! ```text
//! tracectl record <workload> <out.pift> [-n N] [--scale F] [--seed-offset K] [--chunk N]
//! tracectl record-elf <binary> <out.pift> [-n N] [--seed S] [--interrupts MEAN]
//! tracectl record-corpus <bin-dir> <out-dir> [-n N] [--seed S]
//! tracectl gen-elf <out>
//! tracectl info <file.pift> [--chunks]
//! tracectl head <file.pift> [-n N]
//! tracectl hash <file.pift>
//! ```
//!
//! `record-elf` loads a real ELF64 x86-64 binary, recovers its CFG with
//! `pif-bintrace`, and records a seeded walk over the *actual compiled
//! code layout* as a v2 trace; same binary + same seed is byte-identical.
//! `record-corpus` does that for every repo release binary found under
//! `<bin-dir>` (see `pif_workloads::corpus`), and `gen-elf` writes the
//! deterministic hand-assembled demo ELF that CI goldens are gated on.
//!
//! `record` streams a synthetic workload straight into a compressed v2
//! trace (bounded memory, any length, `--chunk` records per chunk). It
//! writes through a temp file that is fsynced and atomically renamed over
//! the destination, so a killed run leaves either no output file or a
//! fully valid trace — never a torn one. `info` reads only headers and
//! chunk frames; `--chunks` additionally prints the per-chunk
//! random-access table (the index sampled simulation seeks with). `head`
//! prints the first records. `hash` prints the chunking-independent
//! content hash (`pif-trace`'s FNV-1a 64 canonical record digest) — the
//! trace half of `pif-lab`'s result-cache key.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use pif_trace::{AtomicTraceWriter, TraceReader, DEFAULT_CHUNK_RECORDS, VERSION_V2};
use pif_workloads::WorkloadProfile;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         tracectl record <workload> <out.pift> [-n N] [--scale F] [--seed-offset K] [--chunk N]\n  \
         tracectl record-elf <binary> <out.pift> [-n N] [--seed S] [--interrupts MEAN]\n  \
         tracectl record-corpus <bin-dir> <out-dir> [-n N] [--seed S]\n  \
         tracectl gen-elf <out>\n  \
         tracectl info <file.pift> [--chunks]\n  \
         tracectl head <file.pift> [-n N]\n  \
         tracectl hash <file.pift>\n\n\
         workloads: {}",
        WorkloadProfile::all()
            .iter()
            .map(|w| w.name().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::FAILURE
}

fn fail(context: &str, err: impl std::fmt::Display) -> ExitCode {
    eprintln!("tracectl: {context}: {err}");
    ExitCode::FAILURE
}

/// Parses `--flag value` / `-f value` style options out of `args`,
/// returning the positional remainder.
struct Opts {
    positional: Vec<String>,
    /// `-n` value when given; subcommands apply their own default
    /// (record: 1M instructions, head: 10 records).
    instructions: Option<usize>,
    scale: f64,
    seed_offset: u64,
    /// Walker seed for the `record-elf` / `record-corpus` verbs.
    seed: u64,
    /// Mean TL1 interrupt interval for `record-elf` (0 = off).
    interrupts: u64,
    chunk: u32,
    chunks: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        positional: Vec::new(),
        instructions: None,
        scale: 1.0,
        seed_offset: 0,
        seed: 0,
        interrupts: 0,
        chunk: DEFAULT_CHUNK_RECORDS,
        chunks: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "-n" | "--instructions" => {
                opts.instructions = Some(value(arg)?.parse().map_err(|e| format!("-n: {e}"))?);
            }
            "--scale" => opts.scale = value(arg)?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--seed-offset" => {
                opts.seed_offset = value(arg)?
                    .parse()
                    .map_err(|e| format!("--seed-offset: {e}"))?;
            }
            "--seed" => opts.seed = value(arg)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--interrupts" => {
                opts.interrupts = value(arg)?
                    .parse()
                    .map_err(|e| format!("--interrupts: {e}"))?;
            }
            "--chunk" => opts.chunk = value(arg)?.parse().map_err(|e| format!("--chunk: {e}"))?,
            "--chunks" => opts.chunks = true,
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
            other => opts.positional.push(other.to_string()),
        }
    }
    Ok(opts)
}

fn find_workload(name: &str) -> Option<WorkloadProfile> {
    let canonical = name.to_lowercase().replace('_', "-");
    WorkloadProfile::all()
        .into_iter()
        .find(|w| w.name().to_lowercase() == canonical)
}

fn record(opts: &Opts) -> ExitCode {
    let [name, out] = opts.positional.as_slice() else {
        return usage();
    };
    let Some(profile) = find_workload(name) else {
        return fail("record", format!("unknown workload {name:?}"));
    };
    let profile = if (opts.scale - 1.0).abs() > f64::EPSILON {
        profile.scaled(opts.scale)
    } else {
        profile
    };
    let mut writer = match AtomicTraceWriter::create(out, profile.name(), opts.chunk) {
        Ok(w) => w,
        Err(e) => return fail(out, e),
    };
    let mut io_err = None;
    let n = opts.instructions.unwrap_or(1_000_000);
    profile.generate_with_execution_seed_into(n, opts.seed_offset, |instr| {
        if io_err.is_none() {
            if let Err(e) = writer.push(&instr) {
                io_err = Some(e);
            }
        }
    });
    if let Some(e) = io_err {
        return fail(out, e);
    }
    let records = writer.records_written();
    if let Err(e) = writer.finish() {
        return fail(out, e);
    }
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!(
        "recorded {} v2 · {} records · {} bytes · {:.2} bytes/record → {}",
        profile.name(),
        records,
        bytes,
        bytes as f64 / records.max(1) as f64,
        out,
    );
    ExitCode::SUCCESS
}

/// Walker config shared by the ELF-recording verbs.
fn walk_config(opts: &Opts) -> pif_bintrace::walk::WalkConfig {
    pif_bintrace::walk::WalkConfig::default()
        .with_seed(opts.seed)
        .with_interrupts(opts.interrupts)
}

fn record_elf(opts: &Opts) -> ExitCode {
    let [binary, out] = opts.positional.as_slice() else {
        return usage();
    };
    let name = std::path::Path::new(binary)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "elf".to_string());
    let n = opts.instructions.unwrap_or(1_000_000);
    let recorded =
        match pif_workloads::corpus::record_elf_trace(binary, out, &name, n, walk_config(opts)) {
            Ok(r) => r,
            Err(e) => return fail(binary, e),
        };
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!(
        "recorded {} (elf, seed {}) · {} blocks / {} static instrs · {} records · {} bytes → {}",
        recorded.name,
        opts.seed,
        recorded.blocks,
        recorded.static_insns,
        recorded.records,
        bytes,
        out,
    );
    ExitCode::SUCCESS
}

fn record_corpus(opts: &Opts) -> ExitCode {
    let [bin_dir, out_dir] = opts.positional.as_slice() else {
        return usage();
    };
    let n = opts.instructions.unwrap_or(1_000_000);
    let recorded =
        match pif_workloads::corpus::record_corpus(bin_dir, out_dir, n, walk_config(opts)) {
            Ok(r) => r,
            Err(e) => return fail(bin_dir, e),
        };
    if recorded.is_empty() {
        eprintln!(
            "tracectl: no corpus binaries ({}) under {bin_dir}; build with `cargo build --release` first",
            pif_workloads::corpus::CORPUS_BINARIES.join(", ")
        );
        return ExitCode::FAILURE;
    }
    for r in &recorded {
        println!(
            "recorded {} · {} blocks / {} static instrs · {} records → {}",
            r.name,
            r.blocks,
            r.static_insns,
            r.records,
            r.path.display()
        );
    }
    ExitCode::SUCCESS
}

fn gen_elf(opts: &Opts) -> ExitCode {
    let [out] = opts.positional.as_slice() else {
        return usage();
    };
    let bytes = pif_bintrace::fixture::demo_elf();
    if let Err(e) = std::fs::write(out, &bytes) {
        return fail(out, e);
    }
    println!("wrote demo ELF ({} bytes) → {out}", bytes.len());
    ExitCode::SUCCESS
}

fn info(opts: &Opts) -> ExitCode {
    let [path] = opts.positional.as_slice() else {
        return usage();
    };
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) => return fail(path, e),
    };
    // One walk over the 8-byte chunk headers (payloads are seeked over)
    // yields both the summary and the random-access table.
    let reader = match TraceReader::open_indexed(BufReader::new(file)) {
        Ok(r) => r,
        Err(e) => return fail(path, e),
    };
    let info = reader.info().expect("open_indexed builds the index");
    println!("file:          {path}");
    println!("name:          {}", info.name);
    println!("version:       {VERSION_V2}");
    println!("records:       {}", info.records);
    println!("chunks:        {}", info.chunks);
    println!("bytes:         {}", info.bytes);
    println!("bytes/record:  {:.2}", info.bytes_per_record());
    if opts.chunks {
        let index = reader.chunk_index().expect("open_indexed builds the index");
        println!(
            "\n{:>6}  {:>12}  {:>8}  {:>12}  {:>10}  {:>8}",
            "CHUNK", "FIRST_REC", "RECORDS", "OFFSET", "PAYLOAD_B", "B/REC"
        );
        for (i, e) in index.entries().iter().enumerate() {
            println!(
                "{:>6}  {:>12}  {:>8}  {:>12}  {:>10}  {:>8.2}",
                i,
                e.first_record,
                e.records,
                e.payload_offset,
                e.payload_len,
                e.payload_len as f64 / e.records.max(1) as f64,
            );
        }
    }
    ExitCode::SUCCESS
}

fn head(opts: &Opts) -> ExitCode {
    let [path] = opts.positional.as_slice() else {
        return usage();
    };
    let n = opts.instructions.unwrap_or(10);
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) => return fail(path, e),
    };
    let mut reader = match TraceReader::open(BufReader::new(file)) {
        Ok(r) => r,
        Err(e) => return fail(path, e),
    };
    println!("{} (v{VERSION_V2})", reader.name());
    for (idx, result) in reader.by_ref().take(n).enumerate() {
        match result {
            Ok(instr) => {
                let branch = match instr.branch {
                    None => String::new(),
                    Some(b) => format!(
                        "  {:?} {} → {:#x} (fall {:#x})",
                        b.kind,
                        if b.taken { "taken" } else { "not-taken" },
                        b.taken_target.raw(),
                        b.fall_through.raw(),
                    ),
                };
                println!(
                    "{idx:>6}  pc={:#010x}  {}{branch}",
                    instr.pc.raw(),
                    instr.trap_level,
                );
            }
            Err(e) => return fail(path, e),
        }
    }
    ExitCode::SUCCESS
}

fn hash(opts: &Opts) -> ExitCode {
    let [path] = opts.positional.as_slice() else {
        return usage();
    };
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) => return fail(path, e),
    };
    let reader = match TraceReader::open(BufReader::new(file)) {
        Ok(r) => r,
        Err(e) => return fail(path, e),
    };
    match reader.content_hash() {
        Ok(h) => {
            println!("{h:016x}  {path}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(path, e),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => return fail("arguments", e),
    };
    match cmd.as_str() {
        "record" => record(&opts),
        "record-elf" => record_elf(&opts),
        "record-corpus" => record_corpus(&opts),
        "gen-elf" => gen_elf(&opts),
        "info" => info(&opts),
        "head" => head(&opts),
        "hash" => hash(&opts),
        _ => usage(),
    }
}
