//! Trace codec benchmarks: v2 (chunked delta/varint) encode, v1
//! (fixed-width, read-only legacy) and v2 decode throughput, plus a
//! one-shot bytes-per-instruction report.
//!
//! Run with: `cargo bench -p pif-bench --bench trace_codec`

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use pif_trace::codec::encode_v1;
use pif_trace::{decode, encode_v2, scan_info, TraceReader};
use pif_workloads::{Trace, WorkloadProfile};

const INSTRS: usize = 100_000;

fn fixture() -> Trace {
    WorkloadProfile::oltp_db2().scaled(0.2).generate(INSTRS)
}

/// Prints the size comparison the tentpole targets (≥2× smaller on
/// OLTP-DB2); runs once, outside measurement.
fn report_sizes(trace: &Trace) {
    let v1 = encode_v1(trace.name(), trace.instrs());
    let v2 = encode_v2(trace.name(), trace.instrs());
    let n = trace.len() as f64;
    eprintln!(
        "trace_codec: {} × {} instrs — v1 {:.2} B/instr, v2 {:.2} B/instr, ratio {:.2}x",
        trace.name(),
        trace.len(),
        v1.len() as f64 / n,
        v2.len() as f64 / n,
        v1.len() as f64 / v2.len() as f64,
    );
}

fn bench_encode(c: &mut Criterion) {
    let trace = fixture();
    report_sizes(&trace);
    let mut g = c.benchmark_group("trace_encode");
    g.throughput(Throughput::Elements(INSTRS as u64));
    g.bench_function("v2", |b| {
        b.iter(|| black_box(encode_v2(trace.name(), black_box(trace.instrs()))))
    });
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let trace = fixture();
    let v1 = encode_v1(trace.name(), trace.instrs());
    let v2 = encode_v2(trace.name(), trace.instrs());
    let mut g = c.benchmark_group("trace_decode");
    g.throughput(Throughput::Elements(INSTRS as u64));
    g.bench_function("v1", |b| b.iter(|| decode(black_box(&v1)).unwrap()));
    g.bench_function("v2", |b| b.iter(|| decode(black_box(&v2)).unwrap()));
    g.bench_function("v2_streaming", |b| {
        b.iter(|| {
            let reader = TraceReader::open(black_box(v2.as_slice())).unwrap();
            let mut n = 0u64;
            for r in reader {
                r.unwrap();
                n += 1;
            }
            black_box(n)
        })
    });
    g.finish();
}

fn bench_scan(c: &mut Criterion) {
    let trace = fixture();
    let v2 = encode_v2(trace.name(), trace.instrs());
    let mut g = c.benchmark_group("trace_scan");
    g.throughput(Throughput::Bytes(v2.len() as u64));
    g.bench_function("v2_info_skip_chunks", |b| {
        b.iter(|| scan_info(black_box(v2.as_slice())).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_encode, bench_decode, bench_scan);
criterion_main!(benches);
