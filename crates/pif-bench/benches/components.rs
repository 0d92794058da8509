//! Microbenchmarks of the simulator and PIF hardware structures.
//!
//! Run with: `cargo bench -p pif-bench --bench components`

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use pif_bench::bench_trace;
use pif_core::{HistoryBuffer, Pif, PifConfig, SabPool, SpatialCompactor, TemporalCompactor};
use pif_sim::bpred::{DirectionPredictor, HybridPredictor};
use pif_sim::cache::{InstructionCache, SetAssocCache};
use pif_sim::frontend::FrontEnd;
use pif_sim::{Engine, EngineConfig, FrontendConfig, ICacheConfig, NoPrefetcher, RunOptions};
use pif_types::{Address, BlockAddr, RegionGeometry, SpatialRegionRecord};

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(1));

    g.bench_function("set_assoc_hit", |b| {
        let mut cache: SetAssocCache<()> = SetAssocCache::new(512, 2).unwrap();
        cache.insert(BlockAddr::from_number(42), ());
        b.iter(|| black_box(cache.access(black_box(BlockAddr::from_number(42)))).is_some())
    });

    g.bench_function("set_assoc_miss", |b| {
        // Warm cache, then access blocks that always miss (disjoint tag
        // space): measures the full-set tag scan without fills.
        let mut cache: SetAssocCache<()> = SetAssocCache::new(512, 2).unwrap();
        for n in 0..1024u64 {
            cache.insert(BlockAddr::from_number(n), ());
        }
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            black_box(cache.access(black_box(BlockAddr::from_number(1 << 20 | n & 511)))).is_none()
        })
    });

    g.bench_function("set_assoc_insert_evict", |b| {
        // Every insert conflicts in a full cache: fill + eviction path.
        let mut cache: SetAssocCache<()> = SetAssocCache::new(512, 2).unwrap();
        for n in 0..1024u64 {
            cache.insert(BlockAddr::from_number(n), ());
        }
        let mut n = 1024u64;
        b.iter(|| {
            n += 1;
            black_box(cache.insert(BlockAddr::from_number(n), ()))
        })
    });

    g.bench_function("set_assoc_probe_16way", |b| {
        // The L2 geometry: 16-way tag scan, non-perturbing.
        let mut cache: SetAssocCache<()> = SetAssocCache::new(512, 16).unwrap();
        for n in 0..8192u64 {
            cache.insert(BlockAddr::from_number(n), ());
        }
        let mut n = 0u64;
        b.iter(|| {
            n = (n + 1) % 8192;
            black_box(cache.probe(black_box(BlockAddr::from_number(n)))).is_some()
        })
    });

    g.bench_function("icache_demand_cycle", |b| {
        let mut ic = InstructionCache::new(ICacheConfig::paper_default()).unwrap();
        let mut n = 0u64;
        b.iter(|| {
            n = (n + 1) % 4096;
            black_box(ic.demand_access(BlockAddr::from_number(n)))
        })
    });
    g.finish();
}

fn bench_bpred(c: &mut Criterion) {
    let mut g = c.benchmark_group("bpred");
    g.throughput(Throughput::Elements(1));
    g.bench_function("hybrid_predict_update", |b| {
        let mut p = HybridPredictor::paper_default();
        let mut i = 0u64;
        b.iter(|| {
            i += 4;
            let pc = Address::new(i % 65536);
            let taken = !i.is_multiple_of(3);
            let pred = p.predict(pc);
            p.update(pc, taken);
            black_box(pred)
        })
    });
    g.finish();
}

fn bench_compactors(c: &mut Criterion) {
    let mut g = c.benchmark_group("compactor");
    g.throughput(Throughput::Elements(1));

    g.bench_function("spatial_observe", |b| {
        let mut sc = SpatialCompactor::new(RegionGeometry::paper_default());
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            // Walk sequentially: region emission every 6 blocks.
            black_box(sc.observe(BlockAddr::from_number(n / 4), true))
        })
    });

    g.bench_function("temporal_filter", |b| {
        let mut tc = TemporalCompactor::new(4);
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            let rec = SpatialRegionRecord::new(BlockAddr::from_number(n % 8 * 100));
            black_box(tc.filter(pif_core::spatial_tagged(rec, true)))
        })
    });
    g.finish();
}

fn bench_history_and_sab(c: &mut Criterion) {
    let mut g = c.benchmark_group("history");
    g.throughput(Throughput::Elements(1));

    g.bench_function("history_append", |b| {
        let mut h = HistoryBuffer::new(32 * 1024);
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            black_box(h.append(SpatialRegionRecord::new(BlockAddr::from_number(n)), true))
        })
    });

    g.bench_function("sab_advance", |b| {
        let mut h = HistoryBuffer::new(32 * 1024);
        for n in 0..1024u64 {
            h.append(
                SpatialRegionRecord::new(BlockAddr::from_number(n * 10)),
                true,
            );
        }
        let mut pool = SabPool::new(4, 7);
        let mut records = Vec::new();
        pool.allocate(0, 0, 0, RegionGeometry::paper_default(), &h, &mut records);
        let mut n = 0u64;
        b.iter(|| {
            n = (n + 1) % 1000;
            black_box(pool.advance(
                0,
                BlockAddr::from_number(n * 10),
                RegionGeometry::paper_default(),
                &h,
                &mut records,
            ))
        })
    });

    g.bench_function("sab_allocate", |b| {
        let mut h = HistoryBuffer::new(32 * 1024);
        for n in 0..1024u64 {
            h.append(
                SpatialRegionRecord::new(BlockAddr::from_number(n * 10)),
                true,
            );
        }
        let mut pool = SabPool::new(4, 7);
        let mut records = Vec::new();
        let mut n = 0u64;
        b.iter(|| {
            n = (n + 1) % 1000;
            black_box(pool.allocate(0, n, 0, RegionGeometry::paper_default(), &h, &mut records))
        })
    });
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let trace = bench_trace(100_000);
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.throughput(Throughput::Elements(trace.len() as u64));

    g.bench_function("frontend_100k", |b| {
        b.iter(|| {
            let mut fe = FrontEnd::new(FrontendConfig::paper_default());
            let mut count = 0u64;
            for &instr in &trace {
                fe.step(instr, |_| count += 1);
            }
            black_box(count)
        })
    });

    g.bench_function("engine_noprefetch_100k", |b| {
        let engine = Engine::new(EngineConfig::paper_default());
        b.iter(|| black_box(engine.run(trace.iter().copied(), NoPrefetcher, RunOptions::new())))
    });

    g.bench_function("engine_pif_100k", |b| {
        let engine = Engine::new(EngineConfig::paper_default());
        b.iter(|| {
            black_box(engine.run(
                trace.iter().copied(),
                Pif::new(PifConfig::paper_default()),
                RunOptions::new(),
            ))
        })
    });

    g.bench_function("workload_generate_100k", |b| {
        b.iter(|| black_box(pif_bench::bench_trace(100_000)))
    });
    g.finish();
}

/// Ablations: the design choices the paper justifies in §4-§5, measured
/// as engine runs with the feature weakened.
fn bench_ablations(c: &mut Criterion) {
    let trace = bench_trace(120_000);
    let engine = Engine::new(EngineConfig::paper_default());
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);

    g.bench_function("pif_paper_design", |b| {
        b.iter(|| {
            black_box(engine.run(
                trace.iter().copied(),
                Pif::new(PifConfig::paper_default()),
                RunOptions::new(),
            ))
        })
    });
    g.bench_function("pif_no_temporal_compactor", |b| {
        let mut cfg = PifConfig::paper_default();
        cfg.temporal_entries = 1; // effectively disabled
        b.iter(|| black_box(engine.run(trace.iter().copied(), Pif::new(cfg), RunOptions::new())))
    });
    g.bench_function("pif_single_block_regions", |b| {
        let mut cfg = PifConfig::paper_default();
        cfg.geometry = pif_types::RegionGeometry::new(0, 0).unwrap();
        b.iter(|| black_box(engine.run(trace.iter().copied(), Pif::new(cfg), RunOptions::new())))
    });
    g.bench_function("pif_tiny_history", |b| {
        let mut cfg = PifConfig::paper_default();
        cfg.history_capacity = 1024;
        b.iter(|| black_box(engine.run(trace.iter().copied(), Pif::new(cfg), RunOptions::new())))
    });
    g.bench_function("pif_one_sab", |b| {
        let mut cfg = PifConfig::paper_default();
        cfg.sab_count = 1;
        b.iter(|| black_box(engine.run(trace.iter().copied(), Pif::new(cfg), RunOptions::new())))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_bpred,
    bench_compactors,
    bench_history_and_sab,
    bench_pipeline,
    bench_ablations
);
criterion_main!(benches);
