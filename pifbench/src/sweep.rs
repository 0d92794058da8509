//! The sweep workloads: `fig10-paper` and `fig9-history-paper`. Each
//! iteration sets up, runs one whole grid through
//! `pif_lab::run_spec_profiled` with no cache, emits the report, and then
//! checks it outside the timed phase.

use std::time::Instant;

use pif_core::analysis::PifAnalyzer;
use pif_core::{Pif, PifConfig};
use pif_lab::json::{fmt_f64, Json};
use pif_lab::report::validate_report;
use pif_lab::{
    registry, run_spec_profiled, CacheKey, Measure, Metric, ResultCache, RunOptions, Scale,
    SweepReport, SweepSpec,
};
use pif_sim::{Engine, NoPrefetcher, RunOptions as SimOptions, RunReport};
use pif_types::{InstrSource, TrapLevel};
use pif_workloads::WorkloadProfile;

use crate::span::Tracer;
use crate::util::{digest, fast, jstr, median, ms, timed, PassLatencies};
use crate::{ledger, Ctx, Outcome, Size};

/// Expected metrics of one report cell, computed outside pif-lab.
#[derive(Debug)]
struct Reference {
    index: usize,
    metrics: Vec<(&'static str, f64)>,
}

/// One iteration's inputs.
#[derive(Debug)]
struct Setup {
    spec: SweepSpec,
    scale: Scale,
    /// The workload the references and the ledger use (OLTP-DB2 at the
    /// run's footprint).
    profile: WorkloadProfile,
    refs: Vec<Reference>,
}

fn scale_of(workload: &str, size: Size) -> Scale {
    let instructions = match workload {
        "fig10-paper" => size.fig10_instrs(),
        _ => size.fig9_instrs(),
    };
    // Paper footprint: a multi-MB code image against the 64 KB L1-I.
    Scale {
        instructions,
        footprint: 1.0,
        warmup_fraction: Scale::paper().warmup_fraction,
    }
}

fn spec_of(workload: &str, seed: u64) -> SweepSpec {
    match workload {
        "fig10-paper" => SweepSpec {
            seed_offset: seed,
            ..registry::fig10()
        },
        _ => SweepSpec {
            seed_offset: seed,
            ..registry::fig9_history()
        },
    }
}

/// The engine-cell metrics a reference compares, as `measure.rs` emits
/// them.
fn engine_reference(index: usize, r: &RunReport) -> Reference {
    let instrs = r.frontend.instructions;
    Reference {
        index,
        metrics: vec![
            ("instructions", instrs as f64),
            ("cycles", r.timing.cycles as f64),
            ("demand_misses", r.fetch.demand_misses as f64),
            ("covered_by_prefetch", r.fetch.covered_by_prefetch as f64),
            ("prefetch_issued", r.prefetch.issued as f64),
            ("prefetch_useful", r.prefetch.useful as f64),
            ("l2_misses", r.l2_misses as f64),
            ("miss_coverage", r.miss_coverage()),
            (
                "mpki",
                r.fetch.demand_misses as f64 / (instrs as f64 / 1000.0),
            ),
            ("prefetch_accuracy", r.prefetch.accuracy()),
            ("uipc", r.timing.uipc()),
        ],
    }
}

fn engine_cell(
    source: impl InstrSource,
    pif: Option<PifConfig>,
    spec: &SweepSpec,
    scale: &Scale,
) -> RunReport {
    let engine = Engine::new(spec.engine_base);
    let opts = SimOptions::new().warmup(scale.warmup_instrs());
    match pif {
        None => engine.run(source, NoPrefetcher, opts),
        Some(cfg) => engine.run(source, Pif::new(cfg), opts),
    }
}

/// Set-up: build the spec and compute the check references for the None
/// and PIF cells of the first workload (the smallest and largest history
/// on fig9). Engine references stream their input, so they add nothing to
/// the peak resident set.
fn setup(ctx: &Ctx, workload: &str, tracer: &Tracer, parent: Option<usize>) -> Setup {
    let scale = scale_of(workload, ctx.size);
    let spec = tracer.span("setup.spec", parent, 0, |_| spec_of(workload, ctx.seed));
    let profile = scale.workloads().swap_remove(0);
    let n = scale.instructions;
    let mut refs = match workload {
        "fig10-paper" => tracer.span("setup.references", parent, 0, |_| {
            let pif = spec.pif_base;
            let stream = || profile.stream_with_execution_seed(n, ctx.seed);
            vec![
                engine_reference(0, &engine_cell(stream(), None, &spec, &scale)),
                engine_reference(3, &engine_cell(stream(), Some(pif), &spec, &scale)),
            ]
        }),
        _ => tracer.span("setup.references", parent, 0, |_| {
            let trace = profile.generate_with_execution_seed(n, ctx.seed);
            let points = registry::FIG9_HISTORY_SIZES.len();
            [0, points - 1]
                .into_iter()
                .map(|p| {
                    let pif = spec
                        .pif_base
                        .with_history_capacity(registry::FIG9_HISTORY_SIZES[p]);
                    let r = PifAnalyzer::new(pif, spec.engine_base.icache)
                        .analyze(trace.instrs(), scale.warmup_instrs());
                    Reference {
                        index: p,
                        metrics: vec![
                            ("miss_coverage", r.overall_miss_coverage()),
                            ("predictor_coverage", r.overall_predictor_coverage()),
                            ("miss_coverage_tl0", r.miss_coverage(TrapLevel::Tl0)),
                            ("miss_coverage_tl1", r.miss_coverage(TrapLevel::Tl1)),
                        ],
                    }
                })
                .collect()
        }),
    };
    if ctx.corrupt_reference {
        refs[0].metrics[0].1 += 1.0;
    }
    Setup {
        spec,
        scale,
        profile,
        refs,
    }
}

/// Every check on one sweep's report: the schema validator, the
/// reference cells, byte identity with the run's first report, and the
/// executed/cached split.
fn check(
    setup: &Setup,
    report: &SweepReport,
    json: &str,
    first: Option<&str>,
    cached: usize,
) -> Result<(), String> {
    let parsed = Json::parse(json).map_err(|e| format!("report does not parse: {e}"))?;
    validate_report(&parsed)?;
    for r in &setup.refs {
        let cell = report.cells.get(r.index).ok_or("reference cell missing")?;
        for &(name, want) in &r.metrics {
            let got = cell.metric(name);
            if got.map(f64::to_bits) != Some(want.to_bits()) {
                return Err(format!(
                    "cell {} ({}/{}/{}) {name}: report {got:?}, reference {want}",
                    r.index,
                    cell.workload,
                    cell.prefetcher.unwrap_or("-"),
                    cell.point
                ));
            }
        }
    }
    if let Some(first) = first {
        if first != json {
            return Err("report bytes differ from the run's first report".into());
        }
    }
    if cached != 0 {
        return Err(format!(
            "{cached} cells came from a cache; none is attached"
        ));
    }
    Ok(())
}

/// The simulated statistics of every cell, exactly as the report renders
/// them.
fn simulated_line(report: &SweepReport) -> String {
    const NAMES: [&str; 6] = [
        "uipc",
        "mpki",
        "miss_coverage",
        "prefetch_accuracy",
        "predictor_coverage",
        "uipc_speedup_vs_none",
    ];
    let cells: Vec<String> = report
        .cells
        .iter()
        .map(|c| {
            let mut fields = vec![
                format!("\"cell\": {}", c.index),
                format!("\"workload\": {}", jstr(&c.workload)),
                format!("\"prefetcher\": {}", jstr(c.prefetcher.unwrap_or("-"))),
                format!("\"point\": {}", jstr(&c.point)),
            ];
            for (name, m) in &c.metrics {
                if NAMES.contains(&name.as_str()) {
                    let tok = match *m {
                        Metric::U64(v) => v.to_string(),
                        Metric::F64(v) => fmt_f64(v),
                    };
                    fields.push(format!("{}: {tok}", jstr(name)));
                }
            }
            format!("{{{}}}", fields.join(", "))
        })
        .collect();
    format!(
        "{{\"simulated\": {{\"spec\": {}, \"model\": \"unvalidated against hardware: no reference measurements, no error figure\", \"cells\": [{}]}}}}",
        jstr(&report.spec),
        cells.join(", ")
    )
}

pub fn run(ctx: &Ctx, workload: &str) -> Outcome {
    let mut out = Outcome::default();
    let untraced = Tracer::new(false);
    let (mut setups, mut walls) = (vec![], vec![]);
    // Instructions one sweep executes: the same for every sweep of a run.
    let mut executed_instrs = 0.0;
    let mut cells = PassLatencies::default();
    let (mut traced_walls, mut plain_walls) = (vec![], vec![]);
    let mut first: Option<String> = None;
    let mut timed_s = 0.0;
    let mut iters = 0usize;
    let mut traced_last = None;
    while ctx.more(timed_s, cells.samples(), iters) {
        // The traced run alternates untraced and traced iterations; the
        // difference of their walls is the tracing overhead.
        let tracer = if ctx.tracer.enabled() && iters % 2 == 1 {
            &ctx.tracer
        } else {
            &untraced
        };
        let root = tracer.open("iteration", None, iters as u64);
        let (setup, setup_d) = timed(|| {
            tracer.span("setup", root, iters as u64, |p| {
                setup(ctx, workload, tracer, p)
            })
        });
        setups.push(setup_d.as_secs_f64());

        let opts = RunOptions::new().scale(setup.scale).threads(ctx.threads);
        let id = iters as u64;
        let start = Instant::now();
        let (report, stats, profile) = tracer.span("lab.run_spec", root, id, |_| {
            run_spec_profiled(&setup.spec, &opts)
        });
        let run_spec_s = start.elapsed().as_secs_f64();
        let json = tracer.span("lab.to_json", root, id, |_| report.to_json());
        let wall = start.elapsed().as_secs_f64();

        timed_s += wall;
        walls.push(wall);
        if tracer.enabled() {
            traced_walls.push(wall);
        } else {
            plain_walls.push(wall);
        }
        executed_instrs = stats.executed_cells as f64 * setup.scale.instructions as f64;
        let exec: Vec<f64> = profile
            .cells
            .iter()
            .filter(|c| !c.cached)
            .map(|c| c.exec_us as f64 / 1e3)
            .collect();
        cells.push(&exec);

        let result = match &json {
            Ok(json) => check(&setup, &report, json, first.as_deref(), stats.cached_cells),
            Err(e) => Err(format!("report does not serialize: {e}")),
        };
        out.check(&format!("{workload} sweep {id}"), result);
        if first.is_none() {
            if let Ok(json) = &json {
                first = Some(json.clone());
                out.lines.push(format!(
                    "{{\"exact\": {{\"workload\": {}, \"report_digest\": {}, \"cells_executed\": {}, \"cells_cached\": {}}}}}",
                    jstr(workload),
                    jstr(&digest(json.as_bytes())),
                    stats.executed_cells,
                    stats.cached_cells
                ));
                out.lines.push(simulated_line(&report));
            }
        }
        tracer.close(root);
        if tracer.enabled() {
            traced_last = Some((setup, report, stats, profile, run_spec_s));
        }
        iters += 1;
    }
    out.lines.push(format!(
        "{{\"samples\": {{\"sweeps\": {iters}, \"op\": \"grid cell\", \"op_samples\": {}}}}}",
        cells.samples()
    ));
    out.set("setup_s", fast(&setups));
    out.set("wall_s", fast(&walls));
    out.set("sim_minstr_per_s", executed_instrs / fast(&walls) / 1e6);
    out.set("op_p50_ms", cells.p50());
    out.set("op_p90_ms", cells.p90());

    if let Some((setup, report, stats, profile, run_spec_s)) = traced_last {
        traced_layers(ctx, &setup, &report, &stats, &profile, run_spec_s, &mut out);
        let plain = fast(&plain_walls);
        out.set("tracing.overhead_frac", fast(&traced_walls) / plain - 1.0);
    }
    out
}

/// The per-layer metrics of a traced sweep iteration, plus the ledger on
/// the first workload's trace.
fn traced_layers(
    ctx: &Ctx,
    setup: &Setup,
    report: &SweepReport,
    stats: &pif_lab::SweepRunStats,
    profile: &pif_lab::SweepProfile,
    run_spec_s: f64,
    out: &mut Outcome,
) {
    let t = &ctx.tracer;
    let root = t.open("layers", None, 0);
    let n = setup.scale.instructions;
    let exec: Vec<f64> = profile
        .cells
        .iter()
        .filter(|c| !c.cached)
        .map(|c| c.exec_us as f64 / 1e3)
        .collect();
    out.set("lab.cells_executed", stats.executed_cells as f64);
    out.set("lab.cells_cached", stats.cached_cells as f64);
    out.set("lab.cell_p50_ms", median(&exec));
    out.set("lab.cell_max_ms", exec.iter().copied().fold(0.0, f64::max));
    out.set(
        "lab.pool_busy_frac",
        exec.iter().sum::<f64>() / (ctx.threads as f64 * run_spec_s * 1e3),
    );

    // Emit: what `piflab run` does with a finished report.
    let emit_ms = t.span("lab.emit", root, 0, |_| {
        let start = Instant::now();
        let json = report.to_json().expect("report serialized before");
        validate_report(&Json::parse(&json).expect("report parsed before"))
            .expect("report validated before");
        ms(start.elapsed())
    });
    out.set("lab.emit_ms", emit_ms);

    // The cache-key half a cached run of this spec would pay: the content
    // hash of every workload's stream.
    let key_ms = t.span("lab.cache_key", root, 0, |_| {
        let start = Instant::now();
        for w in setup.scale.workloads() {
            std::hint::black_box(pif_trace::content_hash(
                w.stream_with_execution_seed(n, setup.spec.seed_offset),
            ));
        }
        ms(start.elapsed())
    });
    out.set("lab.cache_key_ms", key_ms);

    rcache_ledger(ctx, report, root, out);

    let trace = t.span("workloads.materialize", root, 0, |_| {
        setup.profile.generate_with_execution_seed(n, ctx.seed)
    });
    let input = ledger::Input {
        profile: &setup.profile,
        trace: &trace,
        seed: ctx.seed,
        warmup: setup.scale.warmup_instrs(),
        engine: setup.spec.engine_base,
        pif: registry::fig10().pif_base,
    };
    let times = t.span("ledger", root, 0, |p| ledger::run(ctx, &input, p, out));
    if matches!(setup.spec.measure, Measure::Engine) {
        let none_cell = profile.cells[0].exec_us as f64 / 1e3;
        ledger::none_cell_account(out, none_cell, &times);
    }
    t.close(root);
}

/// `ResultCache` timed from outside on the report's own cells: a lookup
/// that misses, a store (with its fsync), and a lookup that hits.
pub fn rcache_ledger(ctx: &Ctx, report: &SweepReport, parent: Option<usize>, out: &mut Outcome) {
    let t = &ctx.tracer;
    let dir = ctx.work.join("rcache-ledger");
    let cache = ResultCache::open(&dir).expect("open the ledger cache");
    let (mut lookups, mut stores) = (vec![], vec![]);
    for cell in &report.cells {
        let key = CacheKey {
            trace_hash: pif_trace::hash::fnv1a_64_once(report.spec.as_bytes()),
            config_fp: cell.index as u64,
        };
        t.span("rcache.lookup", parent, cell.index as u64, |_| {
            cache.lookup(&key)
        });
        let (stored, d) = timed(|| {
            t.span("rcache.store", parent, cell.index as u64, |_| {
                cache.store(&key, &cell.metrics)
            })
        });
        stores.push(ms(d) * 1e3);
        let (hit, d) = timed(|| {
            t.span("rcache.lookup", parent, cell.index as u64, |_| {
                cache.lookup(&key)
            })
        });
        lookups.push(ms(d) * 1e3);
        out.check(
            "result cache round trip",
            match (stored, hit) {
                (Ok(()), Some(m)) if m == cell.metrics => Ok(()),
                (Err(e), _) => Err(e),
                _ => Err(format!("cell {} did not replay its metrics", cell.index)),
            },
        );
    }
    let s = cache.stats();
    out.set("rcache.lookup_p50_us", median(&lookups));
    out.set("rcache.store_p50_us", median(&stores));
    out.set("rcache.hits", s.hits as f64);
    out.set("rcache.misses", s.misses as f64);
    out.set("rcache.corrupt", s.corrupt as f64);
    let _ = std::fs::remove_dir_all(&dir);
}
