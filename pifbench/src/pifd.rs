//! The daemon workloads, `pifd-cold` and `pifd-warm`: an in-process
//! `Service` (one worker, a pool of `nproc` threads) served by
//! `protocol::serve` on loopback, driven in a closed loop by two client
//! connections over a seeded list of submits.
//!
//! `pifd-cold` times passes of a daemon with no result cache, so every
//! cell is simulated. `pifd-warm` gives the daemon a fresh cache; its
//! set-up is a cold pass, which simulates every cell and stores it with
//! an fsync, and its timed passes replay the same list, so every cell is
//! a cache lookup. The stores stay out of pifd-cold's timed passes: an
//! fsync's latency follows the load on the host's disk, which swings by
//! more than twice within minutes, and at these scales the stores take
//! more time than the simulation.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pif_lab::json::Json;
use pif_lab::protocol::{serve, Request, Response};
use pif_lab::report::validate_report;
use pif_lab::service::{Service, ServiceConfig, ServiceStats};
use pif_lab::{registry, run_spec_profiled, CacheStats, Measure, RunOptions, Scale};

use crate::span::Tracer;
use crate::sweep::rcache_ledger;
use crate::util::{digest, fast, jstr, mean, median, ms, timed, PassLatencies, SplitMix};
use crate::{ledger, Ctx, Outcome};

/// Per-submit deadline. A submit that misses it fails.
const DEADLINE_MS: u64 = 30_000;

/// The clients: closed loop, each waits for its reply before sending.
const CLIENTS: usize = 2;

/// Pause between one daemon cycle and the next.
const SETTLE: Duration = Duration::from_millis(20);

/// Registry specs the request list draws from: engine, analysis and
/// sampled grids, and the recorded-trace engine grid.
const SPECS: [&str; 4] = ["fig10", "fig9-history", "fig-sampling", "fig-bintrace"];

#[derive(Debug, Clone)]
struct Req {
    id: u64,
    spec: &'static str,
    scale: Scale,
}

impl Req {
    fn frame(&self) -> String {
        Request::Submit {
            id: self.id,
            spec: self.spec.to_string(),
            scale: self.scale,
            smoke: false,
            deadline_ms: Some(DEADLINE_MS),
        }
        .to_line()
    }
}

/// The seeded request list: the specs in turn, each request with its own
/// instruction count, so no two requests share a cell and the first pass
/// is entirely cold. The seed picks each count within a slot of 64 of its
/// own; the order stays fixed, so every seed queues the same mix of jobs
/// behind one another and asks for the same amount of work.
fn request_list(seed: u64, n: usize) -> Vec<Req> {
    let mut rng = SplitMix::new(seed);
    (0..n)
        .map(|i| Req {
            id: i as u64,
            spec: SPECS[i % SPECS.len()],
            scale: Scale {
                instructions: 10_000 + 64 * i + rng.below(64) as usize,
                footprint: Scale::tiny().footprint,
                warmup_fraction: Scale::tiny().warmup_fraction,
            },
        })
        .collect()
}

/// One submit's result as the client saw it.
#[derive(Debug, Clone)]
struct Reply {
    ms: f64,
    frame_bytes: usize,
    parse_ms: f64,
    outcome: Result<(String, u64, u64), String>,
}

/// The daemon of one cycle: service, listener thread and client
/// connections.
struct Daemon {
    clients: Vec<Mutex<(TcpStream, BufReader<TcpStream>)>>,
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_millis(DEADLINE_MS + 10_000)))?;
    let r = BufReader::new(s.try_clone()?);
    Ok((s, r))
}

/// One round trip, from the frame being sent to the reply frame being
/// received. No retry: a failure is reported as it happened.
fn round_trip(
    conn: &mut (TcpStream, BufReader<TcpStream>),
    frame: &str,
) -> Result<(String, f64), String> {
    let start = Instant::now();
    conn.0
        .write_all(frame.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut line = String::new();
    match conn.1.read_line(&mut line) {
        Ok(0) => Err("connection dropped".into()),
        Ok(_) => Ok((line, ms(start.elapsed()))),
        Err(e) => Err(format!("no reply (missed deadline or dropped): {e}")),
    }
}

impl Daemon {
    /// Runs every request of `list` through the clients, closed loop.
    fn pass(&self, list: &[Req], tracer: &Tracer, parent: Option<usize>) -> Vec<Reply> {
        let next = AtomicUsize::new(0);
        let replies: Vec<Mutex<Option<Reply>>> = list.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for client in &self.clients {
                let (next, replies) = (&next, &replies);
                s.spawn(move || {
                    let mut conn = client.lock().expect("client poisoned");
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = list.get(i) else { break };
                        let reply =
                            tracer.span("proto.submit", parent, req.id, |_| submit(&mut conn, req));
                        *replies[i].lock().expect("reply poisoned") = Some(reply);
                    }
                });
            }
        });
        replies
            .into_iter()
            .map(|r| {
                r.into_inner()
                    .expect("reply poisoned")
                    .expect("every request sent")
            })
            .collect()
    }

    fn ping_rtts_us(&self, n: usize) -> Vec<f64> {
        let mut conn = self.clients[0].lock().expect("client poisoned");
        let frame = Request::Ping.to_line();
        (0..n)
            .filter_map(|_| round_trip(&mut conn, &frame).ok())
            .filter(|(line, _)| matches!(Response::parse(line), Ok(Response::Pong)))
            .map(|(_, ms)| ms * 1e3)
            .collect()
    }
}

fn submit(conn: &mut (TcpStream, BufReader<TcpStream>), req: &Req) -> Reply {
    match round_trip(conn, &req.frame()) {
        Err(e) => Reply {
            ms: 0.0,
            frame_bytes: 0,
            parse_ms: 0.0,
            outcome: Err(e),
        },
        Ok((line, rtt)) => {
            let (parsed, d) = timed(|| Response::parse(&line));
            let outcome = match parsed {
                Ok(Response::Report {
                    request_id,
                    json,
                    cached_cells,
                    executed_cells,
                    ..
                }) if request_id == req.id => Ok((json, cached_cells, executed_cells)),
                Ok(Response::Error { kind, message, .. }) => {
                    Err(format!("error frame {kind}: {message}"))
                }
                Ok(other) => Err(format!("unexpected reply {other:?}")),
                Err(e) => Err(format!("unparseable reply: {e}")),
            };
            Reply {
                ms: rtt,
                frame_bytes: line.len(),
                parse_ms: ms(d),
                outcome,
            }
        }
    }
}

/// A direct `run_spec` of every request: the bytes each pifd reply must
/// equal. Profiled, so the traced run can read its cells.
struct References {
    json: Vec<String>,
    cell_ms: Vec<f64>,
    wall_s: f64,
    /// Executed instructions of the whole list.
    instrs: f64,
    /// Cells of the whole list.
    cells: u64,
    /// The None cell of the first fig10 request, and that request.
    none_cell_ms: Option<(f64, usize)>,
}

fn references(ctx: &Ctx, list: &[Req]) -> References {
    let mut r = References {
        json: vec![],
        cell_ms: vec![],
        wall_s: 0.0,
        instrs: 0.0,
        cells: 0,
        none_cell_ms: None,
    };
    for (i, req) in list.iter().enumerate() {
        let spec = registry::spec(req.spec).expect("registry spec");
        let opts = RunOptions::new().scale(req.scale).threads(ctx.threads);
        let ((report, stats, profile), d) = timed(|| run_spec_profiled(&spec, &opts));
        r.wall_s += d.as_secs_f64();
        let mut json = report.to_json().expect("reference report serializes");
        if ctx.corrupt_reference {
            json.push(' ');
        }
        r.json.push(json);
        r.cells += stats.executed_cells as u64;
        r.instrs += stats.executed_cells as f64 * req.scale.instructions as f64;
        r.cell_ms
            .extend(profile.cells.iter().map(|c| c.exec_us as f64 / 1e3));
        if r.none_cell_ms.is_none() && matches!(spec.measure, Measure::Engine) && !spec.recorded {
            r.none_cell_ms = Some((profile.cells[0].exec_us as f64 / 1e3, i));
        }
    }
    r
}

/// Checks one reply against the direct reference and, on a warm pass,
/// against the cold reply of the same request.
fn check(reply: &Reply, reference: &str, cold: Option<&str>, grid: u64) -> Result<(), String> {
    let (json, cached, executed) = reply.outcome.as_ref().map_err(Clone::clone)?;
    validate_report(&Json::parse(json).map_err(|e| format!("report does not parse: {e}"))?)?;
    if json != reference {
        return Err("report bytes differ from a direct run_spec".into());
    }
    match cold {
        None if (*cached, *executed) != (0, grid) => Err(format!(
            "cold pass: {cached} cached, {executed} executed of {grid}"
        )),
        Some(c) if c != json => Err("warm reply differs from the cold reply".into()),
        Some(_) if (*cached, *executed) != (grid, 0) => Err(format!(
            "warm pass: {cached} cached, {executed} executed of {grid}"
        )),
        _ => Ok(()),
    }
}

/// Starts a daemon, on a fresh result cache when `cache` is set and with
/// none otherwise, runs `body` against it, and stops every thread it
/// started before returning.
fn with_daemon<R>(
    ctx: &Ctx,
    cycle: usize,
    cache: bool,
    tracer: &Tracer,
    parent: Option<usize>,
    body: impl FnOnce(&Daemon, &Service) -> R,
) -> (R, f64) {
    // The previous cycle's threads and sockets finish closing first, so
    // this cycle's set-up does not pay for them.
    std::thread::sleep(SETTLE);
    let cache_dir = ctx.work.join(format!("cache-{cycle}"));
    let setup_start = Instant::now();
    let (service, listener) = tracer.span("setup.daemon", parent, cycle as u64, |_| {
        let service = Service::start(ServiceConfig {
            workers: 1,
            threads: ctx.threads,
            cache_dir: cache.then(|| cache_dir.clone()),
            ..ServiceConfig::default()
        });
        (
            service,
            TcpListener::bind("127.0.0.1:0").expect("bind loopback"),
        )
    });
    let addr = listener.local_addr().expect("listener address");
    let shutdown = AtomicBool::new(false);
    let r = std::thread::scope(|s| {
        let server = s.spawn(|| serve(listener, &service, &shutdown));
        // The daemon is up once every connection answers a ping: `serve`
        // accepts connections on its own schedule, and a submit sent
        // before then would wait for it inside the timed phase.
        let clients = tracer.span("setup.connect", parent, cycle as u64, |_| {
            let ping = Request::Ping.to_line();
            (0..CLIENTS)
                .map(|_| {
                    let mut conn = connect(addr).expect("connect to the daemon");
                    let (line, _) = round_trip(&mut conn, &ping).expect("ping the daemon");
                    assert!(
                        matches!(Response::parse(&line), Ok(Response::Pong)),
                        "the daemon answered a ping with {line}"
                    );
                    Mutex::new(conn)
                })
                .collect()
        });
        let daemon = Daemon { clients };
        let setup_s = setup_start.elapsed().as_secs_f64();
        let r = body(&daemon, &service);
        drop(daemon);
        shutdown.store(true, Ordering::SeqCst);
        server
            .join()
            .expect("serve thread panicked")
            .expect("serve loop failed");
        (r, setup_s)
    });
    service.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
    r
}

/// What one daemon cycle measured.
struct Cycle {
    /// Wall time of the cold pass that fills the cache (pifd-warm), or 0.
    fill_s: f64,
    /// Wall time of each timed pass.
    pass_s: Vec<f64>,
}

pub fn run(ctx: &Ctx, warm: bool) -> Outcome {
    let mut out = Outcome::default();
    let list = request_list(ctx.seed, ctx.size.pifd_requests());
    let grids: Vec<u64> = list
        .iter()
        .map(|r| registry::spec(r.spec).expect("registry spec").grid_len() as u64)
        .collect();
    // The check references (a direct run_spec of every request) are
    // computed once per run, before any cycle; they are the checker's
    // cost, not the daemon's, so no metric includes them. Each cycle's
    // set-up starts a daemon: with no result cache on pifd-cold, and on
    // pifd-warm on an empty one that the cold pass then fills.
    let (refs, refs_d) = timed(|| {
        ctx.tracer
            .span("setup.references", None, 0, |_| references(ctx, &list))
    });
    let untraced = Tracer::new(false);
    let (mut cycle_setups, mut walls) = (vec![], vec![]);
    let mut ops = PassLatencies::default();
    let (mut traced_walls, mut plain_walls) = (vec![], vec![]);
    let mut traced: Option<(Vec<Reply>, Vec<f64>, ServiceStats, CacheStats)> = None;
    let mut exact: Option<(u64, u64, u64, u64)> = None;
    let mut timed_s = 0.0;
    let mut cycle = 0usize;
    while ctx.more(timed_s, ops.samples(), cycle) {
        let tracer = if ctx.tracer.enabled() && cycle % 2 == 1 {
            &ctx.tracer
        } else {
            &untraced
        };
        let root = tracer.open("cycle", None, cycle as u64);
        let (c, daemon_s) = with_daemon(ctx, cycle, warm, tracer, root, |daemon, service| {
            // On pifd-warm, set-up ends with the cold pass that fills the
            // cache.
            let start = Instant::now();
            let fill = warm.then(|| {
                tracer.span("phase.fill", root, cycle as u64, |p| {
                    daemon.pass(&list, tracer, p)
                })
            });
            let fill_s = start.elapsed().as_secs_f64();
            for (i, reply) in fill.iter().flatten().enumerate() {
                out.check(
                    &format!("cold submit {i} (spec {})", list[i].spec),
                    check(reply, &refs.json[i], None, grids[i]),
                );
            }
            let mut passes = vec![];
            // Cache counters after the first timed pass: exact for a seed,
            // unlike totals over a time-bounded number of passes.
            let mut first_pass_cache = None;
            for _ in 0..ctx.size.passes() {
                let t = Instant::now();
                let phase = if warm { "phase.warm" } else { "phase.cold" };
                let pass =
                    tracer.span(phase, root, cycle as u64, |p| daemon.pass(&list, tracer, p));
                passes.push((pass, t.elapsed().as_secs_f64()));
                first_pass_cache.get_or_insert_with(|| service.stats().cache.unwrap_or_default());
            }
            for (pass, _) in &passes {
                for (i, reply) in pass.iter().enumerate() {
                    let res = match &fill {
                        None => check(reply, &refs.json[i], None, grids[i]),
                        Some(cold) => match &cold[i].outcome {
                            Ok((json, ..)) => check(reply, &refs.json[i], Some(json), grids[i]),
                            Err(_) => Err("no cold reply to compare with".into()),
                        },
                    };
                    let what = if warm { "warm" } else { "cold" };
                    out.check(&format!("{what} submit {i} (spec {})", list[i].spec), res);
                }
                ops.push(&pass.iter().map(|r| r.ms).collect::<Vec<_>>());
            }
            let stats = service.stats();
            let cache = first_pass_cache.unwrap_or_default();
            let sum = |replies: &[Reply], f: fn(&(String, u64, u64)) -> u64| -> u64 {
                replies
                    .iter()
                    .map(|r| r.outcome.as_ref().map_or(0, f))
                    .sum()
            };
            let simulated = fill.as_deref().unwrap_or(&passes[0].0);
            exact.get_or_insert((
                sum(simulated, |o| o.2),
                sum(&passes[0].0, |o| o.1),
                cache.hits,
                cache.misses,
            ));
            let pass_s = passes.iter().map(|p| p.1).collect();
            if tracer.enabled() {
                let last = passes.pop().map(|p| p.0).unwrap_or_default();
                traced = Some((last, daemon.ping_rtts_us(200), stats, cache));
            }
            Cycle { fill_s, pass_s }
        });
        cycle_setups.push(daemon_s + c.fill_s);
        timed_s += c.pass_s.iter().sum::<f64>();
        walls.extend(&c.pass_s);
        if tracer.enabled() {
            traced_walls.extend(&c.pass_s);
        } else {
            plain_walls.extend(&c.pass_s);
        }
        tracer.close(root);
        cycle += 1;
    }
    if let Some((executed, cached, hits, misses)) = exact {
        out.lines.push(format!(
            "{{\"exact\": {{\"workload\": {}, \"requests\": {}, \"report_digest\": {}, \"cells_executed\": {executed}, \"cells_cached\": {cached}, \"cache_hits\": {hits}, \"cache_misses\": {misses}}}}}",
            jstr(if warm { "pifd-warm" } else { "pifd-cold" }),
            list.len(),
            jstr(&digest(refs.json.iter().map(|j| digest(j.as_bytes())).collect::<String>().as_bytes())),
        ));
    }
    out.lines.push(format!(
        "{{\"samples\": {{\"cycles\": {cycle}, \"passes\": {}, \"op\": \"{} submit round trip\", \"op_samples\": {}, \"references_s\": {}}}}}",
        walls.len(),
        if warm { "warm" } else { "cold" },
        ops.samples(),
        refs_d.as_secs_f64()
    ));
    out.set("setup_s", fast(&cycle_setups));
    out.set("wall_s", fast(&walls));
    // Instructions of the cells a pass delivers: simulated on the cold
    // pass, replayed from the cache on a warm one.
    out.set("sim_minstr_per_s", refs.instrs / fast(&walls) / 1e6);
    out.set("op_p50_ms", ops.p50());
    out.set("op_p90_ms", ops.p90());

    if let Some((replies, ping, stats, cache)) = traced {
        out.set(
            "service.queue_wait_mean_ms",
            stats.queue_wait.mean_us() / 1e3,
        );
        out.set("service.exec_mean_ms", stats.exec.mean_us() / 1e3);
        out.set("service.max_queue_depth", stats.max_queue_depth as f64);
        out.set(
            "service.failures",
            (stats.deadline_exceeded + stats.worker_restarts + stats.quarantined) as f64,
        );
        out.set("proto.ping_rtt_p50_us", median(&ping));
        let frames: Vec<f64> = replies
            .iter()
            .map(|r| r.frame_bytes as f64 / 1024.0)
            .collect();
        out.set("proto.report_frame_kb", mean(&frames));
        let parse: Vec<f64> = replies.iter().map(|r| r.parse_ms).collect();
        out.set("proto.parse_ms", mean(&parse));
        out.set("lab.cells_executed", refs.cells as f64);
        out.set(
            "lab.cells_cached",
            if warm { refs.cells as f64 } else { 0.0 },
        );
        out.set("lab.cell_p50_ms", median(&refs.cell_ms));
        out.set(
            "lab.cell_max_ms",
            refs.cell_ms.iter().copied().fold(0.0, f64::max),
        );
        out.set(
            "lab.pool_busy_frac",
            refs.cell_ms.iter().sum::<f64>() / (ctx.threads as f64 * refs.wall_s * 1e3),
        );
        traced_layers(ctx, &list, &refs, &mut out);
        // On pifd-warm the daemon's cache counters after the first timed
        // pass are the workload's exact counts; they replace the ledger
        // cache's. The pifd-cold daemon has no cache.
        if warm {
            out.set("rcache.hits", cache.hits as f64);
            out.set("rcache.misses", cache.misses as f64);
            out.set("rcache.corrupt", cache.corrupt as f64);
        }
        out.set(
            "tracing.overhead_frac",
            fast(&traced_walls) / fast(&plain_walls) - 1.0,
        );
    }
    out
}

/// Outside-in layer calls on the request list: report emit, cache-key
/// hashing, recorded loads, the result cache, and the ledger on the first
/// engine request's trace.
fn traced_layers(ctx: &Ctx, list: &[Req], refs: &References, out: &mut Outcome) {
    let t = &ctx.tracer;
    let root = t.open("layers", None, 0);
    let mut emit = vec![];
    let mut key = vec![];
    let mut load = vec![];
    for (i, req) in list.iter().enumerate() {
        let spec = registry::spec(req.spec).expect("registry spec");
        let (_, d) = timed(|| {
            t.span("lab.emit", root, req.id, |_| {
                validate_report(&Json::parse(&refs.json[i]).expect("reference parses")).is_ok()
            })
        });
        emit.push(ms(d));
        let (_, d) = timed(|| {
            t.span("lab.cache_key", root, req.id, |_| {
                if spec.recorded {
                    for w in spec.workload_names() {
                        let trace = pif_lab::recorded::load(&w, req.scale.instructions)
                            .expect("demo workload");
                        std::hint::black_box(pif_trace::content_hash(
                            trace.instrs().iter().copied(),
                        ));
                    }
                } else {
                    for w in req.scale.workloads() {
                        std::hint::black_box(pif_trace::content_hash(
                            w.stream_with_execution_seed(req.scale.instructions, spec.seed_offset),
                        ));
                    }
                }
            })
        });
        key.push(ms(d));
        if spec.recorded {
            let (_, d) = timed(|| {
                t.span("lab.load", root, req.id, |_| {
                    pif_lab::recorded::load(&spec.workload_names()[0], req.scale.instructions)
                })
            });
            load.push(ms(d));
        }
    }
    out.set("lab.emit_ms", mean(&emit));
    out.set("lab.cache_key_ms", mean(&key));
    out.set("lab.load_ms", mean(&load));

    let first = registry::spec(list[0].spec).expect("registry spec");
    let report = run_spec_profiled(
        &first,
        &RunOptions::new().scale(list[0].scale).threads(ctx.threads),
    )
    .0;
    rcache_ledger(ctx, &report, root, out);

    if let Some((cell_ms, i)) = refs.none_cell_ms {
        let req = &list[i];
        let profile = req.scale.workloads().swap_remove(0);
        let trace = profile.generate_with_execution_seed(req.scale.instructions, 0);
        let input = ledger::Input {
            profile: &profile,
            trace: &trace,
            seed: 0,
            warmup: req.scale.warmup_instrs(),
            engine: first.engine_base,
            pif: registry::fig10().pif_base,
        };
        let times = t.span("ledger", root, 0, |p| ledger::run(ctx, &input, p, out));
        ledger::none_cell_account(out, cell_ms, &times);
    }
    t.close(root);
}
