//! The `piflab/1` wire protocol: line-delimited JSON over TCP.
//!
//! `piflab serve` (the `pifd` daemon) and `piflab submit` speak this
//! protocol. Framing is one JSON object per line, newline-terminated, in
//! both directions; a connection may carry any number of request/response
//! pairs in order. Every object carries `"proto": "piflab/1"` so either
//! end can reject a version mismatch with a real error instead of a
//! parse failure. A request frame longer than [`MAX_REQUEST_BYTES`], or
//! nested deeper than [`json::MAX_DEPTH`](crate::json::MAX_DEPTH), gets a
//! `bad_request`; an over-long frame also closes its connection.
//!
//! Requests:
//!
//! ```text
//! {"proto": "piflab/1", "cmd": "ping"}
//! {"proto": "piflab/1", "cmd": "stats"}
//! {"proto": "piflab/1", "cmd": "metrics", "format": "prometheus"}
//! {"proto": "piflab/1", "cmd": "shutdown"}
//! {"proto": "piflab/1", "cmd": "submit", "id": 7, "spec": "fig10", "smoke": true,
//!  "deadline_ms": 30000,
//!  "scale": {"instructions": 40000, "footprint": 0.03, "warmup_fraction": 0.3}}
//! ```
//!
//! A `submit`'s `scale` must have `instructions` an integer in
//! `1..=Scale::paper().instructions`, `footprint` in (0, 1] and
//! `warmup_fraction` in [0, 1); any other scale is a `bad_request`. So is
//! an `id` that is not an integer in `0..=2^53`, a `deadline_ms` that is
//! not an integer ≥ 1, and a `smoke` that is not a bool.
//!
//! Responses mirror the request (`pong`, `stats`, `metrics`,
//! `shutting_down`, `report`) or report an error. A `report` response
//! embeds the full `pif-lab-sweep/v1` document **as a JSON string**, not
//! as a nested object: the report's own serialization is a byte-identity
//! contract (goldens are compared byte-for-byte), and string-embedding
//! lets the client recover those exact bytes with one unescape while
//! keeping the one-line framing. A `metrics` response embeds the
//! daemon's full `pif_obs` exposition (Prometheus text or `pif-obs/v1`
//! JSON, per the request's `"format"`) as a string for the same reason.
//!
//! Error frames are typed: every `error` carries a `"kind"` token (see
//! [`Response::Error`]), a `"retryable"` flag telling clients whether a
//! resubmit can succeed, and the `"request_id"` echoed from the submit
//! (0 when the failure predates parsing an id). An `error` response to a
//! `submit` naming an unknown spec additionally carries the registry's
//! spec names in `"candidates"`, so clients can print the same hint
//! `piflab run` prints locally.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::json::{escape, fmt_f64, Json};
use crate::scale::Scale;
use crate::service::{JobError, LatencySummary, MetricsFormat, Service, ServiceStats, SweepJob};
use crate::{registry, CacheStats};

/// Protocol identifier carried by every frame.
pub const PROTO: &str = "piflab/1";

/// One client request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Ask for the daemon's counters.
    Stats,
    /// Ask for the daemon's full metrics exposition.
    Metrics {
        /// The exposition format to render.
        format: MetricsFormat,
    },
    /// Ask the daemon to drain and exit.
    Shutdown,
    /// Submit one sweep.
    Submit {
        /// Client-chosen correlation id, echoed in the report or error
        /// frame (0 when the client does not correlate).
        id: u64,
        /// Registry name of the spec to run.
        spec: String,
        /// Scale to run it at.
        scale: Scale,
        /// Mark the report as a smoke run.
        smoke: bool,
        /// Per-job deadline in milliseconds, measured from submission.
        deadline_ms: Option<u64>,
    },
}

impl Request {
    /// Serializes to one newline-terminated frame.
    pub fn to_line(&self) -> String {
        match self {
            Request::Ping => format!("{{\"proto\": \"{PROTO}\", \"cmd\": \"ping\"}}\n"),
            Request::Stats => format!("{{\"proto\": \"{PROTO}\", \"cmd\": \"stats\"}}\n"),
            Request::Metrics { format } => format!(
                "{{\"proto\": \"{PROTO}\", \"cmd\": \"metrics\", \"format\": \"{}\"}}\n",
                format_token(*format)
            ),
            Request::Shutdown => {
                format!("{{\"proto\": \"{PROTO}\", \"cmd\": \"shutdown\"}}\n")
            }
            Request::Submit {
                id,
                spec,
                scale,
                smoke,
                deadline_ms,
            } => {
                let deadline = match deadline_ms {
                    Some(ms) => format!(", \"deadline_ms\": {ms}"),
                    None => String::new(),
                };
                format!(
                    "{{\"proto\": \"{PROTO}\", \"cmd\": \"submit\", \"id\": {id}, \
                     \"spec\": \"{}\", \"smoke\": {smoke}{deadline}, \"scale\": {}}}\n",
                    escape(spec),
                    scale_json(scale)
                )
            }
        }
    }

    /// Parses one frame (the line's trailing newline is optional).
    ///
    /// # Errors
    ///
    /// Reports malformed JSON, a proto mismatch, or an unknown/ill-typed
    /// command.
    pub fn parse(line: &str) -> Result<Self, String> {
        let j = Json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
        check_proto(&j)?;
        let cmd = j
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("request missing \"cmd\"")?;
        match cmd {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics {
                format: match j.get("format").and_then(Json::as_str) {
                    None | Some("prometheus") => MetricsFormat::Prometheus,
                    Some("json") => MetricsFormat::Json,
                    Some(other) => return Err(format!("unknown metrics format {other:?}")),
                },
            }),
            "shutdown" => Ok(Request::Shutdown),
            "submit" => {
                let spec = j
                    .get("spec")
                    .and_then(Json::as_str)
                    .ok_or("submit missing \"spec\"")?
                    .to_string();
                let smoke = match j.get("smoke") {
                    None => false,
                    Some(v) => v
                        .as_bool()
                        .ok_or_else(|| format!("submit \"smoke\" must be a bool, got {v:?}"))?,
                };
                let scale = j
                    .get("scale")
                    .map(parse_scale)
                    .transpose()?
                    .unwrap_or_default();
                let id = integer_field(&j, "id", 0.0..=MAX_ID, "in 0..=2^53")?.unwrap_or(0);
                // The range `piflab submit --deadline-ms` enforces.
                let deadline_ms = integer_field(&j, "deadline_ms", 1.0..=f64::MAX, ">= 1")?;
                Ok(Request::Submit {
                    id,
                    spec,
                    scale,
                    smoke,
                    deadline_ms,
                })
            }
            other => Err(format!("unknown command {other:?}")),
        }
    }
}

/// One daemon response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// Counter snapshot.
    Stats {
        /// Jobs accepted so far.
        submitted: u64,
        /// Jobs completed so far.
        completed: u64,
        /// High-water mark of the queue depth.
        max_queue_depth: u64,
        /// Queue-wait latency of completed jobs.
        queue_wait: LatencySummary,
        /// Execution latency of completed jobs.
        exec: LatencySummary,
        /// Work-stealing handoffs across completed jobs' pool runs.
        stolen_jobs: u64,
        /// Jobs failed because their deadline expired.
        deadline_exceeded: u64,
        /// Worker threads restarted after a panic.
        worker_restarts: u64,
        /// Jobs quarantined because their worker died running them.
        quarantined: u64,
        /// Result-cache counters, when the daemon has a cache.
        cache: Option<CacheStats>,
    },
    /// The daemon's metrics exposition.
    Metrics {
        /// Format of `body`.
        format: MetricsFormat,
        /// The exposition document, embedded as a string.
        body: String,
    },
    /// Acknowledges a `shutdown` request.
    ShuttingDown,
    /// A finished sweep.
    Report {
        /// The submit's correlation id, echoed back.
        request_id: u64,
        /// The spec that ran.
        spec: String,
        /// Cells replayed from the daemon's result cache.
        cached_cells: u64,
        /// Cells simulated fresh.
        executed_cells: u64,
        /// The exact `pif-lab-sweep/v1` report bytes.
        json: String,
    },
    /// Request failed.
    Error {
        /// Failure class: `bad_request`, `unknown_spec`, `rejected`,
        /// `deadline_exceeded`, `worker_panicked`, `failed`, or
        /// `internal`.
        kind: String,
        /// Whether resubmitting the same request can succeed.
        retryable: bool,
        /// The submit's correlation id (0 when the failure predates
        /// parsing one).
        request_id: u64,
        /// Human-readable failure.
        message: String,
        /// For unknown-spec errors: the valid spec names.
        candidates: Vec<String>,
    },
}

impl Response {
    /// Serializes to one newline-terminated frame.
    pub fn to_line(&self) -> String {
        match self {
            Response::Pong => format!("{{\"proto\": \"{PROTO}\", \"resp\": \"pong\"}}\n"),
            Response::Stats {
                submitted,
                completed,
                max_queue_depth,
                queue_wait,
                exec,
                stolen_jobs,
                deadline_exceeded,
                worker_restarts,
                quarantined,
                cache,
            } => {
                let cache = match cache {
                    Some(c) => format!(
                        "{{\"hits\": {}, \"misses\": {}, \"corrupt\": {}, \
                         \"quarantined\": {}}}",
                        c.hits, c.misses, c.corrupt, c.quarantined
                    ),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"proto\": \"{PROTO}\", \"resp\": \"stats\", \"submitted\": {submitted}, \
                     \"completed\": {completed}, \"max_queue_depth\": {max_queue_depth}, \
                     \"queue_wait\": {}, \"exec\": {}, \"stolen_jobs\": {stolen_jobs}, \
                     \"deadline_exceeded\": {deadline_exceeded}, \
                     \"worker_restarts\": {worker_restarts}, \"quarantined\": {quarantined}, \
                     \"cache\": {cache}}}\n",
                    latency_json(queue_wait),
                    latency_json(exec)
                )
            }
            Response::Metrics { format, body } => format!(
                "{{\"proto\": \"{PROTO}\", \"resp\": \"metrics\", \"format\": \"{}\", \
                 \"body\": \"{}\"}}\n",
                format_token(*format),
                escape(body)
            ),
            Response::ShuttingDown => {
                format!("{{\"proto\": \"{PROTO}\", \"resp\": \"shutting_down\"}}\n")
            }
            Response::Report {
                request_id,
                spec,
                cached_cells,
                executed_cells,
                json,
            } => format!(
                "{{\"proto\": \"{PROTO}\", \"resp\": \"report\", \"request_id\": {request_id}, \
                 \"spec\": \"{}\", \"cached_cells\": {cached_cells}, \
                 \"executed_cells\": {executed_cells}, \"report\": \"{}\"}}\n",
                escape(spec),
                escape(json)
            ),
            Response::Error {
                kind,
                retryable,
                request_id,
                message,
                candidates,
            } => {
                let cands: Vec<String> = candidates
                    .iter()
                    .map(|c| format!("\"{}\"", escape(c)))
                    .collect();
                format!(
                    "{{\"proto\": \"{PROTO}\", \"resp\": \"error\", \"kind\": \"{}\", \
                     \"retryable\": {retryable}, \"request_id\": {request_id}, \
                     \"message\": \"{}\", \"candidates\": [{}]}}\n",
                    escape(kind),
                    escape(message),
                    cands.join(", ")
                )
            }
        }
    }

    /// Parses one frame (the line's trailing newline is optional).
    ///
    /// # Errors
    ///
    /// Reports malformed JSON, a proto mismatch, or an unknown/ill-typed
    /// response kind.
    pub fn parse(line: &str) -> Result<Self, String> {
        let j = Json::parse(line).map_err(|e| format!("malformed response: {e}"))?;
        check_proto(&j)?;
        let resp = j
            .get("resp")
            .and_then(Json::as_str)
            .ok_or("response missing \"resp\"")?;
        let u = |key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("response missing numeric {key:?}"))
        };
        match resp {
            "pong" => Ok(Response::Pong),
            "shutting_down" => Ok(Response::ShuttingDown),
            "stats" => Ok(Response::Stats {
                submitted: u("submitted")?,
                completed: u("completed")?,
                max_queue_depth: u("max_queue_depth")?,
                queue_wait: j
                    .get("queue_wait")
                    .and_then(parse_latency)
                    .ok_or("stats missing \"queue_wait\"")?,
                exec: j
                    .get("exec")
                    .and_then(parse_latency)
                    .ok_or("stats missing \"exec\"")?,
                stolen_jobs: u("stolen_jobs")?,
                deadline_exceeded: u("deadline_exceeded")?,
                worker_restarts: u("worker_restarts")?,
                quarantined: u("quarantined")?,
                cache: j.get("cache").and_then(|c| {
                    Some(CacheStats {
                        hits: c.get("hits")?.as_f64()? as u64,
                        misses: c.get("misses")?.as_f64()? as u64,
                        corrupt: c.get("corrupt")?.as_f64()? as u64,
                        quarantined: c.get("quarantined")?.as_f64()? as u64,
                    })
                }),
            }),
            "metrics" => Ok(Response::Metrics {
                format: match j.get("format").and_then(Json::as_str) {
                    Some("prometheus") => MetricsFormat::Prometheus,
                    Some("json") => MetricsFormat::Json,
                    other => return Err(format!("metrics response has bad format {other:?}")),
                },
                body: j
                    .get("body")
                    .and_then(Json::as_str)
                    .ok_or("metrics missing \"body\"")?
                    .to_string(),
            }),
            "report" => Ok(Response::Report {
                request_id: j
                    .get("request_id")
                    .and_then(Json::as_f64)
                    .map_or(0, |v| v as u64),
                spec: j
                    .get("spec")
                    .and_then(Json::as_str)
                    .ok_or("report missing \"spec\"")?
                    .to_string(),
                cached_cells: u("cached_cells")?,
                executed_cells: u("executed_cells")?,
                json: j
                    .get("report")
                    .and_then(Json::as_str)
                    .ok_or("report missing \"report\"")?
                    .to_string(),
            }),
            "error" => Ok(Response::Error {
                kind: j
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("internal")
                    .to_string(),
                retryable: j.get("retryable").and_then(Json::as_bool).unwrap_or(false),
                request_id: j
                    .get("request_id")
                    .and_then(Json::as_f64)
                    .map_or(0, |v| v as u64),
                message: j
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_string(),
                candidates: j
                    .get("candidates")
                    .and_then(Json::as_arr)
                    .map(|a| {
                        a.iter()
                            .filter_map(|c| c.as_str().map(str::to_string))
                            .collect()
                    })
                    .unwrap_or_default(),
            }),
            other => Err(format!("unknown response {other:?}")),
        }
    }
}

/// The wire token of a [`MetricsFormat`].
fn format_token(format: MetricsFormat) -> &'static str {
    match format {
        MetricsFormat::Prometheus => "prometheus",
        MetricsFormat::Json => "json",
    }
}

fn latency_json(summary: &LatencySummary) -> String {
    format!(
        "{{\"count\": {}, \"total_us\": {}, \"max_us\": {}}}",
        summary.count, summary.total_us, summary.max_us
    )
}

fn parse_latency(j: &Json) -> Option<LatencySummary> {
    Some(LatencySummary {
        count: j.get("count")?.as_f64()? as u64,
        total_us: j.get("total_us")?.as_f64()? as u64,
        max_us: j.get("max_us")?.as_f64()? as u64,
    })
}

fn check_proto(j: &Json) -> Result<(), String> {
    match j.get("proto").and_then(Json::as_str) {
        Some(PROTO) => Ok(()),
        Some(other) => Err(format!("protocol mismatch: {other:?}, want {PROTO:?}")),
        None => Err(format!("frame missing \"proto\": \"{PROTO}\"")),
    }
}

fn scale_json(scale: &Scale) -> String {
    format!(
        "{{\"instructions\": {}, \"footprint\": {}, \"warmup_fraction\": {}}}",
        scale.instructions,
        fmt_f64(scale.footprint),
        fmt_f64(scale.warmup_fraction)
    )
}

/// Largest submit `id`: every integer up to 2^53 survives the f64 that
/// JSON numbers parse into.
const MAX_ID: f64 = (1u64 << 53) as f64;

/// Reads the optional integer field `key` of a submit, which must lie in
/// `range` (described as `bounds` in the error). JSON numbers parse as
/// f64, and a cast would silently truncate a fraction, clamp a negative
/// to 0 and saturate an overflow.
fn integer_field(
    j: &Json,
    key: &str,
    range: std::ops::RangeInclusive<f64>,
    bounds: &str,
) -> Result<Option<u64>, String> {
    let Some(v) = j.get(key) else {
        return Ok(None);
    };
    match v.as_f64() {
        Some(x) if x.fract() == 0.0 && range.contains(&x) => Ok(Some(x as u64)),
        _ => Err(format!(
            "submit \"{key}\" must be an integer {bounds}, got {v:?}"
        )),
    }
}

/// Parses a client-supplied scale, rejecting any value outside the range
/// the daemon can run: `instructions` an integer in
/// `1..=Scale::paper().instructions`, `footprint` in (0, 1] and
/// `warmup_fraction` in [0, 1). Unchecked, a huge count would abort the
/// daemon on allocation, and negative or NaN values would silently
/// become 0.
fn parse_scale(j: &Json) -> Result<Scale, String> {
    let f = |key: &str| -> Result<f64, String> {
        j.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("scale missing numeric {key:?}"))
    };
    let max_instructions = Scale::paper().instructions;
    let instructions = f("instructions")?;
    if !(instructions.fract() == 0.0 && (1.0..=max_instructions as f64).contains(&instructions)) {
        return Err(format!(
            "scale \"instructions\" must be an integer in 1..={max_instructions}, \
             got {instructions}"
        ));
    }
    let footprint = f("footprint")?;
    if !(footprint > 0.0 && footprint <= 1.0) {
        return Err(format!(
            "scale \"footprint\" must be in (0, 1], got {footprint}"
        ));
    }
    let warmup_fraction = f("warmup_fraction")?;
    if !(0.0..1.0).contains(&warmup_fraction) {
        return Err(format!(
            "scale \"warmup_fraction\" must be in [0, 1), got {warmup_fraction}"
        ));
    }
    Ok(Scale {
        instructions: instructions as usize,
        footprint,
        warmup_fraction,
    })
}

/// How often blocked accept/read calls re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// The longest request frame the daemon reads, newline included. A
/// submit is a few hundred bytes; a longer frame gets a `bad_request`
/// and its connection is closed, so no client can grow a connection's
/// buffer without bound. Response frames, which carry whole reports,
/// are not capped.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Serves `piflab/1` on `listener` until `shutdown` becomes true.
///
/// Each connection gets its own scoped thread and is served
/// request-by-request; a `submit` blocks its connection (honoring the
/// service queue's backpressure) while other connections keep being
/// accepted. A `shutdown` request sets the shared flag, so either a
/// signal handler or a client can stop the daemon; in-flight submissions
/// finish before `serve` returns.
///
/// # Errors
///
/// Reports listener configuration failures. Per-connection I/O errors
/// drop that connection only.
pub fn serve(
    listener: TcpListener,
    service: &Service,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    std::thread::scope(|s| {
        while !shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    s.spawn(move || {
                        if let Err(e) = serve_connection(stream, service, shutdown) {
                            eprintln!("pifd: connection error: {e}");
                        }
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(e) => {
                    eprintln!("pifd: accept error: {e}");
                    std::thread::sleep(POLL);
                }
            }
        }
        Ok(())
    })
}

fn serve_connection(
    stream: TcpStream,
    service: &Service,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut frame = Vec::new();
    loop {
        // `read_until` keeps partial data in `frame` across timeouts, so a
        // slow client cannot split a frame.
        // Injected socket faults drop the connection (the daemon-side
        // symptom of a flaky network); the client's retry loop owns
        // recovery.
        pif_fail::fail_point!("proto.read.frame", |e: pif_fail::FailError| Err(
            std::io::Error::other(e.to_string())
        ));
        // One byte past the cap is enough to tell an over-long frame.
        let budget = (MAX_REQUEST_BYTES + 1 - frame.len()) as u64;
        match (&mut reader).take(budget).read_until(b'\n', &mut frame) {
            Ok(0) => return Ok(()),
            Ok(_) => {
                if frame.len() > MAX_REQUEST_BYTES {
                    // The rest of the frame is never read, so the
                    // connection cannot resynchronise: reply, then close.
                    let response =
                        bad_request(format!("request frame exceeds {MAX_REQUEST_BYTES} bytes"));
                    writer.write_all(response.to_line().as_bytes())?;
                    return writer.flush();
                }
                let response = match std::str::from_utf8(&frame) {
                    Ok(line) if line.trim().is_empty() => {
                        frame.clear();
                        continue;
                    }
                    Ok(line) => handle_request(line, service, shutdown),
                    Err(e) => bad_request(format!("request frame is not UTF-8: {e}")),
                };
                let done = matches!(response, Response::ShuttingDown);
                pif_fail::fail_point!("proto.write.frame", |e: pif_fail::FailError| Err(
                    std::io::Error::other(e.to_string())
                ));
                writer.write_all(response.to_line().as_bytes())?;
                writer.flush()?;
                frame.clear();
                if done {
                    return Ok(());
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// A non-retryable `bad_request` frame for a request that never parsed.
fn bad_request(message: String) -> Response {
    Response::Error {
        kind: "bad_request".to_string(),
        retryable: false,
        request_id: 0,
        message,
        candidates: Vec::new(),
    }
}

/// Handles one parsed request against the service. Exposed so tests can
/// drive the dispatch without sockets.
pub fn handle_request(line: &str, service: &Service, shutdown: &AtomicBool) -> Response {
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(message) => return bad_request(message),
    };
    match request {
        Request::Ping => Response::Pong,
        Request::Stats => {
            let ServiceStats {
                submitted,
                completed,
                max_queue_depth,
                queue_wait,
                exec,
                stolen_jobs,
                deadline_exceeded,
                worker_restarts,
                quarantined,
                cache,
            } = service.stats();
            Response::Stats {
                submitted,
                completed,
                max_queue_depth: max_queue_depth as u64,
                queue_wait,
                exec,
                stolen_jobs,
                deadline_exceeded,
                worker_restarts,
                quarantined,
                cache,
            }
        }
        Request::Metrics { format } => Response::Metrics {
            format,
            body: service.render_metrics(format),
        },
        Request::Shutdown => {
            shutdown.store(true, Ordering::SeqCst);
            Response::ShuttingDown
        }
        Request::Submit {
            id,
            spec,
            scale,
            smoke,
            deadline_ms,
        } => {
            let Some(resolved) = registry::spec(&spec) else {
                return Response::Error {
                    kind: "unknown_spec".to_string(),
                    retryable: false,
                    request_id: id,
                    message: format!("unknown spec {spec:?}"),
                    candidates: registry::all_specs()
                        .iter()
                        .map(|s| s.name.to_string())
                        .collect(),
                };
            };
            let job = SweepJob::new(resolved, scale)
                .smoke(smoke)
                .deadline(deadline_ms.map(Duration::from_millis));
            let outcome = service.submit(job).and_then(|handle| handle.wait());
            match outcome {
                Ok(outcome) => match outcome.report.to_json() {
                    Ok(json) => Response::Report {
                        request_id: id,
                        spec,
                        cached_cells: outcome.cached_cells as u64,
                        executed_cells: outcome.executed_cells as u64,
                        json,
                    },
                    Err(e) => Response::Error {
                        kind: "internal".to_string(),
                        retryable: false,
                        request_id: id,
                        message: format!("report for {spec} failed to serialize: {e}"),
                        candidates: Vec::new(),
                    },
                },
                Err(err) => error_frame(id, &err),
            }
        }
    }
}

/// Renders a [`JobError`] as a typed wire error frame.
fn error_frame(request_id: u64, err: &JobError) -> Response {
    Response::Error {
        kind: err.kind().to_string(),
        retryable: err.retryable(),
        request_id,
        message: err.to_string(),
        candidates: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Metrics {
                format: MetricsFormat::Prometheus,
            },
            Request::Metrics {
                format: MetricsFormat::Json,
            },
            Request::Shutdown,
            Request::Submit {
                id: 0,
                spec: "fig10".to_string(),
                scale: Scale::tiny(),
                smoke: true,
                deadline_ms: None,
            },
            Request::Submit {
                id: 41,
                spec: "fig10".to_string(),
                scale: Scale::tiny(),
                smoke: false,
                deadline_ms: Some(30_000),
            },
        ];
        for r in reqs {
            let line = r.to_line();
            assert!(line.ends_with('\n'), "{line:?}");
            assert!(
                !line.trim_end().contains('\n'),
                "one-line framing: {line:?}"
            );
            assert_eq!(Request::parse(&line).unwrap(), r);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Pong,
            Response::ShuttingDown,
            Response::Stats {
                submitted: 9,
                completed: 7,
                max_queue_depth: 4,
                queue_wait: LatencySummary {
                    count: 7,
                    total_us: 900,
                    max_us: 400,
                },
                exec: LatencySummary {
                    count: 7,
                    total_us: 123_456,
                    max_us: 50_000,
                },
                stolen_jobs: 3,
                deadline_exceeded: 2,
                worker_restarts: 1,
                quarantined: 1,
                cache: Some(CacheStats {
                    hits: 3,
                    misses: 2,
                    corrupt: 1,
                    quarantined: 1,
                }),
            },
            Response::Stats {
                submitted: 0,
                completed: 0,
                max_queue_depth: 0,
                queue_wait: LatencySummary::default(),
                exec: LatencySummary::default(),
                stolen_jobs: 0,
                deadline_exceeded: 0,
                worker_restarts: 0,
                quarantined: 0,
                cache: None,
            },
            Response::Metrics {
                format: MetricsFormat::Prometheus,
                body: "# TYPE pif_service_jobs_completed counter\n\
                       pif_service_jobs_completed 2\n"
                    .to_string(),
            },
            Response::Metrics {
                format: MetricsFormat::Json,
                body: "{\"schema\": \"pif-obs/v1\", \"metrics\": []}".to_string(),
            },
            Response::Report {
                request_id: 41,
                spec: "fig10".to_string(),
                cached_cells: 5,
                executed_cells: 1,
                json: "{\"schema\": \"pif-lab-sweep/v1\",\n  \"cells\": []}\n".to_string(),
            },
            Response::Error {
                kind: "unknown_spec".to_string(),
                retryable: false,
                request_id: 41,
                message: "unknown spec \"nope\"".to_string(),
                candidates: vec!["fig2".to_string(), "fig10".to_string()],
            },
            Response::Error {
                kind: "deadline_exceeded".to_string(),
                retryable: true,
                request_id: 7,
                message: "job deadline of 30000 ms exceeded".to_string(),
                candidates: Vec::new(),
            },
        ];
        for r in resps {
            let line = r.to_line();
            assert!(line.ends_with('\n'), "{line:?}");
            assert!(
                !line.trim_end().contains('\n'),
                "one-line framing: {line:?}"
            );
            assert_eq!(Response::parse(&line).unwrap(), r);
        }
    }

    #[test]
    fn report_bytes_survive_embedding_exactly() {
        let json = "{\"a\": 1.5, \"b\": \"x\\\"y\",\n \"c\": [1, 2]}\n";
        let line = Response::Report {
            request_id: 0,
            spec: "s".to_string(),
            cached_cells: 0,
            executed_cells: 0,
            json: json.to_string(),
        }
        .to_line();
        match Response::parse(&line).unwrap() {
            Response::Report { json: back, .. } => assert_eq!(back, json),
            other => panic!("expected report, got {other:?}"),
        }
    }

    #[test]
    fn proto_mismatch_is_rejected() {
        let err = Request::parse("{\"proto\": \"piflab/9\", \"cmd\": \"ping\"}").unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
        let err = Request::parse("{\"cmd\": \"ping\"}").unwrap_err();
        assert!(err.contains("proto"), "{err}");
    }

    #[test]
    fn submit_defaults_and_unknown_cmd() {
        let r = Request::parse(&format!(
            "{{\"proto\": \"{PROTO}\", \"cmd\": \"submit\", \"spec\": \"table1\"}}"
        ))
        .unwrap();
        assert_eq!(
            r,
            Request::Submit {
                id: 0,
                spec: "table1".to_string(),
                scale: Scale::default(),
                smoke: false,
                deadline_ms: None,
            }
        );
        assert!(
            Request::parse(&format!("{{\"proto\": \"{PROTO}\", \"cmd\": \"dance\"}}")).is_err()
        );
    }
}
