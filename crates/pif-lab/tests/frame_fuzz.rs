//! Seeded mutation fuzzing of `piflab/1` frames, the daemon's untrusted
//! input. Valid request and response lines (every variant, rendered by
//! `to_line`) are damaged with byte stomps, bit flips, truncations and
//! long runs of opening brackets, then fed to `Request::parse`,
//! `Response::parse` and `Json::parse`. Each must return `Ok` or `Err`:
//! a panic fails the test, and unbounded recursion overflows the stack
//! and aborts the test binary.

use pif_lab::json::Json;
use pif_lab::protocol::{Request, Response};
use pif_lab::{CacheStats, LatencySummary, MetricsFormat, Scale};
use pif_types::rng::SmallRng;

const INPUTS: usize = 4_000;

/// Openers whose repetition nests containers (or, for a bare `{`, fails
/// at the first byte).
const OPENERS: [&str; 4] = ["[", "{", "{\"k\": ", "[{\"k\": "];

fn seed_frames() -> Vec<String> {
    let latency = LatencySummary {
        count: 3,
        total_us: 900,
        max_us: 400,
    };
    let stats = |cache| Response::Stats {
        submitted: 4,
        completed: 3,
        max_queue_depth: 2,
        queue_wait: latency,
        exec: latency,
        stolen_jobs: 1,
        deadline_exceeded: 1,
        worker_restarts: 0,
        quarantined: 0,
        cache,
    };
    let submit = |deadline_ms| Request::Submit {
        id: 7,
        spec: "fig10".to_string(),
        scale: Scale::tiny(),
        smoke: true,
        deadline_ms,
    };
    let requests = [
        Request::Ping,
        Request::Stats,
        Request::Metrics {
            format: MetricsFormat::Prometheus,
        },
        Request::Metrics {
            format: MetricsFormat::Json,
        },
        Request::Shutdown,
        submit(None),
        submit(Some(30_000)),
    ];
    let responses = [
        Response::Pong,
        Response::ShuttingDown,
        stats(None),
        stats(Some(CacheStats {
            hits: 3,
            misses: 2,
            corrupt: 1,
            quarantined: 1,
        })),
        Response::Metrics {
            format: MetricsFormat::Prometheus,
            body: "# TYPE pif_x counter\npif_x 2\n".to_string(),
        },
        Response::Metrics {
            format: MetricsFormat::Json,
            body: "{\"schema\": \"pif-obs/v1\", \"metrics\": []}".to_string(),
        },
        Response::Report {
            request_id: 7,
            spec: "fig10".to_string(),
            cached_cells: 2,
            executed_cells: 1,
            json: "{\"schema\": \"pif-lab-sweep/v1\",\n  \"cells\": [1.5, \"\\u00e9\"]}\n"
                .to_string(),
        },
        Response::Error {
            kind: "unknown_spec".to_string(),
            retryable: false,
            request_id: 7,
            message: "unknown spec \"nope\"".to_string(),
            candidates: vec!["fig2".to_string(), "fig10".to_string()],
        },
    ];
    requests
        .iter()
        .map(Request::to_line)
        .chain(responses.iter().map(Response::to_line))
        .collect()
}

/// One damaged copy of `frame`, and whether it must fail to parse.
fn mutate(rng: &mut SmallRng, frame: &str) -> (String, bool) {
    let mut bytes = frame.as_bytes().to_vec();
    match rng.gen_range(0..4u32) {
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
        2 => bytes.truncate(rng.gen_range(0..bytes.len())),
        _ => {
            let opener = OPENERS[rng.gen_range(0..OPENERS.len())];
            let mut prefixed = opener.repeat(rng.gen_range(1_000..100_000usize));
            prefixed.push_str(frame);
            return (prefixed, true);
        }
    }
    (String::from_utf8_lossy(&bytes).into_owned(), false)
}

#[test]
fn mutated_frames_parse_or_fail_without_panicking() {
    let frames = seed_frames();
    let mut rng = SmallRng::seed_from_u64(0x5eed_f4a3);
    let (mut ok, mut err) = (0usize, 0usize);
    for _ in 0..INPUTS {
        let frame = &frames[rng.gen_range(0..frames.len())];
        let (text, must_fail) = mutate(&mut rng, frame);
        let json = Json::parse(&text);
        let request = Request::parse(&text);
        let response = Response::parse(&text);
        if must_fail {
            assert!(json.is_err() && request.is_err() && response.is_err());
        }
        match json {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    // Neither outcome may be vacuous: some damage is benign, most is not.
    assert!(ok > 0 && err > 0, "{ok} parsed, {err} rejected");
}
