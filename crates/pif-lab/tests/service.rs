//! End-to-end exercise of the `pifd` building blocks in-process: a real
//! TCP listener speaking `piflab/1`, a bounded-queue [`Service`], and
//! clients submitting sweeps concurrently. The CI smoke shard and the
//! soak test drive the same path through the `piflab` binary; this test
//! keeps the library layer honest without spawning processes.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::time::Duration;

use pif_lab::json::Json;
use pif_lab::protocol::{serve, Request, Response};
use pif_lab::report::validate_report;
use pif_lab::service::{Service, ServiceConfig};
use pif_lab::{registry, run_spec, RunOptions, Scale};

fn exchange(stream: &TcpStream, request: &Request) -> Response {
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(request.to_line().as_bytes()).unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    Response::parse(&line).unwrap()
}

#[test]
fn daemon_round_trip_over_tcp() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Service::start(ServiceConfig {
        queue_depth: 4,
        threads: 2,
        cache_dir: None,
        ..ServiceConfig::default()
    });
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|s| {
        let server = s.spawn(|| serve(listener, &service, &shutdown).unwrap());

        // Three concurrent clients: ping, then submit, then check bytes.
        let mut clients = Vec::new();
        for _ in 0..3 {
            clients.push(s.spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                assert_eq!(exchange(&stream, &Request::Ping), Response::Pong);
                let response = exchange(
                    &stream,
                    &Request::Submit {
                        id: 7,
                        spec: "table1".to_string(),
                        scale: Scale::tiny(),
                        smoke: true,
                        deadline_ms: None,
                    },
                );
                let Response::Report {
                    request_id,
                    spec,
                    json,
                    ..
                } = response
                else {
                    panic!("expected report, got {response:?}");
                };
                assert_eq!(request_id, 7, "submit id must echo back");
                assert_eq!(spec, "table1");
                json
            }));
        }
        let reports: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();

        // Every client got valid, identical bytes — and they match a
        // direct local run of the same job.
        let direct = run_spec(
            &registry::table1(),
            &RunOptions::new().scale(Scale::tiny()).smoke(true),
        )
        .to_json()
        .unwrap();
        for json in &reports {
            validate_report(&Json::parse(json).unwrap()).unwrap();
            assert_eq!(json, &direct, "daemon bytes must equal local run");
        }

        // Unknown specs come back as errors with the candidate list, and
        // the connection stays usable.
        let stream = TcpStream::connect(addr).unwrap();
        let response = exchange(
            &stream,
            &Request::Submit {
                id: 9,
                spec: "not-a-spec".to_string(),
                scale: Scale::tiny(),
                smoke: true,
                deadline_ms: None,
            },
        );
        let Response::Error {
            kind,
            retryable,
            request_id,
            message,
            candidates,
        } = response
        else {
            panic!("expected error, got {response:?}");
        };
        assert_eq!(kind, "unknown_spec");
        assert!(!retryable, "an unknown spec can never succeed on retry");
        assert_eq!(request_id, 9, "error frames must echo the submit id");
        assert!(message.contains("unknown spec"), "{message}");
        assert_eq!(candidates.len(), registry::all_specs().len());

        match exchange(&stream, &Request::Stats) {
            Response::Stats {
                submitted,
                completed,
                ..
            } => {
                assert_eq!(submitted, 3);
                assert_eq!(completed, 3);
            }
            other => panic!("expected stats, got {other:?}"),
        }

        // A protocol shutdown stops the serve loop.
        assert_eq!(
            exchange(&stream, &Request::Shutdown),
            Response::ShuttingDown
        );
        server.join().unwrap();
    });

    let stats = service.shutdown();
    assert_eq!(stats.completed, 3);
}

#[test]
fn malformed_frames_get_errors_not_disconnects() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Service::start(ServiceConfig {
        queue_depth: 2,
        threads: 1,
        cache_dir: None,
        ..ServiceConfig::default()
    });
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|s| {
        let server = s.spawn(|| serve(listener, &service, &shutdown).unwrap());
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        for bad in ["not json at all\n", "{\"cmd\": \"ping\"}\n"] {
            writer.write_all(bad.as_bytes()).unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            match Response::parse(&line).unwrap() {
                Response::Error {
                    kind, retryable, ..
                } => {
                    assert_eq!(kind, "bad_request");
                    assert!(!retryable);
                }
                other => panic!("expected error for {bad:?}, got {other:?}"),
            }
        }
        // Still alive afterwards.
        assert_eq!(exchange(&stream, &Request::Ping), Response::Pong);
        assert_eq!(
            exchange(&stream, &Request::Shutdown),
            Response::ShuttingDown
        );
        server.join().unwrap();
    });
    service.shutdown();
}

/// Every scale value outside the range the daemon can run gets a typed,
/// non-retryable `bad_request` frame instead of a run — a huge count
/// used to abort the whole daemon on allocation — and the daemon keeps
/// answering afterwards.
#[test]
fn out_of_range_scales_get_bad_request_frames() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Service::start(ServiceConfig {
        queue_depth: 2,
        threads: 1,
        cache_dir: None,
        ..ServiceConfig::default()
    });
    let shutdown = AtomicBool::new(false);

    let tiny = Scale::tiny();
    let max = Scale::paper().instructions;
    let scale = |instructions: &str, footprint: &str, warmup: &str| {
        format!(
            "{{\"proto\": \"piflab/1\", \"cmd\": \"submit\", \"id\": 3, \"spec\": \"fig9-history\", \
             \"smoke\": true, \"scale\": {{\"instructions\": {instructions}, \
             \"footprint\": {footprint}, \"warmup_fraction\": {warmup}}}}}\n"
        )
    };
    let (n, fp, wf) = (
        tiny.instructions.to_string(),
        tiny.footprint.to_string(),
        tiny.warmup_fraction.to_string(),
    );
    let too_many = (max + 1).to_string();
    let mut bad = Vec::new();
    for instructions in ["1e12", too_many.as_str(), "0", "-5", "1.5", "1e999"] {
        bad.push(scale(instructions, &fp, &wf));
    }
    for footprint in ["0", "-0.1", "1.5", "1e999", "-1e999"] {
        bad.push(scale(&n, footprint, &wf));
    }
    for warmup in ["-0.1", "1", "2.5", "1e999"] {
        bad.push(scale(&n, &fp, warmup));
    }

    std::thread::scope(|s| {
        let server = s.spawn(|| serve(listener, &service, &shutdown).unwrap());
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for frame in &bad {
            writer.write_all(frame.as_bytes()).unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            match Response::parse(&line).unwrap() {
                Response::Error {
                    kind,
                    retryable,
                    message,
                    ..
                } => {
                    assert_eq!(kind, "bad_request", "{frame}");
                    assert!(!retryable, "{frame}");
                    assert!(message.contains("scale"), "{frame}: {message}");
                }
                other => panic!("expected bad_request for {frame}, got {other:?}"),
            }
            assert_eq!(exchange(&stream, &Request::Ping), Response::Pong);
        }
        // The bounds themselves are accepted.
        let edge = Scale {
            instructions: 1,
            footprint: 1.0,
            warmup_fraction: 0.0,
        };
        let response = exchange(
            &stream,
            &Request::Submit {
                id: 4,
                spec: "table1".to_string(),
                scale: edge,
                smoke: true,
                deadline_ms: None,
            },
        );
        assert!(
            matches!(response, Response::Report { request_id: 4, .. }),
            "{response:?}"
        );
        assert_eq!(
            exchange(&stream, &Request::Shutdown),
            Response::ShuttingDown
        );
        server.join().unwrap();
    });
    let stats = service.shutdown();
    assert_eq!(
        stats.submitted, 1,
        "no out-of-range scale reached the queue"
    );
}

/// A submit whose `id`, `deadline_ms` or `smoke` is present but out of
/// range gets a non-retryable `bad_request` frame. A plain cast would
/// turn a negative or fractional deadline into an immediate, retryable
/// `deadline_exceeded`, a negative or fractional id into another id, and
/// a non-bool smoke flag into `false`.
#[test]
fn out_of_range_submit_fields_get_bad_request_frames() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Service::start(ServiceConfig {
        queue_depth: 2,
        threads: 1,
        cache_dir: None,
        ..ServiceConfig::default()
    });
    let shutdown = AtomicBool::new(false);

    let tiny = Scale::tiny();
    let submit = |field: &str| {
        format!(
            "{{\"proto\": \"piflab/1\", \"cmd\": \"submit\", \"spec\": \"table1\", {field}, \
             \"scale\": {{\"instructions\": {}, \"footprint\": {}, \"warmup_fraction\": {}}}}}\n",
            tiny.instructions, tiny.footprint, tiny.warmup_fraction
        )
    };
    let bad: Vec<(&str, String)> = [
        ("deadline_ms", "-1"),
        ("deadline_ms", "0"),
        ("deadline_ms", "0.5"),
        ("deadline_ms", "\"100\""),
        ("id", "-3"),
        ("id", "1.5"),
        ("id", "1e16"),
        ("id", "\"7\""),
        ("smoke", "\"yes\""),
        ("smoke", "1"),
        ("smoke", "null"),
    ]
    .into_iter()
    .map(|(key, value)| (key, submit(&format!("\"{key}\": {value}"))))
    .collect();

    // Collect every reply first and assert after the daemon has shut
    // down, so a wrong reply fails the test instead of leaving the
    // server thread running.
    let replies: Vec<(Response, Response)> = std::thread::scope(|s| {
        let server = s.spawn(|| serve(listener, &service, &shutdown).unwrap());
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let replies = bad
            .iter()
            .map(|(_, frame)| {
                writer.write_all(frame.as_bytes()).unwrap();
                writer.flush().unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let reply = Response::parse(&line).unwrap();
                (reply, exchange(&stream, &Request::Ping))
            })
            .collect();
        exchange(&stream, &Request::Shutdown);
        server.join().unwrap();
        replies
    });
    let stats = service.shutdown();
    for ((key, frame), (reply, ping)) in bad.iter().zip(replies) {
        match reply {
            Response::Error {
                kind,
                retryable,
                message,
                ..
            } => {
                assert_eq!(kind, "bad_request", "{frame}");
                assert!(!retryable, "{frame}");
                assert!(message.contains(key), "{frame}: {message}");
            }
            other => panic!("expected bad_request for {frame}, got {other:?}"),
        }
        assert_eq!(ping, Response::Pong, "{frame}");
    }
    assert_eq!(stats.submitted, 0, "no bad submit reached the queue");

    // The bounds themselves parse.
    let edge = submit("\"id\": 9007199254740992, \"deadline_ms\": 1, \"smoke\": false");
    assert!(
        matches!(
            Request::parse(&edge),
            Ok(Request::Submit {
                id: 9_007_199_254_740_992,
                deadline_ms: Some(1),
                smoke: false,
                ..
            })
        ),
        "{edge}"
    );
}

/// Sends `frame` on a fresh connection and reads one reply. Write errors
/// are ignored: the daemon may close an over-long frame's connection
/// before the client has finished sending it, and the reply it wrote
/// first is still readable.
fn send_raw(addr: std::net::SocketAddr, frame: &[u8]) -> (Response, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    let _ = (&stream).write_all(frame);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    (Response::parse(&line).unwrap(), reader)
}

/// Neither a frame nested far past the JSON depth limit nor one longer
/// than the frame cap can take the daemon down. The first used to
/// overflow the connection thread's stack, which aborts the process; the
/// second used to grow the connection's buffer without bound. Each gets
/// a non-retryable `bad_request`, nothing reaches the queue, and the
/// daemon keeps answering.
#[test]
fn hostile_frames_get_bad_request_and_the_daemon_survives() {
    use pif_lab::json::MAX_DEPTH;
    use pif_lab::protocol::MAX_REQUEST_BYTES;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Service::start(ServiceConfig {
        queue_depth: 2,
        threads: 1,
        cache_dir: None,
        ..ServiceConfig::default()
    });
    let shutdown = AtomicBool::new(false);

    // Deep enough to overflow any thread's stack without the depth
    // limit, yet under the frame cap, so the parser has to reject it.
    let deep = format!("{}\n", "[".repeat(MAX_REQUEST_BYTES - 1_000));
    // A well-formed ping padded to exactly the cap, and one byte more.
    let padded_ping = |len: usize| {
        let head = "{\"proto\": \"piflab/1\", \"cmd\": \"ping\", \"pad\": \"";
        let pad = "x".repeat(len - head.len() - "\"}\n".len());
        format!("{head}{pad}\"}}\n")
    };
    let at_cap = padded_ping(MAX_REQUEST_BYTES);
    let over_cap = padded_ping(MAX_REQUEST_BYTES + 1);
    assert_eq!(over_cap.len(), MAX_REQUEST_BYTES + 1);

    let (deep_reply, over_reply, over_after, at_cap_reply, stats) = std::thread::scope(|s| {
        let server = s.spawn(|| serve(listener, &service, &shutdown).unwrap());
        // The parser's error keeps the connection usable.
        let (deep_reply, mut reader) = send_raw(addr, deep.as_bytes());
        reader
            .get_mut()
            .write_all(Request::Ping.to_line().as_bytes())
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::parse(&line).unwrap(), Response::Pong);
        // The cap's error closes it: the next read sees the end of the
        // stream (or a reset, since the frame's tail was never read).
        let (over_reply, mut reader) = send_raw(addr, over_cap.as_bytes());
        reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut rest = String::new();
        let over_after = reader.read_line(&mut rest).map(|_| rest);
        let (at_cap_reply, _) = send_raw(addr, at_cap.as_bytes());
        let stream = TcpStream::connect(addr).unwrap();
        assert_eq!(exchange(&stream, &Request::Ping), Response::Pong);
        let stats = exchange(&stream, &Request::Stats);
        exchange(&stream, &Request::Shutdown);
        server.join().unwrap();
        (deep_reply, over_reply, over_after, at_cap_reply, stats)
    });
    service.shutdown();

    for (name, reply, needle) in [
        (
            "deep",
            deep_reply,
            format!("nesting deeper than {MAX_DEPTH} levels"),
        ),
        (
            "over-long",
            over_reply,
            format!("exceeds {MAX_REQUEST_BYTES} bytes"),
        ),
    ] {
        match reply {
            Response::Error {
                kind,
                retryable,
                message,
                ..
            } => {
                assert_eq!(kind, "bad_request", "{name}: {message}");
                assert!(!retryable, "{name}");
                assert!(message.contains(&needle), "{name}: {message}");
            }
            other => panic!("expected bad_request for the {name} frame, got {other:?}"),
        }
    }
    let closed = match &over_after {
        Ok(rest) => rest.is_empty(),
        Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
    };
    assert!(
        closed,
        "the over-long frame's connection must close: {over_after:?}"
    );
    assert_eq!(at_cap_reply, Response::Pong, "a frame at the cap is served");
    match stats {
        Response::Stats { submitted, .. } => {
            assert_eq!(submitted, 0, "no hostile frame reached the queue")
        }
        other => panic!("expected stats, got {other:?}"),
    }
}
