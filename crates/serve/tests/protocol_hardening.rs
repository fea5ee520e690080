//! Malformed-input hardening: every hostile line in the table below must
//! come back as a structured `{"ok":false,"error":{code,message}}` on the
//! same connection, after which that connection — and the server — keep
//! serving. No panics, no wedged framing, no dropped daemon.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use dlpic_repro::core::Scale;
use dlpic_repro::engine::json::Json;
use dlpic_repro::engine::{self, Backend};
use dlpic_serve::job::JobRequest;
use dlpic_serve::protocol::MAX_LINE;
use dlpic_serve::server::{ServeConfig, Server};

fn send_raw(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &[u8]) -> Json {
    stream.write_all(line).expect("write");
    stream.write_all(b"\n").expect("newline");
    stream.flush().expect("flush");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    Json::parse(response.trim_end()).expect("response is JSON")
}

fn error_code(doc: &Json) -> String {
    assert!(
        matches!(doc.get("ok"), Some(Json::Bool(false))),
        "expected a rejection, got {}",
        doc.to_compact()
    );
    let error = doc.field("error").expect("error object");
    // Structured: machine-readable code plus human-readable message.
    assert!(error.field("message").and_then(Json::as_str).is_ok());
    error
        .field("code")
        .and_then(Json::as_str)
        .expect("error code")
        .to_string()
}

#[test]
fn hostile_lines_get_structured_errors_and_the_server_keeps_serving() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let oversized = format!(r#"{{"op":"status","job":"{}"}}"#, "x".repeat(MAX_LINE));
    let cases: &[(&str, &[u8])] = &[
        // Unparseable JSON.
        ("bad-json", b"{\"op\": \"status\","),
        ("bad-json", b"not json at all"),
        // Parseable, but not an object.
        ("bad-request", b"[1,2,3]"),
        ("bad-request", b"42"),
        // Missing / unknown op.
        ("missing-field", b"{}"),
        ("unknown-op", br#"{"op":"launch-missiles"}"#),
        // A misspelled field is an error, not a silent no-op.
        ("unknown-field", br#"{"op":"status","jbo":"job-0000"}"#),
        ("unknown-field", br#"{"op":"drain","force":true}"#),
        // Fields of the wrong shape.
        ("missing-field", br#"{"op":"watch"}"#),
        ("bad-json", br#"{"op":"cancel","job":7}"#),
        // A line past the 1 MiB cap (drained, so framing survives).
        ("oversized", oversized.as_bytes()),
        // Non-UTF-8 bytes in an otherwise framed line.
        ("bad-utf8", &[0x7b, 0xff, 0xfe, 0x7d]),
        // Job-level strictness: unknown job field, bad backend, both
        // sources, no source.
        (
            "unknown-field",
            br#"{"op":"submit","job":{"backend":"dl-1d","warp":1}}"#,
        ),
        (
            "bad-job",
            br#"{"op":"submit","job":{"backend":"quantum-9d","scenario":{}}}"#,
        ),
        ("bad-job", br#"{"op":"submit","job":{"backend":"dl-1d"}}"#),
        // Unknown job ids on the data ops.
        ("unknown-job", br#"{"op":"status","job":"job-9999"}"#),
        ("unknown-job", br#"{"op":"result","job":"job-9999"}"#),
        ("unknown-job", br#"{"op":"cancel","job":"job-9999"}"#),
        // The idempotency key is submit-only and must be non-empty.
        ("unknown-field", br#"{"op":"status","job_key":"k"}"#),
        // The governance ops are just as strict as the data ops.
        ("unknown-field", br#"{"op":"health","verbose":true}"#),
        ("bad-json", br#"{"op":"prune","keep":"all"}"#),
        ("bad-json", br#"{"op":"prune","keep":-1}"#),
        // Watch backpressure knobs are validated before the job lookup.
        (
            "bad-request",
            br#"{"op":"watch","job":"job-0000","policy":"lifo"}"#,
        ),
        (
            "bad-request",
            br#"{"op":"watch","job":"job-0000","policy":"decimate:0"}"#,
        ),
        (
            "bad-request",
            br#"{"op":"watch","job":"job-0000","queue":0}"#,
        ),
    ];

    for (want, line) in cases {
        let doc = send_raw(&mut stream, &mut reader, line);
        let got = error_code(&doc);
        assert_eq!(
            &got,
            want,
            "line {:?} -> {}",
            String::from_utf8_lossy(line),
            doc.to_compact()
        );
        // The same connection still answers a well-formed request:
        // framing survived every rejection above.
        let doc = send_raw(&mut stream, &mut reader, br#"{"op":"status"}"#);
        assert!(
            matches!(doc.get("ok"), Some(Json::Bool(true))),
            "{}",
            doc.to_compact()
        );
    }

    // An unknown-job watch answers with an error (not a hung stream).
    let doc = send_raw(&mut stream, &mut reader, br#"{"op":"watch","job":"nope"}"#);
    assert_eq!(error_code(&doc), "unknown-job");

    // Job-key and deadline strictness against an otherwise valid job
    // document: each hostile knob is the only bad thing on the line.
    let mut spec = engine::scenario("two_stream", Scale::Smoke).expect("registry");
    spec.n_steps = 4;
    let job = JobRequest::scenario(spec, Backend::Traditional1D);
    let job_json = job.to_json_value().to_compact();
    let hostile_knobs: &[(&str, String)] = &[
        (
            "bad-request",
            format!(r#"{{"op":"submit","job":{job_json},"job_key":""}}"#),
        ),
        (
            "bad-json",
            format!(r#"{{"op":"submit","job":{job_json},"job_key":7}}"#),
        ),
        (
            "bad-job",
            format!(
                r#"{{"op":"submit","job":{}}}"#,
                JobRequest {
                    deadline_steps: Some(0),
                    ..job.clone()
                }
                .to_json_value()
                .to_compact()
            ),
        ),
        (
            "bad-job",
            format!(
                r#"{{"op":"submit","job":{}}}"#,
                JobRequest {
                    deadline_seconds: Some(-1.0),
                    ..job.clone()
                }
                .to_json_value()
                .to_compact()
            ),
        ),
    ];
    for (want, line) in hostile_knobs {
        let doc = send_raw(&mut stream, &mut reader, line.as_bytes());
        assert_eq!(
            &error_code(&doc),
            want,
            "line {line} -> {}",
            doc.to_compact()
        );
    }

    // A well-formed keyed submit, replayed on the same connection: the
    // second submit is absorbed and points at the first job.
    let keyed = format!(r#"{{"op":"submit","job":{job_json},"job_key":"replay-1"}}"#);
    let first = send_raw(&mut stream, &mut reader, keyed.as_bytes());
    assert!(
        matches!(first.get("ok"), Some(Json::Bool(true))),
        "{}",
        first.to_compact()
    );
    let id = first
        .field("job")
        .and_then(Json::as_str)
        .expect("job id")
        .to_string();
    let second = send_raw(&mut stream, &mut reader, keyed.as_bytes());
    assert_eq!(second.field("job").and_then(Json::as_str), Ok(&*id));
    assert_eq!(second.field("deduped"), Ok(&Json::Bool(true)));

    // A peer that disconnects mid-line doesn't take the server down.
    {
        let mut partial = TcpStream::connect(server.addr()).expect("connect");
        partial
            .write_all(br#"{"op":"status""#)
            .expect("partial write");
        drop(partial);
    }
    std::thread::sleep(std::time::Duration::from_millis(50));
    let doc = send_raw(&mut stream, &mut reader, br#"{"op":"status"}"#);
    assert!(
        matches!(doc.get("ok"), Some(Json::Bool(true))),
        "{}",
        doc.to_compact()
    );

    // Drain still works — the daemon never wedged.
    let doc = send_raw(&mut stream, &mut reader, br#"{"op":"drain"}"#);
    assert!(
        matches!(doc.get("ok"), Some(Json::Bool(true))),
        "{}",
        doc.to_compact()
    );
    server.wait();
}

/// A response to an oversized line must arrive even though the line was
/// rejected, and the bytes after its newline must parse as the next
/// request — the reader drains, it doesn't resynchronize by luck.
#[test]
fn oversized_line_is_drained_not_desynchronized() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // One write containing the oversized line AND a valid follow-up.
    let mut payload = Vec::new();
    payload.extend_from_slice(b"{\"pad\":\"");
    payload.extend_from_slice(&vec![b'z'; MAX_LINE + 1024]);
    payload.extend_from_slice(b"\"}\n{\"op\":\"status\"}\n");
    stream.write_all(&payload).expect("write");
    stream.flush().expect("flush");

    let mut first = String::new();
    reader.read_line(&mut first).expect("first response");
    let first = Json::parse(first.trim_end()).expect("json");
    assert_eq!(error_code(&first), "oversized");

    let mut second = String::new();
    reader.read_line(&mut second).expect("second response");
    let second = Json::parse(second.trim_end()).expect("json");
    assert!(
        matches!(second.get("ok"), Some(Json::Bool(true))),
        "{}",
        second.to_compact()
    );

    let _ = send_raw(&mut stream, &mut reader, br#"{"op":"drain"}"#);
    server.wait();
}

/// Overload and governance rejections ride the same structured-error
/// rails as malformed input: a full backlog answers `overloaded` with
/// machine-readable retry advice inside the error object, `prune` on a
/// server with no retention policy is a `bad-request`, and the
/// connection that was refused keeps serving valid requests.
#[test]
fn overload_rejection_carries_retry_advice_and_the_connection_survives() {
    let mut config = ServeConfig::default().max_queued(1);
    config.max_sessions = 1;
    let server = Server::start(config).expect("start");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Pin the lone session with a long run, then fill the 1-slot backlog.
    let mut blocker = engine::scenario("two_stream", Scale::Smoke).expect("registry");
    blocker.n_steps = 500_000;
    let submit_line = format!(
        r#"{{"op":"submit","job":{}}}"#,
        JobRequest::scenario(blocker, Backend::Traditional1D)
            .to_json_value()
            .to_compact()
    );
    let mut submitted = Vec::new();
    let doc = send_raw(&mut stream, &mut reader, submit_line.as_bytes());
    assert!(
        matches!(doc.get("ok"), Some(Json::Bool(true))),
        "{}",
        doc.to_compact()
    );
    submitted.push(
        doc.field("job")
            .and_then(Json::as_str)
            .expect("id")
            .to_string(),
    );
    // Wait for the scheduler to move the blocker into its session so the
    // next submit lands in the backlog, not ahead of it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let doc = send_raw(&mut stream, &mut reader, br#"{"op":"status"}"#);
        if doc.field("active_runs").and_then(Json::as_usize) == Ok(1) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "blocker never admitted: {}",
            doc.to_compact()
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let doc = send_raw(&mut stream, &mut reader, submit_line.as_bytes());
    assert!(
        matches!(doc.get("ok"), Some(Json::Bool(true))),
        "{}",
        doc.to_compact()
    );
    submitted.push(
        doc.field("job")
            .and_then(Json::as_str)
            .expect("id")
            .to_string(),
    );

    // The backlog is full: the third submit is shed, structurally.
    let doc = send_raw(&mut stream, &mut reader, submit_line.as_bytes());
    assert_eq!(error_code(&doc), "overloaded");
    let advice = doc
        .field("error")
        .expect("error object")
        .field("retry_after_ms")
        .and_then(Json::as_usize)
        .expect("overload rejection must carry retry advice");
    assert!((100..=10_000).contains(&advice), "advice {advice}ms");

    // No retention policy configured: prune is a bad-request, with the
    // remedy spelled out in the message.
    let doc = send_raw(&mut stream, &mut reader, br#"{"op":"prune"}"#);
    assert_eq!(error_code(&doc), "bad-request");

    // The refused connection still serves valid requests.
    let doc = send_raw(&mut stream, &mut reader, br#"{"op":"status"}"#);
    assert!(
        matches!(doc.get("ok"), Some(Json::Bool(true))),
        "{}",
        doc.to_compact()
    );
    let doc = send_raw(&mut stream, &mut reader, br#"{"op":"health"}"#);
    assert!(
        matches!(doc.get("ok"), Some(Json::Bool(true))),
        "{}",
        doc.to_compact()
    );

    // Unpin the fleet so drain can finish.
    for job in &submitted {
        let line = format!(r#"{{"op":"cancel","job":"{job}"}}"#);
        let doc = send_raw(&mut stream, &mut reader, line.as_bytes());
        assert!(
            matches!(doc.get("ok"), Some(Json::Bool(true))),
            "{}",
            doc.to_compact()
        );
    }
    let _ = send_raw(&mut stream, &mut reader, br#"{"op":"drain"}"#);
    server.wait();
}

/// EOF with no trailing newline after a complete request: the request is
/// still answered if newline-terminated, and a truncated trailing
/// fragment produces a structured `truncated` error where the transport
/// allows the response out before close.
#[test]
fn truncated_final_line_yields_structured_error() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    stream
        .write_all(b"{\"op\":\"status\"}\n{\"op\":\"stat")
        .expect("write");
    stream.flush().expect("flush");
    // Half-close our writing side so the server sees EOF mid-line but
    // can still answer.
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("shutdown write");

    let mut text = String::new();
    reader.read_to_string(&mut text).expect("responses");
    let mut lines = text.lines();
    let first = Json::parse(lines.next().expect("first line")).expect("json");
    assert!(
        matches!(first.get("ok"), Some(Json::Bool(true))),
        "{}",
        first.to_compact()
    );
    let second = Json::parse(lines.next().expect("second line")).expect("json");
    assert_eq!(error_code(&second), "truncated");

    let mut control = TcpStream::connect(server.addr()).expect("connect");
    let mut control_reader = BufReader::new(control.try_clone().expect("clone"));
    let _ = send_raw(&mut control, &mut control_reader, br#"{"op":"drain"}"#);
    server.wait();
}
