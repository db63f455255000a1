//! End-to-end protocol tests: spawn the real `segrout serve` binary over
//! stdio JSONL and check the wire contract — well-formed responses,
//! monotone sequence numbers, error replies (not process death) for
//! malformed events (including non-UTF-8 and over-long lines), a shutdown
//! ack, byte-identical response streams when the same event log is
//! replayed, and a `--listen` daemon that outlives a broken connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};

/// Runs `segrout serve` with the given extra args, feeding `input` on
/// stdin; returns (stdout, stderr, success).
fn run_serve(input: &[u8], extra: &[&str]) -> (String, String, bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_segrout"));
    cmd.arg("serve")
        .args(["--topology", "Abilene", "--restarts", "0", "--passes", "2"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("binary spawns");
    child
        .stdin
        .take()
        .expect("piped")
        .write_all(input)
        .expect("stdin accepts the event log");
    let out = child.wait_with_output().expect("binary exits");
    (
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        String::from_utf8(out.stderr).expect("stderr is UTF-8"),
        out.status.success(),
    )
}

const EVENT_LOG: &str = r#"{"event":"noop"}
{"event":"demand","index":3,"factor":1.7}
{"event":"link_down","edge":4}
{"event":"capacity","edge":1,"capacity":4000}
not json at all
{"event":"demand","index":999999,"factor":2.0}
{"event":"mystery"}
{"event":"link_up","edge":4}
{"event":"matrix","demands":[[0,5,100.0],[5,0,50.0],[2,9,25.0]]}
{"event":"shutdown"}
"#;

#[test]
fn protocol_round_trip_is_well_formed() {
    let (stdout, stderr, ok) = run_serve(EVENT_LOG.as_bytes(), &[]);
    assert!(ok, "serve must exit cleanly; stderr:\n{stderr}");

    let lines: Vec<&str> = stdout.lines().collect();
    // One response per input line: 9 events + the shutdown ack.
    assert_eq!(lines.len(), 10, "stdout:\n{stdout}");

    for (i, line) in lines.iter().take(9).enumerate() {
        let rec = segrout::obs::Json::parse(line)
            .unwrap_or_else(|e| panic!("line {i} is not JSON ({e}): {line}"));
        assert_eq!(rec["type"].as_str(), Some("serve"), "line {i}");
        assert_eq!(
            rec["seq"].as_i64(),
            Some(i as i64 + 1),
            "seq must be monotone through errors (line {i})"
        );
        let tier = rec["tier"].as_str().expect("tier present");
        assert!(
            ["none", "local", "escalate", "error"].contains(&tier),
            "line {i}: unknown tier {tier}"
        );
        let mlu = rec["mlu"].as_f64().expect("mlu present");
        assert!(mlu.is_finite() && mlu > 0.0, "line {i}: mlu {mlu}");
        assert!(rec["phi"].as_f64().is_some(), "line {i}: phi");
        let churn = rec["churn"].as_i64().expect("churn present");
        let diffs = rec["weight_diffs"].as_arr().expect("weight_diffs present");
        assert_eq!(churn as usize, diffs.len(), "line {i}: churn accounting");
        // Responses must not leak wall-clock times into the protocol.
        assert!(
            rec["latency_ms"].as_f64().is_none(),
            "line {i}: latency is bookkeeping, not protocol"
        );
    }

    // The three malformed lines (bad JSON, out-of-range index, unknown
    // event) get error replies in place.
    for (i, want) in [
        (4, "invalid JSON"),
        (5, "demand index"),
        (6, "unknown event type"),
    ] {
        let rec = segrout::obs::Json::parse(lines[i]).expect("parsed above");
        assert_eq!(rec["tier"].as_str(), Some("error"), "line {i}");
        let err = rec["error"].as_str().expect("error reason present");
        assert!(
            err.contains(want),
            "line {i}: reason {err:?} missing {want:?}"
        );
    }

    // Shutdown control line gets the ack, not a serve response.
    let bye = segrout::obs::Json::parse(lines[9]).expect("ack is JSON");
    assert_eq!(bye["type"].as_str(), Some("bye"));
    assert_eq!(bye["events"].as_i64(), Some(9));
}

#[test]
fn replaying_the_same_event_log_is_byte_identical() {
    let (first, _, ok1) = run_serve(EVENT_LOG.as_bytes(), &[]);
    let (second, _, ok2) = run_serve(EVENT_LOG.as_bytes(), &[]);
    assert!(ok1 && ok2);
    assert_eq!(first, second, "replay must be byte-identical");
    // And at 4 worker threads as well.
    let (threaded, _, ok3) = run_serve(EVENT_LOG.as_bytes(), &["--threads", "4"]);
    assert!(ok3);
    assert_eq!(
        first, threaded,
        "replay must be byte-identical at any thread count"
    );
}

#[test]
fn event_file_replay_matches_stdin() {
    let dir = std::env::temp_dir().join(format!("segrout_serve_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("events.jsonl");
    std::fs::write(&path, EVENT_LOG).expect("event log written");
    let (stdin_out, _, ok1) = run_serve(EVENT_LOG.as_bytes(), &[]);
    let (file_out, _, ok2) = run_serve(b"", &["--events", path.to_str().expect("utf-8 path")]);
    assert!(ok1 && ok2);
    assert_eq!(stdin_out, file_out, "--events must match the stdin stream");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eof_without_shutdown_exits_cleanly() {
    let (stdout, stderr, ok) = run_serve(b"{\"event\":\"noop\"}\n", &[]);
    assert!(ok, "EOF is a clean exit; stderr:\n{stderr}");
    assert_eq!(stdout.lines().count(), 1);
    assert!(
        stderr.contains("1 event(s)"),
        "summary goes to stderr:\n{stderr}"
    );
}

#[test]
fn deeply_nested_json_gets_an_error_reply_and_the_daemon_stays_up() {
    let input = format!(
        "{}\n{{\"event\":\"noop\"}}\n{{\"event\":\"shutdown\"}}\n",
        "[".repeat(200_000)
    );
    let (stdout, stderr, ok) = run_serve(input.as_bytes(), &[]);
    assert!(ok, "serve must survive deep nesting; stderr:\n{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "stdout:\n{stdout}");

    let rec = segrout::obs::Json::parse(lines[0]).expect("error reply is JSON");
    assert_eq!(rec["tier"].as_str(), Some("error"));
    let err = rec["error"].as_str().expect("error reason present");
    assert!(
        err.contains("invalid JSON") && err.contains("nesting"),
        "reason {err:?}"
    );
    let next = segrout::obs::Json::parse(lines[1]).expect("noop reply is JSON");
    assert_eq!(
        next["tier"].as_str(),
        Some("none"),
        "daemon answers the next event"
    );
    assert_eq!(next["seq"].as_i64(), Some(2));
    let bye = segrout::obs::Json::parse(lines[2]).expect("ack is JSON");
    assert_eq!(bye["type"].as_str(), Some("bye"));
}

/// Feeds `demand event, bad line, noop, shutdown` and checks the bad line
/// draws an error reply whose reason contains `want`, after which the noop
/// reports the same MLU bits as the demand event did — the bad line left
/// the session state untouched — and the daemon acks the shutdown.
fn assert_bad_line_is_rejected(bad_line: &[u8], want: &str) {
    let mut input = b"{\"event\":\"demand\",\"index\":3,\"factor\":1.7}\n".to_vec();
    input.extend_from_slice(bad_line);
    input.extend_from_slice(b"\n{\"event\":\"noop\"}\n{\"event\":\"shutdown\"}\n");
    let (stdout, stderr, ok) = run_serve(&input, &[]);
    assert!(ok, "serve must survive the bad line; stderr:\n{stderr}");
    let lines: Vec<_> = stdout
        .lines()
        .map(|l| segrout::obs::Json::parse(l).expect("response is JSON"))
        .collect();
    assert_eq!(lines.len(), 4, "stdout:\n{stdout}");

    let err = lines[1]["error"].as_str().expect("error reason present");
    assert_eq!(lines[1]["tier"].as_str(), Some("error"));
    assert!(err.contains(want), "reason {err:?} missing {want:?}");

    let mlu_bits = |i: usize| lines[i]["mlu"].as_f64().expect("mlu present").to_bits();
    assert_eq!(lines[2]["tier"].as_str(), Some("none"));
    assert_eq!(lines[2]["seq"].as_i64(), Some(3));
    assert_eq!(mlu_bits(2), mlu_bits(0), "bad line changed the state");
    assert_eq!(mlu_bits(1), mlu_bits(0), "error reply reports the state");
    assert_eq!(lines[3]["type"].as_str(), Some("bye"));
    assert_eq!(lines[3]["events"].as_i64(), Some(3));
}

#[test]
fn non_utf8_line_gets_an_error_reply_and_the_daemon_stays_up() {
    assert_bad_line_is_rejected(b"\xff\xfe", "not valid UTF-8");
}

#[test]
fn over_long_line_gets_an_error_reply_and_the_daemon_stays_up() {
    let long = vec![b'x'; segrout::algos::MAX_EVENT_LINE_BYTES + 1];
    assert_bad_line_is_rejected(&long, "exceeds");
}

/// Reads one `\n`-terminated line from `stream` byte by byte, so nothing
/// past it is consumed.
fn read_line_unbuffered(stream: &mut TcpStream) -> String {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while stream.read(&mut byte).expect("daemon answers") == 1 && byte[0] != b'\n' {
        line.push(byte[0]);
    }
    String::from_utf8(line).expect("response is UTF-8")
}

#[test]
fn listen_daemon_survives_a_connection_reset() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_segrout"))
        .args(["serve", "--topology", "Abilene", "--restarts", "0"])
        .args(["--passes", "2", "--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped"));
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).expect("stderr readable") > 0,
            "daemon exited before listening"
        );
        if let Some(addr) = line.trim().strip_prefix("serve: listening on ") {
            break addr.to_string();
        }
    };

    // First peer: one answered event, then a second whose answer it never
    // reads. Closing a socket with unread data sends a reset, so the
    // daemon's next read on this connection fails.
    let mut first = TcpStream::connect(&addr).expect("daemon accepts");
    first.write_all(b"{\"event\":\"noop\"}\n").unwrap();
    let answer = read_line_unbuffered(&mut first);
    assert!(answer.contains("\"seq\":1"), "first answer: {answer}");
    first.write_all(b"{\"event\":\"noop\"}\n").unwrap();
    first.peek(&mut [0u8; 1]).expect("second answer arrives");
    drop(first);

    // Second peer: the daemon is still up, with the session state intact.
    let mut second = TcpStream::connect(&addr).expect("daemon still accepts");
    second
        .write_all(b"{\"event\":\"noop\"}\n{\"event\":\"shutdown\"}\n")
        .unwrap();
    let mut replies = String::new();
    second
        .read_to_string(&mut replies)
        .expect("replies readable");
    let lines: Vec<&str> = replies.lines().collect();
    assert_eq!(lines.len(), 2, "replies:\n{replies}");
    assert!(lines[0].contains("\"seq\":3"), "noop answer: {}", lines[0]);
    assert!(lines[1].contains("\"type\":\"bye\""), "ack: {}", lines[1]);

    let status = child.wait().expect("daemon exits");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("stderr readable");
    assert!(
        status.success(),
        "daemon must exit cleanly; stderr:\n{rest}"
    );
    assert!(
        rest.contains("serve: connection closed"),
        "the reset must have been seen and survived; stderr:\n{rest}"
    );
}
