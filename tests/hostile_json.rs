//! Deeply nested JSON is rejected with a typed error on every surface
//! that reads untrusted JSON, and never aborts the process.
//!
//! The hostile input is 100,000 `[` — a few hundred KiB, far under the
//! wire protocol's frame cap. A decoder that recursed once per level
//! overflowed its thread stack on it, and a stack overflow aborts the
//! whole process: one TCP client could kill the daemon and every job in
//! flight. The decoder now stops at `reprocmp::obs::json::MAX_DEPTH`.
//! Each surface gets the same input:
//!
//! * a real TCP daemon answers a typed `error` frame, then keeps serving
//!   `hello` and a compare on the same connection and on a new one;
//! * `ProfileBaseline::parse` and `reprocmp perf-diff` return an error;
//! * a `telemetry.jsonl` line holding it is skipped on restart replay.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use reprocmp::obs::{ObsClock, ProfileBaseline};
use reprocmp::server::{
    Conn, JobState, ObjectRef, Response, Server, ServerClient, ServerConfig, TcpConn, TcpTransport,
};

const CHUNK: usize = 256;

fn hostile() -> String {
    "[".repeat(100_000)
}

fn fresh_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("reprocmp-hostile-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    root
}

fn config(root: &Path) -> ServerConfig {
    ServerConfig {
        chunk_bytes: CHUNK,
        workers: 1,
        telemetry_clock: ObsClock::frozen(),
        telemetry_cadence: Duration::ZERO,
        telemetry_retention: 64,
        ..ServerConfig::rooted_at(root.to_path_buf())
    }
}

fn obj(name: &str, version: u64) -> ObjectRef {
    ObjectRef {
        name: name.to_owned(),
        version,
    }
}

/// Ingests two versions that differ in one value and compares them:
/// the daemon must still do real work after the hostile frame.
fn compare_round_trip(client: &mut ServerClient, name: &str) {
    let base: Vec<u8> = (0..1024u32)
        .flat_map(|i| (i as f32 * 1e-3).sin().to_le_bytes())
        .collect();
    let mut changed = base.clone();
    changed[512..516].copy_from_slice(&7.0f32.to_le_bytes());
    for (version, data) in [(1, &base), (2, &changed)] {
        let job = client
            .ingest(name, version, CHUNK as u64, data)
            .expect("submit ingest");
        assert_eq!(client.wait(job).expect("wait").state, JobState::Done);
    }
    let job = client
        .compare(obj(name, 1), obj(name, 2))
        .expect("submit compare");
    let status = client.wait(job).expect("wait");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    assert!(status.result.is_some(), "compare produced a result");
}

#[test]
fn nested_frame_gets_a_typed_error_and_the_daemon_keeps_serving() {
    let root = fresh_root("tcp");
    let server = Arc::new(Server::start(config(&root)).expect("daemon start"));
    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
    let addr = transport.addr();
    let accept = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || transport.run(&server))
    };

    let mut conn = TcpConn::connect(addr).expect("connect");
    conn.send(hostile().as_bytes()).expect("send hostile frame");
    let answer = conn.recv().expect("recv").expect("daemon answered");
    match Response::decode(&answer).expect("answer decodes") {
        Response::Error { message } => {
            assert!(message.contains("nesting"), "untyped error: {message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }

    // Same connection: hello (inside `over`) and a compare.
    let mut same = ServerClient::over(Box::new(conn), "same-conn").expect("hello after error");
    compare_round_trip(&mut same, "same");
    // A new connection is served too.
    let mut fresh = ServerClient::connect(addr, "new-conn").expect("hello on new conn");
    compare_round_trip(&mut fresh, "fresh");

    fresh.shutdown_server().expect("shutdown ack");
    accept
        .join()
        .expect("accept thread")
        .expect("transport run returns cleanly");
    drop(same);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn nested_profile_is_an_error_for_parse_and_perf_diff() {
    let err = ProfileBaseline::parse(&hostile()).expect_err("nested baseline must not parse");
    assert!(err.contains("nesting"), "{err}");

    let root = fresh_root("perfdiff");
    std::fs::create_dir_all(&root).expect("mkdir");
    let path = root.join("nested.json");
    std::fs::write(&path, hostile()).expect("write");
    let path = path.to_str().expect("utf-8 path").to_owned();
    let argv = vec!["perf-diff".to_owned(), path.clone(), path.clone()];
    // `Failed` is what the binary maps to exit status 1 with the
    // message on stderr.
    match reprocmp_cli::run(&argv) {
        Err(reprocmp_cli::CliError::Failed(msg)) => {
            assert!(msg.contains(&path) && msg.contains("nesting"), "{msg}");
        }
        other => panic!("perf-diff on nested input: {other:?}"),
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn nested_telemetry_line_is_skipped_on_restart_replay() {
    let root = fresh_root("jsonl");
    let first = Server::start(config(&root)).expect("first life");
    for _ in 0..2 {
        let _ = first.sample_telemetry_now();
    }
    first.shutdown();
    drop(first);

    // Splice the hostile line between the two persisted snapshots.
    let jsonl = root.join("telemetry.jsonl");
    let text = std::fs::read_to_string(&jsonl).expect("telemetry.jsonl written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    let hostile = hostile();
    std::fs::write(&jsonl, [lines[0], &hostile, lines[1], ""].join("\n")).expect("rewrite");

    let second = Server::start(config(&root)).expect("second life");
    let replayed: Vec<u64> = second.telemetry_history().iter().map(|s| s.seq).collect();
    assert_eq!(
        replayed,
        vec![1, 2],
        "the nested line is skipped, the rest kept"
    );
    assert_eq!(second.sample_telemetry_now().seq, 3);
    second.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
