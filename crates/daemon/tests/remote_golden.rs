//! End-to-end daemon tests: an in-process `marpled` on a temp socket, driven through
//! the real wire protocol.
//!
//! - the whole non-slow golden suite, verified remotely, must match
//!   `crates/engine/tests/golden_verdicts.txt` bit for bit — including a second
//!   client connecting mid-suite, whose interleaved requests must demultiplex
//!   correctly;
//! - torn, oversized and garbage frames must close the offending connection without
//!   poisoning the store (a well-behaved client afterwards still verifies fine);
//! - a graceful shutdown must drain in-flight jobs before the daemon stops;
//! - the fairness/admission layer: a `check` submitted mid-`check-all` is not starved,
//!   cancels and deadlines deliver partial runs whose delivered verdicts still match
//!   the snapshot, identical in-flight jobs are deduped across clients, over-cap
//!   connections get a structured `busy`, a reader that stops consuming its stream is
//!   disconnected, and N connect/disconnect cycles leave O(1) retained state.

use hat_daemon::frame::{read_frame, write_frame, MAX_RESPONSE_FRAME};
use hat_daemon::{
    Addr, Daemon, DaemonConfig, Envelope, Hello, Listener, RemoteClient, Request, Response, Stream,
    CACHE_VERSION, PROTOCOL_VERSION, SERVER_NAME,
};
use hat_engine::EngineConfig;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_socket(tag: &str) -> Addr {
    Addr::Unix(std::env::temp_dir().join(format!("hat-daemon-{tag}-{}.sock", std::process::id())))
}

fn spawn_daemon_with(
    tag: &str,
    jobs: usize,
    tweak: impl FnOnce(&mut DaemonConfig),
) -> hat_daemon::DaemonHandle {
    let mut config = DaemonConfig {
        addr: temp_socket(tag),
        engine: EngineConfig {
            jobs,
            ..EngineConfig::default()
        },
        quiet: true,
        ..DaemonConfig::default()
    };
    tweak(&mut config);
    Daemon::spawn(config).expect("the daemon starts")
}

fn spawn_daemon(tag: &str, jobs: usize) -> hat_daemon::DaemonHandle {
    spawn_daemon_with(tag, jobs, |_| {})
}

/// Asserts one streamed report against the golden snapshot. `slow` configurations
/// are absent from the snapshot by design and are skipped; any other unknown key
/// is a failure.
fn assert_golden(
    golden: &BTreeMap<String, (bool, bool)>,
    adt: &str,
    library: &str,
    r: &hat_core::MethodReport,
) {
    let key = format!("{adt}/{library}::{}", r.name);
    let Some((_, verdict)) = golden.get(&key) else {
        let bench = hat_suite::find(adt, library)
            .unwrap_or_else(|| panic!("{key} names no configuration at all"));
        assert!(bench.slow, "{key} is not in the golden snapshot");
        return;
    };
    assert_eq!(r.verified, *verdict, "{key} diverges from the snapshot");
}

/// Parses the golden snapshot into `ADT/Library::method -> (expected, verdict)`.
fn golden_verdicts() -> BTreeMap<String, (bool, bool)> {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../engine/tests/golden_verdicts.txt");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut verdicts = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let mut parts = line.split_whitespace();
        let key = parts.next().expect("key column").to_string();
        let expected = parts
            .next()
            .and_then(|p| p.strip_prefix("expected="))
            .expect("expected column")
            == "true";
        let verdict = parts
            .next()
            .and_then(|p| p.strip_prefix("verdict="))
            .expect("verdict column")
            == "true";
        verdicts.insert(key, (expected, verdict));
    }
    verdicts
}

#[test]
fn remote_golden_suite_matches_the_snapshot_with_a_concurrent_client() {
    let daemon = spawn_daemon("golden", 2);
    let addr = daemon.addr().clone();
    let mut client = RemoteClient::connect(&addr).expect("client connects");
    assert_eq!(client.hello().cache_version, CACHE_VERSION);

    let golden = golden_verdicts();
    let configs: Vec<(String, String)> = hat_suite::all_benchmarks()
        .iter()
        .filter(|b| !b.slow)
        .map(|b| (b.adt.to_string(), b.library.to_string()))
        .collect();
    assert!(configs.len() > 10, "the suite lost configurations");

    // Half-way through the suite, a second client connects and runs its own check —
    // its verdicts must be correct and its frames must not bleed into ours.
    let halfway = configs.len() / 2;
    let mut remote: BTreeMap<String, (bool, bool)> = BTreeMap::new();
    let mut second: Option<std::thread::JoinHandle<()>> = None;
    for (i, (adt, library)) in configs.iter().enumerate() {
        if i == halfway {
            let addr = addr.clone();
            second = Some(std::thread::spawn(move || {
                let mut client = RemoteClient::connect(&addr).expect("second client connects");
                let uptime = client.ping().expect("ping answers");
                assert!(uptime >= 0.0);
                let run = client
                    .verify(
                        Request::Check {
                            adt: "Stack".into(),
                            library: "LinkedList".into(),
                        },
                        |_, _, _| {},
                    )
                    .expect("the concurrent check runs");
                assert_eq!(run.summary.benchmarks.len(), 1);
                let run = &run.summary.benchmarks[0];
                assert_eq!(
                    (run.adt.as_str(), run.library.as_str()),
                    ("Stack", "LinkedList")
                );
                assert!(
                    run.reports.iter().any(|r| r.verified),
                    "the concurrent client got crosstalk verdicts"
                );
            }));
        }
        let outcome = client
            .verify(
                Request::Check {
                    adt: adt.clone(),
                    library: library.clone(),
                },
                |_, _, _| {},
            )
            .unwrap_or_else(|e| panic!("remote check of {adt}/{library} failed: {e}"));
        let bench = hat_suite::find(adt, library).expect("configuration exists");
        assert_eq!(outcome.summary.benchmarks.len(), 1);
        let run = &outcome.summary.benchmarks[0];
        assert_eq!(outcome.jobs, bench.methods.len());
        assert_eq!(run.reports.len(), bench.methods.len(), "{adt}/{library}");
        for (method, report) in bench.methods.iter().zip(&run.reports) {
            // Reports are reassembled in method order, like a local summary.
            assert_eq!(report.name, method.sig.name, "{adt}/{library}");
            remote.insert(
                format!("{adt}/{library}::{}", method.sig.name),
                (method.expect_verified, report.verified),
            );
        }
    }
    second
        .expect("the suite passed the halfway point")
        .join()
        .expect("second client");

    assert_eq!(
        remote, golden,
        "remote verdicts diverge from the golden snapshot"
    );

    // Per-client accounting saw both connections.
    let status = client.cache_stats().expect("stats answer");
    assert!(status.clients.len() >= 2, "both clients are on record");
    assert!(status.jobs_completed >= golden.len() as u64);
    daemon.stop();
}

#[test]
fn malformed_frames_close_the_connection_without_poisoning_the_store() {
    let daemon = spawn_daemon("poison", 1);
    let addr = daemon.addr().clone();

    // Baseline: one good run, so the store has entries worth poisoning.
    let mut client = RemoteClient::connect(&addr).expect("client connects");
    let before = client
        .verify(
            Request::Check {
                adt: "Stack".into(),
                library: "LinkedList".into(),
            },
            |_, _, _| {},
        )
        .expect("baseline run");
    let entries_before = client.cache_stats().expect("stats").entries;
    assert!(entries_before > 0);

    let read_hello = |stream: &mut Stream| {
        let frame = read_frame(stream, MAX_RESPONSE_FRAME)
            .expect("handshake frame")
            .expect("server speaks first");
        Hello::parse(&frame).expect("a real handshake");
    };
    // Garbage bytes instead of a frame.
    let mut garbage = Stream::connect(&addr).expect("connects");
    read_hello(&mut garbage);
    garbage.write_all(b"!!! not a frame !!!\n").expect("writes");
    garbage.flush().expect("flushes");
    // The server aborts at the first bad byte, so the rest of the garbage line is
    // still unread when it closes — which surfaces at this end as either a clean
    // EOF or a connection reset, depending on scheduling. Both are "closed,
    // unanswered"; a response frame is the failure.
    match read_frame(&mut garbage, MAX_RESPONSE_FRAME) {
        Ok(None) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Ok(Some(frame)) => panic!("the server must close on garbage, not answer `{frame}`"),
        Err(e) => panic!("expected a closed connection, got: {e}"),
    }
    // An oversized frame: the announced length exceeds the request cap.
    let mut oversized = Stream::connect(&addr).expect("connects");
    read_hello(&mut oversized);
    oversized.write_all(b"99999999\n").expect("writes");
    oversized.flush().expect("flushes");
    assert!(read_frame(&mut oversized, MAX_RESPONSE_FRAME)
        .expect("clean close")
        .is_none());
    // A torn frame: a length line promising more payload than ever arrives.
    let mut torn = Stream::connect(&addr).expect("connects");
    read_hello(&mut torn);
    torn.write_all(b"500\n{\"op\":").expect("writes");
    torn.flush().expect("flushes");
    torn.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    assert!(read_frame(&mut torn, MAX_RESPONSE_FRAME)
        .expect("clean close")
        .is_none());
    // A well-framed payload that is not a valid request.
    let mut confused = Stream::connect(&addr).expect("connects");
    read_hello(&mut confused);
    write_frame(&mut confused, "{\"op\":\"launch-missiles\"}").expect("writes");
    confused.flush().expect("flushes");
    // The server answers a final error frame (id 0), then closes.
    let last = read_frame(&mut confused, MAX_RESPONSE_FRAME).expect("error frame");
    assert!(last.is_some_and(|f| f.contains("error")));
    assert!(read_frame(&mut confused, MAX_RESPONSE_FRAME)
        .expect("clean close")
        .is_none());

    // The store is untouched and the daemon still serves: the same check now runs
    // fully warm with identical verdicts.
    let mut client = RemoteClient::connect(&addr).expect("a fresh client connects");
    let after = client
        .verify(
            Request::Check {
                adt: "Stack".into(),
                library: "LinkedList".into(),
            },
            |_, _, _| {},
        )
        .expect("the daemon survived the abuse");
    let verdicts = |run: &hat_daemon::RemoteRun| -> Vec<bool> {
        run.summary.benchmarks[0]
            .reports
            .iter()
            .map(|r| r.verified)
            .collect()
    };
    assert_eq!(verdicts(&before), verdicts(&after));
    assert_eq!(after.summary.cache.misses, 0, "the warm store was poisoned");
    assert!(client.cache_stats().expect("stats").entries >= entries_before);
    daemon.stop();
}

#[test]
fn pipelined_requests_demultiplex_by_id() {
    let daemon = spawn_daemon("pipeline", 2);
    let mut client = RemoteClient::connect(daemon.addr()).expect("client connects");
    // Three requests in flight on one connection before reading anything.
    let check_a = client
        .send(Request::Check {
            adt: "Stack".into(),
            library: "LinkedList".into(),
        })
        .expect("send");
    let check_b = client
        .send(Request::Check {
            adt: "ConnectedGraph".into(),
            library: "Set".into(),
        })
        .expect("send");
    let ping = client.send(Request::Ping).expect("send");
    // Read them out of order: the ping answer first (it overtakes the running
    // batches), then batch B, then batch A — recv_for buffers whatever interleaves.
    match client.recv_for(ping).expect("pong arrives mid-stream") {
        Response::Pong { .. } => {}
        other => panic!("expected a pong, got {other:?}"),
    }
    let mut drain = |id: u64, adt: &str| {
        let mut reports = 0;
        loop {
            match client.recv_for(id).expect("response") {
                Response::Report { adt: got, .. } => {
                    assert_eq!(got, adt, "report routed to the wrong request");
                    reports += 1;
                }
                Response::Done { jobs, .. } => {
                    assert_eq!(jobs, reports, "jobs and streamed reports disagree");
                    break;
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        reports
    };
    assert!(drain(check_b, "ConnectedGraph") > 0);
    assert!(drain(check_a, "Stack") > 0);
    daemon.stop();
}

#[test]
fn graceful_shutdown_drains_in_flight_jobs() {
    let daemon = spawn_daemon("drain", 1);
    let addr = daemon.addr().clone();
    let mut client = RemoteClient::connect(&addr).expect("client connects");
    // Start a batch, then shut the daemon down from a second connection while the
    // batch is (at most just) underway.
    let id = client
        .send(Request::Check {
            adt: "ConnectedGraph".into(),
            library: "Set".into(),
        })
        .expect("send");
    let mut stopper = RemoteClient::connect(&addr).expect("stopper connects");
    stopper.shutdown(false).expect("bye");
    // The in-flight batch still completes: every report plus the done frame.
    let mut reports = 0;
    loop {
        match client.recv_for(id).expect("the drained run still streams") {
            Response::Report { .. } => reports += 1,
            Response::Done { jobs, .. } => {
                assert_eq!(jobs, reports);
                break;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    let expected = hat_suite::find("ConnectedGraph", "Set").expect("configuration exists");
    assert_eq!(reports, expected.methods.len());
    // The daemon finishes draining and removes its socket.
    let Addr::Unix(path) = &addr else {
        panic!("test daemon listens on a unix socket")
    };
    for _ in 0..200 {
        if daemon.is_stopped() && !path.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(daemon.is_stopped(), "the daemon never finished draining");
    assert!(!path.exists(), "the socket file was left behind");
    daemon.join();
}

#[test]
fn version_skew_is_rejected_with_a_clear_message() {
    // A fake service announcing a stale cache generation: the client must refuse
    // before sending anything.
    let addr = temp_socket("skew");
    let listener = Listener::bind(&addr).expect("binds");
    let server = std::thread::spawn(move || {
        let mut conn = listener.accept().expect("accepts");
        let stale = format!(
            "{{\"server\":\"{SERVER_NAME}\",\"protocol\":{PROTOCOL_VERSION},\"cache_version\":{},\"pid\":1}}",
            CACHE_VERSION - 1
        );
        write_frame(&mut conn, &stale).expect("writes");
        conn.flush().expect("flushes");
        // Hold the connection until the client hangs up.
        let _ = read_frame(&mut conn, 1024);
    });
    let err = RemoteClient::connect(&addr).expect_err("the client must refuse");
    assert!(
        err.contains("cache format mismatch"),
        "unclear rejection: {err}"
    );
    assert!(err.contains(&format!("v{CACHE_VERSION}")), "{err}");
    server.join().expect("fake server");
    if let Addr::Unix(path) = &addr {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn a_check_submitted_mid_check_all_is_not_starved() {
    let daemon = spawn_daemon("fairness", 1);
    let golden = golden_verdicts();
    let mut client = RemoteClient::connect(daemon.addr()).expect("client connects");
    // One pipelined connection: the whole suite first, then a latency-sensitive check.
    let batch = client.send(Request::CheckAll).expect("send check-all");
    let probe = client
        .send(Request::Check {
            adt: "Stack".into(),
            library: "LinkedList".into(),
        })
        .expect("send probe");
    // Drain frames in ARRIVAL order and count how many batch reports pass before the
    // probe's `done`: the per-submission round-robin bounds that near the probe's own
    // job count, while a FIFO queue would put the entire batch first.
    let mut batch_before_probe = 0usize;
    let mut batch_reports = 0usize;
    let mut probe_reports = 0usize;
    let (mut batch_done, mut probe_done) = (false, false);
    while !batch_done || !probe_done {
        let envelope = client.recv().expect("the streams keep flowing");
        match envelope.response {
            Response::Report {
                adt,
                library,
                report,
                ..
            } => {
                assert_golden(&golden, &adt, &library, &report);
                if envelope.id == batch {
                    batch_reports += 1;
                    if !probe_done {
                        batch_before_probe += 1;
                    }
                } else {
                    assert_eq!(envelope.id, probe);
                    probe_reports += 1;
                }
            }
            Response::Done {
                jobs, cancelled, ..
            } => {
                if envelope.id == batch {
                    assert!(cancelled > 0, "the cancel landed after the whole batch ran");
                    assert_eq!(batch_reports + cancelled, jobs);
                    batch_done = true;
                } else {
                    assert_eq!(cancelled, 0, "the probe was never cancelled");
                    probe_done = true;
                    // The probe is through — the rest of the cold batch is pure
                    // contention with no further assertion value, so drop it.
                    client
                        .cancel(batch)
                        .expect("the batch cancel is acknowledged");
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    let probe_jobs = hat_suite::find("Stack", "LinkedList")
        .expect("configuration exists")
        .methods
        .len();
    assert_eq!(probe_reports, probe_jobs);
    let total_jobs: usize = hat_suite::all_benchmarks()
        .iter()
        .map(|b| b.methods.len())
        .sum();
    // The bound only means something if the batch dwarfs it.
    let bound = 2 * probe_jobs + 4;
    assert!(total_jobs > 2 * bound, "the suite shrank below usefulness");
    assert!(
        batch_before_probe <= bound,
        "the probe waited behind {batch_before_probe} of {total_jobs} batch reports — starved"
    );
    daemon.stop();
}

#[test]
fn cancel_mid_stream_delivers_a_partial_done_with_matching_verdicts() {
    let daemon = spawn_daemon("cancel", 1);
    let golden = golden_verdicts();
    let mut client = RemoteClient::connect(daemon.addr()).expect("client connects");
    let id = client.send(Request::CheckAll).expect("send");
    let mut received = 0usize;
    while received < 3 {
        match client.recv_for(id).expect("the stream flows") {
            Response::Report {
                adt,
                library,
                report,
                ..
            } => {
                assert_golden(&golden, &adt, &library, &report);
                received += 1;
            }
            Response::Done { .. } => panic!("the whole batch finished before the cancel"),
            other => panic!("unexpected response {other:?}"),
        }
    }
    client.cancel(id).expect("the cancel is acknowledged");
    loop {
        match client.recv_for(id).expect("the stream still terminates") {
            Response::Report {
                adt,
                library,
                report,
                ..
            } => {
                // In-flight jobs finish and still stream — with snapshot verdicts.
                assert_golden(&golden, &adt, &library, &report);
                received += 1;
            }
            Response::Done {
                jobs, cancelled, ..
            } => {
                assert!(cancelled > 0, "nothing was left to cancel");
                assert_eq!(
                    received + cancelled,
                    jobs,
                    "every job must be delivered or counted cancelled"
                );
                break;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    // Cancelling a finished run is a clean error, and the connection still serves.
    // (The run retires a few instructions after its `done` frame, so poll briefly.)
    let deadline = Instant::now() + Duration::from_secs(5);
    let err = loop {
        match client.cancel(id) {
            Err(e) => break e,
            Ok(()) => assert!(Instant::now() < deadline, "the finished run never retired"),
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(err.contains("no in-flight"), "{err}");
    client.ping().expect("the connection survives a cancel");
    daemon.stop();
}

#[test]
fn an_expired_deadline_cancels_the_rest_of_the_batch() {
    let daemon = spawn_daemon("deadline", 1);
    let golden = golden_verdicts();
    let mut client = RemoteClient::connect(daemon.addr()).expect("client connects");
    let run = client
        .verify_with_deadline(Request::CheckAll, Some(1), |_, _, _| {})
        .expect("a deadline-cancelled run still answers with a partial done");
    assert!(
        run.summary.was_cancelled(),
        "a 1ms deadline on a cold full suite must expire"
    );
    let received: usize = run.summary.benchmarks.iter().map(|b| b.reports.len()).sum();
    assert!(
        received < run.jobs,
        "everything completed despite the deadline"
    );
    assert_eq!(received + run.summary.cancelled, run.jobs);
    for bench in &run.summary.benchmarks {
        for report in &bench.reports {
            assert_golden(&golden, &bench.adt, &bench.library, report);
        }
    }
    daemon.stop();
}

#[test]
fn identical_in_flight_jobs_are_deduped_across_clients() {
    let daemon = spawn_daemon("dedup", 1);
    let golden = golden_verdicts();
    let addr = daemon.addr().clone();
    // Client A floods the single worker with the whole suite...
    let mut a = RemoteClient::connect(&addr).expect("client A connects");
    let batch = a.send(Request::CheckAll).expect("send");
    // ...and once A's jobs are demonstrably in flight, client B asks for a
    // configuration that batch already queued: B must ride A's jobs as a subscriber.
    let mut b = RemoteClient::connect(&addr).expect("client B connects");
    let deadline = Instant::now() + Duration::from_secs(30);
    while b.cache_stats().expect("stats").in_flight_jobs == 0 {
        assert!(
            Instant::now() < deadline,
            "A's batch never reached the engine"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let run = b
        .verify(
            Request::Check {
                adt: "ConnectedGraph".into(),
                library: "Set".into(),
            },
            |_, _, _| {},
        )
        .expect("B's check completes");
    for bench in &run.summary.benchmarks {
        for report in &bench.reports {
            assert_golden(&golden, &bench.adt, &bench.library, report);
        }
    }
    assert!(
        run.summary.dedup_hits > 0,
        "B's jobs were not deduped against A's queued batch"
    );
    // A's stream stayed intact through the dedup — cancel the rest of the cold
    // batch (it has served its purpose) and check the partial `done` arithmetic.
    a.cancel(batch).expect("A can cancel the rest of its batch");
    let mut reports = 0usize;
    loop {
        match a.recv_for(batch).expect("A's stream flows") {
            Response::Report {
                adt,
                library,
                report,
                ..
            } => {
                assert_golden(&golden, &adt, &library, &report);
                reports += 1;
            }
            Response::Done {
                jobs, cancelled, ..
            } => {
                assert!(cancelled > 0, "the cancel landed after the whole batch ran");
                assert_eq!(
                    reports + cancelled,
                    jobs,
                    "dedup must not miscount A's jobs"
                );
                break;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(b.cache_stats().expect("stats").dedup_hits > 0);
    daemon.stop();
}

#[test]
fn over_cap_connections_are_rejected_with_busy() {
    let daemon = spawn_daemon_with("cap", 1, |c| c.max_connections = 1);
    let addr = daemon.addr().clone();
    let mut first = RemoteClient::connect(&addr).expect("first client connects");
    first.ping().expect("the first client is served");
    // The second connection still gets a handshake, then a connection-level `busy`.
    let mut second = RemoteClient::connect(&addr).expect("the handshake still happens");
    let envelope = second.recv().expect("the busy frame arrives");
    assert_eq!(
        envelope.id, 0,
        "a connection-level rejection answers no request"
    );
    match envelope.response {
        Response::Busy { message } => {
            assert!(message.contains("connection limit"), "{message}")
        }
        other => panic!("expected busy, got {other:?}"),
    }
    drop(second);
    // The slot frees once the first client hangs up.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut replacement = loop {
        if let Ok(mut c) = RemoteClient::connect(&addr) {
            if c.ping().is_ok() {
                break c;
            }
        }
        assert!(Instant::now() < deadline, "the connection slot never freed");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        replacement.cache_stats().expect("stats").busy_rejections >= 1,
        "the rejection was not counted"
    );
    daemon.stop();
}

#[test]
fn requests_over_the_per_client_job_budget_answer_busy() {
    let daemon = spawn_daemon_with("budget", 1, |c| c.max_client_jobs = 1);
    let mut client = RemoteClient::connect(daemon.addr()).expect("client connects");
    let err = client
        .verify(
            Request::Check {
                adt: "Stack".into(),
                library: "LinkedList".into(),
            },
            |_, _, _| {},
        )
        .expect_err("a multi-method check cannot fit a 1-job budget");
    assert!(err.contains("per-client limit"), "{err}");
    // `busy` is an answer, not a disconnect.
    client
        .ping()
        .expect("the connection survives the rejection");
    daemon.stop();
}

#[test]
fn a_client_that_stops_reading_is_disconnected() {
    let daemon = spawn_daemon_with("stall", 2, |c| c.max_client_jobs = 0);
    let addr = daemon.addr().clone();
    // Warm one configuration so the flood below answers from the memo store at
    // full speed — the writer, not the workers, must be the bottleneck.
    RemoteClient::connect(&addr)
        .expect("warmup client connects")
        .verify(
            Request::Check {
                adt: "Stack".into(),
                library: "LinkedList".into(),
            },
            |_, _, _| {},
        )
        .expect("warmup check");
    // A raw connection pipelines the same warm check hundreds of times and never
    // reads a byte: the report frames far exceed the socket buffer plus the
    // bounded writer channel, so the writer stalls.
    let mut stalled = Stream::connect(&addr).expect("the stalled client connects");
    let hello = read_frame(&mut stalled, MAX_RESPONSE_FRAME)
        .expect("handshake frame")
        .expect("server speaks first");
    Hello::parse(&hello).expect("a real handshake");
    for id in 1..=300u64 {
        let payload = Envelope::new(
            id,
            Request::Check {
                adt: "Stack".into(),
                library: "LinkedList".into(),
            },
        )
        .to_json()
        .to_string();
        write_frame(&mut stalled, &payload).expect("writes");
    }
    stalled.flush().expect("flushes");
    // The daemon must sever the stalled connection instead of buffering forever.
    let mut probe = RemoteClient::connect(&addr).expect("probe connects");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = probe.cache_stats().expect("stats");
        if status.active_connections == 1 {
            break; // only the probe remains
        }
        assert!(
            Instant::now() < deadline,
            "the stalled reader was never disconnected"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    // The daemon still serves, warm and verdict-correct.
    let golden = golden_verdicts();
    let run = probe
        .verify(
            Request::Check {
                adt: "Stack".into(),
                library: "LinkedList".into(),
            },
            |_, _, _| {},
        )
        .expect("the daemon survived the stalled reader");
    for bench in &run.summary.benchmarks {
        for report in &bench.reports {
            assert_golden(&golden, &bench.adt, &bench.library, report);
        }
    }
    daemon.stop();
}

#[test]
fn generated_corpus_round_trips_through_the_daemon() {
    // A corpus slice sent by *name only*: the daemon regenerates each configuration
    // from its `s<seed>-i<index>` recipe via the `hat_gen::find` fallback, verifies it
    // remotely, and every streamed verdict must equal the constructed one — i.e. the
    // wire adds nothing and loses nothing relative to a local run of the same slice.
    let daemon = spawn_daemon("gen", 2);
    let addr = daemon.addr().clone();
    let mut client = RemoteClient::connect(&addr).expect("client connects");

    let specs = hat_gen::corpus_specs();
    let slice = &specs[..12];
    fn check_remote(client: &mut RemoteClient, spec: &hat_gen::GenSpec) {
        let name = spec.library_name();
        let bench = hat_gen::find("gen", &name)
            .unwrap_or_else(|| panic!("gen/{name} does not regenerate from its recipe"));
        let run = client
            .verify(
                Request::Check {
                    adt: "gen".into(),
                    library: name.clone(),
                },
                |_, _, _| {},
            )
            .unwrap_or_else(|e| panic!("remote check of gen/{name} failed: {e}"));
        assert_eq!(run.summary.benchmarks.len(), 1, "gen/{name}");
        let reports = &run.summary.benchmarks[0].reports;
        for (method, report) in bench.methods.iter().zip(reports) {
            assert_eq!(
                report.name, method.sig.name,
                "gen/{name}: report order drifted"
            );
        }
        let bad = hat_gen::fuzz::disagreements_in("remote", &bench, reports);
        assert!(
            bad.is_empty(),
            "gen/{name} diverges over the wire:\n{}",
            bad.iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    // Half-way through, a second client works a disjoint slice concurrently — its
    // verdicts must be just as exact, with no crosstalk between the streams.
    let mut second: Option<std::thread::JoinHandle<()>> = None;
    for (i, spec) in slice.iter().enumerate() {
        if i == slice.len() / 2 {
            let addr = addr.clone();
            second = Some(std::thread::spawn(move || {
                let mut client = RemoteClient::connect(&addr).expect("second client connects");
                for spec in &hat_gen::corpus_specs()[12..18] {
                    check_remote(&mut client, spec);
                }
            }));
        }
        check_remote(&mut client, spec);
    }
    second
        .expect("the slice passed the halfway point")
        .join()
        .expect("second client");
    daemon.stop();
}

#[test]
fn connect_disconnect_cycles_leave_bounded_retained_state() {
    let daemon = spawn_daemon("retention", 1);
    let addr = daemon.addr().clone();
    const CYCLES: usize = 40;
    for _ in 0..CYCLES {
        let mut c = RemoteClient::connect(&addr).expect("cycle client connects");
        c.ping().expect("cycle client pings");
    }
    let mut probe = RemoteClient::connect(&addr).expect("probe connects");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        let status = probe.cache_stats().expect("stats");
        if status.closed_connections >= CYCLES as u64 && status.active_connections == 1 {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "closed handlers were never reaped"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    // O(1) retained state: a bounded window of closed records plus one aggregate row,
    // not one record per connection ever accepted.
    assert!(
        status.clients.len() <= 18,
        "retained client records are not bounded: {} records after {CYCLES} cycles",
        status.clients.len()
    );
    // The aggregate row keeps the lifetime totals truthful.
    let aggregate = status
        .clients
        .iter()
        .find(|c| c.client == 0)
        .expect("an aggregate row exists once the window overflows");
    let accounted: u64 = aggregate.requests
        + status
            .clients
            .iter()
            .filter(|c| c.client != 0)
            .map(|c| c.requests)
            .sum::<u64>();
    assert_eq!(
        accounted, status.requests_served,
        "requests leaked out of the per-client accounting"
    );
    daemon.stop();
}
