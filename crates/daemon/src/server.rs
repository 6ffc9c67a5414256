//! The `marpled` server: a long-lived process owning one [`Engine`] (worker pool +
//! tiered memo store), serving verification requests over [`crate::frame`] frames.
//!
//! ## Lifecycle
//!
//! [`Daemon::spawn`] builds the engine first — reading the store file warms the store
//! **before** the listener accepts anything, so the first client already sees a warm
//! cache — then binds the listener, writes the `<cache>.addr` sidecar (which is
//! how lock-contended batch runs learn the daemon's address), and starts the accept
//! loop on a background thread. If the cache lock is held by another process the
//! daemon refuses to start rather than running degraded: a daemon whose verdicts
//! evaporate on exit would defeat its purpose.
//!
//! ## Concurrency and fairness
//!
//! One handler thread per connection reads request frames; one writer thread per
//! connection owns the write half behind a **bounded** channel, so report frames from
//! several in-flight requests (each running on its own runner thread) interleave
//! without tearing — the client demultiplexes by request id. A client that stops
//! reading while reports stream is disconnected after a short grace period instead of
//! buffering frames without limit (`WRITER_CHANNEL_FRAMES`, `STALL_GRACE`).
//!
//! Fairness across clients is the engine scheduler's per-submission round-robin; the
//! server adds **admission control** on top: a `--max-connections` cap (over-cap
//! connections get a `busy` frame and are closed) and a per-client queued-job limit
//! (over-limit verification requests answer `busy` without submitting). Verification
//! requests honour `deadline_ms` and the `cancel` op by polling between reports and
//! dropping the run's queued jobs.
//!
//! Connection state is bounded: the stream handle and the client record of a closed
//! connection are released when its handler exits — only a small window of recent
//! closed-client records is kept verbatim for `cache-stats`, with older ones folded
//! into aggregate totals, so N connect/disconnect cycles leave O(1) retained state.
//!
//! ## Shutdown
//!
//! A `shutdown` request answers `bye`, raises the stop flag and wakes the accept loop
//! with a dummy self-connection (`shutdown --now` first drops every queued job, so
//! only running jobs drain). The accept loop then half-closes (`shutdown(Read)`)
//! every live connection — handlers stop taking *new* requests but writers keep
//! streaming until in-flight runs finish — joins everything, then drops the engine:
//! the pool joins, the store writes its file if a record arrived since the last write
//! (every run already wrote at its end, before its `done`), and the sidecar lock
//! releases. Only then are the `.addr` sidecar and the socket file unlinked. The socket
//! file disappearing last is what `marple daemon stop` polls.

use crate::frame::{read_frame, write_frame, MAX_REQUEST_FRAME};
use crate::net::{Addr, Listener, Stream};
use crate::proto::{
    ClientStats, DaemonStatus, Envelope, Hello, Request, Response, ResponseEnvelope,
};
use hat_engine::{addr_path_for, Engine, EngineConfig, PollReport};
use hat_suite::Benchmark;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufWriter, Write};
use std::net::Shutdown;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Report frames the per-connection writer buffers before the stall policy engages.
/// Small enough that a stalled `check-all` consumer is detected within one stream.
const WRITER_CHANNEL_FRAMES: usize = 64;

/// How long a full writer queue may stay full before the connection is declared
/// stalled and closed.
const STALL_GRACE: Duration = Duration::from_secs(2);

/// Closed-client records retained verbatim for `cache-stats`; older ones fold into
/// aggregate totals so retention is O(1) in the number of connections served.
const CLOSED_CLIENT_WINDOW: usize = 16;

/// Recent per-job queue waits kept for the status percentiles.
const QUEUE_WAIT_WINDOW: usize = 512;

/// How often a streaming run wakes to check its deadline and cancel flag.
const CANCEL_POLL: Duration = Duration::from_millis(50);

/// Configuration of a daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Where to listen.
    pub addr: Addr,
    /// The engine the daemon owns (worker count, cache path, verification knobs).
    pub engine: EngineConfig,
    /// Maximum concurrently open client connections (0 = unlimited). Connections over
    /// the cap receive a `busy` frame after the handshake and are closed.
    pub max_connections: usize,
    /// Maximum (benchmark, method) jobs one connection may have in flight (0 =
    /// unlimited). Verification requests over the limit answer `busy` without
    /// submitting anything.
    pub max_client_jobs: usize,
    /// Suppress the per-event stderr log (tests and benchmarks).
    pub quiet: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: Addr::default_socket(),
            engine: EngineConfig::default(),
            max_connections: 64,
            max_client_jobs: 1024,
            quiet: false,
        }
    }
}

/// Per-connection bookkeeping for the `cache-stats` report.
#[derive(Debug)]
struct ClientRecord {
    connected: Instant,
    /// Connection lifetime, once the handler exits.
    closed_after: Option<f64>,
    requests: u64,
    reports: u64,
    hits: usize,
    misses: usize,
}

impl ClientRecord {
    fn new() -> ClientRecord {
        ClientRecord {
            connected: Instant::now(),
            closed_after: None,
            requests: 0,
            reports: 0,
            hits: 0,
            misses: 0,
        }
    }
}

/// The bounded client registry: every open connection, a fixed window of recently
/// closed ones, and aggregate totals for everything older.
#[derive(Default)]
struct ClientRegistry {
    next_id: u64,
    /// Open connections, in accept order.
    active: Vec<(u64, ClientRecord)>,
    /// The last [`CLOSED_CLIENT_WINDOW`] closed connections, oldest first.
    recent_closed: VecDeque<(u64, ClientRecord)>,
    /// Connections closed over the daemon's lifetime.
    closed_total: u64,
    /// Totals of closed records that aged out of the window — `cache-stats` stays
    /// truthful without retaining per-connection state forever.
    aggregated_requests: u64,
    aggregated_reports: u64,
    aggregated_hits: usize,
    aggregated_misses: usize,
}

/// State shared by the accept loop and every per-connection thread.
struct Shared {
    addr: Addr,
    started: Instant,
    stopping: AtomicBool,
    requests_served: AtomicU64,
    jobs_completed: AtomicU64,
    /// Jobs submitted to the engine and not yet completed or cancelled.
    in_flight_jobs: AtomicU64,
    busy_rejections: AtomicU64,
    runs_cancelled: AtomicU64,
    jobs_cancelled: AtomicU64,
    clients: Mutex<ClientRegistry>,
    /// Read-half clones of every **open** connection, keyed by client id: half-closed
    /// at shutdown to interrupt handlers blocked in `read_frame`, removed (releasing
    /// the fd) when the handler exits.
    conns: Mutex<HashMap<u64, Stream>>,
    /// Recent per-job queue waits in milliseconds, for the status percentiles.
    queue_waits: Mutex<VecDeque<f64>>,
    max_connections: usize,
    max_client_jobs: usize,
    quiet: bool,
}

impl Shared {
    fn log(&self, message: std::fmt::Arguments<'_>) {
        if !self.quiet {
            eprintln!("marpled: {message}");
        }
    }

    /// Registers a connection; returns its 1-based client id.
    fn register_client(&self) -> u64 {
        let mut reg = self.clients.lock().expect("client registry");
        reg.next_id += 1;
        let id = reg.next_id;
        reg.active.push((id, ClientRecord::new()));
        id
    }

    fn with_client(&self, client: u64, f: impl FnOnce(&mut ClientRecord)) {
        let mut reg = self.clients.lock().expect("client registry");
        if let Some((_, record)) = reg.active.iter_mut().find(|(id, _)| *id == client) {
            f(record);
        }
    }

    /// Moves a client record from the active set into the bounded closed window,
    /// folding the record that ages out (if any) into the aggregate totals.
    fn close_client(&self, client: u64) {
        let mut reg = self.clients.lock().expect("client registry");
        let Some(pos) = reg.active.iter().position(|(id, _)| *id == client) else {
            return;
        };
        let (id, mut record) = reg.active.remove(pos);
        record.closed_after = Some(record.connected.elapsed().as_secs_f64());
        reg.closed_total += 1;
        reg.recent_closed.push_back((id, record));
        while reg.recent_closed.len() > CLOSED_CLIENT_WINDOW {
            let (_, old) = reg.recent_closed.pop_front().expect("len checked");
            reg.aggregated_requests += old.requests;
            reg.aggregated_reports += old.reports;
            reg.aggregated_hits += old.hits;
            reg.aggregated_misses += old.misses;
        }
    }

    /// Records one job's queue wait in the bounded reservoir behind the status
    /// percentiles.
    fn record_queue_wait(&self, wait: Duration) {
        let mut waits = self.queue_waits.lock().expect("queue-wait reservoir");
        if waits.len() == QUEUE_WAIT_WINDOW {
            waits.pop_front();
        }
        waits.push_back(wait.as_secs_f64() * 1e3);
    }

    /// Raises the stop flag and wakes the accept loop with a dummy self-connection.
    fn initiate_shutdown(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        self.log(format_args!("shutdown requested, draining"));
        let _ = Stream::connect(&self.addr);
    }

    fn status(&self, engine: &Engine) -> DaemonStatus {
        let reg = self.clients.lock().expect("client registry");
        let mut clients: Vec<ClientStats> = reg
            .recent_closed
            .iter()
            .map(|(id, c)| (*id, c, false))
            .chain(reg.active.iter().map(|(id, c)| (*id, c, true)))
            .map(|(id, c, active)| ClientStats {
                client: id,
                connected_secs: c
                    .closed_after
                    .unwrap_or_else(|| c.connected.elapsed().as_secs_f64()),
                requests: c.requests,
                reports: c.reports,
                hits: c.hits,
                misses: c.misses,
                active,
            })
            .collect();
        clients.sort_by_key(|c| c.client);
        // Clients that aged out of the closed window survive as one aggregate row
        // (client id 0) — the totals stay truthful while retention stays O(1).
        if reg.closed_total > reg.recent_closed.len() as u64 {
            clients.insert(
                0,
                ClientStats {
                    client: 0,
                    connected_secs: 0.0,
                    requests: reg.aggregated_requests,
                    reports: reg.aggregated_reports,
                    hits: reg.aggregated_hits,
                    misses: reg.aggregated_misses,
                    active: false,
                },
            );
        }
        let (p50, p95) = {
            let waits = self.queue_waits.lock().expect("queue-wait reservoir");
            let mut sorted: Vec<f64> = waits.iter().copied().collect();
            sorted.sort_by(f64::total_cmp);
            (percentile_ms(&sorted, 50.0), percentile_ms(&sorted, 95.0))
        };
        DaemonStatus {
            addr: self.addr.to_string(),
            pid: std::process::id(),
            uptime_secs: self.started.elapsed().as_secs_f64(),
            workers: engine.config().jobs,
            requests_served: self.requests_served.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            in_flight_jobs: self.in_flight_jobs.load(Ordering::Relaxed),
            dedup_hits: engine.dedup_hits() as u64,
            runs_cancelled: self.runs_cancelled.load(Ordering::Relaxed),
            jobs_cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            queue_wait_p50_ms: p50,
            queue_wait_p95_ms: p95,
            max_connections: self.max_connections,
            active_connections: reg.active.len() as u64,
            closed_connections: reg.closed_total,
            cache: engine.cache().stats(),
            entries: engine.cache().len(),
            degraded: engine.cache().degraded(),
            cache_path: engine
                .config()
                .cache_path
                .as_ref()
                .map(|p| p.display().to_string()),
            clients,
        }
    }
}

/// Nearest-rank percentile of an already-sorted millisecond sample; zero when empty.
fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A running daemon instance (in-process). The `marpled` binary wraps this; tests and
/// the benchmark harness spawn it directly on a temp socket.
pub struct Daemon;

/// Handle onto a spawned daemon: its bound address plus the serve thread.
pub struct DaemonHandle {
    addr: Addr,
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for DaemonHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

impl Daemon {
    /// Builds the engine (warming the store from disk), binds the listener and starts
    /// serving on a background thread. Returns once the daemon accepts connections.
    pub fn spawn(config: DaemonConfig) -> io::Result<DaemonHandle> {
        let engine = Engine::new(config.engine.clone())?;
        if engine.cache().degraded() {
            let path = config
                .engine
                .cache_path
                .as_ref()
                .map(|p| p.display().to_string())
                .unwrap_or_default();
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                format!(
                    "the cache lock on `{path}` is held by another process; \
                     marpled refuses to run degraded — stop the other writer first"
                ),
            ));
        }
        let listener = Listener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // Advertise the service next to the cache log, so lock-contended `marple
        // check` runs can suggest the exact `--remote` address.
        let addr_file = config.engine.cache_path.as_ref().map(|p| addr_path_for(p));
        if let Some(path) = &addr_file {
            std::fs::write(path, format!("{addr}\n"))?;
        }
        let shared = Arc::new(Shared {
            addr: addr.clone(),
            started: Instant::now(),
            stopping: AtomicBool::new(false),
            requests_served: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            in_flight_jobs: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            runs_cancelled: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            clients: Mutex::new(ClientRegistry::default()),
            conns: Mutex::new(HashMap::new()),
            queue_waits: Mutex::new(VecDeque::new()),
            max_connections: config.max_connections,
            max_client_jobs: config.max_client_jobs,
            quiet: config.quiet,
        });
        shared.log(format_args!(
            "listening on {addr} ({} worker{}, {} cache entries warm)",
            engine.config().jobs,
            if engine.config().jobs == 1 { "" } else { "s" },
            engine.cache().len(),
        ));
        let serve_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("marpled-accept".to_string())
            .spawn(move || {
                serve(&serve_shared, &engine, &listener);
                // Every handler, runner and writer has joined: release the lock by
                // dropping the engine (the store writes any fresh records first), then
                // remove the advertisement files — socket last, it is what
                // `marple daemon stop` polls.
                drop(engine);
                if let Some(path) = &addr_file {
                    let _ = std::fs::remove_file(path);
                }
                if let Some(path) = listener.socket_path() {
                    let _ = std::fs::remove_file(path);
                }
                serve_shared.log(format_args!("stopped"));
            })
            .expect("spawning the daemon accept thread failed");
        Ok(DaemonHandle {
            addr,
            shared,
            thread: Some(thread),
        })
    }
}

impl DaemonHandle {
    /// The address the daemon is actually bound to (TCP port 0 resolved).
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Whether the serve thread has exited.
    pub fn is_stopped(&self) -> bool {
        self.thread
            .as_ref()
            .map(|t| t.is_finished())
            .unwrap_or(true)
    }

    /// Initiates a graceful shutdown and waits for the daemon to finish draining.
    pub fn stop(mut self) {
        self.shared.initiate_shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }

    /// Waits for the daemon to stop on its own (e.g. by a client's `shutdown`).
    pub fn join(mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.shared.initiate_shutdown();
            let _ = thread.join();
        }
    }
}

/// The benchmark batch a verification request resolves to.
fn resolve_batch(request: &Request) -> Result<Vec<Benchmark>, String> {
    match request {
        // Suite configurations are looked up by name; `gen/s<seed>-i<index>…` names
        // are *regenerated* server-side from the name alone (the name is the recipe),
        // which is how the fuzz harness drives generated configurations over the wire
        // without any protocol change.
        Request::Check { adt, library } => hat_suite::find(adt, library)
            .or_else(|| hat_gen::find(adt, library))
            .map(|b| vec![b])
            .ok_or_else(|| format!("unknown configuration `{adt}/{library}`")),
        // The full suite, in the same order `marple check-all` runs it — remote and
        // local check-all must cover the identical set for identical reports.
        Request::CheckAll | Request::Warmup => Ok(hat_suite::all_benchmarks()),
        _ => unreachable!("not a verification request"),
    }
}

/// The accept loop plus every per-connection thread, all inside one scope: when this
/// function returns, every connection is fully drained.
fn serve(shared: &Shared, engine: &Engine, listener: &Listener) {
    std::thread::scope(|scope| {
        while !shared.stopping.load(Ordering::SeqCst) {
            let stream = match listener.accept() {
                Ok(stream) => stream,
                Err(e) => {
                    if shared.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    shared.log(format_args!("accept failed: {e}"));
                    continue;
                }
            };
            if shared.stopping.load(Ordering::SeqCst) {
                // The shutdown wake-up connection (or a client racing it): drop.
                break;
            }
            // Admission control: over the connection cap, answer with a handshake +
            // `busy` (so the client gets one clear line, not a connection reset) and
            // close. The write happens off the accept loop, which must keep accepting.
            let open = shared.conns.lock().expect("connection registry").len();
            if shared.max_connections > 0 && open >= shared.max_connections {
                shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
                let max = shared.max_connections;
                shared.log(format_args!(
                    "connection refused: at the connection limit ({max})"
                ));
                scope.spawn(move || {
                    let mut w = BufWriter::new(stream);
                    let busy = ResponseEnvelope {
                        id: 0,
                        response: Response::Busy {
                            message: format!(
                                "the daemon is at its connection limit ({max}); retry shortly"
                            ),
                        },
                    };
                    let _ = write_frame(&mut w, &Hello::current().to_json().to_string())
                        .and_then(|()| write_frame(&mut w, &busy.to_json().to_string()))
                        .and_then(|()| w.flush());
                });
                continue;
            }
            let client = shared.register_client();
            if let Ok(clone) = stream.try_clone() {
                shared
                    .conns
                    .lock()
                    .expect("connection registry")
                    .insert(client, clone);
            }
            shared.log(format_args!("client {client} connected"));
            scope.spawn(move || handle_connection(scope, shared, engine, stream, client));
        }
        // Half-close every connection: blocked `read_frame`s return, handlers stop
        // taking new requests, but write halves stay open so in-flight runs finish
        // streaming. The scope then joins everything.
        for conn in shared.conns.lock().expect("connection registry").values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
    });
}

/// A connection's outbound lane: the bounded channel to its writer thread, plus the
/// stall policy. Shared between the handler and every runner thread of the connection.
struct ConnTx {
    tx: SyncSender<String>,
    /// A clone of the connection, used only to sever it when the consumer stalls.
    conn: Stream,
    stalled: AtomicBool,
    client: u64,
}

impl ConnTx {
    /// Enqueues one response frame for the writer.
    fn send(&self, shared: &Shared, id: u64, response: Response) {
        self.push(
            shared,
            ResponseEnvelope { id, response }.to_json().to_string(),
        );
    }

    /// Enqueues a payload, applying the disconnect-on-stall policy: when the bounded
    /// queue has stayed full for [`STALL_GRACE`], the client is not reading — sever
    /// the connection (with a logged reason) instead of buffering without limit.
    /// Frames after a stall (or after the client went away) are dropped; runs complete
    /// anyway, since their memo entries are the daemon's whole point.
    fn push(&self, shared: &Shared, payload: String) {
        if self.stalled.load(Ordering::Relaxed) {
            return;
        }
        let mut payload = payload;
        let deadline = Instant::now() + STALL_GRACE;
        loop {
            match self.tx.try_send(payload) {
                Ok(()) => return,
                Err(TrySendError::Disconnected(_)) => return,
                Err(TrySendError::Full(returned)) => {
                    if Instant::now() >= deadline {
                        if !self.stalled.swap(true, Ordering::Relaxed) {
                            shared.log(format_args!(
                                "client {}: not reading its responses (writer full for \
                                 {STALL_GRACE:?}), disconnecting",
                                self.client
                            ));
                            let _ = self.conn.shutdown(Shutdown::Both);
                        }
                        return;
                    }
                    payload = returned;
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }
}

fn handle_connection<'scope>(
    scope: &'scope Scope<'scope, '_>,
    shared: &'scope Shared,
    engine: &'scope Engine,
    mut reader: Stream,
    client: u64,
) {
    let (Ok(write_half), Ok(stall_half)) = (reader.try_clone(), reader.try_clone()) else {
        shared.close_client(client);
        shared
            .conns
            .lock()
            .expect("connection registry")
            .remove(&client);
        return;
    };
    // One writer thread per connection: report frames from several concurrent runner
    // threads (pipelined requests) funnel through this bounded channel, so frames
    // never tear and a stalled consumer cannot buffer unboundedly.
    let (tx, rx) = sync_channel::<String>(WRITER_CHANNEL_FRAMES);
    let tx = Arc::new(ConnTx {
        tx,
        conn: stall_half,
        stalled: AtomicBool::new(false),
        client,
    });
    scope.spawn(move || {
        let mut w = BufWriter::new(write_half);
        while let Ok(payload) = rx.recv() {
            if write_frame(&mut w, &payload).is_err() || w.flush().is_err() {
                break;
            }
        }
        // Closing the write half tells a still-reading client the stream is over.
        let _ = w.get_ref().shutdown(Shutdown::Write);
    });
    // The server speaks first: handshake before any request.
    tx.push(shared, Hello::current().to_json().to_string());
    // Cancel flags of this connection's in-flight verification requests, by id.
    let cancel_flags: Arc<Mutex<HashMap<u64, Arc<AtomicBool>>>> =
        Arc::new(Mutex::new(HashMap::new()));
    // Jobs this connection currently has submitted (the per-client admission gauge;
    // incremented here, decremented by the runner when its batch settles).
    let conn_jobs = Arc::new(AtomicU64::new(0));
    loop {
        let payload = match read_frame(&mut reader, MAX_REQUEST_FRAME) {
            Ok(Some(payload)) => payload,
            Ok(None) => break,
            Err(e) => {
                // Torn, oversized or garbled frame: the connection is poisoned, the
                // store is not. Drop the connection; nothing was mutated.
                shared.log(format_args!("client {client}: bad frame ({e}), closing"));
                break;
            }
        };
        let envelope = match Envelope::parse(&payload) {
            Ok(envelope) => envelope,
            Err(message) => {
                shared.log(format_args!("client {client}: {message}, closing"));
                tx.send(shared, 0, Response::Error { message });
                break;
            }
        };
        shared.requests_served.fetch_add(1, Ordering::Relaxed);
        shared.with_client(client, |c| c.requests += 1);
        let id = envelope.id;
        match envelope.request {
            Request::Ping => tx.send(
                shared,
                id,
                Response::Pong {
                    uptime_secs: shared.started.elapsed().as_secs_f64(),
                },
            ),
            Request::CacheStats => {
                tx.send(shared, id, Response::Stats(Box::new(shared.status(engine))));
            }
            Request::Cancel { target } => {
                let flag = cancel_flags
                    .lock()
                    .expect("cancel flags")
                    .get(&target)
                    .cloned();
                match flag {
                    Some(flag) => {
                        flag.store(true, Ordering::Relaxed);
                        shared.log(format_args!(
                            "client {client} cancelled its request {target}"
                        ));
                        tx.send(shared, id, Response::Cancelled { target });
                    }
                    None => tx.send(
                        shared,
                        id,
                        Response::Error {
                            message: format!(
                                "no in-flight verification request {target} on this connection"
                            ),
                        },
                    ),
                }
            }
            Request::Shutdown { now } => {
                if now {
                    let dropped = engine.cancel_all_queued();
                    if dropped > 0 {
                        shared.log(format_args!(
                            "shutdown --now: dropped {dropped} queued job{}",
                            if dropped == 1 { "" } else { "s" }
                        ));
                    }
                }
                tx.send(shared, id, Response::Bye);
                shared.initiate_shutdown();
                break;
            }
            request @ (Request::Check { .. } | Request::CheckAll | Request::Warmup) => {
                match resolve_batch(&request) {
                    Err(message) => tx.send(shared, id, Response::Error { message }),
                    Ok(benches) => {
                        // Per-client admission: refuse (rather than queue) a request
                        // that would push this connection over its job budget.
                        let batch: u64 = benches.iter().map(|b| b.methods.len() as u64).sum();
                        let queued = conn_jobs.load(Ordering::Relaxed);
                        if shared.max_client_jobs > 0
                            && queued + batch > shared.max_client_jobs as u64
                        {
                            shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
                            tx.send(
                                shared,
                                id,
                                Response::Busy {
                                    message: format!(
                                        "this connection has {queued} jobs in flight and the \
                                         request adds {batch}; the per-client limit is {} — \
                                         wait for a `done` or cancel a stream",
                                        shared.max_client_jobs
                                    ),
                                },
                            );
                            continue;
                        }
                        conn_jobs.fetch_add(batch, Ordering::Relaxed);
                        // Each verification request runs on its own thread so the
                        // handler keeps reading: a client may pipeline a cache-stats
                        // probe, a `cancel`, or a second batch while this one streams.
                        let stream_reports = !matches!(request, Request::Warmup);
                        let deadline = envelope
                            .deadline_ms
                            .map(|ms| Instant::now() + Duration::from_millis(ms));
                        let cancel = Arc::new(AtomicBool::new(false));
                        cancel_flags
                            .lock()
                            .expect("cancel flags")
                            .insert(id, Arc::clone(&cancel));
                        let tx = Arc::clone(&tx);
                        let flags = Arc::clone(&cancel_flags);
                        let conn_jobs = Arc::clone(&conn_jobs);
                        scope.spawn(move || {
                            run_batch(RunCtx {
                                shared,
                                engine,
                                benches: &benches,
                                id,
                                tx: &tx,
                                client,
                                stream_reports,
                                deadline,
                                cancel: &cancel,
                            });
                            conn_jobs.fetch_sub(batch, Ordering::Relaxed);
                            flags.lock().expect("cancel flags").remove(&id);
                        });
                    }
                }
            }
        }
    }
    // Leak-free lifecycle: release the retained stream clone (and its fd) and fold
    // this client's record into the bounded closed window.
    shared
        .conns
        .lock()
        .expect("connection registry")
        .remove(&client);
    shared.close_client(client);
    shared.log(format_args!("client {client} disconnected"));
}

/// Everything one verification batch needs.
struct RunCtx<'a> {
    shared: &'a Shared,
    engine: &'a Engine,
    benches: &'a [Benchmark],
    id: u64,
    tx: &'a ConnTx,
    client: u64,
    /// Warmup runs skip the per-job report frames.
    stream_reports: bool,
    /// When set, the run auto-cancels its queued jobs once the instant passes.
    deadline: Option<Instant>,
    /// Raised by a `cancel` request targeting this run's id.
    cancel: &'a AtomicBool,
}

/// Runs one verification batch on the engine's pool, streaming per-job reports (in
/// completion order) and the terminating `done` frame to the connection's writer.
/// Between reports the run polls its deadline and cancel flag; a trigger drops the
/// batch's queued jobs (running ones finish and still stream), and the `done` frame
/// reports the partial coverage in its `cancelled` counter.
fn run_batch(ctx: RunCtx<'_>) {
    let RunCtx {
        shared,
        engine,
        benches,
        id,
        tx,
        client,
        deadline,
        cancel,
        stream_reports,
    } = ctx;
    let mut in_flight_added: u64 = 0;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut handle = engine.submit(benches);
        let jobs = handle.job_count();
        in_flight_added = jobs as u64;
        shared
            .in_flight_jobs
            .fetch_add(in_flight_added, Ordering::Relaxed);
        loop {
            match handle.poll_report(CANCEL_POLL) {
                PollReport::Report(job) => {
                    shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
                    shared.record_queue_wait(job.queue_wait);
                    if stream_reports {
                        let bench = &benches[job.bench];
                        shared.with_client(client, |c| c.reports += 1);
                        tx.send(
                            shared,
                            id,
                            Response::Report {
                                bench: job.bench,
                                method: job.method,
                                adt: bench.adt.to_string(),
                                library: bench.library.to_string(),
                                policy: bench.policy.to_string(),
                                expect_verified: bench.methods[job.method].expect_verified,
                                report: Box::new(job.report),
                            },
                        );
                    }
                }
                PollReport::Done => break,
                PollReport::TimedOut => {}
            }
            if !handle.cancel_requested()
                && (cancel.load(Ordering::Relaxed) || deadline.is_some_and(|d| Instant::now() >= d))
            {
                let reason = if cancel.load(Ordering::Relaxed) {
                    "cancelled by the client"
                } else {
                    "deadline expired"
                };
                let dropped = handle.cancel();
                shared.log(format_args!(
                    "client {client} request {id}: {reason}, dropped {dropped} queued job{}",
                    if dropped == 1 { "" } else { "s" }
                ));
            }
        }
        let summary = handle.finish();
        shared
            .in_flight_jobs
            .fetch_sub(in_flight_added, Ordering::Relaxed);
        in_flight_added = 0;
        if summary.cancelled > 0 {
            shared.runs_cancelled.fetch_add(1, Ordering::Relaxed);
            shared
                .jobs_cancelled
                .fetch_add(summary.cancelled as u64, Ordering::Relaxed);
        }
        shared.with_client(client, |c| {
            c.hits += summary.cache.hits;
            c.misses += summary.cache.misses;
        });
        tx.send(
            shared,
            id,
            Response::Done {
                wall: summary.wall,
                cache: summary.cache,
                jobs,
                cancelled: summary.cancelled,
                dedup_hits: summary.dedup_hits,
                queue_wait_p50: summary.queue_wait_p50,
                queue_wait_p95: summary.queue_wait_p95,
            },
        );
    }));
    if let Err(panic) = outcome {
        if in_flight_added > 0 {
            shared
                .in_flight_jobs
                .fetch_sub(in_flight_added, Ordering::Relaxed);
        }
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "verification failed".to_string());
        shared.log(format_args!(
            "client {client} request {id} failed: {message}"
        ));
        tx.send(shared, id, Response::Error { message });
    }
}
