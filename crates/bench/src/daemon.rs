//! The daemon trace replay: measures `marpled` as a service — requests per second and
//! per-request latency percentiles over the wire, not just engine-side wall time.
//!
//! The trace is the non-slow benchmark suite replayed as one `check` request per
//! configuration, twice: a **cold** client against a daemon whose store starts empty,
//! then a **warm** second client on a fresh connection. The warm phase is the daemon's
//! whole value proposition, so the replay records the evidence: every query answered
//! from the shared store (`cache.misses == 0`) without replaying the disk log again
//! (`cache.disk_loaded == 0` — the log was read once, at daemon startup, not per
//! client).
//!
//! The **mixed-traffic** replay ([`mixed_traffic_replay`]) measures fairness instead
//! of throughput: a latency-sensitive `check` probe is timed uncontended, then again
//! while several background clients hammer the daemon with back-to-back `check-all`
//! batches. Under the per-submission round-robin scheduler the contended p95 stays
//! within a small factor of the uncontended p95; under a single FIFO queue it would
//! trail the whole batch.

use hat_daemon::{Addr, Daemon, DaemonConfig, RemoteClient, Request};
use hat_engine::{CacheStatsSnapshot, EngineConfig};
use hat_suite::Benchmark;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One replayed client session.
#[derive(Debug, Clone)]
pub struct ReplayPhase {
    /// Requests issued (one `check` per configuration).
    pub requests: usize,
    /// Verification jobs those requests ran server-side.
    pub jobs: usize,
    /// Wall-clock time of the whole session, connect to last `done`.
    pub wall_seconds: f64,
    /// Median request latency (send → `done`), seconds.
    pub p50_latency_seconds: f64,
    /// 95th-percentile request latency, seconds.
    pub p95_latency_seconds: f64,
    /// Cache-counter deltas summed over the session's requests. `disk_loaded` stays 0:
    /// the daemon loads the log once at startup, never per client.
    pub cache: CacheStatsSnapshot,
}

impl ReplayPhase {
    /// Requests completed per second of session wall time.
    pub fn requests_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.requests as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// The cold-then-warm daemon replay measurement.
#[derive(Debug, Clone)]
pub struct DaemonReplay {
    /// Worker threads of the daemon's pool.
    pub workers: usize,
    /// First client: empty store, every verdict solved.
    pub cold: ReplayPhase,
    /// Second client, fresh connection: served from the shared warm store.
    pub warm: ReplayPhase,
}

/// Nearest-rank percentile of an unsorted latency sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn replay_session(addr: &Addr, trace: &[(String, String)]) -> ReplayPhase {
    let mut client = RemoteClient::connect(addr).expect("the replay client connects");
    let mut latencies = Vec::with_capacity(trace.len());
    let mut jobs = 0;
    let mut cache = CacheStatsSnapshot::default();
    let start = Instant::now();
    for (adt, library) in trace {
        let sent = Instant::now();
        let run = client
            .verify(
                Request::Check {
                    adt: adt.clone(),
                    library: library.clone(),
                },
                |_, _, _| {},
            )
            .unwrap_or_else(|e| panic!("replaying {adt}/{library} failed: {e}"));
        latencies.push(sent.elapsed().as_secs_f64());
        jobs += run.jobs;
        cache += run.summary.cache;
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    latencies.sort_by(f64::total_cmp);
    ReplayPhase {
        requests: trace.len(),
        jobs,
        wall_seconds,
        p50_latency_seconds: percentile(&latencies, 50.0),
        p95_latency_seconds: percentile(&latencies, 95.0),
        cache,
    }
}

/// Spawns an in-process daemon (disk-backed store on a temp path, temp socket) and
/// replays the trace as two client sessions, cold then warm.
pub fn daemon_replay(benches: &[Benchmark], workers: usize) -> DaemonReplay {
    let tag = std::process::id();
    let cache_path = std::env::temp_dir().join(format!("hat-bench-replay-{tag}.cache"));
    let _ = std::fs::remove_file(&cache_path);
    let daemon = Daemon::spawn(DaemonConfig {
        addr: Addr::Unix(std::env::temp_dir().join(format!("hat-bench-replay-{tag}.sock"))),
        engine: EngineConfig {
            jobs: workers,
            cache_path: Some(cache_path.clone()),
            ..EngineConfig::default()
        },
        quiet: true,
        ..DaemonConfig::default()
    })
    .expect("the replay daemon starts");
    let trace: Vec<(String, String)> = benches
        .iter()
        .filter(|b| !b.slow)
        .map(|b| (b.adt.to_string(), b.library.to_string()))
        .collect();
    let cold = replay_session(daemon.addr(), &trace);
    let warm = replay_session(daemon.addr(), &trace);
    daemon.stop();
    let _ = std::fs::remove_file(&cache_path);
    DaemonReplay {
        workers,
        cold,
        warm,
    }
}

/// The fairness measurement: probe `check` latency with and without competing
/// `check-all` traffic, against one warm daemon.
#[derive(Debug, Clone)]
pub struct MixedTrafficReplay {
    /// Worker threads of the daemon's pool.
    pub workers: usize,
    /// Background clients issuing back-to-back `check-all` batches.
    pub background_clients: usize,
    /// `check-all` batches the background clients completed during the contended phase.
    pub background_batches: usize,
    /// Probe `check` requests timed per phase.
    pub probes: usize,
    /// Uncontended probe latency, seconds.
    pub uncontended_p50_seconds: f64,
    pub uncontended_p95_seconds: f64,
    /// Probe latency while the background clients hammer the daemon, seconds.
    pub contended_p50_seconds: f64,
    pub contended_p95_seconds: f64,
    /// Identical in-flight jobs coalesced across clients over the whole replay.
    pub dedup_hits: u64,
    /// Scheduler queue-wait p95 over the daemon's recent jobs, milliseconds.
    pub queue_wait_p95_ms: f64,
}

impl MixedTrafficReplay {
    /// Contended p95 over uncontended p95 — the fairness headline. 1.0 means
    /// contention is invisible to the probe; a FIFO queue would put this at the
    /// length of a whole `check-all` batch over one `check`.
    pub fn contention_ratio_p95(&self) -> f64 {
        if self.uncontended_p95_seconds > 0.0 {
            self.contended_p95_seconds / self.uncontended_p95_seconds
        } else {
            0.0
        }
    }
}

/// Times `probes` sequential probe requests and returns their sorted latencies.
fn probe_latencies(
    addr: &Addr,
    probe: &(String, String),
    probes: usize,
    pace: Duration,
) -> Vec<f64> {
    let mut client = RemoteClient::connect(addr).expect("the probe client connects");
    let mut latencies = Vec::with_capacity(probes);
    for _ in 0..probes {
        let sent = Instant::now();
        client
            .verify(
                Request::Check {
                    adt: probe.0.clone(),
                    library: probe.1.clone(),
                },
                |_, _, _| {},
            )
            .unwrap_or_else(|e| panic!("probe {}/{} failed: {e}", probe.0, probe.1));
        latencies.push(sent.elapsed().as_secs_f64());
        std::thread::sleep(pace);
    }
    latencies.sort_by(f64::total_cmp);
    latencies
}

/// Spawns a warm in-process daemon and measures probe `check` latency uncontended,
/// then under `background_clients` concurrent `check-all` loops. The probe is the
/// first non-slow configuration; verdicts are whatever the engine produces — the
/// replay only times them.
pub fn mixed_traffic_replay(
    benches: &[Benchmark],
    workers: usize,
    background_clients: usize,
    probes: usize,
) -> MixedTrafficReplay {
    let tag = std::process::id();
    let cache_path = std::env::temp_dir().join(format!("hat-bench-mixed-{tag}.cache"));
    let _ = std::fs::remove_file(&cache_path);
    let daemon = Daemon::spawn(DaemonConfig {
        addr: Addr::Unix(std::env::temp_dir().join(format!("hat-bench-mixed-{tag}.sock"))),
        engine: EngineConfig {
            jobs: workers,
            cache_path: Some(cache_path.clone()),
            ..EngineConfig::default()
        },
        quiet: true,
        ..DaemonConfig::default()
    })
    .expect("the mixed-traffic daemon starts");
    let addr = daemon.addr().clone();
    let probe = benches
        .iter()
        .find(|b| !b.slow)
        .map(|b| (b.adt.to_string(), b.library.to_string()))
        .expect("a non-slow probe configuration exists");
    // Warm the store once so both phases measure scheduling, not solving.
    RemoteClient::connect(&addr)
        .expect("the warmup client connects")
        .verify(Request::Warmup, |_, _, _| {})
        .expect("warmup succeeds");
    let pace = Duration::from_millis(5);
    let uncontended = probe_latencies(&addr, &probe, probes, pace);
    // Contended phase: background clients issue back-to-back check-all batches for as
    // long as the probes run.
    let stop = AtomicBool::new(false);
    let batches = AtomicUsize::new(0);
    let contended = std::thread::scope(|scope| {
        for _ in 0..background_clients {
            scope.spawn(|| {
                let mut client =
                    RemoteClient::connect(&addr).expect("a background client connects");
                while !stop.load(Ordering::Relaxed) {
                    client
                        .verify(Request::CheckAll, |_, _, _| {})
                        .expect("a background check-all completes");
                    batches.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let latencies = probe_latencies(&addr, &probe, probes, pace);
        stop.store(true, Ordering::Relaxed);
        latencies
    });
    let status = RemoteClient::connect(&addr)
        .expect("the status client connects")
        .cache_stats()
        .expect("the status probe succeeds");
    daemon.stop();
    let _ = std::fs::remove_file(&cache_path);
    MixedTrafficReplay {
        workers,
        background_clients,
        background_batches: batches.into_inner(),
        probes,
        uncontended_p50_seconds: percentile(&uncontended, 50.0),
        uncontended_p95_seconds: percentile(&uncontended, 95.0),
        contended_p50_seconds: percentile(&contended, 50.0),
        contended_p95_seconds: percentile(&contended, 95.0),
        dedup_hits: status.dedup_hits,
        queue_wait_p95_ms: status.queue_wait_p95_ms,
    }
}
