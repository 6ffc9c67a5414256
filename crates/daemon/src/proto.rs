//! The `marpled v2` wire protocol: typed requests/responses over [`crate::frame`]
//! frames, plus the connect-time handshake.
//!
//! ## Handshake
//!
//! On connect the server speaks first, announcing one [`Hello`] frame:
//! `{"server":"marpled v2","protocol":4,"cache_version":6,"pid":…}`. The client checks
//! all three identity fields before sending anything; a mismatch (an old daemon, a
//! different cache format generation, or a non-marpled service on the address) is
//! rejected client-side with a message naming both sides, so version skew fails in one
//! clear line instead of as garbled frames.
//!
//! ## Requests and responses
//!
//! After the handshake the client sends [`Request`] frames, each wrapped in an
//! [`Envelope`] carrying a **client-assigned request id**. Responses echo the id, which
//! is what lets one connection pipeline several requests (`check-all` streaming while a
//! `cache-stats` answers in between) and demultiplex the interleaved replies. A
//! verification request answers with zero or more `report` frames (one per completed
//! (benchmark, method) job, in completion order) terminated by exactly one `done`
//! frame; every other request answers with exactly one frame.
//!
//! A verification envelope may carry a `deadline_ms` budget: once it elapses the
//! server cancels the run's queued jobs and the `done` frame reports the drop in its
//! `cancelled` counter. A `cancel` request does the same on demand for a named
//! in-flight request id. When the daemon is at its connection or per-client job
//! limits it answers with a `busy` frame instead of queueing unboundedly; over-cap
//! connections receive `busy` with id 0 right after the handshake and are closed.
//!
//! All numbers that count things are JSON integers; all durations travel as seconds in
//! a JSON float, written with Rust's shortest-round-trip formatting so the client
//! reconstructs bit-identical values and renders reports through the very same code
//! path as a local run. Counter objects (`stats` in `report`, `cache` in `done` and
//! `stats`) carry one key per counter of the `CheckStats` / `CacheStatsSnapshot`
//! schema, written and read by iterating it.

use crate::json::{obj, Json};
use hat_core::{CheckStats, MethodReport};
use hat_engine::{CacheStatsSnapshot, CompactionReport};
use hat_sfa::{Counter, CounterMut};
use std::time::Duration;

/// The server's self-identification. Bump the version suffix on breaking protocol
/// changes (v2: cancellation, deadlines, busy admission control, fairness counters).
pub const SERVER_NAME: &str = "marpled v2";

/// Frame-level protocol generation (3: `report` stats carry every `CheckStats`
/// counter by its schema name, `avg_fa_size` is derived from `dfa_transitions` and
/// `dfas_built`, and every counter key is required; 4: `report` stats gained
/// `theory_checks`).
pub const PROTOCOL_VERSION: u64 = 4;

/// The disk-cache format generation the daemon serves (`hat-engine-cache v6`). Part of
/// the handshake so a client built against a different store generation refuses early.
pub const CACHE_VERSION: u64 = 6;

/// The connect-time server announcement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Server name and protocol family (`marpled v1`).
    pub server: String,
    /// Frame protocol generation.
    pub protocol: u64,
    /// Cache format generation.
    pub cache_version: u64,
    /// The daemon's PID (diagnostics; `marple daemon status` prints it).
    pub pid: u32,
}

impl Hello {
    /// The announcement for this build.
    pub fn current() -> Self {
        Hello {
            server: SERVER_NAME.to_string(),
            protocol: PROTOCOL_VERSION,
            cache_version: CACHE_VERSION,
            pid: std::process::id(),
        }
    }

    /// Serialises the announcement payload.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("server", Json::Str(self.server.clone())),
            ("protocol", Json::Int(self.protocol as i64)),
            ("cache_version", Json::Int(self.cache_version as i64)),
            ("pid", Json::Int(i64::from(self.pid))),
        ])
    }

    /// Parses an announcement payload.
    pub fn parse(payload: &str) -> Result<Hello, String> {
        let v = Json::parse(payload).map_err(|e| format!("unreadable handshake: {e}"))?;
        Ok(Hello {
            server: v
                .str_field("server")
                .ok_or("handshake lacks a `server` field")?
                .to_string(),
            protocol: v
                .u64_field("protocol")
                .ok_or("handshake lacks a `protocol` field")?,
            cache_version: v
                .u64_field("cache_version")
                .ok_or("handshake lacks a `cache_version` field")?,
            pid: v.u64_field("pid").unwrap_or(0) as u32,
        })
    }

    /// Checks this announcement against what the client was built for. `Err` carries
    /// the full one-line rejection message.
    pub fn check_compatible(&self) -> Result<(), String> {
        if self.server != SERVER_NAME {
            return Err(format!(
                "the service identifies as `{}`, but this client speaks `{SERVER_NAME}` — \
                 is the address really a marpled daemon?",
                self.server
            ));
        }
        if self.protocol != PROTOCOL_VERSION {
            return Err(format!(
                "protocol version mismatch: the daemon speaks v{}, this client v{PROTOCOL_VERSION} \
                 — restart the daemon from the same build as the client",
                self.protocol
            ));
        }
        if self.cache_version != CACHE_VERSION {
            return Err(format!(
                "cache format mismatch: the daemon serves a v{} store, this client expects v{CACHE_VERSION} \
                 — restart the daemon from the same build as the client",
                self.cache_version
            ));
        }
        Ok(())
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with `pong`.
    Ping,
    /// Verify one configuration; answered with `report*` then `done`.
    Check {
        /// ADT name (case-insensitive, as in `marple check`).
        adt: String,
        /// Backing library name.
        library: String,
    },
    /// Verify the whole non-slow suite; answered with `report*` then `done`.
    CheckAll,
    /// Server-side `check-all` without report streaming — pre-warms the store and
    /// answers with a single `done`.
    Warmup,
    /// Daemon and store statistics; answered with `stats`.
    CacheStats,
    /// Compact the disk log if crowded with dead records; answered with `compacted`.
    CacheCompact,
    /// Drop the queued jobs of an in-flight verification request on this connection
    /// (its `target` is the request id); jobs already on a worker finish. Answered
    /// with `cancelled`; the target's stream still terminates with its own `done`.
    Cancel {
        /// Request id of the verification stream to cancel.
        target: u64,
    },
    /// Graceful shutdown: drain in-flight jobs, flush/compact, release the lock.
    /// Answered with `bye` before the daemon exits. With `now`, queued jobs of every
    /// in-flight request are cancelled first and only running jobs are drained.
    Shutdown {
        /// Cancel queued work instead of draining it.
        now: bool,
    },
}

impl Request {
    /// The wire name of the operation.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Check { .. } => "check",
            Request::CheckAll => "check-all",
            Request::Warmup => "warmup",
            Request::CacheStats => "cache-stats",
            Request::CacheCompact => "cache-compact",
            Request::Cancel { .. } => "cancel",
            Request::Shutdown { .. } => "shutdown",
        }
    }
}

/// A request plus its client-assigned id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Client-assigned id, echoed by every response to this request.
    pub id: u64,
    /// The operation.
    pub request: Request,
    /// Optional budget for verification requests: once it elapses, the server cancels
    /// the run's queued jobs and finishes with a partial `done`. Ignored for
    /// non-verification operations.
    pub deadline_ms: Option<u64>,
}

impl Envelope {
    /// Wraps a request with no deadline.
    pub fn new(id: u64, request: Request) -> Envelope {
        Envelope {
            id,
            request,
            deadline_ms: None,
        }
    }

    /// Serialises the request payload.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::Int(self.id as i64)),
            ("op", Json::Str(self.request.op().to_string())),
        ];
        match &self.request {
            Request::Check { adt, library } => {
                fields.push(("adt", Json::Str(adt.clone())));
                fields.push(("library", Json::Str(library.clone())));
            }
            Request::Cancel { target } => {
                fields.push(("target", Json::Int(*target as i64)));
            }
            Request::Shutdown { now } => {
                fields.push(("now", Json::Bool(*now)));
            }
            _ => {}
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms", Json::Int(ms as i64)));
        }
        obj(fields)
    }

    /// Parses a request payload.
    pub fn parse(payload: &str) -> Result<Envelope, String> {
        let v = Json::parse(payload).map_err(|e| format!("unreadable request: {e}"))?;
        let id = v.u64_field("id").ok_or("request lacks an `id` field")?;
        let op = v.str_field("op").ok_or("request lacks an `op` field")?;
        let request = match op {
            "ping" => Request::Ping,
            "check" => Request::Check {
                adt: v
                    .str_field("adt")
                    .ok_or("`check` lacks an `adt` field")?
                    .to_string(),
                library: v
                    .str_field("library")
                    .ok_or("`check` lacks a `library` field")?
                    .to_string(),
            },
            "check-all" => Request::CheckAll,
            "warmup" => Request::Warmup,
            "cache-stats" => Request::CacheStats,
            "cache-compact" => Request::CacheCompact,
            "cancel" => Request::Cancel {
                target: v
                    .u64_field("target")
                    .ok_or("`cancel` lacks a `target` field")?,
            },
            "shutdown" => Request::Shutdown {
                now: v.bool_field("now").unwrap_or(false),
            },
            other => return Err(format!("unknown operation `{other}`")),
        };
        Ok(Envelope {
            id,
            request,
            deadline_ms: v.u64_field("deadline_ms"),
        })
    }
}

/// Statistics of one client connection, as reported by `cache-stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientStats {
    /// Server-assigned connection number (1-based, in accept order).
    pub client: u64,
    /// Seconds since the connection was accepted (or its total lifetime, once closed).
    pub connected_secs: f64,
    /// Requests this client has issued.
    pub requests: u64,
    /// Report frames streamed to this client.
    pub reports: u64,
    /// Solver-cache hits its verification requests observed.
    pub hits: usize,
    /// Solver-cache misses (queries its requests pushed to a solver).
    pub misses: usize,
    /// Whether the connection is still open.
    pub active: bool,
}

/// A full daemon status snapshot, as reported by `cache-stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonStatus {
    /// The address the daemon listens on (in `Addr` display syntax).
    pub addr: String,
    /// The daemon's PID.
    pub pid: u32,
    /// Seconds since the daemon began accepting connections.
    pub uptime_secs: f64,
    /// Worker threads in the verification pool.
    pub workers: usize,
    /// Total requests served across all clients.
    pub requests_served: u64,
    /// Total (benchmark, method) verification jobs completed.
    pub jobs_completed: u64,
    /// Verification jobs currently submitted and not yet completed or cancelled.
    pub in_flight_jobs: u64,
    /// Lifetime count of jobs answered by subscribing to an identical in-flight job
    /// of a concurrent request instead of executing again.
    pub dedup_hits: u64,
    /// Verification requests that were cancelled (client `cancel`, deadline expiry,
    /// or `shutdown --now`).
    pub runs_cancelled: u64,
    /// Queued jobs dropped by those cancellations.
    pub jobs_cancelled: u64,
    /// Connections turned away (or requests refused) by the admission limits.
    pub busy_rejections: u64,
    /// Median queue wait of recently completed jobs, in milliseconds.
    pub queue_wait_p50_ms: f64,
    /// 95th-percentile queue wait of recently completed jobs, in milliseconds.
    pub queue_wait_p95_ms: f64,
    /// The `--max-connections` cap (0 = unlimited).
    pub max_connections: usize,
    /// Connections currently open.
    pub active_connections: u64,
    /// Total connections closed over the daemon's lifetime. Only a bounded window of
    /// their per-client records is retained in `clients`; the rest are aggregated.
    pub closed_connections: u64,
    /// Lifetime store counters (hits/misses/disk-loaded/… since startup).
    pub cache: CacheStatsSnapshot,
    /// Entries currently resident in the shared store.
    pub entries: usize,
    /// Whether the store is running degraded (in-memory, lock not held).
    pub degraded: bool,
    /// The disk log path, when the store is persistent.
    pub cache_path: Option<String>,
    /// Per-client statistics: every open connection plus a bounded window of recently
    /// closed ones, newest connection last.
    pub clients: Vec<ClientStats>,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to `ping`.
    Pong {
        /// Seconds the daemon has been up.
        uptime_secs: f64,
    },
    /// One completed verification job of a `check`/`check-all` request.
    Report {
        /// Benchmark index within the request's batch.
        bench: usize,
        /// Method index within that benchmark.
        method: usize,
        /// ADT name of the benchmark.
        adt: String,
        /// Backing library name of the benchmark.
        library: String,
        /// The policy description (for the client's per-benchmark header).
        policy: String,
        /// Whether the suite expects this method to verify.
        expect_verified: bool,
        /// The report itself, counters and all (boxed: this variant dwarfs the others).
        report: Box<MethodReport>,
    },
    /// Terminates a `check`/`check-all`/`warmup` stream.
    Done {
        /// Wall-clock time of the batch, server-side.
        wall: Duration,
        /// Cache-counter deltas of this batch.
        cache: CacheStatsSnapshot,
        /// Number of jobs the batch submitted (completed + cancelled).
        jobs: usize,
        /// Jobs dropped by cancellation (client `cancel`, deadline expiry, or
        /// `shutdown --now`); nonzero marks the stream as partial.
        cancelled: usize,
        /// Jobs answered by subscribing to an identical concurrent job.
        dedup_hits: usize,
        /// Median queue wait of this batch's completed jobs.
        queue_wait_p50: Duration,
        /// 95th-percentile queue wait of this batch's completed jobs.
        queue_wait_p95: Duration,
    },
    /// Answer to `cache-stats`.
    Stats(Box<DaemonStatus>),
    /// Answer to `cache-compact`; `None` when the log was not crowded enough (or the
    /// store is in-memory).
    Compacted(Option<CompactionReport>),
    /// Acknowledges a `cancel` request: the target's queued jobs were dropped (its
    /// stream still ends with its own partial `done`).
    Cancelled {
        /// The request id that was cancelled.
        target: u64,
    },
    /// The daemon refused the work because an admission limit was hit (`--max-
    /// connections` or the per-client queued-job cap). Sent with id 0 right after the
    /// handshake when the connection itself is over cap, in which case the connection
    /// closes after this frame.
    Busy {
        /// Which limit was hit, user-facing.
        message: String,
    },
    /// The request failed; the connection stays usable.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Answer to `shutdown`, sent just before the daemon stops accepting work.
    Bye,
}

/// A response plus the id of the request it answers.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseEnvelope {
    /// Echo of the client-assigned request id.
    pub id: u64,
    /// The payload.
    pub response: Response,
}

fn secs(d: Duration) -> Json {
    Json::Float(d.as_secs_f64())
}

fn duration_field(v: &Json, key: &str) -> Result<Duration, String> {
    let secs = v
        .f64_field(key)
        .ok_or_else(|| format!("missing duration field `{key}`"))?;
    Duration::try_from_secs_f64(secs).map_err(|_| format!("field `{key}` is not a valid duration"))
}

fn usize_field(v: &Json, key: &str) -> Result<usize, String> {
    v.usize_field(key)
        .ok_or_else(|| format!("missing counter field `{key}`"))
}

/// One JSON field per counter, in schema order: counts as integers, times as float
/// seconds. `hat-bench` writes its `BENCH_engine.json` rows through this too.
pub fn counter_fields(
    counters: impl Iterator<Item = (&'static str, Counter)>,
) -> Vec<(&'static str, Json)> {
    counters
        .map(|(name, counter)| {
            let value = match counter {
                Counter::Count(n) => Json::Int(n as i64),
                Counter::Time(t) => secs(t),
            };
            (name, value)
        })
        .collect()
}

/// Reads every counter of a schema from a JSON object; each one is required.
fn read_counters<'a>(
    v: &Json,
    counters: impl Iterator<Item = (&'static str, CounterMut<'a>)>,
) -> Result<(), String> {
    for (name, slot) in counters {
        match slot {
            CounterMut::Count(n) => *n = usize_field(v, name)?,
            CounterMut::Time(t) => *t = duration_field(v, name)?,
        }
    }
    Ok(())
}

/// Serialises every [`CheckStats`] counter.
pub fn stats_to_json(s: &CheckStats) -> Json {
    obj(counter_fields(s.counters()))
}

/// Parses a [`CheckStats`] object.
pub fn stats_from_json(v: &Json) -> Result<CheckStats, String> {
    let mut stats = CheckStats::default();
    read_counters(v, stats.counters_mut())?;
    Ok(stats)
}

/// Serialises a cache-counter snapshot (or delta).
pub fn snapshot_to_json(s: &CacheStatsSnapshot) -> Json {
    obj(counter_fields(s.counters()))
}

/// Parses a cache-counter snapshot.
pub fn snapshot_from_json(v: &Json) -> Result<CacheStatsSnapshot, String> {
    let mut snapshot = CacheStatsSnapshot::default();
    read_counters(v, snapshot.counters_mut())?;
    Ok(snapshot)
}

impl ResponseEnvelope {
    /// Serialises the response payload.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("id", Json::Int(self.id as i64))];
        match &self.response {
            Response::Pong { uptime_secs } => {
                fields.push(("type", Json::Str("pong".into())));
                fields.push(("uptime_secs", Json::Float(*uptime_secs)));
            }
            Response::Report {
                bench,
                method,
                adt,
                library,
                policy,
                expect_verified,
                report,
            } => {
                fields.push(("type", Json::Str("report".into())));
                fields.push(("bench", Json::Int(*bench as i64)));
                fields.push(("method", Json::Int(*method as i64)));
                fields.push(("adt", Json::Str(adt.clone())));
                fields.push(("library", Json::Str(library.clone())));
                fields.push(("policy", Json::Str(policy.clone())));
                fields.push(("expect_verified", Json::Bool(*expect_verified)));
                fields.push(("name", Json::Str(report.name.clone())));
                fields.push(("verified", Json::Bool(report.verified)));
                fields.push((
                    "failures",
                    Json::Arr(
                        report
                            .failures
                            .iter()
                            .map(|f| Json::Str(f.clone()))
                            .collect(),
                    ),
                ));
                fields.push(("branches", Json::Int(report.branches as i64)));
                fields.push(("apps", Json::Int(report.apps as i64)));
                fields.push(("stats", stats_to_json(&report.stats)));
            }
            Response::Done {
                wall,
                cache,
                jobs,
                cancelled,
                dedup_hits,
                queue_wait_p50,
                queue_wait_p95,
            } => {
                fields.push(("type", Json::Str("done".into())));
                fields.push(("wall", secs(*wall)));
                fields.push(("jobs", Json::Int(*jobs as i64)));
                fields.push(("cancelled", Json::Int(*cancelled as i64)));
                fields.push(("dedup_hits", Json::Int(*dedup_hits as i64)));
                fields.push(("queue_wait_p50", secs(*queue_wait_p50)));
                fields.push(("queue_wait_p95", secs(*queue_wait_p95)));
                fields.push(("cache", snapshot_to_json(cache)));
            }
            Response::Stats(status) => {
                fields.push(("type", Json::Str("stats".into())));
                fields.push(("addr", Json::Str(status.addr.clone())));
                fields.push(("pid", Json::Int(i64::from(status.pid))));
                fields.push(("uptime_secs", Json::Float(status.uptime_secs)));
                fields.push(("workers", Json::Int(status.workers as i64)));
                fields.push(("requests_served", Json::Int(status.requests_served as i64)));
                fields.push(("jobs_completed", Json::Int(status.jobs_completed as i64)));
                fields.push(("in_flight_jobs", Json::Int(status.in_flight_jobs as i64)));
                fields.push(("dedup_hits", Json::Int(status.dedup_hits as i64)));
                fields.push(("runs_cancelled", Json::Int(status.runs_cancelled as i64)));
                fields.push(("jobs_cancelled", Json::Int(status.jobs_cancelled as i64)));
                fields.push(("busy_rejections", Json::Int(status.busy_rejections as i64)));
                fields.push(("queue_wait_p50_ms", Json::Float(status.queue_wait_p50_ms)));
                fields.push(("queue_wait_p95_ms", Json::Float(status.queue_wait_p95_ms)));
                fields.push(("max_connections", Json::Int(status.max_connections as i64)));
                fields.push((
                    "active_connections",
                    Json::Int(status.active_connections as i64),
                ));
                fields.push((
                    "closed_connections",
                    Json::Int(status.closed_connections as i64),
                ));
                fields.push(("cache", snapshot_to_json(&status.cache)));
                fields.push(("entries", Json::Int(status.entries as i64)));
                fields.push(("degraded", Json::Bool(status.degraded)));
                fields.push((
                    "cache_path",
                    match &status.cache_path {
                        Some(p) => Json::Str(p.clone()),
                        None => Json::Null,
                    },
                ));
                fields.push((
                    "clients",
                    Json::Arr(
                        status
                            .clients
                            .iter()
                            .map(|c| {
                                obj(vec![
                                    ("client", Json::Int(c.client as i64)),
                                    ("connected_secs", Json::Float(c.connected_secs)),
                                    ("requests", Json::Int(c.requests as i64)),
                                    ("reports", Json::Int(c.reports as i64)),
                                    ("hits", Json::Int(c.hits as i64)),
                                    ("misses", Json::Int(c.misses as i64)),
                                    ("active", Json::Bool(c.active)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            Response::Compacted(report) => {
                fields.push(("type", Json::Str("compacted".into())));
                match report {
                    Some(r) => {
                        fields.push(("bytes_before", Json::Int(r.bytes_before as i64)));
                        fields.push(("bytes_after", Json::Int(r.bytes_after as i64)));
                        fields.push(("records_before", Json::Int(r.records_before as i64)));
                        fields.push(("records_after", Json::Int(r.records_after as i64)));
                    }
                    None => fields.push(("skipped", Json::Bool(true))),
                }
            }
            Response::Cancelled { target } => {
                fields.push(("type", Json::Str("cancelled".into())));
                fields.push(("target", Json::Int(*target as i64)));
            }
            Response::Busy { message } => {
                fields.push(("type", Json::Str("busy".into())));
                fields.push(("message", Json::Str(message.clone())));
            }
            Response::Error { message } => {
                fields.push(("type", Json::Str("error".into())));
                fields.push(("message", Json::Str(message.clone())));
            }
            Response::Bye => {
                fields.push(("type", Json::Str("bye".into())));
            }
        }
        obj(fields)
    }

    /// Parses a response payload.
    pub fn parse(payload: &str) -> Result<ResponseEnvelope, String> {
        let v = Json::parse(payload).map_err(|e| format!("unreadable response: {e}"))?;
        let id = v.u64_field("id").ok_or("response lacks an `id` field")?;
        let kind = v.str_field("type").ok_or("response lacks a `type` field")?;
        let response = match kind {
            "pong" => Response::Pong {
                uptime_secs: v
                    .f64_field("uptime_secs")
                    .ok_or("pong lacks `uptime_secs`")?,
            },
            "report" => Response::Report {
                bench: usize_field(&v, "bench")?,
                method: usize_field(&v, "method")?,
                adt: v.str_field("adt").ok_or("report lacks `adt`")?.to_string(),
                library: v
                    .str_field("library")
                    .ok_or("report lacks `library`")?
                    .to_string(),
                policy: v
                    .str_field("policy")
                    .ok_or("report lacks `policy`")?
                    .to_string(),
                expect_verified: v
                    .bool_field("expect_verified")
                    .ok_or("report lacks `expect_verified`")?,
                report: Box::new(MethodReport {
                    name: v
                        .str_field("name")
                        .ok_or("report lacks `name`")?
                        .to_string(),
                    verified: v.bool_field("verified").ok_or("report lacks `verified`")?,
                    failures: v
                        .get("failures")
                        .and_then(Json::as_arr)
                        .ok_or("report lacks `failures`")?
                        .iter()
                        .map(|f| {
                            f.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| "non-string failure entry".to_string())
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    stats: stats_from_json(v.get("stats").ok_or("report lacks `stats`")?)?,
                    branches: usize_field(&v, "branches")?,
                    apps: usize_field(&v, "apps")?,
                }),
            },
            "done" => Response::Done {
                wall: duration_field(&v, "wall")?,
                jobs: usize_field(&v, "jobs")?,
                cancelled: usize_field(&v, "cancelled")?,
                dedup_hits: usize_field(&v, "dedup_hits")?,
                queue_wait_p50: duration_field(&v, "queue_wait_p50")?,
                queue_wait_p95: duration_field(&v, "queue_wait_p95")?,
                cache: snapshot_from_json(v.get("cache").ok_or("done lacks `cache`")?)?,
            },
            "stats" => Response::Stats(Box::new(DaemonStatus {
                addr: v.str_field("addr").ok_or("stats lacks `addr`")?.to_string(),
                pid: v.u64_field("pid").unwrap_or(0) as u32,
                uptime_secs: v
                    .f64_field("uptime_secs")
                    .ok_or("stats lacks `uptime_secs`")?,
                workers: usize_field(&v, "workers")?,
                requests_served: v
                    .u64_field("requests_served")
                    .ok_or("stats lacks `requests_served`")?,
                jobs_completed: v
                    .u64_field("jobs_completed")
                    .ok_or("stats lacks `jobs_completed`")?,
                in_flight_jobs: v
                    .u64_field("in_flight_jobs")
                    .ok_or("stats lacks `in_flight_jobs`")?,
                dedup_hits: v
                    .u64_field("dedup_hits")
                    .ok_or("stats lacks `dedup_hits`")?,
                runs_cancelled: v
                    .u64_field("runs_cancelled")
                    .ok_or("stats lacks `runs_cancelled`")?,
                jobs_cancelled: v
                    .u64_field("jobs_cancelled")
                    .ok_or("stats lacks `jobs_cancelled`")?,
                busy_rejections: v
                    .u64_field("busy_rejections")
                    .ok_or("stats lacks `busy_rejections`")?,
                queue_wait_p50_ms: v
                    .f64_field("queue_wait_p50_ms")
                    .ok_or("stats lacks `queue_wait_p50_ms`")?,
                queue_wait_p95_ms: v
                    .f64_field("queue_wait_p95_ms")
                    .ok_or("stats lacks `queue_wait_p95_ms`")?,
                max_connections: usize_field(&v, "max_connections")?,
                active_connections: v
                    .u64_field("active_connections")
                    .ok_or("stats lacks `active_connections`")?,
                closed_connections: v
                    .u64_field("closed_connections")
                    .ok_or("stats lacks `closed_connections`")?,
                cache: snapshot_from_json(v.get("cache").ok_or("stats lacks `cache`")?)?,
                entries: usize_field(&v, "entries")?,
                degraded: v.bool_field("degraded").ok_or("stats lacks `degraded`")?,
                cache_path: v.str_field("cache_path").map(str::to_string),
                clients: v
                    .get("clients")
                    .and_then(Json::as_arr)
                    .ok_or("stats lacks `clients`")?
                    .iter()
                    .map(|c| {
                        Ok(ClientStats {
                            client: c.u64_field("client").ok_or("client entry lacks `client`")?,
                            connected_secs: c
                                .f64_field("connected_secs")
                                .ok_or("client entry lacks `connected_secs`")?,
                            requests: c
                                .u64_field("requests")
                                .ok_or("client entry lacks `requests`")?,
                            reports: c
                                .u64_field("reports")
                                .ok_or("client entry lacks `reports`")?,
                            hits: c.usize_field("hits").ok_or("client entry lacks `hits`")?,
                            misses: c
                                .usize_field("misses")
                                .ok_or("client entry lacks `misses`")?,
                            active: c
                                .bool_field("active")
                                .ok_or("client entry lacks `active`")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            })),
            "compacted" => Response::Compacted(if v.bool_field("skipped") == Some(true) {
                None
            } else {
                Some(CompactionReport {
                    bytes_before: v
                        .u64_field("bytes_before")
                        .ok_or("compacted lacks `bytes_before`")?,
                    bytes_after: v
                        .u64_field("bytes_after")
                        .ok_or("compacted lacks `bytes_after`")?,
                    records_before: usize_field(&v, "records_before")?,
                    records_after: usize_field(&v, "records_after")?,
                })
            }),
            "cancelled" => Response::Cancelled {
                target: v.u64_field("target").ok_or("cancelled lacks `target`")?,
            },
            "busy" => Response::Busy {
                message: v
                    .str_field("message")
                    .ok_or("busy lacks `message`")?
                    .to_string(),
            },
            "error" => Response::Error {
                message: v
                    .str_field("message")
                    .ok_or("error lacks `message`")?
                    .to_string(),
            },
            "bye" => Response::Bye,
            other => return Err(format!("unknown response type `{other}`")),
        };
        Ok(ResponseEnvelope { id, response })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for request in [
            Request::Ping,
            Request::Check {
                adt: "Stack".into(),
                library: "LinkedList".into(),
            },
            Request::CheckAll,
            Request::Warmup,
            Request::CacheStats,
            Request::CacheCompact,
            Request::Cancel { target: 4 },
            Request::Shutdown { now: false },
            Request::Shutdown { now: true },
        ] {
            let env = Envelope::new(7, request);
            let text = env.to_json().to_string();
            assert_eq!(Envelope::parse(&text).expect("parses"), env, "{text}");
        }
    }

    #[test]
    fn deadlines_ride_the_envelope() {
        let env = Envelope {
            id: 2,
            request: Request::CheckAll,
            deadline_ms: Some(1500),
        };
        let text = env.to_json().to_string();
        assert_eq!(Envelope::parse(&text).expect("parses"), env, "{text}");
        // Absent deadline stays absent, not zero.
        let bare = Envelope::new(3, Request::CheckAll);
        let back = Envelope::parse(&bare.to_json().to_string()).expect("parses");
        assert_eq!(back.deadline_ms, None);
    }

    fn sample_stats() -> CheckStats {
        CheckStats {
            sat_queries: 12,
            sat_time: Duration::from_secs_f64(0.125),
            fa_inclusions: 3,
            fa_time: Duration::from_nanos(41_678_921),
            total_time: Duration::from_secs_f64(1.0 / 3.0),
            assumed_preconditions: 0,
            cache_hits: 40,
            cache_misses: 2,
            minterms: 13,
            enum_queries: 9,
            pruned_subtrees: 4,
            theory_checks: 17,
            minterm_memo_hits: 5,
            inclusion_memo_hits: 1,
            dfas_built: 4,
            dfa_states: 23,
            dfa_transitions: 61,
            alphabet_pruned: 2,
            transition_memo_hits: 11,
            product_states: 19,
            shape_memo_hits: 3,
            shared_tier_locks: 8,
            subsumed_pairs: 6,
            subsumption_checks: 14,
            simulation_memo_hits: 2,
        }
    }

    #[test]
    fn reports_round_trip_bit_identically() {
        let env = ResponseEnvelope {
            id: 3,
            response: Response::Report {
                bench: 1,
                method: 4,
                adt: "Queue".into(),
                library: "Vector".into(),
                policy: "FIFO order".into(),
                expect_verified: true,
                report: Box::new(MethodReport {
                    name: "enqueue".into(),
                    verified: false,
                    failures: vec!["postcondition ⊈ invariant".into()],
                    stats: sample_stats(),
                    branches: 2,
                    apps: 7,
                }),
            },
        };
        let text = env.to_json().to_string();
        let back = ResponseEnvelope::parse(&text).expect("parses");
        assert_eq!(back, env, "durations and floats must survive the wire");
    }

    #[test]
    fn every_counter_key_is_required() {
        for name in CheckStats::NAMES {
            let mut v = stats_to_json(&sample_stats());
            let Json::Obj(fields) = &mut v else {
                unreachable!("stats serialise as an object")
            };
            fields.retain(|(k, _)| k != name);
            let err = stats_from_json(&v).expect_err("a missing counter must be refused");
            assert!(err.contains(name), "{err}");
        }
        for name in CacheStatsSnapshot::NAMES {
            let mut v = snapshot_to_json(&CacheStatsSnapshot::default());
            let Json::Obj(fields) = &mut v else {
                unreachable!("snapshots serialise as an object")
            };
            fields.retain(|(k, _)| k != name);
            let err = snapshot_from_json(&v).expect_err("a missing counter must be refused");
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn out_of_range_durations_are_refused_not_panicked_on() {
        let done = |wall: &str| {
            format!(
                "{{\"id\":1,\"type\":\"done\",\"wall\":{wall},\"jobs\":0,\"cancelled\":0,\
                 \"dedup_hits\":0,\"queue_wait_p50\":0.0,\"queue_wait_p95\":0.0,\"cache\":{}}}",
                snapshot_to_json(&CacheStatsSnapshot::default())
            )
        };
        let ok = ResponseEnvelope::parse(&done("2.5")).expect("a valid frame parses");
        assert!(matches!(ok.response, Response::Done { wall, .. } if wall.as_secs_f64() == 2.5));
        for wall in ["-1.0", "1e20", "1e400"] {
            let err = ResponseEnvelope::parse(&done(wall)).expect_err("must be refused");
            assert!(err.contains("not a valid duration"), "{wall}: {err}");
        }
    }

    #[test]
    fn done_stats_compacted_and_errors_round_trip() {
        let snapshot = CacheStatsSnapshot {
            hits: 100,
            misses: 7,
            disk_loaded: 50,
            stale: 1,
            minterm_hits: 20,
            minterm_misses: 3,
            transition_hits: 30,
            transition_misses: 5,
            subsumption_hits: 4,
            subsumption_misses: 2,
            lock_acquisitions: 60,
            disk_lock_acquisitions: 9,
        };
        let cases = vec![
            Response::Pong { uptime_secs: 12.5 },
            Response::Done {
                wall: Duration::from_secs_f64(2.75),
                cache: snapshot,
                jobs: 42,
                cancelled: 3,
                dedup_hits: 2,
                queue_wait_p50: Duration::from_millis(12),
                queue_wait_p95: Duration::from_millis(250),
            },
            Response::Stats(Box::new(DaemonStatus {
                addr: "unix:/tmp/marpled.sock".into(),
                pid: 999,
                uptime_secs: 3.25,
                workers: 2,
                requests_served: 5,
                jobs_completed: 84,
                in_flight_jobs: 6,
                dedup_hits: 11,
                runs_cancelled: 2,
                jobs_cancelled: 17,
                busy_rejections: 4,
                queue_wait_p50_ms: 1.5,
                queue_wait_p95_ms: 42.25,
                max_connections: 64,
                active_connections: 3,
                closed_connections: 1000,
                cache: snapshot,
                entries: 1234,
                degraded: false,
                cache_path: Some("/tmp/marple.cache".into()),
                clients: vec![ClientStats {
                    client: 1,
                    connected_secs: 1.5,
                    requests: 3,
                    reports: 40,
                    hits: 80,
                    misses: 4,
                    active: true,
                }],
            })),
            Response::Compacted(Some(CompactionReport {
                bytes_before: 4096,
                bytes_after: 1024,
                records_before: 100,
                records_after: 25,
            })),
            Response::Compacted(None),
            Response::Cancelled { target: 12 },
            Response::Busy {
                message: "the daemon is at its connection limit (64)".into(),
            },
            Response::Error {
                message: "unknown configuration `Foo/Bar`".into(),
            },
            Response::Bye,
        ];
        for response in cases {
            let env = ResponseEnvelope { id: 9, response };
            let text = env.to_json().to_string();
            assert_eq!(
                ResponseEnvelope::parse(&text).expect("parses"),
                env,
                "{text}"
            );
        }
    }

    #[test]
    fn handshake_round_trips_and_rejects_mismatches() {
        let hello = Hello::current();
        let text = hello.to_json().to_string();
        let back = Hello::parse(&text).expect("parses");
        assert_eq!(back, hello);
        assert!(back.check_compatible().is_ok());

        let old = Hello {
            cache_version: CACHE_VERSION - 1,
            ..Hello::current()
        };
        let err = old.check_compatible().expect_err("must reject");
        assert!(err.contains("cache format mismatch"), "{err}");

        let alien = Hello {
            server: "something-else v9".into(),
            ..Hello::current()
        };
        let err = alien.check_compatible().expect_err("must reject");
        assert!(err.contains("something-else v9"), "{err}");
    }
}
