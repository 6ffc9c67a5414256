//! The thin remote client: connect, verify the handshake, send requests, demultiplex
//! responses by request id, and reassemble streamed reports into the same
//! [`RunSummary`] a local engine run produces — which is what lets `marple … --remote`
//! render its report byte-identically to local mode.

use crate::frame::{read_frame, write_frame, MAX_RESPONSE_FRAME};
use crate::net::{Addr, Stream};
use crate::proto::{Envelope, Hello, Request, Response, ResponseEnvelope};
use hat_core::MethodReport;
use hat_engine::{BenchmarkRun, RunSummary};
use std::collections::VecDeque;
use std::io::{BufWriter, Write};

/// A connected client. Requests are issued one at a time by the convenience methods;
/// the lower-level [`RemoteClient::send`]/[`RemoteClient::recv`] pair supports
/// pipelining several requests on one connection (responses carry the request id).
#[derive(Debug)]
pub struct RemoteClient {
    reader: Stream,
    writer: BufWriter<Stream>,
    hello: Hello,
    next_id: u64,
    /// Responses read while waiting for a different request's answer.
    pending: VecDeque<ResponseEnvelope>,
}

/// The outcome of a remote verification request: the reassembled summary plus the job
/// count the server reported.
#[derive(Debug, Clone)]
pub struct RemoteRun {
    /// Reports in (benchmark, method) input order, wall clock and cache deltas — the
    /// same shape a local [`hat_engine::Engine::check_benchmarks`] returns.
    pub summary: RunSummary,
    /// Number of (benchmark, method) jobs the server ran.
    pub jobs: usize,
}

impl RemoteClient {
    /// Connects to `addr` and verifies the server's handshake. The error string is
    /// user-facing and names the address.
    pub fn connect(addr: &Addr) -> Result<RemoteClient, String> {
        let stream = Stream::connect(addr)
            .map_err(|e| format!("cannot reach a marpled daemon at {addr}: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot split the connection to {addr}: {e}"))?;
        let mut client = RemoteClient {
            reader: stream,
            writer: BufWriter::new(writer),
            hello: Hello::current(), // replaced below
            next_id: 1,
            pending: VecDeque::new(),
        };
        let frame = read_frame(&mut client.reader, MAX_RESPONSE_FRAME)
            .map_err(|e| format!("handshake with {addr} failed: {e}"))?
            .ok_or_else(|| format!("the service at {addr} closed without a handshake"))?;
        let hello = Hello::parse(&frame).map_err(|e| format!("handshake with {addr}: {e}"))?;
        hello
            .check_compatible()
            .map_err(|e| format!("cannot use the daemon at {addr}: {e}"))?;
        client.hello = hello;
        Ok(client)
    }

    /// The server's handshake announcement.
    pub fn hello(&self) -> &Hello {
        &self.hello
    }

    /// Sends one request; returns its id for demultiplexing.
    pub fn send(&mut self, request: Request) -> Result<u64, String> {
        self.send_with_deadline(request, None)
    }

    /// Sends one request carrying an optional deadline (milliseconds from now, as the
    /// server receives it); returns its id for demultiplexing.
    pub fn send_with_deadline(
        &mut self,
        request: Request,
        deadline_ms: Option<u64>,
    ) -> Result<u64, String> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = Envelope {
            id,
            request,
            deadline_ms,
        }
        .to_json()
        .to_string();
        write_frame(&mut self.writer, &payload)
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("sending the request failed: {e}"))?;
        Ok(id)
    }

    /// Reads the next response frame, whatever request it answers: a buffered one
    /// first, the wire otherwise.
    pub fn recv(&mut self) -> Result<ResponseEnvelope, String> {
        if let Some(envelope) = self.pending.pop_front() {
            return Ok(envelope);
        }
        self.recv_wire()
    }

    /// Reads the next response frame from the wire, ignoring the pending buffer.
    fn recv_wire(&mut self) -> Result<ResponseEnvelope, String> {
        let frame = read_frame(&mut self.reader, MAX_RESPONSE_FRAME)
            .map_err(|e| format!("reading from the daemon failed: {e}"))?
            .ok_or("the daemon closed the connection")?;
        ResponseEnvelope::parse(&frame)
    }

    /// Reads the next response to request `id`, buffering others (pipelining).
    pub fn recv_for(&mut self, id: u64) -> Result<Response, String> {
        if let Some(i) = self.pending.iter().position(|e| e.id == id) {
            return Ok(self.pending.remove(i).expect("index in range").response);
        }
        // Everything buffered belongs to other requests, so the answer can only come
        // off the wire — reading via `recv` here would just recycle the buffer forever.
        loop {
            let envelope = self.recv_wire()?;
            if envelope.id == id {
                return Ok(envelope.response);
            }
            if envelope.id == 0 {
                // Connection-level frames (id 0) answer no request: the admission cap's
                // `busy` or a fatal protocol error. Either way this connection is done.
                return match envelope.response {
                    Response::Busy { message } => Err(format!("the daemon is busy: {message}")),
                    Response::Error { message } => Err(message),
                    other => Err(unexpected("busy/error", &other)),
                };
            }
            self.pending.push_back(envelope);
        }
    }

    /// Pings the daemon; returns its uptime in seconds.
    pub fn ping(&mut self) -> Result<f64, String> {
        let id = self.send(Request::Ping)?;
        match self.recv_for(id)? {
            Response::Pong { uptime_secs } => Ok(uptime_secs),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Runs a verification request (`check`, `check-all` or `warmup`), invoking
    /// `progress` for every streamed report and reassembling the deterministic
    /// summary once the `done` frame arrives.
    pub fn verify(
        &mut self,
        request: Request,
        progress: impl FnMut(&str, &str, &MethodReport),
    ) -> Result<RemoteRun, String> {
        self.verify_with_deadline(request, None, progress)
    }

    /// Like [`RemoteClient::verify`], with an optional server-side deadline: once
    /// `deadline_ms` elapses the server drops the run's queued jobs and answers a
    /// partial `done` whose summary has `cancelled > 0`.
    pub fn verify_with_deadline(
        &mut self,
        request: Request,
        deadline_ms: Option<u64>,
        mut progress: impl FnMut(&str, &str, &MethodReport),
    ) -> Result<RemoteRun, String> {
        let id = self.send_with_deadline(request, deadline_ms)?;
        // Reports stream in completion order, tagged with (bench, method) slots; the
        // summary is assembled in input order exactly like `RunHandle::finish`.
        let mut slots: Vec<(usize, usize, String, String, MethodReport)> = Vec::new();
        loop {
            match self.recv_for(id)? {
                Response::Report {
                    bench,
                    method,
                    adt,
                    library,
                    report,
                    ..
                } => {
                    progress(&adt, &report.name, &report);
                    slots.push((bench, method, adt, library, *report));
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
                    slots.sort_by_key(|&(b, m, ..)| (b, m));
                    let mut benchmarks: Vec<BenchmarkRun> = Vec::new();
                    let mut last_bench = usize::MAX;
                    for (bench, _, adt, library, report) in slots {
                        if bench != last_bench {
                            last_bench = bench;
                            benchmarks.push(BenchmarkRun {
                                adt,
                                library,
                                reports: Vec::new(),
                            });
                        }
                        let run = benchmarks.last_mut().expect("pushed above");
                        run.reports.push(report);
                    }
                    return Ok(RemoteRun {
                        summary: RunSummary {
                            benchmarks,
                            wall,
                            cache,
                            cancelled,
                            dedup_hits,
                            queue_wait_p50,
                            queue_wait_p95,
                        },
                        jobs,
                    });
                }
                Response::Error { message } => return Err(message),
                Response::Busy { message } => return Err(format!("the daemon is busy: {message}")),
                other => return Err(unexpected("report/done", &other)),
            }
        }
    }

    /// Fetches the daemon status snapshot.
    pub fn cache_stats(&mut self) -> Result<crate::proto::DaemonStatus, String> {
        let id = self.send(Request::CacheStats)?;
        match self.recv_for(id)? {
            Response::Stats(status) => Ok(*status),
            Response::Error { message } => Err(message),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Cancels the in-flight verification request `target` (an id returned by
    /// [`RemoteClient::send`]): its queued jobs are dropped, running ones finish, and
    /// its stream still terminates with a partial `done`.
    pub fn cancel(&mut self, target: u64) -> Result<(), String> {
        let id = self.send(Request::Cancel { target })?;
        match self.recv_for(id)? {
            Response::Cancelled { .. } => Ok(()),
            Response::Error { message } => Err(message),
            other => Err(unexpected("cancelled", &other)),
        }
    }

    /// Requests a graceful shutdown (`now` additionally drops every queued job so only
    /// running work drains) and waits for the acknowledgement.
    pub fn shutdown(&mut self, now: bool) -> Result<(), String> {
        let id = self.send(Request::Shutdown { now })?;
        match self.recv_for(id)? {
            Response::Bye => Ok(()),
            Response::Error { message } => Err(message),
            other => Err(unexpected("bye", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> String {
    let kind = match got {
        Response::Pong { .. } => "pong",
        Response::Report { .. } => "report",
        Response::Done { .. } => "done",
        Response::Stats(_) => "stats",
        Response::Cancelled { .. } => "cancelled",
        Response::Busy { .. } => "busy",
        Response::Error { .. } => "error",
        Response::Bye => "bye",
    };
    format!("protocol confusion: expected a `{wanted}` response, got `{kind}`")
}
