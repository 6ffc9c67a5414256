//! # hat-daemon
//!
//! `marpled` — the HAT verifier as a long-lived service — and the thin client behind
//! `marple … --remote`.
//!
//! A batch `marple check-all` pays the engine's startup cost every time: reading the
//! store file, spawning the worker pool, and re-filling the per-worker local tiers,
//! which die with the process. `marpled` pays those costs **once**: it owns a
//! persistent [`hat_engine::Engine`] — worker pool, tiered memo store, store-file
//! writer lock — and serves verification requests over a Unix socket (TCP loopback
//! fallback), streaming per-job verdicts and counters as workers finish them. Clients
//! get warm-cache latency without reading the store file, and many clients share one
//! warm store concurrently.
//!
//! The layers, bottom up:
//!
//! - [`json`]: a dependency-free JSON value type (parser + shortest-round-trip writer);
//! - [`frame`]: length-prefixed line-JSON framing with per-direction size caps;
//! - [`proto`]: the `marpled v1` handshake and typed request/response envelopes;
//! - [`net`]: service addresses (`unix:PATH` / `tcp:HOST:PORT`) over both transports;
//! - [`server`]: the daemon — accept loop, per-connection handler/writer threads,
//!   per-request runner threads, graceful drain-and-release shutdown;
//! - [`client`]: the remote client, reassembling streamed reports into the same
//!   [`hat_engine::RunSummary`] a local run produces.
//!
//! `docs/DAEMON.md` documents the wire protocol and operational model.

pub mod client;
pub mod frame;
pub mod json;
pub mod net;
pub mod proto;
pub mod server;

pub use client::{RemoteClient, RemoteRun};
pub use net::{Addr, Listener, Stream};
pub use proto::{
    ClientStats, DaemonStatus, Envelope, Hello, Request, Response, CACHE_VERSION, PROTOCOL_VERSION,
    SERVER_NAME,
};
pub use server::{Daemon, DaemonConfig, DaemonHandle};
