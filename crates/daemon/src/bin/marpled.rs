//! `marpled` — the HAT verifier as a long-lived foreground service.
//!
//! ```text
//! marpled [options]
//!
//! options:
//!   --addr ADDR     listen address: `unix:PATH` or `tcp:HOST:PORT`
//!                   (default: unix:<tmpdir>/marpled.sock)
//!   --cache PATH    persist the solver-query cache at PATH; the file is read into
//!                   memory before the first connection is accepted, rewritten after
//!                   each request that added records, and the daemon holds the
//!                   single-writer lock for its whole lifetime
//!   --jobs N        verification worker threads (default 1)
//!   --max-connections N  open-connection cap; over-cap clients get a structured
//!                   `busy` error instead of service (0 = unlimited, default 64)
//!   --max-client-jobs N  per-connection in-flight job budget; requests over it
//!                   answer `busy` without queueing (0 = unlimited, default 1024)
//!   --quiet         suppress the per-event stderr log
//! ```
//!
//! The daemon runs until a client sends `shutdown` (`marple daemon stop`); it then
//! drains in-flight jobs, writes the store file if it has fresh records, releases the
//! cache lock and removes its socket. Talk to it with `marple check/check-all --remote <ADDR>` or
//! `marple daemon status`.

use hat_daemon::{Addr, Daemon, DaemonConfig};
use std::path::PathBuf;

const USAGE: &str = "usage: marpled [--addr unix:PATH|tcp:HOST:PORT] [--cache PATH] [--jobs N] [--max-connections N] [--max-client-jobs N] [--quiet]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = DaemonConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                let value = it.next().unwrap_or_else(|| fail("--addr needs a value"));
                config.addr = Addr::parse(value).unwrap_or_else(|e| fail(&e));
            }
            "--cache" => {
                let value = it.next().unwrap_or_else(|| fail("--cache needs a path"));
                config.engine.cache_path = Some(PathBuf::from(value));
            }
            "--jobs" | "-j" => {
                let value = it.next().unwrap_or_else(|| fail("--jobs needs a value"));
                config.engine.jobs = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail(&format!("invalid --jobs value `{value}`")));
            }
            "--max-connections" => {
                let value = it
                    .next()
                    .unwrap_or_else(|| fail("--max-connections needs a value"));
                config.max_connections = value.parse::<usize>().unwrap_or_else(|_| {
                    fail(&format!("invalid --max-connections value `{value}`"))
                });
            }
            "--max-client-jobs" => {
                let value = it
                    .next()
                    .unwrap_or_else(|| fail("--max-client-jobs needs a value"));
                config.max_client_jobs = value.parse::<usize>().unwrap_or_else(|_| {
                    fail(&format!("invalid --max-client-jobs value `{value}`"))
                });
            }
            "--quiet" => config.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown option `{other}`")),
        }
    }
    match Daemon::spawn(config) {
        Ok(handle) => handle.join(),
        Err(e) => {
            eprintln!("marpled: {e}");
            std::process::exit(2);
        }
    }
}

fn fail(message: &str) -> ! {
    eprintln!("marpled: {message}\n{USAGE}");
    std::process::exit(2);
}
