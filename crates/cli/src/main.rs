//! `marple` — the command-line driver of the HAT representation-invariant verifier.
//!
//! ```text
//! marple list                             # list the benchmark configurations
//! marple check <adt> <lib> [options]      # verify one configuration and print a report
//!                                         # (<adt> `gen` + <lib> `s<seed>-i<index>…`
//!                                         # regenerates a fuzz configuration by name)
//! marple check-all [options]              # verify every configuration
//! marple fuzz [--seed S] [--count N]      # generate N verdict-known configurations
//!        [--exhaustive] [options]         # and verify every verdict end-to-end:
//!                                         # plain checker, an engine knob combination
//!                                         # (rotating through all 96; --exhaustive
//!                                         # runs all 96 per configuration), warm
//!                                         # memo-tier resubmission, LSM store when
//!                                         # --cache is given, and the daemon wire
//!                                         # when --remote is given. On the first
//!                                         # disagreement the configuration is shrunk
//!                                         # to a minimal named reproducer.
//! marple cache stats <path>               # per-record-kind counts + live/dead ratio
//! marple cache compact <path>             # rewrite the log without dead records
//! marple daemon start [options]           # run a marpled daemon in the foreground
//! marple daemon status [--remote ADDR]    # uptime, counters and per-client stats
//! marple daemon stop [--now] [--remote ADDR]  # graceful shutdown (drain, compact,
//!                                         # unlock); --now drops queued jobs first
//!
//! options:
//!   --jobs N        verify on N worker threads (default 1; verdicts are identical)
//!   --cache PATH    persist the solver-query cache at PATH so repeated runs start warm
//!   --remote [ADDR] send the run to a marpled daemon instead of verifying locally
//!                   (default address: unix:<tmpdir>/marpled.sock); the report is
//!                   rendered exactly as a local run's
//!   --deadline-ms N give a remote run N milliseconds: when they elapse the daemon
//!                   drops its queued jobs and the partial report is marked cancelled
//!   --max-connections N  (daemon start) open-connection cap; over-cap clients get a
//!                   `busy` error instead of service (0 = unlimited, default 64)
//!   --max-client-jobs N  (daemon start) per-connection in-flight job budget; requests
//!                   over it answer `busy` (0 = unlimited, default 1024)
//!   --enum MODE     minterm enumeration: `incremental` (default) or `naive`
//!                   (verdicts are identical; naive is the paper-faithful baseline)
//!   --prune MODE    per-group alphabet pruning before DFA construction: `on` (default)
//!                   or `off` (verdict- and state-count-identical; off is the
//!                   measurement baseline)
//!   --inclusion M   how language inclusion is decided: `onthefly` (default — walk the
//!                   product A × complement(B) lazily, exit at the first counterexample)
//!                   or `materialise` (build both complete DFAs first; verdict-identical,
//!                   kept as the measurement baseline)
//!   --subsume M     antichain subsumption pruning of the on-the-fly product frontier:
//!                   `simulation` (default — syntactic rules plus a simulation preorder
//!                   over already-derived transition rows, memoised for the run as `U`
//!                   records), `syntactic` (structural rules only, zero extra memo
//!                   traffic) or `off` (the measurement baseline). All three are
//!                   verdict-identical; ignored by `--inclusion materialise`
//!   --local-tier M  per-worker lock-free read-through tiers in front of the shared
//!                   memo store: `on` (default) or `off` (verdict-identical; off is the
//!                   lock-traffic measurement baseline)
//! ```

use hat_daemon::{Addr, Daemon, DaemonConfig, RemoteClient, Request};
use hat_engine::{BenchmarkRun, Engine, EngineConfig, MemoStore, RecordKind, RunSummary};
use hat_sfa::{EnumerationMode, InclusionMode, SubsumptionMode};
use hat_suite::{all_benchmarks, find, Benchmark};
use std::path::PathBuf;

struct Options {
    jobs: usize,
    cache_path: Option<PathBuf>,
    enumeration: EnumerationMode,
    prune: bool,
    inclusion: InclusionMode,
    subsume: SubsumptionMode,
    local_tiers: bool,
    remote: Option<Addr>,
    deadline_ms: Option<u64>,
    max_connections: usize,
    max_client_jobs: usize,
    now: bool,
    seed: u64,
    count: u64,
    exhaustive: bool,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let defaults = DaemonConfig::default();
    let mut opts = Options {
        jobs: 1,
        cache_path: None,
        enumeration: EnumerationMode::default(),
        prune: true,
        inclusion: InclusionMode::default(),
        subsume: SubsumptionMode::default(),
        local_tiers: true,
        remote: None,
        deadline_ms: None,
        max_connections: defaults.max_connections,
        max_client_jobs: defaults.max_client_jobs,
        now: false,
        seed: 1,
        count: 100,
        exhaustive: false,
        positional: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--remote" => {
                // The address is optional: `--remote` alone means the default socket.
                // A following token is taken as the address only if it parses as one
                // (contains `/` or `:`), so positionals like ADT names stay untouched.
                opts.remote = match it.peek() {
                    Some(next) if Addr::parse(next).is_ok() => {
                        Some(Addr::parse(it.next().expect("peeked")).expect("just parsed"))
                    }
                    _ => Some(Addr::default_socket()),
                };
            }
            "--jobs" | "-j" => {
                let value = it.next().ok_or("--jobs needs a value")?;
                opts.jobs = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("invalid --jobs value `{value}`"))?;
            }
            "--cache" => {
                let value = it.next().ok_or("--cache needs a path")?;
                opts.cache_path = Some(PathBuf::from(value));
            }
            "--enum" => {
                let value = it.next().ok_or("--enum needs a mode")?;
                opts.enumeration = match value.as_str() {
                    "naive" => EnumerationMode::Naive,
                    "incremental" => EnumerationMode::Incremental,
                    other => {
                        return Err(format!("invalid --enum mode `{other}` (naive|incremental)"))
                    }
                };
            }
            "--prune" => {
                let value = it.next().ok_or("--prune needs a mode")?;
                opts.prune = match value.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("invalid --prune mode `{other}` (on|off)")),
                };
            }
            "--inclusion" => {
                let value = it.next().ok_or("--inclusion needs a mode")?;
                opts.inclusion = match value.as_str() {
                    "onthefly" => InclusionMode::OnTheFly,
                    "materialise" => InclusionMode::Materialise,
                    other => {
                        return Err(format!(
                            "invalid --inclusion mode `{other}` (onthefly|materialise)"
                        ))
                    }
                };
            }
            "--subsume" => {
                let value = it.next().ok_or("--subsume needs a mode")?;
                opts.subsume = SubsumptionMode::parse(value).ok_or_else(|| {
                    format!("invalid --subsume mode `{value}` (off|syntactic|simulation)")
                })?;
            }
            "--deadline-ms" => {
                let value = it.next().ok_or("--deadline-ms needs a value")?;
                opts.deadline_ms = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("invalid --deadline-ms value `{value}`"))?,
                );
            }
            "--max-connections" => {
                let value = it.next().ok_or("--max-connections needs a value")?;
                opts.max_connections = value
                    .parse::<usize>()
                    .map_err(|_| format!("invalid --max-connections value `{value}`"))?;
            }
            "--max-client-jobs" => {
                let value = it.next().ok_or("--max-client-jobs needs a value")?;
                opts.max_client_jobs = value
                    .parse::<usize>()
                    .map_err(|_| format!("invalid --max-client-jobs value `{value}`"))?;
            }
            "--now" => opts.now = true,
            "--seed" => {
                let value = it.next().ok_or("--seed needs a value")?;
                opts.seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("invalid --seed value `{value}`"))?;
            }
            "--count" => {
                let value = it.next().ok_or("--count needs a value")?;
                opts.count = value
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("invalid --count value `{value}`"))?;
            }
            "--exhaustive" => opts.exhaustive = true,
            "--local-tier" => {
                let value = it.next().ok_or("--local-tier needs a mode")?;
                opts.local_tiers = match value.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("invalid --local-tier mode `{other}` (on|off)")),
                };
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            other => opts.positional.push(other.to_string()),
        }
    }
    Ok(opts)
}

fn print_run(bench: &Benchmark, run: &BenchmarkRun) -> bool {
    println!("== {} / {} — {}", bench.adt, bench.library, bench.policy);
    let mut ok = true;
    for m in &bench.methods {
        // Match reports by method name, not position: a cancelled remote run delivers
        // a partial report set, and a positional zip would mislabel what remains.
        let Some(r) = run.reports.iter().find(|r| r.name == m.sig.name) else {
            ok = false;
            println!(
                "   {:<22} {:<32}",
                m.sig.name, "cancelled (dropped before running)"
            );
            continue;
        };
        let status = match (r.verified, m.expect_verified) {
            (true, true) => "verified",
            (false, false) => "rejected (as expected)",
            (true, false) => "VERIFIED BUT EXPECTED REJECTION",
            (false, true) => "FAILED",
        };
        ok &= r.verified == m.expect_verified;
        println!(
            "   {:<22} {:<32} #SAT={:<5} #enum={:<5} #FA⊆={:<3} t={:.2}s",
            m.sig.name,
            status,
            r.stats.sat_queries,
            r.stats.enum_queries,
            r.stats.fa_inclusions,
            r.stats.total_time.as_secs_f64()
        );
        for f in &r.failures {
            if m.expect_verified {
                println!("        failure: {f}");
            }
        }
    }
    ok
}

fn print_cache_line(summary: &RunSummary, lifetime: hat_engine::CacheStatsSnapshot) {
    let c = &summary.cache;
    let totals = summary.stats();
    println!(
        "cache: {} hits / {} misses ({:.1}% hit rate), {} minterm-set hits, {} transition-memo hits, {} shape-memo hits, {} simulation-memo hits, {} shared-tier locks, {} loaded from disk, {} stale; dfa: {} states, {} product states, {} pairs subsumed ({} probes), {} alphabet symbols pruned; wall {:.2}s",
        c.hits,
        c.misses,
        100.0 * c.hit_rate(),
        c.minterm_hits,
        c.transition_hits,
        totals.shape_memo_hits,
        totals.simulation_memo_hits,
        c.lock_acquisitions,
        lifetime.disk_loaded,
        lifetime.stale,
        totals.dfa_states,
        totals.product_states,
        totals.subsumed_pairs,
        totals.subsumption_checks,
        totals.alphabet_pruned,
        summary.wall.as_secs_f64()
    );
}

/// Runs a verification request on a marpled daemon and renders the report through the
/// same `print_run`/`print_cache_line` paths as a local run — the output format is
/// identical, only the work happens in the daemon's warm, shared engine.
fn run_remote(
    benches: &[Benchmark],
    request: Request,
    addr: &Addr,
    deadline_ms: Option<u64>,
) -> Result<bool, String> {
    let mut client = RemoteClient::connect(addr)?;
    let outcome = client.verify_with_deadline(request, deadline_ms, |_, _, _| {})?;
    // The lifetime counters a local run reads off its own store (disk-loaded/stale)
    // come from the daemon's status instead.
    let lifetime = client.cache_stats()?.cache;
    let mut ok = true;
    for bench in benches {
        // Match by configuration, not position: a cancelled run may be missing whole
        // benchmarks, not just trailing methods.
        match outcome
            .summary
            .benchmarks
            .iter()
            .find(|r| r.adt == bench.adt && r.library == bench.library)
        {
            Some(run) => ok &= print_run(bench, run),
            None => {
                ok = false;
                println!(
                    "== {} / {} — cancelled before any method ran",
                    bench.adt, bench.library
                );
            }
        }
    }
    if outcome.summary.was_cancelled() {
        ok = false;
        println!(
            "run cancelled: {} queued job{} dropped (deadline or explicit cancel)",
            outcome.summary.cancelled,
            if outcome.summary.cancelled == 1 {
                ""
            } else {
                "s"
            }
        );
    }
    print_cache_line(&outcome.summary, lifetime);
    Ok(ok)
}

fn run(benches: Vec<Benchmark>, opts: &Options, request: Request) -> bool {
    if let Some(addr) = &opts.remote {
        match run_remote(&benches, request, addr, opts.deadline_ms) {
            Ok(ok) => return ok,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
    let engine = match Engine::new(EngineConfig {
        jobs: opts.jobs,
        cache_path: opts.cache_path.clone(),
        enumeration: opts.enumeration,
        prune: opts.prune,
        inclusion: opts.inclusion,
        subsume: opts.subsume,
        local_tiers: opts.local_tiers,
    }) {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("cannot open cache: {e}");
            std::process::exit(2);
        }
    };
    let summary = engine.check_benchmarks(&benches);
    let mut ok = true;
    for (bench, run) in benches.iter().zip(&summary.benchmarks) {
        ok &= print_run(bench, run);
    }
    print_cache_line(&summary, engine.cache().stats());
    ok
}

/// `marple cache stats <path>` — read-only scan of manifest + segments: per-kind
/// counts, segment and torn-segment counts, live/dead ratio, header version. Never
/// takes the writer lock, so it prints honest numbers even while a daemon holds the
/// store.
fn cache_stats(path: &str) -> Result<(), String> {
    let stats = MemoStore::inspect(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    match (&stats.header, stats.version) {
        (None, _) => {
            println!("{path}: empty file (a fresh store will start at v6)");
            return Ok(());
        }
        (Some(h), None) => {
            println!("{path}: foreign header `{h}` — not a hat-engine cache this binary can read");
            return Ok(());
        }
        (Some(h), Some(v)) => println!("{path}: header `{h}` (v{v}), {} bytes", stats.bytes),
    }
    for (kind, count) in [
        (RecordKind::Solver, stats.solver),
        (RecordKind::Inclusion, stats.inclusion),
        (RecordKind::Shape, stats.shape),
        (RecordKind::Minterms, stats.minterms),
        (RecordKind::Transition, stats.transitions),
        (RecordKind::Subsumption, stats.subsumption),
    ] {
        println!("  {:<24} {:>8}", format!("{}:", kind.label()), count);
    }
    if stats.transitions + stats.subsumption > 0 {
        println!(
            "  (T and U records are never read; the next writer to open the store drops them)"
        );
    }
    if stats.version == Some(6) {
        let torn = if stats.torn_segments > 0 {
            format!(" ({} torn, degraded to cold)", stats.torn_segments)
        } else {
            String::new()
        };
        println!("  {:<24} {:>8}{torn}", "segment files:", stats.segments);
    }
    println!(
        "  live: {} / dead: {} ({} duplicate, {} malformed) — {:.1}% dead",
        stats.live(),
        stats.dead(),
        stats.duplicates,
        stats.malformed,
        100.0 * stats.dead_ratio()
    );
    if stats.dead() > 0 {
        println!("  run `marple cache compact {path}` to drop the dead records");
    }
    Ok(())
}

/// `marple cache compact <path>` — nudge the background compactor: drain the memtable
/// and merge every segment family with more than one segment, dropping dead records.
fn cache_compact(path: &str) -> Result<(), String> {
    // with_disk_log would happily create a fresh log at a mistyped path; compacting
    // only makes sense for a file that exists.
    if !std::path::Path::new(path).is_file() {
        return Err(format!("cannot compact `{path}`: no such file"));
    }
    let store = MemoStore::with_disk_log(path).map_err(|e| format!("cannot open `{path}`: {e}"))?;
    if store.degraded() {
        return Err(format!(
            "`{path}` is locked by another process; retry when its run finishes"
        ));
    }
    let report = store
        .compact()
        .map_err(|e| format!("compaction failed: {e}"))?;
    println!(
        "{path}: {} records / {} bytes -> {} records / {} bytes",
        report.records_before, report.bytes_before, report.records_after, report.bytes_after
    );
    Ok(())
}

/// `marple daemon start` — run a marpled daemon in the foreground (background it with
/// `&` or a service manager; `marpled` is the same server as a standalone binary).
fn daemon_start(opts: &Options) -> Result<(), String> {
    let config = DaemonConfig {
        addr: opts.remote.clone().unwrap_or_else(Addr::default_socket),
        engine: EngineConfig {
            jobs: opts.jobs,
            cache_path: opts.cache_path.clone(),
            enumeration: opts.enumeration,
            prune: opts.prune,
            inclusion: opts.inclusion,
            subsume: opts.subsume,
            local_tiers: opts.local_tiers,
        },
        max_connections: opts.max_connections,
        max_client_jobs: opts.max_client_jobs,
        quiet: false,
    };
    let handle = Daemon::spawn(config).map_err(|e| format!("cannot start the daemon: {e}"))?;
    handle.join();
    Ok(())
}

/// `marple daemon status` — one status line plus per-client statistics.
fn daemon_status(addr: &Addr) -> Result<(), String> {
    let mut client = RemoteClient::connect(addr)?;
    let status = client.cache_stats()?;
    println!(
        "{} — pid {}, up {:.0}s, {} worker{}",
        status.addr,
        status.pid,
        status.uptime_secs,
        status.workers,
        if status.workers == 1 { "" } else { "s" }
    );
    match (&status.cache_path, status.degraded) {
        (Some(path), false) => println!(
            "store: {} entries, log `{path}` (lock held)",
            status.entries
        ),
        (Some(path), true) => {
            println!("store: {} entries, log `{path}` (DEGRADED)", status.entries)
        }
        (None, _) => println!("store: {} entries, in memory only", status.entries),
    }
    println!(
        "served: {} requests, {} verification jobs; lifetime cache: {} hits / {} misses, {} loaded from disk, {} stale",
        status.requests_served,
        status.jobs_completed,
        status.cache.hits,
        status.cache.misses,
        status.cache.disk_loaded,
        status.cache.stale
    );
    println!(
        "scheduler: {} job{} in flight, {} dedup hit{}, {} run{} / {} job{} cancelled, queue wait p50 {:.1}ms / p95 {:.1}ms",
        status.in_flight_jobs,
        if status.in_flight_jobs == 1 { "" } else { "s" },
        status.dedup_hits,
        if status.dedup_hits == 1 { "" } else { "s" },
        status.runs_cancelled,
        if status.runs_cancelled == 1 { "" } else { "s" },
        status.jobs_cancelled,
        if status.jobs_cancelled == 1 { "" } else { "s" },
        status.queue_wait_p50_ms,
        status.queue_wait_p95_ms
    );
    println!(
        "connections: {} active / {} closed, cap {}, {} busy rejection{}",
        status.active_connections,
        status.closed_connections,
        if status.max_connections == 0 {
            "unlimited".to_string()
        } else {
            status.max_connections.to_string()
        },
        status.busy_rejections,
        if status.busy_rejections == 1 { "" } else { "s" }
    );
    for c in &status.clients {
        if c.client == 0 {
            // The aggregate row of closed clients beyond the retention window.
            println!(
                "  older closed clients (aggregated): {} requests, {} reports, {} hits / {} misses contributed",
                c.requests, c.reports, c.hits, c.misses
            );
            continue;
        }
        println!(
            "  client {} [{}] up {:.0}s: {} requests, {} reports, {} hits / {} misses contributed",
            c.client,
            if c.active { "active" } else { "closed" },
            c.connected_secs,
            c.requests,
            c.reports,
            c.hits,
            c.misses
        );
    }
    Ok(())
}

/// `marple daemon stop [--now]` — graceful shutdown, then wait for the daemon to
/// finish draining (its socket disappearing is the last step of its teardown). The
/// wait is not silent: a status probe *before* the shutdown reports how much work is
/// in flight (afterwards the daemon accepts no new connections, so it cannot be asked
/// any more), and a progress line is printed while the drain runs. `--now` asks the
/// daemon to drop its queued jobs so only running ones drain.
fn daemon_stop(addr: &Addr, now: bool) -> Result<(), String> {
    let mut client = RemoteClient::connect(addr)?;
    let status = client.cache_stats()?;
    // `active_connections` includes this very probe.
    let others = status.active_connections.saturating_sub(1);
    if status.in_flight_jobs > 0 || others > 0 {
        println!(
            "daemon at {addr}: {} job{} in flight, {} other client{} connected — stopping{}",
            status.in_flight_jobs,
            if status.in_flight_jobs == 1 { "" } else { "s" },
            others,
            if others == 1 { "" } else { "s" },
            if now {
                " now (queued jobs will be dropped)"
            } else {
                " after the drain (use --now to drop queued jobs)"
            }
        );
    }
    client.shutdown(now)?;
    let started = std::time::Instant::now();
    let deadline = started + std::time::Duration::from_secs(600);
    let mut next_progress = started + std::time::Duration::from_secs(5);
    loop {
        let stopped = match addr {
            Addr::Unix(path) => !path.exists(),
            // TCP leaves no file behind; gone means nothing accepts any more.
            Addr::Tcp(_) => RemoteClient::connect(addr).is_err(),
        };
        if stopped {
            println!("daemon at {addr} stopped");
            return Ok(());
        }
        let t = std::time::Instant::now();
        if t > deadline {
            return Err(format!(
                "the daemon at {addr} acknowledged the shutdown but is still draining; \
                 check it with `marple daemon status`"
            ));
        }
        if t >= next_progress {
            println!(
                "still draining after {:.0}s (running jobs must finish{})",
                started.elapsed().as_secs_f64(),
                if now { "" } else { "; --now skips queued ones" }
            );
            next_progress += std::time::Duration::from_secs(5);
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

/// `marple fuzz` — run generated verdict-known configurations through the stack and
/// assert every observed verdict against the constructed one. Returns `true` when the
/// run is clean.
fn fuzz(opts: &Options) -> bool {
    let mut cfg = hat_gen::fuzz::FuzzConfig::new(opts.seed, opts.count);
    cfg.cache_path = opts.cache_path.clone();
    cfg.exhaustive_knobs = opts.exhaustive;
    println!(
        "fuzzing {} configuration{} from seed {} ({} knob combination{} per configuration{}{})",
        opts.count,
        if opts.count == 1 { "" } else { "s" },
        opts.seed,
        if opts.exhaustive { 96 } else { 1 },
        if opts.exhaustive { "s" } else { "" },
        if opts.exhaustive {
            ""
        } else {
            ", rotating through all 96"
        },
        if opts.cache_path.is_some() {
            "; LSM store attached"
        } else {
            ""
        },
    );
    let outcome = hat_gen::fuzz::fuzz(&cfg, &mut |line| println!("{line}"));
    let local_ok = match &outcome.failure {
        None => {
            println!(
                "clean: {} configurations, {} verdicts asserted, 0 disagreements",
                outcome.checked, outcome.verdicts
            );
            true
        }
        Some(f) => {
            println!("DISAGREEMENT in gen/{}:", f.spec.library_name());
            for d in &f.disagreements {
                println!("  {d}");
            }
            println!(
                "shrunk reproducer: gen/{} ({} method{})",
                f.shrunk.library_name(),
                f.shrunk.live_methods().len(),
                if f.shrunk.live_methods().len() == 1 {
                    ""
                } else {
                    "s"
                }
            );
            println!(
                "  replay with: marple check gen {}",
                f.shrunk.library_name()
            );
            for d in &f.shrunk_disagreements {
                println!("  {d}");
            }
            false
        }
    };
    if !local_ok {
        return false;
    }
    match &opts.remote {
        None => true,
        Some(addr) => match fuzz_remote(opts, addr) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("{e}");
                false
            }
        },
    }
}

/// The daemon-wire stage of `marple fuzz --remote`: re-check each generated
/// configuration *by name* over the socket (the daemon regenerates it server-side)
/// and hold the wire reports to the same constructed verdicts.
fn fuzz_remote(opts: &Options, addr: &Addr) -> Result<bool, String> {
    let mut client = RemoteClient::connect(addr)?;
    let mut verdicts = 0u64;
    for index in 0..opts.count {
        let spec = hat_gen::spec(opts.seed, index);
        let bench = spec.build();
        let request = Request::Check {
            adt: bench.adt.clone(),
            library: bench.library.clone(),
        };
        let outcome = client.verify_with_deadline(request, opts.deadline_ms, |_, _, _| {})?;
        let Some(run) = outcome
            .summary
            .benchmarks
            .iter()
            .find(|r| r.adt == bench.adt && r.library == bench.library)
        else {
            println!(
                "DISAGREEMENT in gen/{}: the daemon returned no report for it",
                bench.library
            );
            return Ok(false);
        };
        let disagreements = hat_gen::fuzz::disagreements_in("remote", &bench, &run.reports);
        verdicts += bench.methods.len() as u64;
        if !disagreements.is_empty() {
            println!("DISAGREEMENT in gen/{} over the wire:", bench.library);
            for d in &disagreements {
                println!("  {d}");
            }
            let shrunk = hat_gen::shrink::shrink(&spec, |cand| {
                let b = cand.build();
                let req = Request::Check {
                    adt: b.adt.clone(),
                    library: b.library.clone(),
                };
                client
                    .verify_with_deadline(req, opts.deadline_ms, |_, _, _| {})
                    .ok()
                    .and_then(|o| {
                        o.summary
                            .benchmarks
                            .iter()
                            .find(|r| r.library == b.library)
                            .map(|r| {
                                !hat_gen::fuzz::disagreements_in("remote", &b, &r.reports)
                                    .is_empty()
                            })
                    })
                    .unwrap_or(false)
            });
            println!(
                "shrunk reproducer: gen/{} — replay with: marple check gen {} --remote",
                shrunk.library_name(),
                shrunk.library_name()
            );
            return Ok(false);
        }
    }
    println!(
        "remote stage clean: {} configurations, {} wire verdicts asserted",
        opts.count, verdicts
    );
    Ok(true)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") | None => {
            println!("Available benchmark configurations (ADT / library):");
            for b in all_benchmarks() {
                println!(
                    "  {:<15} {:<11} — {}",
                    b.adt, b.library, b.invariant_description
                );
            }
            println!("\nRun `marple check <adt> <library>` to verify one of them.");
        }
        Some("check") => {
            let opts = parse_options(&args[1..]).unwrap_or_else(|e| {
                eprintln!("{e}\nusage: marple check <adt> <library> [--remote [ADDR]] [--deadline-ms N] [--jobs N] [--cache PATH] [--enum naive|incremental] [--prune on|off] [--inclusion onthefly|materialise] [--subsume off|syntactic|simulation] [--local-tier on|off]");
                std::process::exit(2);
            });
            let (Some(adt), Some(lib)) = (opts.positional.first(), opts.positional.get(1)) else {
                eprintln!("usage: marple check <adt> <library> [--remote [ADDR]] [--deadline-ms N] [--jobs N] [--cache PATH] [--enum naive|incremental] [--prune on|off] [--inclusion onthefly|materialise] [--subsume off|syntactic|simulation] [--local-tier on|off]");
                std::process::exit(2);
            };
            // Suite configurations by name; `gen/s<seed>-i<index>…` regenerates a
            // fuzz configuration (including shrunk reproducers) from the name alone.
            match find(adt, lib).or_else(|| hat_gen::find(adt, lib)) {
                Some(b) => {
                    let request = Request::Check {
                        adt: b.adt.to_string(),
                        library: b.library.to_string(),
                    };
                    let ok = run(vec![b], &opts, request);
                    std::process::exit(if ok { 0 } else { 1 });
                }
                None => {
                    eprintln!("unknown configuration `{adt}/{lib}`; try `marple list`");
                    std::process::exit(2);
                }
            }
        }
        Some("check-all") => {
            let opts = parse_options(&args[1..]).unwrap_or_else(|e| {
                eprintln!("{e}\nusage: marple check-all [--remote [ADDR]] [--deadline-ms N] [--jobs N] [--cache PATH] [--enum naive|incremental] [--prune on|off] [--inclusion onthefly|materialise] [--subsume off|syntactic|simulation] [--local-tier on|off]");
                std::process::exit(2);
            });
            let ok = run(all_benchmarks(), &opts, Request::CheckAll);
            std::process::exit(if ok { 0 } else { 1 });
        }
        Some("fuzz") => {
            let opts = parse_options(&args[1..]).unwrap_or_else(|e| {
                eprintln!("{e}\nusage: marple fuzz [--seed S] [--count N] [--exhaustive] [--cache PATH] [--remote [ADDR]] [--deadline-ms N]");
                std::process::exit(2);
            });
            std::process::exit(if fuzz(&opts) { 0 } else { 1 });
        }
        Some("cache") => {
            let usage = "usage: marple cache stats <path> | marple cache compact <path>";
            let result = match (args.get(1).map(String::as_str), args.get(2)) {
                (Some("stats"), Some(path)) => cache_stats(path),
                (Some("compact"), Some(path)) => cache_compact(path),
                _ => Err(usage.to_string()),
            };
            if let Err(e) = result {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        Some("daemon") => {
            let usage = "usage: marple daemon start [--remote ADDR] [--cache PATH] [--jobs N] [--max-connections N] [--max-client-jobs N] | marple daemon status [--remote ADDR] | marple daemon stop [--now] [--remote ADDR]";
            let opts = parse_options(&args[2..]).unwrap_or_else(|e| {
                eprintln!("{e}\n{usage}");
                std::process::exit(2);
            });
            let addr = opts.remote.clone().unwrap_or_else(Addr::default_socket);
            let result = match args.get(1).map(String::as_str) {
                Some("start") => daemon_start(&opts),
                Some("status") => daemon_status(&addr),
                Some("stop") => daemon_stop(&addr, opts.now),
                _ => Err(usage.to_string()),
            };
            if let Err(e) = result {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        Some(other) => {
            eprintln!(
                "unknown command `{other}`; commands: list, check, check-all, fuzz, cache, daemon"
            );
            std::process::exit(2);
        }
    }
}
