//! `perfbench`: the in-process half of the repository benchmark. `run.py` drives it;
//! every subcommand prints one JSON object on its last stdout line.
//!
//! ```text
//! perfbench expect                      answer key of the 19 suite configurations
//! perfbench inspect STORE               per-kind record counts of an on-disk store
//! perfbench daemon-warmup --addr A      wait for marpled, then one checked check-all
//! perfbench daemon-load --addr A --seed N --seconds T --clients C --min-samples M
//! perfbench gen-stream --seed N --from K --count N
//! perfbench trace WORKLOAD --seed N --work DIR [--marple BIN]
//! ```

mod layers;
mod trace;

use hat_daemon::json::{obj, Json};
use hat_daemon::{Addr, RemoteClient, Request};
use hat_engine::{Engine, EngineConfig, MemoStore, RunSummary};
use hat_suite::{all_benchmarks, Benchmark};
use hat_testkit::XorShift;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Parsed `--flag value` options plus positional arguments.
struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut args = Args {
            positional: Vec::new(),
            flags: HashMap::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) => {
                    let value = it
                        .next()
                        .unwrap_or_else(|| fail(&format!("--{name} needs a value")));
                    args.flags.insert(name.to_string(), value.clone());
                }
                None => args.positional.push(a.clone()),
            }
        }
        args
    }

    fn str(&self, name: &str) -> &str {
        self.flags
            .get(name)
            .unwrap_or_else(|| fail(&format!("missing --{name}")))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> T {
        self.str(name)
            .parse()
            .unwrap_or_else(|_| fail(&format!("invalid --{name}")))
    }
}

fn fail(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    std::process::exit(2);
}

fn emit(value: Json) {
    println!("{value}");
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn floats(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Float(v)).collect())
}

/// Fisher–Yates shuffle driven by the workspace's seeded xorshift stream.
pub fn shuffle<T>(items: &mut [T], rng: &mut XorShift) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Median of a sample (upper middle for even sizes); 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The expected verdict of every method of every suite configuration, keyed by
/// `(adt, library)`: the suite's `Method::expect_verified`, which is written down
/// with the configuration and not computed by any checker.
pub fn suite_answers(benches: &[Benchmark]) -> HashMap<(String, String), Vec<(String, bool)>> {
    benches
        .iter()
        .map(|b| {
            (
                (b.adt.clone(), b.library.clone()),
                b.methods
                    .iter()
                    .map(|m| (m.sig.name.clone(), m.expect_verified))
                    .collect(),
            )
        })
        .collect()
}

/// Wrong verdicts in a summary, counting a missing report as wrong.
fn wrong_verdicts(
    summary: &RunSummary,
    answers: &HashMap<(String, String), Vec<(String, bool)>>,
    configs: &[(String, String)],
) -> usize {
    let mut wrong = 0;
    for config in configs {
        let expected = &answers[config];
        let run = summary
            .benchmarks
            .iter()
            .find(|r| r.adt == config.0 && r.library == config.1);
        for (name, expect) in expected {
            let verdict = run.and_then(|r| r.reports.iter().find(|m| &m.name == name));
            wrong += usize::from(verdict.map(|m| m.verified) != Some(*expect));
        }
    }
    wrong
}

fn expect() {
    let configs = all_benchmarks()
        .iter()
        .map(|b| {
            obj(vec![
                ("adt", Json::Str(b.adt.clone())),
                ("library", Json::Str(b.library.clone())),
                (
                    "methods",
                    Json::Arr(
                        b.methods
                            .iter()
                            .map(|m| {
                                obj(vec![
                                    ("name", Json::Str(m.sig.name.clone())),
                                    ("expect", Json::Bool(m.expect_verified)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    emit(obj(vec![
        ("knobs", Json::Str(format!("{:?}", EngineConfig::default()))),
        ("configs", Json::Arr(configs)),
    ]));
}

/// Per-kind record counts and segment health of an on-disk store.
pub fn inspect(path: &str) -> Json {
    let stats = MemoStore::inspect(path).unwrap_or_else(|e| fail(&format!("inspect {path}: {e}")));
    obj(vec![
        ("solver", Json::Int(stats.solver as i64)),
        ("inclusion", Json::Int(stats.inclusion as i64)),
        ("shape", Json::Int(stats.shape as i64)),
        ("minterms", Json::Int(stats.minterms as i64)),
        ("transitions", Json::Int(stats.transitions as i64)),
        ("subsumption", Json::Int(stats.subsumption as i64)),
        ("segments", Json::Int(stats.segments as i64)),
        ("torn_segments", Json::Int(stats.torn_segments as i64)),
        ("malformed", Json::Int(stats.malformed as i64)),
        ("bytes", Json::Int(stats.bytes as i64)),
    ])
}

/// Connects to a daemon that may still be starting, retrying for up to a minute.
fn connect(addr: &Addr) -> RemoteClient {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match RemoteClient::connect(addr) {
            Ok(client) => return client,
            Err(e) if Instant::now() > deadline => fail(&e),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn suite_configs(benches: &[Benchmark]) -> Vec<(String, String)> {
    benches
        .iter()
        .map(|b| (b.adt.clone(), b.library.clone()))
        .collect()
}

fn daemon_warmup(args: &Args) {
    let addr = Addr::parse(args.str("addr")).unwrap_or_else(|e| fail(&e));
    let benches = all_benchmarks();
    let answers = suite_answers(&benches);
    let mut client = connect(&addr);
    let (wrong, jobs) = match client.verify(Request::CheckAll, |_, _, _| {}) {
        Ok(run) if !run.summary.was_cancelled() => (
            wrong_verdicts(&run.summary, &answers, &suite_configs(&benches)),
            run.jobs,
        ),
        Ok(_) => (1, 0),
        Err(e) => fail(&format!("warm-up check-all failed: {e}")),
    };
    let entries = client.cache_stats().map(|s| s.entries).unwrap_or(0);
    emit(obj(vec![
        ("wrong", Json::Int(wrong as i64)),
        ("jobs", Json::Int(jobs as i64)),
        ("entries", Json::Int(entries as i64)),
    ]));
}

#[derive(Default)]
struct LoadSamples {
    /// When each answered request was sent, in seconds since the load started.
    sent_s: Vec<f64>,
    latency_ms: Vec<f64>,
    server_ms: Vec<f64>,
    queue_wait_p95_ms: Vec<f64>,
    wrong: usize,
    errors: usize,
    busy: usize,
    cancelled: usize,
}

/// A closed loop of `--clients` connections, each sending its next `check` as soon
/// as the previous one is done, cycling through the suite in a seeded order.
fn daemon_load(args: &Args) {
    let addr = Addr::parse(args.str("addr")).unwrap_or_else(|e| fail(&e));
    let seed: u64 = args.num("seed");
    let seconds: f64 = args.num("seconds");
    let clients: usize = args.num("clients");
    let min_samples: usize = args.num("min-samples");
    let benches = all_benchmarks();
    let answers = suite_answers(&benches);
    let configs = suite_configs(&benches);
    let entries = |client: &mut RemoteClient| {
        client
            .cache_stats()
            .map(|s| (s.entries, s.cache.stale))
            .unwrap_or_else(|e| fail(&e))
    };
    let (entries_before, _) = entries(&mut connect(&addr));
    let done = AtomicUsize::new(0);
    let samples = Mutex::new(LoadSamples::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (addr, configs, answers, done, samples) =
                (&addr, &configs, &answers, &done, &samples);
            scope.spawn(move || {
                let mut rng = XorShift::seeded(seed.wrapping_mul(1_000_003).wrapping_add(c as u64));
                let mut client = connect(addr);
                let mut order: Vec<usize> = Vec::new();
                let mut local = LoadSamples::default();
                while start.elapsed().as_secs_f64() < seconds
                    || done.load(Ordering::Relaxed) < min_samples
                {
                    if order.is_empty() {
                        order = (0..configs.len()).collect();
                        shuffle(&mut order, &mut rng);
                    }
                    let config = &configs[order.pop().expect("refilled above")];
                    let request = Request::Check {
                        adt: config.0.clone(),
                        library: config.1.clone(),
                    };
                    let sent = Instant::now();
                    let result = client.verify(request, |_, _, _| {});
                    let latency = sent.elapsed();
                    done.fetch_add(1, Ordering::Relaxed);
                    match result {
                        Ok(run) if run.summary.was_cancelled() => local.cancelled += 1,
                        Ok(run) => {
                            local.wrong += usize::from(
                                wrong_verdicts(&run.summary, answers, std::slice::from_ref(config))
                                    > 0,
                            );
                            local.sent_s.push((sent - start).as_secs_f64());
                            local.latency_ms.push(ms(latency));
                            local.server_ms.push(ms(run.summary.wall));
                            local.queue_wait_p95_ms.push(ms(run.summary.queue_wait_p95));
                        }
                        Err(e) => {
                            if e.contains("busy") {
                                local.busy += 1;
                            } else {
                                local.errors += 1;
                            }
                            client = connect(addr);
                        }
                    }
                }
                let mut all = samples.lock().expect("no load thread panics holding it");
                all.sent_s.extend(local.sent_s);
                all.latency_ms.extend(local.latency_ms);
                all.server_ms.extend(local.server_ms);
                all.queue_wait_p95_ms.extend(local.queue_wait_p95_ms);
                all.wrong += local.wrong;
                all.errors += local.errors;
                all.busy += local.busy;
                all.cancelled += local.cancelled;
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let (entries_after, stale) = entries(&mut connect(&addr));
    let s = samples.into_inner().expect("load threads joined");
    emit(obj(vec![
        ("attempted", Json::Int(done.load(Ordering::Relaxed) as i64)),
        ("wrong", Json::Int(s.wrong as i64)),
        ("errors", Json::Int(s.errors as i64)),
        ("busy", Json::Int(s.busy as i64)),
        ("cancelled", Json::Int(s.cancelled as i64)),
        ("elapsed_s", Json::Float(elapsed)),
        ("entries_before", Json::Int(entries_before as i64)),
        ("entries_after", Json::Int(entries_after as i64)),
        ("stale", Json::Int(stale as i64)),
        ("sent_s", floats(&s.sent_s)),
        ("latency_ms", floats(&s.latency_ms)),
        ("server_ms", floats(&s.server_ms)),
        ("queue_wait_p95_ms", floats(&s.queue_wait_p95_ms)),
    ]));
}

/// One never-seen generated configuration: `s<seed>-i<index>`, with the verdicts it
/// was built to have.
pub fn gen_job(seed: u64, index: u64) -> (Benchmark, Vec<bool>) {
    let spec = hat_gen::spec(seed, index);
    let expect = spec
        .live_methods()
        .into_iter()
        .map(|i| spec.methods[i].expect_verified())
        .collect();
    (spec.build(), expect)
}

/// Wrong or missing verdicts of a one-configuration summary.
pub fn wrong_gen_verdicts(summary: &RunSummary, bench: &Benchmark, expect: &[bool]) -> usize {
    let reports = summary
        .benchmarks
        .first()
        .map_or(&[][..], |r| &r.reports[..]);
    bench
        .methods
        .iter()
        .zip(expect)
        .filter(|(m, &e)| {
            reports
                .iter()
                .find(|r| r.name == m.sig.name)
                .map(|r| r.verified)
                != Some(e)
        })
        .count()
}

/// One epoch of the gen stream: a fresh process whose in-memory engine is created,
/// announced with a `ready` line, then sent configurations `s<seed>-i<from>` …
/// `s<seed>-i<from + count - 1>` one at a time, each submitted only after the
/// previous one finished. run.py strings epochs together for the run's duration; the
/// memo store only grows (several MiB per configuration), so bounded epochs keep
/// memory and the per-configuration cost independent of how many fit in a run.
fn gen_stream(args: &Args) {
    let seed: u64 = args.num("seed");
    let from: u64 = args.num("from");
    let count: u64 = args.num("count");
    let engine = Engine::new(EngineConfig {
        jobs: 2,
        ..EngineConfig::default()
    })
    .unwrap_or_else(|e| fail(&format!("engine: {e}")));
    println!("ready");
    let _ = std::io::stdout().flush();
    let start = Instant::now();
    let mut latency_ms = Vec::new();
    let (mut failed, mut methods) = (0usize, 0usize);
    for index in from..from + count {
        let sent = Instant::now();
        let (bench, expect) = gen_job(seed, index);
        let summary = engine.check_benchmarks(std::slice::from_ref(&bench));
        latency_ms.push(ms(sent.elapsed()));
        methods += bench.methods.len();
        failed += usize::from(
            summary.was_cancelled() || wrong_gen_verdicts(&summary, &bench, &expect) > 0,
        );
    }
    emit(obj(vec![
        ("attempted", Json::Int(latency_ms.len() as i64)),
        ("failed", Json::Int(failed as i64)),
        ("methods", Json::Int(methods as i64)),
        ("elapsed_s", Json::Float(start.elapsed().as_secs_f64())),
        ("latency_ms", floats(&latency_ms)),
    ]));
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        fail("usage: perfbench expect|inspect|daemon-warmup|daemon-load|gen-stream|trace …");
    };
    let args = Args::parse(rest);
    match command.as_str() {
        "expect" => expect(),
        "inspect" => emit(inspect(
            args.positional
                .first()
                .unwrap_or_else(|| fail("usage: perfbench inspect STORE")),
        )),
        "daemon-warmup" => daemon_warmup(&args),
        "daemon-load" => daemon_load(&args),
        "gen-stream" => gen_stream(&args),
        "trace" => {
            let workload = args
                .positional
                .first()
                .unwrap_or_else(|| fail("usage: perfbench trace WORKLOAD …"));
            emit(layers::trace(workload, &args));
        }
        other => fail(&format!("unknown command `{other}`")),
    }
}
