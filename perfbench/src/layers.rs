//! The traced per-layer run of each workload (`perfbench trace WORKLOAD`).
//!
//! Every workload prints the same per-layer metric set; a layer its traffic does not
//! reach reads 0 (run.py fills the names this file does not produce). Each run makes
//! two traced `--jobs 1` passes over identical state, requires their work counters to
//! repeat exactly, and one untraced pass over the same work whose wall time gives
//! `trace.overhead_share` and whose counters must equal the traced ones.

use crate::trace::{
    memo_name, ms as ns_ms, work_counters, work_name, Job, Outcome, Profile, TraceLog, Worker,
    MEMO_KINDS,
};
use crate::{gen_job, inspect, median, ms, percentile, shuffle, wrong_gen_verdicts, Args};
use hat_daemon::json::{obj, Json};
use hat_engine::{Engine, EngineConfig, LsmConfig, MemoStore, RunSummary};
use hat_sfa::MemoKind;
use hat_suite::{all_benchmarks, Benchmark};
use hat_testkit::XorShift;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generated configurations per traced gen-stream pass: one epoch of the workload.
const GEN_TRACE_CONFIGS: u64 = 50;

#[derive(Default)]
struct Report {
    metrics: BTreeMap<String, f64>,
    attempted: usize,
    failed: usize,
    /// Violations that make the run incorrect (replica drift, malformed trace,
    /// store changed under a warm workload).
    problems: Vec<String>,
    /// Work counters that did not repeat across the two traced passes; they are
    /// printed and left out of the metrics.
    nondeterministic: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn outcome(&mut self, outcome: &Outcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
    }

    fn to_json(&self) -> Json {
        let (withheld, metrics): (Vec<_>, Vec<_>) = self
            .metrics
            .iter()
            .partition(|(name, _)| self.nondeterministic.iter().any(|n| counter_feeds(n, name)));
        let strings = |v: Vec<String>| Json::Arr(v.into_iter().map(Json::Str).collect());
        obj(vec![
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("problems", strings(self.problems.clone())),
            ("nondeterministic", strings(self.nondeterministic.clone())),
            ("notes", strings(self.notes.clone())),
            (
                "withheld",
                strings(withheld.into_iter().map(|(k, _)| k.clone()).collect()),
            ),
            (
                "metrics",
                Json::Obj(
                    metrics
                        .into_iter()
                        .map(|(k, &v)| (k.clone(), Json::Float(v)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Whether a work counter is, or is the basis of, a reported metric.
fn counter_feeds(counter: &str, metric: &str) -> bool {
    counter == metric
        || counter
            .strip_suffix(".hits")
            .or_else(|| counter.strip_suffix(".misses"))
            .is_some_and(|kind| metric == format!("{kind}.hit_ratio"))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `pass` twice traced and once untraced; checks trace validity, exact
/// repetition of the work counters and that tracing changed no work.
fn passes(
    r: &mut Report,
    mut pass: impl FnMut(Option<&Rc<RefCell<TraceLog>>>) -> Outcome,
) -> Profile {
    let mut traced = Vec::new();
    let mut walls = Vec::new();
    for _ in 0..2 {
        let log = Rc::new(RefCell::new(TraceLog::default()));
        let start = Instant::now();
        let outcome = pass(Some(&log));
        walls.push(start.elapsed().as_secs_f64());
        let profile = log.borrow().profile();
        traced.push((profile, outcome));
    }
    let start = Instant::now();
    let untraced = pass(None);
    let untraced_wall = start.elapsed().as_secs_f64();
    for (profile, outcome) in &traced {
        r.outcome(outcome);
        if profile.invalid_spans > 0 {
            r.problems
                .push(format!("{} malformed spans", profile.invalid_spans));
        }
    }
    r.outcome(&untraced);
    let (second, first) = (traced.pop(), traced.pop());
    let ((profile, outcome), (profile2, outcome2)) =
        (first.expect("two passes"), second.expect("two passes"));
    let counters = work_counters(&profile, &outcome);
    let repeat = work_counters(&profile2, &outcome2);
    for (name, value) in &counters {
        if repeat.get(name) != Some(value) {
            r.nondeterministic.push(name.clone());
        }
    }
    for (name, field) in [
        (
            "sfa.enum_checks",
            (|m: &hat_core::MethodReport| m.stats.enum_queries) as fn(&_) -> usize,
        ),
        ("sfa.product_states", |m| m.stats.product_states),
    ] {
        if outcome.sum(field) != untraced.sum(field) {
            r.problems.push(format!(
                "{name} differs between the traced and untraced passes"
            ));
        }
    }
    let traced_wall = walls.iter().sum::<f64>() / walls.len() as f64;
    r.put(
        "trace.overhead_share",
        (traced_wall - untraced_wall) / untraced_wall,
    );
    layer_metrics(r, &profile, &outcome);
    profile
}

fn layer_metrics(r: &mut Report, p: &Profile, o: &Outcome) {
    r.put("core.method_ms", ns_ms(p.method_ns));
    r.put("core.critical_method_ms", ns_ms(p.critical_ns));
    r.put("oracle.solve_calls", p.solve_calls as f64);
    r.put("oracle.solve_miss_ms", ns_ms(p.solve_miss_ns));
    r.put("oracle.solve_hit_ms", ns_ms(p.solve_hit_ns));
    r.put("sfa.enum_checks", o.sum(|m| m.stats.enum_queries) as f64);
    r.put(
        "sfa.product_states",
        o.sum(|m| m.stats.product_states) as f64,
    );
    r.put("sfa.walk_unclosed", p.work_unclosed(MemoKind::Shape) as f64);
    for kind in MEMO_KINDS {
        let name = work_name(kind);
        r.put(&format!("sfa.{name}_self_ms"), p.work_self_ms(kind));
        if kind != MemoKind::Inclusion && kind != MemoKind::Subsumption {
            r.put(&format!("sfa.{name}_calls"), p.work_calls(kind) as f64);
        }
    }
    let useful = ratio(
        o.sum(|m| m.stats.subsumed_pairs) as f64,
        o.sum(|m| m.stats.subsumption_checks) as f64,
    );
    r.put("sfa.subsume_useful_ratio", useful);
    for (i, kind) in MEMO_KINDS.into_iter().enumerate() {
        let name = memo_name(kind);
        r.put(&format!("memo.{name}.lookup_ms"), ns_ms(p.lookup_ns[i]));
        r.put(
            &format!("memo.{name}.hit_ratio"),
            ratio(p.hits[i] as f64, p.lookups[i] as f64),
        );
    }
    r.put("memo.store_ms", ns_ms(p.store_ns));
    r.put("memo.flush_ms", ns_ms(p.flush_ns));
    r.put(
        "trace.residual_share",
        ratio(p.residual_ns as f64, p.method_ns as f64),
    );
    for (kind, &n) in MEMO_KINDS.iter().zip(&p.unpaired_stores) {
        if n > 0 {
            r.notes.push(format!(
                "{n} {} stores without an open miss",
                memo_name(*kind)
            ));
        }
    }
}

/// A store path under `work` with no leftovers of an earlier run.
fn fresh(work: &Path, name: &str) -> PathBuf {
    let path = work.join(format!("{name}.cache"));
    let _ = std::fs::remove_file(&path);
    for suffix in [".lock", ".addr"] {
        let _ = std::fs::remove_file(format!("{}{suffix}", path.display()));
    }
    let _ = std::fs::remove_dir_all(format!("{}.d", path.display()));
    path
}

/// Opens a store the way `Engine::new` does.
fn open(path: &Path) -> Arc<MemoStore> {
    Arc::new(
        MemoStore::with_disk_log_config(path, LsmConfig::from_env())
            .unwrap_or_else(|e| crate::fail(&format!("open {}: {e}", path.display()))),
    )
}

fn suite_jobs(benches: &[Benchmark]) -> Vec<Job> {
    benches.iter().cloned().map(Job::suite).collect()
}

fn engine_outcome(summary: &RunSummary, jobs: &[Job]) -> Outcome {
    let mut outcome = Outcome::default();
    for (run, job) in summary.benchmarks.iter().zip(jobs) {
        outcome.attempted += job.expect.len();
        for (method, &expect) in job.bench.methods.iter().zip(&job.expect) {
            match run.reports.iter().find(|r| r.name == method.sig.name) {
                Some(report) => {
                    outcome.failed += usize::from(report.verified != expect);
                    outcome.reports.push(report.clone());
                }
                None => outcome.failed += 1,
            }
        }
    }
    outcome
}

/// One `--jobs 2` engine run on a fresh on-disk store, streamed report by report
/// the way `check-all` runs: the scheduler's queue waits and busy share, and the LSM
/// write path.
fn engine_pass(r: &mut Report, path: &Path, jobs: &[Job]) {
    let start = Instant::now();
    let engine = Engine::new(EngineConfig {
        jobs: 2,
        cache_path: Some(path.to_path_buf()),
        ..EngineConfig::default()
    })
    .unwrap_or_else(|e| crate::fail(&format!("engine: {e}")));
    r.put("engine.open_ms", ms(start.elapsed()));
    let benches: Vec<Benchmark> = jobs.iter().map(|j| j.bench.clone()).collect();
    let mut waits = Vec::new();
    let mut busy = Duration::ZERO;
    let mut handle = engine.submit(&benches);
    while let Some(job) = handle.next_report() {
        waits.push(ms(job.queue_wait));
        busy += job.report.stats.total_time;
    }
    let summary = handle.finish();
    r.outcome(&engine_outcome(&summary, jobs));
    r.put("schedule.queue_wait_p50_ms", percentile(&waits, 50.0));
    r.put("schedule.queue_wait_p90_ms", percentile(&waits, 90.0));
    r.put(
        "schedule.busy_share",
        busy.as_secs_f64() / (summary.wall.as_secs_f64() * 2.0),
    );
    let store = Arc::clone(engine.cache());
    drop(engine);
    store.flush();
    let lsm = store.lsm_stats().unwrap_or_default();
    drop(store);
    let stats = inspect(&path.display().to_string());
    let field = |name: &str| stats.get(name).and_then(Json::as_f64).unwrap_or(0.0);
    r.put("lsm.store_mb", field("bytes") / (1024.0 * 1024.0));
    r.put("lsm.segments", field("segments"));
    r.put("lsm.flushes", lsm.flushes as f64);
    r.put("lsm.compactions", lsm.compactions as f64);
    r.put("lsm.write_amp", lsm.write_amplification());
}

/// Median wall time of `all_benchmarks()`, which every CLI lookup pays for.
fn suite_build(r: &mut Report) {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(all_benchmarks());
            ms(start.elapsed())
        })
        .collect();
    r.put("suite.build_ms", median(&times));
}

/// Cold `check-all`: traced and untraced `--jobs 1` passes, each on a fresh on-disk
/// store (the untraced one by the engine itself), then one `--jobs 2` engine pass for
/// the scheduler and the LSM write path.
fn suite_cold(r: &mut Report, work: &Path) {
    suite_build(r);
    let benches = all_benchmarks();
    let jobs = suite_jobs(&benches);
    passes(r, |log| {
        let path = fresh(work, "suite");
        let outcome = match log {
            Some(log) => {
                let worker = Worker::new(open(&path), Some(Rc::clone(log)));
                let mut outcome = Outcome::default();
                for job in &jobs {
                    outcome.merge(worker.run(job));
                }
                outcome
            }
            None => {
                let engine = Engine::new(EngineConfig {
                    jobs: 1,
                    cache_path: Some(path.clone()),
                    ..EngineConfig::default()
                })
                .unwrap_or_else(|e| crate::fail(&format!("engine: {e}")));
                engine_outcome(&engine.check_benchmarks(&benches), &jobs)
            }
        };
        fresh(work, "suite");
        outcome
    });
    engine_pass(r, &fresh(work, "sched"), &jobs);
    fresh(work, "sched");
}

/// Verdicts a `marple check` process printed, by method name.
fn cli_verdicts(stdout: &str) -> BTreeMap<String, bool> {
    stdout
        .lines()
        .filter_map(|line| line.strip_prefix("   "))
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            let name = words.next()?;
            let verdict = match words.next()? {
                "verified" | "VERIFIED" => true,
                "rejected" | "FAILED" => false,
                _ => return None,
            };
            Some((name.to_string(), verdict))
        })
        .collect()
}

/// Warm single-config checks from a fresh process: the store a `--jobs 2` check-all
/// wrote, opened once per configuration, then the process cost measured against real
/// `marple check` runs. The `lsm.*` and `schedule.*` numbers describe the check-all
/// that writes the store, which is this workload's setup.
fn warm_oneshot(r: &mut Report, work: &Path, marple: &str) {
    suite_build(r);
    let path = fresh(work, "warm");
    let benches = all_benchmarks();
    let jobs = suite_jobs(&benches);
    engine_pass(r, &path, &jobs);
    let before = inspect(&path.display().to_string());
    // Per configuration, in-process: open, suite build, check and close, in ms.
    let mut runs: Vec<Vec<[f64; 3]>> = Vec::new();
    let mut loaded = 0usize;
    let mut stale = 0usize;
    let profile = passes(r, |log| {
        let mut outcome = Outcome::default();
        let mut timings = Vec::new();
        for job in &jobs {
            let start = Instant::now();
            let store = open(&path);
            let opened = start.elapsed();
            let stats = store.stats();
            if log.is_some() && runs.is_empty() {
                loaded += stats.disk_loaded;
            }
            stale += stats.stale;
            let bench = all_benchmarks()
                .into_iter()
                .find(|b| b.adt == job.bench.adt && b.library == job.bench.library)
                .expect("suite configuration exists");
            let built = start.elapsed();
            let worker = Worker::new(store, log.cloned());
            outcome.merge(worker.run(&Job::suite(bench)));
            drop(worker);
            let total = start.elapsed();
            timings.push([ms(opened), ms(built - opened), ms(total)]);
        }
        runs.push(timings);
        outcome
    });
    let after = inspect(&path.display().to_string());
    if before != after || stale > 0 || after.get("torn_segments") != Some(&Json::Int(0)) {
        r.problems.push(format!(
            "store changed under warm checks: {before} -> {after}, {stale} stale"
        ));
    }
    let traced = &runs[0];
    let column = |i: usize| traced.iter().map(|t| t[i]).collect::<Vec<f64>>();
    r.put("engine.open_ms", median(&column(0)));
    r.put("lsm.records_loaded", loaded as f64 / jobs.len() as f64);
    r.put(
        "lsm.hits_per_loaded_record",
        ratio(profile.total_hits() as f64, loaded as f64),
    );
    // Process cost: a real `marple check` minus the same work done in-process.
    let untraced = &runs[2];
    let mut process = Vec::new();
    for _ in 0..2 {
        for (job, timing) in jobs.iter().zip(untraced) {
            let start = Instant::now();
            let output = std::process::Command::new(marple)
                .args(["check", &job.bench.adt, &job.bench.library, "--cache"])
                .arg(&path)
                .output()
                .unwrap_or_else(|e| crate::fail(&format!("spawn {marple}: {e}")));
            process.push(ms(start.elapsed()) - timing[2]);
            let verdicts = cli_verdicts(&String::from_utf8_lossy(&output.stdout));
            r.attempted += job.expect.len();
            for (method, expect) in job.bench.methods.iter().zip(&job.expect) {
                r.failed += usize::from(verdicts.get(&method.sig.name) != Some(expect));
            }
        }
    }
    r.put("oneshot.process_ms", median(&process));
    fresh(work, "warm");
}

/// Warm requests as a daemon serves them: every suite configuration, in a seeded
/// order, against a store one `check-all` warmed; each traced pass starts with a
/// fresh worker-local tier, as a new daemon worker would.
fn daemon_warm(r: &mut Report, seed: u64) {
    let benches = all_benchmarks();
    let jobs = suite_jobs(&benches);
    let engine = Engine::new(EngineConfig {
        jobs: 2,
        ..EngineConfig::default()
    })
    .unwrap_or_else(|e| crate::fail(&format!("engine: {e}")));
    let warm = engine.check_benchmarks(&benches);
    r.outcome(&engine_outcome(&warm, &jobs));
    let store = Arc::clone(engine.cache());
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    shuffle(&mut order, &mut XorShift::seeded(seed));
    passes(r, |log| {
        let worker = Worker::new(Arc::clone(&store), log.cloned());
        let mut outcome = Outcome::default();
        for &i in &order {
            outcome.merge(worker.run(&jobs[i]));
        }
        outcome
    });
}

/// Never-seen generated configurations against one long-lived in-memory store, then
/// the same stream through a `--jobs 2` engine for the scheduler's numbers.
fn gen_stream(r: &mut Report, seed: u64) {
    let mut builds = Vec::new();
    passes(r, |log| {
        let worker = Worker::new(Arc::new(MemoStore::in_memory()), log.cloned());
        let mut outcome = Outcome::default();
        for index in 0..GEN_TRACE_CONFIGS {
            let start = Instant::now();
            let (bench, expect) = gen_job(seed, index);
            builds.push(ms(start.elapsed()));
            outcome.merge(worker.run(&Job::new(bench, expect)));
        }
        outcome
    });
    r.put("gen.build_ms", median(&builds));
    let engine = Engine::new(EngineConfig {
        jobs: 2,
        ..EngineConfig::default()
    })
    .unwrap_or_else(|e| crate::fail(&format!("engine: {e}")));
    let (mut waits, mut busy, mut wall) = (Vec::new(), Duration::ZERO, Duration::ZERO);
    for index in 0..GEN_TRACE_CONFIGS {
        let (bench, expect) = gen_job(seed, index);
        let mut handle = engine.submit(std::slice::from_ref(&bench));
        while let Some(job) = handle.next_report() {
            waits.push(ms(job.queue_wait));
            busy += job.report.stats.total_time;
        }
        let summary = handle.finish();
        wall += summary.wall;
        r.attempted += expect.len();
        r.failed += wrong_gen_verdicts(&summary, &bench, &expect);
    }
    r.put("schedule.queue_wait_p50_ms", percentile(&waits, 50.0));
    r.put("schedule.queue_wait_p90_ms", percentile(&waits, 90.0));
    r.put(
        "schedule.busy_share",
        busy.as_secs_f64() / (wall.as_secs_f64() * 2.0),
    );
}

pub fn trace(workload: &str, args: &Args) -> Json {
    let seed: u64 = args.num("seed");
    let work = PathBuf::from(args.str("work"));
    std::fs::create_dir_all(&work)
        .unwrap_or_else(|e| crate::fail(&format!("{}: {e}", work.display())));
    let mut r = Report::default();
    match workload {
        "suite-cold" => suite_cold(&mut r, &work),
        "warm-oneshot" => warm_oneshot(&mut r, &work, args.str("marple")),
        "daemon-warm" => daemon_warm(&mut r, seed),
        "gen-stream" => gen_stream(&mut r, seed),
        other => crate::fail(&format!("unknown workload `{other}`")),
    }
    r.to_json()
}
