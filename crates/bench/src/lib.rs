//! # hat-bench
//!
//! The benchmark harness that regenerates the evaluation artefacts of the paper:
//! Table 1 (per-configuration summary), Table 2 (invariant catalogue) and Tables 3/4
//! (per-method details), plus Criterion micro-benchmarks for the solver and the
//! symbolic-automaton engine. The `table1` binary additionally runs the engine
//! comparison ([`engine_comparison`]), the daemon trace replay ([`daemon_replay`]) and
//! the mixed-traffic fairness replay ([`mixed_traffic_replay`]), measures the LSM
//! cache backend ([`lsm_measurement`]) and writes `BENCH_engine.json` (schema
//! [`ENGINE_BENCH_SCHEMA`]).

use hat_core::MethodReport;
use hat_daemon::json::{obj, Json};
use hat_daemon::proto::{counter_fields, snapshot_to_json};
use hat_engine::{Engine, EngineConfig, RunSummary};
use hat_sfa::{EnumerationMode, InclusionMode, SubsumptionMode};
use hat_suite::Benchmark;

mod daemon;

pub use daemon::{
    daemon_replay, mixed_traffic_replay, DaemonReplay, MixedTrafficReplay, ReplayPhase,
};

/// The aggregated row of Table 1 for one configuration.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// ADT name.
    pub adt: String,
    /// Library name.
    pub library: String,
    /// `#Method` column.
    pub methods: usize,
    /// `#Ghost` column.
    pub ghosts: usize,
    /// `s_I` column.
    pub invariant_size: usize,
    /// `t_total` column (seconds).
    pub total_seconds: f64,
    /// Whether every non-buggy method verified and every buggy variant was rejected.
    pub all_as_expected: bool,
    /// The most complex method's report (second half of Table 1).
    pub hardest: Option<MethodReport>,
}

/// Runs the checker over one configuration and summarises it as a Table 1 row.
pub fn table1_row(bench: &Benchmark) -> (Table1Row, Vec<MethodReport>) {
    let reports = bench.check_all();
    let total: f64 = reports
        .iter()
        .map(|r| r.stats.total_time.as_secs_f64())
        .sum();
    let all_as_expected = bench
        .methods
        .iter()
        .zip(&reports)
        .all(|(m, r)| r.verified == m.expect_verified);
    let hardest = bench
        .methods
        .iter()
        .zip(&reports)
        .filter(|(m, _)| m.expect_verified)
        .map(|(_, r)| r.clone())
        .max_by_key(|r| r.stats.sat_queries);
    let row = Table1Row {
        adt: bench.adt.to_string(),
        library: bench.library.to_string(),
        methods: bench.method_count(),
        ghosts: bench.ghost_count(),
        invariant_size: bench.invariant_size(),
        total_seconds: total,
        all_as_expected,
        hardest,
    };
    (row, reports)
}

/// One measured engine configuration over the whole suite: its knob settings and what
/// the run reported — wall time, cache deltas and every benchmark's method reports.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Human-readable label, e.g. `jobs=1 cold unpruned`.
    pub label: String,
    /// The knob settings of the run.
    pub config: EngineConfig,
    /// Whether the run reused the cache an earlier run on the same engine populated.
    pub warm: bool,
    /// What the run reported.
    pub summary: RunSummary,
}

/// The result of [`engine_comparison`]: one run per knob setting, plus the names of
/// any configurations that were excluded (never silently).
#[derive(Debug, Clone)]
pub struct EngineComparison {
    /// The measured runs.
    pub runs: Vec<EngineRun>,
    /// `"ADT/Library"` names of configurations excluded from the comparison.
    pub skipped: Vec<String>,
}

/// Exercises the `hat-engine` subsystem once per knob setting (see `ablation`).
/// With `include_slow` false the configurations marked `slow` in the suite (whose
/// minterm alphabets make a single cold naive run take tens of minutes) are excluded
/// and recorded in [`EngineComparison::skipped`].
pub fn engine_comparison(benches: &[Benchmark], include_slow: bool) -> EngineComparison {
    let (included, skipped): (Vec<&Benchmark>, Vec<&Benchmark>) =
        benches.iter().partition(|b| include_slow || !b.slow);
    let included: Vec<Benchmark> = included.into_iter().cloned().collect();
    let mut runs = Vec::new();
    for (name, config, warm_rerun) in ablation() {
        let engine = Engine::new(config.clone()).expect("in-memory engine");
        for warm in [false, true].into_iter().take(1 + usize::from(warm_rerun)) {
            let phase = if warm { "warm" } else { "cold" };
            runs.push(EngineRun {
                label: format!("jobs={} {phase} {name}", config.jobs)
                    .trim_end()
                    .to_string(),
                config: config.clone(),
                warm,
                summary: engine.check_benchmarks(&included),
            });
        }
    }
    EngineComparison {
        runs,
        skipped: skipped
            .into_iter()
            .map(|b| format!("{}/{}", b.adt, b.library))
            .collect(),
    }
}

/// Worker count of the lock-traffic comparison runs. Fixed (not derived from the host's
/// parallelism) so the shared-only vs read-through lock numbers are comparable across
/// machines; lock *counts* depend on the interleaving less than on the number of
/// workers racing for promotion.
const LOCK_COMPARISON_JOBS: usize = 6;

/// The measured knob settings, as (label suffix, configuration, warm rerun): the
/// default at one and at several workers, then each knob moved off its default with
/// every other axis pinned. Each setting gets a fresh in-memory engine; a warm rerun
/// checks the suite again on the same engine.
fn ablation() -> Vec<(&'static str, EngineConfig, bool)> {
    let parallel_jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8);
    let default = EngineConfig::default;
    vec![
        (
            "naive-enum",
            EngineConfig {
                enumeration: EnumerationMode::Naive,
                ..default()
            },
            false,
        ),
        (
            "materialised",
            EngineConfig {
                inclusion: InclusionMode::Materialise,
                ..default()
            },
            false,
        ),
        (
            "unpruned",
            EngineConfig {
                prune: false,
                ..default()
            },
            false,
        ),
        ("", default(), true),
        (
            "subsume-off",
            EngineConfig {
                subsume: SubsumptionMode::Off,
                ..default()
            },
            true,
        ),
        (
            "subsume-syntactic",
            EngineConfig {
                subsume: SubsumptionMode::Syntactic,
                ..default()
            },
            true,
        ),
        (
            "",
            EngineConfig {
                jobs: parallel_jobs,
                ..default()
            },
            true,
        ),
        (
            "shared-only",
            EngineConfig {
                jobs: LOCK_COMPARISON_JOBS,
                local_tiers: false,
                ..default()
            },
            false,
        ),
        (
            "read-through",
            EngineConfig {
                jobs: LOCK_COMPARISON_JOBS,
                ..default()
            },
            false,
        ),
    ]
}

/// The `lsm` section of `BENCH_engine.json`: background-flush and compaction
/// counters from a suite-volume cold run over a deliberately small memtable, plus the
/// warm-load latency of the resulting segment stack at its natural record volume and
/// at ten times that volume (synthetic padding records).
#[derive(Debug, Clone)]
pub struct LsmMeasurement {
    /// Frozen memtables flushed to segment files by the background thread.
    pub flushes: usize,
    /// Level-0 segment files written by those flushes.
    pub segments_written: usize,
    /// Input segments consumed by background merges.
    pub segments_merged: usize,
    /// Background merge passes.
    pub compactions: usize,
    /// Bytes written to segment files (flush + compaction) per byte of flushed data.
    pub write_amplification: f64,
    /// Records replayed by the 1x warm load.
    pub records_1x: usize,
    /// Wall-clock of a warm `MemoStore` open at the suite's natural record volume.
    pub warm_load_ms_1x: f64,
    /// Records replayed by the 10x warm load.
    pub records_10x: usize,
    /// Wall-clock of a warm open after padding the store to ten times the volume.
    pub warm_load_ms_10x: f64,
}

/// Measures the LSM backend: a cold disk-backed run over the non-slow suite with a
/// small memtable (so rotation and background compaction genuinely happen at suite
/// volume), then timed warm loads at 1x and 10x record volume.
pub fn lsm_measurement(benches: &[Benchmark], jobs: usize) -> LsmMeasurement {
    let benches: Vec<Benchmark> = benches.iter().filter(|b| !b.slow).cloned().collect();
    let mut path = std::env::temp_dir();
    path.push(format!("hat-bench-lsm-{}", std::process::id()));
    let cleanup = |p: &std::path::Path| {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(p.with_extension("compacting"));
        let mut lock = p.to_path_buf().into_os_string();
        lock.push(".lock");
        let _ = std::fs::remove_file(std::path::PathBuf::from(lock));
        let _ = std::fs::remove_dir_all(hat_engine::lsm::segment_dir_for(p));
    };
    cleanup(&path);
    let engine = Engine::new(EngineConfig {
        jobs,
        cache_path: Some(path.clone()),
        memtable_bytes: Some(64 * 1024),
        ..EngineConfig::default()
    })
    .expect("disk-backed engine");
    engine.check_benchmarks(&benches);
    engine.cache().flush();
    let stats = engine
        .cache()
        .lsm_stats()
        .expect("a disk-backed store has an LSM backend");
    drop(engine);

    let start = std::time::Instant::now();
    let store = hat_engine::MemoStore::with_disk_log(&path).expect("1x warm open");
    let warm_load_ms_1x = start.elapsed().as_secs_f64() * 1e3;
    let records_1x = store.stats().disk_loaded;
    // Pad to ten times the natural volume; the synthetic verdicts replay exactly like
    // real ones, so the 10x timing isolates pure segment-replay scaling.
    for i in 0..records_1x.saturating_mul(9) {
        store.insert(
            hat_engine::RecordKind::Solver,
            format!("sat|bench-pad{i}"),
            (i % 2 == 0).into(),
        );
    }
    drop(store);
    let start = std::time::Instant::now();
    let store = hat_engine::MemoStore::with_disk_log(&path).expect("10x warm open");
    let warm_load_ms_10x = start.elapsed().as_secs_f64() * 1e3;
    let records_10x = store.stats().disk_loaded;
    drop(store);
    cleanup(&path);
    LsmMeasurement {
        flushes: stats.flushes,
        segments_written: stats.segments_written,
        segments_merged: stats.segments_merged,
        compactions: stats.compactions,
        write_amplification: stats.write_amplification(),
        records_1x,
        warm_load_ms_1x,
        records_10x,
        warm_load_ms_10x,
    }
}

/// The one schema version this writer knows how to lay out. Callers name the schema
/// they want and the writer refuses anything else — bumping the layout without bumping
/// the version string (or vice versa) becomes a hard error at the call site instead of
/// a silently mislabelled artefact.
pub const ENGINE_BENCH_SCHEMA: &str = "hat-engine-bench v10";

/// One row of the runs table: the knob settings, the wall time, the run's cache
/// counters and every benchmark's method counters, all by their schema names.
fn run_json(run: &EngineRun) -> Json {
    let config = &run.config;
    let enumeration = match config.enumeration {
        EnumerationMode::Naive => "naive",
        EnumerationMode::Incremental => "incremental",
    };
    let inclusion = match config.inclusion {
        InclusionMode::OnTheFly => "onthefly",
        InclusionMode::Materialise => "materialise",
    };
    let benchmarks = run.summary.benchmarks.iter().map(|b| {
        let mut fields = vec![
            ("adt", Json::Str(b.adt.clone())),
            ("library", Json::Str(b.library.clone())),
        ];
        fields.extend(counter_fields(b.stats().counters()));
        obj(fields)
    });
    obj(vec![
        ("label", Json::Str(run.label.clone())),
        ("jobs", Json::Int(config.jobs as i64)),
        ("warm_cache", Json::Bool(run.warm)),
        ("enumeration", Json::Str(enumeration.into())),
        ("prune", Json::Bool(config.prune)),
        ("inclusion", Json::Str(inclusion.into())),
        ("subsume", Json::Str(config.subsume.as_str().into())),
        ("local_tiers", Json::Bool(config.local_tiers)),
        ("wall_seconds", Json::Float(run.summary.wall.as_secs_f64())),
        ("cache", snapshot_to_json(&run.summary.cache)),
        ("benchmarks", Json::Arr(benchmarks.collect())),
    ])
}

fn replay_json(replay: &DaemonReplay) -> Json {
    let phase = |p: &ReplayPhase| {
        obj(vec![
            ("requests", Json::Int(p.requests as i64)),
            ("jobs", Json::Int(p.jobs as i64)),
            ("wall_seconds", Json::Float(p.wall_seconds)),
            ("requests_per_second", Json::Float(p.requests_per_second())),
            ("p50_latency_seconds", Json::Float(p.p50_latency_seconds)),
            ("p95_latency_seconds", Json::Float(p.p95_latency_seconds)),
            ("cache", snapshot_to_json(&p.cache)),
        ])
    };
    obj(vec![
        ("workers", Json::Int(replay.workers as i64)),
        ("cold", phase(&replay.cold)),
        ("warm", phase(&replay.warm)),
    ])
}

fn mixed_json(mixed: &MixedTrafficReplay) -> Json {
    obj(vec![
        ("workers", Json::Int(mixed.workers as i64)),
        (
            "background_clients",
            Json::Int(mixed.background_clients as i64),
        ),
        (
            "background_batches",
            Json::Int(mixed.background_batches as i64),
        ),
        ("probes", Json::Int(mixed.probes as i64)),
        (
            "uncontended_p50_seconds",
            Json::Float(mixed.uncontended_p50_seconds),
        ),
        (
            "uncontended_p95_seconds",
            Json::Float(mixed.uncontended_p95_seconds),
        ),
        (
            "contended_p50_seconds",
            Json::Float(mixed.contended_p50_seconds),
        ),
        (
            "contended_p95_seconds",
            Json::Float(mixed.contended_p95_seconds),
        ),
        (
            "contention_ratio_p95",
            Json::Float(mixed.contention_ratio_p95()),
        ),
        ("dedup_hits", Json::Int(mixed.dedup_hits as i64)),
        ("queue_wait_p95_ms", Json::Float(mixed.queue_wait_p95_ms)),
    ])
}

fn lsm_json(lsm: &LsmMeasurement) -> Json {
    obj(vec![
        ("flushes", Json::Int(lsm.flushes as i64)),
        ("segments_written", Json::Int(lsm.segments_written as i64)),
        ("segments_merged", Json::Int(lsm.segments_merged as i64)),
        ("compactions", Json::Int(lsm.compactions as i64)),
        ("write_amplification", Json::Float(lsm.write_amplification)),
        ("records_1x", Json::Int(lsm.records_1x as i64)),
        ("warm_load_ms_1x", Json::Float(lsm.warm_load_ms_1x)),
        ("records_10x", Json::Int(lsm.records_10x as i64)),
        ("warm_load_ms_10x", Json::Float(lsm.warm_load_ms_10x)),
    ])
}

/// Serialises [`engine_comparison`], [`daemon_replay`], [`mixed_traffic_replay`] and
/// [`lsm_measurement`] measurements through [`hat_daemon::json`]. `schema` must be
/// exactly [`ENGINE_BENCH_SCHEMA`]; any other string is refused with
/// [`std::io::ErrorKind::InvalidInput`] before the file is touched.
pub fn write_engine_json(
    path: &str,
    schema: &str,
    comparison: &EngineComparison,
    replay: Option<&DaemonReplay>,
    mixed: Option<&MixedTrafficReplay>,
    lsm: Option<&LsmMeasurement>,
) -> std::io::Result<()> {
    if schema != ENGINE_BENCH_SCHEMA {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "unrecognised engine-bench schema `{schema}`: this writer emits only \
                 `{ENGINE_BENCH_SCHEMA}`"
            ),
        ));
    }
    let skipped = comparison.skipped.iter().cloned().map(Json::Str).collect();
    let mut fields = vec![
        ("schema", Json::Str(schema.to_string())),
        ("skipped", Json::Arr(skipped)),
    ];
    fields.extend(replay.map(|r| ("daemon_replay", replay_json(r))));
    fields.extend(mixed.map(|m| ("mixed_traffic", mixed_json(m))));
    fields.extend(lsm.map(|l| ("lsm", lsm_json(l))));
    let runs = comparison.runs.iter().map(run_json).collect();
    fields.push(("runs", Json::Arr(runs)));
    std::fs::write(path, format!("{}\n", obj(fields)))
}

/// Formats a method report as the per-method columns shared by Tables 1, 3 and 4.
pub fn method_columns(r: &MethodReport) -> String {
    format!(
        "{:>8} {:>5} {:>6} {:>6} {:>6} {:>9.1} {:>9.2} {:>9.2}  {}",
        r.branches,
        r.apps,
        r.stats.sat_queries,
        r.stats.fa_inclusions,
        r.stats.assumed_preconditions,
        r.stats.avg_fa_size(),
        r.stats.sat_time.as_secs_f64(),
        r.stats.fa_time.as_secs_f64(),
        if r.verified { "ok" } else { "REJECTED" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_engine_json_refuses_unknown_schemas() {
        let small: Vec<Benchmark> = hat_suite::all_benchmarks()
            .into_iter()
            .filter(|b| b.adt == "Heap" && b.library == "Tree")
            .collect();
        assert_eq!(small.len(), 1, "the small configuration exists");
        let comparison = engine_comparison(&small, false);
        let mut path = std::env::temp_dir();
        path.push(format!("hat-bench-writer-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        // Older schema strings must be refused before the file is touched: the
        // writer's layout no longer matches them.
        for stale in ["hat-engine-bench v8", "hat-engine-bench v9"] {
            let err = write_engine_json(path, stale, &comparison, None, None, None)
                .expect_err("an outdated schema string must be refused");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(
                !std::path::Path::new(path).exists(),
                "a refused write must not leave a file behind"
            );
        }
        write_engine_json(path, ENGINE_BENCH_SCHEMA, &comparison, None, None, None)
            .expect("the writer's own schema constant is accepted");
        let written = std::fs::read_to_string(path).expect("the accepted write lands");
        std::fs::remove_file(path).ok();
        let json = Json::parse(&written).expect("the file is valid JSON");
        assert_eq!(json.str_field("schema"), Some(ENGINE_BENCH_SCHEMA));
        let runs = json
            .get("runs")
            .and_then(Json::as_arr)
            .expect("a runs table");
        assert_eq!(runs.len(), comparison.runs.len());
        for run in runs {
            let label = run.str_field("label").expect("every run is labelled");
            let cache = run.get("cache").expect("every run has its cache counters");
            for name in hat_engine::CacheStatsSnapshot::NAMES {
                assert!(cache.get(name).is_some(), "{label}: cache lacks `{name}`");
            }
            let rows = run.get("benchmarks").and_then(Json::as_arr).expect("rows");
            assert_eq!(rows.len(), 1, "{label}: one row per configuration");
            for name in hat_core::CheckStats::NAMES {
                assert!(
                    rows[0].get(name).is_some(),
                    "{label}: the row lacks `{name}`"
                );
            }
        }
    }
}
