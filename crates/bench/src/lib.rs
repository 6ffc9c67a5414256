//! # hat-bench
//!
//! The benchmark harness that regenerates the evaluation artefacts of the paper:
//! Table 1 (per-configuration summary), Table 2 (invariant catalogue) and Tables 3/4
//! (per-method details). The `table1` binary additionally runs the knob ablation
//! ([`engine_comparison`]: the whole suite once per engine knob setting), checks every
//! verdict of the table and of the ablation against the suite's expected outcomes
//! ([`hat_engine::verdict_mismatches`]) and writes `BENCH_engine.json` (schema
//! [`ENGINE_BENCH_SCHEMA`]).

use hat_core::MethodReport;
use hat_daemon::json::{obj, Json};
use hat_daemon::proto::{counter_fields, snapshot_to_json};
use hat_engine::{BenchmarkRun, Engine, EngineConfig, RunSummary};
use hat_sfa::{EnumerationMode, InclusionMode, SubsumptionMode};
use hat_suite::Benchmark;

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
    /// The most complex method's report (second half of Table 1).
    pub hardest: Option<MethodReport>,
}

/// Runs the checker over one configuration and summarises it as a Table 1 row, next to
/// every method's report.
pub fn table1_row(bench: &Benchmark) -> (Table1Row, BenchmarkRun) {
    let reports = bench.check_all();
    let total: f64 = reports
        .iter()
        .map(|r| r.stats.total_time.as_secs_f64())
        .sum();
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
        hardest,
    };
    let run = BenchmarkRun {
        adt: row.adt.clone(),
        library: row.library.clone(),
        reports,
    };
    (row, run)
}

/// One measured engine configuration over the suite: its knob settings, the
/// configurations it left out, and what the run reported — wall time, cache deltas and
/// every benchmark's method reports.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Human-readable label, e.g. `jobs=1 cold unpruned`.
    pub label: String,
    /// The knob settings of the run.
    pub config: EngineConfig,
    /// Whether the run reused the cache an earlier run on the same engine populated.
    pub warm: bool,
    /// `"ADT/Library"` names of the configurations this run left out: the `slow` ones,
    /// under naive enumeration only. Never dropped silently.
    pub skipped: Vec<String>,
    /// What the run reported.
    pub summary: RunSummary,
}

/// Exercises the `hat-engine` subsystem over `benches` once per knob setting (see
/// `ablation`). Each run checks every configuration its own knob setting does not
/// exclude, and names the rest in [`EngineRun::skipped`].
pub fn engine_comparison(benches: &[Benchmark]) -> Vec<EngineRun> {
    let mut runs = Vec::new();
    for (name, config, warm_rerun) in ablation() {
        // Only naive enumeration leaves out the configurations marked `slow`: a naive
        // cold FileSystem/KVStore check takes about four minutes, while every other
        // knob setting checks it in seconds.
        let naive = config.enumeration == EnumerationMode::Naive;
        let (skipped, included): (Vec<&Benchmark>, Vec<&Benchmark>) =
            benches.iter().partition(|b| naive && b.slow);
        let included: Vec<Benchmark> = included.into_iter().cloned().collect();
        let skipped: Vec<String> = skipped
            .into_iter()
            .map(|b| format!("{}/{}", b.adt, b.library))
            .collect();
        let engine = Engine::new(config.clone()).expect("in-memory engine");
        for warm in [false, true].into_iter().take(1 + usize::from(warm_rerun)) {
            let phase = if warm { "warm" } else { "cold" };
            runs.push(EngineRun {
                label: format!("jobs={} {phase} {name}", config.jobs)
                    .trim_end()
                    .to_string(),
                config: config.clone(),
                warm,
                skipped: skipped.clone(),
                summary: engine.check_benchmarks(&included),
            });
        }
    }
    runs
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

/// The one schema version this writer knows how to lay out. Callers name the schema
/// they want and the writer refuses anything else — bumping the layout without bumping
/// the version string (or vice versa) becomes a hard error at the call site instead of
/// a silently mislabelled artefact.
pub const ENGINE_BENCH_SCHEMA: &str = "hat-engine-bench v11";

/// One row of the runs table: the knob settings, the configurations the run left out,
/// the wall time, the run's cache counters and every benchmark's method counters, all
/// by their schema names.
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
        (
            "skipped",
            Json::Arr(run.skipped.iter().cloned().map(Json::Str).collect()),
        ),
        ("wall_seconds", Json::Float(run.summary.wall.as_secs_f64())),
        ("cache", snapshot_to_json(&run.summary.cache)),
        ("benchmarks", Json::Arr(benchmarks.collect())),
    ])
}

/// Serialises [`engine_comparison`] runs through [`hat_daemon::json`]: the schema
/// string and the runs table, nothing else. `schema` must be exactly
/// [`ENGINE_BENCH_SCHEMA`]; any other string is refused with
/// [`std::io::ErrorKind::InvalidInput`] before the file is touched.
pub fn write_engine_json(path: &str, schema: &str, runs: &[EngineRun]) -> std::io::Result<()> {
    if schema != ENGINE_BENCH_SCHEMA {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "unrecognised engine-bench schema `{schema}`: this writer emits only \
                 `{ENGINE_BENCH_SCHEMA}`"
            ),
        ));
    }
    let json = obj(vec![
        ("schema", Json::Str(schema.to_string())),
        ("runs", Json::Arr(runs.iter().map(run_json).collect())),
    ]);
    std::fs::write(path, format!("{json}\n"))
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
    use hat_engine::verdict_mismatches;

    fn heap_tree() -> Benchmark {
        hat_suite::find("Heap", "Tree").expect("the small configuration exists")
    }

    #[test]
    fn write_engine_json_refuses_unknown_schemas() {
        // A renamed clone of Heap/Tree marked slow stands in for FileSystem/KVStore:
        // only the naive-enumeration run may leave it out, and that run must name it.
        let mut slow = heap_tree();
        slow.adt = "SlowHeap".into();
        slow.slow = true;
        let runs = engine_comparison(&[heap_tree(), slow]);
        let mut path = std::env::temp_dir();
        path.push(format!("hat-bench-writer-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        // Older schema strings must be refused before the file is touched: the
        // writer's layout no longer matches them.
        for stale in [
            "hat-engine-bench v8",
            "hat-engine-bench v9",
            "hat-engine-bench v10",
        ] {
            let err = write_engine_json(path, stale, &runs)
                .expect_err("an outdated schema string must be refused");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(
                !std::path::Path::new(path).exists(),
                "a refused write must not leave a file behind"
            );
        }
        write_engine_json(path, ENGINE_BENCH_SCHEMA, &runs)
            .expect("the writer's own schema constant is accepted");
        let written = std::fs::read_to_string(path).expect("the accepted write lands");
        std::fs::remove_file(path).ok();
        let json = Json::parse(&written).expect("the file is valid JSON");
        assert_eq!(json.str_field("schema"), Some(ENGINE_BENCH_SCHEMA));
        for gone in ["daemon_replay", "mixed_traffic", "lsm", "skipped"] {
            assert!(json.get(gone).is_none(), "no top-level `{gone}` key");
        }
        let table = json
            .get("runs")
            .and_then(Json::as_arr)
            .expect("a runs table");
        assert_eq!(table.len(), runs.len());
        for run in table {
            let label = run.str_field("label").expect("every run is labelled");
            let naive = label == "jobs=1 cold naive-enum";
            let skipped: Vec<&str> = run
                .get("skipped")
                .and_then(Json::as_arr)
                .expect("every run names what it skipped")
                .iter()
                .filter_map(Json::as_str)
                .collect();
            let expected: &[&str] = if naive { &["SlowHeap/Tree"] } else { &[] };
            assert_eq!(skipped, expected, "{label}");
            let cache = run.get("cache").expect("every run has its cache counters");
            for name in hat_engine::CacheStatsSnapshot::NAMES {
                assert!(cache.get(name).is_some(), "{label}: cache lacks `{name}`");
            }
            let rows = run.get("benchmarks").and_then(Json::as_arr).expect("rows");
            let adts: Vec<&str> = rows.iter().filter_map(|r| r.str_field("adt")).collect();
            let expected: &[&str] = if naive {
                &["Heap"]
            } else {
                &["Heap", "SlowHeap"]
            };
            assert_eq!(
                adts, expected,
                "{label}: one row per included configuration"
            );
            for row in rows {
                for name in hat_core::CheckStats::NAMES {
                    assert!(row.get(name).is_some(), "{label}: a row lacks `{name}`");
                }
            }
        }
        assert!(
            runs.iter().any(|r| r.label == "jobs=1 cold naive-enum"),
            "the naive-enumeration run is part of the ablation"
        );
    }

    #[test]
    fn a_flipped_verdict_is_named_by_run_configuration_and_method() {
        let suite = [heap_tree()];
        let (_, mut run) = table1_row(&suite[0]);
        assert_eq!(
            verdict_mismatches("Table 1", &suite, std::slice::from_ref(&run)),
            Vec::<String>::new(),
            "Heap/Tree checks as expected"
        );
        run.reports[1].verified = !run.reports[1].verified;
        let method = &suite[0].methods[1];
        let mismatches = verdict_mismatches("jobs=1 cold", &suite, &[run]);
        assert_eq!(mismatches.len(), 1, "{mismatches:?}");
        let expected = if method.expect_verified {
            "rejected, expected verified"
        } else {
            "verified, expected rejected"
        };
        assert_eq!(
            mismatches[0],
            format!("jobs=1 cold: Heap/Tree {} was {expected}", method.sig.name)
        );
    }
}
