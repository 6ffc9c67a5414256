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
use hat_engine::{CacheStatsSnapshot, Engine, EngineConfig, RunSummary};
use hat_sfa::{EnumerationMode, InclusionMode, SubsumptionMode};
use hat_suite::Benchmark;
use std::io::Write;

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

/// One measured engine configuration (e.g. "1 job, cold cache") over the whole suite.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Human-readable label, e.g. `jobs=4 warm`.
    pub label: String,
    /// Worker count of the run.
    pub jobs: usize,
    /// Whether the run reused a cache populated by an earlier run.
    pub warm: bool,
    /// Minterm enumeration strategy of the run (`"naive"` or `"incremental"`).
    pub enumeration: &'static str,
    /// Whether per-group alphabet pruning ran before DFA construction.
    pub prune: bool,
    /// How language inclusion was decided (`"onthefly"` or `"materialise"`).
    pub inclusion: &'static str,
    /// Antichain subsumption tier of the on-the-fly walks (`"off"`, `"syntactic"` or
    /// `"simulation"`).
    pub subsume: &'static str,
    /// Whether per-worker local read-through tiers fronted the shared store.
    pub local_tiers: bool,
    /// Wall-clock seconds for the whole suite.
    pub wall_seconds: f64,
    /// Run-wide cache counters (per-run deltas).
    pub cache: CacheStatsSnapshot,
    /// Per-benchmark measurements, in suite order.
    pub benchmarks: Vec<EngineBenchRow>,
}

/// Engine measurements for one benchmark configuration within a run.
#[derive(Debug, Clone)]
pub struct EngineBenchRow {
    /// ADT name.
    pub adt: String,
    /// Library name.
    pub library: String,
    /// Summed per-method verification seconds.
    pub check_seconds: f64,
    /// Standalone SMT queries issued by this benchmark's methods.
    pub sat_queries: usize,
    /// Incremental enumeration checks issued by this benchmark's methods.
    pub enum_queries: usize,
    /// Unsatisfiable enumeration branches abandoned.
    pub pruned_subtrees: usize,
    /// Alphabet transformations answered from the minterm-set memo.
    pub minterm_memo_hits: usize,
    /// Inclusion checks answered from the inclusion-verdict memo.
    pub inclusion_memo_hits: usize,
    /// Cache hits recorded by this benchmark's methods.
    pub cache_hits: usize,
    /// Cache misses recorded by this benchmark's methods.
    pub cache_misses: usize,
    /// Total DFA states constructed by this benchmark's methods.
    pub dfa_states: usize,
    /// Total DFA transitions constructed by this benchmark's methods.
    pub dfa_transitions: usize,
    /// Alphabet symbols dropped by per-group pruning.
    pub alphabet_pruned: usize,
    /// DFA transitions answered from the run-wide transition memo.
    pub transition_memo_hits: usize,
    /// Product states discovered by on-the-fly inclusion walks (0 in materialised runs).
    pub product_states: usize,
    /// Per-group product walks answered from the DFA-shape memo.
    pub shape_memo_hits: usize,
    /// Shared-tier shard-lock acquisitions by this benchmark's methods.
    pub shared_tier_locks: usize,
    /// Antichain probes issued by the subsumption layer (0 when `--subsume off`).
    pub subsumption_checks: usize,
    /// Product pairs dropped by antichain subsumption before being enqueued.
    pub subsumed_pairs: usize,
    /// Simulation-order queries answered from the memoised preorder (warm-run signal).
    pub simulation_memo_hits: usize,
}

impl EngineBenchRow {
    /// Standalone queries plus incremental checks: the number to compare across
    /// enumeration modes.
    pub fn total_solver_work(&self) -> usize {
        self.sat_queries + self.enum_queries
    }
}

fn engine_run(label: &str, config: &EngineConfig, warm: bool, summary: &RunSummary) -> EngineRun {
    EngineRun {
        label: label.to_string(),
        jobs: config.jobs,
        warm,
        enumeration: match config.enumeration {
            EnumerationMode::Naive => "naive",
            EnumerationMode::Incremental => "incremental",
        },
        prune: config.prune,
        inclusion: match config.inclusion {
            InclusionMode::OnTheFly => "onthefly",
            InclusionMode::Materialise => "materialise",
        },
        subsume: config.subsume.as_str(),
        local_tiers: config.local_tiers,
        wall_seconds: summary.wall.as_secs_f64(),
        cache: summary.cache,
        benchmarks: summary
            .benchmarks
            .iter()
            .map(|b| EngineBenchRow {
                adt: b.adt.clone(),
                library: b.library.clone(),
                check_seconds: b.check_time.as_secs_f64(),
                sat_queries: b.sat_queries(),
                enum_queries: b.enum_queries(),
                pruned_subtrees: b.pruned_subtrees(),
                minterm_memo_hits: b.minterm_memo_hits(),
                inclusion_memo_hits: b.inclusion_memo_hits(),
                cache_hits: b.cache_hits(),
                cache_misses: b.cache_misses(),
                dfa_states: b.dfa_states(),
                dfa_transitions: b.dfa_transitions(),
                alphabet_pruned: b.alphabet_pruned(),
                transition_memo_hits: b.transition_memo_hits(),
                product_states: b.product_states(),
                shape_memo_hits: b.shape_memo_hits(),
                shared_tier_locks: b.shared_tier_locks(),
                subsumption_checks: b.subsumption_checks(),
                subsumed_pairs: b.subsumed_pairs(),
                simulation_memo_hits: b.simulation_memo_hits(),
            })
            .collect(),
    }
}

/// The cold-enumeration cost of one configuration under both strategies: the evidence for
/// the "incremental enumeration reduces cold SAT-query count" claim.
#[derive(Debug, Clone)]
pub struct EnumReductionRow {
    /// ADT name.
    pub adt: String,
    /// Library name.
    pub library: String,
    /// Total solver work (queries) of the cold naive run.
    pub naive_queries: usize,
    /// Total solver work (queries + scoped checks) of the cold incremental run.
    pub incremental_queries: usize,
    /// Enumeration-only queries of the naive run. Both modes issue an identical set of
    /// non-enumeration queries (transition entailments, subtyping, consistency checks —
    /// the incremental run's standalone `sat_queries`), so the naive enumeration cost is
    /// the naive total minus that shared part.
    pub naive_enumeration: usize,
    /// Enumeration-only checks of the incremental run (its scoped-session checks).
    pub incremental_enumeration: usize,
}

impl EnumReductionRow {
    /// naive / incremental ratio over total solver work (∞-safe: 0 when incremental
    /// is 0).
    pub fn reduction(&self) -> f64 {
        if self.incremental_queries == 0 {
            0.0
        } else {
            self.naive_queries as f64 / self.incremental_queries as f64
        }
    }

    /// naive / incremental ratio over enumeration work only — the cost the incremental
    /// search tree actually replaces (∞-safe: 0 when incremental is 0).
    pub fn enumeration_reduction(&self) -> f64 {
        if self.incremental_enumeration == 0 {
            0.0
        } else {
            self.naive_enumeration as f64 / self.incremental_enumeration as f64
        }
    }
}

/// The DFA-construction cost of one configuration with and without per-group alphabet
/// pruning: the evidence for the "pruning shrinks product construction without changing
/// the reachable state set" claim.
#[derive(Debug, Clone)]
pub struct PruneReductionRow {
    /// ADT name.
    pub adt: String,
    /// Library name.
    pub library: String,
    /// DFA transitions constructed by the cold unpruned run.
    pub unpruned_transitions: usize,
    /// DFA transitions constructed by the cold pruned run.
    pub pruned_transitions: usize,
    /// DFA states of the unpruned run (must equal the pruned run's).
    pub unpruned_states: usize,
    /// DFA states of the pruned run.
    pub pruned_states: usize,
    /// Alphabet symbols dropped by the pruned run.
    pub alphabet_pruned: usize,
}

impl PruneReductionRow {
    /// unpruned / pruned transition ratio (∞-safe: 0 when pruned is 0).
    pub fn reduction(&self) -> f64 {
        if self.pruned_transitions == 0 {
            0.0
        } else {
            self.unpruned_transitions as f64 / self.pruned_transitions as f64
        }
    }
}

/// The inclusion-decision cost of one configuration under both pipelines: the evidence
/// for the "on-the-fly product walk avoids materialising both DFAs" claim. Every column
/// names the mode that produced it (`materialise` as spelled by `--inclusion`, and
/// `onthefly_simulation` because the measured on-the-fly run is the default
/// configuration, whose antichain subsumption tier is simulation) — now that the walk's
/// size depends on both axes, an unqualified "baseline" column would be ambiguous.
#[derive(Debug, Clone)]
pub struct InclusionReductionRow {
    /// ADT name.
    pub adt: String,
    /// Library name.
    pub library: String,
    /// Residual states built by the cold `--inclusion materialise` run (both complete
    /// DFAs).
    pub materialise_states: usize,
    /// Residual states derived by the cold on-the-fly simulation-subsumption run
    /// (frontier-reached only).
    pub onthefly_simulation_states: usize,
    /// Transitions derived by the cold materialise run.
    pub materialise_transitions: usize,
    /// Transitions derived by the cold on-the-fly simulation-subsumption run.
    pub onthefly_simulation_transitions: usize,
    /// Distinct product pairs enqueued by the on-the-fly simulation-subsumption walks.
    pub product_states: usize,
    /// Summed per-method check seconds of the materialise run.
    pub materialise_seconds: f64,
    /// Summed per-method check seconds of the on-the-fly simulation-subsumption run.
    pub onthefly_simulation_seconds: f64,
}

impl InclusionReductionRow {
    /// materialise / on-the-fly transition ratio (∞-safe: 0 when on-the-fly is 0).
    pub fn reduction(&self) -> f64 {
        if self.onthefly_simulation_transitions == 0 {
            0.0
        } else {
            self.materialise_transitions as f64 / self.onthefly_simulation_transitions as f64
        }
    }
}

/// The on-the-fly product-walk cost of one configuration under the three antichain
/// subsumption tiers, cold and warm: the evidence for the "subsumption prunes the
/// frontier without changing any verdict, and the memoised simulation order pays for
/// itself on warm runs" claim. Pairs are *enqueued* product pairs (the antichain's
/// growth), so `off ≥ syntactic ≥ simulation` per benchmark is asserted by the
/// differential harnesses, not merely observed here.
#[derive(Debug, Clone)]
pub struct SubsumptionReductionRow {
    /// ADT name.
    pub adt: String,
    /// Library name.
    pub library: String,
    /// Product pairs enqueued by the cold `--subsume off` run.
    pub off_cold_pairs: usize,
    /// Product pairs enqueued by the cold `--subsume syntactic` run.
    pub syntactic_cold_pairs: usize,
    /// Product pairs enqueued by the cold `--subsume simulation` run.
    pub simulation_cold_pairs: usize,
    /// Summed per-method check seconds of the cold `--subsume off` run.
    pub off_cold_seconds: f64,
    /// Summed per-method check seconds of the cold `--subsume syntactic` run.
    pub syntactic_cold_seconds: f64,
    /// Summed per-method check seconds of the cold `--subsume simulation` run.
    pub simulation_cold_seconds: f64,
    /// Product pairs enqueued by the warm `--subsume off` rerun.
    pub off_warm_pairs: usize,
    /// Product pairs enqueued by the warm `--subsume syntactic` rerun.
    pub syntactic_warm_pairs: usize,
    /// Product pairs enqueued by the warm `--subsume simulation` rerun.
    pub simulation_warm_pairs: usize,
    /// Summed per-method check seconds of the warm `--subsume off` rerun.
    pub off_warm_seconds: f64,
    /// Summed per-method check seconds of the warm `--subsume syntactic` rerun.
    pub syntactic_warm_seconds: f64,
    /// Summed per-method check seconds of the warm `--subsume simulation` rerun.
    pub simulation_warm_seconds: f64,
    /// Pairs dropped by the antichain in the cold simulation run.
    pub subsumed_pairs: usize,
    /// Simulation-order queries answered from the memo in the warm simulation rerun.
    pub simulation_memo_hits: usize,
}

impl SubsumptionReductionRow {
    /// off / simulation cold enqueued-pair ratio (∞-safe: 0 when simulation is 0).
    pub fn cold_pair_reduction(&self) -> f64 {
        if self.simulation_cold_pairs == 0 {
            0.0
        } else {
            self.off_cold_pairs as f64 / self.simulation_cold_pairs as f64
        }
    }
}

/// The shared-tier lock traffic of one configuration at `jobs=6` with and without
/// per-worker local read-through tiers: the evidence for the "local tiers cut shard lock
/// traffic" claim. Both runs are cold and verdict-identical (asserted by the engine's
/// tier tests); only the tier composition differs.
#[derive(Debug, Clone)]
pub struct LockReductionRow {
    /// ADT name.
    pub adt: String,
    /// Library name.
    pub library: String,
    /// Shared-tier lock acquisitions of the shared-only run.
    pub shared_only_locks: usize,
    /// Shared-tier lock acquisitions of the read-through run.
    pub read_through_locks: usize,
    /// Memo hits of the read-through run (they keep accruing while locks drop).
    pub read_through_hits: usize,
}

impl LockReductionRow {
    /// shared-only / read-through lock ratio (∞-safe: 0 when read-through is 0).
    pub fn reduction(&self) -> f64 {
        if self.read_through_locks == 0 {
            0.0
        } else {
            self.shared_only_locks as f64 / self.read_through_locks as f64
        }
    }
}

/// The result of [`engine_comparison`]: the measured runs, the naive-vs-incremental
/// cold-enumeration comparison, the pruned-vs-unpruned DFA-construction comparison, the
/// materialise-vs-on-the-fly inclusion comparison, the off-vs-syntactic-vs-simulation
/// subsumption comparison, the shared-only-vs-read-through lock comparison, and the
/// names of any configurations that were excluded (never silently).
#[derive(Debug, Clone)]
pub struct EngineComparison {
    /// The measured runs.
    pub runs: Vec<EngineRun>,
    /// Per-benchmark cold enumeration cost, naive vs incremental.
    pub enum_reduction: Vec<EnumReductionRow>,
    /// Per-benchmark cold DFA-construction cost, unpruned vs pruned.
    pub prune_reduction: Vec<PruneReductionRow>,
    /// Per-benchmark cold inclusion-decision cost, materialise vs on-the-fly.
    pub inclusion_reduction: Vec<InclusionReductionRow>,
    /// Per-benchmark product-walk cost under the three subsumption tiers, cold and warm.
    pub subsumption_reduction: Vec<SubsumptionReductionRow>,
    /// Per-benchmark shared-tier lock traffic at jobs=6, shared-only vs read-through.
    pub lock_reduction: Vec<LockReductionRow>,
    /// `"ADT/Library"` names of configurations excluded from the comparison.
    pub skipped: Vec<String>,
}

/// Exercises the `hat-engine` subsystem: a cold naive-enumeration baseline, a cold
/// unpruned baseline, then sequential and parallel incremental runs, each with a cold
/// and a warm (same-engine) cache. With `include_slow` false the configurations marked
/// `slow` in the suite (whose minterm alphabets make a single cold naive run take tens
/// of minutes) are excluded and recorded in [`EngineComparison::skipped`].
pub fn engine_comparison(benches: &[Benchmark], include_slow: bool) -> EngineComparison {
    let (included, skipped): (Vec<&Benchmark>, Vec<&Benchmark>) =
        benches.iter().partition(|b| include_slow || !b.slow);
    let included: Vec<Benchmark> = included.into_iter().cloned().collect();
    let runs = comparison_runs(&included);
    let enum_reduction = runs
        .iter()
        .find(|r| r.enumeration == "naive" && !r.warm)
        .zip(runs.iter().find(|r| {
            r.enumeration == "incremental" && r.prune && !r.warm && r.inclusion == "onthefly"
        }))
        .map(|(naive, incremental)| {
            naive
                .benchmarks
                .iter()
                .zip(&incremental.benchmarks)
                .map(|(n, i)| EnumReductionRow {
                    adt: n.adt.clone(),
                    library: n.library.clone(),
                    naive_queries: n.total_solver_work(),
                    incremental_queries: i.total_solver_work(),
                    naive_enumeration: n.total_solver_work().saturating_sub(i.sat_queries),
                    incremental_enumeration: i.enum_queries,
                })
                .collect()
        })
        .unwrap_or_default();
    let prune_reduction = runs
        .iter()
        .find(|r| r.enumeration == "incremental" && !r.prune && !r.warm)
        .zip(runs.iter().find(|r| {
            r.enumeration == "incremental" && r.prune && !r.warm && r.inclusion == "onthefly"
        }))
        .map(|(unpruned, pruned)| {
            unpruned
                .benchmarks
                .iter()
                .zip(&pruned.benchmarks)
                .map(|(u, p)| PruneReductionRow {
                    adt: u.adt.clone(),
                    library: u.library.clone(),
                    unpruned_transitions: u.dfa_transitions,
                    pruned_transitions: p.dfa_transitions,
                    unpruned_states: u.dfa_states,
                    pruned_states: p.dfa_states,
                    alphabet_pruned: p.alphabet_pruned,
                })
                .collect()
        })
        .unwrap_or_default();
    let inclusion_reduction = runs
        .iter()
        .find(|r| r.inclusion == "materialise" && !r.warm)
        .zip(runs.iter().find(|r| {
            r.enumeration == "incremental" && r.prune && !r.warm && r.inclusion == "onthefly"
        }))
        .map(|(mat, otf)| {
            mat.benchmarks
                .iter()
                .zip(&otf.benchmarks)
                .map(|(m, o)| InclusionReductionRow {
                    adt: m.adt.clone(),
                    library: m.library.clone(),
                    materialise_states: m.dfa_states,
                    onthefly_simulation_states: o.dfa_states,
                    materialise_transitions: m.dfa_transitions,
                    onthefly_simulation_transitions: o.dfa_transitions,
                    product_states: o.product_states,
                    materialise_seconds: m.check_seconds,
                    onthefly_simulation_seconds: o.check_seconds,
                })
                .collect()
        })
        .unwrap_or_default();
    // The six jobs=1 on-the-fly runs, one per subsumption tier, cold and warm. The
    // selector pins every other axis to the default so the tiers are the only variable.
    let sub_run = |mode: &str, warm: bool| {
        runs.iter().find(|r| {
            r.subsume == mode
                && r.warm == warm
                && r.jobs == 1
                && r.enumeration == "incremental"
                && r.prune
                && r.inclusion == "onthefly"
        })
    };
    let subsumption_reduction = sub_run("off", false)
        .zip(sub_run("off", true))
        .zip(sub_run("syntactic", false).zip(sub_run("syntactic", true)))
        .zip(sub_run("simulation", false).zip(sub_run("simulation", true)))
        .map(|(((oc, ow), (yc, yw)), (mc, mw))| {
            oc.benchmarks
                .iter()
                .enumerate()
                .map(|(i, o)| SubsumptionReductionRow {
                    adt: o.adt.clone(),
                    library: o.library.clone(),
                    off_cold_pairs: o.product_states,
                    syntactic_cold_pairs: yc.benchmarks[i].product_states,
                    simulation_cold_pairs: mc.benchmarks[i].product_states,
                    off_cold_seconds: o.check_seconds,
                    syntactic_cold_seconds: yc.benchmarks[i].check_seconds,
                    simulation_cold_seconds: mc.benchmarks[i].check_seconds,
                    off_warm_pairs: ow.benchmarks[i].product_states,
                    syntactic_warm_pairs: yw.benchmarks[i].product_states,
                    simulation_warm_pairs: mw.benchmarks[i].product_states,
                    off_warm_seconds: ow.benchmarks[i].check_seconds,
                    syntactic_warm_seconds: yw.benchmarks[i].check_seconds,
                    simulation_warm_seconds: mw.benchmarks[i].check_seconds,
                    subsumed_pairs: mc.benchmarks[i].subsumed_pairs,
                    simulation_memo_hits: mw.benchmarks[i].simulation_memo_hits,
                })
                .collect()
        })
        .unwrap_or_default();
    let lock_reduction = runs
        .iter()
        .find(|r| r.jobs == LOCK_COMPARISON_JOBS && !r.local_tiers && !r.warm)
        .zip(
            runs.iter()
                .find(|r| r.jobs == LOCK_COMPARISON_JOBS && r.local_tiers && !r.warm),
        )
        .map(|(shared_only, read_through)| {
            shared_only
                .benchmarks
                .iter()
                .zip(&read_through.benchmarks)
                .map(|(s, t)| LockReductionRow {
                    adt: s.adt.clone(),
                    library: s.library.clone(),
                    shared_only_locks: s.shared_tier_locks,
                    read_through_locks: t.shared_tier_locks,
                    read_through_hits: t.cache_hits,
                })
                .collect()
        })
        .unwrap_or_default();
    EngineComparison {
        runs,
        enum_reduction,
        prune_reduction,
        inclusion_reduction,
        subsumption_reduction,
        lock_reduction,
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

fn comparison_runs(benches: &[Benchmark]) -> Vec<EngineRun> {
    let parallel_jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8);
    let mut runs = Vec::new();
    let cold = |label: &str, config: EngineConfig| -> EngineRun {
        let engine = Engine::new(config.clone()).expect("in-memory engine");
        let summary = engine.check_benchmarks(benches);
        engine_run(label, &config, false, &summary)
    };
    runs.push(cold(
        "jobs=1 cold naive-enum",
        EngineConfig {
            enumeration: EnumerationMode::Naive,
            ..EngineConfig::default()
        },
    ));
    runs.push(cold(
        "jobs=1 cold materialised",
        EngineConfig {
            inclusion: InclusionMode::Materialise,
            ..EngineConfig::default()
        },
    ));
    runs.push(cold(
        "jobs=1 cold unpruned",
        EngineConfig {
            prune: false,
            ..EngineConfig::default()
        },
    ));
    let sequential_config = EngineConfig::default();
    let sequential = Engine::new(sequential_config.clone()).expect("in-memory engine");
    runs.push(engine_run(
        "jobs=1 cold",
        &sequential_config,
        false,
        &sequential.check_benchmarks(benches),
    ));
    runs.push(engine_run(
        "jobs=1 warm",
        &sequential_config,
        true,
        &sequential.check_benchmarks(benches),
    ));
    // The subsumption-tier pairs: the default jobs=1 cold/warm runs above already
    // measure `--subsume simulation` (the default), so only the off and syntactic
    // tiers need their own cold engine plus a warm rerun.
    for (name, mode) in [
        ("off", SubsumptionMode::Off),
        ("syntactic", SubsumptionMode::Syntactic),
    ] {
        let config = EngineConfig {
            subsume: mode,
            ..EngineConfig::default()
        };
        let engine = Engine::new(config.clone()).expect("in-memory engine");
        runs.push(engine_run(
            &format!("jobs=1 cold subsume-{name}"),
            &config,
            false,
            &engine.check_benchmarks(benches),
        ));
        runs.push(engine_run(
            &format!("jobs=1 warm subsume-{name}"),
            &config,
            true,
            &engine.check_benchmarks(benches),
        ));
    }
    let parallel_config = EngineConfig {
        jobs: parallel_jobs,
        ..EngineConfig::default()
    };
    let parallel = Engine::new(parallel_config.clone()).expect("in-memory engine");
    runs.push(engine_run(
        &format!("jobs={parallel_jobs} cold"),
        &parallel_config,
        false,
        &parallel.check_benchmarks(benches),
    ));
    runs.push(engine_run(
        &format!("jobs={parallel_jobs} warm"),
        &parallel_config,
        true,
        &parallel.check_benchmarks(benches),
    ));
    // The lock-traffic pair: identical cold workloads at a fixed worker count, differing
    // only in whether workers front the shared store with local read-through tiers.
    runs.push(cold(
        &format!("jobs={LOCK_COMPARISON_JOBS} cold shared-only"),
        EngineConfig {
            jobs: LOCK_COMPARISON_JOBS,
            local_tiers: false,
            ..EngineConfig::default()
        },
    ));
    runs.push(cold(
        &format!("jobs={LOCK_COMPARISON_JOBS} cold read-through"),
        EngineConfig {
            jobs: LOCK_COMPARISON_JOBS,
            ..EngineConfig::default()
        },
    ));
    runs
}

/// The `lsm` section of `BENCH_engine.json` v8: background-flush and compaction
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

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            '\t' => "\\t".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// The one schema version this writer knows how to lay out. Callers name the schema
/// they want and the writer refuses anything else — bumping the layout without bumping
/// the version string (or vice versa) becomes a hard error at the call site instead of
/// a silently mislabelled artefact.
pub const ENGINE_BENCH_SCHEMA: &str = "hat-engine-bench v9";

/// Serialises [`engine_comparison`], [`daemon_replay`], [`mixed_traffic_replay`] and
/// [`lsm_measurement`] measurements as JSON (hand-rolled: the build environment has no
/// serde). `schema` must be exactly [`ENGINE_BENCH_SCHEMA`]; any other string is
/// refused with [`std::io::ErrorKind::InvalidInput`] before the file is touched.
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
    let runs = &comparison.runs;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{")?;
    writeln!(out, "  \"schema\": \"{}\",", json_escape(schema))?;
    writeln!(
        out,
        "  \"skipped\": [{}],",
        comparison
            .skipped
            .iter()
            .map(|s| format!("\"{}\"", json_escape(s)))
            .collect::<Vec<_>>()
            .join(", ")
    )?;
    writeln!(out, "  \"enum_reduction\": [")?;
    for (i, row) in comparison.enum_reduction.iter().enumerate() {
        write!(
            out,
            "    {{\"adt\": \"{}\", \"library\": \"{}\", \"naive_queries\": {}, \"incremental_queries\": {}, \"reduction\": {:.3}, \"naive_enumeration\": {}, \"incremental_enumeration\": {}, \"enumeration_reduction\": {:.3}}}",
            json_escape(&row.adt),
            json_escape(&row.library),
            row.naive_queries,
            row.incremental_queries,
            row.reduction(),
            row.naive_enumeration,
            row.incremental_enumeration,
            row.enumeration_reduction()
        )?;
        writeln!(
            out,
            "{}",
            if i + 1 < comparison.enum_reduction.len() {
                ","
            } else {
                ""
            }
        )?;
    }
    writeln!(out, "  ],")?;
    writeln!(out, "  \"prune_reduction\": [")?;
    for (i, row) in comparison.prune_reduction.iter().enumerate() {
        write!(
            out,
            "    {{\"adt\": \"{}\", \"library\": \"{}\", \"unpruned_transitions\": {}, \"pruned_transitions\": {}, \"reduction\": {:.3}, \"unpruned_states\": {}, \"pruned_states\": {}, \"alphabet_pruned\": {}}}",
            json_escape(&row.adt),
            json_escape(&row.library),
            row.unpruned_transitions,
            row.pruned_transitions,
            row.reduction(),
            row.unpruned_states,
            row.pruned_states,
            row.alphabet_pruned
        )?;
        writeln!(
            out,
            "{}",
            if i + 1 < comparison.prune_reduction.len() {
                ","
            } else {
                ""
            }
        )?;
    }
    writeln!(out, "  ],")?;
    writeln!(out, "  \"inclusion_reduction\": [")?;
    for (i, row) in comparison.inclusion_reduction.iter().enumerate() {
        write!(
            out,
            "    {{\"adt\": \"{}\", \"library\": \"{}\", \"materialise_states\": {}, \"onthefly_simulation_states\": {}, \"materialise_transitions\": {}, \"onthefly_simulation_transitions\": {}, \"reduction\": {:.3}, \"product_states\": {}, \"materialise_seconds\": {:.6}, \"onthefly_simulation_seconds\": {:.6}}}",
            json_escape(&row.adt),
            json_escape(&row.library),
            row.materialise_states,
            row.onthefly_simulation_states,
            row.materialise_transitions,
            row.onthefly_simulation_transitions,
            row.reduction(),
            row.product_states,
            row.materialise_seconds,
            row.onthefly_simulation_seconds
        )?;
        writeln!(
            out,
            "{}",
            if i + 1 < comparison.inclusion_reduction.len() {
                ","
            } else {
                ""
            }
        )?;
    }
    writeln!(out, "  ],")?;
    writeln!(out, "  \"subsumption_reduction\": [")?;
    for (i, row) in comparison.subsumption_reduction.iter().enumerate() {
        write!(
            out,
            "    {{\"adt\": \"{}\", \"library\": \"{}\", \"off_cold_pairs\": {}, \"syntactic_cold_pairs\": {}, \"simulation_cold_pairs\": {}, \"cold_pair_reduction\": {:.3}, \"off_cold_seconds\": {:.6}, \"syntactic_cold_seconds\": {:.6}, \"simulation_cold_seconds\": {:.6}, \"off_warm_pairs\": {}, \"syntactic_warm_pairs\": {}, \"simulation_warm_pairs\": {}, \"off_warm_seconds\": {:.6}, \"syntactic_warm_seconds\": {:.6}, \"simulation_warm_seconds\": {:.6}, \"subsumed_pairs\": {}, \"simulation_memo_hits\": {}}}",
            json_escape(&row.adt),
            json_escape(&row.library),
            row.off_cold_pairs,
            row.syntactic_cold_pairs,
            row.simulation_cold_pairs,
            row.cold_pair_reduction(),
            row.off_cold_seconds,
            row.syntactic_cold_seconds,
            row.simulation_cold_seconds,
            row.off_warm_pairs,
            row.syntactic_warm_pairs,
            row.simulation_warm_pairs,
            row.off_warm_seconds,
            row.syntactic_warm_seconds,
            row.simulation_warm_seconds,
            row.subsumed_pairs,
            row.simulation_memo_hits
        )?;
        writeln!(
            out,
            "{}",
            if i + 1 < comparison.subsumption_reduction.len() {
                ","
            } else {
                ""
            }
        )?;
    }
    writeln!(out, "  ],")?;
    writeln!(out, "  \"lock_reduction\": [")?;
    for (i, row) in comparison.lock_reduction.iter().enumerate() {
        write!(
            out,
            "    {{\"adt\": \"{}\", \"library\": \"{}\", \"shared_only_locks\": {}, \"read_through_locks\": {}, \"reduction\": {:.3}, \"read_through_hits\": {}}}",
            json_escape(&row.adt),
            json_escape(&row.library),
            row.shared_only_locks,
            row.read_through_locks,
            row.reduction(),
            row.read_through_hits
        )?;
        writeln!(
            out,
            "{}",
            if i + 1 < comparison.lock_reduction.len() {
                ","
            } else {
                ""
            }
        )?;
    }
    writeln!(out, "  ],")?;
    if let Some(replay) = replay {
        writeln!(out, "  \"daemon_replay\": {{")?;
        writeln!(out, "    \"workers\": {},", replay.workers)?;
        for (name, phase, trailing) in [("cold", &replay.cold, ","), ("warm", &replay.warm, "")] {
            writeln!(out, "    \"{name}\": {{")?;
            writeln!(out, "      \"requests\": {},", phase.requests)?;
            writeln!(out, "      \"jobs\": {},", phase.jobs)?;
            writeln!(out, "      \"wall_seconds\": {:.6},", phase.wall_seconds)?;
            writeln!(
                out,
                "      \"requests_per_second\": {:.3},",
                phase.requests_per_second()
            )?;
            writeln!(
                out,
                "      \"p50_latency_seconds\": {:.6},",
                phase.p50_latency_seconds
            )?;
            writeln!(
                out,
                "      \"p95_latency_seconds\": {:.6},",
                phase.p95_latency_seconds
            )?;
            writeln!(out, "      \"cache_hits\": {},", phase.cache_hits)?;
            writeln!(out, "      \"cache_misses\": {},", phase.cache_misses)?;
            writeln!(out, "      \"disk_loaded\": {}", phase.disk_loaded)?;
            writeln!(out, "    }}{trailing}")?;
        }
        writeln!(out, "  }},")?;
    }
    if let Some(mixed) = mixed {
        writeln!(out, "  \"mixed_traffic\": {{")?;
        writeln!(out, "    \"workers\": {},", mixed.workers)?;
        writeln!(
            out,
            "    \"background_clients\": {},",
            mixed.background_clients
        )?;
        writeln!(
            out,
            "    \"background_batches\": {},",
            mixed.background_batches
        )?;
        writeln!(out, "    \"probes\": {},", mixed.probes)?;
        writeln!(
            out,
            "    \"uncontended_p50_seconds\": {:.6},",
            mixed.uncontended_p50_seconds
        )?;
        writeln!(
            out,
            "    \"uncontended_p95_seconds\": {:.6},",
            mixed.uncontended_p95_seconds
        )?;
        writeln!(
            out,
            "    \"contended_p50_seconds\": {:.6},",
            mixed.contended_p50_seconds
        )?;
        writeln!(
            out,
            "    \"contended_p95_seconds\": {:.6},",
            mixed.contended_p95_seconds
        )?;
        writeln!(
            out,
            "    \"contention_ratio_p95\": {:.3},",
            mixed.contention_ratio_p95()
        )?;
        writeln!(out, "    \"dedup_hits\": {},", mixed.dedup_hits)?;
        writeln!(
            out,
            "    \"queue_wait_p95_ms\": {:.3}",
            mixed.queue_wait_p95_ms
        )?;
        writeln!(out, "  }},")?;
    }
    if let Some(lsm) = lsm {
        writeln!(out, "  \"lsm\": {{")?;
        writeln!(out, "    \"flushes\": {},", lsm.flushes)?;
        writeln!(out, "    \"segments_written\": {},", lsm.segments_written)?;
        writeln!(out, "    \"segments_merged\": {},", lsm.segments_merged)?;
        writeln!(out, "    \"compactions\": {},", lsm.compactions)?;
        writeln!(
            out,
            "    \"write_amplification\": {:.3},",
            lsm.write_amplification
        )?;
        writeln!(out, "    \"records_1x\": {},", lsm.records_1x)?;
        writeln!(out, "    \"warm_load_ms_1x\": {:.3},", lsm.warm_load_ms_1x)?;
        writeln!(out, "    \"records_10x\": {},", lsm.records_10x)?;
        writeln!(out, "    \"warm_load_ms_10x\": {:.3}", lsm.warm_load_ms_10x)?;
        writeln!(out, "  }},")?;
    }
    writeln!(out, "  \"runs\": [")?;
    for (i, run) in runs.iter().enumerate() {
        writeln!(out, "    {{")?;
        writeln!(out, "      \"label\": \"{}\",", json_escape(&run.label))?;
        writeln!(out, "      \"jobs\": {},", run.jobs)?;
        writeln!(out, "      \"warm_cache\": {},", run.warm)?;
        writeln!(out, "      \"enumeration\": \"{}\",", run.enumeration)?;
        writeln!(out, "      \"prune\": {},", run.prune)?;
        writeln!(out, "      \"inclusion\": \"{}\",", run.inclusion)?;
        writeln!(out, "      \"subsume\": \"{}\",", run.subsume)?;
        writeln!(out, "      \"local_tiers\": {},", run.local_tiers)?;
        writeln!(out, "      \"wall_seconds\": {:.6},", run.wall_seconds)?;
        writeln!(out, "      \"cache_hits\": {},", run.cache.hits)?;
        writeln!(out, "      \"cache_misses\": {},", run.cache.misses)?;
        writeln!(
            out,
            "      \"cache_hit_rate\": {:.6},",
            run.cache.hit_rate()
        )?;
        writeln!(
            out,
            "      \"minterm_memo_hits\": {},",
            run.cache.minterm_hits
        )?;
        writeln!(
            out,
            "      \"transition_memo_hits\": {},",
            run.cache.transition_hits
        )?;
        writeln!(
            out,
            "      \"lock_acquisitions\": {},",
            run.cache.lock_acquisitions
        )?;
        writeln!(out, "      \"benchmarks\": [")?;
        for (j, b) in run.benchmarks.iter().enumerate() {
            write!(
                out,
                "        {{\"adt\": \"{}\", \"library\": \"{}\", \"check_seconds\": {:.6}, \"sat_queries\": {}, \"enum_queries\": {}, \"pruned_subtrees\": {}, \"minterm_memo_hits\": {}, \"inclusion_memo_hits\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"dfa_states\": {}, \"dfa_transitions\": {}, \"alphabet_pruned\": {}, \"transition_memo_hits\": {}, \"product_states\": {}, \"shape_memo_hits\": {}, \"shared_tier_locks\": {}, \"subsumption_checks\": {}, \"subsumed_pairs\": {}, \"simulation_memo_hits\": {}}}",
                json_escape(&b.adt),
                json_escape(&b.library),
                b.check_seconds,
                b.sat_queries,
                b.enum_queries,
                b.pruned_subtrees,
                b.minterm_memo_hits,
                b.inclusion_memo_hits,
                b.cache_hits,
                b.cache_misses,
                b.dfa_states,
                b.dfa_transitions,
                b.alphabet_pruned,
                b.transition_memo_hits,
                b.product_states,
                b.shape_memo_hits,
                b.shared_tier_locks,
                b.subsumption_checks,
                b.subsumed_pairs,
                b.simulation_memo_hits
            )?;
            writeln!(
                out,
                "{}",
                if j + 1 < run.benchmarks.len() {
                    ","
                } else {
                    ""
                }
            )?;
        }
        writeln!(out, "      ]")?;
        writeln!(out, "    }}{}", if i + 1 < runs.len() { "," } else { "" })?;
    }
    writeln!(out, "  ]")?;
    writeln!(out, "}}")?;
    Ok(())
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
        r.stats.avg_fa_size,
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
        let comparison = EngineComparison {
            runs: Vec::new(),
            enum_reduction: Vec::new(),
            prune_reduction: Vec::new(),
            inclusion_reduction: Vec::new(),
            subsumption_reduction: Vec::new(),
            lock_reduction: Vec::new(),
            skipped: Vec::new(),
        };
        let mut path = std::env::temp_dir();
        path.push(format!(
            "hat-bench-schema-refusal-{}.json",
            std::process::id()
        ));
        let path = path.to_str().expect("utf-8 temp path");
        // The pre-v9 string must be refused before the file is touched: the writer's
        // layout no longer matches it.
        let err = write_engine_json(path, "hat-engine-bench v8", &comparison, None, None, None)
            .expect_err("an outdated schema string must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(
            !std::path::Path::new(path).exists(),
            "a refused write must not leave a file behind"
        );
        write_engine_json(path, ENGINE_BENCH_SCHEMA, &comparison, None, None, None)
            .expect("the writer's own schema constant is accepted");
        let written = std::fs::read_to_string(path).expect("the accepted write lands");
        std::fs::remove_file(path).ok();
        assert!(written.contains("\"schema\": \"hat-engine-bench v9\""));
        assert!(written.contains("\"subsumption_reduction\""));
    }
}
