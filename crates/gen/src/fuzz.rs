//! The end-to-end fuzz driver.
//!
//! For every generated configuration the driver asserts the constructed verdicts
//! against every layer it can reach in-process:
//!
//! 1. **sorting** — the generator's well-sortedness promise (`⊢s`),
//! 2. **checker** — a plain [`hat_core::Checker`] with no engine around it,
//! 3. **engine** — one [`EngineConfig`] knob combination per configuration, rotating
//!    through the full `jobs × prune × inclusion × enumeration × local-tiers` cross
//!    (32 combinations) so a long run exercises every cell while
//!    each configuration stays cheap; engines persist across configurations, so the
//!    shared memo tiers accumulate exactly as they would in a long-lived daemon,
//! 4. **warm** — an immediate resubmission of the same configuration to the same
//!    engine, answered from the memo tiers (optionally backed by a store file via
//!    [`FuzzConfig::cache_path`]).
//!
//! The daemon wire stage cannot live here (the daemon depends on this crate to
//! resolve generated names), so `marple fuzz --remote` adds it client-side by
//! re-checking a configuration's name over the socket and feeding the reports to
//! [`disagreements_in`].
//!
//! On the first disagreement the driver stops and hands the recipe to
//! [`crate::shrink::shrink`], re-running only the stages that disagreed; the shrunk
//! recipe's name is a standalone reproducer (`marple check gen <name>`).

use crate::shrink::shrink;
use crate::spec::GenSpec;
use crate::well_sorted;
use hat_core::MethodReport;
use hat_engine::{Engine, EngineConfig};
use hat_sfa::{EnumerationMode, InclusionMode};
use hat_suite::Benchmark;
use std::fmt;
use std::path::PathBuf;

/// One observed-vs-constructed verdict mismatch.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Which stage observed it (`sorting`, `checker`, `engine <knobs>`, `warm`,
    /// `remote`, …).
    pub stage: String,
    /// Method name.
    pub method: String,
    /// The constructed verdict.
    pub expected: bool,
    /// What the stage reported.
    pub got: bool,
}

impl fmt::Display for Disagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} expected verified={} got {}",
            self.stage, self.method, self.expected, self.got
        )
    }
}

/// Compares a stage's reports against the constructed expectations.
pub fn disagreements_in(
    stage: &str,
    bench: &Benchmark,
    reports: &[MethodReport],
) -> Vec<Disagreement> {
    let mut out = Vec::new();
    for (m, r) in bench.methods.iter().zip(reports) {
        if r.verified != m.expect_verified {
            out.push(Disagreement {
                stage: stage.to_string(),
                method: m.sig.name.clone(),
                expected: m.expect_verified,
                got: r.verified,
            });
        }
    }
    if reports.len() < bench.methods.len() {
        for m in &bench.methods[reports.len()..] {
            out.push(Disagreement {
                stage: format!("{stage} (missing report)"),
                method: m.sig.name.clone(),
                expected: m.expect_verified,
                got: !m.expect_verified,
            });
        }
    }
    out
}

/// Runs one configuration through a plain checker (no engine, no cache) and compares.
pub fn checker_disagreements(bench: &Benchmark) -> Vec<Disagreement> {
    if let Err(e) = well_sorted(bench) {
        // A sorting failure breaks the generator's core promise; surface it as a
        // disagreement on every method rather than panicking, so it shrinks too.
        return bench
            .methods
            .iter()
            .map(|m| Disagreement {
                stage: format!("sorting ({e})"),
                method: m.sig.name.clone(),
                expected: m.expect_verified,
                got: !m.expect_verified,
            })
            .collect();
    }
    let reports = bench.check_all();
    disagreements_in("checker", bench, &reports)
}

/// The full `jobs × prune × inclusion × enumeration × local-tiers` knob cross (32
/// combinations). `cache_path` attaches the store file to the first
/// (all-defaults) combination only — the store's sidecar lock is single-writer per
/// path, so giving it to every combination would just make 31 engines degrade to
/// memory with a warning each.
pub fn full_matrix(cache_path: Option<&PathBuf>) -> Vec<(String, EngineConfig)> {
    let mut cache_path = cache_path.cloned();
    let mut out = Vec::new();
    for jobs in [1usize, 6] {
        for prune in [true, false] {
            for inclusion in [InclusionMode::OnTheFly, InclusionMode::Materialise] {
                for enumeration in [EnumerationMode::Incremental, EnumerationMode::Naive] {
                    for local_tiers in [true, false] {
                        let label = format!(
                            "jobs={jobs} prune={} inclusion={} enum={} local-tiers={}",
                            if prune { "on" } else { "off" },
                            match inclusion {
                                InclusionMode::OnTheFly => "onthefly",
                                InclusionMode::Materialise => "materialise",
                            },
                            match enumeration {
                                EnumerationMode::Incremental => "incremental",
                                EnumerationMode::Naive => "naive",
                            },
                            if local_tiers { "on" } else { "off" },
                        );
                        let cache_path = cache_path.take();
                        let label = if cache_path.is_some() {
                            format!("{label} store=on")
                        } else {
                            label
                        };
                        out.push((
                            label,
                            EngineConfig {
                                jobs,
                                cache_path,
                                enumeration,
                                prune,
                                inclusion,
                                local_tiers,
                                ..EngineConfig::default()
                            },
                        ));
                    }
                }
            }
        }
    }
    out
}

/// The satellite-test core matrix: `jobs {1,6} × prune × inclusion` (8 combinations),
/// with default enumeration and local tiers.
pub fn core_matrix(cache_path: Option<&PathBuf>) -> Vec<(String, EngineConfig)> {
    full_matrix(cache_path)
        .into_iter()
        .filter(|(l, _)| l.contains("enum=incremental") && l.contains("local-tiers=on"))
        .map(|(l, c)| (l.replace(" enum=incremental local-tiers=on", ""), c))
        .collect()
}

/// Fuzz-run options.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Stream seed.
    pub seed: u64,
    /// Number of configurations (indices `0..count`).
    pub count: u64,
    /// Run every configuration under *every* knob combination instead of rotating
    /// one combination per configuration. Much slower; used by the corpus tests.
    pub exhaustive_knobs: bool,
    /// Optional store file shared by the engines (exercises persistence; the file's
    /// records accumulate across the run).
    pub cache_path: Option<PathBuf>,
    /// Progress callback cadence (configurations between `progress` calls).
    pub progress_every: u64,
}

impl FuzzConfig {
    /// A default run of `count` configurations from `seed`.
    pub fn new(seed: u64, count: u64) -> Self {
        FuzzConfig {
            seed,
            count,
            exhaustive_knobs: false,
            cache_path: None,
            progress_every: 100,
        }
    }
}

/// A failing configuration, shrunk.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The originally drawn recipe.
    pub spec: GenSpec,
    /// The greedily minimised recipe (still failing).
    pub shrunk: GenSpec,
    /// The disagreements observed on the *original* configuration.
    pub disagreements: Vec<Disagreement>,
    /// The disagreements still observed on the shrunk configuration.
    pub shrunk_disagreements: Vec<Disagreement>,
}

/// Outcome of a fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzOutcome {
    /// Configurations checked (stops early on the first failure).
    pub checked: u64,
    /// Method verdicts asserted across all stages.
    pub verdicts: u64,
    /// The first failing configuration, if any, with its shrunk reproducer.
    pub failure: Option<FuzzFailure>,
}

impl FuzzOutcome {
    /// Whether every verdict across every stage matched its construction.
    pub fn clean(&self) -> bool {
        self.failure.is_none()
    }
}

/// Runs the fuzz loop. `log` receives human-readable progress lines.
pub fn fuzz(cfg: &FuzzConfig, log: &mut dyn FnMut(String)) -> FuzzOutcome {
    let matrix = full_matrix(cfg.cache_path.as_ref());
    // Engines are created lazily per knob combination and kept for the whole run, so
    // their memo tiers see many distinct configurations — the long-lived-daemon shape.
    let mut engines: Vec<Option<Engine>> = matrix.iter().map(|_| None).collect();
    let mut outcome = FuzzOutcome::default();

    for index in 0..cfg.count {
        let spec = crate::spec(cfg.seed, index);
        let combos: Vec<usize> = if cfg.exhaustive_knobs {
            (0..matrix.len()).collect()
        } else {
            vec![(index % matrix.len() as u64) as usize]
        };
        let disagreements =
            run_stages(&spec, &matrix, &mut engines, &combos, &mut outcome.verdicts);
        if !disagreements.is_empty() {
            log(format!(
                "config {index} disagreed ({}); shrinking…",
                disagreements
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; ")
            ));
            let mut scratch = 0u64;
            let shrunk = shrink(&spec, |cand| {
                !run_stages(cand, &matrix, &mut engines, &combos, &mut scratch).is_empty()
            });
            let shrunk_disagreements =
                run_stages(&shrunk, &matrix, &mut engines, &combos, &mut scratch);
            outcome.failure = Some(FuzzFailure {
                spec,
                shrunk,
                disagreements,
                shrunk_disagreements,
            });
            outcome.checked = index + 1;
            return outcome;
        }
        outcome.checked = index + 1;
        if cfg.progress_every > 0 && (index + 1) % cfg.progress_every == 0 {
            log(format!(
                "{}/{} configurations clean ({} verdicts asserted)",
                index + 1,
                cfg.count,
                outcome.verdicts
            ));
        }
    }
    outcome
}

/// Runs one recipe through the in-process stages; returns all disagreements.
fn run_stages(
    spec: &GenSpec,
    matrix: &[(String, EngineConfig)],
    engines: &mut [Option<Engine>],
    combos: &[usize],
    verdicts: &mut u64,
) -> Vec<Disagreement> {
    let bench = spec.build();
    let mut out = checker_disagreements(&bench);
    *verdicts += bench.methods.len() as u64;
    for &ci in combos {
        let (label, config) = &matrix[ci];
        if engines[ci].is_none() {
            match Engine::new(config.clone()) {
                Ok(e) => engines[ci] = Some(e),
                Err(e) => {
                    out.push(Disagreement {
                        stage: format!("engine {label} (failed to start: {e})"),
                        method: "*".into(),
                        expected: true,
                        got: false,
                    });
                    continue;
                }
            }
        }
        let engine = engines[ci].as_ref().expect("engine created above");
        let benches = std::slice::from_ref(&bench);
        // Cold (for this configuration) …
        let summary = engine.check_benchmarks(benches);
        out.extend(disagreements_in(
            &format!("engine {label}"),
            &bench,
            &summary.benchmarks[0].reports,
        ));
        *verdicts += bench.methods.len() as u64;
        // … then warm: the same configuration answered from the memo tiers.
        let warm = engine.check_benchmarks(benches);
        out.extend(disagreements_in(
            &format!("warm {label}"),
            &bench,
            &warm.benchmarks[0].reports,
        ));
        *verdicts += bench.methods.len() as u64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrices_have_the_advertised_sizes() {
        assert_eq!(full_matrix(None).len(), 32);
        let core = core_matrix(None);
        assert_eq!(core.len(), 8);
        for (label, c) in &core {
            assert!(c.local_tiers, "{label}");
            assert_eq!(c.enumeration, EnumerationMode::Incremental, "{label}");
        }
    }

    #[test]
    fn a_small_run_is_clean() {
        let mut lines = Vec::new();
        let outcome = fuzz(&FuzzConfig::new(99, 6), &mut |l| lines.push(l));
        assert!(
            outcome.clean(),
            "failure: {:?}",
            outcome.failure.map(|f| f
                .disagreements
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>())
        );
        assert_eq!(outcome.checked, 6);
        assert!(outcome.verdicts > 0);
    }

    #[test]
    fn an_injected_expectation_flip_is_caught_and_shrunk() {
        // Deliberately lie about one method's expected verdict: the driver must
        // catch the disagreement and shrink it to a small reproducer (for a single
        // lie, a 1-method reproducer — well inside the ≤3-method acceptance bound).
        let spec = (0..64)
            .map(|i| crate::spec(31, i))
            .find(|s| s.methods.len() >= 2)
            .expect("stream contains a multi-method spec");
        let victim = spec.methods[1].name.clone();
        let lie = |cand: &GenSpec| {
            let mut bench = cand.build();
            for m in &mut bench.methods {
                if m.sig.name == victim {
                    m.expect_verified = !m.expect_verified;
                }
            }
            checker_disagreements(&bench)
                .iter()
                .any(|d| d.method == victim)
        };
        assert!(
            lie(&spec),
            "the lie is observable on the full configuration"
        );
        let shrunk = shrink(&spec, lie);
        assert!(
            shrunk.live_methods().len() <= 3,
            "reproducer has {} methods",
            shrunk.live_methods().len()
        );
        let b = shrunk.build();
        assert!(b.methods.iter().any(|m| m.sig.name == victim));
    }
}
