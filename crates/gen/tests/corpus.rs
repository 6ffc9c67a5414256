//! The committed 64-configuration corpus, pinned two ways:
//!
//! * **Golden snapshot** (`tests/gen_corpus_verdicts.txt`): one line per corpus
//!   (configuration, method) pair with its recipe tag, constructed verdict, and the
//!   plain checker's verdict — the same golden discipline as the engine's
//!   `golden_verdicts.txt`. A generator drift (different draw for the same seed) or a
//!   checker drift (different verdict for the same configuration) both show up as a
//!   snapshot diff; regenerate intentionally with
//!   `UPDATE_GOLDEN=1 cargo test -p hat-gen --test corpus`.
//! * **Knob-matrix differential**: the corpus re-verified under the core engine knob
//!   cross (`jobs {1,6} × prune × inclusion`) and under a disk-backed store cold and
//!   warm — every verdict must equal the constructed one (and therefore every other
//!   combination's) bit for bit.

use hat_engine::{Engine, EngineConfig};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;

fn corpus() -> &'static [hat_suite::Benchmark] {
    static CORPUS: OnceLock<Vec<hat_suite::Benchmark>> = OnceLock::new();
    CORPUS.get_or_init(hat_gen::corpus)
}

fn render_snapshot() -> String {
    let specs = hat_gen::corpus_specs();
    let mut out = String::new();
    out.push_str(
        "# Generated-corpus verdict snapshot — one line per (configuration, method) pair.\n",
    );
    out.push_str("# Format: gen/<library>::<method> <shape[+mutation]> expected=<bool> verdict=<bool> [DIVERGENT]\n");
    out.push_str(&format!(
        "# Corpus: seed {} indices 0..{}; regenerate with UPDATE_GOLDEN=1 cargo test -p hat-gen --test corpus\n",
        hat_gen::CORPUS_SEED,
        hat_gen::CORPUS_SIZE
    ));
    for (spec, bench) in specs.iter().zip(corpus()) {
        let reports = bench.check_all();
        for ((ms, m), r) in spec.methods.iter().zip(&bench.methods).zip(&reports) {
            let divergent = if r.verified == m.expect_verified {
                ""
            } else {
                " DIVERGENT"
            };
            writeln!(
                out,
                "gen/{}::{} {} expected={} verdict={}{}",
                bench.library,
                m.sig.name,
                ms.tag(),
                m.expect_verified,
                r.verified,
                divergent
            )
            .expect("writing to a String cannot fail");
        }
    }
    out
}

/// Every constructed verdict must match the plain checker — a `DIVERGENT` marker is a
/// generator or checker bug, never an acceptable snapshot state (this fires under
/// `UPDATE_GOLDEN=1` too, so a regeneration cannot pin one).
#[test]
fn corpus_verdicts_match_the_golden_snapshot() {
    let rendered = render_snapshot();
    let divergent: Vec<&str> = rendered
        .lines()
        .filter(|l| l.ends_with("DIVERGENT"))
        .collect();
    assert!(
        divergent.is_empty(),
        "constructed verdicts diverge from the checker:\n{}",
        divergent.join("\n")
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/gen_corpus_verdicts.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, rendered).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}; regenerate with UPDATE_GOLDEN=1 cargo test -p hat-gen --test corpus",
            path.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "generated corpus verdicts changed; if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test -p hat-gen --test corpus"
    );
}

/// Collects `(library, method, verified)` triples of a batch run, asserting them
/// against the constructed verdicts as it goes.
fn verdict_vector(label: &str, engine: &Engine, benches: &[hat_suite::Benchmark]) -> Vec<bool> {
    let summary = engine.check_benchmarks(benches);
    let mut out = Vec::new();
    for (bench, run) in benches.iter().zip(&summary.benchmarks) {
        assert_eq!(
            run.reports.len(),
            bench.methods.len(),
            "[{label}] gen/{}: partial report",
            bench.library
        );
        for (m, r) in bench.methods.iter().zip(&run.reports) {
            assert_eq!(
                r.verified, m.expect_verified,
                "[{label}] gen/{}::{} disagrees with construction",
                bench.library, m.sig.name
            );
            out.push(r.verified);
        }
    }
    out
}

/// The corpus under the core knob cross — every combination's verdict vector is
/// bit-identical to the constructed one (and therefore to every other combination's).
///
/// Budgeted for debug-build CI: the *full* corpus runs under the two most adversarial
/// contrast points of the cross (sequential default vs 6 workers with every
/// non-default knob), and a 20-configuration slice runs under all 8 core
/// combinations. `marple fuzz --exhaustive` covers the full cross on demand.
#[test]
fn corpus_verdicts_are_knob_invariant() {
    let benches = corpus();
    let contrast = [
        ("jobs=1 defaults", EngineConfig::default()),
        (
            "jobs=6 prune=off inclusion=materialise",
            EngineConfig {
                jobs: 6,
                prune: false,
                inclusion: hat_sfa::InclusionMode::Materialise,
                ..EngineConfig::default()
            },
        ),
    ];
    let mut vectors = Vec::new();
    for (label, config) in contrast {
        let engine = Engine::new(config).expect("in-memory engine");
        vectors.push((label.to_string(), verdict_vector(label, &engine, benches)));
    }
    let (first_label, first) = &vectors[0];
    for (label, v) in &vectors[1..] {
        assert_eq!(
            v, first,
            "verdicts differ between `{first_label}` and `{label}`"
        );
    }

    let slice = &benches[..20];
    let mut slice_vectors = Vec::new();
    for (label, config) in hat_gen::fuzz::core_matrix(None) {
        let engine = Engine::new(config).expect("in-memory engine");
        slice_vectors.push((label.clone(), verdict_vector(&label, &engine, slice)));
    }
    let (first_label, first) = &slice_vectors[0];
    for (label, v) in &slice_vectors[1..] {
        assert_eq!(
            v, first,
            "verdicts differ between `{first_label}` and `{label}`"
        );
    }
}

/// A corpus slice against a disk-backed store, cold then warm: the second engine
/// starts from the file the first one wrote and must reproduce the verdicts exactly.
#[test]
fn corpus_verdicts_survive_the_disk_cache() {
    let dir = std::env::temp_dir().join(format!("hat-gen-corpus-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let cache = dir.join("corpus.cache");
    let slice = &corpus()[..16];
    let config = |jobs: usize| EngineConfig {
        jobs,
        cache_path: Some(cache.clone()),
        ..EngineConfig::default()
    };
    let cold = {
        let engine = Engine::new(config(2)).expect("cold engine");
        verdict_vector("store-cold", &engine, slice)
    };
    // Engine dropped: the store file is on disk. A fresh engine warms from it.
    let warm = {
        let engine = Engine::new(config(1)).expect("warm engine");
        verdict_vector("store-warm", &engine, slice)
    };
    assert_eq!(cold, warm, "cold and warm verdict vectors differ");
    std::fs::remove_dir_all(&dir).ok();
}
