//! Work-counter golden for the committed corpus: the totals of every count in the
//! `CheckStats` schema, summed over all 64 configurations checked by a plain
//! (uncached) checker in the default modes, must equal the recorded baseline
//! (`tests/corpus_work_counters.txt`, one `name total` line per counter). These
//! counters are deterministic, so the guard can fail where wall clock cannot: a
//! refactor that silently stops alphabet pruning or the absorption rules of the smart
//! constructors from firing keeps verdicts right but grows `product_states` or
//! `dfa_transitions`, and one that changes enumeration moves `enum_queries` or
//! `sat_queries`. Timings are not pinned.
//!
//! If a change legitimately moves a counter, re-record with
//! `UPDATE_BASELINE=1 cargo test -p hat-gen --test product_states_guard`.

use hat_core::CheckStats;
use hat_sfa::Counter;

#[test]
fn corpus_work_counters_match_the_recorded_baseline() {
    let baseline_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/corpus_work_counters.txt"
    );
    let mut total = CheckStats::default();
    for bench in hat_gen::corpus() {
        let mut checker = hat_core::Checker::new(bench.delta.clone());
        for m in &bench.methods {
            let report = checker
                .check_method(&m.sig, &m.body)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", bench.adt, bench.library));
            total += report.stats;
        }
    }
    let measured: String = total
        .counters()
        .filter_map(|(name, counter)| match counter {
            Counter::Count(n) => Some(format!("{name} {n}\n")),
            Counter::Time(_) => None,
        })
        .collect();
    if std::env::var_os("UPDATE_BASELINE").is_some() {
        std::fs::write(baseline_path, &measured).expect("baseline rewritten");
        return;
    }
    let recorded = std::fs::read_to_string(baseline_path).expect("committed baseline file");
    for (want, got) in recorded.lines().zip(measured.lines()) {
        assert_eq!(
            got, want,
            "a corpus work counter moved (measured vs recorded `name total`): re-record \
             with UPDATE_BASELINE=1 only if the change is intended"
        );
    }
    assert_eq!(
        recorded.lines().count(),
        measured.lines().count(),
        "the baseline must pin every count in the schema, in schema order"
    );
}
