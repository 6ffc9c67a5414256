//! Diagnostic: per-record-kind shared-tier lock traffic on the non-slow suite at
//! `jobs=6`, with and without per-worker read-through tiers.
//!
//! ```console
//! $ cargo run --release -p hat-engine --example lockprobe
//! local_tiers=false: [(Solver, 329), (Inclusion, 270), (Shape, 395), (Minterms, 210), (Transition, 11815), (Subsumption, 720)]
//! local_tiers=true: [(Solver, 146), (Inclusion, 253), (Shape, 384), (Minterms, 208), (Transition, 6567), (Subsumption, 703)]
//! ```
//!
//! Transitions dominate both runs: most of their lookups are a worker's first sight
//! of a key, which crosses the shared tier once in any read-through design.
//!
//! The full-suite evidence for the lock-reduction claim lives in
//! `BENCH_engine.json` (the `jobs=6` shared-only and read-through runs written by
//! the `table1` binary); this probe is the quick way to see *which kind's* traffic a
//! tier-policy change moves.

fn main() {
    let benches: Vec<_> = hat_suite::all_benchmarks()
        .into_iter()
        .filter(|b| !b.slow)
        .collect();
    for local in [false, true] {
        let engine = hat_engine::Engine::new(hat_engine::EngineConfig {
            jobs: 6,
            local_tiers: local,
            ..Default::default()
        })
        .expect("in-memory engine");
        engine.check_benchmarks(&benches);
        println!("local_tiers={local}: {:?}", engine.cache().lock_breakdown());
    }
}
