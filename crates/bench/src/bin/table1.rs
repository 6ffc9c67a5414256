//! Regenerates Table 1 of the paper: one row per (ADT, library) configuration with the
//! method count, ghost count, invariant size, total verification time and the work
//! counters of the most demanding method. Afterwards it runs the knob ablation: the
//! `hat-engine` subsystem over the whole suite once per knob setting — 1 vs N jobs,
//! cold vs warm cache, and each enumeration, pruning, inclusion, subsumption and
//! local-tier knob off its default — and writes `BENCH_engine.json`: one row per run
//! with its wall time and every counter per configuration.
//!
//! Usage: `cargo run --release -p hat-bench --bin table1 [adt-filter]`
//!
//! Every run checks every configuration, except that the naive-enumeration run leaves
//! out the ones marked `slow` (a naive cold FileSystem/KVStore check takes about four
//! minutes) and names them in its row. With an ADT filter only the table is printed and
//! the ablation is skipped.
//!
//! It exits 1 when a verdict of the table or of the ablation differs from the suite's
//! expected outcome, naming each run, configuration and method, and when the file
//! cannot be written.

use hat_bench::{
    engine_comparison, method_columns, table1_row, write_engine_json, ENGINE_BENCH_SCHEMA,
};
use hat_engine::verdict_mismatches;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let filter = match args.as_slice() {
        [] => String::new(),
        [adt] if !adt.starts_with('-') => adt.to_lowercase(),
        _ => {
            eprintln!("usage: table1 [adt-filter]");
            std::process::exit(2);
        }
    };
    let suite = hat_suite::all_benchmarks();
    let mut mismatches = Vec::new();
    println!(
        "{:<15} {:<11} {:>7} {:>6} {:>4} {:>9} | hardest: {:>8} {:>5} {:>6} {:>6} {:>6} {:>9} {:>9} {:>9}",
        "ADT", "Library", "#Method", "#Ghost", "s_I", "t_total", "#Branch", "#App", "#SAT", "#FA⊆", "#Asm", "avg sFA", "tSAT", "tFA⊆"
    );
    for bench in &suite {
        if !filter.is_empty()
            && !bench.adt.to_lowercase().contains(&filter)
            && !bench.library.to_lowercase().contains(&filter)
        {
            continue;
        }
        let (row, run) = table1_row(bench);
        let hardest = row
            .hardest
            .as_ref()
            .map(method_columns)
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<15} {:<11} {:>7} {:>6} {:>4} {:>9.2} | {}",
            row.adt,
            row.library,
            row.methods,
            row.ghosts,
            row.invariant_size,
            row.total_seconds,
            hardest
        );
        mismatches.extend(verdict_mismatches(
            "Table 1",
            &suite,
            std::slice::from_ref(&run),
        ));
    }

    if filter.is_empty() {
        eprintln!("measuring hat-engine (one run per knob setting)...");
        let runs = engine_comparison(&suite);
        for run in &runs {
            let skipped = if run.skipped.is_empty() {
                String::new()
            } else {
                format!(", skips {}", run.skipped.join(", "))
            };
            eprintln!(
                "{:<30} wall {:>6.2}s, {} hits / {} misses{skipped}",
                run.label,
                run.summary.wall.as_secs_f64(),
                run.summary.cache.hits,
                run.summary.cache.misses
            );
            mismatches.extend(verdict_mismatches(
                &run.label,
                &suite,
                &run.summary.benchmarks,
            ));
        }
        let path = "BENCH_engine.json";
        match write_engine_json(path, ENGINE_BENCH_SCHEMA, &runs) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    for mismatch in &mismatches {
        eprintln!("!! verdict mismatch: {mismatch}");
    }
    if !mismatches.is_empty() {
        std::process::exit(1);
    }
}
