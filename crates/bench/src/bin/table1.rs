//! Regenerates Table 1 of the paper: one row per (ADT, library) configuration with the
//! method count, ghost count, invariant size, total verification time and the work
//! counters of the most demanding method. Afterwards it runs the `hat-engine`
//! subsystem once per knob setting — 1 vs N jobs, cold vs warm cache, and each
//! enumeration, pruning, inclusion, subsumption and local-tier knob off its default —
//! replays the suite against an in-process `marpled` daemon (cold client, then a warm
//! second client), and writes the measurements to `BENCH_engine.json`: one row per
//! run with its wall time and every counter per configuration. It exits non-zero when
//! the file cannot be written.
//!
//! Usage: `cargo run --release -p hat-bench --bin table1 [adt-filter|--full]`
//!
//! By default the engine comparison excludes the configurations marked `slow` in the
//! suite (a single cold FileSystem/KVStore run takes tens of minutes); pass `--full` to
//! include them. The excluded names are recorded in the JSON, never dropped silently.
//! With an ADT filter only the table is printed and the engine comparison is skipped.

use hat_bench::{
    daemon_replay, engine_comparison, lsm_measurement, method_columns, mixed_traffic_replay,
    table1_row, write_engine_json, ENGINE_BENCH_SCHEMA,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut include_slow = false;
    let mut filter = String::new();
    for arg in &args {
        match arg.as_str() {
            "--full" => include_slow = true,
            other if other.starts_with('-') => {
                eprintln!("unknown option `{other}`\nusage: table1 [adt-filter] [--full]");
                std::process::exit(2);
            }
            other if filter.is_empty() => filter = other.to_lowercase(),
            other => {
                eprintln!("unexpected argument `{other}`\nusage: table1 [adt-filter] [--full]");
                std::process::exit(2);
            }
        }
    }
    println!(
        "{:<15} {:<11} {:>7} {:>6} {:>4} {:>9} | hardest: {:>8} {:>5} {:>6} {:>6} {:>6} {:>9} {:>9} {:>9}",
        "ADT", "Library", "#Method", "#Ghost", "s_I", "t_total", "#Branch", "#App", "#SAT", "#FA⊆", "#Asm", "avg sFA", "tSAT", "tFA⊆"
    );
    for bench in hat_suite::all_benchmarks() {
        if !filter.is_empty()
            && !bench.adt.to_lowercase().contains(&filter)
            && !bench.library.to_lowercase().contains(&filter)
        {
            continue;
        }
        if bench.slow && !include_slow && filter.is_empty() {
            println!(
                "{:<15} {:<11} (slow configuration; run with --full or an ADT filter)",
                bench.adt, bench.library
            );
            continue;
        }
        let (row, _) = table1_row(&bench);
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
        if !row.all_as_expected {
            println!("    !! some method did not match its expected verification outcome");
        }
    }

    if filter.is_empty() {
        eprintln!("measuring hat-engine (one run per knob setting)...");
        let comparison = engine_comparison(&hat_suite::all_benchmarks(), include_slow);
        if !comparison.skipped.is_empty() {
            eprintln!(
                "engine comparison excludes slow configurations: {} (pass --full to include)",
                comparison.skipped.join(", ")
            );
        }
        for run in &comparison.runs {
            eprintln!(
                "{:<30} wall {:>6.2}s, {} hits / {} misses",
                run.label,
                run.summary.wall.as_secs_f64(),
                run.summary.cache.hits,
                run.summary.cache.misses
            );
        }
        eprintln!("replaying the suite against an in-process marpled (cold, then warm client)...");
        let replay = daemon_replay(&hat_suite::all_benchmarks(), 2);
        eprintln!(
            "daemon replay: cold {} requests at {:.2} req/s (p50 {:.3}s, p95 {:.3}s); warm {:.2} req/s (p50 {:.3}s, p95 {:.3}s), {} misses, {} disk loads",
            replay.cold.requests,
            replay.cold.requests_per_second(),
            replay.cold.p50_latency_seconds,
            replay.cold.p95_latency_seconds,
            replay.warm.requests_per_second(),
            replay.warm.p50_latency_seconds,
            replay.warm.p95_latency_seconds,
            replay.warm.cache.misses,
            replay.warm.cache.disk_loaded
        );
        eprintln!(
            "measuring mixed-traffic fairness (probe checks vs background check-all clients)..."
        );
        let mixed = mixed_traffic_replay(&hat_suite::all_benchmarks(), 2, 3, 20);
        eprintln!(
            "mixed traffic: probe p95 {:.3}s uncontended -> {:.3}s under {} check-all clients ({:.1}x, {} batches); {} dedup hits, queue wait p95 {:.1}ms",
            mixed.uncontended_p95_seconds,
            mixed.contended_p95_seconds,
            mixed.background_clients,
            mixed.contention_ratio_p95(),
            mixed.background_batches,
            mixed.dedup_hits,
            mixed.queue_wait_p95_ms
        );
        eprintln!("measuring the LSM cache backend (rotation, compaction, warm load)...");
        let lsm = lsm_measurement(&hat_suite::all_benchmarks(), 2);
        eprintln!(
            "lsm: {} flushes -> {} level-0 segments, {} compactions merged {} segments, write amplification {:.2}x; warm load {:.1}ms at {} records, {:.1}ms at {} records",
            lsm.flushes,
            lsm.segments_written,
            lsm.compactions,
            lsm.segments_merged,
            lsm.write_amplification,
            lsm.warm_load_ms_1x,
            lsm.records_1x,
            lsm.warm_load_ms_10x,
            lsm.records_10x
        );
        let path = "BENCH_engine.json";
        match write_engine_json(
            path,
            ENGINE_BENCH_SCHEMA,
            &comparison,
            Some(&replay),
            Some(&mixed),
            Some(&lsm),
        ) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
