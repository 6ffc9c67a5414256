//! Regenerates Tables 3 and 4 of the paper: per-method verification details for every
//! method of every configuration.
//!
//! Usage: `cargo run --release -p hat-bench --bin table34 [adt-filter]`

use hat_bench::{method_columns, table1_row};

fn main() {
    let filter = std::env::args().nth(1).unwrap_or_default().to_lowercase();
    println!(
        "{:<15} {:<11} {:<20} {:>8} {:>5} {:>6} {:>6} {:>6} {:>9} {:>9} {:>9}",
        "ADT",
        "Library",
        "Method",
        "#Branch",
        "#App",
        "#SAT",
        "#Inc",
        "#Asm",
        "avg s_A",
        "t_SAT",
        "t_Inc"
    );
    for bench in hat_suite::all_benchmarks() {
        if !filter.is_empty()
            && !bench.adt.to_lowercase().contains(&filter)
            && !bench.library.to_lowercase().contains(&filter)
        {
            continue;
        }
        let (_, run) = table1_row(&bench);
        for (m, r) in bench.methods.iter().zip(&run.reports) {
            println!(
                "{:<15} {:<11} {:<20} {}",
                bench.adt,
                bench.library,
                m.sig.name,
                method_columns(r)
            );
        }
    }
}
