//! Command-line entry of the repository benchmark; see the library docs.

use xt_perfbench::{catalog, result_line, run, Args};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                catalog::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for line in &outcome.notes {
        println!("{line}");
    }
    let host = xt_perfbench::host::describe();
    println!("host {}", host.render());
    for (name, d) in &outcome.measured.values {
        let unit = catalog::unit_of(name).unwrap_or("");
        println!(
            "e2e   {name:<34} {:>14.4} {unit:<6} q1 {:.4} q3 {:.4} n={}",
            d.median, d.q1, d.q3, d.n
        );
    }
    if args.trace {
        for (name, &(v, n)) in &outcome.layers.values {
            let unit = catalog::unit_of(name).unwrap_or("");
            let n = n.map_or(String::new(), |n| format!(" n={n}"));
            println!("layer {name:<34} {v:>14.4} {unit:<6}{n}");
        }
    }
    let failed_frac = outcome.measured.failed as f64 / outcome.measured.attempted.max(1) as f64;
    println!(
        "ops   attempted={} failed={} failed_frac={failed_frac}",
        outcome.measured.attempted, outcome.measured.failed
    );
    for c in &outcome.checks {
        println!(
            "check {} {}: {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    let line = result_line(&args, &outcome);
    println!("{}", line.render());
    if outcome.checks.iter().any(|c| !c.ok) {
        std::process::exit(1);
    }
}
