//! `perfbench-harness <measure|trace|snapshot> --workload <name> --seed <n>
//! [--seconds <s>]`
//!
//! Prints one JSON line on standard output: `attempted`, `failed`,
//! `errors`, `metrics` (`{"name": value}`) and `trace_events` (Chrome
//! trace events). Notes for a reader go to
//! standard error. Exits 2 on bad arguments.

use perfbench_harness::bench;
use perfbench_harness::workload::{Workload, PAR_WORKERS};

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: perfbench-harness <measure|trace|snapshot> --workload <name> \
         --seed <n> [--seconds <s>]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("");
    if !matches!(mode, "measure" | "trace" | "snapshot") {
        usage("unknown mode");
    }
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 15.0f64;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().unwrap_or_else(|| usage("missing value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).unwrap_or_else(|| usage("unknown workload")))
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            _ => usage("unknown flag"),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let n = workload.full_n();
    // Pin the parallel engine's shard plan to the workload's worker
    // count, whatever core count the host reports.
    ofa_sim::override_available_cores(PAR_WORKERS as usize);
    let report = match mode {
        "measure" => bench::measure(workload, n, seed, seconds),
        "trace" => bench::trace(workload, n, seed),
        _ => bench::snapshot(workload, n, seed),
    };
    for note in &report.notes {
        eprintln!("{note}");
    }
    let json = serde_json::to_string(&report.to_json()).expect("report values are finite");
    println!("{json}");
}
