//! Self-tests of the benchmark at small `n`: every mode emits every
//! metric `BENCHMARK.json` lists, each listed with a unit and direction;
//! the workloads do the work they are defined to do; and every
//! deterministic count repeats.
//!
//! Run with `cargo test --release --manifest-path perfbench/harness/Cargo.toml`.

use perfbench_harness::bench::{self, Report};
use perfbench_harness::workload::{check, prepare, run, Workload, PAR_WORKERS};
use serde::Value;

/// Smallest size with two clusters (`m = n / 100`), so `smr-par` shards.
const N: usize = 200;

fn pin_cores() {
    ofa_sim::override_available_cores(PAR_WORKERS as usize);
}

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing {key}"))
}

fn text(v: &Value, key: &str) -> String {
    match field(v, key) {
        Value::Str(s) => s.clone(),
        other => panic!("{key} is not a string: {other:?}"),
    }
}

/// `(name, unit, better)` of every metric `BENCHMARK.json` lists under
/// `key`, in its order.
fn listed(key: &str) -> Vec<(String, String, String)> {
    let spec = spec();
    let Value::Seq(items) = field(&spec, key) else {
        panic!("{key} is not a list");
    };
    items
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect()
}

fn names(key: &str) -> Vec<String> {
    let mut names: Vec<String> = listed(key).into_iter().map(|(n, _, _)| n).collect();
    names.sort();
    names
}

fn emitted(reports: &[&Report]) -> Vec<String> {
    let mut names: Vec<String> = reports
        .iter()
        .flat_map(|r| r.values.names())
        .map(String::from)
        .collect();
    names.sort();
    names
}

#[test]
fn benchmark_json_names_every_workload_with_unit_and_direction() {
    let spec = spec();
    let Value::Seq(workloads) = field(&spec, "workloads") else {
        panic!("workloads is not a list");
    };
    let names: Vec<String> = workloads.iter().map(|w| text(w, "name")).collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, expected);
    for key in ["end_to_end", "per_layer"] {
        for (name, unit, better) in listed(key) {
            assert!(!unit.is_empty(), "{name} has no unit");
            assert!(
                matches!(better.as_str(), "lower" | "higher"),
                "{name}: {better}"
            );
        }
    }
}

#[test]
fn every_mode_emits_every_metric_on_every_workload() {
    pin_cores();
    for w in Workload::ALL {
        let measured = bench::measure(w, N, 5, 0.0);
        assert_eq!(measured.failed, 0, "{}: {:?}", w.name(), measured.errors);
        assert_eq!(emitted(&[&measured]), names("end_to_end"), "{}", w.name());
        for name in measured.values.names() {
            let v = measured.values.get(name).unwrap();
            assert!(v > 0.0, "{}: {name} = {v} must never be 0", w.name());
        }
        let traced = bench::trace(w, N, 5);
        let snap = bench::snapshot(w, N, 5);
        assert_eq!(
            traced.failed + snap.failed,
            0,
            "{}: {:?} {:?}",
            w.name(),
            traced.errors,
            snap.errors
        );
        assert_eq!(
            emitted(&[&traced, &snap]),
            names("per_layer"),
            "{}",
            w.name()
        );
        assert!(!traced.trace_events.is_empty() && !snap.trace_events.is_empty());
    }
}

#[test]
fn consensus_events_are_three_n_squared() {
    let p = prepare(Workload::Consensus, N, 9, true);
    let (out, _) = run(&p);
    check(Workload::Consensus, N, &out, None).expect("consensus passes its checks");
    assert_eq!(out.events_processed, 3 * (N * N) as u64);
}

#[test]
fn smr_and_smr_par_do_identical_work() {
    pin_cores();
    let mut identities = Vec::new();
    for w in [Workload::Smr, Workload::SmrPar] {
        let p = prepare(w, N, 11, true);
        let (out, _) = run(&p);
        check(w, N, &out, p.collector.as_deref()).expect("log workloads pass their checks");
        identities.push((out.events_processed, out.trace_hash));
    }
    assert_eq!(identities[0], identities[1]);
}

#[test]
fn per_layer_counts_repeat_exactly() {
    pin_cores();
    let counts: Vec<String> = listed("per_layer")
        .into_iter()
        .filter(|(_, unit, _)| matches!(unit.as_str(), "count" | "fraction" | "B"))
        .map(|(name, _, _)| name)
        .filter(|name| !name.starts_with("mem.") && !name.starts_with("snapshot."))
        .collect();
    for w in Workload::ALL {
        let a = bench::trace(w, N, 3);
        let b = bench::trace(w, N, 3);
        for name in &counts {
            assert_eq!(
                a.values.get(name),
                b.values.get(name),
                "{}: {name}",
                w.name()
            );
        }
        let (sa, sb) = (bench::snapshot(w, N, 3), bench::snapshot(w, N, 3));
        assert_eq!(
            sa.values.get("snapshot.bytes_per_process"),
            sb.values.get("snapshot.bytes_per_process")
        );
    }
}

#[test]
fn end_to_end_counts_repeat_exactly() {
    pin_cores();
    let counts = [
        "decide_vt",
        "decided_frac",
        "commit_p50_vt",
        "commit_p90_vt",
        "committed",
        "served_frac",
    ];
    for w in Workload::ALL {
        let (a, b) = (bench::measure(w, N, 4, 0.0), bench::measure(w, N, 4, 0.0));
        for name in counts {
            let got = a.values.get(name);
            assert!(got.is_some(), "{}: {name} missing", w.name());
            assert_eq!(got, b.values.get(name), "{}: {name}", w.name());
        }
    }
}
