//! The harness's three modes. `measure` gives the end-to-end metrics with
//! no spans; `trace` and `snapshot` give the per-layer metrics, the first
//! around `Sim.run` and the layer probes, the second around the
//! checkpoint legs in a process of its own so its peak memory is its own.

use crate::metrics::{peak_rss_mb, rss_mb, Values};
use crate::probes::{self, median};
use crate::reference::{self, Reference};
use crate::spans::Tracer;
use crate::workload::{check, prepare, run, sub_seed, Served, Workload};
use ofa_metrics::LatencyHistogram;
use ofa_scenario::{CoinSpec, Engine, Outcome, Snapshot, VirtualTime};
use ofa_sim::{RunOutcome, Sim};
use serde::Value;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Windows of set-ups timed per run.
const SETUP_WINDOWS: usize = 20;

/// Time spent repeating the set-up in one window, at least.
const SETUP_WINDOW: Duration = Duration::from_millis(50);

/// Set-ups timed in one window, at least.
const SETUP_PER_WINDOW: usize = 3;

/// Scenario runs per `measure`, at least.
const MIN_RUNS: u64 = 2;

/// System size of the checkpoint probe on `smr` and `smr-par`. A full-size
/// `smr` snapshot (`n = 2000`) is hundreds of megabytes of JSON and takes
/// the process to about 11 GB while it is decoded.
pub const SMR_SNAPSHOT_N: usize = 400;

/// What one mode reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Scenario runs attempted.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// The metrics measured.
    pub values: Values,
    /// Lines for a reader, printed before the result.
    pub notes: Vec<String>,
    /// The spans, as Chrome trace events.
    pub trace_events: Vec<Value>,
}

impl Report {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }

    /// The report as one JSON line: the counts, the errors, the metrics
    /// and the trace events.
    pub fn to_json(&self) -> Value {
        Value::Map(vec![
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            (
                "errors".to_string(),
                Value::Seq(self.errors.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics".to_string(), self.values.to_json()),
            (
                "trace_events".to_string(),
                Value::Seq(self.trace_events.clone()),
            ),
        ])
    }
}

/// The deterministic identity of a run: events processed and trace hash.
type Identity = (u64, Option<u64>);

/// The [`Identity`] of a run.
fn identity(out: &Outcome) -> Identity {
    (out.events_processed, out.trace_hash)
}

/// Untraced end-to-end run: times the set-up in [`SETUP_WINDOWS`]
/// windows, then repeats passes over the workload's sub-seeds until
/// `seconds` have passed (and at least [`MIN_RUNS`] runs were made),
/// checking every run. A repeat must reproduce its input's first run
/// exactly. Every `Sim.run` is timed between two runs of the
/// [`Reference`] kernel and scaled to its nominal host
/// ([`reference::scale`]). `setup_s` is the median over windows of each
/// window's fastest set-up; `wall_s` is the median over inputs of each
/// input's median scaled wall time; the other figures come from the
/// first pass ([`summarize`]).
pub fn measure(workload: Workload, n: usize, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let seeds: Vec<u64> = (0..workload.sub_seeds())
        .map(|j| sub_seed(seed, j))
        .collect();

    // The fastest set-up of each window, so a burst of load from other
    // tenants that slows a share of the set-ups does not move the median.
    let mut setups = Vec::new();
    let mut k = 0;
    for _ in 0..SETUP_WINDOWS {
        let (t0, mut best, mut count) = (Instant::now(), f64::INFINITY, 0);
        while count < SETUP_PER_WINDOW || t0.elapsed() < SETUP_WINDOW {
            let t = Instant::now();
            let prepared = prepare(workload, n, seeds[k % seeds.len()], true);
            best = best.min(t.elapsed().as_secs_f64());
            drop(black_box(prepared));
            (k, count) = (k + 1, count + 1);
        }
        setups.push(best);
    }
    report.values.set("setup_s", median(setups));

    let before_kernel_mb = rss_mb();
    let mut kernel = Reference::new();
    let mut kernel_s = vec![kernel.time()];
    // The kernel's pages stay resident for the whole run; `peak_rss_mb`
    // leaves them out, so it is the workload's own peak.
    let kernel_mb = rss_mb() - before_kernel_mb;

    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut first: Vec<Option<(Identity, Served)>> = vec![None; seeds.len()];
    let mut peak_rss = None;
    let mut raw_walls = Vec::new();
    let start = Instant::now();
    while report.attempted < MIN_RUNS || start.elapsed().as_secs_f64() < seconds {
        for (j, &s) in seeds.iter().enumerate() {
            let prepared = prepare(workload, n, s, true);
            let (out, wall) = run(&prepared);
            let before = kernel_s[kernel_s.len() - 1];
            kernel_s.push(kernel.time());
            raw_walls.push(wall.as_secs_f64());
            let wall = wall.as_secs_f64() * reference::scale(before, kernel_s[kernel_s.len() - 1]);
            report.attempted += 1;
            let served = match check(workload, n, &out, prepared.collector.as_deref()) {
                Ok(served) => served,
                Err(e) => {
                    report.fail(format!("seed {s}: {e}"));
                    continue;
                }
            };
            match &first[j] {
                None => first[j] = Some((identity(&out), served)),
                Some((id, _)) if *id != identity(&out) => {
                    report.fail(format!("seed {s}: a repeat differs from the first run"));
                    continue;
                }
                Some(_) => {}
            }
            walls[j].push(wall);
        }
        // The peak after the first pass, which runs every input once:
        // later repeats can push it higher without the workload needing
        // more (on `smr-par`, freed memory stays in the other worker
        // thread's allocator arena).
        peak_rss.get_or_insert_with(|| peak_rss_mb() - kernel_mb);
    }

    report.notes.push(format!(
        "{}: Sim.run wall times {raw_walls:?}, reference kernel times {kernel_s:?}, \
         scaled wall times per input {walls:?}",
        workload.name()
    ));
    let served: Vec<Served> = first.into_iter().flatten().map(|(_, s)| s).collect();
    let walls: Vec<f64> = walls
        .into_iter()
        .filter(|w| !w.is_empty())
        .map(median)
        .collect();
    if served.is_empty() {
        report.fail("no run passed its checks".to_string());
        return report;
    }
    let v = &mut report.values;
    v.set("wall_s", median(walls));
    v.set("peak_rss_mb", peak_rss.expect("at least one pass ran"));
    summarize(&served, v);
    report.notes.push(format!(
        "{}: n={n} seeds={seeds:?} runs={} commit percentiles over {} samples",
        workload.name(),
        report.attempted,
        v.get("committed").expect("summarize sets committed"),
    ));
    report
}

/// The end-to-end figures of one pass's checked runs, one per input:
/// `decide_vt` is their median; the counts are summed, so `committed` is
/// the commands committed over the pass and the fractions are shares of
/// the pass's totals (`served_frac` is committed over offered); the
/// commit percentiles come from the merged latency samples, or equal
/// `decide_vt` on workloads without client traffic (every proposal is
/// submitted at tick 0 and committed when the run decides).
pub fn summarize(served: &[Served], v: &mut Values) {
    let decide_vt = median(served.iter().map(|s| s.decide_vt as f64).collect());
    let sum = |f: fn(&Served) -> u64| served.iter().map(f).sum::<u64>() as f64;
    let (committed, offered) = (sum(|s| s.committed), sum(|s| s.offered));
    let mut latency = LatencyHistogram::new();
    served
        .iter()
        .flat_map(|s| &s.latency)
        .for_each(|h| latency.merge(h));
    let percentile = |p| {
        if latency.is_empty() {
            decide_vt
        } else {
            latency.percentile(p) as f64
        }
    };
    v.set("decide_vt", decide_vt);
    v.set("decided_frac", 1.0 - sum(|s| s.undecided) / sum(|s| s.n));
    v.set("commit_p50_vt", percentile(50));
    v.set("commit_p90_vt", percentile(90));
    v.set("committed", committed);
    v.set("served_frac", committed / offered);
}

/// The engine a workload's parallel-speedup partner runs on.
fn partner_engine(workload: Workload) -> Engine {
    match workload.engine() {
        Engine::EventDriven => Engine::ParallelEvent {
            workers: crate::workload::PAR_WORKERS,
        },
        _ => Engine::EventDriven,
    }
}

/// Traced run: one untraced `Sim.run` (for the tracing overhead and the
/// workload's peak memory), then spans around set-up, the traced
/// `Sim.run`, the output checks, the same scenario on the partner engine
/// (for `sim.par_speedup`) and every layer probe; counts read from the
/// `Outcome`.
pub fn trace(workload: Workload, n: usize, seed: u64) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::new();

    // A fresh process: the untraced run's peak memory is the workload's
    // own, as in `measure`.
    let untraced = run(&prepare(workload, n, seed, true)).1.as_secs_f64();
    let rss = peak_rss_mb();
    let (prepared, _) = tr.span("scenario", "setup", || prepare(workload, n, seed, true));
    let ((out, wall), _) = tr.span("sim", "Sim.run", || run(&prepared));
    let wall = wall.as_secs_f64();
    report.attempted += 1;
    let (checked, verify_s) = tr.span("smr", "verify", || {
        check(workload, n, &out, prepared.collector.as_deref())
    });
    drop(prepared);
    let served = checked.unwrap_or_else(|e| {
        report.fail(e);
        Served::default()
    });

    let partner = partner_engine(workload);
    let mut other = prepare(workload, n, seed, false);
    other.scenario = other.scenario.engine(partner);
    let ((other_out, other_wall), _) = tr.span("sim", "Sim.run (partner engine)", || run(&other));
    drop(other);
    let other_wall = other_wall.as_secs_f64();
    report.attempted += 1;
    if identity(&other_out) != identity(&out) || other_out.engine_used != Some(partner) {
        report.fail(format!(
            "{}: {partner:?} gave {:?}, {:?} gave {:?}",
            workload.name(),
            identity(&other_out),
            workload.engine(),
            identity(&out)
        ));
    }
    let par_speedup = match workload.engine() {
        Engine::EventDriven => wall / other_wall,
        _ => other_wall / wall,
    };

    let scenario = prepare(workload, n, seed, false).scenario;
    let (fate_ns, _) = tr.span("scenario.network", "NetIndex::fate_of+delay_of", || {
        probes::network(&scenario)
    });
    let (mb, _) = tr.span("core.mailbox", "Mailbox probe", || {
        probes::mailbox(workload, n)
    });
    let (propose_ns, _) = tr.span("sharedmem", "ClusterMemory::propose_raw", || {
        probes::sharedmem(n, scenario.partition.m())
    });
    let (query_ns, _) = tr.span("coins", "coin query", || probes::coins(workload, seed));
    let (pull_ns, _) = tr.span(
        "core.traffic",
        "TrafficState pull/next_batch/on_committed",
        || probes::traffic(n, seed, out.end_time.ticks()),
    );

    let c = &out.counters;
    let sent = c.messages_sent.max(1) as f64;
    let s = &out.service;
    let v = &mut report.values;
    v.set("sim.events", out.events_processed as f64);
    v.set("sim.events_per_s", out.events_processed as f64 / wall);
    v.set("sim.events_per_msg", out.events_processed as f64 / sent);
    v.set("sim.par_speedup", par_speedup);
    v.set(
        "scenario.network.delivered_frac",
        c.messages_delivered as f64 / sent,
    );
    v.set("scenario.network.fate_ns", fate_ns);
    v.set("core.mailbox.stale_dropped", c.stale_dropped as f64);
    v.set(
        "core.mailbox.useful_frac",
        1.0 - c.stale_dropped as f64 / sent,
    );
    v.set("core.mailbox.accept_ns", mb.accept);
    v.set("core.mailbox.buffer_ns", mb.buffer);
    v.set("core.mailbox.take_buffered_ns", mb.take_buffered);
    v.set("core.mailbox.absorb_apps_ns", mb.absorb_apps);
    v.set("core.sm.rounds", c.rounds_started as f64);
    v.set("core.sm.broadcasts", c.broadcasts as f64);
    v.set("core.sm.decide_relays", c.decide_relays as f64);
    v.set(
        "core.sm.msgs_per_decider",
        c.messages_sent as f64 / out.deciders().max(1) as f64,
    );
    v.set("core.multivalued.stages", served.stages as f64);
    v.set("mem.bytes_per_process", rss * 1_048_576.0 / n as f64);
    v.set("sharedmem.cluster_proposes", out.sm_proposes as f64);
    v.set("sharedmem.sm_objects", out.sm_objects as f64);
    v.set("sharedmem.propose_ns", propose_ns);
    v.set("coins.common_queries", c.common_coin_queries as f64);
    v.set("coins.local_flips", c.local_coin_flips as f64);
    v.set("coins.query_ns", query_ns);
    v.set("core.traffic.submitted", s.submitted as f64);
    v.set("core.traffic.shed", s.shed as f64);
    v.set("core.traffic.batches", s.batches as f64);
    v.set("core.traffic.max_queue", s.max_queue_depth as f64);
    v.set(
        "core.traffic.cmds_per_batch",
        if s.batches == 0 {
            0.0
        } else {
            s.committed as f64 / s.batches as f64
        },
    );
    v.set("core.traffic.pull_ns", pull_ns);
    v.set("smr.verify_s", verify_s);
    v.set("trace.wall_s", wall);
    v.set("trace.overhead_s", wall - untraced);
    report.notes.push(format!(
        "{}: n={n} seed={seed} events={} trace_hash={:?} untraced_wall_s={untraced} \
         traced_wall_s={wall} partner_wall_s={other_wall}",
        workload.name(),
        out.events_processed,
        out.trace_hash,
    ));
    report.trace_events = tr.events(1);
    report
}

/// Checkpoint probe: one straight run, then the same scenario cut at half
/// its end time (`Sim.run_until`), the snapshot encoded to JSON and
/// decoded, and the run resumed (`Sim.resume`). The resumed run must
/// reproduce the straight run's events and trace hash. The scenario uses
/// the default seeded coin, since a coin object cannot be serialized, and
/// `smr`/`smr-par` run at [`SMR_SNAPSHOT_N`].
pub fn snapshot(workload: Workload, n: usize, seed: u64) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::new();
    let n = if workload.is_smr() {
        SMR_SNAPSHOT_N.min(n)
    } else {
        n
    };
    let scenario = prepare(workload, n, seed, false)
        .scenario
        .coin(CoinSpec::Seeded);

    let ((straight, wall), _) = tr.span("sim", "Sim.run", || {
        let t = Instant::now();
        let out = ofa_scenario::Backend::run(&Sim, &scenario);
        (out, t.elapsed().as_secs_f64())
    });
    let cut = VirtualTime::from_ticks(straight.end_time.ticks() / 2);
    let (leg, leg1_s) = tr.span("sim", "Sim.run_until", || Sim.run_until(&scenario, cut));
    report.attempted += 1;
    let snap = match leg {
        RunOutcome::Paused(snap) => snap,
        RunOutcome::Done(_) => {
            report.fail(format!("{}: finished before the cut", workload.name()));
            return report;
        }
    };
    let (json, encode_s) = tr.span("snapshot", "encode", || {
        serde_json::to_string(&*snap).expect("snapshot encodes")
    });
    drop(snap);
    let (decoded, decode_s) = tr.span("snapshot", "decode", || {
        serde_json::from_str::<Snapshot>(&json).expect("snapshot decodes")
    });
    let bytes = json.len();
    drop(json);
    let (resumed, leg2_s) = tr.span("sim", "Sim.resume", || Sim.resume(&decoded));
    if identity(&resumed) != identity(&straight) {
        report.fail(format!(
            "{}: resumed {:?}, straight {:?}",
            workload.name(),
            identity(&resumed),
            identity(&straight)
        ));
    }
    let v = &mut report.values;
    v.set("snapshot.bytes_per_process", bytes as f64 / n as f64);
    v.set("snapshot.encode_s", encode_s);
    v.set("snapshot.decode_s", decode_s);
    v.set("snapshot.peak_rss_mb", peak_rss_mb());
    v.set("sim.resume_overhead", (leg1_s + leg2_s) / wall);
    report.notes.push(format!(
        "{} snapshot: n={n} cut={} bytes={bytes} straight_wall_s={wall}",
        workload.name(),
        cut.ticks()
    ));
    report.trace_events = tr.events(2);
    report
}
