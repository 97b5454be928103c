//! The four benchmark workloads: scenario construction from a seed, the
//! timed `Sim.run` call, and the output checks every run must pass.
//!
//! Every workload runs on the `ofa_sim::Sim` backend in one process with
//! a constant 1000-tick injected delay, so virtual latencies reflect the
//! injected delay and not CPU time. Clusters are `m = n / 100`.

use ofa_coins::{SeededCommonCoin, COIN_DOMAIN_SEP};
use ofa_core::{Algorithm, ArrivalProcess, Bit, Observer, TrafficSpec};
use ofa_metrics::LatencyHistogram;
use ofa_scenario::{Backend, CoinSpec, CostModel, DelayModel, Engine, Outcome, Scenario};
use ofa_sim::Sim;
use ofa_smr::{encode_queues, Command, LogCollector};
use ofa_topology::{Partition, ProcessId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Injected one-way message delay, in virtual ticks, on every link.
pub const DELAY_TICKS: u64 = 1_000;

/// Log slots committed by `smr` and `smr-par`.
pub const SMR_SLOTS: u64 = 2;

/// Log slots committed by `serve`.
pub const SERVE_SLOTS: u64 = 4;

/// Message loss on `serve`, parts per million (0.5 %). The loss PRF runs
/// on every send at any non-zero rate; at 1 % the binary stage count per
/// slot, and with it a run's work, moved with the loss pattern (events
/// IQR/median 0.19 over 40 seeds at `n = 1000`, against 0.004 at 0.5 %),
/// and the straggler tail reached 1.7 % of the 2 % liveness floor.
pub const SERVE_LOSS_PPM: u32 = 5_000;

/// Worker threads of `smr-par`'s parallel engine.
pub const PAR_WORKERS: u64 = 2;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Binary `ben_or_hybrid`, local coin, unanimous proposals, lossless.
    Consensus,
    /// Replicated KV log, one pre-seeded `PUT` per replica, common coin.
    Smr,
    /// `Smr` on `Engine::ParallelEvent { workers: 2 }`.
    SmrPar,
    /// Open-loop Poisson client traffic over the replicated KV, 0.5 % loss.
    Serve,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Consensus,
        Workload::Smr,
        Workload::SmrPar,
        Workload::Serve,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Consensus => "consensus",
            Workload::Smr => "smr",
            Workload::SmrPar => "smr-par",
            Workload::Serve => "serve",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's system size `n` for this workload.
    pub fn full_n(self) -> usize {
        match self {
            Workload::Consensus => 5_000,
            Workload::Smr | Workload::SmrPar => 2_000,
            Workload::Serve => 1_000,
        }
    }

    /// `true` for the two replicated-log workloads with pre-seeded
    /// commands.
    pub fn is_smr(self) -> bool {
        matches!(self, Workload::Smr | Workload::SmrPar)
    }

    /// Runs per measurement pass, each on its own seed derived with
    /// [`sub_seed`]. `serve`'s figures move with the loss pattern and the
    /// client arrivals its seed draws (each input commits only four
    /// batches), so it reports its figures over eight inputs; the other
    /// workloads do the same work for every seed.
    pub fn sub_seeds(self) -> u64 {
        match self {
            Workload::Serve => 8,
            _ => 1,
        }
    }

    /// The engine this workload runs on.
    pub fn engine(self) -> Engine {
        match self {
            Workload::SmrPar => Engine::ParallelEvent {
                workers: PAR_WORKERS,
            },
            _ => Engine::EventDriven,
        }
    }
}

/// The benchmark's cost model: free sends, so a broadcast collapses into
/// one heap entry, and unit costs elsewhere.
fn costs() -> CostModel {
    CostModel {
        send_cost: 0,
        recv_cost: 1,
        sm_op_cost: 10,
        coin_cost: 1,
    }
}

/// 64-bit mixer used to derive workload inputs from the seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the common-coin stream every workload uses, whatever the
/// workload seed.
pub const COIN_SEED: u64 = 42;

/// The common coin, pinned to the stream the default seeded coin draws at
/// [`COIN_SEED`]. The workload seed then varies the inputs (client
/// arrivals, the loss pattern, command keys) but not the protocol's coin:
/// a different coin stream changes the number of binary stages per log
/// slot, and with it the work of a run by up to half. A coin object does
/// not serialize, so scenarios that checkpoint use [`CoinSpec::Seeded`].
pub fn pinned_coin() -> CoinSpec {
    CoinSpec::Custom(Arc::new(SeededCommonCoin::new(COIN_SEED ^ COIN_DOMAIN_SEP)))
}

/// The seed of run `j` of a measurement pass: the workload seed itself
/// for `j = 0`, a mix of it for the rest.
pub fn sub_seed(seed: u64, j: u64) -> u64 {
    if j == 0 {
        seed
    } else {
        mix(seed, j)
    }
}

/// The serve workload's client traffic: `2n` open-loop Poisson clients.
pub fn serve_traffic(n: usize) -> TrafficSpec {
    TrafficSpec {
        arrival: ArrivalProcess::Poisson { mean_gap: 500 },
        clients: 2 * n as u64,
        queue_cap: 256,
        batch_max: 256,
        batch_min: 0,
    }
}

/// Everything built before `Sim.run`: the scenario and, for the log
/// workloads, the collector its observer feeds.
pub struct Prepared {
    /// The scenario handed to `Sim.run`.
    pub scenario: Scenario,
    /// Per-replica committed logs (log workloads only).
    pub collector: Option<Arc<LogCollector>>,
}

/// Builds `workload`'s scenario at size `n` from `seed`: the partition,
/// the proposals or command queues, and the `Scenario` value. With
/// `observe`, the log workloads get a `LogCollector` observer (scenarios
/// with an observer cannot checkpoint).
pub fn prepare(workload: Workload, n: usize, seed: u64, observe: bool) -> Prepared {
    let partition = Partition::even(n, (n / 100).max(1));
    let scenario = match workload {
        Workload::Consensus => Scenario::new(partition, Algorithm::LocalCoin)
            .proposals_all(Bit::One)
            .max_rounds(16),
        Workload::Smr | Workload::SmrPar => {
            let commands: Vec<Vec<Command>> = (0..n)
                .map(|i| {
                    let key = format!("k{}", mix(seed, i as u64) % 509);
                    vec![Command::put(&key, &format!("v{i}"))]
                })
                .collect();
            Scenario::new(partition, Algorithm::CommonCoin)
                .replicated_log(Algorithm::CommonCoin, SMR_SLOTS, encode_queues(&commands))
                .max_rounds(64)
        }
        Workload::Serve => Scenario::new(partition, Algorithm::CommonCoin)
            .replicated_log_traffic(Algorithm::CommonCoin, SERVE_SLOTS, serve_traffic(n))
            .max_rounds(64),
    }
    .seed(seed)
    .coin(pinned_coin())
    // `delay` replaces the whole network model, so loss is set after it.
    .delay(DelayModel::Constant(DELAY_TICKS))
    .loss_ppm(match workload {
        Workload::Serve => SERVE_LOSS_PPM,
        _ => 0,
    })
    .costs(costs())
    .max_events(u64::MAX)
    .engine(workload.engine());
    if observe && workload != Workload::Consensus {
        let collector = Arc::new(LogCollector::new(n));
        Prepared {
            scenario: scenario.observer(Arc::clone(&collector) as Arc<dyn Observer>),
            collector: Some(collector),
        }
    } else {
        Prepared {
            scenario,
            collector: None,
        }
    }
}

/// Runs a prepared scenario and returns the outcome with the wall time of
/// the `Sim.run` call alone.
pub fn run(prepared: &Prepared) -> (Outcome, Duration) {
    let t0 = Instant::now();
    let out = Sim.run(&prepared.scenario);
    (out, t0.elapsed())
}

/// The figures of one checked run that do not depend on wall time.
#[derive(Debug, Default, Clone)]
pub struct Served {
    /// Virtual time of the last decision, ticks.
    pub decide_vt: u64,
    /// System size.
    pub n: u64,
    /// Correct processes still undecided at stop.
    pub undecided: u64,
    /// Submit→commit latencies, one sample per committed command (`serve`
    /// only).
    pub latency: Option<LatencyHistogram>,
    /// Commands committed: one per log slot on `smr`/`smr-par`, one
    /// decided value on `consensus`.
    pub committed: u64,
    /// Commands offered: client arrivals (accepted or shed) on `serve`,
    /// the `n` proposals elsewhere.
    pub offered: u64,
    /// Binary stages summed over the log slots at replica `p1` (0 for
    /// binary consensus).
    pub stages: u64,
}

/// Checks one run's outputs and derives its end-to-end figures.
///
/// The checks: agreement always; every process decides on `consensus`,
/// `smr` and `smr-par`, and all but at most 2 % on `serve`; on `smr` and
/// `smr-par`, byte-identical committed logs and state digests at every
/// replica; on `serve`, exactly one latency sample per committed command;
/// and `smr-par` really ran on the parallel engine.
///
/// # Errors
///
/// Returns a description of the first failed check.
pub fn check(
    workload: Workload,
    n: usize,
    out: &Outcome,
    collector: Option<&LogCollector>,
) -> Result<Served, String> {
    let tag = workload.name();
    if !out.agreement_holds() {
        return Err(format!("{tag}: agreement violated"));
    }
    if out.engine_used != Some(workload.engine()) {
        return Err(format!(
            "{tag}: ran on {:?}, not {:?}",
            out.engine_used,
            workload.engine()
        ));
    }
    let floor = match workload {
        Workload::Serve => n - n / 50,
        _ => n,
    };
    if out.deciders() < floor {
        return Err(format!(
            "{tag}: {} of {n} decided (floor {floor})",
            out.deciders()
        ));
    }
    let mut served = Served {
        decide_vt: out.latest_decision_time.ticks(),
        n: n as u64,
        undecided: (n - out.crashed.len() - out.deciders()) as u64,
        latency: None,
        committed: 1,
        offered: n as u64,
        stages: match collector {
            Some(c) => c.committed(ProcessId(0)).iter().map(|mv| mv.stages).sum(),
            None => 0,
        },
    };
    match workload {
        Workload::Consensus => {}
        Workload::Smr | Workload::SmrPar => {
            let collector = collector.ok_or_else(|| format!("{tag}: no log collector"))?;
            verify_logs(n, collector).map_err(|e| format!("{tag}: {e}"))?;
            served.committed = SMR_SLOTS;
        }
        Workload::Serve => {
            let s = &out.service;
            if s.committed == 0 {
                return Err(format!("{tag}: no command committed"));
            }
            if s.latency.total() != s.committed {
                return Err(format!(
                    "{tag}: {} latency samples for {} commits",
                    s.latency.total(),
                    s.committed
                ));
            }
            served.latency = Some(s.latency.clone());
            served.committed = s.committed;
            served.offered = s.submitted + s.shed;
        }
    }
    Ok(served)
}

/// Checks that all `n` replicas committed all slots with byte-identical
/// logs and state digests.
///
/// # Errors
///
/// Names the first replica that is incomplete or diverged.
pub fn verify_logs(n: usize, collector: &LogCollector) -> Result<(), String> {
    let reference = collector
        .report(ProcessId(0), SMR_SLOTS)
        .ok_or("p1 did not commit every slot")?;
    for i in 1..n {
        let r = collector
            .report(ProcessId(i), SMR_SLOTS)
            .ok_or_else(|| format!("p{} did not commit every slot", i + 1))?;
        if r.log != reference.log || r.digest != reference.digest {
            return Err(format!("p{} diverged from p1", i + 1));
        }
    }
    Ok(())
}
