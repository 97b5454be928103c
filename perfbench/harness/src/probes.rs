//! Layer probes: time the public functions of one layer from outside, on
//! inputs shaped like the workload's own traffic. Each probe repeats its
//! loop [`ROUNDS`] times and reports the median nanoseconds per call, so
//! one slow round on a shared host does not move the figure.

use crate::workload::{serve_traffic, Workload, SERVE_SLOTS};
use ofa_coins::{CommonCoin, LocalCoin, SeededCommonCoin, SeededLocalCoin};
use ofa_core::traffic::encode_batch;
use ofa_core::{Bit, Mailbox, Msg, MsgKind, Payload, Phase, TrafficState};
use ofa_scenario::Scenario;
use ofa_sharedmem::{ClusterMemory, Slot};
use ofa_topology::ProcessId;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions of each probe loop.
pub const ROUNDS: usize = 9;

/// Median of the samples: the mean of the two middle ones for an even
/// count, so that of two wall times neither one alone sets the figure.
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

/// Runs `round` [`ROUNDS`] times; each call returns `(seconds, ops)`.
/// Returns the median nanoseconds per op.
fn ns_per_op(mut round: impl FnMut() -> (f64, u64)) -> f64 {
    median(
        (0..ROUNDS)
            .map(|_| {
                let (secs, ops) = round();
                secs * 1e9 / ops.max(1) as f64
            })
            .collect(),
    )
}

/// Per-call times of the public `Mailbox` methods, nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct MailboxNs {
    /// `Mailbox::accept` per delivered message.
    pub accept: f64,
    /// `Mailbox::buffer` per delivered message.
    pub buffer: f64,
    /// `Mailbox::take_buffered` per served item.
    pub take_buffered: f64,
    /// `Mailbox::absorb_apps` per call, one call per delivery wave.
    pub absorb_apps: f64,
}

/// The delivery wave one process sees in one exchange at size `n`.
/// `consensus` receives the next phase's message from every peer while
/// still serving the current one; the log workloads additionally receive
/// the stage proposer's payload relayed by every peer (the same
/// `(instance, seq)`, so the stash collapses it).
pub fn storm(workload: Workload, n: usize) -> Vec<Msg> {
    let payload = match workload {
        Workload::Consensus => None,
        Workload::Smr | Workload::SmrPar => {
            Some(Payload::from_bytes(b"P\x04k123\x04v1234").expect("fits"))
        }
        Workload::Serve => Some(encode_batch(0, 0, 64)),
    };
    (0..n)
        .flat_map(|i| {
            let phase = Msg {
                from: ProcessId(i),
                kind: MsgKind::Phase {
                    instance: 0,
                    round: 1,
                    phase: Phase::Two,
                    est: Some(Bit::One),
                },
            };
            let app = payload.map(|payload| Msg {
                from: ProcessId(i),
                kind: MsgKind::App {
                    instance: 0,
                    seq: 1,
                    payload,
                },
            });
            std::iter::once(phase).chain(app)
        })
        .collect()
}

/// Times the mailbox on one delivery wave of `workload` at size `n`.
pub fn mailbox(workload: Workload, n: usize) -> MailboxNs {
    let msgs = storm(workload, n);
    let len = msgs.len() as u64;
    let accept = ns_per_op(|| {
        let mut mb = Mailbox::new();
        let t = Instant::now();
        for m in &msgs {
            black_box(mb.accept(*m, 0, 1, Phase::One));
        }
        (t.elapsed().as_secs_f64(), len)
    });
    let buffer = ns_per_op(|| {
        let mut mb = Mailbox::new();
        let t = Instant::now();
        for m in &msgs {
            mb.buffer(*m);
        }
        black_box(&mb);
        (t.elapsed().as_secs_f64(), len)
    });
    let filled = || {
        let mut mb = Mailbox::new();
        for m in &msgs {
            mb.buffer(*m);
        }
        mb
    };
    let take_buffered = ns_per_op(|| {
        let mut mb = filled();
        let t = Instant::now();
        let mut served = 0u64;
        while black_box(mb.take_buffered(0, 1, Phase::Two)).is_some() {
            served += 1;
        }
        (t.elapsed().as_secs_f64(), served)
    });
    let absorb_apps = ns_per_op(|| {
        let mut mb = filled();
        let t = Instant::now();
        let mut absorbed = 0u64;
        mb.absorb_apps(0, |app| {
            black_box(app);
            absorbed += 1;
        });
        black_box(absorbed);
        (t.elapsed().as_secs_f64(), 1)
    });
    MailboxNs {
        accept,
        buffer,
        take_buffered,
        absorb_apps,
    }
}

/// Sends timed by the network probe.
const NET_CALLS: u64 = 1_000_000;

/// Time of one `NetIndex::fate_of` plus `NetIndex::delay_of` pair on the
/// workload's compiled network model, nanoseconds.
pub fn network(scenario: &Scenario) -> f64 {
    let net = scenario.network.compile(&scenario.partition);
    let n = scenario.partition.n();
    let seed = scenario.seed;
    ns_per_op(|| {
        let t = Instant::now();
        let mut acc = 0u64;
        for k in 0..NET_CALLS {
            let from = ProcessId((k as usize) % n);
            let to = ProcessId((k as usize * 7 + 1) % n);
            let fate = net.fate_of(seed, from, to, k);
            acc = acc.wrapping_add(net.delay_of(seed, from, to, k));
            black_box(fate);
        }
        black_box(acc);
        (t.elapsed().as_secs_f64(), NET_CALLS)
    })
}

/// Rounds of two phases proposed by every cluster member in the
/// shared-memory probe.
const SM_ROUNDS: u64 = 64;

/// Time of one `ClusterMemory::propose_raw` call, nanoseconds: every
/// member of one cluster of size `n / m` proposes in both phases of
/// [`SM_ROUNDS`] rounds, so the first call of each slot materializes the
/// consensus object and the rest read it.
pub fn sharedmem(n: usize, m: usize) -> f64 {
    let members = (n / m).max(1) as u64;
    ns_per_op(|| {
        let mem = ClusterMemory::new();
        let t = Instant::now();
        for r in 1..=SM_ROUNDS {
            for phase in [1u8, 2] {
                for p in 0..members {
                    black_box(mem.propose_raw(Slot::new(r, phase), p & 1));
                }
            }
        }
        (t.elapsed().as_secs_f64(), SM_ROUNDS * 2 * members)
    })
}

/// Coin queries timed by the coin probe.
const COIN_CALLS: u64 = 1_000_000;

/// Time of one query of the coin the workload uses, nanoseconds: a local
/// flip for `consensus`, a common-coin read for the log workloads.
pub fn coins(workload: Workload, seed: u64) -> f64 {
    match workload {
        Workload::Consensus => ns_per_op(|| {
            let mut coin = SeededLocalCoin::for_process(seed, ProcessId(0));
            let t = Instant::now();
            for _ in 0..COIN_CALLS {
                black_box(coin.flip());
            }
            (t.elapsed().as_secs_f64(), COIN_CALLS)
        }),
        _ => ns_per_op(|| {
            let coin = SeededCommonCoin::new(seed);
            let t = Instant::now();
            for idx in 0..COIN_CALLS {
                black_box(coin.bit(black_box(idx)));
            }
            (t.elapsed().as_secs_f64(), COIN_CALLS)
        }),
    }
}

/// Replicas whose traffic state the traffic probe drives.
const TRAFFIC_REPLICAS: usize = 64;

/// Time per client arrival of `TrafficState::pull`, `next_batch` and
/// `on_committed`, nanoseconds. [`TRAFFIC_REPLICAS`] replicas under the
/// serve workload's client spec at size `n` are driven across `horizon`
/// ticks with a slot boundary every `horizon / SERVE_SLOTS` ticks, each
/// replica committing its own batch at the boundary. Workloads without
/// client traffic get the same spec at their own `n` and horizon.
pub fn traffic(n: usize, seed: u64, horizon: u64) -> f64 {
    let spec = serve_traffic(n);
    let step = (horizon / SERVE_SLOTS).max(1);
    let replicas = TRAFFIC_REPLICAS.min(n);
    ns_per_op(|| {
        let mut states: Vec<TrafficState> = (0..replicas)
            .map(|me| TrafficState::new(&spec, seed, me as u32, n as u32))
            .collect();
        let t = Instant::now();
        for slot in 1..=SERVE_SLOTS {
            let now = slot * step;
            for st in &mut states {
                st.pull(now);
                let batch = st.next_batch();
                st.on_committed(&batch, now);
            }
        }
        let secs = t.elapsed().as_secs_f64();
        let arrivals: u64 = states
            .iter()
            .map(|s| s.stats().submitted + s.stats().shed)
            .sum();
        (secs, arrivals)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_the_middle() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn storms_are_workload_shaped() {
        assert_eq!(storm(Workload::Consensus, 10).len(), 10);
        assert_eq!(storm(Workload::Smr, 10).len(), 20);
        assert_eq!(storm(Workload::Serve, 10).len(), 20);
    }

    #[test]
    fn probes_report_positive_times() {
        let m = mailbox(Workload::Smr, 64);
        assert!(m.accept > 0.0 && m.buffer > 0.0 && m.take_buffered > 0.0);
        assert!(m.absorb_apps > 0.0);
        assert!(sharedmem(200, 2) > 0.0);
        assert!(coins(Workload::Consensus, 1) > 0.0);
        assert!(traffic(100, 1, 10_000) > 0.0);
    }
}
