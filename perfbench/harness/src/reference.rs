//! A fixed reference kernel that tracks the host's speed.
//!
//! On a shared host the other tenants' load slows this process by tens of
//! percent for tens of seconds at a time, which no number of repeats
//! within one run averages away. The benchmark times this kernel just
//! before and just after each timed call and scales the call's time by
//! the square root of [`NOMINAL_S`] over the kernel's mean time
//! ([`scale`]), which cancels much of that slowdown. The kernel does
//! what the simulator's step loop does most — binary-heap pushes and
//! pops fed by dependent loads from an array larger than the private
//! caches — in standard-library code alone, so no change to the
//! repository's crates moves it.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the host the scaled figures refer to: about its
/// median on a 2-core Intel Xeon VM, so a scaled time there reads like a
/// wall time.
pub const NOMINAL_S: f64 = 0.2;

/// Entries of the pointer-chasing array (4 MiB of `u32`).
const SLOTS: usize = 1 << 20;

/// Pieces per kernel run; a run reports its median piece, so a pause of
/// the process inside one piece does not move it.
const PIECES: usize = 5;

/// Dependent loads, and heap pushes, per piece.
const STEPS: u64 = 600_000;

/// Heap size above which every push is paired with a pop.
const HEAP_CAP: usize = 60_000;

/// The kernel's state, built once so a run times only the kernel.
#[derive(Debug)]
pub struct Reference {
    /// A single cycle through all `SLOTS` entries in random order.
    next: Vec<u32>,
    heap: BinaryHeap<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// Builds the array (Sattolo's shuffle from a fixed seed, so the
    /// chase visits every entry before it repeats) and the heap.
    pub fn new() -> Reference {
        let mut next: Vec<u32> = (0..SLOTS as u32).collect();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in (1..SLOTS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Reference {
            next,
            heap: BinaryHeap::with_capacity(HEAP_CAP + 1),
        }
    }

    /// Runs the kernel once and returns its wall time in seconds: the
    /// median piece's time times [`PIECES`]. Every run does the same work.
    pub fn time(&mut self) -> f64 {
        let mut pieces: Vec<f64> = (0..PIECES).map(|_| self.piece()).collect();
        pieces.sort_by(f64::total_cmp);
        pieces[PIECES / 2] * PIECES as f64
    }

    /// One piece: [`STEPS`] dependent loads, each feeding a heap push.
    fn piece(&mut self) -> f64 {
        self.heap.clear();
        let t = Instant::now();
        let mut p = 0u32;
        let mut acc = 0u64;
        for k in 0..STEPS {
            p = self.next[p as usize];
            self.heap
                .push(u64::from(p).wrapping_mul(k | 1) & 0xFFFF_FFFF);
            if self.heap.len() > HEAP_CAP {
                acc = acc.wrapping_add(self.heap.pop().unwrap_or(0));
            }
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    }
}

/// The factor that scales a time measured between two kernel runs,
/// taking `before` and `after` seconds, to the nominal host: the square
/// root of [`NOMINAL_S`] over their mean. The kernel waits on memory all
/// the time and a workload only part of the time, so the full ratio
/// over-corrects: over the same ten-seed sets, it raised the `smr-par`
/// spread from 0.13 raw to 0.25, while the square root took it to 0.06
/// and `serve`'s from 0.31 raw to 0.17.
pub fn scale(before: f64, after: f64) -> f64 {
    (2.0 * NOMINAL_S / (before + after)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_is_one_cycle_through_every_slot() {
        let r = Reference::new();
        let mut p = 0u32;
        for k in 1..=SLOTS {
            p = r.next[p as usize];
            assert_eq!(p == 0, k == SLOTS, "returned to 0 after {k} steps");
        }
    }

    #[test]
    fn scale_is_one_at_the_nominal_time() {
        assert_eq!(scale(NOMINAL_S, NOMINAL_S), 1.0);
        assert!(scale(2.0 * NOMINAL_S, 2.0 * NOMINAL_S) < 1.0);
        assert!(Reference::new().time() > 0.0);
    }
}
