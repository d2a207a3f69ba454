//! A fixed reference kernel that measures how fast the host is right now.
//!
//! The kernel is the benchmark's own code and uses nothing from
//! optimcast, so no change to the program can move it. It has the shape
//! of the simulator's hot loop: a binary-heap event queue whose every pop
//! reads and rewrites one pseudo-random slot of a 1 MiB table and pushes
//! the next event. Timed between executions, it shows how much slower
//! than usual the host is during a run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Words in the kernel's table (1 MiB: fits in L2, like the grid
/// workloads' event loops).
const TABLE_WORDS: usize = 1 << 17;
/// Pending events in the kernel's queue.
const QUEUE_LEN: u64 = 4096;
/// Events per chunk: about 0.1 s on the reference host.
const CHUNK_EVENTS: u64 = 1_000_000;
/// A chunk's time on the reference host (2-vCPU Xeon, see
/// `perfbench/README.md`): host-normalised times are raw times scaled by
/// this over the run's median chunk time.
pub const CHUNK_REF_S: f64 = 0.1;

/// The kernel's state: a table of pseudo-random words, allocated and
/// filled once so that no probe pays for page faults.
#[derive(Debug, Clone)]
pub struct Probe {
    table: Vec<u64>,
}

impl Default for Probe {
    fn default() -> Probe {
        let mut x = 0u64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                // SplitMix64.
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            })
            .collect();
        Probe { table }
    }
}

impl Probe {
    /// Runs whole chunks until `seconds` have passed (at least one) and
    /// returns the mean time of a chunk.
    pub fn burst(&mut self, seconds: f64) -> f64 {
        let (mut total, mut chunks) = (0.0, 0u32);
        while chunks == 0 || total < seconds {
            total += self.run(CHUNK_EVENTS);
            chunks += 1;
        }
        total / f64::from(chunks)
    }

    /// Runs `events` events and returns the seconds they took.
    fn run(&mut self, events: u64) -> f64 {
        let mask = TABLE_WORDS as u64 - 1;
        let t = Instant::now();
        let mut queue: BinaryHeap<Reverse<(u64, u64)>> = (0..QUEUE_LEN)
            .map(|i| Reverse((i, i.wrapping_mul(0x2545_f491_4f6c_dd1d) & mask)))
            .collect();
        let mut sum = 0u64;
        for _ in 0..events {
            let Some(Reverse((time, slot))) = queue.pop() else {
                break;
            };
            let v = self.table[slot as usize];
            self.table[slot as usize] = v.rotate_left(7) ^ time;
            sum = sum.wrapping_add(v);
            let next = ((v ^ time).wrapping_mul(0x2545_f491_4f6c_dd1d) >> 17) & mask;
            queue.push(Reverse((time + 1 + (v & 255), next)));
        }
        std::hint::black_box(sum);
        t.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_runs_whole_chunks() {
        let mut p = Probe::default();
        assert!(p.run(10_000) > 0.0);
        let chunk = p.burst(0.0);
        assert!(chunk > 0.0 && p.burst(2.5 * chunk) > 0.0);
    }
}
