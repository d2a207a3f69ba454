//! The one §5.2 grid runner every sweep shares.
//!
//! Every simulated result averages a grid cell over `dest_sets`
//! destination sets on each of `topologies` random topologies.
//! [`Sweep::run_grid`] owns that pipeline: it fans `cells × topologies`
//! units out over the worker pool, fetches each unit's memoized topology,
//! folds the unit's samples into a per-topology partial in destination-set
//! order, and hands each cell's partials to the reduce step in topology
//! order. An experiment supplies only its axes, its per-sample body, and
//! its reduction, so every floating-point fold runs in the same fixed order
//! at any worker count.

use crate::engine::Sweep;
use crate::error::SweepError;
use crate::memo::TopologyEntry;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One §5.2 sample of a grid cell: destination set `s` on topology `t`.
pub(crate) struct Sample<'a> {
    /// The memoized `(network, CCO ordering)` of topology `t`.
    pub topo: &'a TopologyEntry,
    /// Topology index.
    pub t: u32,
    /// Destination-set index.
    pub s: u32,
    /// The sample's seed salt, [`crate::SweepConfig::set_seed`]`(t, s)`.
    pub salt: u64,
}

/// Splits a row-major cell index into per-axis indices, last axis fastest:
/// `unravel(cell, [a, b, c])` inverts `cell = (i * b + j) * c + k`.
pub(crate) fn unravel<const N: usize>(mut cell: usize, dims: [usize; N]) -> [usize; N] {
    let mut idx = [0; N];
    for (i, &d) in dims.iter().enumerate().rev() {
        idx[i] = cell % d;
        cell /= d;
    }
    idx
}

impl Sweep {
    /// Runs `cells` grid cells with the §5.2 methodology. `sample(cell,
    /// at, partial)` folds one sample into the `(cell, topology)` partial,
    /// called in destination-set order from a zeroed partial; `reduce(cell,
    /// partials)` then sees that cell's partials in topology-index order.
    /// Returns the reduced cells in index order, bit-identical for every
    /// worker count.
    pub(crate) fn run_grid<A, R>(
        &self,
        cells: usize,
        sample: impl Fn(usize, &Sample<'_>, &mut A) + Sync,
        mut reduce: impl FnMut(usize, &[A]) -> R,
    ) -> Vec<R>
    where
        A: Default + Send,
    {
        let cfg = self.config();
        let topologies = cfg.topologies() as usize;
        let partials = self.run_cells(cells * topologies, |unit| {
            let t = (unit % topologies) as u32;
            let topo = self.topology(t);
            let mut partial = A::default();
            for s in 0..cfg.dest_sets() {
                let at = Sample {
                    topo: &topo,
                    t,
                    s,
                    salt: cfg.set_seed(t, s),
                };
                sample(unit / topologies, &at, &mut partial);
            }
            partial
        });
        partials
            .chunks_exact(topologies)
            .enumerate()
            .map(|(cell, per_topology)| reduce(cell, per_topology))
            .collect()
    }

    /// Evaluates `f(0..n)` on the worker pool and returns the results in
    /// index order. Workers self-schedule off a shared atomic counter;
    /// every result lands in its index slot, so ordering (and therefore
    /// every downstream reduction) is independent of scheduling.
    fn run_cells<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let workers = self.config().threads().min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let f = &f;
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            done.push((i, f(i)));
                        }
                        done
                    })
                })
                .collect();
            for handle in handles {
                for (i, value) in handle.join().expect("sweep worker panicked") {
                    slots[i] = Some(value);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every cell was scheduled exactly once"))
            .collect()
    }

    /// Checks that a `(dests, m)` point can be sampled on the configured
    /// network.
    ///
    /// # Errors
    ///
    /// [`SweepError::ZeroPackets`] for `m == 0`, then
    /// [`SweepError::TooManyDests`] when the network cannot seat `dests + 1`
    /// participants.
    pub(crate) fn check_point(&self, dests: u32, m: u32) -> Result<(), SweepError> {
        let hosts = self.config().net().hosts;
        if m == 0 {
            return Err(SweepError::ZeroPackets);
        }
        if dests >= hosts {
            return Err(SweepError::TooManyDests { dests, hosts });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SweepBuilder;

    #[test]
    fn unravel_inverts_row_major_order() {
        let dims = [2, 3, 4];
        for cell in 0..24 {
            let [i, j, k] = unravel(cell, dims);
            assert_eq!((i * 3 + j) * 4 + k, cell);
        }
        assert_eq!(unravel(7, [5]), [2]);
    }

    #[test]
    fn run_grid_folds_samples_then_topologies_in_order() {
        for threads in [1, 2, 8] {
            let sweep = SweepBuilder::quick().parallelism(threads).build().unwrap();
            let (topologies, dest_sets) = (sweep.config().topologies(), sweep.config().dest_sets());
            let cells = 5;
            let reduced = sweep.run_grid(
                cells,
                |cell, at, seen: &mut Vec<(usize, u32, u32)>| {
                    assert_eq!(at.salt, sweep.config().set_seed(at.t, at.s));
                    seen.push((cell, at.t, at.s));
                },
                |cell, per_topology| {
                    assert_eq!(per_topology.len(), topologies as usize);
                    for (t, seen) in per_topology.iter().enumerate() {
                        let expected: Vec<_> =
                            (0..dest_sets).map(|s| (cell, t as u32, s)).collect();
                        assert_eq!(seen, &expected, "threads={threads}");
                    }
                    cell
                },
            );
            assert_eq!(reduced, (0..cells).collect::<Vec<_>>());
        }
    }
}
