//! The deterministic parallel sweep engine.
//!
//! [`Sweep`] owns the validated configuration, the memo layer, and the
//! worker pool. The figure grid ([`Sweep::grid`]) and every other sweep run
//! on the shared grid runner (`Sweep::run_grid` in `grid.rs`): the unit of
//! parallel work is one `(cell, topology)` pair whose `dest_sets` samples
//! are evaluated *sequentially* (the same floating-point order the historic
//! serial runner used), and the reduction folds per-topology partials in
//! topology-index order — so the result is bit-identical for every worker
//! count, pinned by golden tests against the committed `results/*.json`.
//!
//! Workers pull units from a shared atomic counter (self-scheduling chunk
//! queue) and stamp results into index-addressed slots; only wall time
//! depends on the thread count.

use crate::config::SweepConfig;
use crate::error::SweepError;
use crate::grid::Sample;
use crate::memo::{CacheStats, SweepCache, TopologyEntry};
use crate::sampling::TreePolicy;
use optimcast_core::tree::MulticastTree;
use optimcast_netsim::{run_multicast_prerouted, RunConfig};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Aggregate simulator effort across every cell a [`Sweep`] has evaluated.
///
/// Sums and maxima are order-insensitive, so these totals are identical for
/// every worker count — safe to surface in deterministic report metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimEffort {
    /// Total discrete events processed across all runs.
    pub events_processed: u64,
    /// Largest event-queue population seen by any single run.
    pub peak_queue_len: usize,
}

/// One sweep coordinate: a tree policy evaluated at `(dests, m)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointSpec {
    /// Tree policy under test.
    pub policy: TreePolicy,
    /// Destination count (participants = `dests + 1`).
    pub dests: u32,
    /// Packets in the message.
    pub m: u32,
    /// Simulator configuration (NI, contention, timing).
    pub run: RunConfig,
}

impl PointSpec {
    /// A point under the paper's default run configuration (smart FPFS NI,
    /// wormhole contention, handshake timing).
    pub fn new(policy: TreePolicy, dests: u32, m: u32) -> Self {
        PointSpec {
            policy,
            dests,
            m,
            run: RunConfig::default(),
        }
    }
}

/// The sweep engine: a validated configuration plus the memoization layer,
/// built by [`crate::SweepBuilder::build`].
#[derive(Debug)]
pub struct Sweep {
    cfg: SweepConfig,
    cache: SweepCache,
    events: AtomicU64,
    peak_queue: AtomicUsize,
}

impl Sweep {
    /// Wraps an already-validated configuration (only [`SweepConfig`]s from
    /// the builder exist, so no re-validation is needed).
    pub fn from_config(cfg: SweepConfig) -> Self {
        Sweep {
            cfg,
            cache: SweepCache::default(),
            events: AtomicU64::new(0),
            peak_queue: AtomicUsize::new(0),
        }
    }

    /// The validated configuration.
    pub fn config(&self) -> &SweepConfig {
        &self.cfg
    }

    /// Hit/miss counters of the memoization layer so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Aggregate simulator effort (event totals, queue high-water mark)
    /// across every run this engine has evaluated so far.
    pub fn sim_effort(&self) -> SimEffort {
        SimEffort {
            events_processed: self.events.load(AtomicOrdering::Relaxed),
            peak_queue_len: self.peak_queue.load(AtomicOrdering::Relaxed),
        }
    }

    /// Folds one run's effort into the engine-wide totals (sum + max, so
    /// the result is identical for every worker count).
    pub(crate) fn record_effort(&self, events: u64, peak_queue_len: usize) {
        self.events.fetch_add(events, AtomicOrdering::Relaxed);
        self.peak_queue
            .fetch_max(peak_queue_len, AtomicOrdering::Relaxed);
    }

    /// The memoized `(network, ordering)` of topology index `t`.
    pub fn topology(&self, t: u32) -> Arc<TopologyEntry> {
        self.cache.topology(&self.cfg, t)
    }

    /// The memoized tree of `policy` at `(n, m)`; repeated lookups of the
    /// same resolved `(n, k)` return the same allocation.
    pub fn tree(&self, policy: TreePolicy, n: u32, m: u32) -> Arc<MulticastTree> {
        self.cache.tree(policy, n, m)
    }

    /// Evaluates a grid of sweep points, fanning `points × topologies`
    /// cells out across the configured workers. Returns the §5.2 averaged
    /// latency (µs) per point, in input order — bit-identical for every
    /// thread count.
    ///
    /// # Errors
    ///
    /// [`SweepError::TooManyDests`] or [`SweepError::ZeroPackets`] if a
    /// point cannot be sampled on the configured network.
    pub fn grid(&self, specs: &[PointSpec]) -> Result<Vec<f64>, SweepError> {
        for spec in specs {
            self.check_point(spec.dests, spec.m)?;
        }
        let dest_sets = f64::from(self.cfg.dest_sets());
        let topologies = f64::from(self.cfg.topologies());
        Ok(self.run_grid(
            specs.len(),
            |cell, at, sum: &mut f64| *sum += self.sample_latency(&specs[cell], at),
            |_, sums| sums.iter().map(|sum| sum / dest_sets).sum::<f64>() / topologies,
        ))
    }

    /// Average simulated multicast latency (µs) of one point, following the
    /// §5.2 averaging methodology.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::grid`].
    pub fn avg_latency(
        &self,
        policy: TreePolicy,
        dests: u32,
        m: u32,
        run: RunConfig,
    ) -> Result<f64, SweepError> {
        let spec = PointSpec {
            run,
            ..PointSpec::new(policy, dests, m)
        };
        Ok(self.grid(&[spec])?[0])
    }

    /// Sanity bound used by tests and the figures binary: the largest
    /// improvement factor of the optimal k-binomial tree over the binomial
    /// tree across an m sweep at `dests` destinations.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::grid`].
    pub fn improvement_factor(&self, dests: u32) -> Result<f64, SweepError> {
        let mut specs = Vec::new();
        for m in crate::sampling::m_axis() {
            specs.push(PointSpec::new(TreePolicy::Binomial, dests, m));
            specs.push(PointSpec::new(TreePolicy::OptimalKBinomial, dests, m));
        }
        let means = self.grid(&specs)?;
        Ok(means
            .chunks_exact(2)
            .map(|pair| pair[0] / pair[1])
            .fold(0.0, f64::max))
    }

    /// The simulated latency (µs) of one sample of a grid point. The
    /// chain, tree, and interned CSR route table all come from the memo
    /// layer — a figure series revisits the same `(t, s)` sample for every
    /// packet-count point, so only the first point of a series pays for
    /// sampling and routing.
    fn sample_latency(&self, spec: &PointSpec, at: &Sample<'_>) -> f64 {
        let (topo, t, s) = (at.topo, at.t, at.s);
        let chain = self.cache.chain(&self.cfg, topo, t, s, spec.dests);
        let tree = self.cache.tree(spec.policy, chain.len() as u32, spec.m);
        let routes = self.cache.routes(
            &self.cfg,
            topo,
            t,
            s,
            spec.dests,
            spec.policy,
            spec.m,
            &tree,
            &chain,
        );
        let out = run_multicast_prerouted(
            &topo.net,
            tree,
            &chain,
            routes,
            spec.m,
            self.cfg.params(),
            spec.run,
        )
        .expect("sampled chains form valid bindings");
        self.record_effort(out.events, out.peak_queue_len);
        out.latency_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SweepBuilder;

    fn quick(threads: usize) -> Sweep {
        SweepBuilder::quick().parallelism(threads).build().unwrap()
    }

    #[test]
    fn avg_latency_thread_count_invariant() {
        let serial = quick(1)
            .avg_latency(TreePolicy::Binomial, 15, 2, RunConfig::default())
            .unwrap();
        for threads in [2, 8] {
            let parallel = quick(threads)
                .avg_latency(TreePolicy::Binomial, 15, 2, RunConfig::default())
                .unwrap();
            assert_eq!(
                serial.to_bits(),
                parallel.to_bits(),
                "threads={threads} drifted"
            );
        }
    }

    #[test]
    fn grid_rejects_invalid_points() {
        let sweep = quick(1);
        assert_eq!(
            sweep.grid(&[PointSpec::new(TreePolicy::Binomial, 64, 2)]),
            Err(SweepError::TooManyDests {
                dests: 64,
                hosts: 64
            })
        );
        assert_eq!(
            sweep.grid(&[PointSpec::new(TreePolicy::Binomial, 15, 0)]),
            Err(SweepError::ZeroPackets)
        );
    }

    #[test]
    fn topology_builds_once_per_index() {
        use optimcast_topology::Network as _;
        let sweep = quick(2);
        for t in [0, 1, 0, 1] {
            assert_eq!(sweep.topology(t).net.num_hosts(), 64);
        }
        // Two topologies, two memo misses; the repeat lookups are hits.
        assert_eq!(sweep.cache_stats().misses, 2);
        assert_eq!(sweep.cache_stats().hits, 2);
    }
}
