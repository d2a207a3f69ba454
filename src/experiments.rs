//! End-to-end experiment pipeline — a pure re-export facade over the
//! [`optimcast_sweep`] engine crate.
//!
//! The sweep engine owns the evaluation methodology (§5.2): validated
//! configuration via [`SweepBuilder`], deterministic parallel execution via
//! [`Sweep`], memoized topology/tree construction, and the figure
//! vocabulary ([`Figure`]/[`Series`]/[`FigureId`]). This module re-exports
//! that API under its historic path; the pre-redesign free-form config
//! struct and its deprecated shims have been removed.
//!
//! Migration map (historic name → replacement):
//!
//! | pre-redesign                        | replacement                                   |
//! |-------------------------------------|-----------------------------------------------|
//! | free-form config + field edits      | [`SweepBuilder::paper()`] + validated setters |
//! | `fig13a(&cfg)` … `fig14b(&cfg)`     | [`Sweep::figure`] with a [`FigureId`]         |
//! | `avg_latency(&cfg, …)`              | [`Sweep::avg_latency`]                        |
//! | `improvement_factor(&cfg, …)`       | [`Sweep::improvement_factor`]                 |
//! | `sample_instance(&cfg, …)`          | [`sample_instance`] with a [`SweepConfig`]    |

pub use optimcast_sweep::{
    bench_sweep, buffer_figure, fig12a, fig12b, fig4, fig5, fig8, fig_disciplines,
    k_search_interval, m_axis, sample_chain, sample_instance, BenchReport, CacheStats, Figure,
    FigureId, Instance, PointSpec, Series, Sweep, SweepBuilder, SweepConfig, SweepError,
    TenantCell, TenantPolicyStats, TenantReport, TopologyEntry, TreePolicy, DEST_COUNTS, M_SWEEP,
    N_SWEEP, PACKET_COUNTS,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reaches_the_engine() {
        let sweep = SweepBuilder::quick().build().unwrap();
        let fig = sweep.figure(FigureId::Fig4).unwrap();
        assert_eq!(fig.id, "fig4");
        assert!(!fig.series.is_empty());
    }
}
