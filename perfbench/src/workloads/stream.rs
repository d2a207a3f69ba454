//! `stream_churn`: `Sweep::streaming` over the paper stream grid (27
//! cells × 300 samples; the quick grid at the tiny size), serial.
//!
//! The traced twin calls `StreamRun::run` once per (cell, sample) with the
//! engine's inputs and reduces in the engine's order, so its report must
//! equal the engine's exactly.

use super::{dat, sweep_builder, timed_grid, Golden, Op, Output, Run, Size};
use crate::report::Layers;
use optimcast_core::latency::smart_latency_us;
use optimcast_core::schedule::fpfs_schedule;
use optimcast_netsim::{FrameFate, StreamRun, StreamSpec};
use optimcast_sweep::{
    sample_chain, StreamCell, StreamGrid, StreamReport, SweepBuilder, TreePolicy,
};

/// The engine's churn-seed salt (see `optimcast_sweep::streaming`).
const CHURN_SALT: u64 = 0x94D0_49BB_1331_11EB;

fn grid(run: &Run) -> StreamGrid {
    match run.size {
        Size::Full => StreamGrid::paper(),
        Size::Tiny => StreamGrid::quick(),
    }
}

pub(super) fn builder(run: &Run) -> SweepBuilder {
    sweep_builder(run).parallelism(1)
}

pub(super) fn op(run: &Run) -> Result<(Op, Layers), String> {
    let grid = grid(run);
    timed_grid(
        builder(run),
        |sweep| sweep.streaming(&grid).map_err(|e| e.to_string()),
        output,
    )
}

fn output(report: &StreamReport) -> Output {
    let frames = u64::from(report.grid.frames);
    let conserved = report
        .cells
        .iter()
        .all(|c| c.emitted == u64::from(c.samples) * frames && c.served + c.dropped == c.emitted);
    Output {
        docs: vec![
            ("streaming.json", report.to_json().to_string_pretty()),
            ("streaming.dat", dat(&report.figure())),
        ],
        invariants: vec![("every emitted frame served or dropped", conserved)],
    }
}

pub(super) fn goldens(run: &Run) -> Result<Vec<(&'static str, Golden)>, String> {
    Ok(match run.size {
        Size::Full => vec![(
            "streaming.dat",
            Golden::Text(run.read("plots/streaming.dat")?),
        )],
        Size::Tiny => vec![(
            "streaming.json",
            Golden::Text(run.read("results/streaming.json")?),
        )],
    })
}

/// One cell's running sums, combined in the engine's order.
#[derive(Default)]
struct Agg {
    served: u64,
    dropped: u64,
    joins: u64,
    leaves: u64,
    skipped: u64,
    goodput_sum: f64,
    stale_sum: f64,
    stale_max: f64,
}

pub(super) fn traced(run: &Run) -> Result<(Output, Layers), String> {
    let mut l = Layers::default();
    let grid = grid(run);
    let sweep = builder(run).build().map_err(|e| e.to_string())?;
    let cfg = *sweep.config();
    let topos: Vec<_> = (0..cfg.topologies())
        .map(|t| l.time("topology.irregular_s", || sweep.topology(t)))
        .collect();
    let packets = grid.frame_bytes.div_ceil(grid.mtu_bytes);
    let mut calls: Vec<f64> = Vec::new();
    let mut events = 0u64;
    let mut cells = Vec::new();
    for &churn in &grid.churn_levels {
        for &load in &grid.loads {
            for &buffer in &grid.buffer_depths {
                let mut cell = StreamCell {
                    churn_events: churn,
                    load,
                    buffer_frames: buffer,
                    samples: cfg.samples(),
                    emitted: 0,
                    served: 0,
                    dropped: 0,
                    drop_rate: 0.0,
                    joins: 0,
                    leaves: 0,
                    churn_skipped: 0,
                    mean_goodput_mbps: 0.0,
                    mean_staleness_us: 0.0,
                    max_staleness_us: 0.0,
                };
                let (mut goodput_sum, mut stale_sum) = (0.0, 0.0);
                for (t, topo) in (0..).zip(&topos) {
                    let mut agg = Agg::default();
                    for s in 0..cfg.dest_sets() {
                        let salt = cfg.set_seed(t, s);
                        let chain = l.time("sweep.chain_s", || {
                            sample_chain(&topo.net, &topo.ordering, salt, grid.dests)
                        });
                        let n = chain.len() as u32;
                        let tree = l.time("core.tree_s", || {
                            sweep.tree(TreePolicy::OptimalKBinomial, n, packets)
                        });
                        let k = tree.max_degree().max(1);
                        let nominal_us = l.time("core.schedule_s", || {
                            smart_latency_us(&fpfs_schedule(&tree, packets), cfg.params())
                        });
                        let spec = StreamSpec {
                            frame_bytes: grid.frame_bytes,
                            mtu_bytes: grid.mtu_bytes,
                            gap_us: nominal_us / load,
                            frames: grid.frames,
                            buffer_frames: buffer,
                            churn_events: churn,
                            churn_seed: salt
                                .wrapping_mul(CHURN_SALT)
                                .wrapping_add(u64::from(churn)),
                            keep_frame_outcomes: false,
                        };
                        let (out, d) = l.timed("netsim.stream_s", || {
                            StreamRun::new(&topo.net, &chain, n, k, cfg.params(), spec).run()
                        });
                        calls.push(d);
                        let out = out.map_err(|e| e.to_string())?;
                        events += out.events;
                        cell.emitted += u64::from(grid.frames);
                        agg.served += u64::from(out.served);
                        agg.dropped += u64::from(out.dropped);
                        agg.joins += u64::from(out.joins);
                        agg.leaves += u64::from(out.leaves);
                        agg.skipped += u64::from(out.churn_skipped);
                        if !out.receivers.is_empty() {
                            agg.goodput_sum +=
                                out.receivers.iter().map(|r| r.goodput_mbps).sum::<f64>()
                                    / out.receivers.len() as f64;
                        }
                        let (mut sum, mut served) = (0.0, 0u32);
                        for f in &out.frames {
                            if let FrameFate::Delivered { completion_us, .. } = f.fate {
                                let staleness = completion_us - f.emitted_us;
                                sum += staleness;
                                served += 1;
                                agg.stale_max = agg.stale_max.max(staleness);
                            }
                        }
                        if served > 0 {
                            agg.stale_sum += sum / f64::from(served);
                        }
                    }
                    cell.served += agg.served;
                    cell.dropped += agg.dropped;
                    cell.joins += agg.joins;
                    cell.leaves += agg.leaves;
                    cell.churn_skipped += agg.skipped;
                    goodput_sum += agg.goodput_sum;
                    stale_sum += agg.stale_sum;
                    cell.max_staleness_us = cell.max_staleness_us.max(agg.stale_max);
                }
                cell.drop_rate = cell.dropped as f64 / cell.emitted as f64;
                cell.mean_goodput_mbps = goodput_sum / f64::from(cell.samples);
                cell.mean_staleness_us = stale_sum / f64::from(cell.samples);
                cells.push(cell);
            }
        }
    }
    let sum = |f: fn(&StreamCell) -> u64| cells.iter().map(f).sum::<u64>() as f64;
    l.set("netsim.stream_calls", calls.len() as f64);
    l.percentiles(
        "netsim.stream_call_p50_us",
        "netsim.stream_call_p99_us",
        &calls,
    );
    l.set("netsim.events", events as f64);
    l.set(
        "netsim.events_per_s",
        events as f64 / l.get("netsim.stream_s"),
    );
    l.set("netsim.stream.frames_emitted", sum(|c| c.emitted));
    l.set("netsim.stream.frames_served", sum(|c| c.served));
    l.set("netsim.stream.frames_dropped", sum(|c| c.dropped));
    l.ratio(
        "netsim.stream.drop_ratio",
        "netsim.stream.frames_dropped",
        "netsim.stream.frames_emitted",
    );
    l.set("netsim.stream.churn_applied", sum(|c| c.joins + c.leaves));
    l.set("netsim.stream.churn_skipped", sum(|c| c.churn_skipped));
    let report = StreamReport {
        grid,
        topologies: cfg.topologies(),
        dest_sets: cfg.dest_sets(),
        base_seed: cfg.base_seed(),
        cells,
    };
    Ok((output(&report), l))
}
