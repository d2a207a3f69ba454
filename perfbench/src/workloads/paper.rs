//! `paper_sweep`: `Sweep::figure` for Figs. 13(a), 13(b), 14(a) and 14(b)
//! under the paper's methodology (10 topologies × 30 destination sets on
//! 64-host irregular networks).
//!
//! The traced twin re-walks the same grid serially through the public
//! calls the engine makes — `Sweep::topology`, `sample_chain`,
//! `Sweep::tree`, `JobRoutes::build`, `run_multicast_prerouted` — memoizing
//! chains and route tables the way the engine's memo does and reducing in
//! the engine's floating-point order, so its figures must equal the
//! engine's byte for byte.

use super::{sweep_builder, timed_grid, Golden, Op, Output, Run, Size};
use crate::report::Layers;
use optimcast_netsim::{run_multicast_prerouted, JobRoutes, RunConfig};
use optimcast_sweep::{
    m_axis, sample_chain, Figure, FigureId, Series, Sweep, SweepBuilder, ToJson, TreePolicy,
    DEST_COUNTS, N_SWEEP, PACKET_COUNTS,
};
use optimcast_topology::graph::HostId;
use std::collections::HashMap;
use std::sync::Arc;

const FIGURES: [FigureId; 4] = [
    FigureId::Fig13a,
    FigureId::Fig13b,
    FigureId::Fig14a,
    FigureId::Fig14b,
];

fn doc_name(id: FigureId) -> &'static str {
    match id {
        FigureId::Fig13a => "fig13a",
        FigureId::Fig13b => "fig13b",
        FigureId::Fig14a => "fig14a",
        FigureId::Fig14b => "fig14b",
        _ => unreachable!("not a paper-sweep figure"),
    }
}

pub(super) fn builder(run: &Run, workers: usize) -> SweepBuilder {
    sweep_builder(run).parallelism(workers)
}

pub(super) fn op(run: &Run, workers: usize) -> Result<(Op, Layers), String> {
    timed_grid(
        builder(run, workers),
        |sweep| {
            FIGURES
                .iter()
                .map(|&id| sweep.figure(id).map_err(|e| e.to_string()))
                .collect::<Result<Vec<Figure>, String>>()
        },
        |figs| output(figs),
    )
}

fn output(figs: &[Figure]) -> Output {
    let finite = figs
        .iter()
        .flat_map(|f| &f.series)
        .flat_map(|s| &s.points)
        .all(|&(_, y)| y.is_finite() && y > 0.0);
    Output {
        docs: FIGURES
            .iter()
            .zip(figs)
            .map(|(&id, f)| (doc_name(id), f.to_json().to_string_pretty()))
            .collect(),
        invariants: vec![("every latency finite and positive", finite)],
    }
}

pub(super) fn goldens(run: &Run) -> Result<Vec<(&'static str, Golden)>, String> {
    if run.size == Size::Tiny {
        return Ok(Vec::new());
    }
    FIGURES
        .iter()
        .map(|&id| {
            let name = doc_name(id);
            Ok((
                name,
                Golden::Text(run.read(&format!("results/{name}.json"))?),
            ))
        })
        .collect()
}

/// One figure's grid: `(series label, points as (x, policy, dests, m))`.
type Grid = Vec<(String, Vec<(f64, TreePolicy, u32, u32)>)>;

/// The point grid `Sweep::figure` evaluates for `id`, in its order.
fn grid(id: FigureId) -> Grid {
    let kbin = TreePolicy::OptimalKBinomial;
    let m_points = |policy, d| {
        m_axis()
            .into_iter()
            .map(|m| (f64::from(m), policy, d, m))
            .collect::<Vec<_>>()
    };
    let n_points = |policy, m| {
        N_SWEEP
            .iter()
            .map(|&n| (f64::from(n), policy, n - 1, m))
            .collect::<Vec<_>>()
    };
    let pair = [TreePolicy::Binomial, kbin];
    match id {
        FigureId::Fig13a => DEST_COUNTS
            .iter()
            .map(|&d| (format!("{d} dest"), m_points(kbin, d)))
            .collect(),
        FigureId::Fig13b => PACKET_COUNTS
            .iter()
            .rev()
            .map(|&m| {
                let label = format!("{m} pkt{}", if m == 1 { "" } else { "s" });
                (label, n_points(kbin, m))
            })
            .collect(),
        FigureId::Fig14a => [47u32, 15]
            .iter()
            .flat_map(|&d| pair.map(|p| (format!("{d} dest {}", p.label()), m_points(p, d))))
            .collect(),
        FigureId::Fig14b => [8u32, 2]
            .iter()
            .flat_map(|&m| pair.map(|p| (format!("{m} pkts {}", p.label()), n_points(p, m))))
            .collect(),
        _ => unreachable!("not a paper-sweep figure"),
    }
}

pub(super) fn traced(run: &Run) -> Result<(Output, Layers), String> {
    let mut l = Layers::default();
    let sweep: Sweep = builder(run, 1).build().map_err(|e| e.to_string())?;
    let cfg = *sweep.config();
    let topos: Vec<_> = (0..cfg.topologies())
        .map(|t| l.time("topology.irregular_s", || sweep.topology(t)))
        .collect();
    let mut chains: HashMap<(u32, u32, u32), Arc<Vec<HostId>>> = HashMap::new();
    let mut routes: HashMap<(u32, u32, u32, usize), Arc<JobRoutes>> = HashMap::new();
    let mut sim_calls: Vec<f64> = Vec::new();
    let mut events = 0u64;
    let mut figs = Vec::new();
    for id in FIGURES {
        let mut series = Vec::new();
        for (label, points) in grid(id) {
            let mut out = Vec::new();
            for (x, policy, dests, m) in points {
                let mut per_topology = Vec::new();
                for (t, topo) in (0..).zip(&topos) {
                    let mut samples = Vec::new();
                    for s in 0..cfg.dest_sets() {
                        let chain = match chains.get(&(t, s, dests)) {
                            Some(c) => Arc::clone(c),
                            None => {
                                let c = l.time("sweep.chain_s", || {
                                    Arc::new(sample_chain(
                                        &topo.net,
                                        &topo.ordering,
                                        cfg.set_seed(t, s),
                                        dests,
                                    ))
                                });
                                chains.insert((t, s, dests), Arc::clone(&c));
                                c
                            }
                        };
                        let tree =
                            l.time("core.tree_s", || sweep.tree(policy, chain.len() as u32, m));
                        // The engine keys route tables by tree shape; the
                        // memoized tree's address identifies it.
                        let key = (t, s, dests, Arc::as_ptr(&tree) as usize);
                        let table = match routes.get(&key) {
                            Some(r) => Arc::clone(r),
                            None => {
                                let r = l.time("netsim.routes_s", || {
                                    Arc::new(JobRoutes::build(&topo.net, &tree, &chain))
                                });
                                l.add("netsim.routes_builds", 1.0);
                                routes.insert(key, Arc::clone(&r));
                                r
                            }
                        };
                        let (res, d) = l.timed("netsim.sim_s", || {
                            run_multicast_prerouted(
                                &topo.net,
                                tree,
                                &chain,
                                table,
                                m,
                                cfg.params(),
                                RunConfig::default(),
                            )
                        });
                        sim_calls.push(d);
                        let res = res.map_err(|e| e.to_string())?;
                        events += res.events;
                        samples.push(res.latency_us);
                    }
                    per_topology.push(samples.iter().sum::<f64>() / f64::from(cfg.dest_sets()));
                }
                let y = per_topology.iter().sum::<f64>() / f64::from(cfg.topologies());
                out.push((x, y));
            }
            series.push(Series { label, points: out });
        }
        let (title, x_label) = labels(id);
        figs.push(Figure {
            id: doc_name(id).to_string(),
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: "latency (us)".to_string(),
            series,
        });
    }
    l.set("netsim.sim_calls", sim_calls.len() as f64);
    l.percentiles(
        "netsim.sim_call_p50_us",
        "netsim.sim_call_p99_us",
        &sim_calls,
    );
    l.set("netsim.events", events as f64);
    l.set("netsim.events_per_s", events as f64 / l.get("netsim.sim_s"));
    Ok((output(&figs), l))
}

/// `(title, x label)` of each figure, as `Sweep::figure` writes them.
fn labels(id: FigureId) -> (&'static str, &'static str) {
    let m_axis = "Number of packets (m)";
    let n_axis = "Multicast set size (n)";
    match id {
        FigureId::Fig13a => (
            "Multicast latency using k-binomial tree (fixed n, varying m)",
            m_axis,
        ),
        FigureId::Fig13b => (
            "Multicast latency using k-binomial tree (fixed m, varying n)",
            n_axis,
        ),
        FigureId::Fig14a => (
            "Binomial vs k-binomial latency (fixed n, varying m)",
            m_axis,
        ),
        FigureId::Fig14b => (
            "Binomial vs k-binomial latency (fixed m, varying n)",
            n_axis,
        ),
        _ => unreachable!("not a paper-sweep figure"),
    }
}
