//! `chaos_recovery`: the serial paper-grid `Sweep::chaos` (6 drop rates ×
//! 5 crash counts), `Sweep::chaos_arq` (6 drop rates × stop-and-wait and
//! windowed, window 8, 2 send units) and `Sweep::chaos_with_spec` with
//! live repair, all on one sweep at fault seed = input seed. The tiny
//! size runs the CLI's quick grids.
//!
//! The traced twin fills the topology memo through `Sweep::topology`, then
//! times each grid call.

use super::{dat, sweep_builder, timed_grid, Golden, Op, Output, Run, Size};
use crate::report::Layers;
use optimcast_sweep::{ArqReport, ChaosReport, FaultPlanSpec, Sweep, SweepBuilder};

const DESTS: u32 = 31;
const M: u32 = 4;
const WINDOW: u32 = 8;
const SEND_UNITS: u32 = 2;

/// FNV-1a of the paper-grid live-repair report's pretty JSON at the
/// default seed. No committed file holds this grid; the quick grid is
/// pinned by `results/chaos_repair.json` instead.
const REPAIR_PAPER_FNV: u64 = 0x69bb_dcfb_0609_3714;

struct Axes {
    drops: Vec<f64>,
    crashes: Vec<u32>,
    arq_drops: Vec<f64>,
}

fn axes(run: &Run) -> Axes {
    match run.size {
        Size::Full => Axes {
            drops: vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.2],
            crashes: vec![0, 1, 2, 4, 8],
            arq_drops: vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.2],
        },
        Size::Tiny => Axes {
            drops: vec![0.0, 0.05, 0.1],
            crashes: vec![0, 1, 2],
            arq_drops: vec![0.0, 0.02, 0.05, 0.1],
        },
    }
}

pub(super) fn builder(run: &Run) -> SweepBuilder {
    sweep_builder(run).parallelism(1).fault(FaultPlanSpec {
        seed: run.seed,
        ..FaultPlanSpec::default()
    })
}

/// The live-repair spec the `chaos --live-repair` CLI uses: crashes land
/// 5 µs in, before the first send completes.
fn repair_spec(sweep: &Sweep) -> FaultPlanSpec {
    FaultPlanSpec {
        live_repair: true,
        crash_at_us: 5.0,
        ..sweep.config().fault()
    }
}

struct Reports {
    chaos: ChaosReport,
    arq: ArqReport,
    repair: ChaosReport,
}

pub(super) fn op(run: &Run) -> Result<(Op, Layers), String> {
    let a = axes(run);
    timed_grid(
        builder(run),
        |sweep| {
            let e = |e: optimcast_sweep::SweepError| e.to_string();
            Ok(Reports {
                chaos: sweep.chaos(&a.drops, &a.crashes, DESTS, M).map_err(e)?,
                arq: sweep
                    .chaos_arq(&a.arq_drops, DESTS, M, WINDOW, SEND_UNITS)
                    .map_err(e)?,
                repair: sweep
                    .chaos_with_spec(repair_spec(sweep), &a.drops, &a.crashes, DESTS, M)
                    .map_err(e)?,
            })
        },
        output,
    )
}

fn output(r: &Reports) -> Output {
    // `(drop rate, samples, delivered, failed)` of every cell of the three
    // grids. Reaching every rank is not an invariant: at a 20% drop rate a
    // sample can exhaust its 8-attempt budget, which the grids count as
    // `failed`. At the default seed the goldens pin `all_reached` instead.
    let cells: Vec<(f64, u32, u32, u32)> = r
        .chaos
        .cells
        .iter()
        .chain(&r.repair.cells)
        .map(|c| (c.drop_rate, c.samples, c.delivered, c.failed))
        .chain(
            r.arq
                .cells
                .iter()
                .map(|c| (c.drop_rate, c.samples, c.delivered, c.failed)),
        )
        .collect();
    let conserved = cells.iter().all(|&(_, n, ok, failed)| ok + failed == n);
    let lossless = cells
        .iter()
        .all(|&(d, _, _, failed)| d > 0.0 || failed == 0);
    Output {
        docs: vec![
            ("chaos.json", r.chaos.to_json().to_string_pretty()),
            ("chaos_arq.json", r.arq.to_json().to_string_pretty()),
            ("chaos_arq.dat", dat(&r.arq.figure())),
            ("chaos_repair.json", r.repair.to_json().to_string_pretty()),
            (
                "all_reached",
                format!(
                    "{} {} {}",
                    r.chaos.all_reached(),
                    r.arq.all_reached(),
                    r.repair.all_reached()
                ),
            ),
        ],
        invariants: vec![
            ("every sample delivered or failed", conserved),
            ("lossless cells deliver every sample", lossless),
        ],
    }
}

pub(super) fn goldens(run: &Run) -> Result<Vec<(&'static str, Golden)>, String> {
    let text = |rel: &str| Ok::<_, String>(Golden::Text(run.read(rel)?));
    Ok(match run.size {
        Size::Full => vec![
            ("chaos.json", text("results/chaos.json")?),
            ("chaos_arq.dat", text("plots/chaos_arq.dat")?),
            ("chaos_repair.json", Golden::Fnv(REPAIR_PAPER_FNV)),
            ("all_reached", Golden::Text("true true true".into())),
        ],
        Size::Tiny => vec![
            ("chaos_arq.json", text("results/chaos_arq.json")?),
            ("chaos_repair.json", text("results/chaos_repair.json")?),
            ("all_reached", Golden::Text("true true true".into())),
        ],
    })
}

pub(super) fn traced(run: &Run) -> Result<(Output, Layers), String> {
    let a = axes(run);
    let mut l = Layers::default();
    let sweep = builder(run).build().map_err(|e| e.to_string())?;
    for t in 0..sweep.config().topologies() {
        l.time("topology.irregular_s", || sweep.topology(t));
    }
    let e = |e: optimcast_sweep::SweepError| e.to_string();
    let chaos = l
        .time("sweep.chaos_s", || {
            sweep.chaos(&a.drops, &a.crashes, DESTS, M)
        })
        .map_err(e)?;
    let arq = l
        .time("sweep.chaos_arq_s", || {
            sweep.chaos_arq(&a.arq_drops, DESTS, M, WINDOW, SEND_UNITS)
        })
        .map_err(e)?;
    let spec = repair_spec(&sweep);
    let repair = l
        .time("sweep.chaos_repair_s", || {
            sweep.chaos_with_spec(spec, &a.drops, &a.crashes, DESTS, M)
        })
        .map_err(e)?;

    let effort = sweep.sim_effort();
    let grids_s =
        l.get("sweep.chaos_s") + l.get("sweep.chaos_arq_s") + l.get("sweep.chaos_repair_s");
    l.set("netsim.events", effort.events_processed as f64);
    l.set(
        "netsim.events_per_s",
        effort.events_processed as f64 / grids_s,
    );
    l.set("netsim.peak_queue_len", effort.peak_queue_len as f64);
    let faulty = chaos.cells.iter().chain(&repair.cells);
    let (mut samples, mut delivered, mut retransmits) = (0u64, 0u64, 0u64);
    for c in faulty {
        samples += u64::from(c.samples);
        delivered += u64::from(c.delivered);
        retransmits += c.retransmits;
    }
    for c in &arq.cells {
        samples += u64::from(c.samples);
        delivered += u64::from(c.delivered);
    }
    l.set("netsim.fault.samples", samples as f64);
    l.set("netsim.fault.delivered", delivered as f64);
    l.ratio(
        "netsim.fault.delivered_ratio",
        "netsim.fault.delivered",
        "netsim.fault.samples",
    );
    l.set("netsim.fault.retransmits", retransmits as f64);
    let arq_sum =
        |f: fn(&optimcast_sweep::ArqCell) -> u64| arq.cells.iter().map(f).sum::<u64>() as f64;
    l.set("netsim.arq.packets_dropped", arq_sum(|c| c.packets_dropped));
    l.set("netsim.arq.retransmits", arq_sum(|c| c.retransmits));
    l.ratio(
        "netsim.arq.retransmits_per_drop",
        "netsim.arq.retransmits",
        "netsim.arq.packets_dropped",
    );
    l.set("netsim.arq.resend_requests", arq_sum(|c| c.resend_requests));
    l.set("netsim.arq.nack_ranges", arq_sum(|c| c.nack_ranges_sent));
    l.set(
        "netsim.arq.window_stalls_us",
        arq.cells.iter().map(|c| c.window_stalls_us).sum(),
    );
    l.set(
        "netsim.repair.repairs",
        repair.cells.iter().map(|c| c.repairs).sum::<u64>() as f64,
    );
    l.set(
        "netsim.repair.reissued_packets",
        repair.cells.iter().map(|c| c.reissued_packets).sum::<u64>() as f64,
    );
    Ok((output(&Reports { chaos, arq, repair }), l))
}
