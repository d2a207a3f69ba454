//! The four workloads, their correctness gate, and their traced twins.
//!
//! Every workload has three entry points:
//!
//! * `op` — one untraced execution: the workload's whole operation, timed
//!   from outside, with its outputs rendered as text documents;
//! * `traced` — the same work driven call by call through the layers'
//!   public functions, each call timed, producing the same documents;
//! * `goldens` — the committed outputs the default-seed documents must
//!   equal byte for byte.

mod chaos;
mod mega;
mod paper;
mod stream;

use crate::report::Layers;
use optimcast_sweep::{Figure, Sweep, SweepBuilder};
use std::path::PathBuf;
use std::time::Instant;

/// The seed every committed golden was produced with.
pub const DEFAULT_SEED: u64 = 1997;

/// Workers of the parallel paper sweep (the reference host's `nproc`).
const PAPER_WORKERS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One optimal-k, m = 16 multicast on the 65,536-host fat-tree.
    MegaFattree,
    /// The paper's Figs. 13–14 on 64-host irregular networks.
    PaperSweep,
    /// The streaming grid with membership churn.
    StreamChurn,
    /// Fault injection, ARQ, and live repair grids.
    ChaosRecovery,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::MegaFattree,
        Workload::PaperSweep,
        Workload::StreamChurn,
        Workload::ChaosRecovery,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MegaFattree => "mega_fattree",
            Workload::PaperSweep => "paper_sweep",
            Workload::StreamChurn => "stream_churn",
            Workload::ChaosRecovery => "chaos_recovery",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the end-to-end times are scaled by the host probe. Only
    /// where the probe was measured to track the workload's run-to-run
    /// drift: `stream_churn`'s drift does not follow it, so scaling would
    /// only add the probe's own noise (see `perfbench/README.md`).
    pub fn host_normalised(self) -> bool {
        self != Workload::StreamChurn
    }
}

/// Input scale: the benchmark sizes, or the smoke-test sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Quick grids and a 1,024-host fabric, for the harness's own tests.
    Tiny,
}

/// One workload at one size and seed, reading goldens under `root`.
#[derive(Debug, Clone)]
pub struct Run {
    /// Which workload.
    pub workload: Workload,
    /// Which scale.
    pub size: Size,
    /// The input seed; [`DEFAULT_SEED`] reproduces the goldens.
    pub seed: u64,
    /// The repository root (where `results/`, `plots/` and
    /// `BENCH_mega.json` live).
    pub root: PathBuf,
}

/// What one execution produced: named text documents compared byte for
/// byte, and named invariants that must hold at every seed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Output {
    /// Rendered outputs, e.g. a figure's pretty JSON.
    pub docs: Vec<(&'static str, String)>,
    /// Invariants checked on this execution.
    pub invariants: Vec<(&'static str, bool)>,
}

/// One untraced execution.
#[derive(Debug, Clone)]
pub struct Op {
    /// The whole operation.
    pub wall_s: f64,
    /// Its set-up phase: fabric, tree and routes on `mega_fattree`; the
    /// eager `Sweep` build and topology fill on the grid workloads.
    pub setup_s: f64,
    /// Everything after set-up.
    pub sim_s: f64,
    /// High-water mark of live heap above the level at the start.
    pub peak_heap_bytes: u64,
    /// The outputs.
    pub output: Output,
}

/// One traced execution.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The outputs, which must equal the untraced ones.
    pub output: Output,
    /// Per-layer times and counts.
    pub layers: Layers,
    /// Host time of the whole traced execution.
    pub total_s: f64,
}

/// An expected document.
#[derive(Debug, Clone, PartialEq)]
pub enum Golden {
    /// The document must equal this text.
    Text(String),
    /// The document's FNV-1a digest must equal this (for outputs with no
    /// committed file).
    Fnv(u64),
}

impl Run {
    /// A benchmark-size run with goldens read relative to `root`.
    pub fn new(workload: Workload, seed: u64, root: impl Into<PathBuf>) -> Run {
        Run {
            workload,
            size: Size::Full,
            seed,
            root: root.into(),
        }
    }

    /// One untraced execution at the benchmark's parallelism.
    pub fn op(&self) -> Result<Op, String> {
        match self.workload {
            Workload::MegaFattree => mega::op(self),
            Workload::PaperSweep => Ok(paper::op(self, PAPER_WORKERS)?.0),
            Workload::StreamChurn => Ok(stream::op(self)?.0),
            Workload::ChaosRecovery => Ok(chaos::op(self)?.0),
        }
    }

    /// The untraced execution the traced one is compared with: the same
    /// work at the traced run's parallelism (serial everywhere), plus the
    /// memo counters of its `Sweep`.
    pub fn reference(&self) -> Result<(Op, Layers), String> {
        match self.workload {
            Workload::MegaFattree => Ok((mega::op(self)?, Layers::default())),
            Workload::PaperSweep => paper::op(self, 1),
            Workload::StreamChurn => stream::op(self),
            Workload::ChaosRecovery => chaos::op(self),
        }
    }

    /// One traced execution.
    pub fn traced(&self) -> Result<Traced, String> {
        let t = Instant::now();
        let (output, layers) = match self.workload {
            Workload::MegaFattree => mega::traced(self)?,
            Workload::PaperSweep => paper::traced(self)?,
            Workload::StreamChurn => stream::traced(self)?,
            Workload::ChaosRecovery => chaos::traced(self)?,
        };
        Ok(Traced {
            output,
            layers,
            total_s: t.elapsed().as_secs_f64(),
        })
    }

    /// One set-up of a grid workload: build its `Sweep` and fill the
    /// topology memo. `None` for `mega_fattree`, whose set-up is a phase
    /// of every [`Run::op`].
    pub fn setup(&self) -> Option<Result<Sweep, String>> {
        let builder = match self.workload {
            Workload::MegaFattree => return None,
            Workload::PaperSweep => paper::builder(self, PAPER_WORKERS),
            Workload::StreamChurn => stream::builder(self),
            Workload::ChaosRecovery => chaos::builder(self),
        };
        Some(eager_setup(builder))
    }

    /// The committed documents the outputs must equal at [`DEFAULT_SEED`].
    pub fn goldens(&self) -> Result<Vec<(&'static str, Golden)>, String> {
        match self.workload {
            Workload::MegaFattree => mega::goldens(self),
            Workload::PaperSweep => paper::goldens(self),
            Workload::StreamChurn => stream::goldens(self),
            Workload::ChaosRecovery => chaos::goldens(self),
        }
    }

    fn read(&self, rel: &str) -> Result<String, String> {
        let path = self.root.join(rel);
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    }
}

/// Tallies checks: each is one attempted operation; a mismatch is a
/// failed one.
#[derive(Debug, Clone, Default)]
pub struct Gate {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Gate {
    /// Records one check.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(name.to_string());
        }
    }

    /// Records an execution that returned an error.
    pub fn error(&mut self, e: &str) {
        self.check(&format!("error: {e}"), false);
    }

    /// Checks one execution's invariants, its documents against the
    /// goldens (when given), and against a previous execution (when
    /// given).
    pub fn output(
        &mut self,
        out: &Output,
        goldens: Option<&[(&'static str, Golden)]>,
        previous: Option<&Output>,
    ) {
        for &(name, ok) in &out.invariants {
            self.check(name, ok);
        }
        for (name, want) in goldens.unwrap_or_default() {
            let got = out.docs.iter().find(|(n, _)| n == name).map(|(_, d)| d);
            match (got, want) {
                (Some(d), Golden::Text(t)) => self.check(&format!("golden {name}"), d == t),
                (Some(d), Golden::Fnv(h)) => {
                    let fnv = fnv1a(d.as_bytes());
                    self.check(&format!("golden {name}: fnv1a {fnv:016x}"), fnv == *h);
                }
                (None, _) => self.check(&format!("golden {name}: not produced"), false),
            }
        }
        if let Some(prev) = previous {
            self.check("repeat equals first execution", out.docs == prev.docs);
        }
    }
}

/// The paper methodology (10 topologies × 30 destination sets), or the
/// quick one at the tiny size, at `run`'s seed.
fn sweep_builder(run: &Run) -> SweepBuilder {
    let base = match run.size {
        Size::Full => SweepBuilder::paper(),
        Size::Tiny => SweepBuilder::quick(),
    };
    base.base_seed(run.seed)
}

/// Builds a grid workload's `Sweep` and fills its topology memo.
fn eager_setup(builder: SweepBuilder) -> Result<Sweep, String> {
    let sweep = builder.build().map_err(|e| e.to_string())?;
    for t in 0..sweep.config().topologies() {
        std::hint::black_box(sweep.topology(t));
    }
    Ok(sweep)
}

/// Times a grid workload: the eager set-up, then `body` on the sweep.
/// Returns the execution, its outputs rendered by `render` (untimed), and
/// the sweep's memo counters.
fn timed_grid<T>(
    builder: SweepBuilder,
    body: impl FnOnce(&Sweep) -> Result<T, String>,
    render: impl FnOnce(&T) -> Output,
) -> Result<(Op, Layers), String> {
    use optimcast_netsim::CountingAlloc;
    let base = CountingAlloc::reset_peak();
    let t0 = Instant::now();
    let sweep = eager_setup(builder)?;
    let t1 = Instant::now();
    let result = body(&sweep)?;
    let t2 = Instant::now();
    let peak_heap_bytes = CountingAlloc::peak_bytes().saturating_sub(base);
    let op = Op {
        wall_s: (t2 - t0).as_secs_f64(),
        setup_s: (t1 - t0).as_secs_f64(),
        sim_s: (t2 - t1).as_secs_f64(),
        peak_heap_bytes,
        output: render(&result),
    };
    let mut layers = Layers::default();
    memo_layers(&mut layers, &sweep);
    Ok((op, layers))
}

/// Records a sweep's memo counters as per-layer metrics.
fn memo_layers(layers: &mut Layers, sweep: &Sweep) {
    let c = sweep.cache_stats();
    layers.set("sweep.memo_hits", c.hits as f64);
    layers.set("sweep.memo_lookups", (c.hits + c.misses) as f64);
    layers.ratio(
        "sweep.memo_hit_ratio",
        "sweep.memo_hits",
        "sweep.memo_lookups",
    );
    layers.set("sweep.route_hits", c.route_hits as f64);
    layers.set(
        "sweep.route_lookups",
        (c.route_hits + c.route_misses) as f64,
    );
    layers.ratio(
        "sweep.route_hit_ratio",
        "sweep.route_hits",
        "sweep.route_lookups",
    );
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A figure's gnuplot data table, exactly as the `optimcast` CLI writes
/// `plots/<id>.dat`.
fn dat(fig: &Figure) -> String {
    let mut xs: Vec<f64> = Vec::new();
    for s in &fig.series {
        for &(x, _) in &s.points {
            if !xs.contains(&x) {
                xs.push(x);
            }
        }
    }
    xs.sort_by(f64::total_cmp);
    let mut out = String::from("# x");
    for s in &fig.series {
        out.push_str(&format!("  \"{}\"", s.label));
    }
    out.push('\n');
    for &x in &xs {
        out.push_str(&format!("{x}"));
        for s in &fig.series {
            match s.points.iter().find(|&&(px, _)| px == x) {
                Some(&(_, y)) => out.push_str(&format!(" {y}")),
                None => out.push_str(" ?"),
            }
        }
        out.push('\n');
    }
    out
}
