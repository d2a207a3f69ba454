//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--root DIR]`
//!
//! Runs one workload for about `S` seconds and prints, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`, and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Goldens are read under `--root` (default:
//! the current directory, which must be the repository root).

use optimcast_netsim::CountingAlloc;
use optimcast_perfbench::host::Host;
use optimcast_perfbench::probe::{Probe, CHUNK_REF_S};
use optimcast_perfbench::report::{median, result_line, Kind, Layers, PER_LAYER};
use optimcast_perfbench::workloads::{Gate, Golden, Output, Run, Workload, DEFAULT_SEED};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Fresh grid set-ups timed together, so no timed interval is shorter
/// than a few tens of milliseconds.
const SETUP_BATCH: usize = 64;
/// Batches per run; `setup_s` is the median over them.
const SETUP_BATCHES: usize = 7;
/// Before each execution, and after the last, the probe runs for this
/// share of the previous execution's time.
const PROBE_SHARE: f64 = 0.1;
/// No run starts another execution after this long, whatever `--seconds`.
const HARD_STOP_S: f64 = 120.0;

const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut root) =
        (None, DEFAULT_SEED, 10.0, false, ".".to_string());
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    bad("mega_fattree, paper_sweep, stream_churn or chaos_recovery")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= HARD_STOP_S) {
                    return Err(bad("0 < seconds <= 120"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--root" => root = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        root,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Without the committed outputs the gate cannot run: refuse rather
    // than report unchecked numbers.
    let root = std::path::Path::new(&args.root);
    if !root.join("results").is_dir() || !root.join("BENCH_mega.json").is_file() {
        eprintln!(
            "perfbench: {} is not the repository root (no results/ or BENCH_mega.json)",
            root.display()
        );
        return ExitCode::from(1);
    }
    let host = Host::probe();
    println!("{{\"host\": {}}}", host.to_json());
    let run = Run::new(args.workload, args.seed, &args.root);
    let mut gate = Gate::default();
    let goldens = if run.seed == DEFAULT_SEED {
        run.goldens().map_err(|e| gate.error(&e)).ok()
    } else {
        None
    };
    let metrics = if args.trace {
        traced(&run, args.seconds, goldens.as_deref(), &mut gate)
    } else {
        timed(&run, args.seconds, goldens.as_deref(), &mut gate)
    };
    for f in &gate.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("{}", result_line(gate.attempted, gate.failed, &metrics));
    ExitCode::SUCCESS
}

/// Whether to start another execution: stop once the next one (assumed
/// to last the mean so far) would end after `seconds`.
fn another(start: Instant, done: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    done == 0 || (elapsed + elapsed / done as f64 <= seconds && elapsed < HARD_STOP_S)
}

/// The untraced run: end-to-end metrics, medians over executions. On a
/// host-normalised workload every time is scaled by [`CHUNK_REF_S`] over
/// the median probe chunk time of the bursts around the executions, so a
/// host that runs slower than usual slows the probe alike and cancels out.
fn timed(
    run: &Run,
    seconds: f64,
    goldens: Option<&[(&'static str, Golden)]>,
    gate: &mut Gate,
) -> Vec<(&'static str, f64, &'static str)> {
    let start = Instant::now();
    let mut probe = run.workload.host_normalised().then(|| {
        let mut p = Probe::default();
        // Discarded: the first burst pays first-touch costs.
        p.burst(0.0);
        p
    });
    let mut probes = Vec::new();
    let mut setups = Vec::new();
    if run.workload != Workload::MegaFattree {
        for _ in 0..SETUP_BATCHES {
            let t = Instant::now();
            let built: Vec<_> = (0..SETUP_BATCH).filter_map(|_| run.setup()).collect();
            let batch_s = t.elapsed().as_secs_f64();
            for b in built {
                if let Err(e) = b {
                    gate.error(&e);
                }
            }
            setups.push(batch_s / SETUP_BATCH as f64);
        }
    }
    let ops_start = Instant::now();
    let budget = seconds - start.elapsed().as_secs_f64();
    let (mut wall, mut peak, mut setup, mut sim) = (vec![], vec![], vec![], vec![]);
    let mut first: Option<Output> = None;
    let mut tries = 0;
    while another(ops_start, tries, budget) {
        tries += 1;
        if let Some(p) = probe.as_mut() {
            probes.push(p.burst(PROBE_SHARE * wall.last().unwrap_or(&0.0)));
        }
        match run.op() {
            Ok(op) => {
                gate.output(&op.output, goldens, first.as_ref());
                wall.push(op.wall_s);
                peak.push(op.peak_heap_bytes as f64 / MIB);
                setup.push(op.setup_s);
                sim.push(op.sim_s);
                first.get_or_insert(op.output);
            }
            Err(e) => gate.error(&e),
        }
    }
    if let Some(p) = probe.as_mut() {
        probes.push(p.burst(PROBE_SHARE * wall.last().unwrap_or(&0.0)));
    }
    eprintln!(
        "perfbench: {} execution(s), raw seconds; wall {wall:?}; setup {setup:?}; \
         sim {sim:?}; setup batches {setups:?}; probes {probes:?}",
        wall.len()
    );
    let scale = if probes.is_empty() {
        1.0
    } else {
        CHUNK_REF_S / median(&probes)
    };
    let setup_s = if setups.is_empty() {
        median(&setup)
    } else {
        median(&setups)
    };
    vec![
        ("wall_s", median(&wall) * scale, "s"),
        ("peak_heap_mib", median(&peak), "MiB"),
        ("setup_s", setup_s * scale, "s"),
        ("sim_s", median(&sim) * scale, "s"),
    ]
}

/// The traced run: pairs of (untraced reference, traced twin); times are
/// medians over pairs, counts must repeat exactly.
fn traced(
    run: &Run,
    seconds: f64,
    goldens: Option<&[(&'static str, Golden)]>,
    gate: &mut Gate,
) -> Vec<(&'static str, f64, &'static str)> {
    let start = Instant::now();
    let mut first: Option<Output> = None;
    // The first execution in a process pays first-touch costs; spend it
    // on a checked warm-up so that neither side of a pair does.
    match run.reference() {
        Ok((warm, _)) => {
            gate.output(&warm.output, goldens, None);
            first = Some(warm.output);
        }
        Err(e) => gate.error(&e),
    }
    let mut probe = Probe::default();
    probe.burst(0.0);
    let budget = seconds - start.elapsed().as_secs_f64();
    let pairs_start = Instant::now();
    let mut pairs: Vec<Layers> = Vec::new();
    let mut tries = 0;
    while another(pairs_start, tries, budget) {
        tries += 1;
        let probe_s = probe.burst(0.0);
        let pair = run.reference().and_then(|r| Ok((r, run.traced()?)));
        let ((reference, memo), traced) = match pair {
            Ok(p) => p,
            Err(e) => {
                gate.error(&e);
                continue;
            }
        };
        gate.output(&reference.output, goldens, first.as_ref());
        gate.check(
            "traced outputs equal untraced outputs",
            traced.output.docs == reference.output.docs,
        );
        let mut l = traced.layers;
        l.extend(&memo);
        // Time the untraced engine spends outside every layer call.
        l.set("sweep.engine_s", reference.wall_s - l.spans_s());
        l.set("trace.traced_wall_s", traced.total_s);
        l.set("trace.untraced_wall_s", reference.wall_s);
        l.set("trace.overhead_s", traced.total_s - reference.wall_s);
        l.set("host.probe_s", probe_s);
        pairs.push(l);
        first.get_or_insert(reference.output);
    }
    eprintln!("perfbench: {} traced pair(s)", pairs.len());
    PER_LAYER
        .iter()
        .map(|&(name, unit, kind)| {
            let xs: Vec<f64> = pairs.iter().map(|l| l.get(name)).collect();
            let value = match kind {
                Kind::Time => median(&xs),
                Kind::Exact => {
                    if xs.len() > 1 {
                        gate.check(
                            &format!("{name} repeats exactly"),
                            xs.iter().all(|x| x.to_bits() == xs[0].to_bits()),
                        );
                    }
                    xs.first().copied().unwrap_or(0.0)
                }
            };
            (name, value, unit)
        })
        .collect()
}
