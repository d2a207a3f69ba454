//! Regenerates every figure of the paper as text data tables (and optional
//! JSON sidecars for EXPERIMENTS.md).
//!
//! ```text
//! figures [--quick] [--threads N] [--json DIR] [--gnuplot DIR] [FIG ...]
//!   FIG ∈ {fig4, fig5, fig8, buffers, fig12a, fig12b,
//!          fig13a, fig13b, fig14a, fig14b, disciplines,
//!          chaos_outage, chaos_corrupt, chaos_buffer, all}     (default: all)
//!   --quick     2 topologies × 3 destination sets instead of the paper's 10 × 30
//!   --threads N run simulated figures on N workers (bit-identical for any N)
//!   --json D    also write <D>/<fig>.json
//! ```

use optimcast::prelude::*;
use optimcast::sweep::ToJson;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut threads: usize = 1;
    let mut json_dir: Option<String> = None;
    let mut gnuplot_dir: Option<String> = None;
    let mut figs: Vec<FigureId> = Vec::new();
    let mut chaos_figs: Vec<ChaosFigureId> = Vec::new();
    let mut explicit = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--threads" => {
                threads = flag_value(&mut it, "--threads")
                    .parse()
                    .unwrap_or_else(|e| {
                        eprintln!("--threads: {e}");
                        std::process::exit(2);
                    });
            }
            "--json" => json_dir = Some(flag_value(&mut it, "--json")),
            "--gnuplot" => gnuplot_dir = Some(flag_value(&mut it, "--gnuplot")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: figures [--quick] [--threads N] [--json DIR] [--gnuplot DIR] [FIG ...]\n\
                     FIG: fig4 fig5 fig8 buffers fig12a fig12b fig13a fig13b fig14a fig14b \
                     disciplines chaos_outage chaos_corrupt chaos_buffer all"
                );
                return;
            }
            "all" => {
                explicit = true;
                figs.extend(FigureId::ALL);
                chaos_figs.extend(ChaosFigureId::ALL);
            }
            other => {
                explicit = true;
                match other.parse::<FigureId>() {
                    Ok(id) => figs.push(id),
                    Err(_) => match other.parse::<ChaosFigureId>() {
                        Ok(id) => chaos_figs.push(id),
                        Err(e) => eprintln!("{e}, skipping"),
                    },
                }
            }
        }
    }
    if !explicit {
        figs = FigureId::ALL.to_vec();
        chaos_figs = ChaosFigureId::ALL.to_vec();
    }

    let builder = if quick {
        SweepBuilder::quick()
    } else {
        SweepBuilder::paper()
    };
    let sweep = builder.parallelism(threads).build().unwrap_or_else(|e| {
        eprintln!("invalid sweep configuration: {e}");
        std::process::exit(2);
    });
    let cfg = sweep.config();
    println!(
        "# optimcast figure regeneration ({} topologies x {} destination sets, {} worker(s))",
        cfg.topologies(),
        cfg.dest_sets(),
        cfg.threads()
    );
    println!("# network: 64 hosts, 16 switches x 8 ports; CCO ordering; FPFS smart NI\n");

    let emit = |name: String, start: Instant, result: Result<Figure, SweepError>| {
        let figure = match result {
            Ok(figure) => figure,
            Err(e) => {
                eprintln!("{name}: {e}, skipping");
                return;
            }
        };
        print_figure(&figure, start.elapsed().as_secs_f64());
        if let Some(dir) = &json_dir {
            write_json(dir, &figure);
        }
        // `<fig>.dat` (x then one column per series) and `<fig>.gp` (a
        // ready-to-run gnuplot script reproducing the paper-style plot).
        if let Some(dir) = &gnuplot_dir {
            match figure.write_plots(dir) {
                Ok([dat_path, gp_path]) => println!("   wrote {dat_path} + {gp_path}\n"),
                Err(e) => eprintln!("{e}"),
            }
        }
    };
    for fig in figs {
        let start = Instant::now();
        emit(fig.to_string(), start, sweep.figure(fig));
    }
    // The chaos-axis figures (outage window, corruption rate, NI buffer
    // capacity) chart the fault extension on top of the paper's sampling
    // methodology: 31 destinations, 4-packet messages, matching the
    // `optimcast chaos` grid defaults.
    for fig in chaos_figs {
        let start = Instant::now();
        emit(fig.to_string(), start, sweep.chaos_figure(fig, 31, 4));
    }
}

/// The value after `flag`; a missing one ends the run with exit status 2.
fn flag_value(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next().unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    })
}

/// Prints a figure as an aligned table: one row per x value, one column per
/// series (the paper's gnuplot-style series).
fn print_figure(fig: &Figure, elapsed: f64) {
    println!("## {} — {}   [{elapsed:.2}s]", fig.id, fig.title);
    print!("{:>24}", fig.x_label);
    for s in &fig.series {
        print!("{:>16}", s.label);
    }
    println!();
    for x in fig.x_values() {
        // Fractional axes (e.g. corruption rate) keep two decimals;
        // integral axes (packets, dests) stay as before.
        if x.fract() == 0.0 {
            print!("{x:>24.0}");
        } else {
            print!("{x:>24.2}");
        }
        for s in &fig.series {
            match s.points.iter().find(|&&(px, _)| px == x) {
                Some(&(_, y)) => print!("{y:>16.2}"),
                None => print!("{:>16}", "-"),
            }
        }
        println!();
    }
    println!("   ({})\n", fig.y_label);
}

fn write_json(dir: &str, fig: &Figure) {
    let path = format!("{dir}/{}.json", fig.id);
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, fig.to_json().to_string_pretty()))
    {
        Ok(()) => println!("   wrote {path}\n"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}
