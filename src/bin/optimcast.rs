//! `optimcast` — command-line front end to the library.
//!
//! Run `optimcast help` for the subcommands and their flags. The usage
//! text, each subcommand's accepted flags, and the dispatch all come from
//! the one [`COMMANDS`] table.

use optimcast::core::schedule::ForwardingDiscipline;
use optimcast::jsonout::{Json, ToJson};
use optimcast::netsim::{
    MulticastJob, NiModel, SimRun, TraceKind, Transport, WorkloadConfig, WorkloadOutcome,
};
use optimcast::prelude::*;
use optimcast::sweep::{bench_mega, bench_regressions, bench_sim, bench_sweep};
use optimcast::topology::ordering::{cco, poc};
use optimcast::transport_udp::{
    loopback_demo, run_sink, run_source, UdpTransport, WirePlan, DEFAULT_MTU, HEADER_LEN,
};
use std::collections::HashMap;
use std::fmt;

/// Every allocation in the CLI is counted so `bench-sim` can report
/// allocations-per-event; two relaxed atomic adds per allocation are noise
/// next to the allocation itself.
#[global_allocator]
static ALLOC: optimcast::netsim::CountingAlloc = optimcast::netsim::CountingAlloc::new();

type Flags = HashMap<String, String>;

/// A failed subcommand: what went wrong, and the exit status — 2 for a
/// bad command line (an unknown flag, or a flag or argument that does not
/// parse or is out of range), 1 for a well-formed command whose run failed.
struct CliError {
    code: i32,
    msg: String,
}

fn usage(msg: impl fmt::Display) -> CliError {
    CliError {
        code: 2,
        msg: msg.to_string(),
    }
}

fn runtime(msg: impl fmt::Display) -> CliError {
    CliError {
        code: 1,
        msg: msg.to_string(),
    }
}

type CmdResult = Result<(), CliError>;

/// One subcommand. Its usage text doubles as its flag whitelist: the
/// command accepts exactly the `--name` tokens the text mentions.
struct Command {
    name: &'static str,
    usage: &'static str,
    run: fn(&Flags, &[String]) -> CmdResult,
}

impl Command {
    fn accepts(&self, flag: &str) -> bool {
        self.usage
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .any(|token| token.strip_prefix("--") == Some(flag))
    }
}

const COMMANDS: &[Command] = &[
    Command {
        name: "topo",
        usage: "[--switches S] [--ports P] [--hosts H] [--seed N] [--dot]",
        run: cmd_topo,
    },
    Command {
        name: "route",
        usage: "[--switches S] [--ports P] [--hosts H] [--seed N] <FROM> <TO>",
        run: cmd_route,
    },
    Command {
        name: "tree",
        usage: "--n N [--k K] [--m M] [--render] [--dot] [--diagram]",
        run: cmd_tree,
    },
    Command {
        name: "optimal",
        usage: "--n N --m M",
        run: cmd_optimal,
    },
    Command {
        name: "table",
        usage: "[--max-n N] [--max-m M]",
        run: cmd_table,
    },
    Command {
        name: "simulate",
        usage: "[--switches S] [--ports P] [--hosts H] [--seed N] [--dests D] [--m M]\n\
                [--nic conv|fcfs|fpfs] [--ordering cco|poc|random] [--ideal] [--trace]\n\
                [--json] [--drop-rate R] [--corrupt-rate R] [--crashes C] [--crash-at US]\n\
                [--live-repair] [--fault-seed N] [--window W] [--send-units S]\n\
                [--deadline US]",
        run: cmd_simulate,
    },
    Command {
        name: "bench-sweep",
        usage: "[--threads N] [--smoke] [--out PATH]",
        run: cmd_bench_sweep,
    },
    Command {
        name: "bench-sim",
        usage: "[--quick] [--out PATH] [--mega [--hosts N] [--digest PATH] [--plots DIR]]",
        run: cmd_bench_sim,
    },
    Command {
        name: "bench-compare",
        usage: "[--sim PATH] [--sweep PATH] [--mega PATH] [--threshold F] [--threads N]",
        run: cmd_bench_compare,
    },
    Command {
        name: "chaos",
        usage: "[--quick] [--seed N] [--threads N] [--dests D] [--m M] [--live-repair]\n\
                [--crash-at US] [--out PATH] [--arq] [--window W] [--send-units S]\n\
                [--plots DIR]",
        run: cmd_chaos,
    },
    Command {
        name: "jobs",
        usage: "[--quick] [--seed N] [--threads N] [--m M] [--json] [--out PATH] [--plots DIR]",
        run: cmd_jobs,
    },
    Command {
        name: "stream",
        usage: "[--quick] [--seed N] [--threads N] [--dests D] [--frame-bytes B] [--mtu B]\n\
                [--frames F] [--out PATH] [--plots DIR]",
        run: cmd_stream,
    },
    Command {
        name: "wire",
        usage: "[--role demo|source|sink] --n N [--k K] [--m M] [--rank R] [--port-base P]\n\
                [--payload B] [--mtu M] [--timeout-ms T]",
        run: cmd_wire,
    },
];

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(name) = args.next() else {
        print_usage();
        return;
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        print_usage();
        return;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("unknown command '{name}'");
        print_usage();
        std::process::exit(2);
    };
    let (flags, positional) = parse_flags(args);
    let result = match flags.keys().filter(|f| !cmd.accepts(f)).min() {
        Some(bad) => Err(usage(format!("unknown flag --{bad}"))),
        None => (cmd.run)(&flags, &positional),
    };
    if let Err(e) = result {
        eprintln!("{name}: {}", e.msg);
        std::process::exit(e.code);
    }
}

fn print_usage() {
    eprintln!("optimcast — k-binomial multicast toolkit (Kesavan & Panda, ICPP 1997)\ncommands:");
    for cmd in COMMANDS {
        let mut lines = cmd.usage.lines();
        eprintln!("   {:<8} {}", cmd.name, lines.next().unwrap_or_default());
        for line in lines {
            eprintln!("{:12}{line}", "");
        }
    }
}

fn parse_flags(args: impl Iterator<Item = String>) -> (Flags, Vec<String>) {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().unwrap(),
                _ => "true".to_string(),
            };
            flags.insert(name.to_string(), value);
        } else {
            positional.push(a);
        }
    }
    (flags, positional)
}

fn get<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, CliError>
where
    T::Err: fmt::Display,
{
    match flags.get(name) {
        Some(v) => v.parse().map_err(|e| usage(format!("--{name}: {e}"))),
        None => Ok(default),
    }
}

/// [`get`], rejecting values below `min`.
fn get_at_least<T>(flags: &Flags, name: &str, default: T, min: T) -> Result<T, CliError>
where
    T: std::str::FromStr + PartialOrd + fmt::Display,
    T::Err: fmt::Display,
{
    let value = get(flags, name, default)?;
    if value < min {
        return Err(usage(format!("--{name} must be at least {min}")));
    }
    Ok(value)
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn write_file(path: &str, body: String) -> CmdResult {
    std::fs::write(path, body).map_err(|e| runtime(format!("cannot write {path}: {e}")))
}

/// Writes `fig` as gnuplot `.dat`/`.gp` files under `--plots` (default
/// `plots/`).
fn write_plots(flags: &Flags, fig: &Figure) -> CmdResult {
    let dir = flags.get("plots").map_or("plots", String::as_str);
    let [dat, gp] = fig.write_plots(dir).map_err(runtime)?;
    println!("plots written to {dat} and {gp}");
    Ok(())
}

fn build_net(flags: &Flags) -> Result<IrregularNetwork, CliError> {
    let cfg = IrregularConfig {
        switches: get(flags, "switches", 16)?,
        ports: get(flags, "ports", 8)?,
        hosts: get(flags, "hosts", 64)?,
    };
    cfg.validate()
        .map_err(|e| usage(format!("--switches/--ports/--hosts: {e}")))?;
    Ok(IrregularNetwork::generate(cfg, get(flags, "seed", 0u64)?))
}

fn cmd_topo(flags: &Flags, _: &[String]) -> CmdResult {
    let net = build_net(flags)?;
    let t = net.topology();
    if flags.contains_key("dot") {
        print!("{}", t.to_dot());
        return Ok(());
    }
    println!("{}", net.describe());
    println!(
        "links: {} ({} switch-switch)",
        t.num_links(),
        t.link_pairs().len()
    );
    println!("up*/down* root: {}", net.routing().root());
    for s in 0..t.num_switches() {
        let sid = SwitchId(s);
        let nbrs: Vec<String> = t
            .switch_neighbors(sid)
            .iter()
            .map(|(_, n)| n.to_string())
            .collect();
        println!(
            "  {sid}: level {}, {} hosts, links to [{}]",
            net.routing().level(sid),
            t.switch_hosts(sid).len(),
            nbrs.join(", ")
        );
    }
    Ok(())
}

fn cmd_route(flags: &Flags, positional: &[String]) -> CmdResult {
    let [from, to] = positional else {
        return Err(usage("needs <FROM> <TO>"));
    };
    let net = build_net(flags)?;
    let hosts = net.num_hosts();
    let host = |arg: &str, what: &str| match arg.parse::<u32>() {
        Ok(id) if id < hosts => Ok(HostId(id)),
        Ok(id) => Err(usage(format!(
            "{what} host {id} is out of range: the network has {hosts} hosts"
        ))),
        Err(e) => Err(usage(format!("{what} '{arg}': {e}"))),
    };
    let (from, to) = (host(from, "FROM")?, host(to, "TO")?);
    let route = net.route(from, to);
    println!("{from} -> {to}: {} channels", route.len());
    let t = net.topology();
    for c in route {
        let (a, b) = t.channel_endpoints(c);
        println!("  {a} -> {b}");
    }
    Ok(())
}

fn cmd_tree(flags: &Flags, _: &[String]) -> CmdResult {
    let n: u32 = get_at_least(flags, "n", 16, 1)?;
    let m: u32 = get_at_least(flags, "m", 1, 1)?;
    let k = if flags.contains_key("k") {
        get_at_least(flags, "k", 1, 1)?
    } else {
        let opt = optimal_k(u64::from(n), m);
        println!(
            "optimal k for n={n}, m={m}: {} ({} steps)",
            opt.k, opt.steps
        );
        opt.k
    };
    let tree = kbinomial_tree(n, k);
    let sched = fpfs_schedule(&tree, m);
    println!(
        "{k}-binomial tree over {n}: depth {}, root degree {}, {m}-packet FPFS completes in {} steps",
        tree.depth(),
        tree.root_degree(),
        sched.total_steps()
    );
    if flags.contains_key("render") {
        print!("{}", tree.render());
    }
    if flags.contains_key("dot") {
        print!("{}", tree.to_dot());
    }
    if flags.contains_key("diagram") {
        print!("{}", sched.step_diagram(&tree));
    }
    Ok(())
}

fn cmd_optimal(flags: &Flags, _: &[String]) -> CmdResult {
    let n: u64 = get_at_least(flags, "n", 64, 1)?;
    let m: u32 = get_at_least(flags, "m", 8, 1)?;
    let opt = optimal_k(n, m);
    println!("n={n} m={m}: optimal k = {}, {} steps", opt.k, opt.steps);
    let p = SystemParams::paper_1997();
    println!(
        "contention-free latency: {:.2} us (t_s + steps*t_step + t_r)",
        p.t_s + opt.steps as f64 * p.t_step() + p.t_r
    );
    Ok(())
}

fn cmd_table(flags: &Flags, _: &[String]) -> CmdResult {
    let max_n: u64 = get_at_least(flags, "max-n", 64, 2)?;
    let max_m: u32 = get_at_least(flags, "max-m", 16, 1)?;
    let table = OptimalKTable::build(max_n, max_m);
    println!(
        "optimal-k table, n in 2..={max_n} (rows), m in 1..={max_m} (cols), {} bytes:",
        table.memory_bytes()
    );
    print!("{:>5}", "n\\m");
    for m in 1..=max_m {
        print!("{m:>3}");
    }
    println!();
    for n in 2..=max_n {
        print!("{n:>5}");
        for m in 1..=max_m {
            print!("{:>3}", table.lookup(n, m).unwrap());
        }
        println!();
    }
    Ok(())
}

fn cmd_simulate(flags: &Flags, _: &[String]) -> CmdResult {
    let net = build_net(flags)?;
    let dests: u32 = get(flags, "dests", 31)?;
    let m: u32 = get_at_least(flags, "m", 8, 1)?;
    let n_hosts = net.num_hosts();
    if dests >= n_hosts {
        return Err(usage(format!(
            "--dests {dests} requires at least {} hosts, but the network has {n_hosts} \
             (raise --hosts/--switches)",
            dests + 1
        )));
    }
    let ordering = match flags.get("ordering").map(String::as_str) {
        None | Some("cco") => cco(&net),
        Some("poc") => poc(&net),
        Some("random") => {
            Ordering::random(net.num_hosts(), get(flags, "seed", 0u64)?.wrapping_add(1))
        }
        Some(o) => return Err(usage(format!("unknown ordering '{o}'"))),
    };
    let nic = match flags.get("nic").map(String::as_str) {
        None | Some("fpfs") => NicKind::Smart(ForwardingDiscipline::Fpfs),
        Some("fcfs") => NicKind::Smart(ForwardingDiscipline::Fcfs),
        Some("conv") => NicKind::Conventional,
        Some(o) => return Err(usage(format!("unknown nic '{o}'"))),
    };
    let contention = if flags.contains_key("ideal") {
        ContentionMode::Ideal
    } else {
        ContentionMode::Wormhole
    };
    let params = SystemParams::paper_1997();
    let dest_hosts: Vec<HostId> = (1..=dests).map(HostId).collect();
    let chain = ordering.arrange(HostId(0), &dest_hosts);
    let n = chain.len() as u32;
    let opt = optimal_k(u64::from(n), m);
    let tree = kbinomial_tree(n, opt.k);
    let live_repair = flags.contains_key("live-repair");
    let send_units: u32 = get(flags, "send-units", 1)?;
    let deadline_us: Option<f64> = if flags.contains_key("deadline") {
        Some(get(flags, "deadline", 0.0)?)
    } else {
        None
    };
    let spec = FaultPlanSpec {
        seed: get(flags, "fault-seed", 1997u64)?,
        drop_rate: get(flags, "drop-rate", 0.0)?,
        corrupt_rate: get(flags, "corrupt-rate", 0.0)?,
        crashes: get(flags, "crashes", 0)?,
        crash_at_us: get(flags, "crash-at", if live_repair { 5.0 } else { 0.0 })?,
        live_repair,
        window: get(flags, "window", 1)?,
        deadline_us,
        send_units,
        ..FaultPlanSpec::default()
    };
    if spec.crashes as usize >= chain.len() {
        return Err(usage(format!(
            "--crashes {} must leave at least the source and one \
             destination out of {} participants",
            spec.crashes,
            chain.len()
        )));
    }
    let jobs = [MulticastJob {
        nic,
        ..MulticastJob::fpfs(tree, chain.clone(), m)
    }];
    let config = WorkloadConfig {
        contention,
        timing: NiTiming::Handshake,
        trace: flags.contains_key("trace"),
        ni: NiModel {
            send_units,
            queue_capacity: None,
        },
    };
    let wl = if !spec.is_trivial() {
        // The crashed hosts are the deepest in the ordering: the last
        // `--crashes` destinations of the arranged chain.
        let crashes: Vec<HostCrash> = chain
            .iter()
            .rev()
            .take(spec.crashes as usize)
            .map(|&host| HostCrash {
                host,
                at_us: spec.crash_at_us,
            })
            .collect();
        SimRun::new(&net, &jobs, &params, config)
            .faults(&spec.plan(0, crashes))
            .run()
    } else {
        SimRun::new(&net, &jobs, &params, config).run()
    }
    .map_err(runtime)?;
    let out = &wl.jobs[0];
    let c = &wl.counters;
    if flags.contains_key("json") {
        print!(
            "{}",
            simulate_json(&wl, opt.k, opt.steps).to_string_pretty()
        );
        return Ok(());
    }
    println!("{}", net.describe());
    println!(
        "multicast: {dests} dests, {m} packets, optimal k = {} -> {} predicted steps",
        opt.k, opt.steps
    );
    println!(
        "latency {:.2} us | {} sends, {} blocked, {:.1} us stalled | max fwd buffer {} pkts",
        out.latency_us,
        out.total_sends,
        out.blocked_sends,
        out.channel_wait_us,
        out.max_ni_buffer[1..].iter().max().copied().unwrap_or(0)
    );
    println!(
        "counters: {} forwarded | {} recv-unit waits ({:.1} us) | send queue depth <= {} | {} events",
        c.packets_forwarded,
        c.recv_unit_waits,
        c.recv_unit_wait_us,
        c.max_send_queue,
        c.events
    );
    if c.packets_dropped + c.packets_corrupted + c.retransmits + c.repairs > 0 {
        println!(
            "faults: {} dropped, {} corrupted, {} retransmits, {} abandoned ({:.1} us recovering) \
             | {} repair epoch(s), {} reissued ({:.1} us repairing)",
            c.packets_dropped,
            c.packets_corrupted,
            c.retransmits,
            c.deliveries_abandoned,
            c.recovery_wait_us,
            c.repairs,
            c.reissued_packets,
            c.repair_wait_us
        );
    }
    if c.resend_requests + c.nack_ranges_sent + c.late_acks + c.duplicate_acks > 0
        || c.window_stalls_us > 0.0
        || c.deadline_writeoffs > 0
    {
        println!(
            "arq: {} resend requests, {} nack ranges, {} late acks, {} duplicate acks, \
             {:.1} us window-stalled, {} deadline write-off(s)",
            c.resend_requests,
            c.nack_ranges_sent,
            c.late_acks,
            c.duplicate_acks,
            c.window_stalls_us,
            c.deadline_writeoffs
        );
    }
    if !wl.unreached.is_empty() {
        let ranks: Vec<String> = wl
            .unreached
            .iter()
            .map(|(job, rank)| format!("job {job} rank {}", rank.0))
            .collect();
        println!("unreached (written off): {}", ranks.join(", "));
    }
    let histo: Vec<String> = c
        .buffer_occupancy
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, &n)| n > 0)
        .map(|(depth, n)| format!("{depth}:{n}"))
        .collect();
    if !histo.is_empty() {
        println!(
            "buffer occupancy (pkts:times grown to): {}",
            histo.join(" ")
        );
    }
    if flags.contains_key("trace") {
        println!("timeline ({} records):", wl.trace.len());
        for r in &wl.trace {
            println!("  {:9.2} us  {}", r.t_us, trace_event(&r.kind));
        }
    }
    Ok(())
}

/// One `--trace` timeline entry, after its timestamp.
fn trace_event(kind: &TraceKind) -> String {
    use TraceKind::*;
    match *kind {
        SendStart {
            from,
            to,
            packet,
            stalled_us,
        } if stalled_us > 0.0 => {
            format!("send  {from} -> {to}  pkt {packet}  (stalled {stalled_us:.1} us)")
        }
        SendStart {
            from, to, packet, ..
        } => format!("send  {from} -> {to}  pkt {packet}"),
        RecvDone { at, packet } => format!("recv  {at}  pkt {packet}"),
        HostDone { rank } => format!("done  {rank}"),
        Dropped {
            from,
            to,
            packet,
            kind,
        } => {
            format!("drop  {from} -> {to}  pkt {packet}  ({kind:?})")
        }
        Retransmit {
            from,
            to,
            packet,
            attempt,
        } => {
            format!("retry {from} -> {to}  pkt {packet}  attempt {attempt}")
        }
        Abandoned {
            from,
            to,
            packet,
            attempts,
        } => {
            format!("abandon {from} -> {to}  pkt {packet}  after {attempts} attempts")
        }
        RepairTriggered {
            epoch,
            failed,
            reattached,
        } => {
            format!("repair epoch {epoch}  ({failed} failed, {reattached} reattached)")
        }
        Reissued { to, packet } => format!("reissue -> {to}  pkt {packet}"),
    }
}

fn cmd_bench_sweep(flags: &Flags, _: &[String]) -> CmdResult {
    let threads: usize = get(flags, "threads", default_threads())?;
    let smoke = flags.contains_key("smoke");
    let (base, label) = if smoke {
        (SweepBuilder::quick(), "smoke (2×3)")
    } else {
        (SweepBuilder::paper(), "paper (10×30)")
    };
    eprintln!("bench-sweep: {label} methodology, serial vs {threads} worker(s)...");
    let report = bench_sweep(&base, threads).map_err(runtime)?;
    let out_path = flags.get("out").map_or("BENCH_sweep.json", String::as_str);
    write_file(out_path, report.to_json().to_string_pretty())?;
    println!(
        "cells: {} | serial {:.3} s ({:.1} cells/s) | {} workers {:.3} s ({:.1} cells/s) | speedup {:.2}x",
        report.cells,
        report.serial_seconds,
        report.serial_cells_per_sec(),
        report.threads,
        report.parallel_seconds,
        report.parallel_cells_per_sec(),
        report.speedup()
    );
    println!(
        "cache: {} hits / {} misses ({:.1}% hit rate) | parallel output identical to serial: {}",
        report.cache.hits,
        report.cache.misses,
        100.0 * report.cache.hit_rate(),
        report.identical
    );
    println!(
        "routes: {} hits / {} misses ({:.1}% hit rate) | {} events, peak queue {}",
        report.cache.route_hits,
        report.cache.route_misses,
        100.0 * report.cache.route_hit_rate(),
        report.effort.events_processed,
        report.effort.peak_queue_len
    );
    println!("report written to {out_path}");
    if !report.identical {
        return Err(runtime(
            "DETERMINISM VIOLATION — parallel figures diverged from serial",
        ));
    }
    Ok(())
}

/// The `bench-sim` subcommand: simulator-core throughput (event-queue
/// churn, `run_multicast` events/sec, allocations-per-event via the
/// counting global allocator registered above), written as
/// `BENCH_sim.json`.
fn cmd_bench_sim(flags: &Flags, _: &[String]) -> CmdResult {
    if flags.contains_key("mega") {
        return cmd_bench_mega(flags);
    }
    let quick = flags.contains_key("quick");
    let label = if quick { "quick" } else { "full" };
    eprintln!("bench-sim: {label} sizing...");
    let report = bench_sim(quick).map_err(runtime)?;
    println!(
        "event queue: {:.2} M schedule+pop pairs/s ({} ops)",
        report.queue_ops_per_sec / 1e6,
        report.queue_ops
    );
    println!(
        "run_multicast: {:.2} M events/s over {} runs ({} dests, {} packets, \
         {} events/run, peak queue {})",
        report.events_per_sec / 1e6,
        report.runs,
        report.dests,
        report.m,
        report.events_per_run,
        report.peak_queue_len
    );
    if report.alloc_counting {
        println!(
            "allocations: {:.4} per event (incl. per-run setup)",
            report.allocations_per_event
        );
    } else {
        println!("allocations: not measured (no counting allocator registered)");
    }
    let out_path = flags.get("out").map_or("BENCH_sim.json", String::as_str);
    write_file(out_path, report.to_json().to_string_pretty())?;
    println!("report written to {out_path}");
    Ok(())
}

/// The `bench-sim --mega` variant: one end-to-end optimal-k multicast
/// (m = 16) per fat-tree size, with setup time, setup peak-allocation
/// bytes, events/s, and a timing-free outcome digest per point. Writes
/// `BENCH_mega.json` plus, on the full sizing, the committed
/// `results/fig_megascale.json` figure and its plot files; `--digest PATH`
/// additionally writes the digests alone, which are identical on every run.
fn cmd_bench_mega(flags: &Flags) -> CmdResult {
    let quick = flags.contains_key("quick");
    let hosts: Option<u32> = if flags.contains_key("hosts") {
        Some(get(flags, "hosts", 0u32)?)
    } else {
        None
    };
    let label = if quick { "quick" } else { "full" };
    eprintln!("bench-sim --mega: {label} sizing...");
    let report = bench_mega(quick, hosts).map_err(runtime)?;
    for p in &report.points {
        println!(
            "n={:>6} (k={} fat-tree, {} switches, tree k={}): setup {:.3} s{} | \
             {:.2} M events/s ({} events, makespan {:.1} us, {:.3} s) | digest {}",
            p.hosts,
            p.fat_tree_k,
            p.switches,
            p.tree_k,
            p.setup_seconds,
            if report.alloc_counting {
                format!(
                    ", peak {:.1} MiB{}",
                    p.setup_peak_bytes as f64 / (1024.0 * 1024.0),
                    if p.within_budget { "" } else { " OVER BUDGET" }
                )
            } else {
                String::new()
            },
            p.events_per_sec / 1e6,
            p.events,
            p.makespan_us,
            p.sim_seconds,
            p.digest
        );
    }
    let out_path = flags.get("out").map_or("BENCH_mega.json", String::as_str);
    write_file(out_path, report.to_json().to_string_pretty())?;
    println!("report written to {out_path}");
    if let Some(digest_path) = flags.get("digest") {
        write_file(digest_path, report.digest_json().to_string_pretty())?;
        println!("digest written to {digest_path}");
    }
    // The committed figure charts the full size axis; quick smoke runs and
    // single-size overrides must not overwrite it.
    if !quick && hosts.is_none() {
        let fig = report.figure();
        let fig_path = "results/fig_megascale.json";
        write_file(fig_path, fig.to_json().to_string_pretty())?;
        println!("figure written to {fig_path}");
        write_plots(flags, &fig)?;
    }
    if !report.all_ok() {
        return Err(runtime(format!(
            "--mega FAILED — setup memory over the {} MiB budget",
            report.budget_bytes / (1024 * 1024)
        )));
    }
    Ok(())
}

/// The `bench-compare` subcommand: replays a fresh `--quick` measurement
/// of each committed bench artifact and fails on a rate regression beyond
/// `--threshold` (default 0.30). Only sizing-insensitive rates are
/// compared, so the quick fresh run is a fair check against committed
/// full-sizing artifacts.
fn cmd_bench_compare(flags: &Flags, _: &[String]) -> CmdResult {
    let threshold: f64 = get(flags, "threshold", 0.30)?;
    if !(0.0..1.0).contains(&threshold) {
        return Err(usage("--threshold must be in [0, 1)"));
    }
    let threads: usize = get(flags, "threads", 1)?;
    let load = |path: &str| -> Result<Json, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| runtime(format!("cannot read {path}: {e}")))?;
        Json::parse(&text).map_err(|e| runtime(format!("{path} is not valid JSON: {e}")))
    };
    let mut checks = Vec::new();
    let mut compare = |label: &str, path: &str, committed: &Json, fresh: Json| -> CmdResult {
        let found = bench_regressions(committed, &fresh);
        if found.is_empty() {
            return Err(runtime(format!("no comparable rates in {path}")));
        }
        eprintln!("bench-compare: {label} ({path}): {} rate(s)", found.len());
        checks.extend(found);
        Ok(())
    };

    let sim_path = flags.get("sim").map_or("BENCH_sim.json", String::as_str);
    let committed_sim = load(sim_path)?;
    eprintln!("bench-compare: fresh quick bench-sim...");
    let fresh_sim = bench_sim(true).map_err(runtime)?;
    compare("bench-sim", sim_path, &committed_sim, fresh_sim.to_json())?;

    let sweep_path = flags
        .get("sweep")
        .map_or("BENCH_sweep.json", String::as_str);
    let committed_sweep = load(sweep_path)?;
    // The sweep's events/s amortizes per-cell setup over the sample count,
    // so it is only comparable at the committed artifact's own
    // (topologies × dest_sets) methodology — reconstruct it from the meta.
    let meta_u32 = |doc: &Json, key: &str, default: u32| -> u32 {
        doc.get("meta")
            .and_then(|m| m.get(key))
            .and_then(Json::as_f64)
            .map(|v| v as u32)
            .unwrap_or(default)
    };
    let topologies = meta_u32(&committed_sweep, "topologies", 2);
    let dest_sets = meta_u32(&committed_sweep, "dest_sets", 3);
    let base = SweepBuilder::quick()
        .topologies(topologies)
        .dest_sets(dest_sets);
    eprintln!(
        "bench-compare: fresh bench-sweep at the committed {topologies}x{dest_sets} methodology \
         ({threads} worker(s))..."
    );
    let fresh_sweep = bench_sweep(&base, threads).map_err(runtime)?;
    compare(
        "bench-sweep",
        sweep_path,
        &committed_sweep,
        fresh_sweep.to_json(),
    )?;

    if let Some(mega_path) = flags.get("mega") {
        let committed_mega = load(mega_path)?;
        eprintln!("bench-compare: fresh quick bench-sim --mega...");
        let fresh_mega = bench_mega(true, None).map_err(runtime)?;
        compare(
            "bench-mega",
            mega_path,
            &committed_mega,
            fresh_mega.to_json(),
        )?;
    }

    let mut regressed = false;
    for c in &checks {
        let bad = c.regressed(threshold);
        regressed |= bad;
        println!(
            "{:>22}: committed {:>14.1} | fresh {:>14.1} | ratio {:.2}{}",
            c.metric,
            c.committed,
            c.fresh,
            c.ratio(),
            if bad { "  REGRESSION" } else { "" }
        );
    }
    if regressed {
        return Err(runtime(format!(
            "FAILED — at least one rate regressed more than {:.0}%",
            threshold * 100.0
        )));
    }
    println!(
        "bench-compare: all {} rate(s) within {:.0}% of committed",
        checks.len(),
        threshold * 100.0
    );
    Ok(())
}

/// The steps `chaos`, `chaos --arq`, `stream` and `jobs` share: the worker
/// count (default: every core), the `--quick`/paper sizing, `--seed`,
/// building the sweep, and the engine/report/plots epilogue. Their JSON
/// reports record no thread count and are byte-identical for every
/// `--threads` value — CI runs each twice and diffs.
struct GridCmd<'a> {
    flags: &'a Flags,
    threads: usize,
    quick: bool,
    seed: u64,
    /// The sampling methodology: 2×3 under `--quick`, else the paper's
    /// 10×30.
    base: SweepBuilder,
}

impl<'a> GridCmd<'a> {
    fn new(flags: &'a Flags) -> Result<Self, CliError> {
        let quick = flags.contains_key("quick");
        Ok(GridCmd {
            flags,
            threads: get(flags, "threads", default_threads())?,
            quick,
            seed: get(flags, "seed", 1997)?,
            base: if quick {
                SweepBuilder::quick()
            } else {
                SweepBuilder::paper()
            },
        })
    }

    /// Builds the sweep on the requested workers and announces the run on
    /// stderr.
    fn sweep(&self, name: &str, builder: SweepBuilder, grid: &str) -> Result<Sweep, CliError> {
        let sweep = builder.parallelism(self.threads).build().map_err(usage)?;
        let cfg = sweep.config();
        eprintln!(
            "{name}: {}x{} methodology, {grid}, {} worker(s)...",
            cfg.topologies(),
            cfg.dest_sets(),
            self.threads
        );
        Ok(sweep)
    }

    /// Prints the engine's effort, writes the report to `--out` (default
    /// `default_out`), and the figure's plots unless `--quick`: the
    /// committed plots chart the full grids, so smoke runs must not
    /// overwrite them.
    fn finish(
        &self,
        sweep: &Sweep,
        report: Json,
        default_out: &str,
        figure: Option<Figure>,
    ) -> CmdResult {
        // Engine effort is stdout-only context: the JSON report stays
        // byte-identical across hosts and thread counts.
        let effort = sweep.sim_effort();
        let cache = sweep.cache_stats();
        println!(
            "engine: {} events processed, peak queue {}, tree cache {}/{} hits, \
             route cache {}/{} hits",
            effort.events_processed,
            effort.peak_queue_len,
            cache.hits,
            cache.hits + cache.misses,
            cache.route_hits,
            cache.route_hits + cache.route_misses
        );
        let out_path = self.flags.get("out").map_or(default_out, String::as_str);
        write_file(out_path, report.to_string_pretty())?;
        println!("report written to {out_path}");
        match figure {
            Some(fig) if !self.quick => write_plots(self.flags, &fig),
            _ => Ok(()),
        }
    }
}

/// The `chaos` subcommand: the robustness grid (drop rate × crash count)
/// over the paper's sampling methodology, reported as a table plus the
/// unified figure JSON.
fn cmd_chaos(flags: &Flags, _: &[String]) -> CmdResult {
    if flags.contains_key("arq") {
        return cmd_chaos_arq(flags);
    }
    let run = GridCmd::new(flags)?;
    let dests: u32 = get(flags, "dests", 31)?;
    let m: u32 = get(flags, "m", 4)?;
    let live_repair = flags.contains_key("live-repair");
    let spec = FaultPlanSpec {
        seed: run.seed,
        live_repair,
        // With live repair the drawn hosts crash mid-run (default 5 µs:
        // before the first send completes, so every crash exercises the
        // repair path); without it they are repaired around before the
        // run, at time zero.
        crash_at_us: get(flags, "crash-at", if live_repair { 5.0 } else { 0.0 })?,
        ..FaultPlanSpec::default()
    };
    let (drops, crashes) = if run.quick {
        (vec![0.0, 0.05, 0.1], vec![0u32, 1, 2])
    } else {
        (
            vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.2],
            vec![0u32, 1, 2, 4, 8],
        )
    };
    let grid = format!("{}x{} grid", drops.len(), crashes.len());
    let sweep = run.sweep("chaos", run.base.fault(spec), &grid)?;
    let report = sweep.chaos(&drops, &crashes, dests, m).map_err(runtime)?;
    println!(
        "chaos grid: {dests} dests, {m} packets, fault seed {}, {} samples/cell{}",
        run.seed,
        sweep.config().samples(),
        if live_repair { ", live repair on" } else { "" }
    );
    print!(
        "{:>6} {:>7} {:>9} {:>6} {:>9} {:>12} {:>11} {:>10}",
        "drop",
        "crashes",
        "delivered",
        "failed",
        "unreached",
        "latency(us)",
        "retransmits",
        "reattached"
    );
    if live_repair {
        print!(" {:>7} {:>8} {:>11}", "repairs", "reissued", "written-off");
    }
    println!();
    for cell in &report.cells {
        print!(
            "{:>6.2} {:>7} {:>9} {:>6} {:>9} {:>12.2} {:>11} {:>10}",
            cell.drop_rate,
            cell.crashes,
            cell.delivered,
            cell.failed,
            cell.unreached,
            cell.mean_latency_us,
            cell.retransmits,
            cell.reattached
        );
        if live_repair {
            print!(
                " {:>7} {:>8} {:>11}",
                cell.repairs, cell.reissued_packets, cell.unreachable_crashed
            );
        }
        println!();
    }
    print_verdict(report.cells.iter().map(|c| (c.failed, c.unreached)));
    let default_out = if live_repair {
        "results/chaos_repair.json"
    } else {
        "results/chaos.json"
    };
    run.finish(&sweep, report.to_json(), default_out, None)
}

/// Prints a fault grid's all-reached verdict from its cells' `(failed
/// runs, unreached destinations)`.
fn print_verdict(cells: impl Iterator<Item = (u32, u64)>) {
    let (failed, unreached) = cells.fold((0, 0), |(f, u), (cf, cu)| (f + cf, u + cu));
    if failed == 0 {
        println!("all-reached invariant holds: every run reached every surviving destination");
    } else {
        println!(
            "WARNING: {failed} run(s) exhausted the retransmission budget; \
             {unreached} surviving destination(s) unreached"
        );
    }
}

/// The `chaos --arq` variant: the recovery-latency grid — stop-and-wait
/// against windowed selective-repeat at every swept drop rate, charting
/// each mode's added latency over its own lossless baseline.
fn cmd_chaos_arq(flags: &Flags) -> CmdResult {
    let run = GridCmd::new(flags)?;
    let dests: u32 = get(flags, "dests", 31)?;
    let m: u32 = get(flags, "m", 4)?;
    let window: u32 = get(flags, "window", 8)?;
    let send_units: u32 = get(flags, "send-units", 2)?;
    let drops = if run.quick {
        vec![0.0, 0.02, 0.05, 0.1]
    } else {
        vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.2]
    };
    let fault = FaultPlanSpec {
        seed: run.seed,
        ..FaultPlanSpec::default()
    };
    let grid = format!("{} drop rate(s) x 2 modes", drops.len());
    let sweep = run.sweep("chaos --arq", run.base.fault(fault), &grid)?;
    let report = sweep
        .chaos_arq(&drops, dests, m, window, send_units)
        .map_err(runtime)?;
    println!(
        "arq grid: {dests} dests, {m} packets, fault seed {}, window {window}, \
         {send_units} send unit(s), {} samples/cell",
        run.seed,
        sweep.config().samples()
    );
    println!(
        "{:>13} {:>6} {:>9} {:>6} {:>12} {:>13} {:>11} {:>6} {:>10}",
        "mode",
        "drop",
        "delivered",
        "failed",
        "latency(us)",
        "recovery(us)",
        "retransmits",
        "nacks",
        "stall(us)"
    );
    for cell in &report.cells {
        println!(
            "{:>13} {:>6.2} {:>9} {:>6} {:>12.2} {:>13.2} {:>11} {:>6} {:>10.1}",
            if cell.windowed {
                "windowed"
            } else {
                "stop-and-wait"
            },
            cell.drop_rate,
            cell.delivered,
            cell.failed,
            cell.mean_latency_us,
            cell.recovery_latency_us,
            cell.retransmits,
            cell.nack_ranges_sent,
            cell.window_stalls_us
        );
    }
    print_verdict(report.cells.iter().map(|c| (c.failed, c.unreached)));
    run.finish(
        &sweep,
        report.to_json(),
        "results/chaos_arq.json",
        Some(report.figure()),
    )
}

/// The `stream` subcommand: the streaming grid — churn rate × offered
/// load × buffer depth, each cell streaming frames through bounded
/// drop-oldest buffers to a churning group on the optimal k-binomial
/// tree.
fn cmd_stream(flags: &Flags, _: &[String]) -> CmdResult {
    let run = GridCmd::new(flags)?;
    let mut grid = if run.quick {
        StreamGrid::quick()
    } else {
        StreamGrid::paper()
    };
    grid.dests = get(flags, "dests", grid.dests)?;
    grid.frame_bytes = get(flags, "frame-bytes", grid.frame_bytes)?;
    grid.mtu_bytes = get(flags, "mtu", grid.mtu_bytes)?;
    grid.frames = get(flags, "frames", grid.frames)?;
    let cells = format!(
        "{} churn x {} load x {} buffer cell(s)",
        grid.churn_levels.len(),
        grid.loads.len(),
        grid.buffer_depths.len()
    );
    let sweep = run.sweep("stream", run.base.base_seed(run.seed), &cells)?;
    let report = sweep.streaming(&grid).map_err(runtime)?;
    println!(
        "stream grid: {} dests, {}-byte frames at {}-byte MTU ({} packets), {} frames/stream, \
         {} samples/cell",
        grid.dests,
        grid.frame_bytes,
        grid.mtu_bytes,
        grid.frame_bytes.div_ceil(grid.mtu_bytes),
        grid.frames,
        sweep.config().samples()
    );
    println!(
        "{:>6} {:>5} {:>6} {:>8} {:>8} {:>9} {:>14} {:>14} {:>13}",
        "churn",
        "load",
        "buf",
        "served",
        "dropped",
        "droprate",
        "goodput(Mb/s)",
        "stale(us)",
        "maxstale(us)"
    );
    for cell in &report.cells {
        println!(
            "{:>6} {:>5.2} {:>6} {:>8} {:>8} {:>9.4} {:>14.3} {:>14.2} {:>13.2}",
            cell.churn_events,
            cell.load,
            if cell.buffer_frames == 0 {
                "inf".to_string()
            } else {
                cell.buffer_frames.to_string()
            },
            cell.served,
            cell.dropped,
            cell.drop_rate,
            cell.mean_goodput_mbps,
            cell.mean_staleness_us,
            cell.max_staleness_us
        );
    }
    run.finish(
        &sweep,
        report.to_json(),
        "results/streaming.json",
        Some(report.figure()),
    )
}

/// The `jobs` subcommand: the multi-tenant admission grid (concurrent job
/// count × mean inter-arrival × group size), every cell scheduled under
/// both FIFO and contention-aware admission on identical sampled job sets.
fn cmd_jobs(flags: &Flags, _: &[String]) -> CmdResult {
    let run = GridCmd::new(flags)?;
    let (base, job_counts, interarrivals, groups, m) = if run.quick {
        (run.base, vec![1u32, 2, 4], vec![25.0], vec![8u32], 2)
    } else {
        // Multi-tenant cells pool `samples × jobs` completions each, so a
        // 3×5 methodology already gives the percentiles hundreds of
        // observations at the larger job counts — the full 10×30 sampling
        // would add minutes for no visible change in the figure.
        (
            run.base.topologies(3).dest_sets(5),
            vec![1u32, 2, 4, 8, 16],
            vec![25.0, 100.0],
            vec![8u32, 16],
            4,
        )
    };
    let m: u32 = get(flags, "m", m)?;
    let grid = format!(
        "{}x{}x{} grid",
        job_counts.len(),
        interarrivals.len(),
        groups.len()
    );
    let sweep = run.sweep("jobs", base.base_seed(run.seed), &grid)?;
    let report = sweep
        .multi_tenant(&job_counts, &interarrivals, &groups, m)
        .map_err(runtime)?;
    if flags.contains_key("json") {
        print!("{}", report.to_json().to_string_pretty());
        return Ok(());
    }
    println!(
        "multi-tenant grid: {m} packets/job, base seed {}, {} samples/cell, \
         channel load bound {}",
        run.seed,
        sweep.config().samples(),
        report.max_channel_load
    );
    println!(
        "{:>5} {:>8} {:>6} | {:>10} {:>10} {:>8} | {:>10} {:>10} {:>8} {:>9}",
        "jobs",
        "gap(us)",
        "group",
        "fifo p50",
        "fifo p99",
        "defer",
        "shaped p50",
        "shaped p99",
        "defer",
        "queue(us)"
    );
    for cell in &report.cells {
        println!(
            "{:>5} {:>8.0} {:>6} | {:>10.2} {:>10.2} {:>8} | {:>10.2} {:>10.2} {:>8} {:>9.2}",
            cell.jobs,
            cell.mean_interarrival_us,
            cell.group,
            cell.fifo.p50_completion_us,
            cell.fifo.p99_completion_us,
            cell.fifo.deferred,
            cell.shaped.p50_completion_us,
            cell.shaped.p99_completion_us,
            cell.shaped.deferred,
            cell.shaped.mean_queue_us
        );
    }
    run.finish(
        &sweep,
        report.to_json(),
        "results/multi_tenant.json",
        Some(report.figure()),
    )
}

/// The `wire` subcommand: the same k-binomial tree and FPFS schedule the
/// simulator executes, driven over real `std::net::UdpSocket` datagrams.
///
/// * `--role demo` (default): single-process loopback demo — one socket per
///   rank, sinks on threads, the source on the caller's thread. Prints one
///   JSON line per sink and exits non-zero unless every sink reached parity
///   with [`optimcast::core::schedule::Schedule::arrival_order`].
/// * `--role source` / `--role sink --rank R`: multi-process mode. Every
///   process binds `127.0.0.1:(port-base + rank)` and reconstructs the same
///   deterministic plan from `(n, k, m)`, so no coordination channel is
///   needed; start the sinks first, then the source.
fn cmd_wire(flags: &Flags, _: &[String]) -> CmdResult {
    let n: u32 = get_at_least(flags, "n", 8, 2)?;
    let m: u32 = get_at_least(flags, "m", 4, 1)?;
    let k: u32 = if flags.contains_key("k") {
        get_at_least(flags, "k", 1, 1)?
    } else {
        optimal_k(u64::from(n), m).k
    };
    let payload: usize = get(flags, "payload", 4096)?;
    let mtu: usize = get(flags, "mtu", DEFAULT_MTU)?;
    if mtu <= HEADER_LEN {
        return Err(usage(format!(
            "--mtu must exceed the {HEADER_LEN}-byte frame header"
        )));
    }
    let timeout = std::time::Duration::from_millis(get(flags, "timeout-ms", 10_000u64)?);
    let role = flags.get("role").map_or("demo", String::as_str);
    match role {
        "demo" => {
            let reports = loopback_demo(n, k, m, payload, mtu, timeout).map_err(runtime)?;
            let mut ok = true;
            for r in &reports {
                println!("{}", r.to_json_line());
                ok &= r.parity();
            }
            if !ok {
                return Err(runtime(
                    "demo PARITY VIOLATION — wire order diverged from the schedule",
                ));
            }
            eprintln!(
                "wire demo: {} sink(s) all at parity with the predicted delivery order \
                 (n={n}, k={k}, m={m})",
                reports.len()
            );
        }
        "source" | "sink" => {
            let port_base: u32 = get(flags, "port-base", 47_000u32)?;
            let rank: u32 = if role == "source" {
                0
            } else {
                get(flags, "rank", 0)?
            };
            if role == "sink" && (rank == 0 || rank >= n) {
                return Err(usage("--role sink needs --rank R with 1 <= R < n"));
            }
            if port_base.saturating_add(n) > u32::from(u16::MAX) {
                return Err(usage(format!(
                    "--port-base {port_base} leaves no room for {n} ranks"
                )));
            }
            let plan = WirePlan::new(n, k, m, payload, mtu);
            let mut t =
                UdpTransport::bind(("127.0.0.1", (port_base + rank) as u16)).map_err(runtime)?;
            t.set_peers(
                (0..n)
                    .map(|r| std::net::SocketAddr::from(([127, 0, 0, 1], (port_base + r) as u16)))
                    .collect(),
            );
            t.set_mtu(mtu);
            if role == "source" {
                let sent = run_source(&plan, &mut t).map_err(runtime)?;
                t.close().map_err(runtime)?;
                println!(
                    "wire source: {sent} send(s) across {} schedule steps (n={n}, k={k}, m={m})",
                    plan.schedule.total_steps()
                );
            } else {
                let report = run_sink(&plan, Rank(rank), &mut t, timeout).map_err(runtime)?;
                println!("{}", report.to_json_line());
                if !report.parity() {
                    return Err(runtime(format!(
                        "sink {rank} PARITY VIOLATION — wire order diverged from the schedule"
                    )));
                }
            }
        }
        other => {
            return Err(usage(format!(
                "unknown role '{other}' (demo, source, or sink)"
            )))
        }
    }
    Ok(())
}

/// The `simulate --json` document: headline metrics plus the structured
/// counters, machine-readable for scripting around the CLI.
fn simulate_json(wl: &WorkloadOutcome, k: u32, steps: u64) -> Json {
    let out = &wl.jobs[0];
    let c = &wl.counters;
    Json::obj(vec![
        ("optimal_k", Json::from(u64::from(k))),
        ("predicted_steps", Json::from(steps)),
        ("latency_us", Json::from(out.latency_us)),
        ("makespan_us", Json::from(wl.makespan_us)),
        (
            "counters",
            Json::obj(vec![
                ("total_sends", Json::from(c.total_sends)),
                ("blocked_sends", Json::from(c.blocked_sends)),
                ("packets_forwarded", Json::from(c.packets_forwarded)),
                ("channel_stall_us", Json::from(c.channel_stall_us)),
                ("recv_unit_waits", Json::from(c.recv_unit_waits)),
                ("recv_unit_wait_us", Json::from(c.recv_unit_wait_us)),
                ("max_send_queue", Json::from(c.max_send_queue as u64)),
                (
                    "buffer_occupancy",
                    Json::from(c.buffer_occupancy.as_slice()),
                ),
                ("events", Json::from(c.events)),
                ("packets_dropped", Json::from(c.packets_dropped)),
                ("packets_corrupted", Json::from(c.packets_corrupted)),
                ("retransmits", Json::from(c.retransmits)),
                ("deliveries_abandoned", Json::from(c.deliveries_abandoned)),
                ("faults_triggered", Json::from(c.faults_triggered)),
                ("recovery_wait_us", Json::from(c.recovery_wait_us)),
                ("repairs", Json::from(c.repairs)),
                ("reissued_packets", Json::from(c.reissued_packets)),
                ("repair_wait_us", Json::from(c.repair_wait_us)),
                ("resend_requests", Json::from(c.resend_requests)),
                ("nack_ranges_sent", Json::from(c.nack_ranges_sent)),
                ("late_acks", Json::from(c.late_acks)),
                ("duplicate_acks", Json::from(c.duplicate_acks)),
                ("window_stalls_us", Json::from(c.window_stalls_us)),
                ("deadline_writeoffs", Json::from(c.deadline_writeoffs)),
            ]),
        ),
        (
            "max_ni_buffer",
            Json::from(u64::from(
                out.max_ni_buffer[1..].iter().max().copied().unwrap_or(0),
            )),
        ),
        (
            "unreached",
            Json::Arr(
                wl.unreached
                    .iter()
                    .map(|&(job, rank)| {
                        Json::obj(vec![
                            ("job", Json::from(u64::from(job))),
                            ("rank", Json::from(u64::from(rank.0))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
