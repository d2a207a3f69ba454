//! `mega_fattree`: one optimal-k, m = 16 FPFS multicast on a full
//! fat-tree (65,536 hosts; 1,024 at the tiny size), serial engine.
//!
//! The seed rotates the rank→host binding by whole pods. A rotation by
//! whole pods is an automorphism of a full fat-tree, so every seed must
//! reproduce the committed event count and makespan; the digest (which
//! hashes per-host arrays) is pinned at the default seed only.

use super::{Golden, Op, Output, Run, Size, DEFAULT_SEED};
use crate::report::Layers;
use optimcast_core::builders::kbinomial_tree;
use optimcast_core::optimal::optimal_k;
use optimcast_core::params::SystemParams;
use optimcast_netsim::{
    CountingAlloc, JobRoutes, MulticastJob, SimRun, WorkloadConfig, WorkloadOutcome,
};
use optimcast_sweep::{Json, MEGA_M};
use optimcast_topology::fabric::{FabricConfig, FabricNetwork};
use optimcast_topology::graph::HostId;
use std::sync::Arc;
use std::time::Instant;

fn hosts(run: &Run) -> u32 {
    match run.size {
        Size::Full => 65_536,
        Size::Tiny => 1_024,
    }
}

/// Ranks bound to hosts in order, rotated by a seed-chosen number of
/// whole pods.
fn binding(fabric: FabricConfig, hosts: u32, seed: u64) -> Vec<HostId> {
    let FabricConfig::FatTree { k_ary } = fabric else {
        unreachable!("mega sizes are fat-trees")
    };
    let pods = u64::from(k_ary);
    let pod_hosts = k_ary * k_ary / 4;
    let shift = (seed.wrapping_sub(DEFAULT_SEED) % pods) as u32 * pod_hosts;
    (0..hosts).map(|r| HostId((r + shift) % hosts)).collect()
}

/// The set-up products of one execution.
struct Setup {
    net: FabricNetwork,
    tree: Arc<optimcast_core::tree::MulticastTree>,
    binding: Vec<HostId>,
    routes: Arc<JobRoutes>,
}

/// The timed run. Borrows the set-up so that freeing it stays outside
/// every timer.
fn simulate(s: &Setup) -> Result<WorkloadOutcome, String> {
    let params = SystemParams::paper_1997();
    let jobs = [MulticastJob::fpfs(
        Arc::clone(&s.tree),
        s.binding.clone(),
        MEGA_M,
    )];
    SimRun::new(&s.net, &jobs, &params, WorkloadConfig::default())
        .routes(vec![Arc::clone(&s.routes)])
        .run()
        .map_err(|e| e.to_string())
}

pub(super) fn op(run: &Run) -> Result<Op, String> {
    let hosts = hosts(run);
    let base = CountingAlloc::reset_peak();
    let t0 = Instant::now();
    let fabric = FabricConfig::fat_tree_for_hosts(hosts);
    let net = FabricNetwork::generate_with_hosts(fabric, hosts);
    let tree = Arc::new(kbinomial_tree(hosts, optimal_k(u64::from(hosts), MEGA_M).k));
    let binding = binding(fabric, hosts, run.seed);
    let routes = Arc::new(JobRoutes::build(&net, &tree, &binding));
    let t1 = Instant::now();
    let setup = Setup {
        net,
        tree,
        binding,
        routes,
    };
    let outcome = simulate(&setup)?;
    let t2 = Instant::now();
    Ok(Op {
        wall_s: (t2 - t0).as_secs_f64(),
        setup_s: (t1 - t0).as_secs_f64(),
        sim_s: (t2 - t1).as_secs_f64(),
        peak_heap_bytes: CountingAlloc::peak_bytes().saturating_sub(base),
        output: output(run, &outcome),
    })
}

pub(super) fn traced(run: &Run) -> Result<(Output, Layers), String> {
    let hosts = hosts(run);
    let mut l = Layers::default();
    let (fabric, net) = l.time("topology.fabric_s", || {
        let fabric = FabricConfig::fat_tree_for_hosts(hosts);
        (fabric, FabricNetwork::generate_with_hosts(fabric, hosts))
    });
    let tree = l.time("core.tree_s", || {
        Arc::new(kbinomial_tree(hosts, optimal_k(u64::from(hosts), MEGA_M).k))
    });
    let binding = binding(fabric, hosts, run.seed);
    let before = CountingAlloc::reset_peak();
    let routes = l.time("netsim.routes_s", || {
        Arc::new(JobRoutes::build(&net, &tree, &binding))
    });
    l.set(
        "netsim.routes_alloc_mib",
        CountingAlloc::peak_bytes().saturating_sub(before) as f64 / MIB,
    );
    l.set("netsim.routes_builds", 1.0);
    l.set("netsim.routes_channels", routes.total_channels() as f64);
    let allocs = CountingAlloc::allocations();
    let setup = Setup {
        net,
        tree,
        binding,
        routes,
    };
    let (outcome, sim_s) = l.timed("netsim.sim_s", || simulate(&setup));
    let outcome = outcome?;
    l.percentiles("netsim.sim_call_p50_us", "netsim.sim_call_p99_us", &[sim_s]);
    let sim_allocs = CountingAlloc::allocations() - allocs;
    l.set("netsim.sim_calls", 1.0);
    l.set("netsim.events", outcome.events as f64);
    l.set("netsim.events_per_s", outcome.events as f64 / sim_s);
    l.set(
        "netsim.allocs_per_event",
        sim_allocs as f64 / outcome.events as f64,
    );
    l.set(
        "netsim.peak_queue_len",
        outcome.counters.peak_queue_len as f64,
    );
    Ok((output(run, &outcome), l))
}

const MIB: f64 = 1024.0 * 1024.0;

fn output(run: &Run, wl: &WorkloadOutcome) -> Output {
    let all_done = wl.unreached.is_empty()
        && wl
            .jobs
            .iter()
            .all(|j| j.host_done_us.iter().all(|t| t.is_finite()));
    let mut invariants = vec![("every rank reached", all_done)];
    // Any seed must reproduce the committed counts (pod rotation is a
    // fabric automorphism); a missing or unreadable golden fails too.
    let committed = committed_point(run).ok();
    invariants.push((
        "events and makespan equal the committed point",
        committed.as_ref().is_some_and(|(_, events, makespan)| {
            *events == wl.events && *makespan == wl.makespan_us
        }),
    ));
    Output {
        docs: vec![
            ("digest", format!("{:016x}", outcome_digest(wl))),
            ("events", wl.events.to_string()),
            ("makespan_us", format!("{:?}", wl.makespan_us)),
        ],
        invariants,
    }
}

/// `(digest, events, makespan_us)` of this size's point in the committed
/// `BENCH_mega.json`.
fn committed_point(run: &Run) -> Result<(String, u64, f64), String> {
    let doc = Json::parse(&run.read("BENCH_mega.json")?).map_err(|e| e.to_string())?;
    let hosts = f64::from(hosts(run));
    let point = doc
        .get("points")
        .and_then(Json::as_arr)
        .and_then(|ps| {
            ps.iter()
                .find(|p| p.get("hosts").and_then(Json::as_f64) == Some(hosts))
        })
        .ok_or("BENCH_mega.json has no point at this size")?;
    let field = |k: &str| point.get(k).ok_or(format!("point lacks {k}"));
    Ok((
        field("digest")?.as_str().ok_or("digest")?.to_string(),
        field("events")?.as_f64().ok_or("events")? as u64,
        field("makespan_us")?.as_f64().ok_or("makespan_us")?,
    ))
}

pub(super) fn goldens(run: &Run) -> Result<Vec<(&'static str, Golden)>, String> {
    let (digest, events, makespan) = committed_point(run)?;
    Ok(vec![
        ("digest", Golden::Text(digest)),
        ("events", Golden::Text(events.to_string())),
        ("makespan_us", Golden::Text(format!("{makespan:?}"))),
    ])
}

/// The timing-free FNV-1a outcome digest `bench-sim --mega` commits: the
/// same fields in the same order.
fn outcome_digest(wl: &WorkloadOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    put(wl.events);
    put(wl.makespan_us.to_bits());
    put(wl.channel_wait_us.to_bits());
    for job in &wl.jobs {
        put(job.latency_us.to_bits());
        put(job.total_sends);
        put(job.blocked_sends);
        for &t in &job.host_done_us {
            put(t.to_bits());
        }
        for &b in &job.max_ni_buffer {
            put(u64::from(b));
        }
    }
    for &b in &wl.max_host_buffer {
        put(u64::from(b));
    }
    let c = &wl.counters;
    put(c.total_sends);
    put(c.packets_forwarded);
    put(c.channel_stall_us.to_bits());
    put(c.recv_unit_waits);
    put(c.recv_unit_wait_us.to_bits());
    put(c.max_send_queue as u64);
    put(c.events);
    h
}
