//! Metric tables, statistics, and the one-line JSON result.

use std::time::Instant;

/// How a per-layer metric behaves across repeated traced runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A host-time measurement: reported as the median over repeats.
    Time,
    /// A count fixed by the inputs: must repeat exactly, or the run fails.
    Exact,
}

/// Every per-layer metric: `(name, unit, kind)`. Every traced run reports
/// all of them; a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str, Kind)] = &[
    // topology
    ("topology.fabric_s", "s", Kind::Time),
    ("topology.irregular_s", "s", Kind::Time),
    // core
    ("core.tree_s", "s", Kind::Time),
    ("core.schedule_s", "s", Kind::Time),
    // sweep
    ("sweep.chain_s", "s", Kind::Time),
    ("sweep.engine_s", "s", Kind::Time),
    ("sweep.memo_hits", "count", Kind::Exact),
    ("sweep.memo_lookups", "count", Kind::Exact),
    ("sweep.memo_hit_ratio", "ratio", Kind::Exact),
    ("sweep.route_hits", "count", Kind::Exact),
    ("sweep.route_lookups", "count", Kind::Exact),
    ("sweep.route_hit_ratio", "ratio", Kind::Exact),
    ("sweep.chaos_s", "s", Kind::Time),
    ("sweep.chaos_arq_s", "s", Kind::Time),
    ("sweep.chaos_repair_s", "s", Kind::Time),
    // netsim: route tables
    ("netsim.routes_s", "s", Kind::Time),
    ("netsim.routes_builds", "count", Kind::Exact),
    ("netsim.routes_channels", "count", Kind::Exact),
    ("netsim.routes_alloc_mib", "MiB", Kind::Exact),
    // netsim: event loop
    ("netsim.sim_s", "s", Kind::Time),
    ("netsim.sim_calls", "count", Kind::Exact),
    ("netsim.sim_call_p50_us", "us", Kind::Time),
    ("netsim.sim_call_p99_us", "us", Kind::Time),
    ("netsim.events", "count", Kind::Exact),
    ("netsim.events_per_s", "1/s", Kind::Time),
    ("netsim.allocs_per_event", "count", Kind::Exact),
    ("netsim.peak_queue_len", "count", Kind::Exact),
    // netsim: streaming
    ("netsim.stream_s", "s", Kind::Time),
    ("netsim.stream_calls", "count", Kind::Exact),
    ("netsim.stream_call_p50_us", "us", Kind::Time),
    ("netsim.stream_call_p99_us", "us", Kind::Time),
    ("netsim.stream.frames_emitted", "count", Kind::Exact),
    ("netsim.stream.frames_served", "count", Kind::Exact),
    ("netsim.stream.frames_dropped", "count", Kind::Exact),
    ("netsim.stream.drop_ratio", "ratio", Kind::Exact),
    ("netsim.stream.churn_applied", "count", Kind::Exact),
    ("netsim.stream.churn_skipped", "count", Kind::Exact),
    // netsim: faults, ARQ, live repair
    ("netsim.fault.samples", "count", Kind::Exact),
    ("netsim.fault.delivered", "count", Kind::Exact),
    ("netsim.fault.delivered_ratio", "ratio", Kind::Exact),
    ("netsim.fault.retransmits", "count", Kind::Exact),
    ("netsim.arq.packets_dropped", "count", Kind::Exact),
    ("netsim.arq.retransmits", "count", Kind::Exact),
    ("netsim.arq.retransmits_per_drop", "ratio", Kind::Exact),
    ("netsim.arq.resend_requests", "count", Kind::Exact),
    ("netsim.arq.nack_ranges", "count", Kind::Exact),
    ("netsim.arq.window_stalls_us", "us", Kind::Exact),
    ("netsim.repair.repairs", "count", Kind::Exact),
    ("netsim.repair.reissued_packets", "count", Kind::Exact),
    // the traced run itself
    ("trace.traced_wall_s", "s", Kind::Time),
    ("trace.untraced_wall_s", "s", Kind::Time),
    ("trace.overhead_s", "s", Kind::Time),
    // the host's speed during the run (raw time of the reference kernel)
    ("host.probe_s", "s", Kind::Time),
];

/// Per-layer values gathered by one traced run, keyed by [`PER_LAYER`]
/// name. [`Layers::time`] also sums every timed layer call, so the
/// engine's self time is the untraced wall time minus that sum.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
    spans_s: f64,
}

impl Layers {
    /// Times one call into a layer and adds its duration to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    /// As [`Layers::time`], also returning the call's duration (s).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = f();
        let d = t.elapsed().as_secs_f64();
        self.add(name, d);
        self.spans_s += d;
        (out, d)
    }

    /// Adds `v` to `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _, _)| n == name),
            "unknown layer metric {name}"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some((_, x)) => *x += v,
            None => self.values.push((name, v)),
        }
    }

    /// Sets `name` to `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.add(name, v);
    }

    /// Copies every value recorded in `other` over this one's.
    pub fn extend(&mut self, other: &Layers) {
        for &(name, v) in &other.values {
            self.set(name, v);
        }
    }

    /// The value of `name` (0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Total host time inside timed layer calls.
    pub fn spans_s(&self) -> f64 {
        self.spans_s
    }

    /// Sets `ratio` to `num / den` (0 when `den` is 0).
    pub fn ratio(&mut self, ratio: &'static str, num: &str, den: &str) {
        let (n, d) = (self.get(num), self.get(den));
        self.set(ratio, if d == 0.0 { 0.0 } else { n / d });
    }

    /// Sets the p50/p99 metrics from per-call durations in seconds.
    pub fn percentiles(&mut self, p50: &'static str, p99: &'static str, calls_s: &[f64]) {
        self.set(p50, percentile(calls_s, 0.50) * 1e6);
        self.set(p99, percentile(calls_s, 0.99) * 1e6);
    }
}

/// Median of `xs` (mean of the middle two for an even count; 0 if empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of `xs` (0 if empty).
fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, v, unit)| {
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn layer_names_are_unique_and_valid() {
        for (i, &(n, _, _)) in PER_LAYER.iter().enumerate() {
            assert!(PER_LAYER[i + 1..].iter().all(|&(m, _, _)| m != n), "{n}");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
