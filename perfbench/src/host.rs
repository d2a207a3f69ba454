//! Host fingerprint: enough to tell numbers from another machine apart.

use std::fs;

/// What the harness records about the machine it ran on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// L2 size of CPU 0 from sysfs (e.g. `2048K`).
    pub l2: String,
    /// L3 size of CPU 0 from sysfs.
    pub l3: String,
    /// 1-minute load average when the run started.
    pub load_1m: f64,
    /// Whether the kernel exposes a CPU performance-monitoring unit.
    pub cpu_pmu: bool,
}

impl Host {
    /// Reads the fingerprint; fields the host does not expose read
    /// `unknown` (or 0 / false).
    pub fn probe() -> Host {
        let read = |p: &str| fs::read_to_string(p).unwrap_or_default();
        let cpu_model = read("/proc/cpuinfo")
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".into(), |m| m.trim().to_string());
        let cache = |level: &str| {
            (0..8)
                .map(|i| format!("/sys/devices/system/cpu/cpu0/cache/index{i}"))
                .find(|dir| {
                    read(&format!("{dir}/level")).trim() == level
                        && read(&format!("{dir}/type")).trim() != "Instruction"
                })
                .map_or_else(
                    || "unknown".into(),
                    |dir| read(&format!("{dir}/size")).trim().to_string(),
                )
        };
        let devices = "/sys/bus/event_source/devices";
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            l2: cache("2"),
            l3: cache("3"),
            load_1m: read("/proc/loadavg")
                .split_whitespace()
                .next()
                .and_then(|x| x.parse().ok())
                .unwrap_or(0.0),
            cpu_pmu: ["cpu", "cpu_core", "cpu_atom", "armv8_pmuv3_0"]
                .iter()
                .any(|d| fs::metadata(format!("{devices}/{d}")).is_ok()),
        }
    }

    /// The fingerprint as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"l2\": \"{}\", \"l3\": \"{}\", \
             \"load_1m\": {}, \"cpu_pmu\": {}}}",
            self.nproc,
            self.cpu_model.replace(['"', '\\'], "'"),
            self.l2,
            self.l3,
            self.load_1m,
            self.cpu_pmu
        )
    }
}
