//! Benchmark harness for optimcast.
//!
//! Four workloads drive the library's public API from outside: each timed
//! run reports end-to-end metrics and checks every output against the
//! committed goldens; a separate traced run times the calls into each
//! layer and must reproduce the untraced outputs exactly. See
//! `perfbench/README.md` for the workloads, metrics, and their rationale.

pub mod host;
pub mod probe;
pub mod report;
pub mod workloads;
