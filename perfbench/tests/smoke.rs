//! Smoke test of the harness: every workload at the tiny size passes the
//! correctness gate, and its traced twin reproduces its outputs exactly.

use optimcast_perfbench::workloads::{Gate, Run, Size, Workload, DEFAULT_SEED};
use std::path::PathBuf;

fn tiny(workload: Workload, seed: u64) -> Run {
    Run {
        workload,
        size: Size::Tiny,
        seed,
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".."),
    }
}

/// Runs one untraced and one traced execution through the gate.
fn gate(run: &Run) -> Gate {
    let goldens = (run.seed == DEFAULT_SEED).then(|| run.goldens().expect("goldens readable"));
    let op = run.op().expect("untraced execution");
    let traced = run.traced().expect("traced execution");
    let mut gate = Gate::default();
    gate.output(&op.output, goldens.as_deref(), None);
    gate.check(
        "traced outputs equal untraced outputs",
        traced.output.docs == op.output.docs,
    );
    gate
}

#[test]
fn default_seed_passes_goldens_and_traced_equality() {
    for w in Workload::ALL {
        let g = gate(&tiny(w, DEFAULT_SEED));
        assert_eq!(g.failed, 0, "{}: {:?}", w.name(), g.failures);
        assert!(g.attempted >= 2, "{}: too few checks", w.name());
    }
}

#[test]
fn tiny_goldens_cover_the_committed_quick_outputs() {
    // The 1,024-host BENCH_mega.json point, results/streaming.json, the
    // quick ARQ and live-repair reports, and all-reached are checked at
    // this size.
    let count = |w| tiny(w, DEFAULT_SEED).goldens().unwrap().len();
    assert_eq!(count(Workload::MegaFattree), 3);
    assert_eq!(count(Workload::StreamChurn), 1);
    assert_eq!(count(Workload::ChaosRecovery), 3);
}

#[test]
fn other_seeds_keep_invariants_and_traced_equality() {
    for w in Workload::ALL {
        let run = tiny(w, 7);
        let g = gate(&run);
        assert_eq!(g.failed, 0, "{}: {:?}", w.name(), g.failures);
        // A different seed is a different input.
        let default = tiny(w, DEFAULT_SEED).op().unwrap().output.docs;
        if w != Workload::MegaFattree {
            assert_ne!(run.op().unwrap().output.docs, default, "{}", w.name());
        }
    }
}

#[test]
fn a_changed_output_fails_the_gate() {
    let run = tiny(Workload::StreamChurn, DEFAULT_SEED);
    let goldens = run.goldens().unwrap();
    let mut out = run.op().unwrap().output;
    out.docs[0].1.push(' ');
    let mut g = Gate::default();
    g.output(&out, Some(&goldens), None);
    assert_eq!(g.failed, 1, "{:?}", g.failures);
}

#[test]
fn grid_workloads_have_an_eager_setup() {
    for w in Workload::ALL {
        let setup = tiny(w, DEFAULT_SEED).setup();
        assert_eq!(setup.is_some(), w != Workload::MegaFattree, "{}", w.name());
        if let Some(s) = setup {
            assert!(s.is_ok());
        }
    }
}
