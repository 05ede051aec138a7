//! The layer probes are invisible: on every in-process workload at small
//! size, the scheduler wrapper and the timed step loop leave outputs,
//! fingerprints and `Metrics` bit-identical to an unwrapped run.

use aft_core::scenarios::{run_cell, standard_registry, StackKind};
use aft_perfbench::workloads::{Bench, Size, Workload};
use aft_sim::Scenario;

fn assert_transparent(workload: Workload, seed: u64) {
    let bench = Bench::new(workload, Size::Small, None).expect("set-up");
    let plain = bench.run(seed).expect("plain run");
    let traced = bench.run_traced(seed).expect("traced run");
    let name = workload.name();
    assert!(
        plain.violations.is_empty(),
        "{name}: {:?}",
        plain.violations
    );
    assert!(
        traced.violations.is_empty(),
        "{name}: {:?}",
        traced.violations
    );
    assert!(plain.work.is_some(), "{name}: in-process runs record work");
    assert_eq!(plain.work, traced.work, "{name} seed {seed}: work");
    assert_eq!(
        format!("{:?}", plain.metrics),
        format!("{:?}", traced.metrics),
        "{name} seed {seed}: metrics"
    );
    let layers = traced
        .sim
        .expect("traced in-process runs time the step loop");
    assert!(
        layers.steps.steps > 0 && layers.delivered > 0,
        "{name}: {layers:?}"
    );
}

#[test]
fn ba_probes_match_unwrapped_run_cell() {
    let registry = standard_registry();
    for workload in [Workload::Ba64Sim, Workload::Ba16Net] {
        let scenario = Scenario::parse(workload.spec(Size::Small)).unwrap();
        let bench = Bench::new(workload, Size::Small, None).unwrap();
        for seed in 1..=3 {
            assert_transparent(workload, seed);
            // Against the library's own cell runner, with no probe at all.
            let cell = run_cell(StackKind::Ba, &scenario, seed, &registry);
            let traced = bench.run_traced(seed).unwrap();
            let work = traced.work.unwrap();
            assert_eq!(cell.fingerprint, work.fingerprint, "{}", workload.name());
            assert_eq!(cell.delivered, work.delivered);
            assert_eq!(cell.sent, work.sent);
        }
    }
}

#[test]
fn fba_probes_match_and_wire_equals_sim() {
    for seed in 1..=2 {
        assert_transparent(Workload::Fba7Wire, seed);
        let bench = Bench::new(Workload::Fba7Wire, Size::Small, None).unwrap();
        let traced = bench.run_traced(seed).unwrap();
        assert!(
            traced.wire_vs_sim.is_some(),
            "wire and sim legs must do identical work on the same (seed, spec)"
        );
        let m = traced.metrics.unwrap();
        assert!(
            m.wire_frames > 0 && m.wire_bytes > 0,
            "bytes moved on the wire leg"
        );
    }
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
        assert!(
            Scenario::parse(w.spec(Size::Full)).is_some(),
            "{}",
            w.name()
        );
        assert!(
            Scenario::parse(w.spec(Size::Small)).is_some(),
            "{}",
            w.name()
        );
    }
}
