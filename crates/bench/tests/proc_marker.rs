//! `rt=proc` is a scenario marker for the process-per-party deployment,
//! not an in-process runtime: every in-process command-line entry point
//! refuses it with the one hint that names `exp_deployment` and exits 2.

use aft_sim::PROC_NOT_IN_PROCESS;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env("AFT_TRIALS", "1")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn assert_refused_with_hint(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: stderr={stderr}");
    assert!(stderr.contains(PROC_NOT_IN_PROCESS), "{what}: {stderr}");
}

#[test]
fn runtime_flag_refuses_proc_with_the_deployment_hint() {
    let bin = env!("CARGO_BIN_EXE_exp_coin_bias");
    for args in [
        &["--runtime", "proc"][..],
        &["--runtime", "proc:4"],
        &["--runtime=proc"],
    ] {
        assert_refused_with_hint(&run(bin, args), &args.join(" "));
    }
}

#[test]
fn runtime_flag_rejects_the_removed_async_backend() {
    let out = run(env!("CARGO_BIN_EXE_exp_coin_bias"), &["--runtime", "async"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown --runtime"), "{stderr}");
}

#[test]
fn scenario_drivers_refuse_proc_specs() {
    for bin in [
        env!("CARGO_BIN_EXE_exp_scenario_matrix"),
        env!("CARGO_BIN_EXE_exp_trace"),
    ] {
        let out = run(bin, &["--scenario", "n=4,t=1,corrupt=silent@3,rt=proc"]);
        assert_refused_with_hint(&out, bin);
    }
}
