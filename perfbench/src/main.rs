//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```sh
//! perfbench --workload ba64-sim --seed 1 --seconds 10 --trace 0
//! perfbench --smoke            # every workload small, every metric
//! perfbench --record-work      # reference work lines for recorded_work.txt
//! ```
//!
//! The last line of standard output is the JSON result
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it holds
//! the machine record and the work guard. A human-readable summary goes
//! to standard error. Exit code 0 on a completed measurement (correct or
//! not), 2 on bad arguments or a set-up error.

use aft_perfbench::machine;
use aft_perfbench::measure::{measure, Options, Outcome, REFERENCE_SEED};
use aft_perfbench::metrics::json_string;
use aft_perfbench::workloads::{Bench, Size, Workload};
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --smoke | --record-work",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut mode = "measure";
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::from_name(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => seed = value().parse::<u64>().ok(),
            "--seconds" => seconds = value().parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => mode = "smoke",
            "--record-work" => mode = "record",
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let partyd = std::env::var_os("AFT_PARTYD").map(PathBuf::from);
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    match mode {
        "smoke" => smoke(partyd),
        "record" => record(partyd),
        _ => {
            let opts = Options {
                workload: workload.unwrap_or_else(|| usage("--workload is required")),
                seed: seed.unwrap_or_else(|| usage("--seed <u64> is required")),
                seconds: seconds.unwrap_or_else(|| usage("--seconds <s> is required")),
                trace: trace.unwrap_or_else(|| usage("--trace <0|1> is required")),
                size: Size::Full,
                partyd,
            };
            let outcome = measure(&opts).unwrap_or_else(|e| {
                eprintln!("perfbench: {e}");
                std::process::exit(2)
            });
            report(&opts, &outcome, &root);
        }
    }
}

/// Prints the summary (stderr), the record line and the result line.
fn report(opts: &Options, outcome: &Outcome, root: &std::path::Path) {
    let name = opts.workload.name();
    for v in &outcome.violations {
        eprintln!("perfbench: {name}: violation: {v}");
    }
    if outcome.work_guard == "mismatch" {
        eprintln!(
            "perfbench: {name}: WORK GUARD: reference work differs from the record — \
             timings are not comparable with runs of the recorded work"
        );
    }
    for d in &outcome.defs {
        let value = outcome.values.get(&d.name).copied().unwrap_or(0.0);
        eprintln!("perfbench: {name}: {:<40} {value:>16.4} {}", d.name, d.unit);
    }
    let work = outcome
        .work
        .as_ref()
        .map(|w| w.render())
        .unwrap_or_default();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"machine\": {}, \"work_guard\": {}, \"work\": {}}}",
        json_string(name),
        opts.seed,
        u8::from(opts.trace),
        machine::record(root),
        json_string(outcome.work_guard),
        json_string(&work)
    );
    println!("{}", outcome.result_line());
}

/// Every workload at small size, untraced and traced, one run each:
/// prints every metric name with its unit. The deployment workload runs
/// only when `aft-partyd` can be found.
fn smoke(partyd: Option<PathBuf>) {
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut ok = true;
    for workload in Workload::ALL {
        let daemon = aft_bench::deployment::partyd_path(partyd.as_deref());
        if !workload.in_process() && !daemon.is_ok_and(|p| p.exists()) {
            eprintln!(
                "perfbench: smoke: skipping {} (aft-partyd not found)",
                workload.name()
            );
            continue;
        }
        for trace in [false, true] {
            let opts = Options {
                workload,
                seed: 1,
                seconds: 0.0,
                trace,
                size: Size::Small,
                partyd: partyd.clone(),
            };
            match measure(&opts) {
                Ok(outcome) => {
                    ok &= outcome.correct;
                    report(&opts, &outcome, &root);
                }
                Err(e) => {
                    ok = false;
                    eprintln!("perfbench: smoke: {}: {e}", workload.name());
                }
            }
        }
    }
    std::process::exit(if ok { 0 } else { 1 });
}

/// Prints each workload's reference work as a `recorded_work.txt` line.
fn record(partyd: Option<PathBuf>) {
    for workload in Workload::ALL {
        let bench = Bench::new(workload, Size::Full, partyd.clone()).unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            std::process::exit(2)
        });
        match bench.run(REFERENCE_SEED) {
            Ok(run) if !run.violations.is_empty() => {
                eprintln!("perfbench: {}: {:?}", workload.name(), run.violations);
                std::process::exit(1);
            }
            Ok(run) => {
                if let Some(work) = run.work {
                    println!("{} {}", workload.name(), work.render());
                }
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", workload.name());
                std::process::exit(1);
            }
        }
    }
}
