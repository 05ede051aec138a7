//! The measurement loop: set-up, a closed loop of runs for a fixed wall
//! budget from one client thread, and the result line.
//!
//! * Untraced (`--trace 0`): set up [`SETUP_REPEATS`] times (each set-up
//!   includes the work-guard reference run), then run the workload back
//!   to back with per-run seeds derived from the workload seed, and print
//!   the end-to-end metrics. Per-run timings are reported as medians over
//!   the set; `runs_per_s` is clean runs over the loop's wall time.
//! * Traced (`--trace 1`): set up once, then for each per-run seed make
//!   one plain run and one traced run of the same seed, and print the
//!   per-layer metrics. The traced run must reproduce the plain run's
//!   fingerprint; the pair also gives the tracing overhead.

use crate::metrics::{self, median, quantile, ratio, MetricDef};
use crate::workloads::{Bench, Run, Size, TracedRun, Work, Workload};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per untraced benchmark process; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The fixed seed of every workload's work-guard reference run.
pub const REFERENCE_SEED: u64 = 7;

/// Work recorded from each workload's reference run on the code this
/// benchmark was introduced with (`<workload> <Work::render>` lines).
const RECORDED_WORK: &str = include_str!("../recorded_work.txt");

/// What to measure.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed; per-run seeds derive from it.
    pub seed: u64,
    /// The measuring wall budget. At least one run is always made.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Full benchmark size or the small smoke size.
    pub size: Size,
    /// The `aft-partyd` binary, if not found next to this executable.
    pub partyd: Option<PathBuf>,
}

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No run failed (a traced run that diverged from its plain run
    /// counts as failed).
    pub correct: bool,
    /// Runs attempted (reference runs included).
    pub attempted: u64,
    /// Runs with at least one violation.
    pub failed: u64,
    /// Metric values by name.
    pub values: HashMap<String, f64>,
    /// The metric table this outcome reports.
    pub defs: Vec<MetricDef>,
    /// The work-guard verdict: `ok`, `mismatch`, or `unrecorded` (small
    /// sizes, and the deployment, whose runs race and have no fixed work).
    pub work_guard: &'static str,
    /// The reference run's work.
    pub work: Option<Work>,
    /// Up to a few violation messages, for the log.
    pub violations: Vec<String>,
}

impl Outcome {
    /// The result line.
    pub fn result_line(&self) -> String {
        metrics::result_line(
            self.correct,
            self.attempted,
            self.failed,
            &self.defs,
            |name| self.values.get(name).copied(),
        )
    }
}

/// The `i`-th per-run seed of workload seed `seed` (SplitMix64).
pub fn run_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The recorded reference work of `workload`, if any.
pub fn recorded_work(workload: Workload) -> Option<&'static str> {
    RECORDED_WORK.lines().find_map(|l| {
        l.strip_prefix(workload.name())
            .and_then(|rest| rest.strip_prefix(' '))
    })
}

/// Failure bookkeeping shared by both modes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Tally {
    fn record(&mut self, violations: &[String]) {
        self.attempted += 1;
        if !violations.is_empty() {
            self.failed += 1;
            self.violations.extend(violations.iter().take(3).cloned());
        }
    }
}

/// Set-up: build the workload and make its reference run. Returns the
/// bench, the set-up time and the reference work.
fn set_up(opts: &Options, tally: &mut Tally) -> Result<(Bench, Duration, Option<Work>), String> {
    let start = Instant::now();
    let bench = Bench::new(opts.workload, opts.size, opts.partyd.clone())?;
    let run = bench.run(REFERENCE_SEED)?;
    tally.record(&run.violations);
    Ok((bench, start.elapsed(), run.work))
}

/// The work-guard verdict for a reference run's work.
fn guard(opts: &Options, work: Option<&Work>) -> &'static str {
    match (opts.size, work, recorded_work(opts.workload)) {
        (Size::Full, Some(work), Some(recorded)) if recorded == work.render() => "ok",
        (Size::Full, Some(_), Some(_)) => "mismatch",
        _ => "unrecorded",
    }
}

/// Runs the measurement `opts` describes.
pub fn measure(opts: &Options) -> Result<Outcome, String> {
    if opts.trace {
        measure_traced(opts)
    } else {
        measure_plain(opts)
    }
}

fn measure_plain(opts: &Options) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut last = None;
    let mut guard_verdict = "ok";
    for _ in 0..SETUP_REPEATS {
        let (bench, took, work) = set_up(opts, &mut tally)?;
        setups.push(took.as_secs_f64());
        let verdict = guard(opts, work.as_ref());
        if verdict != "ok" {
            guard_verdict = verdict;
        }
        last = Some((bench, work));
    }
    let (bench, work) = last.expect("at least one set-up");

    let budget = Duration::from_secs_f64(opts.seconds);
    let mut runs: Vec<Run> = Vec::new();
    let start = Instant::now();
    while runs.is_empty() || start.elapsed() < budget {
        let run = bench.run(run_seed(opts.seed, runs.len() as u64))?;
        tally.record(&run.violations);
        runs.push(run);
    }
    let elapsed = start.elapsed().as_secs_f64();

    let clean = runs.iter().filter(|r| r.violations.is_empty()).count();
    let ns_per_delivery: Vec<f64> = runs
        .iter()
        .map(|r| ratio(r.wall.as_nanos() as f64, r.delivered as f64))
        .collect();
    let run_ms: Vec<f64> = runs.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect();
    let mut values = HashMap::new();
    values.insert("runs_per_s".into(), clean as f64 / elapsed);
    values.insert("ns_per_delivery".into(), median(&ns_per_delivery));
    values.insert("run_ms_p50".into(), median(&run_ms));
    values.insert("setup_s".into(), median(&setups));
    values.insert("peak_rss_mb".into(), self_hwm_kib() as f64 / 1024.0);
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        defs: metrics::end_to_end(),
        work_guard: guard_verdict,
        work,
        violations: tally.violations,
    })
}

/// Sums over the traced set.
#[derive(Default)]
struct Layers {
    picks: crate::layers::PickTotals,
    step_ns: f64,
    sim_delivered: f64,
    plain_ns: f64,
    traced_ns: f64,
    wire_minus_sim_ns: f64,
    wire_pairs_delivered: f64,
    wire_junk: f64,
    plain_run_ms: Vec<f64>,
    spawn_ms: Vec<f64>,
    mesh_ms: Vec<f64>,
    decide_ms: Vec<f64>,
    shutdown_ms: Vec<f64>,
    party_hwm_kib: u64,
}

fn measure_traced(opts: &Options) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let (bench, _, work) = set_up(opts, &mut tally)?;
    let guard_verdict = guard(opts, work.as_ref());

    let budget = Duration::from_secs_f64(opts.seconds);
    let mut sums = Layers::default();
    let mut first: Option<TracedRun> = None;
    let start = Instant::now();
    let mut i = 0u64;
    while i == 0 || start.elapsed() < budget {
        let seed = run_seed(opts.seed, i);
        i += 1;
        let plain = bench.run(seed)?;
        let traced = bench.run_traced(seed)?;
        let mut violations = plain.violations.clone();
        violations.extend(traced.violations.iter().cloned());
        // The probes must be invisible: the traced run of a seed has the
        // plain run's work, fingerprint and metrics, bit for bit.
        let same = plain.work == traced.work
            && format!("{:?}", plain.metrics) == format!("{:?}", traced.metrics);
        if plain.work.is_some() && !same {
            violations.push(format!("tracing changed the run with seed {seed}"));
        }
        tally.record(&violations);
        sums.plain_ns += plain.wall.as_nanos() as f64;
        sums.traced_ns += traced.wall.as_nanos() as f64;
        sums.plain_run_ms.push(plain.wall.as_secs_f64() * 1e3);
        if let Some(sim) = &traced.sim {
            sums.picks.add(sim.picks);
            sums.step_ns += sim.steps.step_ns as f64;
            sums.sim_delivered += sim.delivered as f64;
        }
        if let Some(m) = &traced.metrics {
            let misses: u64 = m.decode_misses().map(|(_, c)| c).sum();
            sums.wire_junk += (m.wire_malformed + misses) as f64;
        }
        if let (Some((wire, sim)), Some(m)) = (traced.wire_vs_sim, &traced.metrics) {
            sums.wire_minus_sim_ns += wire.as_nanos() as f64 - sim.as_nanos() as f64;
            sums.wire_pairs_delivered += m.delivered as f64;
        }
        if let Some(d) = &traced.deploy {
            sums.spawn_ms.push(d.spawn.as_secs_f64() * 1e3);
            sums.mesh_ms.push(d.mesh.as_secs_f64() * 1e3);
            sums.decide_ms.push(d.decide.as_secs_f64() * 1e3);
            sums.shutdown_ms.push(d.shutdown.as_secs_f64() * 1e3);
            sums.party_hwm_kib = sums.party_hwm_kib.max(d.party_hwm_kib);
        }
        if first.is_none() {
            first = Some(traced);
        }
    }
    let first = first.expect("at least one traced run");

    let mut v: HashMap<String, f64> = HashMap::new();
    let p = &sums.picks;
    v.insert(
        "scheduler.pick_ns".into(),
        ratio(p.pick_ns as f64, p.picks as f64),
    );
    v.insert(
        "scheduler.picks_per_delivery".into(),
        ratio(p.picks as f64, sums.sim_delivered),
    );
    v.insert(
        "scheduler.pick_share".into(),
        ratio(p.pick_ns as f64, sums.step_ns),
    );
    v.insert(
        "queue.batches_at_pick".into(),
        ratio(p.batches as f64, p.picks as f64),
    );
    v.insert(
        "queue.msgs_per_batch".into(),
        ratio(p.messages as f64, p.batches as f64),
    );
    v.insert(
        "network.step_ns_per_delivery".into(),
        ratio(sums.step_ns, sums.sim_delivered),
    );
    v.insert(
        "network.self_ns_per_delivery".into(),
        ratio(sums.step_ns - p.pick_ns as f64, sums.sim_delivered),
    );
    // Counts come from the set's first run, whose seed depends only on
    // the workload seed, so they repeat exactly across versions.
    if let Some(m) = &first.metrics {
        v.insert("network.sent".into(), m.sent as f64);
        v.insert("network.delivered".into(), m.delivered as f64);
        for kind in metrics::KINDS {
            v.insert(
                format!("network.sent_by_kind.{kind}"),
                m.sent_by_kind(kind) as f64,
            );
        }
        v.insert(
            "network.pool_hit_ratio".into(),
            ratio(m.pool_reused as f64, (m.pool_reused + m.pool_alloc) as f64),
        );
        v.insert("net.virtual_ms".into(), m.virtual_time as f64);
        v.insert(
            "wire.bytes_per_delivery".into(),
            ratio(m.wire_bytes as f64, m.delivered as f64),
        );
        v.insert(
            "wire.frames_per_delivery".into(),
            ratio(m.wire_frames as f64, m.delivered as f64),
        );
    }
    v.insert(
        "wire.ns_per_delivery".into(),
        ratio(sums.wire_minus_sim_ns, sums.wire_pairs_delivered),
    );
    v.insert("wire.malformed_or_decode_miss".into(), sums.wire_junk);
    if let Some(d) = &first.deploy {
        v.insert("deployment.sent".into(), d.sent as f64);
        v.insert("deployment.delivered".into(), d.delivered as f64);
    }
    v.insert("deployment.spawn_ms".into(), median(&sums.spawn_ms));
    v.insert("deployment.mesh_ms".into(), median(&sums.mesh_ms));
    v.insert("deployment.decide_ms".into(), median(&sums.decide_ms));
    v.insert("deployment.shutdown_ms".into(), median(&sums.shutdown_ms));
    v.insert(
        "deployment.party_rss_mb".into(),
        sums.party_hwm_kib as f64 / 1024.0,
    );
    v.insert(
        "trace.overhead".into(),
        ratio(sums.traced_ns, sums.plain_ns),
    );
    v.insert(
        "fail_ratio".into(),
        ratio(tally.failed as f64, tally.attempted as f64),
    );
    v.insert("run_ms_p90".into(), quantile(&sums.plain_run_ms, 0.9));
    v.insert("run_samples".into(), sums.plain_run_ms.len() as f64);
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        values: v,
        defs: metrics::per_layer(),
        work_guard: guard_verdict,
        work,
        violations: tally.violations,
    })
}

/// This process's peak resident set (`VmHWM`) in KiB.
fn self_hwm_kib() -> u64 {
    crate::deploy::vm_hwm_kib(std::process::id())
}
