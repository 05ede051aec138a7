//! The benchmark's four workloads and their runs: one plain run as a user
//! would make it, and one traced run that times each layer from outside.
//!
//! | name | what runs |
//! |---|---|
//! | `ba64-sim` | `run_cell(Ba, "n=64,t=21")`: unanimous BA on `sim:random` |
//! | `ba16-net` | `run_cell(Ba, "n=16,sched=net:lat=1..8")` on `sim` |
//! | `fba7-wire` | FBA n=7, t=2, weak shared coin, k=1, three distinct honest inputs, last t parties silent, on `wire:random` |
//! | `deploy-cs4` | `run_deployment` of common subset, `n=4,corrupt=silent@3,rt=proc` |
//!
//! Every run checks its outputs; a run with any violation counts as
//! failed. `Size::Small` shrinks each in-process workload for the
//! benchmark's own tests and its smoke mode.

use crate::deploy::{run_traced_deployment, DeployTrace};
use crate::layers::{step_to_quiescence, PickTotals, StepTotals, TimedScheduler};
use aft_ba::{BinaryBa, OracleCoin};
use aft_bench::deployment::{run_deployment, DeployOptions, DeployStack};
use aft_core::scenarios::{run_cell_instrumented, standard_registry, StackKind};
use aft_core::{CoinKind, FairChoiceParams, Fba};
use aft_sim::{
    AttackRegistry, Fingerprint, Instance, Metrics, PartyId, RandomScheduler, Runtime, RuntimeExt,
    Scenario, Scheduler, SessionId, SessionTag, SilentInstance, SimNetwork, StopReason, TraceMode,
    WireRuntime,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Step budget per run: far above any workload's need; hitting it is a
/// non-quiescence failure.
const STEP_BUDGET: u64 = 2_000_000_000;

/// Wall budget of one deployment run; exceeding it is a violation.
const DEPLOY_TIMEOUT: Duration = Duration::from_secs(30);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unanimous BA, n=64, on `sim:random`.
    Ba64Sim,
    /// Unanimous BA, n=16, on `sim` under the `net:` virtual-time model.
    Ba16Net,
    /// FBA n=7 with the weak shared coin on `wire:random`.
    Fba7Wire,
    /// Common subset over four `aft-partyd` processes.
    DeployCs4,
}

/// Full size for the benchmark, small for tests and smoke mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Small instances of the same configurations.
    Small,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] = [
        Workload::Ba64Sim,
        Workload::Ba16Net,
        Workload::Fba7Wire,
        Workload::DeployCs4,
    ];

    /// The workload's name on the command line.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Ba64Sim => "ba64-sim",
            Workload::Ba16Net => "ba16-net",
            Workload::Fba7Wire => "fba7-wire",
            Workload::DeployCs4 => "deploy-cs4",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs inside the benchmark's own process.
    pub fn in_process(&self) -> bool {
        *self != Workload::DeployCs4
    }

    /// The scenario string the workload runs.
    pub fn spec(&self, size: Size) -> &'static str {
        match (self, size) {
            (Workload::Ba64Sim, Size::Full) => "n=64,t=21",
            (Workload::Ba64Sim, Size::Small) => "n=7,t=2",
            (Workload::Ba16Net, Size::Full) => "n=16,sched=net:lat=1..8",
            (Workload::Ba16Net, Size::Small) => "n=7,sched=net:lat=1..8",
            (Workload::Fba7Wire, Size::Full) => "n=7,t=2,corrupt=silent@5;silent@6,rt=wire",
            (Workload::Fba7Wire, Size::Small) => "n=4,t=1,corrupt=silent@3,rt=wire",
            (Workload::DeployCs4, _) => "n=4,corrupt=silent@3,rt=proc",
        }
    }
}

/// The deterministic work of one run: what a faster version must still
/// do. Compared against the recorded work of each workload's reference
/// run, so less work cannot pass as a speed-up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Work {
    /// Envelopes delivered.
    pub delivered: u64,
    /// Envelopes sent.
    pub sent: u64,
    /// Sent envelopes per leaf session kind, sorted by kind.
    pub kinds: Vec<(String, u64)>,
    /// Virtual milliseconds at the last delivery (`net:` runs only).
    pub virtual_ms: u64,
    /// Fingerprint of the outputs and the run-affecting counters.
    pub fingerprint: u64,
}

impl Work {
    fn from_metrics(m: &Metrics, fingerprint: u64) -> Work {
        let mut kinds: Vec<(String, u64)> = m.kinds().map(|(k, c)| (k.to_string(), c)).collect();
        kinds.sort();
        Work {
            delivered: m.delivered,
            sent: m.sent,
            kinds,
            virtual_ms: m.virtual_time,
            fingerprint,
        }
    }

    /// One-line rendering, as stored in `recorded_work.txt`.
    pub fn render(&self) -> String {
        let kinds: Vec<String> = self.kinds.iter().map(|(k, c)| format!("{k}:{c}")).collect();
        format!(
            "delivered={} sent={} virtual_ms={} fingerprint={:016x} kinds={}",
            self.delivered,
            self.sent,
            self.virtual_ms,
            self.fingerprint,
            kinds.join("+")
        )
    }
}

/// The result of one plain (untraced) run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Wall time of the whole run: runtime construction, the run, checks.
    pub wall: Duration,
    /// Envelopes delivered.
    pub delivered: u64,
    /// Invariant violations; empty iff the run is correct.
    pub violations: Vec<String>,
    /// The run's deterministic work (in-process workloads only; runs
    /// across real processes race).
    pub work: Option<Work>,
    /// The run's final metrics (in-process workloads only).
    pub metrics: Option<Metrics>,
}

/// Layer timings of one traced in-process run on the simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimLayers {
    /// The scheduler wrapper's counters.
    pub picks: PickTotals,
    /// The step loop's counters.
    pub steps: StepTotals,
    /// Envelopes the simulator delivered.
    pub delivered: u64,
}

/// The result of one traced run.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Wall time of the traced workload run (the wire leg for
    /// `fba7-wire`), comparable with [`Run::wall`].
    pub wall: Duration,
    /// Invariant violations, including differential mismatches.
    pub violations: Vec<String>,
    /// Final metrics of the traced run (the wire leg for `fba7-wire`).
    pub metrics: Option<Metrics>,
    /// Per-layer timings from the simulator step loop.
    pub sim: Option<SimLayers>,
    /// The deterministic work of the traced run.
    pub work: Option<Work>,
    /// `fba7-wire` only: the wire leg's wall time and the sim leg's on
    /// the identical `(seed, spec)`, when both legs did identical work.
    pub wire_vs_sim: Option<(Duration, Duration)>,
    /// `deploy-cs4` only: the control-protocol timeline.
    pub deploy: Option<DeployTrace>,
}

/// Everything set up once per benchmark process for one workload.
pub struct Bench {
    workload: Workload,
    size: Size,
    scenario: Scenario,
    registry: AttackRegistry,
    partyd: Option<PathBuf>,
}

impl Bench {
    /// Parses the workload's scenario and builds the attack registry
    /// (which also installs the wire codecs).
    pub fn new(workload: Workload, size: Size, partyd: Option<PathBuf>) -> Result<Bench, String> {
        let registry = standard_registry();
        let scenario = Scenario::parse(workload.spec(size))
            .ok_or_else(|| format!("scenario {:?} does not parse", workload.spec(size)))?;
        Ok(Bench {
            workload,
            size,
            scenario,
            registry,
            partyd,
        })
    }

    /// One plain run with `seed`, as a user of the library would make it.
    pub fn run(&self, seed: u64) -> Result<Run, String> {
        let start = Instant::now();
        match self.workload {
            Workload::Ba64Sim | Workload::Ba16Net => {
                // `run_cell` plus the final metrics snapshot.
                let outcome = run_cell_instrumented(
                    StackKind::Ba,
                    &self.scenario,
                    seed,
                    &self.registry,
                    STEP_BUDGET,
                    TraceMode::Off,
                );
                let report = outcome.report;
                Ok(Run {
                    wall: start.elapsed(),
                    delivered: report.delivered,
                    violations: report.violations,
                    work: Some(Work::from_metrics(&outcome.metrics, report.fingerprint)),
                    metrics: Some(outcome.metrics),
                })
            }
            Workload::Fba7Wire => {
                let mut rt = self.fba_wire(seed, Box::new(RandomScheduler));
                let (violations, work, metrics) = self.fba_run(&mut rt);
                Ok(Run {
                    wall: start.elapsed(),
                    delivered: work.delivered,
                    violations,
                    work: Some(work),
                    metrics: Some(metrics),
                })
            }
            Workload::DeployCs4 => {
                let mut opts = DeployOptions::new(
                    self.workload.spec(self.size),
                    DeployStack::CommonSubset,
                    seed,
                );
                opts.timeout = DEPLOY_TIMEOUT;
                opts.partyd = self.partyd.clone();
                let report = run_deployment(&opts)?;
                let mut violations = report.violations;
                // Without restarts nothing is replayed, so no party can
                // deliver more than the mesh sent.
                if report.delivered > report.sent {
                    violations.push(format!(
                        "conservation: delivered {} > sent {}",
                        report.delivered, report.sent
                    ));
                }
                Ok(Run {
                    wall: start.elapsed(),
                    delivered: report.delivered,
                    violations,
                    work: None,
                    metrics: None,
                })
            }
        }
    }

    /// One traced run with `seed`: the same run as [`Bench::run`], with
    /// every layer probe attached.
    pub fn run_traced(&self, seed: u64) -> Result<TracedRun, String> {
        match self.workload {
            Workload::Ba64Sim | Workload::Ba16Net => Ok(self.ba_traced(seed)),
            Workload::Fba7Wire => Ok(self.fba_traced(seed)),
            Workload::DeployCs4 => {
                let partyd = aft_bench::deployment::partyd_path(self.partyd.as_deref())?;
                let start = Instant::now();
                let trace = run_traced_deployment(
                    &partyd,
                    &self.scenario,
                    self.workload.spec(self.size),
                    seed,
                    DEPLOY_TIMEOUT,
                )?;
                Ok(TracedRun {
                    wall: start.elapsed(),
                    violations: trace.violations.clone(),
                    metrics: None,
                    sim: None,
                    work: None,
                    wire_vs_sim: None,
                    deploy: Some(trace),
                })
            }
        }
    }

    fn honest(&self) -> Vec<PartyId> {
        self.scenario.honest_parties().collect()
    }

    fn scheduler(&self) -> Box<dyn Scheduler> {
        aft_sim::scheduler_by_name(&self.scenario.sched).expect("parsed scenarios validate")
    }

    /// The BA cell of `run_cell` on a simulator whose scheduler is
    /// wrapped, driven by the timed step loop. Checks and fingerprint
    /// follow `aft_core::scenarios`' BA cell exactly, so the fingerprint
    /// must equal `run_cell`'s for the same seed.
    fn ba_traced(&self, seed: u64) -> TracedRun {
        let start = Instant::now();
        let (sched, picks) = TimedScheduler::wrap(self.scheduler());
        let mut net = SimNetwork::new(self.scenario.config(seed), sched);
        let session = SessionId::root().child(SessionTag::new("ba", 0));
        let input = seed.is_multiple_of(2);
        let mut violations = Vec::new();
        if let Err(e) =
            self.scenario
                .deploy_episode(&mut net, &self.registry, "ba", &session, &[], |_, _| {
                    Box::new(BinaryBa::new(input, Box::new(OracleCoin::new(seed))))
                })
        {
            violations.push(format!("deploy: {e}"));
        }
        let (steps, metrics) = step_to_quiescence(&mut net);
        let mut fp = Fingerprint::new();
        check_conservation(&mut violations, &metrics);
        fp.write_str("ba");
        fp.write_metrics(&metrics);
        let decided: Vec<Option<bool>> = self
            .honest()
            .into_iter()
            .map(|p| net.output_as::<bool>(p, &session).copied())
            .collect();
        if decided.iter().any(|d| d.is_none()) {
            violations.push(format!("termination: honest outputs {decided:?}"));
        }
        let decided: Vec<bool> = decided.into_iter().flatten().collect();
        if decided.windows(2).any(|w| w[0] != w[1]) {
            violations.push(format!("agreement: honest decisions {decided:?}"));
        }
        if decided.iter().any(|&d| d != input) {
            violations.push(format!("validity: input {input}, decisions {decided:?}"));
        }
        for p in (0..self.scenario.n).map(PartyId) {
            fp.write_str(&format!("{:?}", net.output_as::<bool>(p, &session)));
        }
        let wall = start.elapsed();
        let delivered = metrics.delivered;
        TracedRun {
            wall,
            violations,
            work: Some(Work::from_metrics(&metrics, fp.finish())),
            metrics: Some(metrics),
            sim: Some(SimLayers {
                picks: picks.snapshot(),
                steps,
                delivered,
            }),
            wire_vs_sim: None,
            deploy: None,
        }
    }

    /// The FBA workload's wire leg with a wrapped scheduler, then the
    /// identical `(seed, spec)` on the simulator through the timed step
    /// loop. The two legs must do identical work; otherwise the
    /// wire-minus-sim difference is refused and the run fails.
    fn fba_traced(&self, seed: u64) -> TracedRun {
        let start = Instant::now();
        // Both legs carry the same probe, so it cancels in the difference;
        // the scheduler metrics come from the sim leg's identical picks.
        let (sched, _) = TimedScheduler::wrap(Box::new(RandomScheduler));
        let mut wire = self.fba_wire(seed, sched);
        let (mut violations, work, metrics) = self.fba_run(&mut wire);
        let wire_wall = start.elapsed();

        let sim_start = Instant::now();
        let (sched, picks) = TimedScheduler::wrap(Box::new(RandomScheduler));
        let mut net = SimNetwork::new(self.scenario.config(seed), sched);
        self.fba_spawn(&mut net);
        let (steps, sim_metrics) = step_to_quiescence(&mut net);
        let (sim_violations, sim_work) = self.fba_finish(&net, StopReason::Quiescent, &sim_metrics);
        let sim_wall = sim_start.elapsed();
        violations.extend(sim_violations.into_iter().map(|v| format!("sim leg: {v}")));
        // The fingerprint folds outputs and the run-affecting counters, not
        // the wire's byte counters, so equal work means the same schedule.
        let same_work = sim_work == work;
        if !same_work {
            violations.push(format!(
                "wire/sim differential: wire work {} but sim work {}",
                work.render(),
                sim_work.render()
            ));
        }
        TracedRun {
            wall: wire_wall,
            violations,
            metrics: Some(metrics),
            sim: Some(SimLayers {
                picks: picks.snapshot(),
                steps,
                delivered: sim_metrics.delivered,
            }),
            work: Some(work),
            wire_vs_sim: same_work.then_some((wire_wall, sim_wall)),
            deploy: None,
        }
    }

    fn fba_wire(&self, seed: u64, sched: Box<dyn Scheduler>) -> WireRuntime {
        WireRuntime::new(
            self.scenario.config(seed),
            sched,
            aft_sim::wire::global_registry(),
        )
    }

    /// Honest party `p`'s FBA input: three distinct values among the
    /// honest parties.
    fn fba_input(p: usize) -> String {
        format!("value-{}", p % 3)
    }

    fn fba_spawn(&self, rt: &mut dyn Runtime) {
        for p in 0..self.scenario.n {
            let instance: Box<dyn Instance> = if self.scenario.is_corrupt(PartyId(p)) {
                Box::new(SilentInstance)
            } else {
                Box::new(Fba::new(
                    Self::fba_input(p),
                    FairChoiceParams::FixedK { k: 1 },
                    CoinKind::WeakShared,
                ))
            };
            rt.spawn(PartyId(p), fba_session(), instance);
        }
    }

    fn fba_run(&self, rt: &mut dyn Runtime) -> (Vec<String>, Work, Metrics) {
        self.fba_spawn(rt);
        let report = rt.run(STEP_BUDGET);
        let (violations, work) = self.fba_finish(rt, report.stop, &report.metrics);
        (violations, work, report.metrics)
    }

    /// Checks a finished FBA run and fingerprints its outputs and metrics.
    fn fba_finish(
        &self,
        rt: &dyn Runtime,
        stop: StopReason,
        metrics: &Metrics,
    ) -> (Vec<String>, Work) {
        let violations = self.fba_check(rt, stop, metrics);
        let mut fp = Fingerprint::new();
        fp.write_metrics(metrics);
        for p in 0..self.scenario.n {
            fp.write_str(&format!(
                "{:?}",
                rt.output_as::<String>(PartyId(p), &fba_session())
            ));
        }
        (violations, Work::from_metrics(metrics, fp.finish()))
    }

    /// FBA's Theorem 4.5 properties for this configuration: termination
    /// and agreement among honest parties, and — with only silent
    /// faults, every broadcast value is an honest input — validity.
    fn fba_check(&self, rt: &dyn Runtime, stop: StopReason, metrics: &Metrics) -> Vec<String> {
        let mut violations = Vec::new();
        if stop != StopReason::Quiescent {
            violations.push(format!("run did not quiesce ({stop:?})"));
        }
        check_conservation(&mut violations, metrics);
        let honest = self.honest();
        let outputs: Vec<Option<&String>> = honest
            .iter()
            .map(|&p| rt.output_as::<String>(p, &fba_session()))
            .collect();
        if outputs.iter().any(|o| o.is_none()) {
            violations.push(format!("termination: honest outputs {outputs:?}"));
        }
        let decided: Vec<&String> = outputs.into_iter().flatten().collect();
        if decided.windows(2).any(|w| w[0] != w[1]) {
            violations.push(format!("agreement: honest outputs {decided:?}"));
        }
        let inputs: Vec<String> = honest.iter().map(|p| Self::fba_input(p.0)).collect();
        if decided.iter().any(|d| !inputs.contains(d)) {
            violations.push(format!(
                "validity: outputs {decided:?} not among honest inputs"
            ));
        }
        violations
    }
}

fn fba_session() -> SessionId {
    SessionId::root().child(SessionTag::new("fba", 0))
}

/// Message conservation: every sent envelope is delivered or dropped.
fn check_conservation(violations: &mut Vec<String>, m: &Metrics) {
    if m.sent != m.delivered + m.dropped_shunned + m.dropped_crashed {
        violations.push(format!(
            "conservation: sent {} != delivered {} + shunned {} + crashed {}",
            m.sent, m.delivered, m.dropped_shunned, m.dropped_crashed
        ));
    }
}
