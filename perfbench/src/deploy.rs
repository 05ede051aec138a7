//! A traced deployment: the benchmark drives `aft-partyd` itself over its
//! stdin/stdout control protocol (see `aft_bench::deployment`) and
//! timestamps every line, splitting a run into spawn, mesh, decide and
//! shutdown phases. Outputs are checked with `DeployStack::check_outputs`,
//! exactly as the supervisor checks them.

use aft_bench::deployment::DeployStack;
use aft_sim::Scenario;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The timeline and counters of one traced deployment.
#[derive(Debug, Clone, Default)]
pub struct DeployTrace {
    /// Spawn of the first daemon → every daemon printed `ready`.
    pub spawn: Duration,
    /// `peers` sent → every daemon printed `meshed`.
    pub mesh: Duration,
    /// `go` sent → the last honest `output`.
    pub decide: Duration,
    /// `shutdown` sent → every daemon closed its stdout.
    pub shutdown: Duration,
    /// Sum of the daemons' final `sent` counters.
    pub sent: u64,
    /// Sum of the daemons' final `delivered` counters.
    pub delivered: u64,
    /// Largest daemon peak resident set (VmHWM), in KiB, read just
    /// before shutdown.
    pub party_hwm_kib: u64,
    /// Invariant violations and protocol errors; empty iff correct.
    pub violations: Vec<String>,
}

/// A control-protocol line from party `.0`'s stdout; `None` is EOF.
type Line = (usize, Option<String>);

struct Daemon {
    child: Child,
    stdin: ChildStdin,
    reader: JoinHandle<()>,
}

/// Runs one common-subset deployment of `scenario` (whose text is `spec`)
/// with `seed`, driving the daemons at `partyd` directly. Every daemon is
/// killed (if still running) and reaped, and every reader thread joined,
/// on every path out.
pub fn run_traced_deployment(
    partyd: &Path,
    scenario: &Scenario,
    spec: &str,
    seed: u64,
    timeout: Duration,
) -> Result<DeployTrace, String> {
    let (tx, rx) = mpsc::channel();
    let mut daemons = Vec::with_capacity(scenario.n);
    let start = Instant::now();
    let spawned = (0..scenario.n).try_for_each(|p| {
        daemons.push(spawn(partyd, p, spec, seed, tx.clone())?);
        Ok::<(), String>(())
    });
    drop(tx);
    let result = spawned.and_then(|()| drive(&mut daemons, &rx, scenario, start, timeout));
    let mut panicked = false;
    for mut d in daemons {
        let _ = d.child.kill();
        let _ = d.child.wait();
        panicked |= d.reader.join().is_err();
    }
    let (mut trace, outputs) = result?;
    if panicked {
        return Err("a daemon reader thread panicked".into());
    }
    let checked = DeployStack::CommonSubset.check_outputs(scenario, seed, &outputs);
    trace.violations.extend(checked);
    if trace.delivered > trace.sent {
        trace.violations.push(format!(
            "conservation: delivered {} > sent {}",
            trace.delivered, trace.sent
        ));
    }
    Ok(trace)
}

fn spawn(
    partyd: &Path,
    p: usize,
    spec: &str,
    seed: u64,
    tx: Sender<Line>,
) -> Result<Daemon, String> {
    let mut child = Command::new(partyd)
        .args(["--party", &p.to_string()])
        .args(["--stack", DeployStack::CommonSubset.label()])
        .args(["--seed", &seed.to_string(), "--scenario", spec])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", partyd.display()))?;
    let stdin = child.stdin.take().expect("stdin was piped");
    let stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send((p, Some(line))).is_err() {
                return;
            }
        }
        let _ = tx.send((p, None));
    });
    Ok(Daemon {
        child,
        stdin,
        reader,
    })
}

fn send_all(daemons: &mut [Daemon], line: &str) -> Result<(), String> {
    for d in daemons {
        writeln!(d.stdin, "{line}")
            .and_then(|_| d.stdin.flush())
            .map_err(|e| format!("write {line:?}: {e}"))?;
    }
    Ok(())
}

/// Runs the control protocol to the end (or the timeout, which is
/// recorded as a violation). Returns the trace and each party's output.
fn drive(
    daemons: &mut [Daemon],
    rx: &Receiver<Line>,
    scenario: &Scenario,
    start: Instant,
    timeout: Duration,
) -> Result<(DeployTrace, Vec<Option<String>>), String> {
    let n = scenario.n;
    let deadline = start + timeout;
    let honest: Vec<usize> = scenario.honest_parties().map(|p| p.0).collect();
    let mut trace = DeployTrace::default();
    let mut addrs: Vec<Option<String>> = vec![None; n];
    let mut meshed = vec![false; n];
    let mut outputs: Vec<Option<String>> = vec![None; n];
    let mut exited = vec![false; n];
    let mut phase = start;
    let mut shutdown_sent = false;
    while !exited.iter().all(|&e| e) {
        let wait = deadline.saturating_duration_since(Instant::now());
        let Ok((p, line)) = rx.recv_timeout(wait) else {
            trace.violations.push(format!(
                "timeout after {timeout:?}: ready {addrs:?}, meshed {meshed:?}"
            ));
            return Ok((trace, outputs));
        };
        let Some(line) = line else {
            exited[p] = true;
            if !shutdown_sent {
                trace
                    .violations
                    .push(format!("party {p} exited before shutdown"));
            }
            continue;
        };
        let mut words = line.split_whitespace();
        match (words.next(), words.next()) {
            (Some("ready"), Some(addr)) => {
                addrs[p] = Some(addr.to_string());
                if addrs.iter().all(Option::is_some) {
                    trace.spawn = phase.elapsed();
                    let book: Vec<&str> = addrs.iter().flatten().map(String::as_str).collect();
                    phase = Instant::now();
                    send_all(daemons, &format!("peers {}", book.join(" ")))?;
                }
            }
            (Some("meshed"), _) => {
                meshed[p] = true;
                if meshed.iter().all(|&m| m) {
                    trace.mesh = phase.elapsed();
                    phase = Instant::now();
                    send_all(daemons, "go")?;
                }
            }
            (Some("output"), Some(text)) => {
                outputs[p] = Some(text.to_string());
                if !shutdown_sent && honest.iter().all(|&h| outputs[h].is_some()) {
                    trace.decide = phase.elapsed();
                    trace.party_hwm_kib = daemons
                        .iter()
                        .map(|d| vm_hwm_kib(d.child.id()))
                        .max()
                        .unwrap_or(0);
                    phase = Instant::now();
                    shutdown_sent = true;
                    send_all(daemons, "shutdown")?;
                }
            }
            (Some("metrics"), _) => {
                for w in line.split_whitespace().skip(1) {
                    if let Some(v) = w.strip_prefix("sent=") {
                        trace.sent += v.parse::<u64>().unwrap_or(0);
                    } else if let Some(v) = w.strip_prefix("delivered=") {
                        trace.delivered += v.parse::<u64>().unwrap_or(0);
                    }
                }
            }
            _ => {}
        }
    }
    trace.shutdown = phase.elapsed();
    Ok((trace, outputs))
}

/// Peak resident set of process `pid` in KiB (`VmHWM`), 0 if unreadable.
pub fn vm_hwm_kib(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
