//! Layer probes that time calls into the simulator's public API from the
//! outside: a transparent [`Scheduler`] wrapper that times every pick and
//! samples the in-flight queue it sees, and a timed step loop over
//! [`SimNetwork::step`].
//!
//! Neither probe changes what the wrapped code does: the wrapper forwards
//! every trait method unchanged (picks, virtual clock, partition events),
//! and the step loop calls the same per-pick step that
//! [`SimNetwork::run`] calls, so schedules, outputs and [`Metrics`] stay
//! bit-identical to an unwrapped run (pinned by `tests/transparency.rs`).

use aft_sim::net::NetEvent;
use aft_sim::{Metrics, NetConfig, Pending, Runtime, Scheduler, SimNetwork};
use rand_chacha::ChaCha12Rng;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Counters the [`TimedScheduler`] fills in. Shared through an `Arc`
/// because the runtime owns the boxed scheduler.
#[derive(Debug, Default)]
pub struct PickStats {
    /// Picks made.
    pub picks: AtomicU64,
    /// Wall nanoseconds spent inside the wrapped `pick`.
    pub pick_ns: AtomicU64,
    /// Sum over picks of `Pending::len` (in-flight batches).
    pub batches: AtomicU64,
    /// Sum over picks of `Pending::messages` (in-flight envelopes).
    pub messages: AtomicU64,
}

impl PickStats {
    fn get(c: &AtomicU64) -> u64 {
        c.load(Relaxed)
    }

    /// A plain copy of the counters.
    pub fn snapshot(&self) -> PickTotals {
        PickTotals {
            picks: Self::get(&self.picks),
            pick_ns: Self::get(&self.pick_ns),
            batches: Self::get(&self.batches),
            messages: Self::get(&self.messages),
        }
    }
}

/// A copy of [`PickStats`].
#[derive(Debug, Default, Clone, Copy)]
pub struct PickTotals {
    /// Picks made.
    pub picks: u64,
    /// Wall nanoseconds inside `pick`.
    pub pick_ns: u64,
    /// Sum of in-flight batches seen at each pick.
    pub batches: u64,
    /// Sum of in-flight envelopes seen at each pick.
    pub messages: u64,
}

impl PickTotals {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: PickTotals) {
        self.picks += other.picks;
        self.pick_ns += other.pick_ns;
        self.batches += other.batches;
        self.messages += other.messages;
    }
}

/// Wraps a scheduler, timing each `pick` and reading the pending queue's
/// size at it; every other method is forwarded unchanged.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    stats: Arc<PickStats>,
}

impl TimedScheduler {
    /// Wraps `inner`; the returned handle reads the counters.
    pub fn wrap(inner: Box<dyn Scheduler>) -> (Box<dyn Scheduler>, Arc<PickStats>) {
        let stats = Arc::new(PickStats::default());
        let wrapped = TimedScheduler {
            inner,
            stats: stats.clone(),
        };
        (Box::new(wrapped), stats)
    }
}

impl Scheduler for TimedScheduler {
    fn pick(&mut self, pending: &Pending, rng: &mut ChaCha12Rng) -> usize {
        self.stats.batches.fetch_add(pending.len() as u64, Relaxed);
        self.stats
            .messages
            .fetch_add(pending.messages() as u64, Relaxed);
        let start = Instant::now();
        let i = self.inner.pick(pending, rng);
        let ns = start.elapsed().as_nanos() as u64;
        self.stats.pick_ns.fetch_add(ns, Relaxed);
        self.stats.picks.fetch_add(1, Relaxed);
        i
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn configure(&mut self, config: &NetConfig) {
        self.inner.configure(config);
    }

    fn virtual_now(&self) -> Option<u64> {
        self.inner.virtual_now()
    }

    fn fast_forward(&mut self, to: u64) {
        self.inner.fast_forward(to);
    }

    fn drain_net_events(&mut self, out: &mut Vec<NetEvent>) {
        self.inner.drain_net_events(out);
    }
}

/// What [`step_to_quiescence`] measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTotals {
    /// `SimNetwork::step` calls that delivered something.
    pub steps: u64,
    /// Wall nanoseconds of the whole step loop.
    pub step_ns: u64,
}

/// Drives `net` to quiescence one [`SimNetwork::step`] at a time and
/// returns the loop's wall time plus the final metrics snapshot — the
/// same snapshot [`SimNetwork::run`] reports. Only valid for networks
/// without scheduled recoveries (none of the benchmark's workloads
/// schedule any), where `run` is exactly this loop.
///
/// The loop is timed as a whole rather than per call: a clock read per
/// step would cost as much as the step itself on workloads whose picks
/// are mostly served by the fairness cap.
pub fn step_to_quiescence(net: &mut SimNetwork) -> (StepTotals, Metrics) {
    let mut totals = StepTotals::default();
    let start = Instant::now();
    while net.step() {
        totals.steps += 1;
    }
    totals.step_ns = start.elapsed().as_nanos() as u64;
    (totals, Runtime::metrics(net))
}
