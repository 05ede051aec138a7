//! The `net:` virtual-time network model.
//!
//! Every other scheduler only permutes delivery *order*; this family adds
//! a notion of *when*. A discrete-event virtual clock assigns each
//! in-flight batch a virtual arrival time — per-link latency sampled from
//! a configurable distribution, optional sampled link failures
//! (modelled as retransmission delay), and a seed-chosen partition that
//! heals at a configured virtual time — and always delivers the earliest
//! arrival next. One virtual tick is one virtual millisecond.
//!
//! The model stays inside the paper's hypothesis: a partition is a
//! *structured finite delay*, never a loss. Traffic crossing the cut
//! while it is up is re-timed to land after the heal, and a
//! never-healing partition resolves at a huge-but-finite horizon
//! ([`NEVER_HEAL`]), so every message is still eventually delivered and
//! the conservation invariant (`sent == delivered + dropped`) is
//! untouched.
//!
//! Determinism: the partition plan is derived once from
//! `(seed, spec)` via a dedicated RNG stream, so every per-party
//! scheduler instance (the sharded backend builds one per party)
//! resolves the identical cut and timing. Arrival times are sampled from
//! the scheduler RNG once per batch head, at the first pick that sees
//! the head, heads new to one pick in arrival order — exactly the order
//! a front-to-back scan of the queue meets them — making the whole
//! virtual schedule a pure function of `(seed, scenario string)`.
//!
//! Cost: a pick does not scan the queue. The queue's head journal (see
//! [`Pending::for_scheduler`]) names the heads that appeared since the
//! previous pick; only those are sampled and pushed onto a binary heap
//! keyed by `(arrival time, batch birth)`, and the pick pops the
//! earliest entry that is still a live head. That is
//! O(new heads · log pending) per pick instead of O(pending).

use crate::ids::PartyId;
use crate::queue::{BatchSlot, MsgMeta, Pending};
use crate::runtime::NetConfig;
use crate::scheduler::Scheduler;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Virtual-time horizon standing in for "never": a partition with no
/// `heal=` heals here. Huge (≈ 10^12 virtual ms) but finite, which keeps
/// eventual delivery a theorem rather than a hope.
pub const NEVER_HEAL: u64 = 1 << 40;

/// Per-link latency distribution (virtual milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyDist {
    /// Uniform over `lo..=hi`.
    Uniform {
        /// Minimum latency (≥ 1).
        lo: u64,
        /// Maximum latency (≥ `lo`).
        hi: u64,
    },
    /// Geometric approximation of an exponential with the given mean:
    /// integer trials with success probability `1/mean`, capped at
    /// `16 * mean`. Integer-only, so cross-platform determinism never
    /// rests on floating point.
    Exp {
        /// Mean latency (1..=256).
        mean: u64,
    },
}

impl LatencyDist {
    fn parse(v: &str) -> Option<LatencyDist> {
        if let Some(m) = v.strip_prefix("exp:") {
            let mean: u64 = m.parse().ok()?;
            if !(1..=256).contains(&mean) {
                return None;
            }
            return Some(LatencyDist::Exp { mean });
        }
        let (lo, hi) = v.split_once("..")?;
        let lo: u64 = lo.parse().ok()?;
        let hi: u64 = hi.parse().ok()?;
        if lo == 0 || hi < lo || hi > 1 << 20 {
            return None;
        }
        Some(LatencyDist::Uniform { lo, hi })
    }
}

impl fmt::Display for LatencyDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatencyDist::Uniform { lo, hi } => write!(f, "{lo}..{hi}"),
            LatencyDist::Exp { mean } => write!(f, "exp:{mean}"),
        }
    }
}

/// Which parties the partition isolates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionSpec {
    /// `p<pct>`: cut `ceil(t * pct / 100)` seed-chosen parties (≥ 1, ≤ t).
    Sampled {
        /// Percentage of the fault budget `t` to isolate (1..=100).
        pct: u8,
    },
    /// `<i>+<j>+…`: an explicit strictly-increasing party list.
    Explicit(Vec<PartyId>),
}

impl PartitionSpec {
    fn parse(v: &str) -> Option<PartitionSpec> {
        if let Some(p) = v.strip_prefix('p') {
            let pct: u8 = p.parse().ok()?;
            if !(1..=100).contains(&pct) {
                return None;
            }
            return Some(PartitionSpec::Sampled { pct });
        }
        let mut ids = Vec::new();
        for part in v.split('+') {
            let id: usize = part.parse().ok()?;
            // Canonical form only: strictly increasing, no duplicates.
            if ids.last().is_some_and(|&PartyId(prev)| prev >= id) {
                return None;
            }
            ids.push(PartyId(id));
        }
        if ids.is_empty() {
            return None;
        }
        Some(PartitionSpec::Explicit(ids))
    }
}

impl fmt::Display for PartitionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionSpec::Sampled { pct } => write!(f, "p{pct}"),
            PartitionSpec::Explicit(ids) => {
                for (i, p) in ids.iter().enumerate() {
                    if i > 0 {
                        write!(f, "+")?;
                    }
                    write!(f, "{}", p.0)?;
                }
                Ok(())
            }
        }
    }
}

/// Parsed `net:` scheduler spec. Grammar (comma-separated, any order,
/// each key at most once):
///
/// ```text
/// net[:lat=<lo>..<hi> | lat=exp:<mean>][,fail=p<pct>]
///    [,partition=p<pct> | partition=<i>+<j>+…][,heal=<vticks>]
/// ```
///
/// `heal=` requires `partition=`; a partition without `heal=` never
/// heals (resolves at [`NEVER_HEAL`]). Bare `net` means `net:lat=1..8`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetSpec {
    /// Per-link latency distribution.
    pub lat: LatencyDist,
    /// Sampled link-failure probability in percent (0 = off). A failed
    /// send is retransmitted: its delay grows by four extra samples'
    /// worth, it is never lost.
    pub fail_pct: u8,
    /// Optional partition.
    pub partition: Option<PartitionSpec>,
    /// Virtual ticks after partition start at which it heals.
    pub heal_after: Option<u64>,
}

impl NetSpec {
    /// Parses a full scheduler string (`net` or `net:<args>`). Returns
    /// `None` on unknown keys, duplicate keys, out-of-range values, or
    /// `heal=` without `partition=`.
    pub fn parse(s: &str) -> Option<NetSpec> {
        let rest = if s == "net" {
            ""
        } else {
            match s.strip_prefix("net:") {
                Some(r) if !r.is_empty() => r,
                _ => return None,
            }
        };
        let mut lat = None;
        let mut fail = None;
        let mut partition = None;
        let mut heal = None;
        if !rest.is_empty() {
            for tok in rest.split(',') {
                let (k, v) = tok.split_once('=')?;
                match k {
                    "lat" if lat.is_none() => lat = Some(LatencyDist::parse(v)?),
                    "fail" if fail.is_none() => {
                        let p: u8 = v.strip_prefix('p')?.parse().ok()?;
                        if !(1..=99).contains(&p) {
                            return None;
                        }
                        fail = Some(p);
                    }
                    "partition" if partition.is_none() => {
                        partition = Some(PartitionSpec::parse(v)?)
                    }
                    "heal" if heal.is_none() => {
                        let h: u64 = v.parse().ok()?;
                        if h == 0 || h > 1 << 30 {
                            return None;
                        }
                        heal = Some(h);
                    }
                    _ => return None,
                }
            }
        }
        if heal.is_some() && partition.is_none() {
            return None;
        }
        Some(NetSpec {
            lat: lat.unwrap_or(LatencyDist::Uniform { lo: 1, hi: 8 }),
            fail_pct: fail.unwrap_or(0),
            partition,
            heal_after: heal,
        })
    }
}

impl fmt::Display for NetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net:lat={}", self.lat)?;
        if self.fail_pct > 0 {
            write!(f, ",fail=p{}", self.fail_pct)?;
        }
        if let Some(p) = &self.partition {
            write!(f, ",partition={p}")?;
        }
        if let Some(h) = self.heal_after {
            write!(f, ",heal={h}")?;
        }
        Ok(())
    }
}

/// A network-lifecycle event the virtual clock crossed; drained by the
/// backend into the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetEvent {
    /// The partition went up at `vtime`, isolating `cut`.
    PartitionStart {
        /// Virtual time of the cut.
        vtime: u64,
        /// Isolated parties (sorted).
        cut: Vec<PartyId>,
    },
    /// The partition healed at `vtime`.
    PartitionHeal {
        /// Virtual time of the heal.
        vtime: u64,
    },
}

/// The resolved partition: which parties are cut, from when to when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Isolated parties (sorted, non-empty, ≤ t of them).
    pub cut: Vec<PartyId>,
    /// Virtual time the cut goes up.
    pub start: u64,
    /// Virtual time the cut heals ([`NEVER_HEAL`]-based if unhealed).
    pub end: u64,
}

impl PartitionPlan {
    /// Derives the plan from `(seed, spec)` — identical on every
    /// scheduler instance sharing those inputs, which is what makes the
    /// sharded backend's per-party schedulers agree on the cut.
    fn derive(spec: &NetSpec, n: usize, t: usize, seed: u64) -> Option<PartitionPlan> {
        let part = spec.partition.as_ref()?;
        let mut rng = ChaCha12Rng::seed_from_u64(plan_seed(seed, spec));
        let cut: Vec<PartyId> = match part {
            PartitionSpec::Explicit(ids) => {
                ids.iter().copied().filter(|p| p.0 < n).take(t).collect()
            }
            PartitionSpec::Sampled { pct } => {
                if t == 0 {
                    return None;
                }
                let size = (t * *pct as usize).div_ceil(100).clamp(1, t);
                // Partial Fisher–Yates: the first `size` positions end up
                // a uniform sample without replacement.
                let mut idx: Vec<usize> = (0..n).collect();
                for k in 0..size {
                    let j = rng.gen_range(k..n);
                    idx.swap(k, j);
                }
                let mut cut: Vec<PartyId> = idx[..size].iter().map(|&i| PartyId(i)).collect();
                cut.sort_unstable();
                cut
            }
        };
        if cut.is_empty() {
            return None;
        }
        let start: u64 = rng.gen_range(0..64);
        let end = start.saturating_add(spec.heal_after.unwrap_or(NEVER_HEAL));
        Some(PartitionPlan { cut, start, end })
    }

    /// Whether a `from → to` link crosses the cut (exactly one endpoint
    /// isolated). Traffic *within* the cut still flows.
    fn crosses(&self, from: PartyId, to: PartyId) -> bool {
        self.cut.binary_search(&from).is_ok() != self.cut.binary_search(&to).is_ok()
    }
}

/// FNV-1a over the canonical spec string, folded with the run seed, so
/// the plan RNG stream is a pure function of `(seed, spec)`.
fn plan_seed(seed: u64, spec: &NetSpec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in spec.to_string().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(h)
}

/// One queued arrival: `(virtual arrival time, batch birth, head seq,
/// batch slot)`. Birth order is arrival order, so the heap's minimum is
/// the earliest arrival with ties on the oldest batch; the head seq
/// tells a live entry from a stale one.
type Arrival = Reverse<(u64, u64, u64, BatchSlot)>;

/// The discrete-event virtual-clock scheduler (glitch-style: an event
/// queue keyed by `(virtual_time, arrival_index)`).
///
/// Each batch head is assigned a virtual arrival time by the first pick
/// that sees it: `now + latency` (plus retransmission delay on a sampled
/// link failure), re-timed past the heal when the link crosses an
/// active partition cut. Heads new to one pick are sampled in arrival
/// order. `pick` always returns the earliest arrival, ties broken by
/// arrival order, and the clock advances monotonically to the delivered
/// arrival's time.
///
/// The arrivals live in a binary heap fed from the queue's head journal
/// ([`Pending::fresh_since`]), so the scheduler is bound to the one
/// [`Pending`] it picks from, which must be built by
/// [`Pending::for_scheduler`] with this scheduler. Each pick must be
/// followed by taking the picked batch's head — the heap entry is
/// consumed by the pick. Entries whose head has left the queue some other
/// way (a fairness-cap forced delivery, a retraction, a run delivered
/// past its head) go stale and are skipped when popped.
pub struct NetScheduler {
    spec: NetSpec,
    /// The virtual clock, in virtual milliseconds.
    now: u64,
    /// Sampled arrivals of every live batch head (plus stale entries).
    arrivals: BinaryHeap<Arrival>,
    /// Absolute index of the first head-journal entry not yet sampled.
    cursor: u64,
    /// Reusable buffer of `(birth, slot)` for the heads new to a pick.
    fresh: Vec<(u64, BatchSlot)>,
    /// Resolved partition (set by `configure`; `None` = latency only).
    plan: Option<PartitionPlan>,
    emitted_start: bool,
    emitted_heal: bool,
    /// Lifecycle events crossed but not yet drained by the backend.
    events: Vec<NetEvent>,
}

impl NetScheduler {
    /// Builds an unconfigured scheduler. Until
    /// [`configure`](Scheduler::configure) runs, a partition spec
    /// degrades to latency-only (no cut can be derived without `n`,
    /// `t` and the seed).
    pub fn new(spec: NetSpec) -> Self {
        NetScheduler {
            spec,
            now: 0,
            arrivals: BinaryHeap::new(),
            cursor: 0,
            fresh: Vec::new(),
            plan: None,
            emitted_start: false,
            emitted_heal: false,
            events: Vec::new(),
        }
    }

    /// The parsed spec.
    pub fn spec(&self) -> &NetSpec {
        &self.spec
    }

    /// The resolved partition plan, if any (after `configure`).
    pub fn plan(&self) -> Option<&PartitionPlan> {
        self.plan.as_ref()
    }

    fn sample_latency(&self, rng: &mut ChaCha12Rng) -> u64 {
        match self.spec.lat {
            LatencyDist::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            LatencyDist::Exp { mean } => {
                // Geometric with p = 1/mean: mean = `mean`, capped.
                let cap = mean.saturating_mul(16);
                let mut d = 1u64;
                while d < cap && rng.gen_range(0..mean) != 0 {
                    d += 1;
                }
                d
            }
        }
    }

    /// Samples the virtual arrival time for a batch head seen for the
    /// first time.
    fn arrival_time(&self, m: &MsgMeta, rng: &mut ChaCha12Rng) -> u64 {
        let mut delay = self.sample_latency(rng);
        if self.spec.fail_pct > 0 && rng.gen_range(0..100u8) < self.spec.fail_pct {
            // Link failure = retransmission, not loss: four extra
            // samples' worth of delay keeps delivery eventual.
            delay = delay.saturating_add(4 * self.sample_latency(rng));
        }
        let natural = self.now.saturating_add(delay);
        if let Some(plan) = &self.plan {
            if plan.crosses(m.from, m.to) && natural >= plan.start && natural < plan.end {
                // Crossing an active cut: the message sits in the
                // partition and lands a fresh latency after the heal.
                return plan.end.saturating_add(self.sample_latency(rng));
            }
        }
        natural
    }

    /// Advances the clock monotonically to `target`, emitting any
    /// partition lifecycle events it crosses.
    fn advance(&mut self, target: u64) {
        if let Some(plan) = &self.plan {
            if !self.emitted_start && target >= plan.start {
                self.events.push(NetEvent::PartitionStart {
                    vtime: plan.start,
                    cut: plan.cut.clone(),
                });
                self.emitted_start = true;
            }
            if !self.emitted_heal && plan.end < NEVER_HEAL && target >= plan.end {
                self.events
                    .push(NetEvent::PartitionHeal { vtime: plan.end });
                self.emitted_heal = true;
            }
        }
        self.now = self.now.max(target);
    }

    /// Samples and queues every batch head that appeared since the last
    /// pick, in arrival order.
    fn sample_fresh_heads(&mut self, pending: &Pending, rng: &mut ChaCha12Rng) {
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.clear();
        fresh.extend(
            pending
                .fresh_since(self.cursor)
                .iter()
                .filter_map(|&slot| Some((pending.birth_of(slot)?, slot))),
        );
        self.cursor = pending.fresh_end();
        // Births sort as arrival positions do; a slot journalled twice
        // resolves to the same live batch, hence the same birth.
        fresh.sort_unstable();
        fresh.dedup();
        for &(birth, slot) in &fresh {
            let m = pending.meta_of_slot(slot);
            let vt = self.arrival_time(&m, rng);
            self.arrivals.push(Reverse((vt, birth, m.seq, slot)));
        }
        self.fresh = fresh;
    }
}

impl Scheduler for NetScheduler {
    fn pick(&mut self, pending: &Pending, rng: &mut ChaCha12Rng) -> usize {
        self.sample_fresh_heads(pending, rng);
        let is_live =
            |&Reverse((_, _, seq, slot)): &Arrival| pending.head_seq_of(slot) == Some(seq);
        // Stale entries only leave the heap when popped; sweep them once
        // they outnumber the live ones, so the heap stays O(pending).
        if self.arrivals.len() > 2 * pending.len() + 32 {
            self.arrivals.retain(is_live);
        }
        let (vt, slot) = loop {
            let top = self
                .arrivals
                .pop()
                .expect("every live batch head has a queued arrival (does the queue track heads?)");
            if is_live(&top) {
                let Reverse((vt, _, _, slot)) = top;
                break (vt, slot);
            }
        };
        self.advance(vt);
        pending.rank_of(slot)
    }

    fn name(&self) -> &'static str {
        "net"
    }

    fn configure(&mut self, config: &NetConfig) {
        self.plan = PartitionPlan::derive(&self.spec, config.n, config.t, config.seed);
    }

    fn virtual_now(&self) -> Option<u64> {
        Some(self.now)
    }

    fn fast_forward(&mut self, to: u64) {
        if to > self.now {
            self.advance(to);
        }
    }

    fn drain_net_events(&mut self, out: &mut Vec<NetEvent>) {
        out.append(&mut self.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{SessionId, SessionTag};
    use crate::network::Envelope;
    use crate::payload::Payload;
    use crate::scheduler::SchedulerConfig;
    use rand::RngCore;
    use std::collections::BTreeMap;

    fn envelope(from: usize, to: usize, seq: u64) -> Envelope {
        Envelope {
            from: PartyId(from),
            to: PartyId(to),
            session: SessionId::root().child(SessionTag::new("x", 0)),
            payload: Payload::new(0u8),
            seq,
            born_step: 0,
        }
    }

    fn pending(entries: &[(usize, usize)]) -> Pending {
        let mut q = Pending::new();
        q.track_heads();
        for (seq, &(from, to)) in entries.iter().enumerate() {
            q.push(envelope(from, to, seq as u64));
        }
        q
    }

    fn config(n: usize, t: usize, seed: u64) -> NetConfig {
        NetConfig {
            n,
            t,
            seed,
            scheduler: SchedulerConfig::default(),
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in [
            "net:lat=1..8",
            "net:lat=1..20,partition=p50,heal=200",
            "net:lat=exp:5,fail=p10",
            "net:lat=2..2,partition=0+2",
            "net:lat=1..8,fail=p1,partition=p100,heal=1",
        ] {
            let spec = NetSpec::parse(s).expect(s);
            assert_eq!(spec.to_string(), s, "canonical display");
            assert_eq!(NetSpec::parse(&spec.to_string()), Some(spec));
        }
        // Bare `net` canonicalizes to the default latency band.
        assert_eq!(NetSpec::parse("net").unwrap().to_string(), "net:lat=1..8");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for s in [
            "net:",
            "net:lat=0..8",             // zero latency
            "net:lat=9..2",             // inverted band
            "net:lat=exp:0",            // zero mean
            "net:lat=exp:999",          // mean out of range
            "net:lat=1..8,lat=2..3",    // duplicate key
            "net:heal=5",               // heal without partition
            "net:fail=p0",              // zero failure pct
            "net:fail=p100",            // certain failure
            "net:fail=10",              // missing p
            "net:partition=p0",         // empty cut
            "net:partition=p101",       // over 100%
            "net:partition=2+1",        // not strictly increasing
            "net:partition=1+1",        // duplicate
            "net:partition=",           // empty
            "net:partition=p50,heal=0", // zero heal
            "net:bogus=1",              // unknown key
            "nets:lat=1..8",            // wrong family
        ] {
            assert!(NetSpec::parse(s).is_none(), "should reject {s:?}");
        }
    }

    #[test]
    fn clock_is_monotone_and_picks_are_in_bounds() {
        let spec = NetSpec::parse("net:lat=1..20,fail=p25").unwrap();
        let mut s = NetScheduler::new(spec);
        s.configure(&config(4, 1, 7));
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let mut q = pending(&[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]);
        let mut last = 0;
        while !q.is_empty() {
            let i = s.pick(&q, &mut rng);
            assert!(i < q.len());
            let now = s.virtual_now().unwrap();
            assert!(now >= last, "clock must be monotone");
            last = now;
            q.take(i);
        }
        assert!(last > 0, "delivering advances the clock");
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_spec() {
        let run = |seed: u64| {
            let spec = NetSpec::parse("net:lat=1..20,partition=p50,heal=50").unwrap();
            let mut s = NetScheduler::new(spec);
            s.configure(&config(7, 2, seed));
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut q = pending(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)]);
            let mut order = Vec::new();
            while !q.is_empty() {
                let i = s.pick(&q, &mut rng);
                order.push((q.take(i).seq, s.virtual_now().unwrap()));
            }
            let mut events = Vec::new();
            s.fast_forward(NEVER_HEAL + 1);
            s.drain_net_events(&mut events);
            (order, events, s.plan().cloned())
        };
        assert_eq!(run(3), run(3), "identical seed, identical schedule");
        assert_ne!(run(3).0, run(4).0, "different seed, different schedule");
    }

    #[test]
    fn partition_delays_cross_cut_traffic_past_the_heal() {
        let spec = NetSpec::parse("net:lat=1..1,partition=0+1,heal=500").unwrap();
        let mut s = NetScheduler::new(spec);
        s.configure(&config(4, 2, 1));
        let plan = s.plan().cloned().expect("plan derived");
        assert_eq!(plan.cut, vec![PartyId(0), PartyId(1)]);
        assert_eq!(plan.end, plan.start + 500);

        // Drive the clock into the partition window with intra-cut
        // traffic, then send a cross-cut message into the same queue and
        // check it lands after the heal.
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let mut q = pending(&[(0, 1); 70]);
        while s.virtual_now().unwrap() < plan.start {
            let i = s.pick(&q, &mut rng);
            q.take(i);
            assert!(!q.is_empty(), "enough intra-cut traffic to reach start");
        }
        q.push(envelope(0, 2, 1_000)); // crosses the cut
        loop {
            let i = s.pick(&q, &mut rng);
            if q.take(i).seq == 1_000 {
                break;
            }
            assert!(
                s.virtual_now().unwrap() < plan.end,
                "intra-cut traffic is not held by the partition"
            );
        }
        assert!(
            s.virtual_now().unwrap() > plan.end,
            "cross-cut delivery waits for the heal"
        );
        let mut events = Vec::new();
        s.drain_net_events(&mut events);
        assert!(matches!(events[0], NetEvent::PartitionStart { .. }));
        assert!(matches!(
            events.last(),
            Some(NetEvent::PartitionHeal { .. })
        ));
    }

    #[test]
    fn never_healing_partition_still_delivers() {
        let spec = NetSpec::parse("net:lat=1..1,partition=0+1").unwrap();
        let mut s = NetScheduler::new(spec);
        s.configure(&config(4, 2, 1));
        let plan = s.plan().cloned().unwrap();
        assert!(plan.end >= NEVER_HEAL);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        // A cross-cut message alone still gets picked (finite vtime).
        let mut q = pending(&[(0, 2)]);
        let i = s.pick(&q, &mut rng);
        q.take(i);
        assert!(q.is_empty());
        // The heal event is never emitted for a NEVER_HEAL horizon.
        s.fast_forward(u64::MAX);
        let mut events = Vec::new();
        s.drain_net_events(&mut events);
        assert!(events
            .iter()
            .all(|e| !matches!(e, NetEvent::PartitionHeal { .. })));
    }

    #[test]
    fn exp_latency_mean_is_plausible() {
        let spec = NetSpec::parse("net:lat=exp:5").unwrap();
        let s = NetScheduler::new(spec);
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let n = 4000;
        let total: u64 = (0..n).map(|_| s.sample_latency(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((3.5..=6.5).contains(&mean), "observed mean {mean}");
    }

    #[test]
    fn unconfigured_partition_degrades_to_latency_only() {
        let spec = NetSpec::parse("net:lat=1..4,partition=p50,heal=10").unwrap();
        let mut s = NetScheduler::new(spec);
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let mut q = pending(&[(0, 1), (1, 0)]);
        while !q.is_empty() {
            let i = s.pick(&q, &mut rng);
            q.take(i);
        }
        assert!(s.plan().is_none());
    }

    #[test]
    fn sampled_cut_respects_the_fault_budget() {
        for pct in [1u8, 25, 50, 75, 100] {
            let spec = NetSpec::parse(&format!("net:lat=1..8,partition=p{pct},heal=50")).unwrap();
            let mut s = NetScheduler::new(spec);
            s.configure(&config(10, 3, 42));
            let plan = s.plan().expect("plan");
            assert!(!plan.cut.is_empty() && plan.cut.len() <= 3, "cut ≤ t");
            assert!(plan.cut.windows(2).all(|w| w[0] < w[1]), "sorted cut");
            assert!(plan.cut.iter().all(|p| p.0 < 10), "ids < n");
        }
    }
    /// The reference pick: a front-to-back scan of every pending batch
    /// that samples each head the first time it meets one and keeps the
    /// earliest arrival, ties on the earliest arrival index. The heap
    /// scheduler must reproduce it pick for pick and draw for draw.
    struct ScanOracle {
        clock: NetScheduler,
        /// Batch-head sequence number → assigned virtual arrival time.
        arrivals: BTreeMap<u64, u64>,
    }

    impl Scheduler for ScanOracle {
        fn pick(&mut self, pending: &Pending, rng: &mut ChaCha12Rng) -> usize {
            let mut best = 0usize;
            let mut best_seq = 0u64;
            let mut best_vt = u64::MAX;
            for (i, m) in pending.metas().enumerate() {
                let vt = *self
                    .arrivals
                    .entry(m.seq)
                    .or_insert_with(|| self.clock.arrival_time(&m, rng));
                // Strict `<` keeps ties on the earliest arrival index.
                if vt < best_vt {
                    best_vt = vt;
                    best = i;
                    best_seq = m.seq;
                }
            }
            self.clock.advance(best_vt);
            self.arrivals.remove(&best_seq);
            best
        }

        fn configure(&mut self, config: &NetConfig) {
            self.clock.configure(config);
        }

        fn virtual_now(&self) -> Option<u64> {
            self.clock.virtual_now()
        }

        fn fast_forward(&mut self, to: u64) {
            self.clock.fast_forward(to);
        }

        fn drain_net_events(&mut self, out: &mut Vec<NetEvent>) {
            self.clock.drain_net_events(out);
        }
    }

    /// One side of a differential run: a queue, its scheduler and the
    /// scheduler's RNG.
    struct Side {
        q: Pending,
        s: Box<dyn Scheduler>,
        rng: ChaCha12Rng,
    }

    /// The heap scheduler (side 0) and the scan oracle (side 1) driven
    /// through one workload on twin queues.
    struct Differential {
        sides: [Side; 2],
        /// Clear the head journal after each scheduler pick, as the
        /// backends do (otherwise only the scheduler's cursor advances).
        clear: bool,
        next_seq: u64,
        /// The most recently pushed pair: pushing it again merges while
        /// that batch is live.
        tail: (usize, usize),
    }

    impl Differential {
        fn new(spec: &str, seed: u64, clear: bool) -> Self {
            let spec = NetSpec::parse(spec).expect("valid spec");
            let config = config(7, 2, seed);
            let rng = ChaCha12Rng::seed_from_u64(seed);
            let mut heap: Box<dyn Scheduler> = Box::new(NetScheduler::new(spec.clone()));
            let mut oracle: Box<dyn Scheduler> = Box::new(ScanOracle {
                clock: NetScheduler::new(spec),
                arrivals: BTreeMap::new(),
            });
            heap.configure(&config);
            oracle.configure(&config);
            let side = |s, rng| {
                let mut q = Pending::new();
                q.track_heads();
                Side { q, s, rng }
            };
            Differential {
                sides: [side(heap, rng.clone()), side(oracle, rng)],
                clear,
                next_seq: 0,
                tail: (0, 0),
            }
        }

        fn is_empty(&self) -> bool {
            self.sides[0].q.is_empty()
        }

        /// Pushes a same-pair run of `k` envelopes as one batch (merging
        /// into the tail batch when the pair matches it).
        fn push(&mut self, from: usize, to: usize, k: u64) {
            let seqs = self.next_seq..self.next_seq + k;
            for side in &mut self.sides {
                side.q
                    .push_batch(seqs.clone().map(|s| envelope(from, to, s)).collect());
            }
            self.next_seq += k;
            self.tail = (from, to);
        }

        /// Delivers up to `limit` envelopes of the batch run at `slots`,
        /// the receiver answering between takes as `word` dictates
        /// (sometimes to itself, which may merge into the run).
        fn deliver(&mut self, slots: [BatchSlot; 2], limit: u64, word: u64) {
            let run = self.sides[0].q.run_len_of_slot(slots[0]);
            assert_eq!(run, self.sides[1].q.run_len_of_slot(slots[1]));
            for k in 0..(run as u64).min(limit) {
                let a = self.sides[0].q.take_slot(slots[0]);
                let b = self.sides[1].q.take_slot(slots[1]);
                assert_eq!((a.seq, a.from, a.to), (b.seq, b.from, b.to));
                if (word >> (16 + k % 32)) & 1 == 1 {
                    let to = a.to.0;
                    let dst = if (word >> 48) & 1 == 1 {
                        to
                    } else {
                        (to + 1 + (word >> 49) as usize % 4) % 5
                    };
                    self.push(to, dst, 1);
                }
            }
        }

        /// A scheduler pick as the backends make one: pick on both sides,
        /// clear the journal, compare, deliver the run.
        fn scheduler_pick(&mut self, limit: u64, word: u64) {
            let clear = self.clear;
            let picks = self.sides.each_mut().map(|side| {
                let i = side.s.pick(&side.q, &mut side.rng);
                if clear {
                    side.q.clear_fresh();
                }
                assert!(i < side.q.len(), "pick in bounds");
                i
            });
            assert_eq!(picks[0], picks[1], "same pick");
            let [heap, scan] = &mut self.sides;
            assert_eq!(heap.s.virtual_now(), scan.s.virtual_now(), "same clock");
            let (mut a, mut b) = (Vec::new(), Vec::new());
            heap.s.drain_net_events(&mut a);
            scan.s.drain_net_events(&mut b);
            assert_eq!(a, b, "same lifecycle events");
            let slots = [heap.q.slot_of(picks[0]), scan.q.slot_of(picks[1])];
            self.deliver(slots, limit, word);
        }

        /// A fairness-cap style forced delivery of the oldest batch: the
        /// schedulers never see it, and the journal is not cleared.
        fn forced_take(&mut self, limit: u64, word: u64) {
            let slots = [self.sides[0].q.slot_of(0), self.sides[1].q.slot_of(0)];
            self.deliver(slots, limit, word);
        }

        /// Applies one op decoded from a raw word.
        fn op(&mut self, word: u64) {
            let party = |shift: u32| (word >> shift) as usize % 5;
            let limit = if (word >> 8) & 1 == 1 {
                u64::MAX
            } else {
                1 + (word >> 9) % 3
            };
            match word % 10 {
                0..=3 => {
                    let (from, to) = if (word >> 8) & 1 == 1 {
                        self.tail
                    } else {
                        (party(9), party(12))
                    };
                    self.push(from, to, 1);
                }
                4 => self.push(party(9), party(12), 2 + (word >> 15) % 3),
                5..=7 if !self.is_empty() => self.scheduler_pick(limit, word),
                8 if !self.is_empty() => self.forced_take(limit, word),
                9 => match (word >> 12) % 4 {
                    0 => {
                        let from = PartyId(party(14));
                        let [a, b] = self.sides.each_mut().map(|side| {
                            side.q
                                .retract_from(from)
                                .iter()
                                .map(|e| e.seq)
                                .collect::<Vec<_>>()
                        });
                        assert_eq!(a, b);
                    }
                    1 => {
                        while !self.is_empty() {
                            self.forced_take(u64::MAX, 0);
                        }
                    }
                    2 => {
                        while !self.is_empty() {
                            self.scheduler_pick(u64::MAX, 0);
                        }
                    }
                    _ => {
                        let to = self.sides[0].s.virtual_now().unwrap() + (word >> 14) % 64;
                        for side in &mut self.sides {
                            side.s.fast_forward(to);
                        }
                    }
                },
                _ => {}
            }
        }

        /// Drains the rest through the schedulers and checks the final
        /// clock, lifecycle events and RNG state agree.
        fn finish(mut self) {
            while !self.is_empty() {
                self.scheduler_pick(u64::MAX, 0);
            }
            let [heap, scan] = &mut self.sides;
            for side in [&mut *heap, &mut *scan] {
                side.s.fast_forward(NEVER_HEAL + 1);
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            heap.s.drain_net_events(&mut a);
            scan.s.drain_net_events(&mut b);
            assert_eq!(a, b, "same lifecycle events");
            assert_eq!(heap.s.virtual_now(), scan.s.virtual_now());
            assert_eq!(heap.rng.next_u64(), scan.rng.next_u64(), "same RNG draws");
        }
    }

    /// Specs covering each arrival-sampling path: uniform and exponential
    /// latency, ties (constant latency), link failures, sampled and
    /// explicit partitions with and without a heal.
    const DIFFERENTIAL_SPECS: &[&str] = &[
        "net:lat=1..8",
        "net:lat=2..2",
        "net:lat=1..3,fail=p30",
        "net:lat=exp:5,fail=p10",
        "net:lat=exp:2",
        "net:lat=1..20,partition=p50,heal=30",
        "net:lat=1..4,partition=p100",
        "net:lat=1..6,fail=p20,partition=0+2,heal=12",
        "net:lat=2..2,partition=1",
    ];

    #[test]
    fn heap_pick_matches_the_scan_on_a_long_mixed_run() {
        for (k, spec) in DIFFERENTIAL_SPECS.iter().enumerate() {
            for clear in [true, false] {
                let mut ops = ChaCha12Rng::seed_from_u64(k as u64);
                let mut d = Differential::new(spec, 11 + k as u64, clear);
                // A burst the fairness cap mostly drains behind the
                // scheduler's back leaves the heap mostly stale entries,
                // which the next pick sweeps away.
                for i in 0..200 {
                    d.push(i % 5, i / 5 % 5, 1);
                }
                d.scheduler_pick(1, 0);
                for _ in 0..150 {
                    d.forced_take(1, 0);
                }
                for _ in 0..3_000 {
                    d.op(ops.next_u64());
                }
                d.finish();
            }
        }
    }

    mod differential_props {
        use super::{Differential, DIFFERENTIAL_SPECS};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The heap pick equals the arrival scan pick for pick —
            /// same batch, same virtual time, same lifecycle events and
            /// the same RNG draws — on arbitrary queue workloads.
            #[test]
            fn heap_pick_matches_the_scan(
                spec in 0usize..DIFFERENTIAL_SPECS.len(),
                seed in any::<u64>(),
                clear in any::<bool>(),
                ops in proptest::collection::vec(any::<u64>(), 1..400),
            ) {
                let mut d = Differential::new(DIFFERENTIAL_SPECS[spec], seed, clear);
                for word in ops {
                    d.op(word);
                }
                d.finish();
            }
        }
    }
}
