//! The simulated network: latency injection, traffic accounting, and
//! deterministic fault injection.
//!
//! Replaces the production cluster's RPC fabric. A "send" is a
//! synchronous delivery that optionally sleeps a sampled latency
//! first, then returns; callers that want concurrent fan-out use
//! scoped threads, exactly like an async RPC layer with a join at the
//! end. The Figure 5 harness reads [`NetworkStats`] to report how
//! much of a load request's life is spent "on the wire".
//!
//! ## Fault model
//!
//! A [`FaultPlan`] makes delivery fallible: per-link probabilities of
//! dropping, duplicating, or delaying (reordering) a message, plus
//! node crash windows expressed in message sequence numbers. All
//! randomness comes from one seeded generator, so a run is exactly
//! replayable from `(plan, schedule)` — the same seed produces the
//! same drops in the same places. The protocol layer asks
//! [`SimulatedNetwork::transmit_checked`] for each message's
//! [`Fate`] and is responsible for retries, idempotent re-delivery,
//! and late (delayed) application; the network only decides and
//! counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use obs::sync::unpoison;
use obs::{Counter, ReportBuilder};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Latency model for one simulated hop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Fixed one-way latency per message.
    pub base: Duration,
    /// Extra uniform jitter in `[0, jitter]`.
    pub jitter: Duration,
}

impl LatencyModel {
    /// Zero-latency model (pure protocol tests).
    pub fn instant() -> Self {
        LatencyModel {
            base: Duration::ZERO,
            jitter: Duration::ZERO,
        }
    }

    /// A datacenter-ish model: `base` one-way latency, 50% jitter.
    pub fn datacenter(base: Duration) -> Self {
        LatencyModel {
            base,
            jitter: base / 2,
        }
    }

    fn sample(&self, entropy: u64) -> Duration {
        if self.jitter.is_zero() {
            return self.base;
        }
        let jitter_nanos = self.jitter.as_nanos() as u64;
        // Cheap deterministic hash of the message counter: good
        // enough spread for latency jitter without threading an RNG
        // through every call site.
        let h = entropy
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        self.base + Duration::from_nanos(h % (jitter_nanos + 1))
    }
}

/// Per-link fault probabilities (each sampled independently, in the
/// order drop → delay → duplicate).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkFaults {
    /// Probability the message is silently lost.
    pub drop_p: f64,
    /// Probability the message is held back and delivered out of
    /// order (after up to [`FaultPlan::delay_horizon`] later sends).
    pub delay_p: f64,
    /// Probability the message is delivered twice.
    pub dup_p: f64,
}

impl LinkFaults {
    fn is_noop(&self) -> bool {
        self.drop_p == 0.0 && self.delay_p == 0.0 && self.dup_p == 0.0
    }
}

/// A node-unreachability window in message-sequence time: every
/// message to or from `node` while the global message counter is in
/// `[from_seq, until_seq)` is dropped. Sequence-based windows keep
/// crash/restart deterministic and replayable — no wall clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashed node (1-based).
    pub node: u64,
    /// First message sequence number of the outage (inclusive).
    pub from_seq: u64,
    /// First message sequence number after the outage (exclusive).
    pub until_seq: u64,
}

/// A seeded, deterministic fault-injection plan.
///
/// Built with the fluent methods and handed to
/// [`SimulatedNetwork::with_faults`]. Identical plans produce
/// identical fault sequences for identical message schedules, so any
/// chaos-test failure replays from its seed.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    default_link: LinkFaults,
    overrides: Vec<(u64, u64, LinkFaults)>,
    crashes: Vec<CrashWindow>,
    delay_horizon: u64,
}

impl FaultPlan {
    /// A plan with the given RNG seed and no faults (add them with
    /// the builder methods).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            default_link: LinkFaults::default(),
            overrides: Vec::new(),
            crashes: Vec::new(),
            delay_horizon: 8,
        }
    }

    /// The plan's seed (for replay instructions in failure output).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the default per-message drop probability.
    pub fn drop_p(mut self, p: f64) -> Self {
        self.default_link.drop_p = p;
        self
    }

    /// Sets the default per-message duplicate probability.
    pub fn dup_p(mut self, p: f64) -> Self {
        self.default_link.dup_p = p;
        self
    }

    /// Sets the default per-message delay/reorder probability.
    pub fn delay_p(mut self, p: f64) -> Self {
        self.default_link.delay_p = p;
        self
    }

    /// Sets how many later sends a delayed message may be reordered
    /// behind (default 8).
    pub fn delay_horizon(mut self, horizon: u64) -> Self {
        self.delay_horizon = horizon.max(1);
        self
    }

    /// Overrides the fault probabilities of the directed link
    /// `from -> to`.
    pub fn link(mut self, from: u64, to: u64, faults: LinkFaults) -> Self {
        self.overrides.push((from, to, faults));
        self
    }

    /// Adds a crash window: `node` is unreachable while the global
    /// message counter is in `[from_seq, until_seq)`.
    pub fn crash(mut self, node: u64, from_seq: u64, until_seq: u64) -> Self {
        self.crashes.push(CrashWindow {
            node,
            from_seq,
            until_seq,
        });
        self
    }

    fn link_faults(&self, from: u64, to: u64) -> LinkFaults {
        self.overrides
            .iter()
            .find(|(f, t, _)| *f == from && *t == to)
            .map(|(_, _, l)| *l)
            .unwrap_or(self.default_link)
    }

    fn crashed(&self, node: u64, seq: u64) -> bool {
        self.crashes
            .iter()
            .any(|w| w.node == node && (w.from_seq..w.until_seq).contains(&seq))
    }
}

/// What the network decided to do with one transmitted message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Delivered now, `copies` times (2+ under duplication faults).
    Deliver {
        /// Number of deliveries (1 normally).
        copies: u32,
    },
    /// Silently lost — the sender sees only a timeout.
    Drop,
    /// Held in flight: the caller must apply it once the global
    /// message counter reaches `due_seq` (delivering it *after*
    /// messages sent later — a reordering).
    Delay {
        /// Global message sequence number at which the message lands.
        due_seq: u64,
    },
}

/// Fault-injection event counters.
#[derive(Debug, Default)]
struct FaultCounters {
    drops: Counter,
    duplicates: Counter,
    delays: Counter,
    crash_drops: Counter,
}

/// Seeded fault decision state shared by all network clones.
#[derive(Debug)]
struct FaultInjector {
    plan: FaultPlan,
    rng: Mutex<StdRng>,
    counters: FaultCounters,
    /// Nodes manually downed at runtime (crash/restart chaos tests).
    manual_down: Mutex<std::collections::BTreeSet<u64>>,
}

impl FaultInjector {
    fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        FaultInjector {
            plan,
            rng: Mutex::new(rng),
            counters: FaultCounters::default(),
            manual_down: Mutex::new(std::collections::BTreeSet::new()),
        }
    }

    fn decide(&self, from: u64, to: u64, seq: u64) -> Fate {
        let down = {
            let manual = unpoison(self.manual_down.lock());
            manual.contains(&from) || manual.contains(&to)
        };
        if down || self.plan.crashed(from, seq) || self.plan.crashed(to, seq) {
            self.counters.crash_drops.inc();
            return Fate::Drop;
        }
        let link = self.plan.link_faults(from, to);
        if link.is_noop() {
            return Fate::Deliver { copies: 1 };
        }
        let mut rng = unpoison(self.rng.lock());
        if link.drop_p > 0.0 && rng.gen_bool(link.drop_p) {
            self.counters.drops.inc();
            return Fate::Drop;
        }
        if link.delay_p > 0.0 && rng.gen_bool(link.delay_p) {
            self.counters.delays.inc();
            let slack = rng.gen_range(1..=self.plan.delay_horizon);
            return Fate::Delay {
                due_seq: seq + slack,
            };
        }
        if link.dup_p > 0.0 && rng.gen_bool(link.dup_p) {
            self.counters.duplicates.inc();
            return Fate::Deliver { copies: 2 };
        }
        Fate::Deliver { copies: 1 }
    }
}

/// Cumulative traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages delivered.
    pub messages: u64,
    /// Payload bytes carried.
    pub bytes: u64,
    /// Nanoseconds of injected latency (sum over messages).
    pub injected_latency_nanos: u64,
}

/// Protocol message classes, for per-type traffic accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// Begin broadcast request (rides on the first fan-out).
    BeginRequest,
    /// Begin response carrying the remote node's `pendingTxs`.
    BeginResponse,
    /// Operation fan-out: forwarded records, deletes, shipped queries.
    Forward,
    /// Commit broadcast request.
    CommitRequest,
    /// Commit response (merges the remote clock back).
    CommitResponse,
    /// Rollback broadcast request.
    RollbackRequest,
    /// Rollback response.
    RollbackResponse,
    /// One chunk of brick state streamed during a rebalance handoff.
    HandoffChunk,
    /// Receiver's acknowledgement that a handoff installed completely.
    HandoffAck,
    /// Sent through the untyped [`SimulatedNetwork::transmit`] path.
    Other,
}

/// All kinds, in reporting order.
const MSG_KINDS: [(MsgKind, &str); 10] = [
    (MsgKind::BeginRequest, "begin_request"),
    (MsgKind::BeginResponse, "begin_response"),
    (MsgKind::Forward, "forward"),
    (MsgKind::CommitRequest, "commit_request"),
    (MsgKind::CommitResponse, "commit_response"),
    (MsgKind::RollbackRequest, "rollback_request"),
    (MsgKind::RollbackResponse, "rollback_response"),
    (MsgKind::HandoffChunk, "handoff_chunk"),
    (MsgKind::HandoffAck, "handoff_ack"),
    (MsgKind::Other, "other"),
];

/// Per-message-type counters plus the piggyback accounting the paper
/// cares about: how many bytes of `pendingTxs` sets and epoch clocks
/// hitch a ride on data messages (Section IV-C's "piggybacked on the
/// first operation").
#[derive(Debug, Default)]
struct TypedCounters {
    by_kind: [Counter; MSG_KINDS.len()],
    piggyback_pending_bytes: Counter,
    piggyback_clock_bytes: Counter,
}

/// The shared in-process "wire".
#[derive(Clone, Debug)]
pub struct SimulatedNetwork {
    latency: LatencyModel,
    messages: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
    injected: Arc<AtomicU64>,
    typed: Arc<TypedCounters>,
    faults: Option<Arc<FaultInjector>>,
}

impl SimulatedNetwork {
    /// A network with the given latency model.
    pub fn new(latency: LatencyModel) -> Self {
        SimulatedNetwork {
            latency,
            messages: Arc::new(AtomicU64::new(0)),
            bytes: Arc::new(AtomicU64::new(0)),
            injected: Arc::new(AtomicU64::new(0)),
            typed: Arc::new(TypedCounters::default()),
            faults: None,
        }
    }

    /// Zero-latency network.
    pub fn instant() -> Self {
        SimulatedNetwork::new(LatencyModel::instant())
    }

    /// A network whose [`SimulatedNetwork::transmit_checked`] path
    /// injects faults per `plan`.
    pub fn with_faults(latency: LatencyModel, plan: FaultPlan) -> Self {
        let mut net = SimulatedNetwork::new(latency);
        net.faults = Some(Arc::new(FaultInjector::new(plan)));
        net
    }

    /// Marks `node` unreachable: every message to or from it is
    /// dropped until [`SimulatedNetwork::restart_node`]. State is
    /// preserved (fail-stutter / partition model, not state loss).
    pub fn crash_node(&self, node: u64) {
        if let Some(f) = &self.faults {
            unpoison(f.manual_down.lock()).insert(node);
        }
    }

    /// Brings a crashed node back.
    pub fn restart_node(&self, node: u64) {
        if let Some(f) = &self.faults {
            unpoison(f.manual_down.lock()).remove(&node);
        }
    }

    /// The global message sequence counter (the clock that crash
    /// windows and delay due-times are expressed in).
    pub fn current_seq(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Whether `node` is currently unreachable — manually crashed or
    /// inside a planned crash window at the present sequence number.
    /// Routing uses this to skip dark replicas without spending a
    /// timeout on them.
    pub fn is_down(&self, node: u64) -> bool {
        match &self.faults {
            None => false,
            Some(f) => {
                unpoison(f.manual_down.lock()).contains(&node)
                    || f.plan.crashed(node, self.current_seq())
            }
        }
    }

    /// Accounts for and "transmits" a message of `payload_bytes`,
    /// sleeping the sampled latency. Returns the injected latency so
    /// callers can subtract it from measurements if needed.
    pub fn transmit(&self, payload_bytes: usize) -> Duration {
        self.transmit_typed(MsgKind::Other, payload_bytes, 0, 0)
    }

    /// [`SimulatedNetwork::transmit`] with per-type accounting:
    /// `pending_bytes` and `clock_bytes` are the portions of the
    /// payload that are piggybacked `pendingTxs` sets and epoch
    /// clocks rather than user data.
    pub fn transmit_typed(
        &self,
        kind: MsgKind,
        payload_bytes: usize,
        pending_bytes: usize,
        clock_bytes: usize,
    ) -> Duration {
        let idx = MSG_KINDS
            .iter()
            .position(|(k, _)| *k == kind)
            .expect("kind listed");
        self.typed.by_kind[idx].inc();
        self.typed.piggyback_pending_bytes.add(pending_bytes as u64);
        self.typed.piggyback_clock_bytes.add(clock_bytes as u64);
        let seq = self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(payload_bytes as u64, Ordering::Relaxed);
        let delay = self.latency.sample(seq);
        if !delay.is_zero() {
            self.injected
                .fetch_add(delay.as_nanos() as u64, Ordering::Relaxed);
            std::thread::sleep(delay);
        }
        delay
    }

    /// The fallible transmission path: accounts like
    /// [`SimulatedNetwork::transmit_typed`], then asks the fault
    /// injector (if any) what happened on the wire. With no fault
    /// plan this always returns `Deliver { copies: 1 }`, so
    /// fault-free callers behave byte-for-byte like the legacy path.
    ///
    /// `from`/`to` are 1-based node ids (0 = client/driver). The
    /// caller owns retries, duplicate suppression, and applying
    /// delayed messages once [`SimulatedNetwork::current_seq`]
    /// reaches the returned due sequence.
    pub fn transmit_checked(
        &self,
        kind: MsgKind,
        from: u64,
        to: u64,
        payload_bytes: usize,
        pending_bytes: usize,
        clock_bytes: usize,
    ) -> Fate {
        let idx = MSG_KINDS
            .iter()
            .position(|(k, _)| *k == kind)
            .expect("kind listed");
        self.typed.by_kind[idx].inc();
        self.typed.piggyback_pending_bytes.add(pending_bytes as u64);
        self.typed.piggyback_clock_bytes.add(clock_bytes as u64);
        let seq = self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(payload_bytes as u64, Ordering::Relaxed);
        let delay = self.latency.sample(seq);
        if !delay.is_zero() {
            self.injected
                .fetch_add(delay.as_nanos() as u64, Ordering::Relaxed);
            std::thread::sleep(delay);
        }
        match &self.faults {
            None => Fate::Deliver { copies: 1 },
            Some(f) => f.decide(from, to, seq),
        }
    }

    /// Messages delivered of one kind.
    pub fn messages_of(&self, kind: MsgKind) -> u64 {
        let idx = MSG_KINDS
            .iter()
            .position(|(k, _)| *k == kind)
            .expect("kind listed");
        self.typed.by_kind[idx].get()
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> NetworkStats {
        NetworkStats {
            messages: self.messages.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            injected_latency_nanos: self.injected.load(Ordering::Relaxed),
        }
    }

    /// Writes the `[cluster]` section of a metrics report: totals,
    /// the per-type message counts, and the piggyback byte counters.
    pub fn report(&self, report: &mut ReportBuilder) {
        let stats = self.stats();
        report
            .section("cluster")
            .metric("messages", stats.messages)
            .metric("bytes", stats.bytes)
            .metric("injected_latency_nanos", stats.injected_latency_nanos);
        for (idx, (_, name)) in MSG_KINDS.iter().enumerate() {
            report.counter(&format!("messages.{name}"), &self.typed.by_kind[idx]);
        }
        report
            .counter(
                "piggyback_pending_bytes",
                &self.typed.piggyback_pending_bytes,
            )
            .counter("piggyback_clock_bytes", &self.typed.piggyback_clock_bytes);
        if let Some(f) = &self.faults {
            report
                .section("cluster.faults")
                .metric("seed", f.plan.seed)
                .counter("dropped", &f.counters.drops)
                .counter("duplicated", &f.counters.duplicates)
                .counter("delayed", &f.counters.delays)
                .counter("crash_dropped", &f.counters.crash_drops);
        }
    }

    /// Fault events so far as `(drops, duplicates, delays,
    /// crash_drops)`; all zero without a fault plan.
    pub fn fault_stats(&self) -> (u64, u64, u64, u64) {
        match &self.faults {
            None => (0, 0, 0, 0),
            Some(f) => (
                f.counters.drops.get(),
                f.counters.duplicates.get(),
                f.counters.delays.get(),
                f.counters.crash_drops.get(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_network_does_not_sleep() {
        let net = SimulatedNetwork::instant();
        let start = std::time::Instant::now();
        for _ in 0..100 {
            net.transmit(64);
        }
        assert!(start.elapsed() < Duration::from_millis(50));
        let s = net.stats();
        assert_eq!(s.messages, 100);
        assert_eq!(s.bytes, 6400);
        assert_eq!(s.injected_latency_nanos, 0);
    }

    #[test]
    fn latency_is_injected_and_accounted() {
        let net = SimulatedNetwork::new(LatencyModel {
            base: Duration::from_millis(2),
            jitter: Duration::ZERO,
        });
        let start = std::time::Instant::now();
        let d = net.transmit(10);
        assert_eq!(d, Duration::from_millis(2));
        assert!(start.elapsed() >= Duration::from_millis(2));
        assert_eq!(net.stats().injected_latency_nanos, 2_000_000);
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let model = LatencyModel::datacenter(Duration::from_micros(100));
        for seq in 0..1000 {
            let d = model.sample(seq);
            assert!(d >= Duration::from_micros(100));
            assert!(d <= Duration::from_micros(150));
        }
    }

    #[test]
    fn clones_share_counters() {
        let net = SimulatedNetwork::instant();
        let net2 = net.clone();
        net.transmit(5);
        net2.transmit(7);
        assert_eq!(net.stats().messages, 2);
        assert_eq!(net.stats().bytes, 12);
    }

    #[test]
    fn faultless_checked_path_always_delivers_once() {
        let net = SimulatedNetwork::instant();
        for _ in 0..50 {
            let fate = net.transmit_checked(MsgKind::Forward, 1, 2, 16, 0, 8);
            assert_eq!(fate, Fate::Deliver { copies: 1 });
        }
        assert_eq!(net.stats().messages, 50);
        assert_eq!(net.messages_of(MsgKind::Forward), 50);
        assert_eq!(net.fault_stats(), (0, 0, 0, 0));
    }

    #[test]
    fn fault_sequence_is_deterministic_from_seed() {
        let run = |seed: u64| -> Vec<Fate> {
            let plan = FaultPlan::seeded(seed).drop_p(0.2).dup_p(0.2).delay_p(0.2);
            let net = SimulatedNetwork::with_faults(LatencyModel::instant(), plan);
            (0..200)
                .map(|_| net.transmit_checked(MsgKind::Forward, 1, 2, 8, 0, 0))
                .collect()
        };
        assert_eq!(run(42), run(42), "same seed, same fates");
        assert_ne!(run(42), run(43), "different seed, different fates");
        let fates = run(42);
        assert!(fates.contains(&Fate::Drop));
        assert!(fates.iter().any(|f| matches!(f, Fate::Delay { .. })));
        assert!(fates
            .iter()
            .any(|f| matches!(f, Fate::Deliver { copies: 2 })));
    }

    #[test]
    fn delay_due_seq_respects_horizon() {
        let plan = FaultPlan::seeded(7).delay_p(1.0).delay_horizon(4);
        let net = SimulatedNetwork::with_faults(LatencyModel::instant(), plan);
        for _ in 0..100 {
            let seq = net.current_seq();
            match net.transmit_checked(MsgKind::Forward, 1, 2, 8, 0, 0) {
                Fate::Delay { due_seq } => {
                    assert!(due_seq > seq && due_seq <= seq + 4);
                }
                other => panic!("expected delay, got {other:?}"),
            }
        }
        assert_eq!(net.fault_stats().2, 100);
    }

    #[test]
    fn crash_windows_drop_both_directions() {
        let plan = FaultPlan::seeded(1).crash(2, 5, 10);
        let net = SimulatedNetwork::with_faults(LatencyModel::instant(), plan);
        let mut dropped = 0;
        for _ in 0..20 {
            let seq = net.current_seq();
            let to_crashed = net.transmit_checked(MsgKind::Forward, 1, 2, 8, 0, 0);
            let in_window = (5..10).contains(&seq);
            assert_eq!(to_crashed == Fate::Drop, in_window, "seq {seq}");
            if in_window {
                dropped += 1;
            }
        }
        // Messages *from* the crashed node are dropped too.
        let plan = FaultPlan::seeded(1).crash(2, 0, 1);
        let net = SimulatedNetwork::with_faults(LatencyModel::instant(), plan);
        assert_eq!(
            net.transmit_checked(MsgKind::Forward, 2, 1, 8, 0, 0),
            Fate::Drop
        );
        assert_eq!(dropped, 5);
    }

    #[test]
    fn manual_crash_and_restart() {
        let plan = FaultPlan::seeded(3);
        let net = SimulatedNetwork::with_faults(LatencyModel::instant(), plan);
        assert_eq!(
            net.transmit_checked(MsgKind::Forward, 1, 2, 8, 0, 0),
            Fate::Deliver { copies: 1 }
        );
        net.crash_node(2);
        assert_eq!(
            net.transmit_checked(MsgKind::Forward, 1, 2, 8, 0, 0),
            Fate::Drop
        );
        assert_eq!(
            net.transmit_checked(MsgKind::Forward, 2, 3, 8, 0, 0),
            Fate::Drop
        );
        net.restart_node(2);
        assert_eq!(
            net.transmit_checked(MsgKind::Forward, 1, 2, 8, 0, 0),
            Fate::Deliver { copies: 1 }
        );
        assert_eq!(net.fault_stats().3, 2);
    }

    #[test]
    fn per_link_overrides_take_precedence() {
        let plan = FaultPlan::seeded(9).link(
            1,
            2,
            LinkFaults {
                drop_p: 1.0,
                ..LinkFaults::default()
            },
        );
        let net = SimulatedNetwork::with_faults(LatencyModel::instant(), plan);
        assert_eq!(
            net.transmit_checked(MsgKind::Forward, 1, 2, 8, 0, 0),
            Fate::Drop
        );
        // Reverse direction and other links are untouched.
        assert_eq!(
            net.transmit_checked(MsgKind::Forward, 2, 1, 8, 0, 0),
            Fate::Deliver { copies: 1 }
        );
        assert_eq!(
            net.transmit_checked(MsgKind::Forward, 1, 3, 8, 0, 0),
            Fate::Deliver { copies: 1 }
        );
    }

    #[test]
    fn fault_report_section_present_only_with_plan() {
        let net = SimulatedNetwork::instant();
        let mut r = ReportBuilder::new();
        net.report(&mut r);
        assert!(!r.finish().contains("cluster.faults"));

        let net = SimulatedNetwork::with_faults(
            LatencyModel::instant(),
            FaultPlan::seeded(5).drop_p(1.0),
        );
        net.transmit_checked(MsgKind::Forward, 1, 2, 8, 0, 0);
        let mut r = ReportBuilder::new();
        net.report(&mut r);
        let text = r.finish();
        assert!(text.contains("cluster.faults"));
        assert!(text.contains("dropped"));
        assert!(text.contains("seed"));
    }
}
