//! The execution stack behind [`Simulator`](crate::Simulator): one
//! generic kernel, three time drivers.
//!
//! Exactly one loop — the crate-private `run_kernel` — owns the
//! per-active-round body: collect the awake set, run the send half-step
//! into the outbox, route/fault/deliver, record stats/trace/metrics, and
//! invoke the observer. *Which round comes next* is delegated to a
//! `TimeDriver`, selected by [`SimConfig::executor`]:
//!
//! * [`Executor::Calendar`] (the default) — keeps the scheduled wakes in
//!   a `WakeQueue` (one intrusive node list per pending round, the
//!   distinct rounds ordered by a small heap) and jumps time directly
//!   between populated rounds, so a run costs `O(W + R log P + M)` for
//!   `W` node-awake events (plus the sort of each round's awake set), `R`
//!   populated rounds, `P` pending rounds and `M` messages, independent
//!   of how many silent rounds the schedule spans. This is the property
//!   the sleeping model exists to exploit: nodes are awake only
//!   `O(log n)` of the `O(n log n)` rounds, and the calendar never visits
//!   the empty ones.
//! * [`Executor::Sync`] — round-synchronous: the clock walks through
//!   every round one at a time, paying a per-round tick even when every
//!   node sleeps. Outcomes are bit-identical to the calendar driver; it
//!   exists to measure what sparse schedules cost a traditional
//!   round-driven simulator (`BENCH_engine.json` pins the gap).
//! * [`Executor::Naive`] — the differential-testing oracle: a per-round
//!   `O(n)` scan of every node's next wake, as close to a transliteration
//!   of the round semantics as possible. Never use it for real
//!   workloads; its entire value is being too simple to be wrong in the
//!   same way as the calendar.
//!
//! All three drivers produce bit-identical outcomes — final states,
//! [`RunStats`], [`Trace`], and metrics — for every protocol, fault
//! plan, and metrics setting; `tests/differential.rs` pins this with
//! cross-driver proptests.
//!
//! Message routing uses the back ports precomputed by
//! [`graphlib::GraphBuilder::build`] — the hot loop never scans an
//! adjacency list — and all per-round state (outbox, the flat inbox
//! arena, its grouping scratch) lives in an [`ExecutorScratch`] that is
//! reused across rounds *and across runs*, so the steady-state hot path
//! performs no allocations.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use graphlib::{NodeId, Port, WeightedGraph};

use crate::metrics::MetricsRecorder;
use crate::{
    EnergyModel, Envelope, FaultPlan, NextWake, NodeCtx, Outbox, Payload, PortWeights, Protocol,
    Round, RunOutcome, RunStats, SimConfig, SimError, Trace, TraceEvent, WakePolicy,
};

/// Which time driver executes a run.
///
/// All three produce bit-identical outcomes (final states, stats, trace,
/// metrics) for every protocol, fault plan, and metrics setting — the
/// cross-driver proptests in `tests/differential.rs` pin this. They
/// differ only in how the clock advances between populated rounds, i.e.
/// in wall-clock cost (see `BENCH_engine.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Executor {
    /// Round-synchronous: the clock visits every round from 1 upward,
    /// paying a per-round tick even when every node sleeps. The cost
    /// model of a traditional round-driven simulator.
    Sync,
    /// Event-driven calendar (the default): one list of waking nodes per
    /// pending round, with the distinct rounds in a min-heap; time jumps
    /// directly between populated rounds.
    #[default]
    Calendar,
    /// Per-round `O(n)` scan of every node's next wake — the
    /// differential-testing oracle. Never use it for real workloads.
    Naive,
}

impl Executor {
    /// Every executor, in presentation order.
    pub const ALL: [Executor; 3] = [Executor::Sync, Executor::Calendar, Executor::Naive];

    /// Parses a stable executor name (`sync`, `calendar`, `naive`), as
    /// accepted by the CLI's `--executor` flag.
    pub fn parse(s: &str) -> Option<Executor> {
        match s {
            "sync" => Some(Executor::Sync),
            "calendar" => Some(Executor::Calendar),
            "naive" => Some(Executor::Naive),
            _ => None,
        }
    }

    /// The stable name [`Executor::parse`] accepts, also used in reports
    /// and JSON artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            Executor::Sync => "sync",
            Executor::Calendar => "calendar",
            Executor::Naive => "naive",
        }
    }
}

impl std::fmt::Display for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The active fault plan of a config, if it can affect the run at all.
/// Inert plans (every intensity zero, no crashes) are filtered out here,
/// so every driver takes the exact no-fault path for them — fault
/// support costs nothing unless a fault can actually fire.
fn active_faults(config: &SimConfig) -> Option<&FaultPlan> {
    config.faults.as_ref().filter(|plan| !plan.is_inert())
}

/// The active energy model of a config, if it can affect the run at all.
/// Mirrors [`active_faults`]: an inert model (every cost zero) is
/// filtered out, so the kernel takes the exact no-energy path for it and
/// a zero-cost run is bit-identical to a run with no model
/// (`tests/energy_conservation.rs` pins this).
fn active_energy(config: &SimConfig) -> Option<&EnergyModel> {
    config.energy.as_ref().filter(|model| !model.is_inert())
}

/// The active wake policy of a config, if it can move any wake. Identity
/// policies ([`WakePolicy::is_identity`]) take the exact no-policy path.
fn active_policy(config: &SimConfig) -> Option<WakePolicy> {
    Some(config.wake_policy).filter(|policy| !policy.is_identity())
}

/// Builds the initial knowledge handed to `node` (KT0 plus run
/// parameters). Every driver derives identical contexts — notably the
/// per-node RNG seed — which is what lets differential runs agree.
/// `max_external_id` and the shared `weights` array are passed in rather
/// than recomputed: `max_external_id()` is an `O(n)` scan of the id
/// table, and calling it per node made setup `O(n²)`; likewise each
/// node's `port_weights` used to be a fresh `Vec` (n allocations, one
/// per context) and is now a [`PortWeights`] window into one run-wide
/// copy of the graph's flat CSR weights. Both were dominant on the
/// sparse-wake panel, where setup buried the driver cost the panel
/// exists to measure.
fn node_ctx(
    graph: &WeightedGraph,
    config: &SimConfig,
    node: NodeId,
    max_external_id: u64,
    weights: &Arc<[u64]>,
) -> NodeCtx {
    NodeCtx {
        node,
        external_id: graph.external_id(node),
        n: graph.node_count(),
        max_external_id,
        port_weights: PortWeights::slice(
            Arc::clone(weights),
            graph.port_base(node),
            graph.degree(node) as u32,
        ),
        rng_seed: config
            .master_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(node.raw()).wrapping_mul(0xff51_afd7_ed55_8ccd)),
    }
}

/// Per-node construction + `init` call, shared by every driver.
/// Returns the contexts, protocol values, and each node's first wake
/// (`None` = halted in `init`).
#[allow(clippy::type_complexity)]
fn init_nodes<P, F>(
    graph: &WeightedGraph,
    config: &SimConfig,
    mut factory: F,
    trace: &mut Trace,
) -> Result<(Vec<NodeCtx>, Vec<P>, Vec<Option<Round>>), SimError>
where
    P: Protocol,
    F: FnMut(&NodeCtx) -> P,
{
    let n = graph.node_count();
    let max_external_id = graph.max_external_id();
    let weights: Arc<[u64]> = graph.flat_port_weights().into();
    let mut ctxs = Vec::with_capacity(n);
    let mut protocols = Vec::with_capacity(n);
    let mut first_wake = Vec::with_capacity(n);
    for node in graph.nodes() {
        let ctx = node_ctx(graph, config, node, max_external_id, &weights);
        let mut protocol = factory(&ctx);
        match protocol.init(&ctx) {
            NextWake::At(r) => {
                if r == 0 {
                    return Err(SimError::WakeNotInFuture {
                        node,
                        round: 0,
                        requested: 0,
                    });
                }
                first_wake.push(Some(r));
            }
            NextWake::Halt => {
                if config.record_trace {
                    trace.push(TraceEvent::Halted { round: 0, node });
                }
                first_wake.push(None);
            }
        }
        ctxs.push(ctx);
        protocols.push(protocol);
    }
    Ok((ctxs, protocols, first_wake))
}

/// Validates one outgoing envelope, accounts its per-edge bits, and routes
/// it to `(receiver, receiver port, bits, edge index)` via the precomputed
/// back port — no adjacency scan, and `bit_size` is computed exactly once
/// per message (the result is threaded through delivery accounting, the
/// trace, and the metrics recorder's congestion scratch).
#[inline]
fn route_envelope<M: Payload>(
    graph: &WeightedGraph,
    config: &SimConfig,
    stats: &mut RunStats,
    node: NodeId,
    round: Round,
    port: Port,
    msg: &M,
) -> Result<(u32, u32, usize, usize), SimError> {
    if port.index() >= graph.degree(node) {
        return Err(SimError::PortOutOfRange { node, port, round });
    }
    let bits = msg.bit_size();
    if let Some(limit) = config.bit_limit {
        if bits > limit {
            return Err(SimError::MessageTooLarge {
                node,
                round,
                bits,
                limit,
            });
        }
    }
    let entry = graph.port_entry(node, port);
    stats.bits_by_edge[entry.edge.index()] += bits as u64;
    stats.max_message_bits = stats.max_message_bits.max(bits as u64);
    Ok((
        entry.neighbor.raw(),
        entry.back_port.raw(),
        bits,
        entry.edge.index(),
    ))
}

/// List terminator of the [`WakeQueue`]'s intrusive node lists.
const NIL: u32 = u32::MAX;

/// A small open-addressed map from a pending round to the head of its
/// node list: linear probing over a power-of-two slot array, with
/// backward-shift deletion so no tombstones accumulate. Round 0 marks an
/// empty slot — scheduled rounds start at 1 (the kernel rejects a wake in
/// round 0 as [`SimError::WakeNotInFuture`]).
#[derive(Debug)]
struct RoundTable {
    /// `(round, list head)`; `round == 0` = empty slot.
    slots: Vec<(Round, u32)>,
    /// Occupied slots.
    len: usize,
    /// `64 - log2(slots.len())`: the Fibonacci hash keeps the top bits.
    shift: u32,
}

impl RoundTable {
    const MIN_SLOTS: usize = 16;

    fn new() -> Self {
        RoundTable {
            slots: vec![(0, NIL); Self::MIN_SLOTS],
            len: 0,
            shift: 64 - Self::MIN_SLOTS.trailing_zeros(),
        }
    }

    /// Empties the table, keeping its capacity. A run that completed
    /// popped every round, so the common case skips the fill.
    fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill((0, NIL));
            self.len = 0;
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The slot `round` probes first.
    #[inline]
    fn home(&self, round: Round) -> usize {
        (round.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The slot holding `round` (`true`), or else the empty slot that
    /// ends its probe run (`false`).
    #[inline]
    fn probe(&self, round: Round) -> (usize, bool) {
        let mask = self.mask();
        let mut i = self.home(round);
        loop {
            match self.slots[i].0 {
                0 => return (i, false),
                r if r == round => return (i, true),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The slot holding `round`, if present.
    #[inline]
    fn find(&self, round: Round) -> Option<usize> {
        let (i, found) = self.probe(round);
        found.then_some(i)
    }

    /// The list head of `round`, if the round is present.
    #[inline]
    fn head_mut(&mut self, round: Round) -> Option<&mut u32> {
        let i = self.find(round)?;
        Some(&mut self.slots[i].1)
    }

    /// The list head of `round`, inserting an empty list if absent. The
    /// flag is `true` when the round was newly inserted.
    fn head_or_insert(&mut self, round: Round) -> (&mut u32, bool) {
        // Keep the load factor at or below 1/2 so probe runs stay short.
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let (i, found) = self.probe(round);
        if !found {
            self.slots[i] = (round, NIL);
            self.len += 1;
        }
        (&mut self.slots[i].1, !found)
    }

    /// Doubles the slot array and re-inserts every entry.
    fn grow(&mut self) {
        let doubled = vec![(0, NIL); 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for (round, head) in old.into_iter().filter(|&(round, _)| round != 0) {
            let (i, _) = self.probe(round);
            self.slots[i] = (round, head);
        }
    }

    /// Removes `round` and returns its list head, if it was present.
    /// Backward-shift deletion: every later entry of the probe run whose
    /// home slot does not lie strictly between the hole and itself moves
    /// back into the hole, so lookups never need tombstones.
    fn remove(&mut self, round: Round) -> Option<u32> {
        let mut hole = self.find(round)?;
        let head = self.slots[hole].1;
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let (r, _) = self.slots[j];
            if r == 0 {
                break;
            }
            // `r` probed from its home to `j`; it may fill the hole iff
            // the hole lies on that probe path.
            let home = self.home(r);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = (0, NIL);
        self.len -= 1;
        Some(head)
    }
}

/// A node's place in the [`WakeQueue`]'s lists.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The round whose list holds the node; 0 = in no list (never
    /// scheduled, halted, or already popped).
    round: Round,
    /// Neighbours in that list, valid only while `round != 0`.
    next: u32,
    prev: u32,
}

impl Link {
    const UNLINKED: Link = Link {
        round: 0,
        next: NIL,
        prev: NIL,
    };
}

/// The scheduled-wake calendar: one intrusive node list per pending
/// round.
///
/// Every node sits in at most one pending round's list, linked through
/// per-node `next`/`prev` links, so [`schedule`](WakeQueue::schedule)
/// and [`halt`](WakeQueue::halt) unlink a superseded wake in `O(1)` and no
/// stale entry is ever stored. A [`RoundTable`] finds a round's list head,
/// and a min-heap orders the *distinct* pending rounds — the paper's
/// algorithms wake nodes in lockstep blocks, so many wakes share a round
/// and the heap stays far smaller than the number of pending wakes.
/// Memory is `O(n + pending rounds)`.
///
/// A round whose every node was unlinked (rescheduled or halted) still
/// surfaces from [`pop_round`](WakeQueue::pop_round) — with an empty live
/// set — so the kernel can keep adjudicating faults for it; the kernel
/// does **not** count such rounds toward `RunStats::rounds`. The run's
/// final round is the last one in which some node actually executed,
/// which is also what the metrics stream records (`stats.rounds ==
/// metrics.last_round()` whenever metrics are on — every driver agrees).
///
/// Rounds are at least 1, and a node is never scheduled into a round
/// that has already been popped (the [`TimeDriver`] contract: rounds
/// come back strictly increasing).
#[derive(Debug)]
pub(crate) struct WakeQueue {
    /// Distinct pending rounds (live or emptied), earliest on top.
    rounds: BinaryHeap<Reverse<Round>>,
    /// Pending round → head of its node list; same key set as `rounds`.
    table: RoundTable,
    /// Per-node list membership, one cache line per few nodes.
    links: Vec<Link>,
    /// `popped_stamp[v] == r` marks v returned live for round r (stamps
    /// start at 1, so 0 never matches a real round).
    popped_stamp: Vec<Round>,
}

impl WakeQueue {
    pub(crate) fn new(n: usize) -> Self {
        WakeQueue {
            rounds: BinaryHeap::new(),
            table: RoundTable::new(),
            links: vec![Link::UNLINKED; n],
            popped_stamp: vec![0; n],
        }
    }

    /// Re-initializes a recycled queue for a fresh `n`-node run, keeping
    /// the allocations. Clearing `popped_stamp` is load-bearing: rounds
    /// restart from 1 every run, so a stale stamp from a previous run
    /// could silently swallow a wake (the reused-scratch differential
    /// proptests pin this).
    pub(crate) fn reset(&mut self, n: usize) {
        self.rounds.clear();
        self.table.clear();
        self.links.clear();
        self.links.resize(n, Link::UNLINKED);
        self.popped_stamp.clear();
        self.popped_stamp.resize(n, 0);
    }

    /// Removes `node` from its pending round's list, if it is in one.
    /// The round itself stays pending, possibly with an empty list.
    #[inline]
    fn unlink(&mut self, node: u32) {
        let Link { round, next, prev } = self.links[node as usize];
        if round == 0 {
            return;
        }
        self.links[node as usize].round = 0;
        if next != NIL {
            self.links[next as usize].prev = prev;
        }
        if prev != NIL {
            self.links[prev as usize].next = next;
        } else if let Some(head) = self.table.head_mut(round) {
            *head = next;
        }
    }

    /// Schedules (or re-schedules) `node` to wake in `round`.
    pub(crate) fn schedule(&mut self, node: u32, round: Round) {
        self.unlink(node);
        let (head, inserted) = self.table.head_or_insert(round);
        let old_head = std::mem::replace(head, node);
        if inserted {
            self.rounds.push(Reverse(round));
        }
        self.links[node as usize] = Link {
            round,
            next: old_head,
            prev: NIL,
        };
        if old_head != NIL {
            self.links[old_head as usize].prev = node;
        }
    }

    /// Marks `node` as halted: it leaves its pending round's list.
    pub(crate) fn halt(&mut self, node: u32) {
        self.unlink(node);
    }

    /// Withdraws `node` from the round it was just popped live for: the
    /// popped stamp is cleared, so [`WakeQueue::is_awake_in`] reports the
    /// node asleep again. The fault path uses this for spurious sleeps
    /// and crashes — the node must look asleep to the round's routing so
    /// messages to it are lost per the model.
    pub(crate) fn retract(&mut self, node: u32) {
        self.popped_stamp[node as usize] = 0;
    }

    /// The earliest pending round, if any (even one whose list emptied).
    pub(crate) fn peek_round(&self) -> Option<Round> {
        self.rounds.peek().map(|&Reverse(r)| r)
    }

    /// Whether `node` was returned live by the pop for `round` (i.e. the
    /// node is awake in the round currently being executed).
    #[inline]
    pub(crate) fn is_awake_in(&self, node: u32, round: Round) -> bool {
        self.popped_stamp[node as usize] == round
    }

    /// Pops the earliest pending round. Returns that round and fills
    /// `live` with the nodes of its list, **ascending**; a round whose
    /// list emptied still returns, with an empty live set.
    pub(crate) fn pop_round(&mut self, live: &mut Vec<u32>) -> Option<Round> {
        live.clear();
        let Reverse(round) = self.rounds.pop()?;
        let mut v = self.table.remove(round).unwrap_or(NIL);
        while v != NIL {
            let link = &mut self.links[v as usize];
            link.round = 0;
            self.popped_stamp[v as usize] = round;
            live.push(v);
            v = link.next;
        }
        // Most rounds of the paper's token-passing phases wake a single
        // node; skip the sort machinery entirely for those.
        if live.len() > 1 {
            live.sort_unstable();
        }
        Some(round)
    }
}

/// Reusable executor state: the wake queue, the per-round delivery
/// buffers (outbox, flat inbox arena, grouping scratch), and a pool of
/// recycled [`RunStats`].
///
/// [`Simulator::run_with_scratch`](crate::Simulator::run_with_scratch)
/// threads one value through many runs — a sweep's worker thread creates
/// one scratch and reuses it for its whole trial stream, so executor
/// allocations are O(workers) instead of O(runs). Every run fully
/// re-initializes the scratch before use; nothing observable leaks
/// between runs (the reused-scratch differential proptests pin this).
#[derive(Debug)]
pub struct ExecutorScratch<M> {
    queue: WakeQueue,
    awake_now: Vec<u32>,
    /// `slot_of[v]` = v's index in `awake_now`, valid only while
    /// the driver reports v awake for the current round.
    slot_of: Vec<u32>,
    /// Flat inbox arena: every delivered envelope of the round, grouped by
    /// receiver slot and sorted by receiver port within each group.
    arena: Vec<Envelope<M>>,
    /// `slots[i]` = receiver slot of `arena[i]` while the round's arena is
    /// still in send order (before grouping).
    slots: Vec<u32>,
    /// Scratch permutation for the in-place counting-sort grouping.
    perm: Vec<u32>,
    /// `(start, len)` of each awake node's slice of `arena`, by slot.
    inbox_ranges: Vec<(u32, u32)>,
    outbox: Outbox<M>,
    stats_pool: Vec<RunStats>,
}

impl<M> Default for ExecutorScratch<M> {
    fn default() -> Self {
        ExecutorScratch::new()
    }
}

impl<M> ExecutorScratch<M> {
    /// An empty scratch; buffers grow to their high-water marks during the
    /// first run and are reused afterwards.
    #[must_use]
    pub fn new() -> Self {
        ExecutorScratch {
            queue: WakeQueue::new(0),
            awake_now: Vec::new(),
            slot_of: Vec::new(),
            arena: Vec::new(),
            slots: Vec::new(),
            perm: Vec::new(),
            inbox_ranges: Vec::new(),
            outbox: Outbox::new(),
            stats_pool: Vec::new(),
        }
    }

    /// Returns a no-longer-needed [`RunStats`] to the pool so the next run
    /// from this scratch reuses its vectors instead of allocating.
    pub fn recycle(&mut self, stats: RunStats) {
        self.stats_pool.push(stats);
    }

    /// Re-initializes every buffer for a fresh `n`-node run.
    fn reset(&mut self, n: usize) {
        self.queue.reset(n);
        self.awake_now.clear();
        self.slot_of.clear();
        self.slot_of.resize(n, 0);
        self.arena.clear();
        self.slots.clear();
        self.perm.clear();
        self.inbox_ranges.clear();
        self.outbox.clear();
    }

    /// A zeroed [`RunStats`] for an `n`-node, `m`-edge run — recycled
    /// storage if the pool has any, freshly allocated otherwise.
    fn take_stats(&mut self, n: usize, m: usize) -> RunStats {
        match self.stats_pool.pop() {
            Some(mut stats) => {
                stats.reset(n, m);
                stats
            }
            None => RunStats::new(n, m),
        }
    }
}

/// Buffers a `Delivered` trace event. Deliberately out-of-line: the
/// `Debug` formatting machinery must stay off the untraced hot path.
/// Delivery events buffer into `buf` (flushed after the round's send
/// half-step) so the recorded order — every `Awake` of the round, then
/// `Delivered`/`Lost` in send order — is identical under every driver.
#[cold]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn record_delivered<M: Payload>(
    buf: &mut Vec<TraceEvent>,
    round: Round,
    from: u32,
    to: u32,
    recv_port: u32,
    bits: usize,
    msg: &M,
) {
    buf.push(TraceEvent::Delivered {
        round,
        from: NodeId::new(from),
        to: NodeId::new(to),
        port: Port::new(recv_port),
        bits,
        payload: format!("{msg:?}"),
    });
}

/// Buffers a `Lost` trace event (out-of-line, like [`record_delivered`]).
#[cold]
#[inline(never)]
fn record_lost(buf: &mut Vec<TraceEvent>, round: Round, from: u32, to: u32) {
    buf.push(TraceEvent::Lost {
        round,
        from: NodeId::new(from),
        to: NodeId::new(to),
    });
}

/// Buffers a `Dropped` trace event (out-of-line, like [`record_lost`]).
#[cold]
#[inline(never)]
fn record_dropped(buf: &mut Vec<TraceEvent>, round: Round, from: u32, to: u32) {
    buf.push(TraceEvent::Dropped {
        round,
        from: NodeId::new(from),
        to: NodeId::new(to),
    });
}

/// How the kernel advances simulated time. One implementation per
/// [`Executor`]; the kernel is generic over this trait and owns
/// everything else (sends, routing, faults, delivery, accounting).
///
/// Contract: rounds returned by `next_round` are strictly increasing;
/// `is_awake_in(v, r)` holds exactly for the nodes returned live for the
/// currently executing round `r` and is falsified by `retract`/`halt`
/// (crash) or `retract`+`schedule` (suppression) during fault
/// adjudication.
trait TimeDriver {
    /// Schedules (or re-schedules) `node` to wake in `round`.
    fn schedule(&mut self, node: u32, round: Round);
    /// Marks `node` as halted; it will never be returned live again.
    fn halt(&mut self, node: u32);
    /// Withdraws `node` from the round it was just returned live for,
    /// so `is_awake_in` reports it asleep to the round's routing.
    fn retract(&mut self, node: u32);
    /// Advances to the next round with scheduled activity, filling
    /// `live` with the nodes waking in it (ascending). `None` = no
    /// pending wakes remain. May return a round past the budget (with
    /// any live set); the kernel turns that into `MaxRoundsExceeded`.
    fn next_round(&mut self, live: &mut Vec<u32>) -> Option<Round>;
    /// Whether `node` is awake in the currently executing `round`.
    fn is_awake_in(&self, node: u32, round: Round) -> bool;
}

/// [`Executor::Calendar`]: the event-driven driver. A thin shim over the
/// [`WakeQueue`] — `next_round` pops the earliest pending round's list,
/// so the clock jumps over silent rounds in `O(log P)` for `P` pending
/// rounds.
struct CalendarDriver<'a> {
    queue: &'a mut WakeQueue,
}

impl TimeDriver for CalendarDriver<'_> {
    fn schedule(&mut self, node: u32, round: Round) {
        self.queue.schedule(node, round);
    }

    fn halt(&mut self, node: u32) {
        self.queue.halt(node);
    }

    fn retract(&mut self, node: u32) {
        self.queue.retract(node);
    }

    fn next_round(&mut self, live: &mut Vec<u32>) -> Option<Round> {
        self.queue.pop_round(live)
    }

    fn is_awake_in(&self, node: u32, round: Round) -> bool {
        self.queue.is_awake_in(node, round)
    }
}

/// [`Executor::Sync`]: the round-synchronous driver. Same calendar state
/// as [`CalendarDriver`], but the clock walks from the current round to
/// the next wake one round at a time, paying a per-round tick for every
/// silent round — the cost model of a traditional round-driven
/// simulator, kept honest by `std::hint::black_box`.
struct SyncDriver<'a> {
    queue: &'a mut WakeQueue,
    /// The last round the clock has passed through.
    cursor: Round,
    /// The run's round budget; the walk never goes further than one
    /// round past it (the kernel reports `MaxRoundsExceeded` there).
    limit: Round,
}

impl<'a> SyncDriver<'a> {
    fn new(queue: &'a mut WakeQueue, limit: Round) -> Self {
        SyncDriver {
            queue,
            cursor: 0,
            limit,
        }
    }
}

impl TimeDriver for SyncDriver<'_> {
    fn schedule(&mut self, node: u32, round: Round) {
        self.queue.schedule(node, round);
    }

    fn halt(&mut self, node: u32) {
        self.queue.halt(node);
    }

    fn retract(&mut self, node: u32) {
        self.queue.retract(node);
    }

    fn next_round(&mut self, live: &mut Vec<u32>) -> Option<Round> {
        let target = self.queue.peek_round()?;
        // Walk the clock one round at a time up to the next wake — but
        // never past the round budget, so a single distant wake cannot
        // turn the budget check into an unbounded spin. Every silent
        // round pays the question a round-synchronous scheduler cannot
        // skip ("does anyone wake now?"); `black_box` keeps the
        // optimizer from collapsing the walk back into a calendar jump.
        let stop = target.min(self.limit.saturating_add(1));
        while self.cursor < stop {
            self.cursor += 1;
            let due = self.queue.peek_round() == Some(self.cursor);
            std::hint::black_box(due);
        }
        self.queue.pop_round(live)
    }

    fn is_awake_in(&self, node: u32, round: Round) -> bool {
        self.queue.is_awake_in(node, round)
    }
}

/// [`Executor::Naive`]: the oracle driver. No lists, no stamps — just a
/// per-node next-wake table scanned in full (`O(n)`) for every simulated
/// round. Too simple to share a bug with the calendar machinery, which
/// is its entire job.
struct NaiveDriver {
    /// `Some(r)` = node wakes in round `r`; `None` = halted.
    next_wake: Vec<Option<Round>>,
    /// The last round returned (rounds are scanned strictly upward).
    cursor: Round,
    /// The run's round budget; scanning stops one round past it.
    limit: Round,
}

impl NaiveDriver {
    fn new(n: usize, limit: Round) -> Self {
        NaiveDriver {
            next_wake: vec![None; n],
            cursor: 0,
            limit,
        }
    }
}

impl TimeDriver for NaiveDriver {
    fn schedule(&mut self, node: u32, round: Round) {
        self.next_wake[node as usize] = Some(round);
    }

    fn halt(&mut self, node: u32) {
        self.next_wake[node as usize] = None;
    }

    fn retract(&mut self, _node: u32) {
        // Nothing to withdraw: a crash (`halt` → `None`) or a
        // suppression (`schedule` for `round + 1`) already falsifies
        // `is_awake_in` for the current round — there is no popped
        // stamp in this driver.
    }

    fn next_round(&mut self, live: &mut Vec<u32>) -> Option<Round> {
        loop {
            if self.next_wake.iter().all(Option::is_none) {
                return None;
            }
            self.cursor += 1;
            live.clear();
            for (v, wake) in self.next_wake.iter().enumerate() {
                if *wake == Some(self.cursor) {
                    live.push(v as u32);
                }
            }
            // Surface the first round past the budget even when nothing
            // wakes in it: nodes are still running, so the kernel must
            // report `MaxRoundsExceeded` exactly as the other drivers
            // do, not scan silently toward a distant wake.
            if !live.is_empty() || self.cursor > self.limit {
                return Some(self.cursor);
            }
        }
    }

    fn is_awake_in(&self, node: u32, round: Round) -> bool {
        self.next_wake[node as usize] == Some(round)
    }
}

/// The per-round working buffers the kernel borrows from an
/// [`ExecutorScratch`] — split out so the scratch's `queue` can be
/// borrowed separately by the calendar/sync drivers.
struct KernelBuffers<'a, M> {
    awake_now: &'a mut Vec<u32>,
    slot_of: &'a mut Vec<u32>,
    arena: &'a mut Vec<Envelope<M>>,
    slots: &'a mut Vec<u32>,
    perm: &'a mut Vec<u32>,
    inbox_ranges: &'a mut Vec<(u32, u32)>,
    outbox: &'a mut Outbox<M>,
}

/// Runs a protocol under the driver selected by [`SimConfig::executor`].
/// The single entry point behind [`Simulator`](crate::Simulator): resets
/// the scratch, builds the chosen [`TimeDriver`], and hands both to the
/// generic kernel.
pub(crate) fn run<P, F, O>(
    graph: &WeightedGraph,
    config: &SimConfig,
    factory: F,
    observer: O,
    scratch: &mut ExecutorScratch<P::Msg>,
) -> Result<RunOutcome<P>, SimError>
where
    P: Protocol,
    F: FnMut(&NodeCtx) -> P,
    O: FnMut(Round, &[P]),
{
    let n = graph.node_count();
    scratch.reset(n);
    let stats = scratch.take_stats(n, graph.edge_count());
    let ExecutorScratch {
        queue,
        awake_now,
        slot_of,
        arena,
        slots,
        perm,
        inbox_ranges,
        outbox,
        ..
    } = scratch;
    let bufs = KernelBuffers {
        awake_now,
        slot_of,
        arena,
        slots,
        perm,
        inbox_ranges,
        outbox,
    };
    match config.executor {
        Executor::Calendar => {
            let driver = CalendarDriver { queue };
            run_kernel(graph, config, factory, observer, stats, driver, bufs)
        }
        Executor::Sync => {
            let driver = SyncDriver::new(queue, config.max_rounds);
            run_kernel(graph, config, factory, observer, stats, driver, bufs)
        }
        Executor::Naive => {
            let driver = NaiveDriver::new(n, config.max_rounds);
            run_kernel(graph, config, factory, observer, stats, driver, bufs)
        }
    }
}

/// The one generic execution kernel. Owns the whole per-active-round
/// body — awake-set collection, the send half-step, routing, fault
/// adjudication, arena grouping, the deliver half-step, and all
/// stats/trace/metrics/observer recording — and asks the [`TimeDriver`]
/// only which round comes next and who is awake in it.
#[allow(clippy::too_many_arguments)]
fn run_kernel<P, F, O, D>(
    graph: &WeightedGraph,
    config: &SimConfig,
    factory: F,
    mut observer: O,
    mut stats: RunStats,
    mut driver: D,
    bufs: KernelBuffers<'_, P::Msg>,
) -> Result<RunOutcome<P>, SimError>
where
    P: Protocol,
    F: FnMut(&NodeCtx) -> P,
    O: FnMut(Round, &[P]),
    D: TimeDriver,
{
    let KernelBuffers {
        awake_now,
        slot_of,
        arena,
        slots,
        perm,
        inbox_ranges,
        outbox,
    } = bufs;
    let mut trace = Trace::default();
    let faults = active_faults(config);
    // Energy charging and wake-policy transforms live here, in the one
    // kernel, so every driver produces the same ledger and the same
    // schedule by construction. Both are `None` on the common path (inert
    // model / identity policy) and cost one untaken branch per event.
    let energy = active_energy(config);
    let policy = active_policy(config);
    // First budget exhaustion of the run (earliest round, lowest node
    // within it — the deliver loop visits nodes ascending). Any
    // exhaustion makes the run report `EnergyExhausted` at the end; the
    // run itself continues with the node forced asleep, like a crash.
    let mut first_exhausted: Option<(NodeId, Round)> = None;
    stats.graph_bytes = graph.memory_bytes();
    // `None` when metrics are off: the hot path pays one untaken branch
    // per event and execution is bit-identical (pinned fingerprints).
    let mut metrics = if config.record_metrics {
        Some(MetricsRecorder::new(graph.node_count(), graph.edge_count()))
    } else {
        None
    };

    let (ctxs, mut protocols, first_wake) = init_nodes(graph, config, factory, &mut trace)?;
    let mut running = 0usize;
    for (v, wake) in first_wake.into_iter().enumerate() {
        if let Some(r) = wake {
            let r = match faults {
                Some(plan) => plan.jittered(v as u32, r),
                None => r,
            };
            // The wake policy maps the (possibly jittered) request to the
            // round the node actually wakes in — always at or after it.
            let r = match policy {
                Some(p) => p.applied(v as u32, r),
                None => r,
            };
            driver.schedule(v as u32, r);
            running += 1;
        }
    }
    // Round-local trace staging; stays empty (and allocation-free) unless
    // the run records a trace.
    let mut trace_buf: Vec<TraceEvent> = Vec::new();

    while let Some(round) = driver.next_round(awake_now) {
        if round > config.max_rounds {
            // An earlier exhaustion explains the overrun (the forced
            // sleep is what strands the survivors); report it instead.
            if let Some((node, round)) = first_exhausted {
                return Err(SimError::EnergyExhausted { node, round });
            }
            return Err(SimError::MaxRoundsExceeded {
                limit: config.max_rounds,
                running,
            });
        }
        if let Some(plan) = faults {
            // Crash and spurious-sleep adjudication, before any send: a
            // filtered node must look asleep to the whole round, so it
            // is retracted and messages to it are lost per the model.
            // `retain` preserves the ascending order contract.
            awake_now.retain(|&v| {
                if plan.crashes_at(v, round) {
                    driver.retract(v);
                    driver.halt(v);
                    running -= 1;
                    stats.crashed_nodes += 1;
                    if config.record_trace {
                        trace.push(TraceEvent::Crashed {
                            round,
                            node: NodeId::new(v),
                        });
                    }
                    return false;
                }
                if plan.suppresses(round, v) {
                    driver.retract(v);
                    driver.schedule(v, round + 1);
                    return false;
                }
                true
            });
        }
        if awake_now.is_empty() {
            // A round whose wakes were all superseded or fault-filtered
            // is not run time: `stats.rounds` is the last round in which
            // some node actually executed, so it always agrees with the
            // metrics stream (`metrics.last_round()`) — under every
            // driver.
            continue;
        }
        stats.rounds = round;
        if let Some(rec) = metrics.as_mut() {
            rec.start_round(round, awake_now);
        }
        // Awake accounting up front: the awake set is fixed before any
        // send, so the slot table, the per-node awake counts, and the
        // `Awake` trace events — which precede the round's buffered
        // delivery events in the recorded order anyway — are settled
        // before the send half-step runs.
        // Nano-joules charged this round (round + tx + rx + idle terms),
        // for the metrics timeline; stays 0 without an active model.
        let mut round_energy = 0u64;
        for (slot, &v) in awake_now.iter().enumerate() {
            slot_of[v as usize] = slot as u32;
            stats.awake_by_node[v as usize] += 1;
            if let Some(em) = energy {
                stats.energy_spent_by_node[v as usize] += em.round_cost;
                round_energy += em.round_cost;
            }
            if config.record_trace {
                trace.push(TraceEvent::Awake {
                    round,
                    node: NodeId::new(v),
                });
            }
        }

        // --- Send half-step ---
        // Each message is fully adjudicated at routing time: the awake set
        // is fixed before any send, so delivered-vs-lost is already known
        // here. Stats are order-independent sums and accrue inline; lost
        // messages are accounted and dropped without ever materializing.
        // Delivered envelopes land in `arena` in send order, with the
        // receiver slot recorded alongside in `slots`. Trace events buffer
        // so their order is driver-independent (see [`record_delivered`]).
        arena.clear();
        slots.clear();
        for &v in awake_now.iter() {
            let node = NodeId::new(v);
            outbox.clear();
            protocols[v as usize].send(&ctxs[v as usize], round, outbox);
            for Envelope { port, msg } in outbox.drain() {
                let (to, recv_port, bits, edge) =
                    route_envelope(graph, config, &mut stats, node, round, port, &msg)?;
                if let Some(em) = energy {
                    // Transmit energy accrues at routing time: the
                    // sender pays whether the message is delivered,
                    // lost, or dropped in flight.
                    let tx = em.tx_bit_cost * bits as u64;
                    stats.energy_spent_by_node[v as usize] += tx;
                    round_energy += tx;
                }
                if let Some(rec) = metrics.as_mut() {
                    rec.on_send(edge, bits);
                }
                if let Some(plan) = faults {
                    // A dropped message is destroyed in flight after the
                    // sender paid for it (bits accrued above), regardless
                    // of the receiver's state — it is an injected fault,
                    // not a model loss.
                    if plan.drops(round, v, port.raw()) {
                        stats.injected_drops += 1;
                        if let Some(rec) = metrics.as_mut() {
                            rec.on_dropped();
                        }
                        if config.record_trace {
                            record_dropped(&mut trace_buf, round, v, to);
                        }
                        continue;
                    }
                }
                if driver.is_awake_in(to, round) {
                    stats.messages_delivered += 1;
                    stats.bits_received_by_node[to as usize] += bits as u64;
                    if let Some(em) = energy {
                        let rx = em.rx_bit_cost * bits as u64;
                        stats.energy_spent_by_node[to as usize] += rx;
                        round_energy += rx;
                    }
                    if let Some(rec) = metrics.as_mut() {
                        rec.on_delivered();
                    }
                    if config.record_trace {
                        record_delivered(&mut trace_buf, round, v, to, recv_port, bits, &msg);
                    }
                    slots.push(slot_of[to as usize]);
                    // An injected duplication delivers a second identical
                    // copy; it counts as a delivery of its own so the
                    // conservation audit reconciles.
                    let dup = match faults {
                        Some(plan) => plan.duplicates(round, v, port.raw()),
                        None => false,
                    };
                    if dup {
                        stats.messages_delivered += 1;
                        stats.dup_deliveries += 1;
                        stats.bits_received_by_node[to as usize] += bits as u64;
                        if let Some(em) = energy {
                            let rx = em.rx_bit_cost * bits as u64;
                            stats.energy_spent_by_node[to as usize] += rx;
                            round_energy += rx;
                        }
                        if let Some(rec) = metrics.as_mut() {
                            rec.on_dup_delivered();
                        }
                        if config.record_trace {
                            record_delivered(&mut trace_buf, round, v, to, recv_port, bits, &msg);
                        }
                        slots.push(slot_of[to as usize]);
                        arena.push(Envelope::new(Port::new(recv_port), msg.clone()));
                    }
                    arena.push(Envelope::new(Port::new(recv_port), msg));
                } else {
                    stats.messages_lost += 1;
                    if let Some(rec) = metrics.as_mut() {
                        rec.on_lost();
                    }
                    if config.record_trace {
                        record_lost(&mut trace_buf, round, v, to);
                    }
                }
            }
        }
        if config.record_trace {
            for event in trace_buf.drain(..) {
                trace.push(event);
            }
        }
        stats.arena_peak_envelopes = stats.arena_peak_envelopes.max(arena.len() as u64);

        // --- Deliver half-step ---
        // Group the arena by receiver slot with an O(M) counting sort
        // (count, prefix-sum, in-place cycle permutation) rather than a
        // comparison sort of the whole round. The permutation targets are
        // assigned in send order, so within one slot the grouped arena
        // preserves send order; the stable per-range sort by port then
        // reproduces exactly a per-inbox `sort_by_key(|e| e.port)` —
        // deliver order is bit-identical under every driver.
        inbox_ranges.clear();
        inbox_ranges.resize(awake_now.len(), (0u32, 0u32));
        for &s in slots.iter() {
            inbox_ranges[s as usize].1 += 1;
        }
        let mut acc = 0u32;
        for range in inbox_ranges.iter_mut() {
            range.0 = acc;
            acc += range.1;
        }
        if arena.len() > 1 {
            // `range.0` doubles as the placement cursor; it ends at the
            // range's end and is rewound by `len` afterwards.
            perm.clear();
            for &s in slots.iter() {
                let range = &mut inbox_ranges[s as usize];
                perm.push(range.0);
                range.0 += 1;
            }
            for range in inbox_ranges.iter_mut() {
                range.0 -= range.1;
            }
            for i in 0..perm.len() {
                while perm[i] != i as u32 {
                    let j = perm[i] as usize;
                    arena.swap(i, j);
                    perm.swap(i, j);
                }
            }
            for &(start, len) in inbox_ranges.iter() {
                if len > 1 {
                    arena[start as usize..(start + len) as usize].sort_by_key(|e| e.port);
                }
            }
        }

        for (slot, &v) in awake_now.iter().enumerate() {
            let node = NodeId::new(v);
            let (start, len) = inbox_ranges[slot];
            if len == 0 {
                // An awake round that delivered nothing is idle listening.
                // Counted whether or not an energy model is active, so an
                // inert model stays bit-identical to no model.
                stats.idle_listen_rounds += 1;
                if let Some(em) = energy {
                    stats.energy_spent_by_node[v as usize] += em.idle_cost;
                    round_energy += em.idle_cost;
                }
            }
            let inbox = &arena[start as usize..(start + len) as usize];
            let next = protocols[v as usize].deliver(&ctxs[v as usize], round, inbox);
            // Budget adjudication: by deliver time every charge of the
            // node's round (round, tx, rx, idle) has accrued, so the
            // verdict is final — and reached in serial node order under
            // every driver.
            let exhausted = match energy {
                Some(em) => em
                    .budget
                    .is_some_and(|b| stats.energy_spent_by_node[v as usize] > b),
                None => false,
            };
            if exhausted {
                stats.exhausted_nodes += 1;
                if first_exhausted.is_none() {
                    first_exhausted = Some((node, round));
                }
            }
            match next {
                NextWake::At(r) => {
                    if r <= round {
                        return Err(SimError::WakeNotInFuture {
                            node,
                            round,
                            requested: r,
                        });
                    }
                    if exhausted {
                        // Forced asleep permanently — the crash machinery:
                        // the requested wake is discarded and messages to
                        // the node are lost from here on.
                        driver.halt(v);
                        running -= 1;
                    } else {
                        let r = match faults {
                            Some(plan) => plan.jittered(v, r),
                            None => r,
                        };
                        let r = match policy {
                            Some(p) => p.applied(v, r),
                            None => r,
                        };
                        driver.schedule(v, r);
                    }
                }
                NextWake::Halt => {
                    driver.halt(v);
                    running -= 1;
                    if config.record_trace {
                        trace.push(TraceEvent::Halted { round, node });
                    }
                }
            }
        }

        if let Some(rec) = metrics.as_mut() {
            rec.set_energy(round_energy);
            rec.finish_round();
        }
        observer(round, &protocols);
    }

    // A budget violation outranks the residual symptoms it causes (the
    // stall of the survivors, or even a clean-looking completion): any
    // exhaustion fails the run with the typed error.
    if let Some((node, round)) = first_exhausted {
        return Err(SimError::EnergyExhausted { node, round });
    }
    if running > 0 {
        return Err(SimError::Stalled {
            running,
            round: stats.rounds,
        });
    }
    Ok(RunOutcome {
        states: protocols,
        stats,
        trace,
        metrics: metrics
            .map(MetricsRecorder::into_metrics)
            .unwrap_or_default(),
    })
}

/// Reference run under the [`Executor::Naive`] driver: a per-round
/// `O(n)` scan of every node's next wake, from round 1 upward.
///
/// Semantically identical to the calendar executor — identical final
/// states, [`RunStats`], trace, and metrics — but costs time
/// proportional to the run's round count. It exists as the
/// differential-testing oracle that locks in the calendar machinery's
/// behavior (see `tests/differential.rs`); it is not part of the
/// supported simulation API surface.
///
/// # Errors
///
/// Propagates the same [`SimError`] conditions as
/// [`Simulator::run`](crate::Simulator::run).
pub fn run_naive<P, F>(
    graph: &WeightedGraph,
    config: &SimConfig,
    factory: F,
) -> Result<RunOutcome<P>, SimError>
where
    P: Protocol,
    F: FnMut(&NodeCtx) -> P,
{
    let mut config = config.clone();
    config.executor = Executor::Naive;
    run(
        graph,
        &config,
        factory,
        |_, _: &[P]| {},
        &mut ExecutorScratch::new(),
    )
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn executor_names_roundtrip_and_default_is_calendar() {
        for e in Executor::ALL {
            assert_eq!(Executor::parse(e.as_str()), Some(e));
            assert_eq!(e.to_string(), e.as_str());
        }
        assert_eq!(Executor::parse("warp"), None);
        assert_eq!(Executor::default(), Executor::Calendar);
    }

    #[test]
    fn wake_queue_orders_and_dedups() {
        let mut q = WakeQueue::new(3);
        q.schedule(2, 5);
        q.schedule(0, 3);
        q.schedule(1, 3);
        let mut live = Vec::new();
        assert_eq!(q.pop_round(&mut live), Some(3));
        assert_eq!(live, vec![0, 1]);
        assert_eq!(q.pop_round(&mut live), Some(5));
        assert_eq!(live, vec![2]);
        assert_eq!(q.pop_round(&mut live), None);
    }

    #[test]
    fn wake_queue_halt_makes_entry_stale() {
        let mut q = WakeQueue::new(2);
        q.schedule(0, 4);
        q.schedule(1, 4);
        q.halt(1);
        let mut live = Vec::new();
        assert_eq!(q.pop_round(&mut live), Some(4));
        assert_eq!(live, vec![0]);
    }

    /// A run whose final scheduled wake was superseded still pops that
    /// round — with no live wakers. The kernel keeps adjudicating faults
    /// for such rounds but does not count them toward `RunStats::rounds`
    /// (the final round is the last one that actually executed).
    #[test]
    fn wake_queue_reports_trailing_stale_round() {
        let mut q = WakeQueue::new(1);
        q.schedule(0, 9);
        q.schedule(0, 2); // supersedes: the round-9 entry is now stale
        let mut live = Vec::new();
        assert_eq!(q.pop_round(&mut live), Some(2));
        assert_eq!(live, vec![0]);
        q.halt(0);
        // The stale trailing entry still surfaces its round, empty.
        assert_eq!(q.pop_round(&mut live), Some(9));
        assert!(live.is_empty());
        assert_eq!(q.pop_round(&mut live), None);
    }

    /// The ascending-order contract of `pop_round`: the live set comes
    /// back sorted regardless of scheduling order, through both the
    /// multi-element path (which sorts) and the ≤1-element early-out.
    #[test]
    fn wake_queue_pop_round_yields_ascending_live_set() {
        let mut q = WakeQueue::new(6);
        // Scheduled in descending node order, with a superseded entry and
        // a duplicate-round reschedule mixed in.
        for v in (0..6u32).rev() {
            q.schedule(v, 3);
        }
        q.schedule(4, 8); // supersedes node 4's round-3 entry
        q.schedule(2, 3); // reschedule into the round it already waits for
        let mut live = Vec::new();
        assert_eq!(q.pop_round(&mut live), Some(3));
        assert_eq!(live, vec![0, 1, 2, 3, 5]);
        let mut sorted = live.clone();
        sorted.sort_unstable();
        assert_eq!(live, sorted);
        // Single-element round: the early-out path must also deliver.
        assert_eq!(q.pop_round(&mut live), Some(8));
        assert_eq!(live, vec![4]);
    }

    /// Resetting a queue must clear the popped stamps: rounds restart at 1
    /// every run, and a stale stamp would swallow a genuine wake.
    #[test]
    fn wake_queue_reset_clears_stamps_and_state() {
        let mut q = WakeQueue::new(2);
        q.schedule(0, 7);
        let mut live = Vec::new();
        assert_eq!(q.pop_round(&mut live), Some(7));
        assert_eq!(live, vec![0]);
        q.reset(2);
        assert_eq!(q.peek_round(), None);
        q.schedule(0, 7); // same round number as the previous run
        assert_eq!(q.pop_round(&mut live), Some(7));
        assert_eq!(live, vec![0], "stale stamp swallowed the wake");
    }

    /// The list of `round`, head first, checking every node's `prev`
    /// link and recorded round on the way.
    fn list_of(q: &WakeQueue, round: Round) -> Vec<u32> {
        let mut out = Vec::new();
        let mut prev = NIL;
        let mut v = q.table.find(round).map_or(NIL, |i| q.table.slots[i].1);
        while v != NIL {
            let link = q.links[v as usize];
            assert_eq!(link.prev, prev, "prev link of {v}");
            assert_eq!(link.round, round, "pending round of {v}");
            out.push(v);
            prev = v;
            v = link.next;
        }
        out
    }

    /// Unlinking the head, a middle node and the tail of one round's
    /// list each leave a well-formed list of the others.
    #[test]
    fn wake_queue_unlinks_head_middle_and_tail() {
        for victim_pos in 0..3 {
            let mut q = WakeQueue::new(3);
            for v in 0..3u32 {
                q.schedule(v, 5);
            }
            let before = list_of(&q, 5);
            assert_eq!(before.len(), 3);
            let victim = before[victim_pos];
            q.halt(victim);
            let rest: Vec<u32> = before.iter().copied().filter(|&v| v != victim).collect();
            assert_eq!(list_of(&q, 5), rest, "victim at position {victim_pos}");
            // The victim can rejoin the same round, and everyone pops.
            q.schedule(victim, 5);
            assert_eq!(list_of(&q, 5).len(), 3);
            let mut live = Vec::new();
            assert_eq!(q.pop_round(&mut live), Some(5));
            assert_eq!(live, vec![0, 1, 2]);
            assert_eq!(q.pop_round(&mut live), None);
        }
    }

    /// The round table keeps every entry findable as it grows far past
    /// its initial capacity, and through deletions afterwards.
    #[test]
    fn round_table_grows_past_initial_capacity() {
        let mut t = RoundTable::new();
        let initial = t.slots.len();
        let rounds: Vec<Round> = (1..=1000u64).map(|i| i * 7 + (i % 3) * 1_000_003).collect();
        for (head, &r) in rounds.iter().enumerate() {
            let (slot, inserted) = t.head_or_insert(r);
            assert!(inserted);
            *slot = head as u32;
        }
        assert!(t.slots.len() > initial);
        assert_eq!(t.len, rounds.len());
        for (head, &r) in rounds.iter().enumerate() {
            assert_eq!(t.head_mut(r).copied(), Some(head as u32), "round {r}");
            assert!(!t.head_or_insert(r).1, "round {r} inserted twice");
        }
        for &r in rounds.iter().step_by(2) {
            assert!(t.remove(r).is_some());
        }
        for (i, &r) in rounds.iter().enumerate() {
            assert_eq!(t.find(r).is_some(), i % 2 == 1, "round {r}");
        }
        assert_eq!(t.len, rounds.len() / 2);
        assert_eq!(t.remove(rounds[0]), None);
    }

    /// Keys that share a home slot — including one that wraps past the
    /// end of the slot array — stay findable after any one of them is
    /// deleted: the backward shift must move displaced entries back and
    /// leave entries at their home slot in place.
    #[test]
    fn round_table_finds_colliding_keys_after_a_delete() {
        let probe = RoundTable::new();
        let last = probe.mask();
        for home in [0, last / 2, last] {
            let keys: Vec<Round> = (1..u64::MAX)
                .filter(|&r| probe.home(r) == home)
                .take(4)
                .collect();
            // Two neighbours in the same probe run: one homed a slot
            // later (displaced, so it may shift back) and one homed just
            // past the four colliders (at home, so it must not move).
            let homed_at = |slot: usize| {
                (1..u64::MAX)
                    .find(|&r| probe.home(r) == slot & last)
                    .unwrap_or(1)
            };
            let neighbours = [homed_at(home + 1), homed_at(home + 5)];
            for removed in 0..keys.len() {
                let mut t = RoundTable::new();
                for (head, &r) in keys.iter().chain(&neighbours).enumerate() {
                    *t.head_or_insert(r).0 = head as u32;
                }
                assert_eq!(t.remove(keys[removed]), Some(removed as u32));
                assert_eq!(t.find(keys[removed]), None);
                for (head, &r) in keys.iter().chain(&neighbours).enumerate() {
                    if head != removed {
                        assert_eq!(t.head_mut(r).copied(), Some(head as u32), "home {home}");
                    }
                }
            }
        }
    }

    /// Reference model of [`WakeQueue`]: every pending round with the
    /// set of nodes waking in it (possibly empty), plus the popped stamps.
    #[derive(Default)]
    struct ModelQueue {
        rounds: BTreeMap<Round, BTreeSet<u32>>,
        pending: Vec<Option<Round>>,
        stamp: Vec<Round>,
    }

    impl ModelQueue {
        fn reset(&mut self, n: usize) {
            self.rounds.clear();
            self.pending = vec![None; n];
            self.stamp = vec![0; n];
        }

        fn unlink(&mut self, v: u32) {
            if let Some(r) = self.pending[v as usize].take() {
                if let Some(set) = self.rounds.get_mut(&r) {
                    set.remove(&v);
                }
            }
        }

        fn schedule(&mut self, v: u32, round: Round) {
            self.unlink(v);
            self.rounds.entry(round).or_default().insert(v);
            self.pending[v as usize] = Some(round);
        }

        fn pop_round(&mut self) -> Option<(Round, Vec<u32>)> {
            let (round, set) = self.rounds.pop_first()?;
            for &v in &set {
                self.pending[v as usize] = None;
                self.stamp[v as usize] = round;
            }
            Some((round, set.into_iter().collect()))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Random schedule / reschedule (to a new round and to the same
        /// round) / halt / retract / pop / reset sequences: the queue and
        /// the `BTreeMap` model return identical `(round, live)` pairs and
        /// agree on every awake lookup.
        #[test]
        fn wake_queue_matches_a_btreemap_model(
            n0 in 1u32..24,
            ops in proptest::collection::vec((0u8..9, 0u32..64, 1u64..8), 1..160),
        ) {
            let mut n = n0;
            let mut q = WakeQueue::new(n as usize);
            let mut m = ModelQueue::default();
            m.reset(n as usize);
            // The last popped round: schedules stay strictly after it.
            let mut last: Round = 0;
            let mut live = Vec::new();
            for (kind, raw, delta) in ops {
                let v = raw % n;
                match kind {
                    0 | 1 => {
                        q.schedule(v, last + delta);
                        m.schedule(v, last + delta);
                    }
                    2 => {
                        // A far round, so the table sees spread-out keys.
                        let r = last + delta * 1_000_003;
                        q.schedule(v, r);
                        m.schedule(v, r);
                    }
                    3 => {
                        // Reschedule into the round the node already waits
                        // for (or a fresh one if it waits for none).
                        let r = m.pending[v as usize].unwrap_or(last + delta);
                        q.schedule(v, r);
                        m.schedule(v, r);
                    }
                    4 => {
                        q.halt(v);
                        m.unlink(v);
                    }
                    5 => {
                        q.retract(v);
                        m.stamp[v as usize] = 0;
                    }
                    6 | 7 => {
                        let got = q.pop_round(&mut live).map(|r| (r, live.clone()));
                        let want = m.pop_round();
                        prop_assert_eq!(&got, &want);
                        if let Some((r, _)) = want {
                            last = r;
                        }
                    }
                    _ => {
                        n = raw % 24 + 1;
                        q.reset(n as usize);
                        m.reset(n as usize);
                        last = 0;
                    }
                }
                prop_assert_eq!(q.peek_round(), m.rounds.keys().next().copied());
                // Round 0 is never popped, so only real rounds are asked.
                for u in (0..n).filter(|_| last != 0) {
                    prop_assert_eq!(
                        q.is_awake_in(u, last),
                        m.stamp[u as usize] == last,
                        "node {} in round {}", u, last
                    );
                }
            }
            // Drain: every remaining round pops identically.
            loop {
                let got = q.pop_round(&mut live).map(|r| (r, live.clone()));
                let want = m.pop_round();
                prop_assert_eq!(&got, &want);
                if want.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn naive_driver_scans_upward_and_skips_empty_rounds() {
        let mut d = NaiveDriver::new(3, 100);
        d.schedule(2, 4);
        d.schedule(0, 2);
        let mut live = Vec::new();
        assert_eq!(d.next_round(&mut live), Some(2));
        assert_eq!(live, vec![0]);
        assert!(d.is_awake_in(0, 2));
        assert!(!d.is_awake_in(2, 2));
        d.halt(0);
        assert_eq!(d.next_round(&mut live), Some(4));
        assert_eq!(live, vec![2]);
        d.halt(2);
        assert_eq!(d.next_round(&mut live), None);
    }

    /// A wake beyond the budget must not make the naive driver scan
    /// silently toward it: the first round past the budget surfaces
    /// (empty) so the kernel can report `MaxRoundsExceeded`.
    #[test]
    fn naive_driver_surfaces_the_budget_boundary() {
        let mut d = NaiveDriver::new(1, 5);
        d.schedule(0, 9);
        let mut live = Vec::new();
        assert_eq!(d.next_round(&mut live), Some(6));
        assert!(live.is_empty());
    }

    /// The sync driver reaches exactly the same rounds and live sets as
    /// the calendar — it just walks the cursor through every round in
    /// between.
    #[test]
    fn sync_driver_walks_to_each_wake() {
        let mut q = WakeQueue::new(2);
        let mut d = SyncDriver::new(&mut q, 100);
        d.schedule(0, 3);
        d.schedule(1, 7);
        let mut live = Vec::new();
        assert_eq!(d.next_round(&mut live), Some(3));
        assert_eq!(live, vec![0]);
        assert_eq!(d.cursor, 3);
        assert!(d.is_awake_in(0, 3));
        assert_eq!(d.next_round(&mut live), Some(7));
        assert_eq!(live, vec![1]);
        assert_eq!(d.cursor, 7);
        assert_eq!(d.next_round(&mut live), None);
    }

    /// The sync walk is capped at one round past the budget, so a wake
    /// scheduled astronomically far out cannot hang the driver before
    /// the kernel's budget check fires.
    #[test]
    fn sync_driver_stops_walking_at_the_budget_boundary() {
        let mut q = WakeQueue::new(1);
        let mut d = SyncDriver::new(&mut q, 50);
        d.schedule(0, Round::MAX);
        let mut live = Vec::new();
        assert_eq!(d.next_round(&mut live), Some(Round::MAX));
        assert!(live == vec![0]);
        assert_eq!(d.cursor, 51);
    }
}
