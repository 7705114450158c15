//! The energy-complexity (radio network) model of Chang–Kopelowitz–
//! Pettie–Wang–Zhan, which the paper's Appendix A relates to the sleeping
//! model.
//!
//! Differences from the point-to-point CONGEST executor ([`crate::Simulator`]):
//!
//! * a node's per-round action is **broadcast-only**: it either
//!   [`RadioAction::Transmit`]s one message heard by *all* neighbors,
//!   [`RadioAction::Listen`]s, or sits [`RadioAction::Idle`];
//! * **energy** counts only transmitting/listening rounds — idle rounds
//!   are free (unlike the sleeping model, an idle node may still compute);
//! * a node cannot transmit and listen in the same round (half-duplex);
//! * when two or more neighbors of a listener transmit simultaneously the
//!   outcome depends on the [`CollisionRule`]:
//!   - [`CollisionRule::Local`] — the paper's "Local" variant: no
//!     collisions, the listener receives every message. Upper bounds in
//!     this variant transfer directly to the sleeping model and vice
//!     versa (Appendix A);
//!   - [`CollisionRule::Detection`] — the listener hears a collision
//!     marker;
//!   - [`CollisionRule::Silence`] — a collision is indistinguishable from
//!     silence.
//!
//! The executor is event-driven exactly like the CONGEST one, and shares
//! its wake calendar (the engine's `WakeQueue`): nodes schedule their
//! next *active* round and the simulator skips quiet rounds, so
//! `O(nN)`-round schedules with `O(1)` energy are cheap to run.

use graphlib::{NodeId, WeightedGraph};

use crate::engine::WakeQueue;
use crate::{EnergyModel, NextWake, NodeCtx, Payload, Round, SimError};

/// What a node does in a round it scheduled itself active for.
///
/// Costs are set by the simulator's [`EnergyModel`] (default:
/// [`EnergyModel::radio_default`], the classic one-unit-per-active-round
/// pricing with free idling).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RadioAction<M> {
    /// Broadcast `M` to all neighbors (costs `round_cost` plus
    /// `tx_bit_cost` per payload bit).
    Transmit(M),
    /// Listen to the channel (costs `round_cost`, plus `rx_bit_cost` per
    /// audible bit at the outcome half-step).
    Listen,
    /// Do only local computation (costs `idle_cost`; free by default).
    Idle,
}

/// What a node perceives at the end of an active round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Heard<M> {
    /// Listened and no neighbor transmitted.
    Silence,
    /// Listened and exactly one neighbor transmitted (non-`Local` rules).
    One(M),
    /// Listened into a collision ([`CollisionRule::Detection`] only).
    Collision,
    /// Listened under [`CollisionRule::Local`]: every transmitted message
    /// arrives (possibly none — then [`Heard::Silence`] is reported
    /// instead).
    All(Vec<M>),
    /// This node transmitted (half-duplex: it hears nothing).
    Transmitted,
    /// This node idled.
    Idled,
}

/// Collision semantics of the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollisionRule {
    /// No collisions; listeners receive every message ("Local" variant).
    #[default]
    Local,
    /// Listeners can distinguish collision from silence.
    Detection,
    /// Collisions are indistinguishable from silence.
    Silence,
}

/// A protocol in the radio model: one value per node.
pub trait RadioProtocol {
    /// Message payload.
    type Msg: Payload;

    /// Called before round 1; returns the first active round.
    fn init(&mut self, ctx: &NodeCtx) -> NextWake;

    /// Chooses this round's action.
    fn act(&mut self, ctx: &NodeCtx, round: Round) -> RadioAction<Self::Msg>;

    /// Receives the round's outcome; returns the next active round
    /// (strictly later) or halts.
    fn heard(&mut self, ctx: &NodeCtx, round: Round, outcome: Heard<Self::Msg>) -> NextWake;
}

/// Metrics of a radio-model run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EnergyStats {
    /// Last active round.
    pub rounds: Round,
    /// Energy (transmit + listen rounds) per node.
    pub energy_by_node: Vec<u64>,
    /// Total transmissions.
    pub transmissions: u64,
    /// Messages successfully received by listeners.
    pub receptions: u64,
    /// Collision events observed by listeners (non-`Local` rules).
    pub collisions: u64,
}

impl EnergyStats {
    /// The worst-case energy complexity (max over nodes).
    pub fn energy_max(&self) -> u64 {
        self.energy_by_node.iter().copied().max().unwrap_or(0)
    }

    /// Node-averaged energy.
    // lint:allow(determinism) -- reporting-only average, never fed back into simulation state
    pub fn energy_avg(&self) -> f64 {
        if self.energy_by_node.is_empty() {
            0.0 // lint:allow(determinism) -- reporting-only average
        } else {
            // lint:allow(determinism) -- reporting-only average, never fed back into simulation state
            self.energy_by_node.iter().sum::<u64>() as f64 / self.energy_by_node.len() as f64
        }
    }
}

/// Outcome of a radio run.
#[derive(Debug, Clone)]
pub struct RadioOutcome<P> {
    /// Final protocol values per node.
    pub states: Vec<P>,
    /// Energy metrics.
    pub stats: EnergyStats,
}

/// The radio-model executor.
#[derive(Debug)]
pub struct RadioSimulator<'g> {
    graph: &'g WeightedGraph,
    rule: CollisionRule,
    max_rounds: Round,
    master_seed: u64,
    /// The charging vocabulary — shared with the CONGEST kernel, so this
    /// executor carries no private energy constants. Defaults to
    /// [`EnergyModel::radio_default`] (one unit per transmit/listen
    /// round, idle free, no budget): the historical pricing this module
    /// used to hard-code.
    energy: EnergyModel,
}

impl<'g> RadioSimulator<'g> {
    /// Creates an executor over `graph` with the given collision rule.
    pub fn new(graph: &'g WeightedGraph, rule: CollisionRule) -> Self {
        RadioSimulator {
            graph,
            rule,
            max_rounds: 1 << 40,
            master_seed: 0,
            energy: EnergyModel::radio_default(),
        }
    }

    /// Sets the round budget.
    pub fn with_max_rounds(mut self, rounds: Round) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Sets the master seed for per-node randomness.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Replaces the default radio pricing with an arbitrary
    /// [`EnergyModel`]. A model with a budget makes over-spending nodes
    /// fall silent permanently and the run fail with
    /// [`SimError::EnergyExhausted`], exactly like the CONGEST kernel.
    pub fn with_energy(mut self, model: EnergyModel) -> Self {
        self.energy = model;
        self
    }

    /// Runs the protocol to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MaxRoundsExceeded`] if the budget runs out, or
    /// [`SimError::WakeNotInFuture`] on an invalid schedule request.
    pub fn run<P, F>(&self, mut factory: F) -> Result<RadioOutcome<P>, SimError>
    where
        P: RadioProtocol,
        F: FnMut(&NodeCtx) -> P,
    {
        let n = self.graph.node_count();
        let mut stats = EnergyStats {
            energy_by_node: vec![0; n],
            ..EnergyStats::default()
        };

        let mut ctxs = Vec::with_capacity(n);
        let mut protocols = Vec::with_capacity(n);
        let mut running = 0usize;
        // The CONGEST kernel's calendar: a node is only ever rescheduled
        // after it was popped, so no round ever pops empty here.
        let mut queue = WakeQueue::new(n);

        // Hoisted: `max_external_id` is an O(n) scan, so calling it per
        // node would make setup O(n²); likewise the flat weight array is
        // copied once and every context views a window of it instead of
        // allocating a per-node `Vec`.
        let max_external_id = self.graph.max_external_id();
        let weights: std::sync::Arc<[u64]> = self.graph.flat_port_weights().into();
        for node in self.graph.nodes() {
            let ctx = NodeCtx {
                node,
                external_id: self.graph.external_id(node),
                n,
                max_external_id,
                port_weights: crate::PortWeights::slice(
                    std::sync::Arc::clone(&weights),
                    self.graph.port_base(node),
                    self.graph.degree(node) as u32,
                ),
                rng_seed: self
                    .master_seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(u64::from(node.raw()).wrapping_mul(0xff51_afd7_ed55_8ccd)),
            };
            let mut protocol = factory(&ctx);
            match protocol.init(&ctx) {
                NextWake::At(r) if r >= 1 => {
                    queue.schedule(node.raw(), r);
                    running += 1;
                }
                NextWake::At(_) => {
                    return Err(SimError::WakeNotInFuture {
                        node,
                        round: 0,
                        requested: 0,
                    })
                }
                NextWake::Halt => {}
            }
            ctxs.push(ctx);
            protocols.push(protocol);
        }

        // `listen_stamp[v] == round` marks v listening this round — a
        // reusable stamp array instead of a per-round listener Vec.
        let mut listen_stamp: Vec<Round> = vec![0; n];
        let mut active_now: Vec<u32> = Vec::new();
        // Transmission of the round per node (None = not transmitting).
        let mut on_air: Vec<Option<P::Msg>> = (0..n).map(|_| None).collect();

        // First budget exhaustion of the run, adjudicated in ascending
        // node order like the CONGEST kernel's.
        let mut first_exhausted: Option<(NodeId, Round)> = None;
        while let Some(round) = queue.pop_round(&mut active_now) {
            if round > self.max_rounds {
                if let Some((node, round)) = first_exhausted {
                    return Err(SimError::EnergyExhausted { node, round });
                }
                return Err(SimError::MaxRoundsExceeded {
                    limit: self.max_rounds,
                    running,
                });
            }
            stats.rounds = round;

            // --- action half-step ---
            // All charging draws from `self.energy`; under the default
            // radio pricing this is the classic 1/1/0 schedule.
            for &v in &active_now {
                match protocols[v as usize].act(&ctxs[v as usize], round) {
                    RadioAction::Transmit(msg) => {
                        stats.energy_by_node[v as usize] += self.energy.round_cost
                            + self.energy.tx_bit_cost * msg.bit_size() as u64;
                        stats.transmissions += 1;
                        on_air[v as usize] = Some(msg);
                    }
                    RadioAction::Listen => {
                        stats.energy_by_node[v as usize] += self.energy.round_cost;
                        listen_stamp[v as usize] = round;
                    }
                    RadioAction::Idle => {
                        stats.energy_by_node[v as usize] += self.energy.idle_cost;
                    }
                }
            }

            // --- outcome half-step ---
            for &v in &active_now {
                let node = NodeId::new(v);
                let outcome = if on_air[v as usize].is_some() {
                    Heard::Transmitted
                } else if listen_stamp[v as usize] == round {
                    // Count the audible transmissions first: only the
                    // `Local` rule ever needs them gathered into a Vec,
                    // and silence (the common case) allocates nothing.
                    let audible = self
                        .graph
                        .ports(node)
                        .iter()
                        .filter(|e| on_air[e.neighbor.index()].is_some())
                        .count();
                    stats.receptions += audible as u64;
                    if self.energy.rx_bit_cost != 0 {
                        // Receive energy is paid for every audible bit —
                        // the radio demodulates the channel whether or
                        // not the collision rule lets it decode.
                        let audible_bits: u64 = self
                            .graph
                            .ports(node)
                            .iter()
                            .filter_map(|e| on_air[e.neighbor.index()].as_ref())
                            .map(|m| m.bit_size() as u64)
                            .sum();
                        stats.energy_by_node[v as usize] += self.energy.rx_bit_cost * audible_bits;
                    }
                    match (self.rule, audible) {
                        (_, 0) => Heard::Silence,
                        (CollisionRule::Local, _) => Heard::All(
                            self.graph
                                .ports(node)
                                .iter()
                                .filter_map(|e| on_air[e.neighbor.index()].clone())
                                .collect(),
                        ),
                        (_, 1) => Heard::One(
                            self.graph
                                .ports(node)
                                .iter()
                                .find_map(|e| on_air[e.neighbor.index()].clone())
                                .expect("one audible transmission"),
                        ),
                        (CollisionRule::Detection, _) => {
                            stats.collisions += 1;
                            Heard::Collision
                        }
                        (CollisionRule::Silence, _) => {
                            stats.collisions += 1;
                            Heard::Silence
                        }
                    }
                } else {
                    Heard::Idled
                };
                let next = protocols[v as usize].heard(&ctxs[v as usize], round, outcome);
                // Budget adjudication, same semantics as the CONGEST
                // kernel: an over-budget node falls silent permanently
                // and the run fails with the typed error at the end.
                let exhausted = self
                    .energy
                    .budget
                    .is_some_and(|b| stats.energy_by_node[v as usize] > b);
                if exhausted && first_exhausted.is_none() {
                    first_exhausted = Some((node, round));
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
                        // An exhausted node is simply not rescheduled:
                        // it stays asleep for the rest of the run.
                        if exhausted {
                            running -= 1;
                        } else {
                            queue.schedule(v, r);
                        }
                    }
                    NextWake::Halt => running -= 1,
                }
            }
            for &v in &active_now {
                on_air[v as usize] = None;
            }
        }

        if let Some((node, round)) = first_exhausted {
            return Err(SimError::EnergyExhausted { node, round });
        }
        if running > 0 {
            return Err(SimError::Stalled {
                running,
                round: stats.rounds,
            });
        }
        Ok(RadioOutcome {
            states: protocols,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::generators;

    /// Everyone transmits its id in round `r`, listens in round `r + 1`.
    #[derive(Debug)]
    struct PingAll {
        when: Round,
        heard: Option<Heard<u64>>,
    }

    impl RadioProtocol for PingAll {
        type Msg = u64;

        fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
            NextWake::At(self.when)
        }

        fn act(&mut self, ctx: &NodeCtx, round: Round) -> RadioAction<u64> {
            if round == self.when {
                RadioAction::Transmit(ctx.external_id)
            } else {
                RadioAction::Listen
            }
        }

        fn heard(&mut self, _ctx: &NodeCtx, round: Round, outcome: Heard<u64>) -> NextWake {
            if round == self.when {
                NextWake::At(round + 1)
            } else {
                self.heard = Some(outcome);
                NextWake::Halt
            }
        }
    }

    #[test]
    fn simultaneous_transmitters_do_not_reach_each_other() {
        // Everyone transmits in round 1 and listens in round 2: round 2 is
        // silent, so all nodes hear silence.
        let g = generators::ring(5, 0).unwrap();
        let out = RadioSimulator::new(&g, CollisionRule::Local)
            .run(|_| PingAll {
                when: 1,
                heard: None,
            })
            .unwrap();
        assert!(out.states.iter().all(|s| s.heard == Some(Heard::Silence)));
        assert_eq!(out.stats.energy_by_node, vec![2; 5]);
        assert_eq!(out.stats.transmissions, 5);
        assert_eq!(out.stats.receptions, 0);
    }

    /// One designated transmitter per round; others listen.
    #[derive(Debug)]
    struct OneSpeaks {
        speaker: bool,
        heard: Option<Heard<u64>>,
    }

    impl RadioProtocol for OneSpeaks {
        type Msg = u64;

        fn init(&mut self, _ctx: &NodeCtx) -> NextWake {
            NextWake::At(1)
        }

        fn act(&mut self, ctx: &NodeCtx, _round: Round) -> RadioAction<u64> {
            if self.speaker {
                RadioAction::Transmit(ctx.external_id)
            } else {
                RadioAction::Listen
            }
        }

        fn heard(&mut self, _ctx: &NodeCtx, _round: Round, outcome: Heard<u64>) -> NextWake {
            self.heard = Some(outcome);
            NextWake::Halt
        }
    }

    #[test]
    fn single_transmitter_reaches_neighbors_under_all_rules() {
        let g = generators::star(5, 0).unwrap(); // node 0 is the hub
        for rule in [
            CollisionRule::Local,
            CollisionRule::Detection,
            CollisionRule::Silence,
        ] {
            let out = RadioSimulator::new(&g, rule)
                .run(|ctx| OneSpeaks {
                    speaker: ctx.node.raw() == 0,
                    heard: None,
                })
                .unwrap();
            for leaf in 1..5 {
                match (&rule, out.states[leaf].heard.as_ref().unwrap()) {
                    (CollisionRule::Local, Heard::All(v)) => assert_eq!(v, &vec![1]),
                    (_, Heard::One(id)) => assert_eq!(*id, 1),
                    other => panic!("unexpected outcome under {rule:?}: {other:?}"),
                }
            }
            assert_eq!(out.states[0].heard, Some(Heard::Transmitted));
        }
    }

    #[test]
    fn collisions_depend_on_the_rule() {
        // Star: all 4 leaves transmit; the hub listens.
        let g = generators::star(5, 0).unwrap();
        for (rule, expect_collision_marker, expect_all) in [
            (CollisionRule::Local, false, true),
            (CollisionRule::Detection, true, false),
            (CollisionRule::Silence, false, false),
        ] {
            let out = RadioSimulator::new(&g, rule)
                .run(|ctx| OneSpeaks {
                    speaker: ctx.node.raw() != 0,
                    heard: None,
                })
                .unwrap();
            let hub = out.states[0].heard.clone().unwrap();
            match hub {
                Heard::All(v) => {
                    assert!(expect_all, "{rule:?}");
                    assert_eq!(v.len(), 4);
                }
                Heard::Collision => assert!(expect_collision_marker, "{rule:?}"),
                Heard::Silence => {
                    assert!(!expect_all && !expect_collision_marker, "{rule:?}")
                }
                other => panic!("unexpected hub outcome: {other:?}"),
            }
            if !matches!(rule, CollisionRule::Local) {
                assert_eq!(out.stats.collisions, 1);
            }
        }
    }

    #[test]
    fn idle_rounds_cost_no_energy() {
        #[derive(Debug)]
        struct Idler;
        impl RadioProtocol for Idler {
            type Msg = u64;
            fn init(&mut self, _: &NodeCtx) -> NextWake {
                NextWake::At(1)
            }
            fn act(&mut self, _: &NodeCtx, _: Round) -> RadioAction<u64> {
                RadioAction::Idle
            }
            fn heard(&mut self, _: &NodeCtx, round: Round, outcome: Heard<u64>) -> NextWake {
                assert_eq!(outcome, Heard::Idled);
                if round < 10 {
                    NextWake::At(round + 1)
                } else {
                    NextWake::Halt
                }
            }
        }
        let g = generators::ring(3, 0).unwrap();
        let out = RadioSimulator::new(&g, CollisionRule::Local)
            .run(|_| Idler)
            .unwrap();
        assert_eq!(out.stats.energy_max(), 0);
        assert_eq!(out.stats.rounds, 10);
        assert_eq!(out.stats.energy_avg(), 0.0);
    }

    /// The unified [`EnergyModel`] charging path: custom per-bit and idle
    /// pricing replaces the historical hard-coded 1/1/0 schedule.
    #[test]
    fn custom_energy_model_prices_bits_and_idling() {
        // Star: the hub (node 0) transmits its 1-bit external id; leaves
        // listen. round=10, tx=3/bit, rx=2/bit, idle=7.
        let g = generators::star(5, 0).unwrap();
        let model = EnergyModel {
            round_cost: 10,
            tx_bit_cost: 3,
            rx_bit_cost: 2,
            idle_cost: 7,
            budget: None,
        };
        let out = RadioSimulator::new(&g, CollisionRule::Local)
            .with_energy(model)
            .run(|ctx| OneSpeaks {
                speaker: ctx.node.raw() == 0,
                heard: None,
            })
            .unwrap();
        // Hub external id is 1 → bit_size 1: transmit = 10 + 3·1.
        assert_eq!(out.stats.energy_by_node[0], 13);
        // Each leaf listens (10) and hears the 1-bit message (2·1).
        assert_eq!(out.stats.energy_by_node[1..], [12, 12, 12, 12]);

        // The default pricing is exactly EnergyModel::radio_default().
        let classic = RadioSimulator::new(&g, CollisionRule::Local)
            .run(|ctx| OneSpeaks {
                speaker: ctx.node.raw() == 0,
                heard: None,
            })
            .unwrap();
        let explicit = RadioSimulator::new(&g, CollisionRule::Local)
            .with_energy(EnergyModel::radio_default())
            .run(|ctx| OneSpeaks {
                speaker: ctx.node.raw() == 0,
                heard: None,
            })
            .unwrap();
        assert_eq!(classic.stats, explicit.stats);
        assert_eq!(classic.stats.energy_by_node, vec![1; 5]);
    }

    /// A budgeted model makes over-spending nodes fall silent and the
    /// run fail with the typed error, like the CONGEST kernel.
    #[test]
    fn energy_budget_exhaustion_is_typed() {
        // Everyone transmits in round 1 and would listen in round 2, but
        // a 1 nJ budget is exhausted by the first transmission (round
        // cost 1 + 1 bit · 1 nJ = 2 > 1).
        let g = generators::ring(5, 0).unwrap();
        let model = EnergyModel::radio_default()
            .with_tx_bit_cost(1)
            .with_budget(1);
        let err = RadioSimulator::new(&g, CollisionRule::Local)
            .with_energy(model)
            .run(|_| PingAll {
                when: 1,
                heard: None,
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                SimError::EnergyExhausted {
                    node,
                    round: 1,
                } if node == NodeId::new(0)
            ),
            "{err:?}"
        );
    }

    #[test]
    fn round_budget_is_enforced() {
        #[derive(Debug)]
        struct Forever;
        impl RadioProtocol for Forever {
            type Msg = u64;
            fn init(&mut self, _: &NodeCtx) -> NextWake {
                NextWake::At(1)
            }
            fn act(&mut self, _: &NodeCtx, _: Round) -> RadioAction<u64> {
                RadioAction::Idle
            }
            fn heard(&mut self, _: &NodeCtx, round: Round, _: Heard<u64>) -> NextWake {
                NextWake::At(round + 1)
            }
        }
        let g = generators::ring(3, 0).unwrap();
        let err = RadioSimulator::new(&g, CollisionRule::Local)
            .with_max_rounds(20)
            .run(|_| Forever)
            .unwrap_err();
        assert!(matches!(err, SimError::MaxRoundsExceeded { limit: 20, .. }));
    }
}
