//! Run metrics: the quantities the paper's theorems are about.

use crate::Round;

/// Aggregated metrics of one protocol execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Run time: the last scheduled round the executor processed (0 if the
    /// protocol halted before round 1). This is the final round popped from
    /// the wake queue — counted even if every wake scheduled for it had
    /// been superseded in the meantime.
    pub rounds: Round,
    /// Awake rounds per node, indexed by node.
    pub awake_by_node: Vec<u64>,
    /// Messages successfully delivered.
    pub messages_delivered: u64,
    /// Messages lost because the receiver was asleep.
    pub messages_lost: u64,
    /// Total bits sent per edge, indexed by [`graphlib::EdgeId`]. Includes
    /// lost messages (the sender still transmitted them).
    pub bits_by_edge: Vec<u64>,
    /// Total bits received per node (delivered messages only), indexed by
    /// node — Lemma 8 lower-bounds awake time by received bits / log n.
    pub bits_received_by_node: Vec<u64>,
    /// Largest single-message wire size of the run, in bits, counting both
    /// delivered and lost messages (the sender transmitted either way).
    /// This is the quantity the CONGEST `O(log n)` discipline bounds; the
    /// per-algorithm constant `C` with `max_message_bits ≤ C·⌈log₂ n⌉` is
    /// what [`RunStats::log_constant`] reports and `EXPERIMENTS.md` records.
    pub max_message_bits: u64,
    /// Messages destroyed in flight by an injected fault
    /// ([`FaultPlan::drop_ppm`](crate::FaultPlan::drop_ppm)). Disjoint
    /// from [`RunStats::messages_lost`], which counts only model losses
    /// (receiver asleep).
    pub injected_drops: u64,
    /// Extra copies delivered by an injected duplication fault
    /// ([`FaultPlan::duplicate_ppm`](crate::FaultPlan::duplicate_ppm)).
    /// Each extra copy is *also* counted in
    /// [`RunStats::messages_delivered`], so conservation audits reconcile.
    pub dup_deliveries: u64,
    /// Nodes halted by an injected crash
    /// ([`FaultPlan::crashes`](crate::FaultPlan::crashes)).
    pub crashed_nodes: u64,
    /// Heap bytes of the input graph representation
    /// ([`graphlib::WeightedGraph::memory_bytes`]) — the dominant memory
    /// term of a large-`n` run, recorded so `run --json` and the bench
    /// panels can report bytes/node. Deterministic in the input graph.
    pub graph_bytes: u64,
    /// High-water envelope count of the delivery arena: the largest
    /// number of in-flight messages buffered in any single round. Scaled
    /// by the envelope size this bounds the executor's transient memory.
    /// Deterministic (a function of the delivery schedule, identical
    /// across drivers).
    pub arena_peak_envelopes: u64,
    /// Nano-joules spent per node under the configured
    /// [`EnergyModel`](crate::EnergyModel), indexed by node. All zeros
    /// when no active model is configured. Satisfies the conservation
    /// identity `sum == awake_total·round_cost + bits_sent·tx_bit_cost +
    /// bits_received·rx_bit_cost + idle_listen_rounds·idle_cost`, and is
    /// bit-identical across every driver.
    pub energy_spent_by_node: Vec<u64>,
    /// Nodes that spent past their energy budget and were forced asleep
    /// permanently (the crash machinery). Nonzero only under a budgeted
    /// model; any exhaustion also fails the run with
    /// [`SimError::EnergyExhausted`](crate::SimError).
    pub exhausted_nodes: u64,
    /// Awake node-rounds whose delivery half-step handed the node zero
    /// messages (idle listening) — the quantity
    /// [`EnergyModel::idle_cost`](crate::EnergyModel::idle_cost) prices.
    /// Counted whether or not an energy model is active.
    pub idle_listen_rounds: u64,
}

impl RunStats {
    pub(crate) fn new(n: usize, m: usize) -> Self {
        RunStats {
            rounds: 0,
            awake_by_node: vec![0; n],
            messages_delivered: 0,
            messages_lost: 0,
            bits_by_edge: vec![0; m],
            bits_received_by_node: vec![0; n],
            max_message_bits: 0,
            injected_drops: 0,
            dup_deliveries: 0,
            crashed_nodes: 0,
            graph_bytes: 0,
            arena_peak_envelopes: 0,
            energy_spent_by_node: vec![0; n],
            exhausted_nodes: 0,
            idle_listen_rounds: 0,
        }
    }

    /// Re-initializes recycled stats for a fresh run on an `n`-node,
    /// `m`-edge graph, keeping the vector storage (scratch-pool reuse; see
    /// `ExecutorScratch::recycle`).
    pub(crate) fn reset(&mut self, n: usize, m: usize) {
        self.rounds = 0;
        self.messages_delivered = 0;
        self.messages_lost = 0;
        self.awake_by_node.clear();
        self.awake_by_node.resize(n, 0);
        self.bits_by_edge.clear();
        self.bits_by_edge.resize(m, 0);
        self.bits_received_by_node.clear();
        self.bits_received_by_node.resize(n, 0);
        self.max_message_bits = 0;
        self.injected_drops = 0;
        self.dup_deliveries = 0;
        self.crashed_nodes = 0;
        self.graph_bytes = 0;
        self.arena_peak_envelopes = 0;
        self.energy_spent_by_node.clear();
        self.energy_spent_by_node.resize(n, 0);
        self.exhausted_nodes = 0;
        self.idle_listen_rounds = 0;
    }

    /// The paper's awake complexity: the maximum number of awake rounds
    /// over all nodes.
    pub fn awake_max(&self) -> u64 {
        self.awake_by_node.iter().copied().max().unwrap_or(0)
    }

    /// Node-averaged awake complexity (see the related-work discussion of
    /// Chatterjee–Gmyr–Pandurangan).
    // lint:allow(determinism) -- reporting-only average, never fed back into simulation state
    pub fn awake_avg(&self) -> f64 {
        if self.awake_by_node.is_empty() {
            0.0 // lint:allow(determinism) -- reporting-only average
        } else {
            // lint:allow(determinism) -- reporting-only average, never fed back into simulation state
            self.awake_by_node.iter().sum::<u64>() as f64 / self.awake_by_node.len() as f64
        }
    }

    /// Total awake node-rounds (the simulator's work measure).
    pub fn awake_total(&self) -> u64 {
        self.awake_by_node.iter().sum()
    }

    /// The awake × run-time product of Theorem 4's trade-off.
    pub fn awake_round_product(&self) -> u128 {
        u128::from(self.awake_max()) * u128::from(self.rounds)
    }

    /// Heaviest per-edge traffic, in bits.
    pub fn max_edge_bits(&self) -> u64 {
        self.bits_by_edge.iter().copied().max().unwrap_or(0)
    }

    /// Total messages transmitted (delivered + lost).
    pub fn messages_sent(&self) -> u64 {
        self.messages_delivered + self.messages_lost
    }

    /// Total nano-joules spent across all nodes (0 without an active
    /// energy model).
    pub fn energy_total(&self) -> u64 {
        self.energy_spent_by_node.iter().sum()
    }

    /// Largest per-node energy spend, in nano-joules — the energy
    /// analogue of [`RunStats::awake_max`].
    pub fn energy_max(&self) -> u64 {
        self.energy_spent_by_node.iter().copied().max().unwrap_or(0)
    }

    /// Node-averaged energy spend.
    // lint:allow(determinism) -- reporting-only average, never fed back into simulation state
    pub fn energy_avg(&self) -> f64 {
        if self.energy_spent_by_node.is_empty() {
            0.0 // lint:allow(determinism) -- reporting-only average
        } else {
            // lint:allow(determinism) -- reporting-only average, never fed back into simulation state
            self.energy_total() as f64 / self.energy_spent_by_node.len() as f64
        }
    }

    /// The observed CONGEST constant: the smallest `C` with
    /// `max_message_bits ≤ C·⌈log₂ n⌉` for an `n`-node run (0 if no message
    /// was sent). This is the per-algorithm `log n` constant the model
    /// conformance checker enforces and `EXPERIMENTS.md` reports.
    pub fn log_constant(&self, n: usize) -> u64 {
        let log_n = crate::bits_for_range(n.max(2) as u64) as u64;
        self.max_message_bits.div_ceil(log_n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let stats = RunStats {
            rounds: 10,
            awake_by_node: vec![3, 7, 5],
            messages_delivered: 11,
            messages_lost: 4,
            bits_by_edge: vec![8, 64, 32],
            bits_received_by_node: vec![10, 20, 30],
            max_message_bits: 21,
            injected_drops: 0,
            dup_deliveries: 0,
            crashed_nodes: 0,
            graph_bytes: 0,
            arena_peak_envelopes: 0,
            energy_spent_by_node: vec![100, 700, 400],
            exhausted_nodes: 0,
            idle_listen_rounds: 2,
        };
        assert_eq!(stats.awake_max(), 7);
        assert_eq!(stats.energy_total(), 1200);
        assert_eq!(stats.energy_max(), 700);
        assert!((stats.energy_avg() - 400.0).abs() < 1e-9);
        assert_eq!(stats.awake_total(), 15);
        assert!((stats.awake_avg() - 5.0).abs() < 1e-9);
        assert_eq!(stats.awake_round_product(), 70);
        assert_eq!(stats.max_edge_bits(), 64);
        assert_eq!(stats.messages_sent(), 15);
        // 21 bits on a 3-node graph: ⌈log₂ 3⌉ = 2, ⌈21/2⌉ = 11.
        assert_eq!(stats.log_constant(3), 11);
    }

    #[test]
    fn log_constant_degenerate() {
        let stats = RunStats::new(1, 0);
        assert_eq!(stats.log_constant(1), 0);
        let mut stats = RunStats::new(2, 1);
        stats.max_message_bits = 5;
        // n clamped to 2: ⌈log₂ 2⌉ = 1.
        assert_eq!(stats.log_constant(0), 5);
    }

    #[test]
    fn empty_stats() {
        let stats = RunStats::new(0, 0);
        assert_eq!(stats.awake_max(), 0);
        assert_eq!(stats.awake_avg(), 0.0);
        assert_eq!(stats.max_edge_bits(), 0);
    }
}
