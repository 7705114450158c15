//! High-level entry points: run an algorithm on a graph, collect the MST
//! edge set and the complexity metrics.
//!
//! Every algorithm family is described once by a `FamilySpec`
//! (construction, output ports, phase counter, connectivity requirement);
//! the `run_*` and `check_*` functions are thin, API-stable wrappers that
//! hand a spec to the one plain execution path (`execute`) or its
//! validated twin (`execute_checked`). The [`registry`](crate::registry)
//! module exposes the same six algorithms as a data-driven
//! [`AlgorithmSpec`](crate::registry::AlgorithmSpec) table for callers
//! (CLI, benches, sweeps) that select algorithms by name.

use std::fmt;

use graphlib::{EdgeId, NodeId, Port, WeightedGraph};
use netsim::{
    ExecutorScratch, NodeCtx, Protocol, Round, RunStats, SimConfig, SimError, Simulator,
    ValidateError, ValidatingExecutor, Violation,
};

use crate::baseline::{ghs_always_awake, GhsAlwaysAwake};
use crate::deterministic::{DeterministicConfig, DeterministicMst};
use crate::exec::ExecOptions;
use crate::msg::MstMsg;
use crate::randomized::{RandomizedConfig, RandomizedMst};

/// Reusable executor scratch for every registry algorithm.
///
/// All six algorithms exchange [`MstMsg`] payloads, so one pool serves
/// them all: allocate once per worker thread, pass it to the
/// `run_*_scratch` entry points (or
/// [`AlgorithmSpec::run_with_scratch`](crate::registry::AlgorithmSpec::run_with_scratch)),
/// and consecutive runs reuse the executor's wake queue, delivery arena,
/// and stats buffers instead of reallocating them per run.
pub type MstScratch = ExecutorScratch<MstMsg>;

/// The result of one distributed MST execution.
#[derive(Debug, Clone)]
pub struct MstOutcome {
    /// MST edge ids, sorted ascending. For a connected graph this is the
    /// unique MST; for a disconnected one, the minimum spanning forest.
    pub edges: Vec<EdgeId>,
    /// Simulator metrics: awake complexity, run time, messages, bits.
    pub stats: RunStats,
    /// Merge phases completed (max over nodes).
    pub phases: u64,
    /// Per-round telemetry (empty unless the run was configured with
    /// [`ExecOptions::with_metrics`](crate::ExecOptions::with_metrics)).
    pub metrics: netsim::Metrics,
}

/// The two endpoints of an edge disagree about its MST membership — an
/// algorithm bug surfaced by [`collect_mst_edges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MstCollectError {
    /// The edge one endpoint marked as an MST edge.
    pub edge: EdgeId,
    /// The endpoint that does *not* mark it.
    pub endpoint: NodeId,
}

impl fmt::Display for MstCollectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "inconsistent MST output: endpoint {} does not mark edge {} \
             although its neighbor does",
            self.endpoint, self.edge
        )
    }
}

impl std::error::Error for MstCollectError {}

/// Everything that can go wrong in a high-level `run_*` call.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// The simulator rejected the execution (bad port, bit budget, …).
    Sim(SimError),
    /// The per-node outputs do not assemble into a consistent edge set.
    Collect(MstCollectError),
    /// The algorithm requires a connected input graph.
    Disconnected {
        /// Registry name of the algorithm that was refused.
        algorithm: &'static str,
    },
    /// The run broke one or more sleeping-model rules (Section 1.1) —
    /// reported by the validating executor on the `check_*` paths.
    Model(Vec<Violation>),
    /// The protocol panicked mid-run — driven outside its design
    /// envelope by injected faults (see [`crate::exec::run_caught`]) and
    /// converted into a typed, classifiable failure.
    Panicked {
        /// The panic message.
        message: String,
    },
    /// The run completed under injected faults, but the collected output
    /// is not a spanning forest of the input (nodes halted before
    /// marking their tree edges, or marked a cycle). Surfaced as a typed
    /// error so fault harnesses never mistake degradation for an answer;
    /// checked only when the run's fault plan is active.
    Degraded {
        /// Edges in the claimed output.
        edges: usize,
        /// Trees the output's acyclic part forms.
        output_trees: usize,
        /// Connected components of the input graph.
        graph_components: usize,
    },
    /// A node spent past its energy budget
    /// ([`netsim::EnergyModel::budget`]) and was forced asleep
    /// permanently. Promoted from [`netsim::SimError::EnergyExhausted`]
    /// to a first-class run-layer error so chaos harnesses classify
    /// energy starvation apart from other simulator failures. Carries
    /// the run's *first* exhaustion, adjudicated in serial node order —
    /// identical across drivers.
    EnergyExhausted {
        /// The first node to exhaust its budget.
        node: NodeId,
        /// The round its ledger went past the budget.
        round: Round,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "{e}"),
            RunError::Collect(e) => write!(f, "{e}"),
            RunError::Disconnected { algorithm } => write!(
                f,
                "algorithm '{algorithm}' requires a connected graph \
                 (non-leader components would never terminate)"
            ),
            RunError::Model(violations) => {
                write!(f, "{} sleeping-model violation(s)", violations.len())?;
                for v in violations {
                    write!(f, "; {v}")?;
                }
                Ok(())
            }
            RunError::Panicked { message } => {
                write!(f, "protocol panicked under injected faults: {message}")
            }
            RunError::Degraded {
                edges,
                output_trees,
                graph_components,
            } => write!(
                f,
                "degraded output under injected faults: {edges} edges forming \
                 {output_trees} tree(s) on a graph with {graph_components} component(s)"
            ),
            RunError::EnergyExhausted { node, round } => write!(
                f,
                "node {node} exhausted its energy budget in round {round}; \
                 the run cannot complete without it"
            ),
        }
    }
}

/// Every stable [`RunError`] wire code: the six run-layer codes plus
/// the embedded [`netsim::SIM_ERROR_CODES`] namespace. Frozen vocabulary
/// — service responses embed these, so renaming one is a wire break the
/// round-trip tests catch.
pub const RUN_ERROR_CODES: &[&str] = &[
    "run.collect",
    "run.disconnected",
    "run.model",
    "run.panicked",
    "run.degraded",
    "run.energy-exhausted",
];

/// Resolves a wire code back to its canonical `&'static str` — either a
/// run-layer code from [`RUN_ERROR_CODES`] or a simulator code from
/// [`netsim::SIM_ERROR_CODES`] — or `None` for unknown codes.
pub fn parse_run_code(code: &str) -> Option<&'static str> {
    RUN_ERROR_CODES
        .iter()
        .copied()
        .find(|&c| c == code)
        .or_else(|| netsim::parse_sim_code(code))
}

impl RunError {
    /// The stable, machine-readable wire code for this error — the typed
    /// `"code"` field of a service error response. Simulator errors keep
    /// their own `sim.*` namespace ([`SimError::to_json_code`]); the
    /// run-layer variants use `run.*`. Per-instance detail stays in
    /// [`fmt::Display`]; the code never changes spelling.
    pub fn to_json_code(&self) -> &'static str {
        match self {
            RunError::Sim(e) => e.to_json_code(),
            RunError::Collect(_) => "run.collect",
            RunError::Disconnected { .. } => "run.disconnected",
            RunError::Model(_) => "run.model",
            RunError::Panicked { .. } => "run.panicked",
            RunError::Degraded { .. } => "run.degraded",
            RunError::EnergyExhausted { .. } => "run.energy-exhausted",
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Sim(e) => Some(e),
            RunError::Collect(e) => Some(e),
            RunError::Disconnected { .. }
            | RunError::Model(_)
            | RunError::Panicked { .. }
            | RunError::Degraded { .. }
            | RunError::EnergyExhausted { .. } => None,
        }
    }
}

impl From<ValidateError> for RunError {
    fn from(e: ValidateError) -> Self {
        match e {
            ValidateError::Sim(s) => s.into(),
            ValidateError::Model(v) => RunError::Model(v),
        }
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        match e {
            // Energy exhaustion is promoted to its own run-layer variant
            // (and wire code) so harnesses classify starvation apart from
            // other simulator failures.
            SimError::EnergyExhausted { node, round } => RunError::EnergyExhausted { node, round },
            other => RunError::Sim(other),
        }
    }
}

impl From<MstCollectError> for RunError {
    fn from(e: MstCollectError) -> Self {
        RunError::Collect(e)
    }
}

/// Collects the distributed output ("every node knows which of its
/// incident edges are in the MST") into a global edge set, checking that
/// the two endpoints of every edge agree.
///
/// # Errors
///
/// Returns [`MstCollectError`] naming the first edge whose endpoints
/// disagree — that would be an algorithm bug, not an input condition.
pub fn collect_mst_edges<P>(
    graph: &WeightedGraph,
    states: &[P],
    ports_of: impl Fn(&P) -> &[bool],
) -> Result<Vec<EdgeId>, MstCollectError> {
    let mut marked = vec![false; graph.edge_count()];
    for v in graph.nodes() {
        for (i, &m) in ports_of(&states[v.index()]).iter().enumerate() {
            if m {
                let entry = graph.port_entry(v, Port::new(i as u32));
                marked[entry.edge.index()] = true;
            }
        }
    }
    // Endpoint agreement.
    for (idx, &m) in marked.iter().enumerate() {
        if m {
            let e = graph.edge(EdgeId::new(idx as u32));
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                let p = graph.port_to(a, b).expect("edge endpoints adjacent");
                if !ports_of(&states[a.index()])[p.index()] {
                    return Err(MstCollectError {
                        edge: EdgeId::new(idx as u32),
                        endpoint: a,
                    });
                }
            }
        }
    }
    Ok(marked
        .iter()
        .enumerate()
        .filter(|&(_i, &m)| m)
        .map(|(i, &_m)| EdgeId::new(i as u32))
        .collect())
}

/// One algorithm family, described once: how to construct a node's
/// protocol, where its MST port marks and phase counter live, and whether
/// the input must be connected. The six `run_*`/`check_*` wrapper
/// families are all thin delegations to [`execute`] / [`execute_checked`]
/// over one of these — the spec is the *only* per-algorithm code on
/// either path.
struct FamilySpec<P, F>
where
    P: Protocol<Msg = MstMsg>,
    F: FnMut(&NodeCtx) -> P,
{
    /// `Some(name)`: refuse disconnected inputs with
    /// [`RunError::Disconnected`] before simulating (the algorithm would
    /// spin forever on non-leader components).
    require_connected: Option<&'static str>,
    factory: F,
    ports: fn(&P) -> &[bool],
    phases: fn(&P) -> u64,
}

/// `Randomized-MST` (and, via [`EdgeSelection::MinPort`], the
/// spanning-tree variant).
///
/// [`EdgeSelection::MinPort`]: crate::randomized::EdgeSelection::MinPort
fn randomized_spec(
    config: RandomizedConfig,
) -> FamilySpec<RandomizedMst, impl FnMut(&NodeCtx) -> RandomizedMst> {
    FamilySpec {
        require_connected: None,
        factory: move |ctx: &NodeCtx| RandomizedMst::with_config(ctx, config.clone()),
        ports: RandomizedMst::mst_ports,
        phases: RandomizedMst::phases,
    }
}

/// `Deterministic-MST` (and, via [`ColoringMode::ColeVishkin`], the
/// Corollary 1 log* variant).
///
/// [`ColoringMode::ColeVishkin`]: crate::deterministic::ColoringMode::ColeVishkin
fn deterministic_spec(
    config: DeterministicConfig,
) -> FamilySpec<DeterministicMst, impl FnMut(&NodeCtx) -> DeterministicMst> {
    FamilySpec {
        require_connected: None,
        factory: move |ctx: &NodeCtx| DeterministicMst::with_config(ctx, config.clone()),
        ports: DeterministicMst::mst_ports,
        phases: DeterministicMst::phases,
    }
}

/// The Prim-style sequential baseline (requires a connected input).
fn prim_spec(
    leader: u64,
) -> FamilySpec<crate::prim::PrimMst, impl FnMut(&NodeCtx) -> crate::prim::PrimMst> {
    FamilySpec {
        require_connected: Some("prim"),
        factory: move |ctx: &NodeCtx| crate::prim::PrimMst::new(ctx, leader),
        ports: crate::prim::PrimMst::mst_ports,
        phases: crate::prim::PrimMst::phases,
    }
}

fn always_awake_ports(s: &GhsAlwaysAwake) -> &[bool] {
    s.inner().mst_ports()
}

fn always_awake_phases(s: &GhsAlwaysAwake) -> u64 {
    s.inner().phases()
}

/// The always-awake GHS baseline (traditional-model cost profile).
fn always_awake_spec() -> FamilySpec<GhsAlwaysAwake, impl FnMut(&NodeCtx) -> GhsAlwaysAwake> {
    FamilySpec {
        require_connected: None,
        factory: ghs_always_awake,
        ports: always_awake_ports,
        phases: always_awake_phases,
    }
}

/// The one generic execution path all `run_*` wrappers share: enforce the
/// spec's connectivity requirement, simulate under the options' config
/// (reusing the caller's executor scratch), collect the marked ports into
/// an edge set, take the phase maximum.
fn execute<P, F>(
    graph: &WeightedGraph,
    opts: &ExecOptions,
    spec: FamilySpec<P, F>,
    scratch: &mut MstScratch,
) -> Result<MstOutcome, RunError>
where
    P: Protocol<Msg = MstMsg>,
    F: FnMut(&NodeCtx) -> P,
{
    if let Some(algorithm) = spec.require_connected {
        if !graphlib::traversal::is_connected(graph) {
            return Err(RunError::Disconnected { algorithm });
        }
    }
    let config = opts.sim_config();
    // Lossy runs (active faults, or an energy budget that can force nodes
    // asleep) must not pass off partial forests as answers.
    let lossy = opts.lossy();
    let out = Simulator::new(graph, config).run_with_scratch(scratch, spec.factory)?;
    let edges = collect_mst_edges(graph, &out.states, spec.ports)?;
    if lossy {
        check_spanning_forest(graph, &edges)?;
    }
    let phases = out.states.iter().map(spec.phases).max().unwrap_or(0);
    Ok(MstOutcome {
        edges,
        stats: out.stats,
        phases,
        metrics: out.metrics,
    })
}

/// The degradation gate for fault-injected runs: a completed run's output
/// must still be a spanning forest of the input (one tree per connected
/// component, no cycles), else the "success" is a fault artifact —
/// reported as [`RunError::Degraded`]. Only minimality remains for the
/// caller to judge; partial or cyclic outputs never pass.
fn check_spanning_forest(graph: &WeightedGraph, edges: &[EdgeId]) -> Result<(), RunError> {
    let n = graph.node_count();
    let mut output = graphlib::UnionFind::new(n);
    for &id in edges {
        let e = graph.edge(id);
        output.union(e.u.index(), e.v.index());
    }
    let mut components = graphlib::UnionFind::new(n);
    for e in graph.edges() {
        components.union(e.u.index(), e.v.index());
    }
    // A forest satisfies edges + trees = n; a cycle or a missed component
    // breaks one of the two equalities.
    if edges.len() + output.set_count() != n || output.set_count() != components.set_count() {
        return Err(RunError::Degraded {
            edges: edges.len(),
            output_trees: output.set_count(),
            graph_components: components.set_count(),
        });
    }
    Ok(())
}

/// The validated twin of [`execute`]: executes the same [`FamilySpec`]
/// under the [`ValidatingExecutor`] (tracing forced, per-message budget
/// `congest_constant·⌈log₂ n⌉`, double-run determinism check) and collects
/// the same [`MstOutcome`]. Slower than the plain path — it runs the
/// protocol twice with tracing on — so it backs `AlgorithmSpec::check` and
/// the `sleeping-mst check` subcommand, not the benchmarks.
fn execute_checked<P, F>(
    graph: &WeightedGraph,
    config: SimConfig,
    congest_constant: u64,
    spec: FamilySpec<P, F>,
) -> Result<MstOutcome, RunError>
where
    P: Protocol<Msg = MstMsg>,
    F: FnMut(&NodeCtx) -> P,
{
    if let Some(algorithm) = spec.require_connected {
        if !graphlib::traversal::is_connected(graph) {
            return Err(RunError::Disconnected { algorithm });
        }
    }
    let out = ValidatingExecutor::new(graph, config)
        .with_congest_constant(congest_constant)
        .run(spec.factory)?;
    let edges = collect_mst_edges(graph, &out.states, spec.ports)?;
    let phases = out.states.iter().map(spec.phases).max().unwrap_or(0);
    Ok(MstOutcome {
        edges,
        stats: out.stats,
        phases,
        metrics: out.metrics,
    })
}

/// Conformance-checked run of `Randomized-MST` under the
/// [`ValidatingExecutor`].
///
/// # Errors
///
/// [`RunError::Model`] on any sleeping-model violation; otherwise as
/// [`run_randomized`].
pub fn check_randomized(
    graph: &WeightedGraph,
    seed: u64,
    congest_constant: u64,
) -> Result<MstOutcome, RunError> {
    check_randomized_with(graph, seed, RandomizedConfig::default(), congest_constant)
}

/// Conformance-checked run of `Randomized-MST` with ablation overrides.
///
/// # Errors
///
/// [`RunError::Model`] on any sleeping-model violation; otherwise as
/// [`run_randomized_with`].
pub fn check_randomized_with(
    graph: &WeightedGraph,
    seed: u64,
    config: RandomizedConfig,
    congest_constant: u64,
) -> Result<MstOutcome, RunError> {
    execute_checked(
        graph,
        SimConfig::default().with_seed(seed),
        congest_constant,
        randomized_spec(config),
    )
}

/// Conformance-checked run of `Deterministic-MST`.
///
/// # Errors
///
/// [`RunError::Model`] on any sleeping-model violation; otherwise as
/// [`run_deterministic`].
pub fn check_deterministic(
    graph: &WeightedGraph,
    congest_constant: u64,
) -> Result<MstOutcome, RunError> {
    check_deterministic_with(graph, DeterministicConfig::default(), congest_constant)
}

/// Conformance-checked run of `Deterministic-MST` with ablation overrides.
///
/// # Errors
///
/// [`RunError::Model`] on any sleeping-model violation; otherwise as
/// [`run_deterministic_with`].
pub fn check_deterministic_with(
    graph: &WeightedGraph,
    config: DeterministicConfig,
    congest_constant: u64,
) -> Result<MstOutcome, RunError> {
    execute_checked(
        graph,
        SimConfig::default(),
        congest_constant,
        deterministic_spec(config),
    )
}

/// Conformance-checked run of the Corollary 1 log* variant.
///
/// # Errors
///
/// [`RunError::Model`] on any sleeping-model violation; otherwise as
/// [`run_logstar`].
pub fn check_logstar(graph: &WeightedGraph, congest_constant: u64) -> Result<MstOutcome, RunError> {
    check_deterministic_with(
        graph,
        DeterministicConfig {
            coloring: crate::deterministic::ColoringMode::ColeVishkin,
            ..DeterministicConfig::default()
        },
        congest_constant,
    )
}

/// Conformance-checked run of the spanning-tree variant.
///
/// # Errors
///
/// [`RunError::Model`] on any sleeping-model violation; otherwise as
/// [`run_spanning_tree`].
pub fn check_spanning_tree(
    graph: &WeightedGraph,
    seed: u64,
    congest_constant: u64,
) -> Result<MstOutcome, RunError> {
    check_randomized_with(
        graph,
        seed,
        RandomizedConfig {
            selection: crate::randomized::EdgeSelection::MinPort,
            ..RandomizedConfig::default()
        },
        congest_constant,
    )
}

/// Conformance-checked run of the Prim-style baseline.
///
/// # Errors
///
/// [`RunError::Disconnected`] on disconnected inputs, [`RunError::Model`]
/// on any sleeping-model violation; otherwise as [`run_prim`].
pub fn check_prim(
    graph: &WeightedGraph,
    leader: u64,
    congest_constant: u64,
) -> Result<MstOutcome, RunError> {
    execute_checked(
        graph,
        SimConfig::default(),
        congest_constant,
        prim_spec(leader),
    )
}

/// Conformance-checked run of the always-awake GHS baseline.
///
/// # Errors
///
/// [`RunError::Model`] on any sleeping-model violation; otherwise as
/// [`run_always_awake`].
pub fn check_always_awake(
    graph: &WeightedGraph,
    seed: u64,
    congest_constant: u64,
) -> Result<MstOutcome, RunError> {
    execute_checked(
        graph,
        SimConfig::default().with_seed(seed),
        congest_constant,
        always_awake_spec(),
    )
}

/// Runs `Randomized-MST` with the paper's parameters.
///
/// # Errors
///
/// Propagates simulator failures and output-consistency violations
/// ([`RunError`]); a correct run on a valid graph does not produce any.
pub fn run_randomized(graph: &WeightedGraph, seed: u64) -> Result<MstOutcome, RunError> {
    run_randomized_with(graph, seed, RandomizedConfig::default())
}

/// Runs `Randomized-MST` with ablation overrides.
///
/// # Errors
///
/// Propagates simulator failures and output-consistency violations
/// ([`RunError`]).
pub fn run_randomized_with(
    graph: &WeightedGraph,
    seed: u64,
    config: RandomizedConfig,
) -> Result<MstOutcome, RunError> {
    run_randomized_scratch(graph, seed, config, &mut MstScratch::new())
}

/// Runs `Randomized-MST` reusing a caller-provided executor scratch.
///
/// Equivalent to [`run_randomized_with`] but without the per-run executor
/// allocations: batch callers (sweeps, benches) keep one [`MstScratch`]
/// per worker thread and thread it through every run.
///
/// # Errors
///
/// Propagates simulator failures and output-consistency violations
/// ([`RunError`]).
pub fn run_randomized_scratch(
    graph: &WeightedGraph,
    seed: u64,
    config: RandomizedConfig,
    scratch: &mut MstScratch,
) -> Result<MstOutcome, RunError> {
    run_randomized_exec(graph, &ExecOptions::seeded(seed), config, scratch)
}

/// Runs `Randomized-MST` under explicit [`ExecOptions`] (seed, fault
/// plan, round budget).
///
/// # Errors
///
/// Propagates simulator failures and output-consistency violations
/// ([`RunError`]).
pub fn run_randomized_exec(
    graph: &WeightedGraph,
    opts: &ExecOptions,
    config: RandomizedConfig,
    scratch: &mut MstScratch,
) -> Result<MstOutcome, RunError> {
    execute(graph, opts, randomized_spec(config), scratch)
}

/// Runs `Deterministic-MST` with the paper's parameters.
///
/// # Errors
///
/// Propagates simulator failures and output-consistency violations
/// ([`RunError`]).
pub fn run_deterministic(graph: &WeightedGraph) -> Result<MstOutcome, RunError> {
    run_deterministic_with(graph, DeterministicConfig::default())
}

/// Runs `Deterministic-MST` with ablation overrides.
///
/// # Errors
///
/// Propagates simulator failures and output-consistency violations
/// ([`RunError`]).
pub fn run_deterministic_with(
    graph: &WeightedGraph,
    config: DeterministicConfig,
) -> Result<MstOutcome, RunError> {
    run_deterministic_scratch(graph, config, &mut MstScratch::new())
}

/// Runs `Deterministic-MST` reusing a caller-provided executor scratch.
///
/// # Errors
///
/// Propagates simulator failures and output-consistency violations
/// ([`RunError`]).
pub fn run_deterministic_scratch(
    graph: &WeightedGraph,
    config: DeterministicConfig,
    scratch: &mut MstScratch,
) -> Result<MstOutcome, RunError> {
    run_deterministic_exec(graph, &ExecOptions::default(), config, scratch)
}

/// Runs `Deterministic-MST` under explicit [`ExecOptions`]. The seed is
/// ignored by the protocol; the fault plan and round budget apply.
///
/// # Errors
///
/// Propagates simulator failures and output-consistency violations
/// ([`RunError`]).
pub fn run_deterministic_exec(
    graph: &WeightedGraph,
    opts: &ExecOptions,
    config: DeterministicConfig,
    scratch: &mut MstScratch,
) -> Result<MstOutcome, RunError> {
    execute(graph, opts, deterministic_spec(config), scratch)
}

/// Runs the arbitrary-spanning-tree variant: the same LDT merging with
/// lowest-port (instead of minimum-weight) outgoing edges. Same `O(log n)`
/// awake complexity, but the output is only *some* spanning tree — the
/// executable version of the paper's contrast with Barenboim–Maimon's
/// spanning-tree construction.
///
/// # Errors
///
/// Propagates simulator failures and output-consistency violations
/// ([`RunError`]).
pub fn run_spanning_tree(graph: &WeightedGraph, seed: u64) -> Result<MstOutcome, RunError> {
    run_spanning_tree_scratch(graph, seed, &mut MstScratch::new())
}

/// Runs the spanning-tree variant reusing a caller-provided executor
/// scratch.
///
/// # Errors
///
/// Propagates simulator failures and output-consistency violations
/// ([`RunError`]).
pub fn run_spanning_tree_scratch(
    graph: &WeightedGraph,
    seed: u64,
    scratch: &mut MstScratch,
) -> Result<MstOutcome, RunError> {
    run_spanning_tree_exec(graph, &ExecOptions::seeded(seed), scratch)
}

/// Runs the spanning-tree variant under explicit [`ExecOptions`].
///
/// # Errors
///
/// Propagates simulator failures and output-consistency violations
/// ([`RunError`]).
pub fn run_spanning_tree_exec(
    graph: &WeightedGraph,
    opts: &ExecOptions,
    scratch: &mut MstScratch,
) -> Result<MstOutcome, RunError> {
    run_randomized_exec(
        graph,
        opts,
        RandomizedConfig {
            selection: crate::randomized::EdgeSelection::MinPort,
            ..RandomizedConfig::default()
        },
        scratch,
    )
}

/// Runs the Corollary 1 variant: `Deterministic-MST` with Cole–Vishkin
/// coloring — `O(log n log* n)` awake, `O(n log n log* n)` rounds.
///
/// # Errors
///
/// Propagates simulator failures and output-consistency violations
/// ([`RunError`]).
pub fn run_logstar(graph: &WeightedGraph) -> Result<MstOutcome, RunError> {
    run_logstar_scratch(graph, &mut MstScratch::new())
}

/// Runs the Corollary 1 variant reusing a caller-provided executor
/// scratch.
///
/// # Errors
///
/// Propagates simulator failures and output-consistency violations
/// ([`RunError`]).
pub fn run_logstar_scratch(
    graph: &WeightedGraph,
    scratch: &mut MstScratch,
) -> Result<MstOutcome, RunError> {
    run_logstar_exec(graph, &ExecOptions::default(), scratch)
}

/// Runs the Corollary 1 variant under explicit [`ExecOptions`].
///
/// # Errors
///
/// Propagates simulator failures and output-consistency violations
/// ([`RunError`]).
pub fn run_logstar_exec(
    graph: &WeightedGraph,
    opts: &ExecOptions,
    scratch: &mut MstScratch,
) -> Result<MstOutcome, RunError> {
    run_deterministic_exec(
        graph,
        opts,
        DeterministicConfig {
            coloring: crate::deterministic::ColoringMode::ColeVishkin,
            ..DeterministicConfig::default()
        },
        scratch,
    )
}

/// Runs the Prim-style sequential baseline: the fragment of external id
/// `leader` absorbs one node per phase. Produces the MST with `Θ(n)` awake
/// complexity — the counterexample showing sleep states alone are not
/// enough; the paper's parallel merging is what achieves `O(log n)`.
///
/// # Errors
///
/// Returns [`RunError::Disconnected`] if `graph` is disconnected: unlike
/// the paper's algorithms (which finish per fragment), Prim's non-leader
/// components never find the DONE signal and the run would spin forever.
/// Also propagates simulator failures and output-consistency violations.
pub fn run_prim(graph: &WeightedGraph, leader: u64) -> Result<MstOutcome, RunError> {
    run_prim_scratch(graph, leader, &mut MstScratch::new())
}

/// Runs the Prim-style baseline reusing a caller-provided executor
/// scratch.
///
/// # Errors
///
/// Returns [`RunError::Disconnected`] on disconnected inputs; also
/// propagates simulator failures and output-consistency violations.
pub fn run_prim_scratch(
    graph: &WeightedGraph,
    leader: u64,
    scratch: &mut MstScratch,
) -> Result<MstOutcome, RunError> {
    run_prim_exec(graph, &ExecOptions::default(), leader, scratch)
}

/// Runs the Prim-style baseline under explicit [`ExecOptions`].
///
/// # Errors
///
/// Returns [`RunError::Disconnected`] on disconnected inputs; also
/// propagates simulator failures and output-consistency violations.
pub fn run_prim_exec(
    graph: &WeightedGraph,
    opts: &ExecOptions,
    leader: u64,
    scratch: &mut MstScratch,
) -> Result<MstOutcome, RunError> {
    execute(graph, opts, prim_spec(leader), scratch)
}

/// Runs the always-awake GHS baseline (traditional-model cost profile).
///
/// # Errors
///
/// Propagates simulator failures and output-consistency violations
/// ([`RunError`]).
pub fn run_always_awake(graph: &WeightedGraph, seed: u64) -> Result<MstOutcome, RunError> {
    run_always_awake_scratch(graph, seed, &mut MstScratch::new())
}

/// Runs the always-awake baseline reusing a caller-provided executor
/// scratch.
///
/// # Errors
///
/// Propagates simulator failures and output-consistency violations
/// ([`RunError`]).
pub fn run_always_awake_scratch(
    graph: &WeightedGraph,
    seed: u64,
    scratch: &mut MstScratch,
) -> Result<MstOutcome, RunError> {
    run_always_awake_exec(graph, &ExecOptions::seeded(seed), scratch)
}

/// Runs the always-awake baseline under explicit [`ExecOptions`].
///
/// # Errors
///
/// Propagates simulator failures and output-consistency violations
/// ([`RunError`]).
pub fn run_always_awake_exec(
    graph: &WeightedGraph,
    opts: &ExecOptions,
    scratch: &mut MstScratch,
) -> Result<MstOutcome, RunError> {
    execute(graph, opts, always_awake_spec(), scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::{generators, mst};

    #[test]
    fn run_randomized_matches_kruskal() {
        let g = generators::random_connected(26, 0.15, 4).unwrap();
        let out = run_randomized(&g, 9).unwrap();
        assert_eq!(out.edges, mst::kruskal(&g).edges);
        assert!(out.phases >= 1);
        assert!(out.stats.rounds > 0);
    }

    #[test]
    fn outcome_total_weight_matches_reference() {
        let g = generators::complete(12, 8).unwrap();
        let out = run_randomized(&g, 2).unwrap();
        assert_eq!(
            g.total_weight(out.edges.iter().copied()),
            mst::kruskal(&g).total_weight
        );
    }

    #[test]
    fn spanning_tree_variant_spans_but_is_not_minimum() {
        let g = generators::complete(14, 3).unwrap();
        let st = run_spanning_tree(&g, 5).unwrap();
        // It is a spanning tree…
        assert_eq!(st.edges.len(), 13);
        let mut uf = graphlib::UnionFind::new(14);
        for &e in &st.edges {
            let edge = g.edge(e);
            assert!(uf.union(edge.u.index(), edge.v.index()), "cycle in output");
        }
        assert_eq!(uf.set_count(), 1);
        // …but (on a complete graph with random weights) almost surely not
        // the minimum one.
        let reference = mst::kruskal(&g);
        assert!(
            g.total_weight(st.edges.iter().copied()) > reference.total_weight,
            "min-port tree accidentally minimal; change the seed"
        );
    }

    #[test]
    fn spanning_tree_variant_keeps_awake_logarithmic() {
        let g = generators::random_connected(64, 0.1, 4).unwrap();
        let st = run_spanning_tree(&g, 1).unwrap();
        assert_eq!(st.edges.len(), 63);
        assert!((st.stats.awake_max() as f64) < 60.0 * (64f64).log2());
    }

    #[test]
    fn collect_reports_endpoint_disagreement() {
        // Two nodes, one edge; only node 0 marks its port.
        struct Half(Vec<bool>);
        let g = graphlib::GraphBuilder::new(2)
            .edge(0, 1, 1)
            .build()
            .unwrap();
        let states = vec![Half(vec![true]), Half(vec![false])];
        let err = collect_mst_edges(&g, &states, |s| &s.0).unwrap_err();
        assert_eq!(err.edge, EdgeId::new(0));
        assert_eq!(err.endpoint, graphlib::NodeId::new(1));
        assert!(err.to_string().contains("does not mark"));
    }

    #[test]
    fn prim_refuses_disconnected_graphs() {
        let g = graphlib::GraphBuilder::new(4)
            .edge(0, 1, 1)
            .edge(2, 3, 2)
            .build()
            .unwrap();
        let err = run_prim(&g, 1).unwrap_err();
        assert!(matches!(err, RunError::Disconnected { algorithm: "prim" }));
        assert!(err.to_string().contains("connected"));
    }

    /// Satellite (wire encoding): one instance of every [`RunError`]
    /// variant, for exhaustive wire-code tests.
    fn all_run_error_variants() -> Vec<RunError> {
        vec![
            RunError::Sim(SimError::MaxRoundsExceeded {
                limit: 10,
                running: 2,
            }),
            RunError::Collect(MstCollectError {
                edge: EdgeId::new(0),
                endpoint: NodeId::new(1),
            }),
            RunError::Disconnected { algorithm: "prim" },
            RunError::Model(Vec::new()),
            RunError::Panicked {
                message: "boom".into(),
            },
            RunError::Degraded {
                edges: 3,
                output_trees: 2,
                graph_components: 1,
            },
            RunError::EnergyExhausted {
                node: NodeId::new(4),
                round: 12,
            },
        ]
    }

    #[test]
    fn wire_codes_round_trip_and_are_distinct() {
        let variants = all_run_error_variants();
        // 6 run.* codes + the Sim passthrough variant.
        assert_eq!(
            variants.len(),
            RUN_ERROR_CODES.len() + 1,
            "new variant? add its code"
        );
        let mut seen = std::collections::BTreeSet::new();
        for e in &variants {
            let code = e.to_json_code();
            assert!(seen.insert(code), "duplicate code {code}");
            // Round trip: the code parses back to the identical static str,
            // whether it lives in the run.* or the sim.* namespace.
            assert_eq!(parse_run_code(code), Some(code));
            assert!(
                code.starts_with("run.") || code.starts_with("sim."),
                "{code}"
            );
        }
        // Every sim.* code resolves through the run-layer parser too
        // (serve responses carry both namespaces in one field).
        for &code in netsim::SIM_ERROR_CODES {
            assert_eq!(parse_run_code(code), Some(code));
        }
        assert_eq!(parse_run_code("run.no-such-error"), None);
    }

    #[test]
    fn energy_exhaustion_is_promoted_from_sim_errors() {
        let err: RunError = SimError::EnergyExhausted {
            node: NodeId::new(3),
            round: 7,
        }
        .into();
        assert_eq!(
            err,
            RunError::EnergyExhausted {
                node: NodeId::new(3),
                round: 7,
            }
        );
        assert_eq!(err.to_json_code(), "run.energy-exhausted");
        assert!(err.to_string().contains("v3") && err.to_string().contains('7'));
        // Other simulator errors still pass through untouched.
        let err: RunError = SimError::Stalled {
            running: 1,
            round: 2,
        }
        .into();
        assert!(matches!(err, RunError::Sim(SimError::Stalled { .. })));
    }
}
