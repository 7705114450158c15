//! Running registry algorithms with and without layer timing, and the
//! correctness gate every outcome passes.
//!
//! The untraced path is the program's own entry point,
//! [`AlgorithmSpec::run_with_options`]. The traced path builds the same
//! protocols, wraps each node's protocol in the [`Timed`] adapter, and
//! drives them through [`Simulator::run_with_observer_scratch`] and
//! [`collect_mst_edges`] — the calls the registry makes — so the time
//! spent inside protocol callbacks (`mst_core`) can be separated from the
//! engine's own (`netsim`). The adapter only reads the clock; the
//! `timed_path_matches_the_registry` test pins that outcomes are equal.

use graphlib::mst::SpanningForest;
use graphlib::WeightedGraph;
use mst_core::baseline::{ghs_always_awake, GhsAlwaysAwake};
use mst_core::deterministic::{ColoringMode, DeterministicConfig, DeterministicMst};
use mst_core::msg::MstMsg;
use mst_core::prim::PrimMst;
use mst_core::randomized::{EdgeSelection, RandomizedConfig, RandomizedMst};
use mst_core::{collect_mst_edges, AlgorithmSpec, ExecOptions, MstOutcome, MstScratch};
use netsim::{Envelope, NextWake, NodeCtx, Outbox, Protocol, Round, Simulator};

use crate::timing::now_ns;
use crate::trace::Tracer;

/// The adapter samples the callbacks of every node whose index is a
/// multiple of this, and scales up by the ratio of all callbacks to
/// sampled ones. Timing every callback would cost more clock reads per
/// node-wake than a dense-awake wake itself costs.
pub const SAMPLE_EVERY: usize = 16;

/// A protocol wrapped so its callbacks are counted and, on sampled nodes,
/// timed. Behaviour is the wrapped protocol's, unchanged.
///
/// A callback can be cheaper than a clock read, so on a sampled node the
/// adapter alternates pairs of calls between two ways of reading the
/// clock twice: around the callback, and back to back just before it.
/// The difference of the two means is the callback's cost with the
/// clock's own cost, as paid at that very place, taken out.
#[derive(Debug)]
pub struct Timed<P> {
    inner: P,
    sampled: bool,
    calls: u64,
    timed: Tally,
    empty: Tally,
}

/// Clock-read pairs of one kind on one node.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    calls: u64,
    ns: u64,
}

impl<P> Timed<P> {
    fn new(inner: P, ctx: &NodeCtx) -> Timed<P> {
        Timed {
            inner,
            sampled: ctx.node.index().is_multiple_of(SAMPLE_EVERY),
            calls: 0,
            timed: Tally::default(),
            empty: Tally::default(),
        }
    }

    fn inner(&self) -> &P {
        &self.inner
    }

    #[inline]
    fn call<R>(&mut self, f: impl FnOnce(&mut P) -> R) -> R {
        let k = self.calls;
        self.calls += 1;
        if !self.sampled {
            return f(&mut self.inner);
        }
        if (k >> 1) & 1 == 0 {
            let start = now_ns();
            let r = f(&mut self.inner);
            self.timed.ns += now_ns() - start;
            self.timed.calls += 1;
            r
        } else {
            let start = now_ns();
            self.empty.ns += now_ns() - start;
            self.empty.calls += 1;
            f(&mut self.inner)
        }
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;

    fn init(&mut self, ctx: &NodeCtx) -> NextWake {
        self.call(|p| p.init(ctx))
    }

    fn send(&mut self, ctx: &NodeCtx, round: Round, outbox: &mut Outbox<Self::Msg>) {
        self.call(|p| p.send(ctx, round, outbox));
    }

    fn deliver(&mut self, ctx: &NodeCtx, round: Round, inbox: &[Envelope<Self::Msg>]) -> NextWake {
        self.call(|p| p.deliver(ctx, round, inbox))
    }
}

/// Estimated nanoseconds inside all `calls` callbacks, from the sampled
/// tallies: (mean timed pair − mean empty pair) × calls, floored at 0.
fn protocol_estimate(calls: u64, timed: Tally, empty: Tally) -> u64 {
    if timed.calls == 0 || empty.calls == 0 {
        return 0;
    }
    let excess = i128::from(timed.ns) * i128::from(empty.calls)
        - i128::from(empty.ns) * i128::from(timed.calls);
    let total = excess * i128::from(calls) / (i128::from(timed.calls) * i128::from(empty.calls));
    total.max(0) as u64
}

/// Counts the traced path gathers beside the [`MstOutcome`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Rounds in which at least one node was awake (observer calls).
    pub active_rounds: u64,
    /// Protocol callbacks (`init` + `send` + `deliver`).
    pub callbacks: u64,
    /// Estimated nanoseconds inside protocol callbacks.
    pub protocol_ns: u64,
}

/// Where the traced path records its spans.
#[derive(Debug)]
pub struct SpanSink<'t> {
    /// The pass's span store.
    pub tracer: &'t mut Tracer,
    /// The span the run's spans hang under.
    pub parent: Option<usize>,
    /// Iteration or request id stamped on every span.
    pub id: u64,
}

#[allow(clippy::too_many_arguments)]
fn traced<P, F>(
    graph: &WeightedGraph,
    spec: &AlgorithmSpec,
    opts: &ExecOptions,
    scratch: &mut MstScratch,
    sink: &mut SpanSink<'_>,
    mut factory: F,
    ports: fn(&P) -> &[bool],
    phases: fn(&P) -> u64,
) -> Result<(MstOutcome, LayerCounts), String>
where
    P: Protocol<Msg = MstMsg>,
    F: FnMut(&NodeCtx) -> P,
{
    if spec.needs_connected && !graphlib::traversal::is_connected(graph) {
        return Err(format!("{} needs a connected graph", spec.name));
    }
    let mut opts = opts.clone();
    opts.executor = opts.executor.or(Some(spec.default_executor));
    let config = opts.sim_config();
    let (parent, id) = (sink.parent, sink.id);
    let mut active_rounds = 0u64;
    let sim = sink.tracer.begin("netsim.sim", parent, id);
    let out = Simulator::new(graph, config)
        .run_with_observer_scratch(
            scratch,
            |ctx| Timed::new(factory(ctx), ctx),
            |_, _: &[Timed<P>]| active_rounds += 1,
        )
        .map_err(|e| e.to_string())?;
    sink.tracer.end(sim);
    let (mut calls, mut timed, mut empty) = (0u64, Tally::default(), Tally::default());
    for s in &out.states {
        calls += s.calls;
        timed.calls += s.timed.calls;
        timed.ns += s.timed.ns;
        empty.calls += s.empty.calls;
        empty.ns += s.empty.ns;
    }
    let protocol_ns = protocol_estimate(calls, timed, empty);
    let sim_start = sink.tracer.spans()[sim].start_ns;
    sink.tracer.record(
        "mst_core.protocol",
        sim_start,
        sim_start + protocol_ns,
        Some(sim),
        id,
    );
    let edges = sink
        .tracer
        .time("mst_core.collect", parent, id, || {
            collect_mst_edges(graph, &out.states, |t| ports(t.inner()))
        })
        .map_err(|e| e.to_string())?;
    let phases = out
        .states
        .iter()
        .map(|t| phases(t.inner()))
        .max()
        .unwrap_or(0);
    let outcome = MstOutcome {
        edges,
        stats: out.stats,
        phases,
        metrics: out.metrics,
    };
    let counts = LayerCounts {
        active_rounds,
        callbacks: calls,
        protocol_ns,
    };
    Ok((outcome, counts))
}

fn always_awake_ports(s: &GhsAlwaysAwake) -> &[bool] {
    s.inner().mst_ports()
}

fn always_awake_phases(s: &GhsAlwaysAwake) -> u64 {
    s.inner().phases()
}

/// Runs registry algorithm `spec` on the timed path, recording
/// `netsim.sim`, `mst_core.protocol` and `mst_core.collect` spans under
/// `parent`. The protocols and their configurations are the registry's.
///
/// # Errors
///
/// The simulator's or collector's error, rendered.
pub fn run_traced(
    spec: &AlgorithmSpec,
    graph: &WeightedGraph,
    opts: &ExecOptions,
    scratch: &mut MstScratch,
    sink: &mut SpanSink<'_>,
) -> Result<(MstOutcome, LayerCounts), String> {
    let randomized = |selection| {
        let config = RandomizedConfig {
            selection,
            ..RandomizedConfig::default()
        };
        move |ctx: &NodeCtx| RandomizedMst::with_config(ctx, config.clone())
    };
    let deterministic = |coloring| {
        let config = DeterministicConfig {
            coloring,
            ..DeterministicConfig::default()
        };
        move |ctx: &NodeCtx| DeterministicMst::with_config(ctx, config.clone())
    };
    let (rp, rf) = (RandomizedMst::mst_ports, RandomizedMst::phases);
    let (dp, df) = (DeterministicMst::mst_ports, DeterministicMst::phases);
    match spec.name {
        "randomized" => traced(
            graph,
            spec,
            opts,
            scratch,
            sink,
            randomized(EdgeSelection::MinWeight),
            rp,
            rf,
        ),
        "spanning-tree" => traced(
            graph,
            spec,
            opts,
            scratch,
            sink,
            randomized(EdgeSelection::MinPort),
            rp,
            rf,
        ),
        "deterministic" => traced(
            graph,
            spec,
            opts,
            scratch,
            sink,
            deterministic(ColoringMode::FastAwake),
            dp,
            df,
        ),
        "logstar" => traced(
            graph,
            spec,
            opts,
            scratch,
            sink,
            deterministic(ColoringMode::ColeVishkin),
            dp,
            df,
        ),
        "prim" => traced(
            graph,
            spec,
            opts,
            scratch,
            sink,
            |ctx: &NodeCtx| PrimMst::new(ctx, 1),
            PrimMst::mst_ports,
            PrimMst::phases,
        ),
        "always-awake" => traced(
            graph,
            spec,
            opts,
            scratch,
            sink,
            ghs_always_awake,
            always_awake_ports,
            always_awake_phases,
        ),
        other => Err(format!("no timed path for algorithm '{other}'")),
    }
}

/// The correctness gate for one outcome: no message lost, and the edge
/// set equal to Kruskal's (for the spanning-tree variant, a forest of the
/// same size and at least the MST's weight).
///
/// # Errors
///
/// What is wrong, in words.
pub fn check_outcome(
    spec: &AlgorithmSpec,
    graph: &WeightedGraph,
    reference: &SpanningForest,
    out: &MstOutcome,
) -> Result<(), String> {
    if out.stats.messages_lost != 0 {
        return Err(format!(
            "{}: {} messages lost",
            spec.name, out.stats.messages_lost
        ));
    }
    if spec.produces_mst {
        if out.edges != reference.edges {
            return Err(format!(
                "{}: {} edges differ from Kruskal's {}",
                spec.name,
                out.edges.len(),
                reference.edges.len()
            ));
        }
    } else if out.edges.len() != reference.edges.len()
        || graph.total_weight(out.edges.iter().copied()) < reference.total_weight
    {
        return Err(format!("{}: not a spanning forest", spec.name));
    }
    Ok(())
}

/// Whether two outcomes are the same simulation: edges, phases and every
/// simulated count.
pub fn same_outcome(a: &MstOutcome, b: &MstOutcome) -> bool {
    a.edges == b.edges && a.phases == b.phases && a.stats == b.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::{generators, mst};
    use mst_core::ALGORITHMS;
    use netsim::EnergyModel;

    #[test]
    fn timed_path_matches_the_registry() {
        let g = generators::from_spec("scale:96:2", 5).expect("graph");
        let reference = mst::kruskal(&g);
        let mut scratch = MstScratch::new();
        for spec in ALGORITHMS {
            for opts in [
                ExecOptions::seeded(5),
                ExecOptions::seeded(5).with_energy(EnergyModel::reference()),
            ] {
                let plain = spec
                    .run_with_options(&g, &opts, &mut scratch)
                    .expect("registry run");
                let mut tracer = Tracer::new();
                let mut sink = SpanSink {
                    tracer: &mut tracer,
                    parent: None,
                    id: 0,
                };
                let (timed, counts) =
                    run_traced(spec, &g, &opts, &mut scratch, &mut sink).expect("timed run");
                assert!(same_outcome(&plain, &timed), "{}", spec.name);
                assert_eq!(plain.stats, timed.stats, "{}", spec.name);
                assert!(counts.active_rounds > 0 && counts.callbacks > 0);
                check_outcome(spec, &g, &reference, &timed).expect("correct");
                let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
                assert_eq!(
                    names,
                    ["netsim.sim", "mst_core.protocol", "mst_core.collect"]
                );
            }
        }
    }

    #[test]
    fn a_dropped_tree_edge_fails_the_gate() {
        let g = generators::from_spec("scale:64:2", 3).expect("graph");
        let reference = mst::kruskal(&g);
        for name in ["randomized", "spanning-tree"] {
            let spec = mst_core::registry::find(name).expect("registered");
            let mut out = spec.run(&g, 3).expect("run");
            check_outcome(spec, &g, &reference, &out).expect("intact outcome passes");
            let before = out.clone();
            out.edges.pop();
            assert!(check_outcome(spec, &g, &reference, &out).is_err(), "{name}");
            assert!(!same_outcome(&before, &out));
        }
    }

    #[test]
    fn protocol_estimate_takes_the_clock_cost_out() {
        let timed = Tally { calls: 10, ns: 500 };
        let empty = Tally { calls: 20, ns: 800 };
        // (50 − 40) ns per callback over 100 callbacks.
        assert_eq!(protocol_estimate(100, timed, empty), 1000);
        // Callbacks cheaper than the clock's own jitter floor at zero.
        assert_eq!(
            protocol_estimate(100, Tally { calls: 10, ns: 300 }, empty),
            0
        );
        assert_eq!(protocol_estimate(100, Tally::default(), empty), 0);
    }

    #[test]
    fn a_lost_message_fails_the_gate() {
        let g = generators::from_spec("ring:16", 2).expect("graph");
        let spec = mst_core::registry::find("randomized").expect("registered");
        let mut out = spec.run(&g, 2).expect("run");
        out.stats.messages_lost = 1;
        assert!(check_outcome(spec, &g, &mst::kruskal(&g), &out).is_err());
    }
}
