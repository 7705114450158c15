//! The simulation workloads: `sparse-sleep` and `dense-awake`.
//!
//! A workload is a set of units: each of its algorithms on each of a few
//! graphs built from seeds derived from the workload seed. An iteration
//! runs every unit once, timing each. The untraced pass calls the
//! registry entry point the CLI uses; the traced pass runs the same
//! protocols on the timed path ([`crate::algos::run_traced`]). Every
//! outcome is checked against Kruskal and against the first iteration's
//! outcome, and the traced outcomes against the untraced ones.
//!
//! `run_s` is one pass over the units with each unit at its best
//! iteration. On a shared host slowdowns only ever add time, and they
//! come and go over seconds; the best of several repetitions of a unit
//! sheds them, where a median over one run keeps whatever the host did
//! during that run.

use graphlib::{generators, mst, WeightedGraph};
use mst_core::{registry, AlgorithmSpec, ExecOptions, MstOutcome, MstScratch};
use netsim::EnergyModel;

use crate::algos::{check_outcome, run_traced, same_outcome, SpanSink};
use crate::metrics::{median, peak_rss_bytes, quantile, Outcome};
use crate::report::{EndToEnd, Layers};
use crate::timing::{now_ns, secs};
use crate::trace::Tracer;

/// One simulation workload.
#[derive(Debug, Clone, Copy)]
pub struct SimWorkload {
    /// Graph spec (`generators::from_spec` grammar).
    pub graph: &'static str,
    /// Graphs built from the workload seed, each with its own sub-seed.
    pub graphs: u64,
    /// Registry algorithms run on each graph, in order.
    pub algs: &'static [&'static str],
    /// Price runs under the unbudgeted `EnergyModel::reference()`.
    pub priced: bool,
}

/// `randomized` then `deterministic` on eight 4096-node sparse graphs,
/// energy-priced: the paper's regime, a few hundred wakes per node spread
/// over billions of silent rounds.
pub const SPARSE_SLEEP: SimWorkload = SimWorkload {
    graph: "scale:4096:2",
    graphs: 8,
    algs: &["randomized", "deterministic"],
    priced: true,
};

/// `always-awake` on eight 192-node sparse graphs: every node awake in
/// every round.
pub const DENSE_AWAKE: SimWorkload = SimWorkload {
    graph: "scale:192:2",
    graphs: 8,
    algs: &["always-awake"],
    priced: false,
};

impl SimWorkload {
    /// The same workload on another graph (the smoke mode's tiny one).
    pub fn with_graph(self, graph: &'static str) -> SimWorkload {
        SimWorkload { graph, ..self }
    }

    /// The seed of graph `g` (and of its runs' protocol coins).
    fn sub_seed(seed: u64, g: u64) -> u64 {
        seed.wrapping_mul(1_000_003).wrapping_add(g)
    }

    /// Builds every graph.
    fn build(&self, seed: u64) -> Result<Vec<WeightedGraph>, String> {
        (0..self.graphs)
            .map(|g| generators::from_spec(self.graph, Self::sub_seed(seed, g)))
            .collect()
    }
}

/// One algorithm on one graph.
struct Unit {
    spec: &'static AlgorithmSpec,
    graph: usize,
    opts: ExecOptions,
}

struct Setup {
    graphs: Vec<WeightedGraph>,
    kruskal: Vec<mst::SpanningForest>,
    units: Vec<Unit>,
    scratch: MstScratch,
    /// Set-up times: the first, then one more after every iteration.
    setup_ns: Vec<u64>,
}

impl Setup {
    /// Builds the graphs and a fresh executor scratch; the oracle's
    /// Kruskal forests are computed after the timed part.
    fn new(w: &SimWorkload, seed: u64) -> Result<Setup, String> {
        let specs = w
            .algs
            .iter()
            .map(|name| registry::find(name).ok_or(format!("unknown algorithm {name}")))
            .collect::<Result<Vec<_>, _>>()?;
        let start = now_ns();
        let graphs = w.build(seed)?;
        let scratch = MstScratch::new();
        let setup_ns = vec![now_ns() - start];
        let mut units = Vec::new();
        for g in 0..graphs.len() {
            let mut opts = ExecOptions::seeded(SimWorkload::sub_seed(seed, g as u64));
            if w.priced {
                opts = opts.with_energy(EnergyModel::reference());
            }
            for spec in &specs {
                units.push(Unit {
                    spec,
                    graph: g,
                    opts: opts.clone(),
                });
            }
        }
        Ok(Setup {
            kruskal: graphs.iter().map(mst::kruskal).collect(),
            graphs,
            units,
            scratch,
            setup_ns,
        })
    }

    /// Times one more set-up (graphs and scratch), dropping the result.
    fn again(&mut self, w: &SimWorkload, seed: u64) -> Result<(), String> {
        let start = now_ns();
        let graphs = w.build(seed)?;
        let scratch = MstScratch::new();
        self.setup_ns.push(now_ns() - start);
        drop((graphs, scratch));
        Ok(())
    }
}

/// Checks one iteration's outcomes against Kruskal and against the
/// reference outcomes (the first iteration's), counting every run.
fn gate(
    s: &Setup,
    outs: Vec<Result<MstOutcome, String>>,
    reference: &mut Vec<MstOutcome>,
    out: &mut Outcome,
) {
    let first = reference.is_empty();
    for (i, (unit, result)) in s.units.iter().zip(outs).enumerate() {
        out.attempted += 1;
        let graph = &s.graphs[unit.graph];
        let checked = result.and_then(|o| {
            check_outcome(unit.spec, graph, &s.kruskal[unit.graph], &o)?;
            Ok(o)
        });
        match checked {
            Err(e) => out.fail(e),
            Ok(o) if first => reference.push(o),
            Ok(o) if !same_outcome(&reference[i], &o) => {
                out.fail(format!(
                    "{}: simulated counts changed between runs",
                    unit.spec.name
                ));
            }
            Ok(_) => {}
        }
    }
}

/// Untraced iterations until `budget_ns` has passed (at least
/// `min_iters`), with one extra timed set-up after each. Returns each
/// unit's times.
fn iterate(
    w: &SimWorkload,
    seed: u64,
    s: &mut Setup,
    budget_ns: u64,
    min_iters: usize,
    reference: &mut Vec<MstOutcome>,
    out: &mut Outcome,
) -> Vec<Vec<u64>> {
    let deadline = now_ns() + budget_ns;
    let mut times = vec![Vec::new(); s.units.len()];
    let mut iters = 0;
    while iters < min_iters || now_ns() < deadline {
        let mut outs = Vec::with_capacity(s.units.len());
        for (u, unit) in s.units.iter().enumerate() {
            let start = now_ns();
            let result =
                unit.spec
                    .run_with_options(&s.graphs[unit.graph], &unit.opts, &mut s.scratch);
            times[u].push(now_ns() - start);
            outs.push(result.map_err(|e| e.to_string()));
        }
        gate(s, outs, reference, out);
        if let Err(e) = s.again(w, seed) {
            out.fail(e);
        }
        iters += 1;
    }
    times
}

/// Each unit at its best, summed: the time of one pass.
fn best_pass_ns(times: &[Vec<u64>]) -> u64 {
    times.iter().filter_map(|t| t.iter().min()).sum()
}

fn wakes(reference: &[MstOutcome]) -> u64 {
    reference.iter().map(|o| o.stats.awake_total()).sum()
}

/// The untraced pass: set-up, then iterations until `budget_ns` has
/// passed (at least `min_iters`).
pub fn run_untraced(w: &SimWorkload, seed: u64, budget_ns: u64, min_iters: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut s = match Setup::new(w, seed) {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            return out;
        }
    };
    let mut reference = Vec::new();
    let times = iterate(
        w,
        seed,
        &mut s,
        budget_ns,
        min_iters,
        &mut reference,
        &mut out,
    );
    let pass = best_pass_ns(&times);
    out.metrics = EndToEnd {
        setup_s: median(&s.setup_ns.iter().map(|&n| secs(n)).collect::<Vec<_>>()),
        run_s: secs(pass),
        wakes_per_s: wakes(&reference) as f64 / secs(pass),
        peak_rss_bytes: peak_rss_bytes(),
    }
    .metrics();
    out
}

/// The traced pass: untraced iterations for half the budget (the
/// overhead baseline and the reference outcomes), then traced iterations
/// for the other half. The layer figures are those of the fastest traced
/// iteration. Returns the outcome and the spans.
pub fn run_traced_pass(
    w: &SimWorkload,
    seed: u64,
    budget_ns: u64,
    min_iters: usize,
) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let mut s = match Setup::new(w, seed) {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            return (out, tracer);
        }
    };
    for g in 0..w.graphs {
        let sub = SimWorkload::sub_seed(seed, g);
        let built = tracer.time("graphlib.build", None, g, || {
            generators::from_spec(w.graph, sub)
        });
        if let Ok(graph) = built {
            tracer.time("graphlib.kruskal", None, g, || mst::kruskal(&graph));
        }
    }
    let mut reference = Vec::new();
    let untraced = iterate(
        w,
        seed,
        &mut s,
        budget_ns / 2,
        min_iters,
        &mut reference,
        &mut out,
    );

    let deadline = now_ns() + budget_ns / 2;
    let mut traced = vec![Vec::new(); s.units.len()];
    let mut best: Option<(u64, Layers)> = None;
    let mut iter = 0u64;
    while (iter as usize) < min_iters || now_ns() < deadline {
        iter += 1;
        let root = tracer.begin("bench.iteration", None, iter);
        let mut outs = Vec::new();
        let mut l = Layers::default();
        for (u, unit) in s.units.iter().enumerate() {
            let mut sink = SpanSink {
                tracer: &mut tracer,
                parent: Some(root),
                id: iter,
            };
            let start = now_ns();
            let graph = &s.graphs[unit.graph];
            let result = run_traced(unit.spec, graph, &unit.opts, &mut s.scratch, &mut sink);
            traced[u].push(now_ns() - start);
            if let Ok((o, c)) = &result {
                l.node_wakes += o.stats.awake_total();
                l.rounds += o.stats.rounds;
                l.messages += o.stats.messages_sent();
                l.arena_peak_envelopes = l.arena_peak_envelopes.max(o.stats.arena_peak_envelopes);
                l.phases += o.phases;
                l.active_rounds += c.active_rounds;
            }
            outs.push(result.map(|(o, _)| o));
        }
        tracer.end(root);
        let wall = tracer.spans()[root].dur();
        let by = tracer.self_by_name(|sp| sp.id == iter && sp.parent.is_some());
        let get = |name: &str| by.get(name).copied().unwrap_or(0);
        l.protocol_s = secs(get("mst_core.protocol"));
        l.engine_self_s = secs(get("netsim.sim"));
        l.sim_s = l.protocol_s + l.engine_self_s;
        l.collect_s = secs(get("mst_core.collect"));
        let layers = get("mst_core.protocol") + get("netsim.sim") + get("mst_core.collect");
        l.layer_sum_frac = layers as f64 / wall as f64;
        if best.as_ref().is_none_or(|(ns, _)| wall < *ns) {
            best = Some((wall, l));
        }
        gate(&s, outs, &mut reference, &mut out);
    }

    let (_, fastest) = best.unwrap_or_default();
    let layers = Layers {
        build_s: secs(quantile(&tracer.durations("graphlib.build"), 0.5)),
        graph_bytes: s.graphs.first().map_or(0, WeightedGraph::memory_bytes),
        kruskal_s: secs(quantile(&tracer.durations("graphlib.kruskal"), 0.5)),
        overhead_frac: best_pass_ns(&traced) as f64 / best_pass_ns(&untraced) as f64 - 1.0,
        error_rate: out.failed as f64 / out.attempted.max(1) as f64,
        ..fastest
    };
    out.metrics = layers.metrics();
    (out, tracer)
}
