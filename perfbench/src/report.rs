//! The two fixed metric sets every workload reports: end-to-end (tracing
//! off) and per-layer (tracing on). A layer a workload does not exercise
//! reports 0.

use crate::metrics::Metrics;

/// End-to-end figures of one untraced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Median wall time of one measured iteration, seconds.
    pub run_s: f64,
    /// Median simulated node-wakes per host second.
    pub wakes_per_s: f64,
    /// Peak resident set of the workload's process, bytes.
    pub peak_rss_bytes: u64,
}

impl EndToEnd {
    /// The metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.lower("setup_s", self.setup_s, "s");
        m.lower("run_s", self.run_s, "s");
        m.higher("wakes_per_s", self.wakes_per_s, "1/s");
        m.lower(
            "peak_rss_mb",
            self.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        );
        m
    }
}

/// Per-layer figures of one traced pass. Times and counts belong to one
/// traced iteration (sim workloads: the fastest) or to the traced replay
/// (serve), unless the field says otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// Median `generators::from_spec` call, seconds.
    pub build_s: f64,
    /// Bytes of one built graph (median over builds).
    pub graph_bytes: u64,
    /// Median `mst::kruskal` call (the oracle), seconds.
    pub kruskal_s: f64,
    /// `Simulator::run_with_observer_scratch` time, seconds.
    pub sim_s: f64,
    /// `sim_s` minus the protocol callbacks, seconds.
    pub engine_self_s: f64,
    /// Simulated node-wakes.
    pub node_wakes: u64,
    /// Simulated rounds (silent ones included).
    pub rounds: u64,
    /// Rounds with at least one node awake.
    pub active_rounds: u64,
    /// Envelopes routed.
    pub messages: u64,
    /// Largest delivery-arena high-water mark of any run.
    pub arena_peak_envelopes: u64,
    /// Time inside protocol `init`/`send`/`deliver`, seconds.
    pub protocol_s: f64,
    /// `runner::collect_mst_edges` time, seconds.
    pub collect_s: f64,
    /// Merge phases (summed over runs).
    pub phases: u64,
    /// Mean `parse_request` per request, microseconds.
    pub parse_us: f64,
    /// Mean `Request::fingerprint` per request, microseconds.
    pub key_us: f64,
    /// Mean `ResultCache` get + insert per request, microseconds.
    pub cache_us: f64,
    /// Mean rendering per request, microseconds.
    pub render_us: f64,
    /// Mean execution per miss, milliseconds.
    pub exec_ms: f64,
    /// Median client latency of a miss minus its in-process service
    /// time, milliseconds.
    pub queue_wait_ms: f64,
    /// Median client latency of `cache` responses, milliseconds.
    pub hit_latency_p50_ms: f64,
    /// Median client latency of `exec` responses, milliseconds.
    pub miss_latency_p50_ms: f64,
    /// 99th-percentile client latency of `exec` responses, milliseconds.
    pub miss_latency_p99_ms: f64,
    /// Cache hits over requests.
    pub hit_ratio: f64,
    /// Coalesced requests (daemon counter).
    pub coalesced: u64,
    /// Shed requests (daemon counter).
    pub shed: u64,
    /// Rejected request lines (daemon counter).
    pub rejected: u64,
    /// Median latency at the middle offered rate, milliseconds.
    pub latency_p50_ms: f64,
    /// 99th-percentile latency at the middle offered rate, milliseconds.
    pub latency_p99_ms: f64,
    /// Requests behind the two latency figures.
    pub latency_samples: u64,
    /// Requests answered OK within the p99 limit per second, middle rate.
    pub goodput_rps: f64,
    /// Highest offered rate meeting the limit without a growing backlog.
    pub max_ok_rps: f64,
    /// 99th-percentile lateness of the load generator's sends, ms.
    pub lag_p99_ms: f64,
    /// Traced over untraced iteration time, minus one.
    pub overhead_frac: f64,
    /// Layer self times summed, over the traced wall time.
    pub layer_sum_frac: f64,
    /// Failed operations over attempted ones.
    pub error_rate: f64,
}

impl Layers {
    /// The metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let ns_per = |s: f64, n: u64| if n == 0 { 0.0 } else { s * 1e9 / n as f64 };
        m.lower("graphlib.build_s", self.build_s, "s");
        m.lower("graphlib.graph_bytes", self.graph_bytes as f64, "count");
        m.lower("graphlib.kruskal_s", self.kruskal_s, "s");
        m.lower("netsim.sim_s", self.sim_s, "s");
        m.lower("netsim.engine_self_s", self.engine_self_s, "s");
        m.lower(
            "netsim.ns_per_wake",
            ns_per(self.engine_self_s, self.node_wakes),
            "ns",
        );
        m.lower("netsim.node_wakes", self.node_wakes as f64, "count");
        m.lower("netsim.rounds", self.rounds as f64, "count");
        m.lower("netsim.active_rounds", self.active_rounds as f64, "count");
        m.higher(
            "netsim.wakes_per_active_round",
            if self.active_rounds == 0 {
                0.0
            } else {
                self.node_wakes as f64 / self.active_rounds as f64
            },
            "ratio",
        );
        m.lower("netsim.messages", self.messages as f64, "count");
        m.lower(
            "netsim.arena_peak_envelopes",
            self.arena_peak_envelopes as f64,
            "count",
        );
        m.lower("mst_core.protocol_s", self.protocol_s, "s");
        m.lower(
            "mst_core.protocol_ns_per_wake",
            ns_per(self.protocol_s, self.node_wakes),
            "ns",
        );
        m.lower("mst_core.collect_s", self.collect_s, "s");
        m.lower("mst_core.phases", self.phases as f64, "count");
        m.lower("serve.parse_us", self.parse_us, "us");
        m.lower("serve.key_us", self.key_us, "us");
        m.lower("serve.cache_us", self.cache_us, "us");
        m.lower("serve.render_us", self.render_us, "us");
        m.lower("serve.exec_ms", self.exec_ms, "ms");
        m.lower("serve.queue_wait_ms", self.queue_wait_ms, "ms");
        m.lower("serve.hit_latency_p50_ms", self.hit_latency_p50_ms, "ms");
        m.lower("serve.miss_latency_p50_ms", self.miss_latency_p50_ms, "ms");
        m.lower("serve.miss_latency_p99_ms", self.miss_latency_p99_ms, "ms");
        m.higher("serve.hit_ratio", self.hit_ratio, "ratio");
        m.higher("serve.coalesced", self.coalesced as f64, "count");
        m.lower("serve.shed", self.shed as f64, "count");
        m.lower("serve.rejected", self.rejected as f64, "count");
        m.lower("serve.latency_p50_ms", self.latency_p50_ms, "ms");
        m.lower("serve.latency_p99_ms", self.latency_p99_ms, "ms");
        m.higher(
            "serve.latency_samples",
            self.latency_samples as f64,
            "count",
        );
        m.higher("serve.goodput_rps", self.goodput_rps, "1/s");
        m.higher("serve.max_ok_rps", self.max_ok_rps, "1/s");
        m.lower("loadgen.lag_p99_ms", self.lag_p99_ms, "ms");
        m.lower("trace.overhead_frac", self.overhead_frac, "ratio");
        m.higher("trace.layer_sum_frac", self.layer_sum_frac, "ratio");
        m.lower("error_rate", self.error_rate, "ratio");
        m
    }
}
