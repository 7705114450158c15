//! The `serve-mixed` workload: seeded `run` requests against a live
//! `serve` daemon, plus an in-process replay of the same requests through
//! the daemon's front-door functions for the per-layer split.
//!
//! Requests cycle through all six registry algorithms on six small graph
//! specs. Three of every four draw from a hot set of [`HOT`] keys (fewer
//! than the daemon's 256 cache entries; skewed towards low key numbers),
//! so after warm-up they hit the cache. Every fourth request is a fresh
//! key that misses, executes, is inserted and later evicted.
//!
//! * Untraced pass: [`CONNS`] closed-loop connections replay bursts of
//!   [`BATCH`] requests; `run_s` is the fastest burst's wall time (see
//!   [`crate::sim`] for why the best, not the median), and `wakes_per_s`
//!   the mean node-wakes a burst executes over that time.
//! * Traced pass: open-loop steps at the fixed [`RATES`], each request
//!   timed from when it was due, then the in-process replay.
//!
//! Every response is checked: `ok`, an allowed `source`, the tree's
//! weight against Kruskal on the request's graph, no lost message, and
//! the same result bytes for a key whether it came from `exec` or
//! `cache`.

use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bench::serve::cache::ResultCache;
use bench::serve::protocol::{
    parse_request, render_response, render_run_result, Json, Request, Source,
};
use bench::serve::{ServeConfig, Server, ServerStats};
use graphlib::{generators, mst};
use mst_core::MstScratch;

use crate::algos::{run_traced, SpanSink};
use crate::metrics::{median, peak_rss_bytes, quantile, Outcome};
use crate::report::{EndToEnd, Layers};
use crate::timing::{millis, now_ns, secs, sleep_until, timeout};
use crate::trace::Tracer;

/// Registry algorithms, cycled by key number.
const ALGS: [&str; 6] = [
    "randomized",
    "deterministic",
    "logstar",
    "prim",
    "spanning-tree",
    "always-awake",
];

/// Small connected graph specs, cycled by key number.
const GRAPHS: [&str; 6] = [
    "ring:12",
    "path:16",
    "star:12",
    "grid:3x4",
    "complete:8",
    "bintree:15",
];

/// Hot keys; fewer than the daemon's default 256 cache entries.
pub const HOT: u64 = 96;

/// Requests per closed-loop burst and per replay. A multiple of 144, so
/// each burst's fresh quarter covers every algorithm × graph pair
/// equally often. Short bursts, many of them: the host steals whole
/// milliseconds from this 2-core guest at times, and the best of many
/// short bursts still finds a clean one.
pub const BATCH: usize = 288;

/// Bursts that warm the daemon's cache before any is timed.
const WARM_PASSES: u64 = 4;

/// Bursts per extra timed daemon set-up in the untraced pass. Each set-up
/// starts and stops a daemon's threads; one per burst made the process's
/// peak RSS wander with the thread churn.
const SETUP_EVERY: u64 = 16;

/// Client connections (and client threads): the host's 2 cores.
pub const CONNS: usize = 2;

/// Fixed offered rates of the open-loop steps, requests per second. The
/// daemon's default admission bucket refills 4096 tokens a second, so the
/// top rate is the most it admits for long.
pub const RATES: [u64; 3] = [1000, 2000, 4000];

/// Requests per open-loop step.
pub const STEP_REQUESTS: usize = 3000;

/// The p99 latency limit, milliseconds.
pub const P99_LIMIT_MS: f64 = 10.0;

/// How long a client waits for an outstanding reply before counting it
/// lost.
const REPLY_TIMEOUT_NS: u64 = 10_000_000_000;

/// One cacheable run request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Registry algorithm.
    pub alg: &'static str,
    /// Graph spec.
    pub graph: &'static str,
    /// Graph and protocol seed.
    pub seed: u64,
    /// A key that recurs (hot set or set-up probe); fresh keys never do.
    pub hot: bool,
}

impl Key {
    fn line(&self, id: u64) -> String {
        format!(
            "{{\"id\":{id},\"cmd\":\"run\",\"alg\":\"{}\",\"graph\":\"{}\",\"seed\":{}}}",
            self.alg, self.graph, self.seed
        )
    }

    fn numbered(n: u64, seed: u64, hot: bool) -> Key {
        Key {
            alg: ALGS[(n % 6) as usize],
            graph: GRAPHS[(n / 6 % 6) as usize],
            seed,
            hot,
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The keys of batch `pass` (`len` requests) for workload seed `seed`.
/// Positions `3 mod 4` are fresh keys, unique across passes; the rest
/// draw hot key `⌊HOT·u²⌋` for a uniform `u`.
pub fn batch(seed: u64, pass: u64, len: usize) -> Vec<Key> {
    let base = (seed % 1_000_000) * 1_000_000_000;
    let mut rng = seed ^ pass.wrapping_mul(0xa076_1d64_78bd_642f);
    (0..len as u64)
        .map(|i| {
            if i % 4 == 3 {
                let fresh = pass * 1_000_000 + i / 4;
                Key::numbered(fresh, base + HOT + fresh, false)
            } else {
                let u = (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
                let hot = ((HOT as f64 * u * u) as u64).min(HOT - 1);
                Key::numbered(hot, base + hot, true)
            }
        })
        .collect()
}

/// A client connection: writes request lines, collects reply lines with
/// their arrival times.
struct Conn {
    stream: UnixStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(path: &Path) -> io::Result<Conn> {
        Ok(Conn {
            stream: UnixStream::connect(path)?,
            buf: Vec::new(),
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")
    }

    /// Waits up to `wait_ns` for bytes; appends every completed line,
    /// stamped with its arrival time, to `got`.
    fn poll(&mut self, wait_ns: u64, got: &mut Vec<(u64, String)>) -> io::Result<()> {
        self.stream.set_read_timeout(Some(timeout(wait_ns)))?;
        let mut chunk = [0u8; 65536];
        let n = match self.stream.read(&mut chunk) {
            Ok(0) => return Err(io::Error::new(ErrorKind::UnexpectedEof, "daemon hung up")),
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(())
            }
            Err(e) => return Err(e),
        };
        let at = now_ns();
        self.buf.extend_from_slice(&chunk[..n]);
        while let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=end).collect();
            got.push((at, String::from_utf8_lossy(&line[..end]).into_owned()));
        }
        Ok(())
    }

    /// Sends one line and waits for one reply.
    fn call(&mut self, line: &str) -> io::Result<(u64, String)> {
        self.send(line)?;
        let deadline = now_ns() + REPLY_TIMEOUT_NS;
        let mut got = Vec::new();
        while got.is_empty() {
            let now = now_ns();
            if now >= deadline {
                return Err(io::Error::new(ErrorKind::TimedOut, "no reply"));
            }
            self.poll(deadline - now, &mut got)?;
        }
        Ok(got.swap_remove(0))
    }
}

/// One answered (or lost) request.
#[derive(Debug, Clone)]
struct Reply {
    key: Key,
    due_ns: u64,
    sent_ns: u64,
    /// Arrival time and line; `None` if no reply came.
    reply: Option<(u64, String)>,
}

impl Reply {
    fn latency_ns(&self) -> Option<u64> {
        self.reply
            .as_ref()
            .map(|(at, _)| at.saturating_sub(self.due_ns))
    }
}

/// Client-side correctness oracle: Kruskal per request graph, and the
/// first result bytes seen per key. Only recurring keys are remembered,
/// so its memory stays flat however many bursts a run sends.
#[derive(Default)]
struct Oracle {
    mst: BTreeMap<(&'static str, u64), (u64, usize)>,
    bodies: BTreeMap<Key, String>,
}

/// What a checked reply carried.
struct Checked {
    source: String,
    wakes: u64,
}

impl Oracle {
    fn kruskal(&mut self, key: &Key, tracer: Option<&mut Tracer>) -> Result<(u64, usize), String> {
        if let Some(&hit) = self.mst.get(&(key.graph, key.seed)) {
            return Ok(hit);
        }
        let g = generators::from_spec(key.graph, key.seed)?;
        let forest = match tracer {
            Some(t) => t.time("graphlib.kruskal", None, key.seed, || mst::kruskal(&g)),
            None => mst::kruskal(&g),
        };
        let entry = (forest.total_weight, forest.edges.len());
        if key.hot {
            self.mst.insert((key.graph, key.seed), entry);
        }
        Ok(entry)
    }

    /// Checks one reply line for `key` (and request id `id`).
    fn check(
        &mut self,
        key: &Key,
        id: u64,
        line: &str,
        tracer: Option<&mut Tracer>,
    ) -> Result<Checked, String> {
        let doc = Json::parse(line).map_err(|e| format!("unparsable reply: {e}"))?;
        let field = |name: &str| doc.get(name).ok_or(format!("reply lacks '{name}': {line}"));
        if field("id")?.as_u64() != Some(id) {
            return Err(format!("reply for the wrong id: {line}"));
        }
        if field("ok")? != &Json::Bool(true) {
            return Err(format!("request failed: {line}"));
        }
        let source = field("source")?.as_str().unwrap_or("").to_string();
        if !matches!(source.as_str(), "exec" | "cache" | "coalesced") {
            return Err(format!("unexpected source: {line}"));
        }
        let result = field("result")?;
        let num = |name: &str| {
            result
                .get(name)
                .and_then(Json::as_u64)
                .ok_or(format!("result lacks '{name}'"))
        };
        let (weight, tree_edges) = self.kruskal(key, tracer)?;
        let spanning_only = key.alg == "spanning-tree";
        let total = num("total_weight")?;
        if num("tree_edges")? as usize != tree_edges
            || (!spanning_only && total != weight)
            || total < weight
        {
            return Err(format!("{key:?}: tree weight {total}, Kruskal {weight}"));
        }
        if num("messages_lost")? != 0 {
            return Err(format!("{key:?}: messages lost"));
        }
        let body = line
            .find("\"result\":")
            .map(|at| &line[at + "\"result\":".len()..line.len() - 1])
            .ok_or("reply without a result body")?;
        match self.bodies.get(key) {
            Some(first) if first != body => {
                return Err(format!(
                    "{key:?}: {source} bytes differ from the first reply"
                ))
            }
            Some(_) => {}
            None if key.hot => {
                self.bodies.insert(*key, body.to_string());
            }
            None => {}
        }
        let avg: f64 = match result.get("awake_avg") {
            Some(Json::Num(raw)) => raw.parse().unwrap_or(0.0),
            _ => 0.0,
        };
        let wakes = (avg * num("nodes")? as f64).round() as u64;
        Ok(Checked { source, wakes })
    }
}

/// A started daemon and the path clients connect to.
struct Daemon {
    server: Server,
    socket: PathBuf,
}

impl Daemon {
    /// Starts a daemon with the program's default configuration.
    fn start(socket: &Path) -> Result<Daemon, String> {
        let server = Server::start(ServeConfig::new(socket))?;
        Ok(Daemon {
            server,
            socket: socket.to_path_buf(),
        })
    }

    fn stop(self) -> Result<ServerStats, String> {
        self.server.begin_shutdown();
        self.server.join()
    }
}

/// Starts a daemon and times its first reply (the set-up time).
fn first_reply(
    socket: &Path,
    seed: u64,
    oracle: &mut Oracle,
    out: &mut Outcome,
) -> Result<(Daemon, u64), String> {
    let key = Key::numbered(0, seed, true);
    let start = now_ns();
    let daemon = Daemon::start(socket)?;
    let mut conn = Conn::open(&daemon.socket).map_err(|e| e.to_string())?;
    let (at, line) = conn.call(&key.line(0)).map_err(|e| e.to_string())?;
    out.attempted += 1;
    if let Err(e) = oracle.check(&key, 0, &line, None) {
        out.fail(e);
    }
    Ok((daemon, at - start))
}

/// Opens the [`CONNS`] client connections a closed loop keeps for the
/// whole run, as clients of a daemon do.
fn open_conns(socket: &Path) -> Result<Vec<Conn>, String> {
    (0..CONNS)
        .map(|_| Conn::open(socket).map_err(|e| e.to_string()))
        .collect()
}

/// Replays `keys` closed-loop over `conns`, one thread and one request in
/// flight on each; returns the replies in key order and the wall time.
fn closed_loop(conns: &mut [Conn], keys: &[Key]) -> Result<(Vec<Reply>, u64), String> {
    let start = now_ns();
    let lanes = conns.len();
    let parts: Vec<Vec<(usize, Reply)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let mine = keys.iter().enumerate().skip(c).step_by(lanes);
                    mine.map(|(i, key)| {
                        let sent = now_ns();
                        let reply = conn.call(&key.line(i as u64)).ok();
                        let reply = Reply {
                            key: *key,
                            due_ns: sent,
                            sent_ns: sent,
                            reply,
                        };
                        (i, reply)
                    })
                    .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
            .collect::<Result<_, _>>()
    })?;
    let wall = now_ns() - start;
    let mut all: Vec<(usize, Reply)> = parts.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    Ok((all.into_iter().map(|(_, r)| r).collect(), wall))
}

/// Sends `keys` open-loop at `rate` requests per second on one
/// connection (request `i` due `i / rate` after the start): this thread
/// writes each line when it is due, a second one reads the replies.
fn open_loop(socket: &Path, keys: &[Key], rate: u64) -> Result<Vec<Reply>, String> {
    let gap = 1_000_000_000 / rate;
    let mut conn = Conn::open(socket).map_err(|e| e.to_string())?;
    let mut reader = Conn {
        stream: conn.stream.try_clone().map_err(|e| e.to_string())?,
        buf: Vec::new(),
    };
    let start = now_ns() + 5_000_000;
    let (sent, got) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut got = Vec::with_capacity(keys.len());
            let deadline = start + keys.len() as u64 * gap + REPLY_TIMEOUT_NS;
            while got.len() < keys.len() {
                let now = now_ns();
                if now >= deadline || reader.poll(deadline - now, &mut got).is_err() {
                    break;
                }
            }
            got
        });
        let mut sent = Vec::with_capacity(keys.len());
        for (i, key) in keys.iter().enumerate() {
            let due = start + i as u64 * gap;
            sleep_until(due);
            let at = now_ns();
            if conn.send(&key.line(i as u64)).is_err() {
                break;
            }
            sent.push((due, at));
        }
        (sent, collector.join().unwrap_or_default())
    });
    let mut by_id: BTreeMap<u64, (u64, String)> = got
        .into_iter()
        .map(|(at, line)| (reply_id(&line), (at, line)))
        .collect();
    Ok(keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            let (due_ns, sent_ns) = sent.get(i).copied().unwrap_or((start, start));
            Reply {
                key: *key,
                due_ns,
                sent_ns,
                reply: by_id.remove(&(i as u64)),
            }
        })
        .collect())
}

fn reply_id(line: &str) -> u64 {
    Json::parse(line)
        .ok()
        .and_then(|doc| doc.get("id").and_then(Json::as_u64))
        .unwrap_or(u64::MAX)
}

/// Checks every reply of a batch; returns the checked replies beside
/// their requests (failed ones left out) and counts every request.
fn check_all<'r>(
    replies: &'r [Reply],
    oracle: &mut Oracle,
    out: &mut Outcome,
) -> Vec<(&'r Reply, Checked)> {
    let mut good = Vec::new();
    for (i, r) in replies.iter().enumerate() {
        out.attempted += 1;
        let Some((_, line)) = &r.reply else {
            out.fail(format!("{:?}: no reply", r.key));
            continue;
        };
        match oracle.check(&r.key, i as u64, line, None) {
            Ok(c) => good.push((r, c)),
            Err(e) => out.fail(e),
        }
    }
    good
}

fn socket_path(out_dir: &Path, role: &str) -> PathBuf {
    out_dir.join(format!("pb-{}-{role}.sock", std::process::id()))
}

/// The untraced pass: a daemon, a warm-up batch, then closed-loop
/// batches until `budget_ns` has passed (at least `min_batches`). Each
/// batch is a burst the daemon's admission bucket can hold; the next one
/// starts once the bucket has refilled, so no request is shed. In every
/// [`SETUP_EVERY`]th pause a second daemon is started, timed to its first
/// reply, and stopped: `setup_s` is the median of those times.
pub fn run_untraced(
    seed: u64,
    budget_ns: u64,
    min_batches: usize,
    batch_len: usize,
    out_dir: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    let mut oracle = Oracle::default();
    let socket = socket_path(out_dir, "main");
    let spare = socket_path(out_dir, "setup");
    let (daemon, first) = match first_reply(&socket, seed, &mut oracle, &mut out) {
        Ok(d) => d,
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            return out;
        }
    };
    let mut setup_ns = vec![first];
    let mut conns = match open_conns(&daemon.socket) {
        Ok(c) => c,
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            return out;
        }
    };
    let admission = ServeConfig::new(&socket);
    let refill_ns = batch_len as u64 * 1_250_000_000 / admission.refill_per_sec.max(1);
    let (mut best_ns, mut wakes, mut timed) = (u64::MAX, 0u64, 0u64);
    let deadline = now_ns() + budget_ns;
    let mut pass = 0u64;
    while pass < WARM_PASSES + min_batches as u64 || now_ns() < deadline {
        let started = now_ns();
        let keys = batch(seed, pass, batch_len);
        let (replies, wall) = match closed_loop(&mut conns, &keys) {
            Ok(r) => r,
            Err(e) => {
                out.attempted += keys.len() as u64;
                out.fail(e);
                break;
            }
        };
        let checked = check_all(&replies, &mut oracle, &mut out);
        if pass >= WARM_PASSES {
            wakes += checked
                .iter()
                .filter(|(_, c)| c.source == "exec")
                .map(|(_, c)| c.wakes)
                .sum::<u64>();
            timed += 1;
            best_ns = best_ns.min(wall);
        }
        if pass.is_multiple_of(SETUP_EVERY) {
            match first_reply(&spare, seed, &mut oracle, &mut out) {
                Ok((d, ns)) => {
                    setup_ns.push(ns);
                    if let Err(e) = d.stop() {
                        out.fail(e);
                    }
                }
                Err(e) => out.fail(e),
            }
        }
        pass += 1;
        sleep_until(started + refill_ns);
    }
    if let Err(e) = daemon.stop() {
        out.fail(e);
    }
    out.metrics = EndToEnd {
        setup_s: median(&setup_ns.iter().map(|&n| secs(n)).collect::<Vec<_>>()),
        run_s: secs(best_ns),
        wakes_per_s: wakes as f64 / timed.max(1) as f64 / secs(best_ns),
        peak_rss_bytes: peak_rss_bytes(),
    }
    .metrics();
    out
}

/// Latency figures of one open-loop step.
struct Step {
    rate: u64,
    latencies: Vec<u64>,
    hits: Vec<u64>,
    misses: Vec<(Key, u64)>,
    lags: Vec<u64>,
    ok_within_limit: u64,
    failed: u64,
    span_ns: u64,
}

impl Step {
    fn p99_ms(&self) -> f64 {
        millis(quantile(&self.latencies, 0.99))
    }

    /// Meets the p99 limit with every request answered, and the last
    /// quarter's median latency is within the limit too (no backlog
    /// still growing at the end).
    fn meets_limit(&self) -> bool {
        let tail = &self.latencies[self.latencies.len() * 3 / 4..];
        self.failed == 0
            && self.p99_ms() <= P99_LIMIT_MS
            && millis(quantile(tail, 0.5)) <= P99_LIMIT_MS
    }
}

fn step(
    socket: &Path,
    seed: u64,
    pass: u64,
    rate: u64,
    len: usize,
    oracle: &mut Oracle,
    out: &mut Outcome,
) -> Result<Step, String> {
    let keys = batch(seed, pass, len);
    let replies = open_loop(socket, &keys, rate)?;
    let failed_before = out.failed;
    let checked = check_all(&replies, oracle, out);
    let mut s = Step {
        rate,
        latencies: Vec::new(),
        hits: Vec::new(),
        misses: Vec::new(),
        lags: replies.iter().map(|r| r.sent_ns - r.due_ns).collect(),
        ok_within_limit: 0,
        failed: out.failed - failed_before,
        span_ns: replies.last().map_or(1, |r| r.due_ns) - replies.first().map_or(0, |r| r.due_ns),
    };
    for (r, c) in &checked {
        let lat = r.latency_ns().unwrap_or(u64::MAX);
        s.latencies.push(lat);
        if millis(lat) <= P99_LIMIT_MS {
            s.ok_within_limit += 1;
        }
        match c.source.as_str() {
            "cache" => s.hits.push(lat),
            "exec" => s.misses.push((r.key, lat)),
            _ => {}
        }
    }
    // A failed request misses every latency limit.
    s.latencies
        .extend(std::iter::repeat_n(u64::MAX, s.failed as usize));
    Ok(s)
}

/// In-process replay of `keys` through the front-door functions the
/// daemon calls, on `cache`. Traced when `tracer` is given: one
/// `serve.request` span per request with the layer calls beneath it.
/// Returns the wall time and the response lines.
fn replay(
    keys: &[Key],
    cache: &mut ResultCache,
    scratch: &mut MstScratch,
    mut tracer: Option<&mut Tracer>,
    stats: &mut ReplayStats,
) -> Result<(u64, Vec<String>), String> {
    let lines: Vec<String> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| k.line(i as u64))
        .collect();
    let mut responses = Vec::with_capacity(lines.len());
    let start = now_ns();
    let root = tracer
        .as_deref_mut()
        .map(|t| t.begin("bench.replay", None, 0));
    for (i, line) in lines.iter().enumerate() {
        responses.push(match tracer.as_deref_mut() {
            None => front_door(line, cache, scratch)?,
            Some(t) => traced_front_door(line, i as u64, cache, scratch, t, root, stats)?,
        });
    }
    if let (Some(t), Some(root)) = (tracer, root) {
        t.end(root);
    }
    Ok((now_ns() - start, responses))
}

/// The daemon's path for one line, untraced: parse, key, cache, execute
/// on a miss, render.
fn front_door(
    line: &str,
    cache: &mut ResultCache,
    scratch: &mut MstScratch,
) -> Result<String, String> {
    let envelope = parse_request(line).map_err(|e| e.message)?;
    let fingerprint = envelope.request.fingerprint().unwrap_or(0);
    let Request::Run(run) = envelope.request else {
        return Err("not a run request".into());
    };
    if let Some(hit) = cache.get(fingerprint) {
        return Ok(render_response(
            envelope.id,
            Source::Cache,
            hit.ok,
            &hit.body,
        ));
    }
    let graph = generators::from_spec(&run.graph, run.seed)?;
    let outcome = run
        .alg
        .run_with_options(&graph, &run.exec_options(), scratch)
        .map_err(|e| e.to_string())?;
    let body: Arc<str> = render_run_result(
        run.alg,
        &graph,
        run.seed,
        run.faults.as_ref(),
        run.energy.as_ref(),
        &outcome,
    )
    .into();
    cache.insert(fingerprint, true, body.clone());
    Ok(render_response(envelope.id, Source::Exec, true, &body))
}

/// Counts the traced replay gathers.
#[derive(Debug, Default)]
struct ReplayStats {
    requests: u64,
    misses: u64,
    node_wakes: u64,
    rounds: u64,
    active_rounds: u64,
    messages: u64,
    arena_peak: u64,
    phases: u64,
    graph_bytes: Vec<u64>,
    /// Service time of each miss, by algorithm × graph.
    service: BTreeMap<(&'static str, &'static str), Vec<u64>>,
}

#[allow(clippy::too_many_arguments)]
fn traced_front_door(
    line: &str,
    id: u64,
    cache: &mut ResultCache,
    scratch: &mut MstScratch,
    t: &mut Tracer,
    root: Option<usize>,
    stats: &mut ReplayStats,
) -> Result<String, String> {
    stats.requests += 1;
    let req = t.begin("serve.request", root, id);
    let envelope = t
        .time("serve.parse", Some(req), id, || parse_request(line))
        .map_err(|e| e.message)?;
    let fingerprint = t.time("serve.key", Some(req), id, || {
        envelope.request.fingerprint()
    });
    let Request::Run(run) = envelope.request else {
        return Err("not a run request".into());
    };
    let fingerprint = fingerprint.unwrap_or(0);
    let hit = t.time("serve.cache", Some(req), id, || cache.get(fingerprint));
    let response = if let Some(hit) = hit {
        t.time("serve.render", Some(req), id, || {
            render_response(envelope.id, Source::Cache, hit.ok, &hit.body)
        })
    } else {
        stats.misses += 1;
        let graph = t.time("graphlib.build", Some(req), id, || {
            generators::from_spec(&run.graph, run.seed)
        })?;
        stats.graph_bytes.push(graph.memory_bytes());
        let exec = t.begin("serve.exec", Some(req), id);
        let mut sink = SpanSink {
            tracer: t,
            parent: Some(exec),
            id,
        };
        let (outcome, counts) =
            run_traced(run.alg, &graph, &run.exec_options(), scratch, &mut sink)?;
        t.end(exec);
        stats.node_wakes += outcome.stats.awake_total();
        stats.rounds += outcome.stats.rounds;
        stats.active_rounds += counts.active_rounds;
        stats.messages += outcome.stats.messages_sent();
        stats.arena_peak = stats.arena_peak.max(outcome.stats.arena_peak_envelopes);
        stats.phases += outcome.phases;
        let body: Arc<str> = t
            .time("serve.render", Some(req), id, || {
                render_run_result(
                    run.alg,
                    &graph,
                    run.seed,
                    run.faults.as_ref(),
                    run.energy.as_ref(),
                    &outcome,
                )
            })
            .into();
        t.time("serve.cache", Some(req), id, || {
            cache.insert(fingerprint, true, body.clone());
        });
        t.time("serve.render", Some(req), id, || {
            render_response(envelope.id, Source::Exec, true, &body)
        })
    };
    t.end(req);
    if response.contains("\"source\":\"exec\"") {
        let key = (run.alg.name, graph_name(&run.graph));
        stats
            .service
            .entry(key)
            .or_default()
            .push(t.spans()[req].dur());
    }
    Ok(response)
}

fn graph_name(spec: &str) -> &'static str {
    GRAPHS.iter().find(|g| **g == spec).copied().unwrap_or("")
}

/// The traced pass: a warm-up batch, the open-loop steps against the
/// daemon, then the in-process replay (untraced, then traced) for the
/// layer split. Returns the outcome and the spans.
pub fn run_traced_pass(
    seed: u64,
    step_len: usize,
    batch_len: usize,
    out_dir: &Path,
) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    match traced_pass(seed, step_len, batch_len, out_dir, &mut out, &mut tracer) {
        Ok(layers) => out.metrics = layers.metrics(),
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            out.metrics = Layers::default().metrics();
        }
    }
    (out, tracer)
}

fn traced_pass(
    seed: u64,
    step_len: usize,
    batch_len: usize,
    out_dir: &Path,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<Layers, String> {
    let mut oracle = Oracle::default();
    let socket = socket_path(out_dir, "main");
    let (daemon, _) = first_reply(&socket, seed, &mut oracle, out)?;
    let warm_keys: Vec<Key> = (0..WARM_PASSES)
        .flat_map(|pass| batch(seed, pass, batch_len))
        .collect();
    let (warm, _) = closed_loop(&mut open_conns(&daemon.socket)?, &warm_keys)?;
    check_all(&warm, &mut oracle, out);
    let mut steps = Vec::new();
    for (i, &rate) in RATES.iter().enumerate() {
        steps.push(step(
            &daemon.socket,
            seed,
            WARM_PASSES + i as u64,
            rate,
            step_len,
            &mut oracle,
            out,
        )?);
        sleep_until(now_ns() + 50_000_000);
    }
    let stats = daemon.stop()?;

    // Replay: two caches warmed alike, so the untraced and the traced
    // replay of the same batch do identical work.
    let mut scratch = MstScratch::new();
    let (mut plain, mut traced) = (ResultCache::new(256), ResultCache::new(256));
    let mut ignored = ReplayStats::default();
    replay(&warm_keys, &mut plain, &mut scratch, None, &mut ignored)?;
    replay(&warm_keys, &mut traced, &mut scratch, None, &mut ignored)?;
    let keys = batch(seed, 1000, batch_len);
    let (untraced_ns, plain_lines) = replay(&keys, &mut plain, &mut scratch, None, &mut ignored)?;
    let mut rs = ReplayStats::default();
    let (traced_ns, traced_lines) =
        replay(&keys, &mut traced, &mut scratch, Some(tracer), &mut rs)?;
    for (i, key) in keys.iter().enumerate() {
        out.attempted += 1;
        // Both replays, like the daemon, must give each key the same bytes.
        for line in [&plain_lines[i], &traced_lines[i]] {
            if let Err(e) = oracle.check(key, i as u64, line, Some(tracer)) {
                out.fail(e);
                break;
            }
        }
    }

    let middle = &steps[RATES.len() / 2];
    let requests = rs.requests.max(1) as f64;
    let by = tracer.self_by_name(|s| s.name != "graphlib.kruskal");
    let get = |name: &str| by.get(name).copied().unwrap_or(0);
    let layer_names = [
        "serve.request",
        "serve.parse",
        "serve.key",
        "serve.cache",
        "serve.render",
        "serve.exec",
        "graphlib.build",
        "netsim.sim",
        "mst_core.protocol",
        "mst_core.collect",
    ];
    let layer_sum: u64 = layer_names.iter().map(|n| get(n)).sum();
    let service_ms = |key: &Key| {
        rs.service
            .get(&(key.alg, key.graph))
            .map(|v| quantile(v, 0.5))
    };
    let waits: Vec<u64> = middle
        .misses
        .iter()
        .filter_map(|(k, lat)| service_ms(k).map(|s| lat.saturating_sub(s)))
        .collect();
    let all_requests: u64 = steps.iter().map(|s| s.latencies.len() as u64).sum();
    let all_hits: u64 = steps.iter().map(|s| s.hits.len() as u64).sum();
    let lags: Vec<u64> = steps.iter().flat_map(|s| s.lags.iter().copied()).collect();
    let exec_total: u64 = tracer.durations("serve.exec").iter().sum();
    Ok(Layers {
        build_s: secs(quantile(&tracer.durations("graphlib.build"), 0.5)),
        graph_bytes: quantile(&rs.graph_bytes, 0.5),
        kruskal_s: secs(quantile(&tracer.durations("graphlib.kruskal"), 0.5)),
        sim_s: secs(get("netsim.sim") + get("mst_core.protocol")),
        engine_self_s: secs(get("netsim.sim")),
        node_wakes: rs.node_wakes,
        rounds: rs.rounds,
        active_rounds: rs.active_rounds,
        messages: rs.messages,
        arena_peak_envelopes: rs.arena_peak,
        protocol_s: secs(get("mst_core.protocol")),
        collect_s: secs(get("mst_core.collect")),
        phases: rs.phases,
        parse_us: get("serve.parse") as f64 / 1e3 / requests,
        key_us: get("serve.key") as f64 / 1e3 / requests,
        cache_us: get("serve.cache") as f64 / 1e3 / requests,
        render_us: get("serve.render") as f64 / 1e3 / requests,
        exec_ms: millis(exec_total) / rs.misses.max(1) as f64,
        queue_wait_ms: millis(quantile(&waits, 0.5)),
        hit_latency_p50_ms: millis(quantile(&middle.hits, 0.5)),
        miss_latency_p50_ms: millis(quantile(
            &middle.misses.iter().map(|m| m.1).collect::<Vec<_>>(),
            0.5,
        )),
        miss_latency_p99_ms: millis(quantile(
            &middle.misses.iter().map(|m| m.1).collect::<Vec<_>>(),
            0.99,
        )),
        hit_ratio: all_hits as f64 / all_requests.max(1) as f64,
        coalesced: stats.counters.coalesced,
        shed: stats.counters.shed,
        rejected: stats.counters.rejected,
        latency_p50_ms: millis(quantile(&middle.latencies, 0.5)),
        latency_p99_ms: middle.p99_ms(),
        latency_samples: middle.latencies.len() as u64,
        goodput_rps: middle.ok_within_limit as f64 / secs(middle.span_ns.max(1)),
        max_ok_rps: steps
            .iter()
            .filter(|s| s.meets_limit())
            .map(|s| s.rate as f64)
            .fold(0.0, f64::max),
        lag_p99_ms: millis(quantile(&lags, 0.99)),
        overhead_frac: traced_ns as f64 / untraced_ns as f64 - 1.0,
        layer_sum_frac: layer_sum as f64 / traced_ns as f64,
        error_rate: out.failed as f64 / out.attempted.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_seeded_and_mixed() {
        let a = batch(7, 3, BATCH);
        assert_eq!(a, batch(7, 3, BATCH));
        assert_ne!(a, batch(8, 3, BATCH));
        let fresh: Vec<&Key> = a.iter().skip(3).step_by(4).collect();
        assert_eq!(fresh.len(), BATCH / 4);
        let distinct: std::collections::BTreeSet<&Key> = a.iter().collect();
        assert!(distinct.len() > BATCH / 4 && distinct.len() < BATCH / 4 + HOT as usize + 1);
        assert!(fresh.iter().all(|k| !k.hot));
        assert_eq!(a.iter().filter(|k| k.hot).count(), BATCH * 3 / 4);
        // Fresh keys never repeat across batches.
        let next: std::collections::BTreeSet<Key> = batch(7, 4, BATCH).into_iter().collect();
        assert!(fresh.iter().all(|k| !next.contains(k)));
        for k in &a {
            assert!(parse_request(&k.line(1)).is_ok());
        }
    }
}
