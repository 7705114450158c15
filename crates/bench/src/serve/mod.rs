//! Sweep-as-a-service: the `sleeping-mst serve` daemon.
//!
//! A long-lived process owning a fixed worker pool of warm executor
//! scratches, accepting newline-delimited JSON requests (run / sweep /
//! report / chaos — see [`protocol`]) over a Unix domain socket and
//! answering each line with exactly one response line. Three properties
//! the whole design hangs on:
//!
//! * **Bit-determinism is cacheability.** Every simulation artifact is
//!   a pure function of its canonical request
//!   ([`mst_core::wire::CanonicalRun`]), so responses are cached in a
//!   bounded deterministic LRU ([`cache::ResultCache`]) and identical
//!   in-flight requests coalesce onto a single execution — the repeat
//!   requester gets the *same bytes* the cold run produced, marked
//!   `"source":"cache"` / `"coalesced"` so clients can tell.
//! * **Admission, not queueing.** A token bucket
//!   ([`admission::TokenBucket`]) guards the front door; over-budget
//!   requests are shed immediately with the typed error
//!   `serve.over-capacity` instead of piling up latency behind the pool.
//! * **Graceful drain.** Shutdown (a `shutdown` request or
//!   [`Server::begin_shutdown`]) stops accepting work, lets every
//!   queued and in-flight job publish its response, then tears down
//!   workers, connections, and the socket file — no request that was
//!   admitted is ever dropped.
//!
//! The wall clock appears in exactly two places — the daemon's monotonic
//! epoch (admission timestamps) and the loadgen's latency measurements —
//! both quarantined behind explicit `wall-clock` lint waivers; everything
//! the simulator computes stays seed-deterministic.

pub mod admission;
pub mod cache;
pub mod protocol;
pub(crate) mod worker;

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
// lint:allow(wall-clock) -- the daemon's monotonic epoch for admission timestamps
use std::time::Instant;

use mst_core::MstScratch;

use self::admission::TokenBucket;
use self::protocol::{render_error_body, render_response, Request, Source};
use self::worker::{Dispatch, Job, JobKind};

pub use self::worker::Counters;

/// Longest request line the daemon buffers, in bytes (terminator
/// excluded). A longer line gets one typed `request.parse` reject and is
/// discarded up to its newline, so a newline-free stream cannot make a
/// connection buffer without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-domain socket path; a stale file is replaced at bind time.
    pub socket: PathBuf,
    /// Worker threads, each owning one warm [`MstScratch`]. Min 1.
    pub workers: usize,
    /// Result-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Token-bucket burst capacity.
    pub bucket_capacity: u64,
    /// Token-bucket refill rate (tokens per second).
    pub refill_per_sec: u64,
}

impl ServeConfig {
    /// A config with production-ish defaults on the given socket path.
    pub fn new(socket: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            socket: socket.into(),
            workers: 2,
            cache_capacity: 256,
            bucket_capacity: 4096,
            refill_per_sec: 4096,
        }
    }
}

/// Final state a drained daemon reports from [`Server::join`].
#[derive(Debug, Clone, Copy)]
pub struct ServerStats {
    /// Front-door counters.
    pub counters: Counters,
    /// Entries resident in the cache at shutdown.
    pub cache_len: usize,
    /// Entries evicted over the daemon's lifetime.
    pub cache_evictions: u64,
}

struct ServerInner {
    dispatch: Arc<Dispatch>,
    /// Monotonic epoch; admission timestamps are nanoseconds since this.
    epoch: Instant,
    shutdown: AtomicBool,
    socket: PathBuf,
    workers: usize,
    /// Write-half clones of the live connections, keyed by connection
    /// id, for forced close during teardown. A connection removes its
    /// own entry when it ends.
    conns: Mutex<BTreeMap<u64, UnixStream>>,
    /// Per-connection reader threads (each joins its own writer). The
    /// accept loop joins the finished ones before adding a new one.
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerInner {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut st = self.dispatch.state.lock().expect("dispatch lock");
            st.draining = true;
        }
        self.dispatch.work.notify_all();
        // Unblock the accept loop so it can observe the flag.
        let _ = UnixStream::connect(&self.socket);
    }
}

/// A running daemon. Start with [`Server::start`], stop with a client
/// `shutdown` request or [`Server::begin_shutdown`], then reap with
/// [`Server::join`].
pub struct Server {
    inner: Arc<ServerInner>,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the socket (replacing a stale file), spawns the worker pool
    /// and the accept loop, and returns immediately.
    pub fn start(config: ServeConfig) -> Result<Server, String> {
        let _ = std::fs::remove_file(&config.socket);
        let listener = UnixListener::bind(&config.socket)
            .map_err(|e| format!("cannot bind {}: {e}", config.socket.display()))?;
        let dispatch = Arc::new(Dispatch::new(
            config.cache_capacity,
            TokenBucket::new(config.bucket_capacity, config.refill_per_sec),
        ));
        let inner = Arc::new(ServerInner {
            dispatch: Arc::clone(&dispatch),
            // lint:allow(wall-clock) -- admission timestamps are relative to this monotonic epoch
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            socket: config.socket.clone(),
            workers: config.workers.max(1),
            conns: Mutex::new(BTreeMap::new()),
            readers: Mutex::new(Vec::new()),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let dispatch = Arc::clone(&dispatch);
                thread::spawn(move || {
                    let mut scratch = MstScratch::new();
                    dispatch.worker_loop(&mut scratch);
                })
            })
            .collect();
        let accept_inner = Arc::clone(&inner);
        let listener = thread::spawn(move || {
            for (id, conn) in (0u64..).zip(listener.incoming()) {
                if accept_inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                // Registered before the reader starts, so the reader's
                // removal on exit always finds the entry.
                if let Ok(clone) = stream.try_clone() {
                    accept_inner
                        .conns
                        .lock()
                        .expect("conns lock")
                        .insert(id, clone);
                }
                let conn_inner = Arc::clone(&accept_inner);
                let handle = thread::spawn(move || {
                    handle_conn(&conn_inner, stream);
                    conn_inner.conns.lock().expect("conns lock").remove(&id);
                });
                let mut readers = accept_inner.readers.lock().expect("readers lock");
                join_finished(&mut readers);
                readers.push(handle);
            }
        });
        Ok(Server {
            inner,
            listener: Some(listener),
            workers,
        })
    }

    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.inner.socket
    }

    /// Initiates graceful shutdown from the hosting process (equivalent
    /// to a client `shutdown` request). Idempotent.
    pub fn begin_shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Blocks until shutdown is initiated, every admitted job has
    /// published its response, and all threads have exited; removes the
    /// socket file and returns the final counters.
    pub fn join(mut self) -> Result<ServerStats, String> {
        if let Some(listener) = self.listener.take() {
            listener.join().map_err(|_| "accept loop panicked")?;
        }
        {
            let mut st = self.inner.dispatch.state.lock().expect("dispatch lock");
            while !(st.queue.is_empty() && st.in_flight.is_empty()) {
                st = self.inner.dispatch.idle.wait(st).expect("dispatch lock");
            }
        }
        self.inner.dispatch.work.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().map_err(|_| "worker panicked")?;
        }
        let conns = std::mem::take(&mut *self.inner.conns.lock().expect("conns lock"));
        for conn in conns.values() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let readers: Vec<JoinHandle<()>> = self
            .inner
            .readers
            .lock()
            .expect("readers lock")
            .drain(..)
            .collect();
        for reader in readers {
            let _ = reader.join();
        }
        let _ = std::fs::remove_file(&self.inner.socket);
        let st = self.inner.dispatch.state.lock().expect("dispatch lock");
        Ok(ServerStats {
            counters: st.counters,
            cache_len: st.cache.len(),
            cache_evictions: st.cache.evictions,
        })
    }
}

/// Joins and removes the reader threads that have already returned, so
/// the handles of ended connections do not pile up.
fn join_finished(readers: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < readers.len() {
        if readers[i].is_finished() {
            let _ = readers.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// One connection: a reader loop on this thread plus a dedicated writer
/// thread, decoupled by a channel so a worker publishing a result never
/// blocks on a slow client socket.
fn handle_conn(inner: &ServerInner, stream: UnixStream) {
    let (tx, rx) = mpsc::channel::<String>();
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = thread::spawn(move || {
        let mut out = BufWriter::new(write_half);
        for line in rx {
            // A hung-up client just loses its remaining lines; keep
            // draining the channel so senders never observe an error.
            let _ = out
                .write_all(line.as_bytes())
                .and_then(|()| out.write_all(b"\n"))
                .and_then(|()| out.flush());
        }
    });
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        match read_bounded_line(&mut reader, &mut buf) {
            Ok(LineRead::Line) => {
                // Invalid UTF-8 closes the connection, as it always has.
                let Ok(line) = std::str::from_utf8(&buf) else {
                    break;
                };
                if !line.trim().is_empty() {
                    respond(inner, line.trim(), &tx);
                }
            }
            Ok(LineRead::TooLong) => reject(
                inner,
                &tx,
                0,
                protocol::codes::PARSE,
                &format!("request line longer than {MAX_LINE_BYTES} bytes"),
            ),
            Ok(LineRead::End) | Err(_) => break,
        }
    }
    drop(tx);
    let _ = writer.join();
}

/// What [`read_bounded_line`] found.
#[derive(Debug, PartialEq, Eq)]
enum LineRead {
    /// A line of at most [`MAX_LINE_BYTES`] bytes is in the buffer.
    Line,
    /// The line was longer; it has been consumed and discarded.
    TooLong,
    /// End of stream with nothing read.
    End,
}

/// Reads one newline-terminated line into `buf` (terminator stripped),
/// never holding more than [`MAX_LINE_BYTES`] bytes of it: past the cap
/// the rest of the line is consumed and dropped. A final line without a
/// newline still counts, like [`BufRead::lines`].
fn read_bounded_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<LineRead> {
    buf.clear();
    let mut too_long = false;
    let mut read_any = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(match (read_any, too_long) {
                (false, _) => LineRead::End,
                (true, false) => LineRead::Line,
                (true, true) => LineRead::TooLong,
            });
        }
        read_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if !too_long {
            if buf.len() + take > MAX_LINE_BYTES {
                too_long = true;
                buf.clear();
            } else {
                buf.extend_from_slice(&chunk[..take]);
            }
        }
        reader.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            return Ok(if too_long {
                LineRead::TooLong
            } else {
                LineRead::Line
            });
        }
    }
}

/// Answers a request that never reached the front door with one typed
/// reject reply, counted as `rejected`.
fn reject(inner: &ServerInner, tx: &Sender<String>, id: u64, code: &str, message: &str) {
    inner
        .dispatch
        .state
        .lock()
        .expect("dispatch lock")
        .counters
        .rejected += 1;
    let body = render_error_body(code, message);
    let _ = tx.send(render_response(id, Source::Reject, false, &body));
}

/// Handles one request line: immediate response for control-plane,
/// reject, shed, and cache-hit paths; queued/coalesced work responds
/// later through the connection's writer channel.
fn respond(inner: &ServerInner, line: &str, tx: &Sender<String>) {
    let envelope = match protocol::parse_request(line) {
        Err(err) => {
            reject(inner, tx, err.id, err.code, &err.message);
            return;
        }
        Ok(envelope) => envelope,
    };
    match envelope.request {
        Request::Stats => {
            let body = {
                let st = inner.dispatch.state.lock().expect("dispatch lock");
                st.counters
                    .render(st.cache.len(), st.cache.evictions, inner.workers)
            };
            let _ = tx.send(render_response(envelope.id, Source::Control, true, &body));
        }
        Request::Shutdown => {
            let _ = tx.send(render_response(
                envelope.id,
                Source::Control,
                true,
                "{\"draining\":true}",
            ));
            inner.begin_shutdown();
        }
        request => {
            let fingerprint = request.fingerprint().expect("cacheable request");
            let kind = match request {
                Request::Run(run) => JobKind::Run(run),
                Request::Sweep {
                    algs,
                    template,
                    sizes,
                    seeds,
                } => JobKind::Sweep {
                    algs,
                    template,
                    sizes,
                    seeds,
                },
                Request::Report { sizes, seeds } => JobKind::Report { sizes, seeds },
                Request::Chaos {
                    seed,
                    sizes,
                    trials,
                } => JobKind::Chaos {
                    seed,
                    sizes,
                    trials,
                },
                Request::Stats | Request::Shutdown => unreachable!("handled above"),
            };
            let now_nanos = inner.epoch.elapsed().as_nanos() as u64;
            let immediate = inner.dispatch.submit(
                Job { fingerprint, kind },
                envelope.id,
                tx.clone(),
                now_nanos,
            );
            if let Some(line) = immediate {
                let _ = tx.send(line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_lines_cap_and_resynchronize_at_the_next_newline() {
        let mut input = b"first\n".to_vec();
        input.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES + 1));
        input.extend_from_slice(b"\n");
        input.extend(std::iter::repeat_n(b'y', MAX_LINE_BYTES));
        input.extend_from_slice(b"\nlast");
        // A small buffer makes every line span many `fill_buf` chunks.
        let mut reader = BufReader::with_capacity(4096, input.as_slice());
        let mut buf = Vec::new();
        let mut next = || {
            let read = read_bounded_line(&mut reader, &mut buf).expect("in-memory read");
            (read, buf.len(), buf.first().copied())
        };
        assert_eq!(next(), (LineRead::Line, 5, Some(b'f')));
        assert_eq!(next(), (LineRead::TooLong, 0, None));
        assert_eq!(next(), (LineRead::Line, MAX_LINE_BYTES, Some(b'y')));
        assert_eq!(next(), (LineRead::Line, 4, Some(b'l')));
        assert_eq!(next(), (LineRead::End, 0, None));
    }
}
