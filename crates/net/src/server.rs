//! The framed socket server: TCP + Unix listeners over one
//! [`IngestService`].
//!
//! ## Threading
//!
//! The runtime is single-writer, so the server keeps it — with the
//! connection table — behind **one lock**, and each connection's reader
//! thread serves its own requests: decode a frame, apply it under the
//! server lock (requests are serialized in lock order), take the
//! connection's write lock, release the server lock, write the reply. A
//! reply is written holding only its connection's write lock, so a client
//! that stops reading stalls itself (up to `write_timeout`), never the
//! others. Lock order is always server → connection. Listeners block in
//! `accept`; `serve`'s own thread sleeps on a condvar until `Shutdown` (or
//! [`ServerHandle::stop`]), wakes them with one self-connect, and drains.
//!
//! Backpressure is the runtime's own: a full mailbox rejects the push typed
//! and the client backs off — the server never buffers segments itself, so
//! a slow joint plan cannot hide unbounded queues in the front-end.
//!
//! ## Failure containment
//!
//! A malformed, torn, or checksum-bad frame is answered with a typed
//! [`Reply::Error`] and a connection close; the runtime never observes
//! the bytes. A disconnect mid-epoch auto-closes the connection's streams
//! (in-band markers), so the next joint plan redistributes their cores
//! and wallet share instead of waiting on a ghost. A panic while applying a
//! request poisons the server lock and fails `serve`. Shutdown drains
//! gracefully: the runtime settles every stream across the final barrier
//! and each surviving connection receives, after its earlier replies, the
//! [`Reply::Outcome`] of every stream it opened.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;
use std::time::{Duration, Instant};

use skyscraper::obs::{CounterId, HistId};
use skyscraper::serve::proto::{Reply, Request};
use skyscraper::serve::IngestService;
use skyscraper::{MultiOutcome, SkyError, StreamId};

use crate::frame::{
    read_frame, read_preamble, write_frame, write_preamble, FrameIn, NetError, Sock,
    MAX_FRAME_BYTES,
};

/// Server configuration. At least one of `tcp`/`unix` must be set.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP bind address (e.g. `127.0.0.1:0`), if serving TCP.
    pub tcp: Option<String>,
    /// Unix-domain socket path, if serving Unix. A stale socket file at
    /// the path is removed before binding.
    pub unix: Option<PathBuf>,
    /// Server identity echoed in `Hello` replies.
    pub server_name: String,
    /// Socket read timeout — the poll tick at which blocked reads check
    /// the stop flag. Also the tick granularity of `stall_ticks`.
    pub read_timeout: Duration,
    /// Socket write timeout; a write that stalls this long tears the
    /// connection down.
    pub write_timeout: Duration,
    /// Cap on a single frame body.
    pub max_frame_bytes: usize,
    /// Consecutive idle read ticks a *partially received* frame may stall
    /// before the connection is declared torn (`read_timeout` each).
    pub stall_ticks: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            tcp: None,
            unix: None,
            server_name: "skyscraper".into(),
            read_timeout: Duration::from_millis(25),
            write_timeout: Duration::from_secs(5),
            max_frame_bytes: MAX_FRAME_BYTES,
            stall_ticks: 200,
        }
    }
}

/// What a completed [`NetServer::serve`] run observed.
#[derive(Debug)]
pub struct ServeReport {
    /// The drained joint outcome — bitwise identical to an in-process
    /// [`skyscraper::IngestRuntime`] run over the same segment schedule.
    pub outcome: MultiOutcome,
    /// Connections accepted over the server's lifetime.
    pub connections: usize,
    /// Connections dropped for framing/protocol violations.
    pub malformed: usize,
    /// Streams auto-closed because their connection vanished mid-run.
    pub autoclosed_streams: usize,
}

/// Stop signal for a running server (e.g. from a ctrl-c handler). The
/// in-band [`Request::Shutdown`] is the protocol-level equivalent.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    stop: Arc<Stop>,
}

impl ServerHandle {
    /// Ask the server to stop accepting work and drain.
    pub fn stop(&self) {
        self.stop.fire();
    }
}

/// The stop flag plus the condvar `serve` sleeps on until it is set.
#[derive(Debug, Default)]
struct Stop {
    set: Mutex<bool>,
    cv: Condvar,
}

impl Stop {
    fn fire(&self) {
        *self.set.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.cv.notify_all();
    }

    fn is_set(&self) -> bool {
        *self.set.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait(&self) {
        let set = self.set.lock().unwrap_or_else(PoisonError::into_inner);
        drop(self.cv.wait_while(set, |set| !*set));
    }
}

/// Fires the stop signal if the thread holding it unwinds, so `serve`
/// wakes up and fails instead of waiting for a `Shutdown` nobody sends.
struct StopOnPanic<'a>(&'a Stop);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.fire();
        }
    }
}

/// A bound (not yet serving) socket server.
pub struct NetServer {
    cfg: ServerConfig,
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    stop: Arc<Stop>,
}

/// What every server thread shares.
struct Shared<'s> {
    cfg: ServerConfig,
    stop: Arc<Stop>,
    /// The server lock.
    state: Mutex<State<'s>>,
}

/// Everything a request may touch.
struct State<'s> {
    /// Taken by the drain.
    service: Option<IngestService<'s>>,
    conns: HashMap<u64, Conn>,
    /// The epoch at which the drain began; later requests are refused.
    draining: Option<u64>,
    connections: usize,
    malformed: usize,
    autoclosed: usize,
}

struct Conn {
    /// The write half, locked for one reply at a time.
    out: Arc<Mutex<Sock>>,
    /// Slots this connection opened (kept past close for outcome flush).
    streams: Vec<usize>,
}

impl NetServer {
    /// Bind the configured listeners without serving yet.
    pub fn bind(cfg: ServerConfig) -> Result<Self, NetError> {
        if cfg.tcp.is_none() && cfg.unix.is_none() {
            return Err(NetError::Io {
                op: "bind",
                detail: "server config needs a TCP address or a Unix socket path".into(),
            });
        }
        let io_err = |op: &'static str| {
            move |e: std::io::Error| NetError::Io {
                op,
                detail: e.to_string(),
            }
        };
        let tcp = match &cfg.tcp {
            Some(addr) => Some(TcpListener::bind(addr.as_str()).map_err(io_err("tcp bind"))?),
            None => None,
        };
        let unix = match &cfg.unix {
            Some(path) => {
                if path.exists() {
                    std::fs::remove_file(path).map_err(io_err("unix bind"))?;
                }
                Some(UnixListener::bind(path).map_err(io_err("unix bind"))?)
            }
            None => None,
        };
        Ok(Self {
            cfg,
            tcp,
            unix,
            stop: Arc::default(),
        })
    }

    /// The bound TCP address (useful with a `:0` bind).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// The bound Unix socket path.
    pub fn unix_path(&self) -> Option<&Path> {
        self.cfg.unix.as_deref()
    }

    /// A stop handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: self.stop.clone(),
        }
    }

    /// Serve connections until a [`Request::Shutdown`] arrives or
    /// [`ServerHandle::stop`] fires, then drain and return the joint
    /// outcome. Blocks the calling thread for the server's lifetime.
    pub fn serve(self, service: IngestService<'_>) -> Result<ServeReport, NetError> {
        let tcp_addr = self.tcp_addr();
        let NetServer {
            cfg,
            tcp,
            unix,
            stop,
        } = self;
        let sh = Shared {
            cfg,
            stop,
            state: Mutex::new(State {
                service: Some(service),
                conns: HashMap::new(),
                draining: None,
                connections: 0,
                malformed: 0,
                autoclosed: 0,
            }),
        };
        let sh = &sh;
        let result = std::thread::scope(|s| {
            if let Some(l) = &tcp {
                s.spawn(move || accept_loop(s, sh, || l.accept().map(|(c, _)| Sock::Tcp(c))));
            }
            if let Some(l) = &unix {
                s.spawn(move || accept_loop(s, sh, || l.accept().map(|(c, _)| Sock::Unix(c))));
            }
            sh.stop.wait();
            wake_listeners(tcp_addr, sh.cfg.unix.as_deref());
            drain(sh)
        });
        if let Some(path) = &sh.cfg.unix {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

/// Accept connections on one listener until the stop signal, spawning a
/// reader thread per connection.
fn accept_loop<'scope, 's: 'scope>(
    s: &'scope Scope<'scope, '_>,
    sh: &'scope Shared<'s>,
    accept: impl Fn() -> std::io::Result<Sock>,
) {
    while !sh.stop.is_set() {
        match accept() {
            // The wake-up connection, or a client that raced the stop.
            Ok(_) if sh.stop.is_set() => break,
            // Setup failures (timeouts, clone, preamble) drop the
            // connection before it is registered.
            Ok(sock) => {
                let _ = admit(s, sh, sock);
            }
            // Transient accept failures (an aborted handshake, descriptor
            // exhaustion) back off briefly instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Connect once to each listener so an accept loop blocked in `accept`
/// sees the stop signal.
fn wake_listeners(tcp: Option<SocketAddr>, unix: Option<&Path>) {
    if let Some(mut addr) = tcp {
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(addr);
    }
    if let Some(path) = unix {
        let _ = UnixStream::connect(path);
    }
}

/// Send the preamble, register the connection — before its reader exists,
/// so the table always knows a connection before its first request — and
/// spawn its reader.
fn admit<'scope, 's: 'scope>(
    s: &'scope Scope<'scope, '_>,
    sh: &'scope Shared<'s>,
    sock: Sock,
) -> std::io::Result<()> {
    sock.set_read_timeout(sh.cfg.read_timeout)?;
    sock.set_write_timeout(sh.cfg.write_timeout)?;
    let mut out = sock.try_clone()?;
    write_preamble(&mut out).map_err(std::io::Error::other)?;
    let out = Arc::new(Mutex::new(out));
    let conn = {
        let Ok(mut st) = sh.state.lock() else {
            return Ok(()); // a request panicked; serve is failing
        };
        st.connections += 1;
        let conn = st.connections as u64;
        st.conns.insert(
            conn,
            Conn {
                out: out.clone(),
                streams: Vec::new(),
            },
        );
        conn
    };
    s.spawn(move || reader(sh, conn, sock, &out));
    Ok(())
}

/// Why a connection's reader stopped.
enum End {
    /// EOF or a failed reply write: auto-close the connection's streams.
    Gone,
    /// A framing or protocol violation: answer `Error`, then as `Gone`.
    Malformed(String),
    /// Nothing left to do: idle at stop, after `Shutdown`, already hung
    /// up, or the server lock is poisoned.
    Quiet,
}

fn reader(sh: &Shared<'_>, conn: u64, sock: Sock, out: &Mutex<Sock>) {
    let _fire = StopOnPanic(&sh.stop);
    let violation = match converse(sh, conn, sock, out) {
        End::Quiet => return,
        End::Gone => None,
        End::Malformed(detail) => Some(detail),
    };
    if let Ok(st) = sh.state.lock() {
        hang_up(st, conn, out, violation);
    }
}

/// Decode, apply and answer one connection's requests until it ends.
fn converse(sh: &Shared<'_>, conn: u64, sock: Sock, out: &Mutex<Sock>) -> End {
    let cfg = &sh.cfg;
    let keep = || !sh.stop.is_set();
    let mut rd = BufReader::new(sock);
    if let Err(e) = read_preamble(&mut rd, cfg.stall_ticks, keep) {
        return match e {
            NetError::Closed | NetError::Timeout { .. } => End::Gone,
            other => End::Malformed(format!(
                "preamble from {}: {other}",
                rd.get_ref().peer_label()
            )),
        };
    }
    loop {
        let req = match read_frame(&mut rd, cfg.max_frame_bytes, cfg.stall_ticks, keep) {
            Ok(FrameIn::Frame(body)) => match Request::decode(&body) {
                Ok(req) => req,
                Err(detail) => return End::Malformed(detail),
            },
            Ok(FrameIn::Eof) => return End::Gone,
            // Idle give-up only happens once the stop flag is set.
            Err(NetError::Timeout { .. }) => return End::Quiet,
            Err(e) => return End::Malformed(e.to_string()),
        };
        let shutdown = matches!(req, Request::Shutdown);
        let Ok(mut st) = sh.state.lock() else {
            return End::Quiet;
        };
        let reply = if let Some(epoch) = st.draining {
            Reply::Rejected {
                retryable: false,
                reason: "server is draining".into(),
                epoch,
                accepted: 0,
            }
        } else if shutdown {
            st.draining = st.service.as_ref().map(|s| s.epoch() as u64);
            sh.stop.fire();
            Reply::ShuttingDown
        } else {
            let State { service, conns, .. } = &mut *st;
            let (Some(service), Some(c)) = (service.as_mut(), conns.get_mut(&conn)) else {
                return End::Quiet;
            };
            match handle_request(service, &cfg.server_name, &mut c.streams, req) {
                Ok(reply) => reply,
                Err(violation) => {
                    hang_up(st, conn, out, Some(violation));
                    return End::Quiet;
                }
            }
        };
        // Take the write lock before releasing the server lock: a drain
        // that starts in between writes its outcomes after this reply.
        let mut w = write_half(out);
        drop(st);
        if write_frame(&mut *w, &reply.encode()).is_err() {
            return End::Gone;
        }
        if shutdown {
            return End::Quiet;
        }
    }
}

/// Stop serving: mark the drain, settle the runtime, then write each
/// remaining connection its outcomes and close it.
fn drain(sh: &Shared<'_>) -> Result<ServeReport, NetError> {
    let (service, conns, connections, malformed, autoclosed_streams) = {
        let mut st = sh.state.lock().map_err(|_| NetError::Server {
            detail: "a request handler panicked".into(),
        })?;
        let service = st.service.take().expect("only serve drains, once");
        st.draining.get_or_insert(service.epoch() as u64);
        let conns = std::mem::take(&mut st.conns);
        (service, conns, st.connections, st.malformed, st.autoclosed)
    };
    let outcome = service.drain().map_err(|e| NetError::Server {
        detail: e.to_string(),
    })?;
    for c in conns.values() {
        let mut w = write_half(&c.out);
        for &slot in &c.streams {
            if let Some(so) = outcome.streams.get(slot) {
                let frame = Reply::Outcome {
                    stream: slot as u64,
                    workload_id: so.workload_id.clone(),
                    outcome: so.outcome.clone(),
                };
                let _ = write_frame(&mut *w, &frame.encode());
            }
        }
        w.shutdown();
    }
    Ok(ServeReport {
        outcome,
        connections,
        malformed,
        autoclosed_streams,
    })
}

/// Forget a connection that ended: auto-close the streams it opened at
/// their in-band position (their leases return to the next joint plan;
/// during the drain the runtime settles them instead), answer a violation
/// with a typed `Error`, and close the socket.
fn hang_up(
    mut st: MutexGuard<'_, State<'_>>,
    conn: u64,
    out: &Mutex<Sock>,
    violation: Option<String>,
) {
    let st_mut = &mut *st;
    if violation.is_some() {
        st_mut.malformed += 1;
    }
    let gone = st_mut.conns.remove(&conn);
    if let (Some(c), Some(service), None) = (gone, st_mut.service.as_mut(), st_mut.draining) {
        for slot in c.streams {
            // Already closed by the client, or settled — nothing to do.
            if service.close(StreamId::from_index(slot)).is_ok() {
                st_mut.autoclosed += 1;
            }
        }
    }
    let mut w = write_half(out);
    drop(st);
    if let Some(detail) = violation {
        let _ = write_frame(&mut *w, &Reply::Error { detail }.encode());
    }
    w.shutdown();
}

/// Lock a connection's write half. A frame is encoded before its one
/// `write_all`, so a panic under this lock never leaves half a frame on
/// the socket and a poisoned guard is still safe to write through.
fn write_half(out: &Mutex<Sock>) -> MutexGuard<'_, Sock> {
    out.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Apply one request (`Shutdown` is the caller's). `Err(violation)` when
/// the connection broke protocol (unowned stream) and must be closed.
fn handle_request(
    service: &mut IngestService<'_>,
    server_name: &str,
    streams: &mut Vec<usize>,
    req: Request,
) -> Result<Reply, String> {
    // Request service time, booked only when the runtime records; the
    // clock starts before dispatch so the histogram covers the whole
    // handler, not just the reply construction.
    let t_req = service.obs().is_some().then(Instant::now);
    let mut booked = false;
    let reply = match req {
        Request::Hello { client: _ } => Reply::Hello {
            server: server_name.to_string(),
            shards: service.shards() as u64,
            epoch: service.epoch() as u64,
        },
        Request::OpenStream {
            profile,
            name,
            options,
        } => match service.open(&profile, name, options) {
            Ok(id) => {
                streams.push(id.index());
                Reply::StreamOpened {
                    stream: id.index() as u64,
                }
            }
            Err(e) => service.rejection(&e),
        },
        Request::PushSegments {
            stream,
            base_seq,
            segs,
        } => {
            let slot = stream as usize;
            if !streams.contains(&slot) {
                return Err(format!(
                    "push to stream {stream} not owned by this connection"
                ));
            }
            // `base_seq` is an unvalidated wire value: a range that does not
            // fit a u64 is refused before the push touches state or journal.
            match base_seq.checked_add(segs.len() as u64) {
                None => service.rejection(&SkyError::InvalidInput {
                    what: "PushSegments base_seq + segment count overflows u64",
                }),
                Some(to) => match service.push_batch(StreamId::from_index(slot), &segs) {
                    Ok(()) => Reply::Accepted {
                        stream,
                        from: base_seq,
                        to,
                    },
                    Err(e) => service.rejection(&e),
                },
            }
        }
        Request::CloseStream { stream } => {
            let slot = stream as usize;
            if !streams.contains(&slot) {
                return Err(format!(
                    "close of stream {stream} not owned by this connection"
                ));
            }
            match service.close(StreamId::from_index(slot)) {
                Ok(()) => Reply::StreamClosed { stream },
                Err(e) => service.rejection(&e),
            }
        }
        Request::GetStats => {
            let m = service.metrics();
            Reply::Stats {
                shards: m.shards as u64,
                epoch: m.epoch as u64,
                joint_plans: m.joint_plans as u64,
                active_streams: m.streams.iter().filter(|s| s.active).count() as u64,
                segments_processed: m.segments_processed as u64,
                wallet_left_usd: m.wallet_left_usd,
                dedup_lookups: m.dedup.lookups,
                dedup_hits: m.dedup.hits(),
                dedup_bytes_saved: m.dedup.bytes_saved,
                dedup_spend_saved_usd: m.dedup.spend_saved_usd,
                dedup_cache_entries: m.dedup_cache_entries as u64,
            }
        }
        Request::GetMetrics => {
            // Book this request *before* taking the snapshot so the reply
            // already reflects it: a test holding the same `Obs` handle
            // can then compare the wire snapshot against a local
            // `registry.snapshot()` bit for bit.
            if let (Some(o), Some(t)) = (service.obs(), t_req) {
                o.registry.inc(CounterId::NetRequests);
                o.registry.record(HistId::NetRequest, t.elapsed());
            }
            booked = true;
            Reply::Metrics {
                snapshot: service.metrics_snapshot(),
            }
        }
        Request::Shutdown => unreachable!("applied by the reader"),
    };
    if !booked {
        if let (Some(o), Some(t)) = (service.obs(), t_req) {
            o.registry.inc(CounterId::NetRequests);
            o.registry.record(HistId::NetRequest, t.elapsed());
        }
    }
    Ok(reply)
}
