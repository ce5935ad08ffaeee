//! The framed socket server: TCP + Unix listeners over one
//! [`IngestService`].
//!
//! ## Threading
//!
//! The runtime is single-writer, so the server keeps **one** service loop
//! and fans connections into it:
//!
//! * one non-blocking **accept loop** per listener (TCP, Unix), polling a
//!   stop flag;
//! * per connection, a **reader thread** (decodes frames into typed
//!   events) and a **writer thread** (serializes replies) — requests and
//!   disconnects funnel through one mpsc channel into
//! * the **service loop**, which owns the [`IngestService`] and therefore
//!   the runtime. Backpressure is the runtime's own: a full mailbox
//!   rejects the push typed and the client backs off — the server never
//!   buffers segments itself, so a slow joint plan cannot hide unbounded
//!   queues in the front-end.
//!
//! ## Failure containment
//!
//! A malformed, torn, or checksum-bad frame is answered with a typed
//! [`Reply::Error`] and a connection close; the runtime never observes
//! the bytes. A disconnect mid-epoch auto-closes the connection's streams
//! (in-band markers), so the next joint plan redistributes their cores
//! and wallet share instead of waiting on a ghost. Shutdown drains
//! gracefully: the runtime settles every stream across the final barrier
//! and each surviving connection receives the [`Reply::Outcome`] of every
//! stream it opened.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
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
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Ask the server to stop accepting work and drain.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// A bound (not yet serving) socket server.
pub struct NetServer {
    cfg: ServerConfig,
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    stop: Arc<AtomicBool>,
}

enum Event {
    Connected { conn: u64, tx: Sender<Reply> },
    Request { conn: u64, req: Request },
    Malformed { conn: u64, detail: String },
    Gone { conn: u64 },
}

struct ConnState {
    tx: Sender<Reply>,
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
            Some(addr) => {
                let l = TcpListener::bind(addr.as_str()).map_err(io_err("tcp bind"))?;
                l.set_nonblocking(true).map_err(io_err("tcp bind"))?;
                Some(l)
            }
            None => None,
        };
        let unix = match &cfg.unix {
            Some(path) => {
                if path.exists() {
                    std::fs::remove_file(path).map_err(io_err("unix bind"))?;
                }
                let l = UnixListener::bind(path).map_err(io_err("unix bind"))?;
                l.set_nonblocking(true).map_err(io_err("unix bind"))?;
                Some(l)
            }
            None => None,
        };
        Ok(Self {
            cfg,
            tcp,
            unix,
            stop: Arc::new(AtomicBool::new(false)),
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
        let NetServer {
            cfg,
            tcp,
            unix,
            stop,
        } = self;
        let (ev_tx, ev_rx) = channel::<Event>();
        let next_conn = Arc::new(AtomicU64::new(1));
        let (cfg, stop) = (&cfg, &*stop);
        let result = std::thread::scope(|s| {
            if let Some(l) = &tcp {
                let ev = ev_tx.clone();
                let ids = next_conn.clone();
                s.spawn(move || accept_loop(s, l, cfg, stop, ev, ids));
            }
            if let Some(l) = &unix {
                let ev = ev_tx.clone();
                let ids = next_conn.clone();
                s.spawn(move || accept_loop(s, l, cfg, stop, ev, ids));
            }
            // The loop owns the only other ev_tx clone; drop ours so a
            // fully stopped server cannot deadlock on its own channel.
            drop(ev_tx);
            service_loop(service, &cfg.server_name, ev_rx, stop)
        });
        if let Some(path) = &cfg.unix {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

/// Poll one listener, spawning reader/writer threads per accepted
/// connection. Generic over the listener family via [`ListenerLike`]
/// because `TcpListener` and `UnixListener` share no accept trait.
fn accept_loop<'scope, 'env, L>(
    s: &'scope std::thread::Scope<'scope, 'env>,
    listener: &'scope L,
    cfg: &'scope ServerConfig,
    stop: &'scope AtomicBool,
    ev_tx: Sender<Event>,
    next_conn: Arc<AtomicU64>,
) where
    L: ListenerLike,
{
    while !stop.load(Ordering::SeqCst) {
        match listener.accept_sock() {
            Ok(sock) => {
                let conn = next_conn.fetch_add(1, Ordering::SeqCst);
                if let Err(e) = setup_conn(s, sock, conn, cfg, stop, &ev_tx) {
                    // Setup failures (timeout config, clone) drop the
                    // connection before it ever reaches the service loop.
                    let _ = e;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// The two listener families behind one accept shape.
trait ListenerLike: Sync {
    fn accept_sock(&self) -> std::io::Result<Sock>;
}

impl ListenerLike for TcpListener {
    fn accept_sock(&self) -> std::io::Result<Sock> {
        self.accept().map(|(s, _)| Sock::Tcp(s))
    }
}

impl ListenerLike for UnixListener {
    fn accept_sock(&self) -> std::io::Result<Sock> {
        self.accept().map(|(s, _)| Sock::Unix(s))
    }
}

fn setup_conn<'scope>(
    s: &'scope std::thread::Scope<'scope, '_>,
    sock: Sock,
    conn: u64,
    cfg: &'scope ServerConfig,
    stop: &'scope AtomicBool,
    ev_tx: &Sender<Event>,
) -> std::io::Result<()> {
    // Accepted sockets can inherit the listener's non-blocking mode on
    // some platforms; reads must block up to the poll tick instead.
    match &sock {
        Sock::Tcp(t) => t.set_nonblocking(false)?,
        Sock::Unix(u) => u.set_nonblocking(false)?,
    }
    sock.set_read_timeout(cfg.read_timeout)?;
    sock.set_write_timeout(cfg.write_timeout)?;
    let writer_sock = sock.try_clone()?;
    let (reply_tx, reply_rx) = channel::<Reply>();
    // Connected is enqueued before the reader thread exists, so the
    // service loop always learns of the connection before its first
    // request.
    let _ = ev_tx.send(Event::Connected { conn, tx: reply_tx });
    let ev = ev_tx.clone();
    s.spawn(move || reader_thread(sock, conn, cfg, stop, ev));
    s.spawn(move || writer_thread(writer_sock, reply_rx));
    Ok(())
}

/// Decode frames into events until EOF, a violation, a shutdown request,
/// or the stop flag.
fn reader_thread(
    mut sock: Sock,
    conn: u64,
    cfg: &ServerConfig,
    stop: &AtomicBool,
    ev: Sender<Event>,
) {
    let keep = || !stop.load(Ordering::SeqCst);
    if let Err(e) = read_preamble(&mut sock, cfg.stall_ticks, keep) {
        let _ = match e {
            NetError::Closed | NetError::Timeout { .. } => ev.send(Event::Gone { conn }),
            other => ev.send(Event::Malformed {
                conn,
                detail: format!("preamble from {}: {other}", sock.peer_label()),
            }),
        };
        return;
    }
    loop {
        match read_frame(&mut sock, cfg.max_frame_bytes, cfg.stall_ticks, keep) {
            Ok(FrameIn::Eof) => {
                let _ = ev.send(Event::Gone { conn });
                return;
            }
            Ok(FrameIn::Frame(body)) => match Request::decode(&body) {
                Ok(req) => {
                    let is_shutdown = matches!(req, Request::Shutdown);
                    let _ = ev.send(Event::Request { conn, req });
                    if is_shutdown {
                        return;
                    }
                }
                Err(detail) => {
                    let _ = ev.send(Event::Malformed { conn, detail });
                    return;
                }
            },
            // Idle give-up only happens once the stop flag is set; the
            // service loop is already draining, no event needed.
            Err(NetError::Timeout { .. }) => return,
            Err(e) => {
                let _ = ev.send(Event::Malformed {
                    conn,
                    detail: e.to_string(),
                });
                return;
            }
        }
    }
}

/// Serialize replies until the service loop drops the sending side, then
/// shut the socket down (waking the reader if it is still blocked).
fn writer_thread(mut sock: Sock, rx: Receiver<Reply>) {
    let healthy = write_preamble(&mut sock).is_ok();
    if healthy {
        while let Ok(reply) = rx.recv() {
            if write_frame(&mut sock, &reply.encode()).is_err() {
                break;
            }
        }
    }
    sock.shutdown();
}

fn service_loop(
    mut service: IngestService<'_>,
    server_name: &str,
    ev_rx: Receiver<Event>,
    stop: &AtomicBool,
) -> Result<ServeReport, NetError> {
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut connections = 0usize;
    let mut malformed = 0usize;
    let mut autoclosed = 0usize;

    while !stop.load(Ordering::SeqCst) {
        let ev = match ev_rx.recv_timeout(Duration::from_millis(20)) {
            Ok(ev) => ev,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        match ev {
            Event::Connected { conn, tx } => {
                connections += 1;
                conns.insert(
                    conn,
                    ConnState {
                        tx,
                        streams: Vec::new(),
                    },
                );
            }
            Event::Request { conn, req } => {
                if let Request::Shutdown = req {
                    if let Some(c) = conns.get(&conn) {
                        let _ = c.tx.send(Reply::ShuttingDown);
                    }
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
                if let Some(violation) =
                    handle_request(&mut service, server_name, &mut conns, conn, req)
                {
                    malformed += 1;
                    close_conn(
                        &mut service,
                        &mut conns,
                        conn,
                        Some(violation),
                        &mut autoclosed,
                    );
                }
            }
            Event::Malformed { conn, detail } => {
                malformed += 1;
                close_conn(
                    &mut service,
                    &mut conns,
                    conn,
                    Some(detail),
                    &mut autoclosed,
                );
            }
            Event::Gone { conn } => {
                close_conn(&mut service, &mut conns, conn, None, &mut autoclosed);
            }
        }
    }
    stop.store(true, Ordering::SeqCst);

    // Drain: answer everything still queued with a terminal rejection,
    // settle the runtime, then flush each surviving connection's
    // outcomes.
    while let Ok(ev) = ev_rx.try_recv() {
        match ev {
            Event::Connected { conn, tx } => {
                connections += 1;
                conns.insert(
                    conn,
                    ConnState {
                        tx,
                        streams: Vec::new(),
                    },
                );
            }
            Event::Request { conn, .. } => {
                if let Some(c) = conns.get(&conn) {
                    let _ = c.tx.send(Reply::Rejected {
                        retryable: false,
                        reason: "server is draining".into(),
                        epoch: service.epoch() as u64,
                        accepted: 0,
                    });
                }
            }
            Event::Malformed { conn, .. } | Event::Gone { conn } => {
                conns.remove(&conn);
            }
        }
    }
    let outcome = service.drain().map_err(|e| NetError::Server {
        detail: e.to_string(),
    })?;
    for c in conns.values() {
        for &slot in &c.streams {
            if let Some(so) = outcome.streams.get(slot) {
                let _ = c.tx.send(Reply::Outcome {
                    stream: slot as u64,
                    workload_id: so.workload_id.clone(),
                    outcome: so.outcome.clone(),
                });
            }
        }
    }
    drop(conns); // closes every reply channel; writers flush and hang up
    Ok(ServeReport {
        outcome,
        connections,
        malformed,
        autoclosed_streams: autoclosed,
    })
}

/// Apply one request. Returns `Some(violation)` when the connection broke
/// protocol (unowned stream) and must be closed.
fn handle_request(
    service: &mut IngestService<'_>,
    server_name: &str,
    conns: &mut HashMap<u64, ConnState>,
    conn: u64,
    req: Request,
) -> Option<String> {
    let Some(c) = conns.get_mut(&conn) else {
        return None; // connection already torn down; drop the request
    };
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
                c.streams.push(id.index());
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
            if !c.streams.contains(&slot) {
                return Some(format!(
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
            if !c.streams.contains(&slot) {
                return Some(format!(
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
        Request::Shutdown => unreachable!("handled by the service loop"),
    };
    if !booked {
        if let (Some(o), Some(t)) = (service.obs(), t_req) {
            o.registry.inc(CounterId::NetRequests);
            o.registry.record(HistId::NetRequest, t.elapsed());
        }
    }
    let _ = c.tx.send(reply);
    None
}

/// Tear a connection down: send an optional protocol error, auto-close
/// the streams it opened (their leases return to the next joint plan),
/// and forget it.
fn close_conn(
    service: &mut IngestService<'_>,
    conns: &mut HashMap<u64, ConnState>,
    conn: u64,
    violation: Option<String>,
    autoclosed: &mut usize,
) {
    let Some(c) = conns.remove(&conn) else { return };
    if let Some(detail) = violation {
        let _ = c.tx.send(Reply::Error { detail });
    }
    for slot in c.streams {
        match service.close(StreamId::from_index(slot)) {
            Ok(()) => *autoclosed += 1,
            // Already closed by the client, or settled — nothing to do.
            Err(SkyError::StreamClosed { .. }) | Err(SkyError::UnknownStream { .. }) => {}
            Err(_) => {}
        }
    }
    // Dropping `c.tx` closes the reply channel; the writer thread flushes
    // anything queued (including the Error above) and shuts the socket.
}
