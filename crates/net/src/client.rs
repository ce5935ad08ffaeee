//! The protocol client: connect/retry/backoff plus a re-feeding
//! `push_batch`.
//!
//! [`NetClient::push_batch`] is the load-bearing piece: it sends the
//! whole remaining suffix of a segment slice per round trip and advances
//! its cursor by exactly what the server acknowledged — a full
//! [`Reply::Accepted`] range, or the `accepted` prefix of a retryable
//! [`Reply::Rejected`] (mailbox backpressure, the epoch barrier). Accepted
//! segments are never re-sent, mirroring the runtime's
//! `BatchFailed`-resume contract, so a drive through this client is
//! bitwise identical to in-process ingestion of the same schedule no
//! matter how often it was pushed back.

use std::io::BufReader;
use std::time::{Duration, Instant};

use skyscraper::obs::MetricsSnapshot;
use skyscraper::serve::proto::{Reply, Request};
use skyscraper::IngestOptions;
use vetl_video::Segment;

use crate::frame::{
    read_frame, read_preamble, write_frame, write_preamble, Endpoint, FrameIn, NetError, Sock,
    MAX_FRAME_BYTES,
};

/// Client configuration; the defaults suit local sockets.
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// Client identity sent in `Hello` (diagnostics only).
    pub client_name: String,
    /// Connection attempts before giving up (each backing off).
    pub connect_attempts: u32,
    /// Initial connect backoff; doubles per attempt up to
    /// `connect_backoff_max`.
    pub connect_backoff: Duration,
    /// Ceiling on the doubling connect backoff.
    pub connect_backoff_max: Duration,
    /// Extra per-attempt jitter added on top of the doubled backoff,
    /// drawn deterministically from `[0, connect_jitter]` — spreads a
    /// synchronized reconnect herd without making retries irreproducible.
    /// Zero (the default) disables it.
    pub connect_jitter: Duration,
    /// How long to wait for any single reply.
    pub reply_timeout: Duration,
    /// Socket read timeout — the tick at which waits re-check deadlines.
    pub read_tick: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Initial backoff after a retryable rejection with no progress;
    /// doubles up to `push_backoff_max`.
    pub push_backoff: Duration,
    /// Backoff ceiling for retryable rejections.
    pub push_backoff_max: Duration,
    /// Consecutive zero-progress retryable rejections tolerated before a
    /// push gives up (progress resets the count).
    pub max_push_retries: u32,
    /// Cap on a single frame body.
    pub max_frame_bytes: usize,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        Self {
            client_name: "vetl-net".into(),
            connect_attempts: 20,
            connect_backoff: Duration::from_millis(10),
            connect_backoff_max: Duration::from_millis(500),
            connect_jitter: Duration::ZERO,
            reply_timeout: Duration::from_secs(60),
            read_tick: Duration::from_millis(10),
            write_timeout: Duration::from_secs(5),
            push_backoff: Duration::from_micros(100),
            push_backoff_max: Duration::from_millis(10),
            max_push_retries: 100_000,
            max_frame_bytes: MAX_FRAME_BYTES,
        }
    }
}

/// What the server said in its `Hello` reply.
#[derive(Debug, Clone)]
pub struct ServerHello {
    /// Server identity.
    pub server: String,
    /// Worker shards the server chose at startup (`VETL_SHARDS` override
    /// or detected cores).
    pub shards: usize,
    /// The server's planning epoch at connect time.
    pub epoch: usize,
}

/// Counters from one [`NetClient::push_batch`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct PushStats {
    /// Request/reply round trips (1 for an uncontended batch).
    pub round_trips: u64,
    /// Retryable rejections absorbed.
    pub retries: u64,
    /// Segments re-fed across all retries (unacknowledged suffix sends
    /// beyond the first).
    pub refed_segments: u64,
}

/// A settled per-stream outcome received during shutdown drain.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// The stream's slot index.
    pub stream: u64,
    /// The workload id it was admitted under.
    pub workload_id: String,
    /// The stream's full ingestion outcome.
    pub outcome: skyscraper::IngestOutcome,
}

/// A connected protocol client (one request in flight at a time).
pub struct NetClient {
    /// Buffered reads; writes bypass the buffer, one per frame.
    sock: BufReader<Sock>,
    cfg: NetClientConfig,
    hello: ServerHello,
}

impl NetClient {
    /// Connect with retry/backoff, exchange preambles, and say `Hello`.
    pub fn connect(ep: &Endpoint, cfg: NetClientConfig) -> Result<NetClient, NetError> {
        let mut last = String::from("no attempts made");
        for attempt in 0..cfg.connect_attempts.max(1) {
            match Sock::connect(ep) {
                Ok(sock) => return Self::handshake(sock, cfg),
                Err(e) => {
                    last = e.to_string();
                    if attempt + 1 < cfg.connect_attempts.max(1) {
                        std::thread::sleep(connect_backoff_for(&cfg, attempt));
                    }
                }
            }
        }
        Err(NetError::ConnectFailed { detail: last })
    }

    fn handshake(sock: Sock, cfg: NetClientConfig) -> Result<NetClient, NetError> {
        sock.set_read_timeout(cfg.read_tick).map_err(io("setup"))?;
        sock.set_write_timeout(cfg.write_timeout)
            .map_err(io("setup"))?;
        let mut client = NetClient {
            sock: BufReader::new(sock),
            cfg,
            hello: ServerHello {
                server: String::new(),
                shards: 0,
                epoch: 0,
            },
        };
        write_preamble(client.sock.get_mut())?;
        let deadline = Instant::now() + client.cfg.reply_timeout;
        read_preamble(&mut client.sock, stall_ticks(&client.cfg), || {
            Instant::now() < deadline
        })?;
        let hello = client.request(&Request::Hello {
            client: client.cfg.client_name.clone(),
        })?;
        match hello {
            Reply::Hello {
                server,
                shards,
                epoch,
            } => {
                client.hello = ServerHello {
                    server,
                    shards: shards as usize,
                    epoch: epoch as usize,
                };
                Ok(client)
            }
            other => Err(unexpected("Hello", &other)),
        }
    }

    /// What the server announced at connect time.
    pub fn hello(&self) -> &ServerHello {
        &self.hello
    }

    /// Send one request and read its reply.
    pub fn request(&mut self, req: &Request) -> Result<Reply, NetError> {
        write_frame(self.sock.get_mut(), &req.encode())?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> Result<Reply, NetError> {
        let deadline = Instant::now() + self.cfg.reply_timeout;
        match read_frame(
            &mut self.sock,
            self.cfg.max_frame_bytes,
            stall_ticks(&self.cfg),
            || Instant::now() < deadline,
        )? {
            FrameIn::Frame(body) => Reply::decode(&body).map_err(|detail| NetError::Proto {
                detail: format!("undecodable reply: {detail}"),
            }),
            FrameIn::Eof => Err(NetError::Closed),
        }
    }

    /// Open a stream under a server-registered profile; returns its slot.
    pub fn open_stream(
        &mut self,
        profile: &str,
        name: &str,
        options: IngestOptions,
    ) -> Result<u64, NetError> {
        let reply = self.request(&Request::OpenStream {
            profile: profile.into(),
            name: name.into(),
            options,
        })?;
        match reply {
            Reply::StreamOpened { stream } => Ok(stream),
            Reply::Rejected {
                retryable,
                reason,
                epoch,
                ..
            } => Err(NetError::Rejected {
                retryable,
                reason,
                epoch,
            }),
            Reply::Error { detail } => Err(NetError::Server { detail }),
            other => Err(unexpected("StreamOpened", &other)),
        }
    }

    /// Push a batch, transparently re-feeding the unacknowledged suffix
    /// across retryable rejections (backpressure, the epoch barrier).
    /// Terminal rejections and exhausted retry budgets surface as
    /// [`NetError::Rejected`].
    pub fn push_batch(&mut self, stream: u64, segs: &[Segment]) -> Result<PushStats, NetError> {
        let mut stats = PushStats::default();
        let mut off = 0usize;
        let mut backoff = self.cfg.push_backoff;
        let mut stalls = 0u32;
        while off < segs.len() {
            let body = Request::encode_push(stream, off as u64, &segs[off..]);
            write_frame(self.sock.get_mut(), &body)?;
            stats.round_trips += 1;
            if stats.round_trips > 1 {
                stats.refed_segments += (segs.len() - off) as u64;
            }
            match self.read_reply()? {
                Reply::Accepted { from, to, .. } => {
                    if from != off as u64 || to < from || to as usize > segs.len() {
                        return Err(NetError::Proto {
                            detail: format!(
                                "acknowledged range [{from}, {to}) does not match the \
                                 sent suffix at {off}"
                            ),
                        });
                    }
                    off = to as usize;
                    backoff = self.cfg.push_backoff;
                    stalls = 0;
                }
                Reply::Rejected {
                    retryable: true,
                    accepted,
                    reason,
                    epoch,
                } => {
                    stats.retries += 1;
                    let accepted = accepted as usize;
                    if accepted > 0 {
                        // The accepted prefix is journaled and enqueued —
                        // resume past it, never re-feed it.
                        off = (off + accepted).min(segs.len());
                        stalls = 0;
                        backoff = self.cfg.push_backoff;
                    } else {
                        stalls += 1;
                        if stalls > self.cfg.max_push_retries {
                            return Err(NetError::Rejected {
                                retryable: true,
                                reason: format!("retry budget exhausted: {reason}"),
                                epoch,
                            });
                        }
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(self.cfg.push_backoff_max);
                    }
                }
                Reply::Rejected {
                    retryable: false,
                    reason,
                    epoch,
                    ..
                } => {
                    return Err(NetError::Rejected {
                        retryable: false,
                        reason,
                        epoch,
                    })
                }
                Reply::Error { detail } => return Err(NetError::Server { detail }),
                other => return Err(unexpected("Accepted/Rejected", &other)),
            }
        }
        Ok(stats)
    }

    /// Close a stream (in-band marker; the outcome settles at drain).
    pub fn close_stream(&mut self, stream: u64) -> Result<(), NetError> {
        match self.request(&Request::CloseStream { stream })? {
            Reply::StreamClosed { .. } => Ok(()),
            Reply::Rejected {
                retryable,
                reason,
                epoch,
                ..
            } => Err(NetError::Rejected {
                retryable,
                reason,
                epoch,
            }),
            Reply::Error { detail } => Err(NetError::Server { detail }),
            other => Err(unexpected("StreamClosed", &other)),
        }
    }

    /// Snapshot the server's runtime metrics.
    pub fn stats(&mut self) -> Result<Reply, NetError> {
        match self.request(&Request::GetStats)? {
            s @ Reply::Stats { .. } => Ok(s),
            Reply::Error { detail } => Err(NetError::Server { detail }),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Fetch the server's full observability registry (counters, gauges,
    /// latency histograms). With recording off server-side, the snapshot
    /// carries only the gauge projection of the runtime metrics.
    pub fn get_metrics(&mut self) -> Result<MetricsSnapshot, NetError> {
        match self.request(&Request::GetMetrics)? {
            Reply::Metrics { snapshot } => Ok(snapshot),
            Reply::Error { detail } => Err(NetError::Server { detail }),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Ask the server to drain and shut down.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        match self.request(&Request::Shutdown)? {
            Reply::ShuttingDown => Ok(()),
            Reply::Error { detail } => Err(NetError::Server { detail }),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }

    /// Collect up to `expect` settled outcomes flushed by a draining
    /// server (interleaved `ShuttingDown` frames are skipped). Returns
    /// what arrived before the server hung up.
    pub fn recv_outcomes(&mut self, expect: usize) -> Result<Vec<StreamResult>, NetError> {
        let mut out = Vec::new();
        while out.len() < expect {
            match self.read_reply() {
                Ok(Reply::Outcome {
                    stream,
                    workload_id,
                    outcome,
                }) => out.push(StreamResult {
                    stream,
                    workload_id,
                    outcome,
                }),
                Ok(Reply::ShuttingDown) => {}
                Ok(Reply::Error { detail }) => return Err(NetError::Server { detail }),
                Ok(other) => return Err(unexpected("Outcome", &other)),
                Err(NetError::Closed) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }
}

fn stall_ticks(cfg: &NetClientConfig) -> u32 {
    // Allow a partially received frame to stall for the full reply
    // timeout before declaring it torn: the tick count must *cover*
    // `reply_timeout`, so round up. Truncating division undershot the
    // window for ticks that don't divide the timeout, and the old
    // `.max(4)` floor overshot it fourfold for coarse ticks.
    let tick_ms = cfg.read_tick.as_millis().max(1) as u64;
    let timeout_ms = cfg.reply_timeout.as_millis() as u64;
    timeout_ms.div_ceil(tick_ms).clamp(1, u32::MAX as u64) as u32
}

/// Backoff slept after failed connect attempt `attempt` (0-based):
/// `connect_backoff` doubled per completed attempt, saturating at
/// `connect_backoff_max`, plus a deterministic per-attempt jitter in
/// `[0, connect_jitter]`.
fn connect_backoff_for(cfg: &NetClientConfig, attempt: u32) -> Duration {
    let mut backoff = cfg.connect_backoff;
    for _ in 0..attempt {
        backoff = backoff.saturating_mul(2);
        if backoff >= cfg.connect_backoff_max {
            break;
        }
    }
    backoff = backoff.min(cfg.connect_backoff_max);
    if cfg.connect_jitter > Duration::ZERO {
        // splitmix64 of the attempt number: the draw is a pure function of
        // the attempt, so retry schedules stay reproducible while distinct
        // attempts (and the herd's distinct progress points) de-correlate.
        let mut z = (attempt as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let span = (cfg.connect_jitter.as_nanos() as u64).saturating_add(1);
        backoff = backoff.saturating_add(Duration::from_nanos(z % span));
    }
    backoff
}

fn io(op: &'static str) -> impl Fn(std::io::Error) -> NetError {
    move |e| NetError::Io {
        op,
        detail: e.to_string(),
    }
}

fn unexpected(wanted: &str, got: &Reply) -> NetError {
    NetError::Proto {
        detail: format!("expected {wanted}, got {got:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(tick_ms: u64, timeout_ms: u64) -> NetClientConfig {
        NetClientConfig {
            read_tick: Duration::from_millis(tick_ms),
            reply_timeout: Duration::from_millis(timeout_ms),
            ..NetClientConfig::default()
        }
    }

    /// The tick budget covers the configured timeout exactly (ceiling
    /// division), never truncating below it and never inflating a
    /// sub-tick timeout the way the old `.max(4)` floor did.
    #[test]
    fn stall_ticks_covers_the_configured_timeout() {
        // Exact division: unchanged.
        assert_eq!(stall_ticks(&cfg(10, 60_000)), 6_000);
        // Non-dividing tick: rounds up, so ticks × tick ≥ timeout.
        assert_eq!(stall_ticks(&cfg(7, 60_000)), 8_572);
        // Coarse tick, short timeout: 2 ticks (3000 ms) cover 1500 ms;
        // the old floor would have waited 4 s.
        assert_eq!(stall_ticks(&cfg(1_000, 1_500)), 2);
        // Timeout below one tick: a single tick, not four.
        assert_eq!(stall_ticks(&cfg(10, 5)), 1);
        // Degenerate configs still yield a usable (≥ 1 tick) window.
        assert_eq!(stall_ticks(&cfg(0, 3)), 3);
        assert_eq!(stall_ticks(&cfg(10, 0)), 1);
        // Effective window always covers the timeout for boundary combos.
        for (tick, timeout) in [
            (1, 1),
            (3, 10),
            (10, 10),
            (10, 11),
            (33, 100),
            (250, 60_000),
        ] {
            let ticks = stall_ticks(&cfg(tick, timeout)) as u64;
            assert!(
                ticks * tick.max(1) >= timeout,
                "tick {tick} ms × {ticks} must cover {timeout} ms"
            );
            assert!(ticks >= 1);
        }
    }

    /// The documented doubling-to-cap sequence, for the default cap and a
    /// user-configured one — the old hardcoded 500 ms ceiling ignored the
    /// config entirely.
    #[test]
    fn connect_backoff_doubles_to_the_configured_cap() {
        let c = NetClientConfig::default();
        let got: Vec<u64> = (0..8)
            .map(|a| connect_backoff_for(&c, a).as_millis() as u64)
            .collect();
        assert_eq!(got, [10, 20, 40, 80, 160, 320, 500, 500]);

        let c = NetClientConfig {
            connect_backoff: Duration::from_millis(10),
            connect_backoff_max: Duration::from_millis(100),
            ..NetClientConfig::default()
        };
        let got: Vec<u64> = (0..6)
            .map(|a| connect_backoff_for(&c, a).as_millis() as u64)
            .collect();
        assert_eq!(got, [10, 20, 40, 80, 100, 100]);

        // A cap below the initial backoff clamps immediately.
        let c = NetClientConfig {
            connect_backoff: Duration::from_millis(40),
            connect_backoff_max: Duration::from_millis(25),
            ..NetClientConfig::default()
        };
        assert_eq!(connect_backoff_for(&c, 0), Duration::from_millis(25));
    }

    /// Jitter stays within `[0, connect_jitter]`, is deterministic per
    /// attempt, and differs across attempts (herd spreading).
    #[test]
    fn connect_jitter_is_bounded_and_deterministic() {
        let c = NetClientConfig {
            connect_jitter: Duration::from_millis(5),
            ..NetClientConfig::default()
        };
        let base = NetClientConfig::default();
        let mut draws = Vec::new();
        for a in 0..8 {
            let with = connect_backoff_for(&c, a);
            let without = connect_backoff_for(&base, a);
            assert!(with >= without, "jitter never shortens the backoff");
            assert!(with <= without + Duration::from_millis(5));
            assert_eq!(with, connect_backoff_for(&c, a), "same attempt, same draw");
            draws.push(with - without);
        }
        assert!(
            draws.windows(2).any(|w| w[0] != w[1]),
            "distinct attempts must not all share one jitter draw"
        );
    }
}
