//! End-to-end tests for the network ingest front-end (`vetl-net`).
//!
//! The acceptance bar mirrors the runtime's own: **outcomes served over a
//! socket are bitwise identical to in-process ingestion of the same
//! segment schedule**, for any shard count (`VETL_SHARDS`, exercised by
//! the CI chaos matrix), any client count, and any number of
//! retryable-rejection re-feeds. On top of that, the front-end's failure
//! containment: admission races surface `UnderProvisioned` over the wire,
//! a mid-epoch disconnect auto-closes the connection's streams so the
//! next joint plan redistributes their leases, graceful shutdown delivers
//! every settled `Outcome`, and malformed / torn / checksum-bad frames —
//! including mutated frames re-stamped with *valid* checksums — are
//! answered typed and never panic the server or corrupt runtime state.

use std::io::{Read, Write};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};

use vetl::net::{NetError, ServeReport, StreamResult};
use vetl::prelude::*;
use vetl::skyscraper::detect_shards;
use vetl::skyscraper::offline::codec::checksum;
use vetl::skyscraper::offline::run_offline;
use vetl::skyscraper::serve::proto::{self, Request};
use vetl::skyscraper::testkit::{
    assert_multi_outcomes_bitwise_equal, assert_outcomes_bitwise_equal, ToyWorkload,
};
use vetl::skyscraper::{FittedModel, MultiOutcome};

const SHARED_BUDGET_USD: f64 = 0.5;
/// Short planning epochs (120 segments at 2 s) so runs cross barriers.
const REPLAN_SECS: f64 = 240.0;
const SEED: u64 = 13;
const TOTAL_CORES: f64 = 16.0;

type Fixture = Vec<(ToyWorkload, FittedModel, Vec<Segment>)>;

/// Independently fitted camera profiles plus online video for each.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        (0..3u64)
            .map(|v| {
                let w = ToyWorkload::new();
                let mut cam =
                    SyntheticCamera::new(ContentParams::traffic_intersection(31 + v), 2.0);
                let labeled = Recording::record(&mut cam, 20.0 * 60.0);
                let unlabeled = Recording::record(&mut cam, 2.0 * 86_400.0);
                let (model, _) = run_offline(
                    &w,
                    &labeled,
                    &unlabeled,
                    HardwareSpec::with_cores(16),
                    &SkyscraperConfig::fast_test(),
                )
                .expect("fit");
                let online = Recording::record(&mut cam, 2.0 * 400.0).segments().to_vec();
                (w, model, online)
            })
            .collect()
    })
}

/// `shards: 0` resolves through `detect_shards`, so the whole file runs
/// at whatever `VETL_SHARDS` the CI matrix pins — and the in-process
/// reference resolves identically.
fn rt_config() -> RuntimeConfig {
    RuntimeConfig {
        shards: 0,
        shared_cloud_budget_usd: SHARED_BUDGET_USD,
        seed: SEED,
        replan_interval_secs: Some(REPLAN_SECS),
        total_cores: Some(TOTAL_CORES),
        ..RuntimeConfig::default()
    }
}

/// A service with the first `n` fixture profiles registered as
/// `cam0..camN`.
fn service_for(n: usize) -> IngestService<'static> {
    let mut svc = IngestService::new(rt_config());
    for (v, (w, m, _)) in fixture().iter().take(n).enumerate() {
        svc.register_profile(format!("cam{v}"), m, w);
    }
    svc
}

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vetl-net-{}-{tag}.sock", std::process::id()))
}

/// The in-process ground truth: open `limits.len()` fixture streams in
/// slot order, feed them balanced round-robin up to their limits, and —
/// when `close` — enqueue each stream's close marker right after its last
/// segment (so exhausted streams stop gating the epoch barrier, exactly
/// like a disconnected client's auto-close).
fn inprocess_reference(limits: &[usize], close: bool) -> MultiOutcome {
    let streams = fixture();
    let mut rt = IngestRuntime::new(rt_config());
    let ids: Vec<StreamId> = limits
        .iter()
        .enumerate()
        .map(|(v, _)| {
            let (w, m, _) = &streams[v];
            rt.open_stream(format!("cam-{v:02}"), m, w, IngestOptions::default())
                .expect("reference admission")
        })
        .collect();
    let rounds = limits.iter().copied().max().unwrap_or(0);
    for i in 0..rounds {
        for (v, &limit) in limits.iter().enumerate() {
            if i < limit {
                rt.push(ids[v], &streams[v].2[i]).expect("reference push");
                if close && i + 1 == limit {
                    rt.close_stream(ids[v]).expect("reference close");
                }
            }
        }
    }
    rt.finish().expect("reference finish")
}

/// Run `driver` beside a serving thread. If the driver panics, the server
/// is stopped (so the scope's implicit join cannot deadlock on a serve
/// thread that was never told to shut down) and the panic is propagated.
fn serve_and_drive<T>(
    server: NetServer,
    service: IngestService<'static>,
    driver: impl FnOnce() -> T,
) -> (ServeReport, T) {
    let handle = server.handle();
    std::thread::scope(|s| {
        let serve = s.spawn(move || server.serve(service).expect("serve"));
        match catch_unwind(AssertUnwindSafe(driver)) {
            Ok(out) => (serve.join().expect("serve thread"), out),
            Err(panic) => {
                handle.stop();
                let _ = serve.join();
                resume_unwind(panic);
            }
        }
    })
}

/// Sequential open tickets: client `i` opens only after `i-1`'s open was
/// acknowledged, so slot assignment (and with it the runtime's per-slot
/// RNG derivation) is deterministic while pushes stay fully concurrent.
/// Poisonable: a failed sibling unblocks every waiter instead of leaving
/// it parked on the condvar forever.
struct Tickets {
    turn: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl Tickets {
    fn new() -> Self {
        Self {
            turn: Mutex::new((0, false)),
            cv: Condvar::new(),
        }
    }
    fn wait_for(&self, t: usize) {
        let mut turn = self.turn.lock().unwrap();
        while turn.0 < t && !turn.1 {
            turn = self.cv.wait(turn).unwrap();
        }
        assert!(!turn.1, "tickets poisoned by a failed sibling");
    }
    fn advance(&self) {
        self.turn.lock().unwrap().0 += 1;
        self.cv.notify_all();
    }
    fn poison(&self) {
        self.turn.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

/// A reusable phase barrier that, unlike `std::sync::Barrier`, can be
/// poisoned when a participant dies — the survivors panic out instead of
/// deadlocking the test harness.
struct Gate {
    // (arrived, generation, poisoned)
    state: Mutex<(usize, usize, bool)>,
    cv: Condvar,
    n: usize,
}

impl Gate {
    fn new(n: usize) -> Self {
        Self {
            state: Mutex::new((0, 0, false)),
            cv: Condvar::new(),
            n,
        }
    }
    fn wait(&self) {
        let mut st = self.state.lock().unwrap();
        assert!(!st.2, "gate poisoned by a failed sibling");
        let gen = st.1;
        st.0 += 1;
        if st.0 == self.n {
            st.0 = 0;
            st.1 += 1;
            self.cv.notify_all();
            return;
        }
        while st.1 == gen && !st.2 {
            st = self.cv.wait(st).unwrap();
        }
        assert!(!st.2, "gate poisoned by a failed sibling");
    }
    fn poison(&self) {
        self.state.lock().unwrap().2 = true;
        self.cv.notify_all();
    }
}

/// Drive `n` concurrent clients against a bound server: ticketed opens,
/// concurrent chunked pushes (chunk size deliberately misaligned with the
/// epoch quota so partial accepts and retryable rejections both happen),
/// optional closes, then a shutdown from client 0 and an outcome read
/// from every client. Returns the serve report plus each client's
/// received results.
fn drive_clients(
    server: NetServer,
    service: IngestService<'static>,
    ep: Endpoint,
    n: usize,
    segs_per_stream: usize,
    chunk: usize,
    close_streams: bool,
) -> (ServeReport, Vec<Vec<StreamResult>>) {
    let streams = fixture();
    let handle = server.handle();
    serve_and_drive(server, service, move || {
        let tickets = Tickets::new();
        let gate = Gate::new(n);
        let joined: Vec<_> = std::thread::scope(|s| {
            let (tickets, gate, ep, handle) = (&tickets, &gate, &ep, &handle);
            let workers: Vec<_> = (0..n)
                .map(|v| {
                    s.spawn(move || {
                        let res = catch_unwind(AssertUnwindSafe(|| {
                            let mut client = NetClient::connect(ep, NetClientConfig::default())
                                .expect("connect");
                            assert_eq!(client.hello().server, "skyscraper");
                            assert_eq!(
                                client.hello().shards,
                                detect_shards(),
                                "the Hello reply reports the server's resolved shard count"
                            );
                            tickets.wait_for(v);
                            let slot = client
                                .open_stream(
                                    &format!("cam{v}"),
                                    &format!("cam-{v:02}"),
                                    IngestOptions::default(),
                                )
                                .expect("open");
                            assert_eq!(slot as usize, v, "ticketed opens assign slots in order");
                            tickets.advance();
                            gate.wait(); // every stream admitted before anyone pushes
                            let mut retries = 0u64;
                            for part in streams[v].2[..segs_per_stream].chunks(chunk) {
                                let stats = client.push_batch(slot, part).expect("push");
                                retries += stats.retries;
                            }
                            if close_streams {
                                client.close_stream(slot).expect("close");
                            }
                            gate.wait(); // every push/close done before the shutdown
                            if v == 0 {
                                client.shutdown_server().expect("shutdown");
                            }
                            let outs = client.recv_outcomes(1).expect("outcomes");
                            assert_eq!(outs.len(), 1, "client {v} receives its stream's outcome");
                            assert_eq!(outs[0].stream, slot);
                            assert_eq!(outs[0].workload_id, format!("cam-{v:02}"));
                            (outs, retries)
                        }));
                        if res.is_err() {
                            // Unblock siblings and the serve thread so the
                            // failure reports instead of hanging the scope.
                            tickets.poison();
                            gate.poison();
                            handle.stop();
                        }
                        res
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut per_client = Vec::with_capacity(n);
        let mut total_retries = 0u64;
        for res in joined {
            match res {
                Ok((outs, retries)) => {
                    per_client.push(outs);
                    total_retries += retries;
                }
                Err(panic) => resume_unwind(panic),
            }
        }
        // Whichever client's push fills the *last* mailbox of an epoch
        // triggers the dispatch mid-push and is accepted in full — but the
        // clients that filled up before it always take at least one
        // retryable rejection, so the total is never zero.
        assert!(
            total_retries > 0,
            "misaligned chunks against a {n}-stream epoch must hit backpressure"
        );
        per_client
    })
}

fn assert_served_matches(report: &ServeReport, per_client: &[Vec<StreamResult>], label: &str) {
    for (v, outs) in per_client.iter().enumerate() {
        assert_outcomes_bitwise_equal(
            &format!("{label}: client {v} outcome vs drained joint outcome"),
            &outs[0].outcome,
            &report.outcome.streams[v].outcome,
        );
    }
    assert_eq!(report.malformed, 0, "{label}: no protocol violations");
    assert_eq!(report.autoclosed_streams, 0, "{label}: all closes explicit");
}

#[test]
fn served_outcomes_bitwise_match_inprocess_over_unix() {
    const SEGS: usize = 300; // 2.5 epochs
    let reference = inprocess_reference(&[SEGS; 3], true);
    let path = sock_path("bitwise");
    let server = NetServer::bind(ServerConfig {
        unix: Some(path.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let (report, per_client) = drive_clients(
        server,
        service_for(3),
        Endpoint::Unix(path),
        3,
        SEGS,
        75,
        true,
    );
    assert_multi_outcomes_bitwise_equal("served (unix) vs in-process", &reference, &report.outcome);
    assert_eq!(report.connections, 3);
    assert_served_matches(&report, &per_client, "unix");
}

#[test]
fn served_outcomes_bitwise_match_inprocess_over_tcp() {
    const SEGS: usize = 240; // 2 full epochs
    let reference = inprocess_reference(&[SEGS; 2], true);
    let server = NetServer::bind(ServerConfig {
        tcp: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.tcp_addr().expect("bound tcp addr").to_string();
    let (report, per_client) = drive_clients(
        server,
        service_for(2),
        Endpoint::Tcp(addr),
        2,
        SEGS,
        80,
        true,
    );
    assert_multi_outcomes_bitwise_equal("served (tcp) vs in-process", &reference, &report.outcome);
    assert_eq!(report.connections, 2);
    assert_served_matches(&report, &per_client, "tcp");
}

#[test]
fn racing_opens_surface_underprovisioned_over_the_wire() {
    const RACERS: usize = 5;
    let path = sock_path("race");
    let mut cfg = rt_config();
    cfg.total_cores = Some(2.0); // 2 streams fit; a third gets ⌊2/3⌋ = 0
    let mut service = IngestService::new(cfg);
    let (w, m, _) = &fixture()[0];
    service.register_profile("cam0", m, w);
    let server = NetServer::bind(ServerConfig {
        unix: Some(path.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    let ep = Endpoint::Unix(path.clone());

    let (report, ()) = serve_and_drive(server, service, move || {
        let gate = Gate::new(RACERS);
        let joined: Vec<_> = std::thread::scope(|s| {
            let (gate, ep, handle) = (&gate, &ep, &handle);
            let racers: Vec<_> = (0..RACERS)
                .map(|v| {
                    s.spawn(move || {
                        let res = catch_unwind(AssertUnwindSafe(|| {
                            let mut c = NetClient::connect(ep, NetClientConfig::default())
                                .expect("connect");
                            gate.wait(); // all connected: now race the admissions
                            let res = c.open_stream(
                                "cam0",
                                &format!("race-{v}"),
                                IngestOptions::default(),
                            );
                            (c, res)
                        }));
                        if res.is_err() {
                            gate.poison();
                            handle.stop();
                        }
                        res
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|h| h.join().expect("racer thread"))
                .collect()
        });
        let mut winners = Vec::new();
        let mut losers = 0usize;
        for res in joined {
            let (client, res) = match res {
                Ok(pair) => pair,
                Err(panic) => resume_unwind(panic),
            };
            match res {
                Ok(slot) => winners.push((client, slot)),
                Err(NetError::Rejected {
                    retryable, reason, ..
                }) => {
                    assert!(!retryable, "admission failures are terminal");
                    assert!(
                        reason.contains("under-provisioned"),
                        "expected the fair-share rejection, got: {reason}"
                    );
                    losers += 1;
                    // dropping the client disconnects it; it owns no streams
                }
                Err(other) => panic!("unexpected open failure: {other}"),
            }
        }
        assert_eq!(winners.len(), 2, "exactly the fair-share count is admitted");
        assert_eq!(losers, RACERS - 2);
        let mut slots: Vec<u64> = winners.iter().map(|(_, slot)| *slot).collect();
        slots.sort_unstable();
        assert_eq!(slots, vec![0, 1]);
        for (c, slot) in winners.iter_mut() {
            c.close_stream(*slot).expect("close");
        }
        winners[0].0.shutdown_server().expect("shutdown");
        for (c, slot) in winners.iter_mut() {
            let outs = c.recv_outcomes(1).expect("outcomes");
            assert_eq!(outs[0].stream, *slot);
            assert_eq!(outs[0].outcome.segments, 0);
        }
    });
    assert_eq!(report.connections, RACERS);
    assert_eq!(report.outcome.streams.len(), 2);
    assert_eq!(report.autoclosed_streams, 0);
}

#[test]
fn mid_epoch_disconnect_autocloses_and_redistributes() {
    const DOOMED_SEGS: usize = 50; // vanishes mid-epoch
    const SURVIVOR_SEGS: usize = 240; // crosses two barriers afterwards
    let streams = fixture();
    let reference = inprocess_reference(&[DOOMED_SEGS, SURVIVOR_SEGS], true);
    let path = sock_path("disconnect");
    let server = NetServer::bind(ServerConfig {
        unix: Some(path.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let service = service_for(2);

    let (report, ()) = serve_and_drive(server, service, move || {
        let ep = Endpoint::Unix(path.clone());
        let mut doomed = NetClient::connect(&ep, NetClientConfig::default()).expect("connect");
        let slot_a = doomed
            .open_stream("cam0", "cam-00", IngestOptions::default())
            .expect("open doomed");
        let mut survivor = NetClient::connect(&ep, NetClientConfig::default()).expect("connect");
        let slot_b = survivor
            .open_stream("cam1", "cam-01", IngestOptions::default())
            .expect("open survivor");
        doomed
            .push_batch(slot_a, &streams[0].2[..DOOMED_SEGS])
            .expect("push doomed");
        drop(doomed); // mid-epoch disconnect: the server must auto-close

        // The survivor can only cross the epoch barrier once the doomed
        // stream's auto-close marker stops it gating the dispatch — this
        // push stalls on retryable rejections until then.
        survivor
            .push_batch(slot_b, &streams[1].2[..SURVIVOR_SEGS])
            .expect("push survivor");
        survivor.close_stream(slot_b).expect("close");
        survivor.shutdown_server().expect("shutdown");
        let outs = survivor.recv_outcomes(1).expect("outcomes");
        assert_eq!(outs[0].stream, slot_b);
    });

    assert_eq!(report.connections, 2);
    assert_eq!(report.malformed, 0);
    assert_eq!(
        report.autoclosed_streams, 1,
        "the vanished connection's stream is auto-closed"
    );
    assert_eq!(report.outcome.streams[0].outcome.segments, DOOMED_SEGS);
    assert_eq!(report.outcome.streams[1].outcome.segments, SURVIVOR_SEGS);
    // Auto-close is indistinguishable from a voluntary close at the same
    // in-band position: the joint outcome matches the reference bit for
    // bit, proving the doomed stream's lease returned to the joint plan.
    assert_multi_outcomes_bitwise_equal("disconnect vs reference", &reference, &report.outcome);
}

#[test]
fn graceful_shutdown_drains_every_outcome() {
    const SEGS: usize = 150; // one full epoch plus a partial tail
    const CLIENTS: usize = 3;
    // Streams are *not* closed by their clients here — shutdown drain
    // settles them. The reference leaves them open too.
    let reference = inprocess_reference(&[SEGS; CLIENTS], false);
    let path = sock_path("drain");
    let server = NetServer::bind(ServerConfig {
        unix: Some(path.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let (report, per_client) = drive_clients(
        server,
        service_for(CLIENTS),
        Endpoint::Unix(path),
        CLIENTS,
        SEGS,
        SEGS,
        false,
    );
    assert_eq!(report.connections, CLIENTS);
    for outs in &per_client {
        assert_eq!(
            outs[0].outcome.segments, SEGS,
            "drain settles the open tail"
        );
    }
    assert_served_matches(&report, &per_client, "drain");
    assert_multi_outcomes_bitwise_equal("shutdown drain vs reference", &reference, &report.outcome);
}

#[test]
fn a_client_that_stops_reading_stalls_only_itself() {
    const SEGS: usize = 240; // crosses the epoch-1 barrier
    const STUCK_FRAMES: usize = 4_000;
    let streams = fixture();
    let reference = inprocess_reference(&[SEGS], true);
    let path = sock_path("slow-consumer");
    // Default config: a stalled reply write waits out the 5 s write timeout.
    let server = NetServer::bind(ServerConfig {
        unix: Some(path.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");

    let (report, ()) = serve_and_drive(server, service_for(1), move || {
        // Thousands of requests whose replies are never read: the replies
        // fill the socket buffer and the server's next reply write blocks.
        let mut stuck = std::os::unix::net::UnixStream::connect(&path).expect("stuck connect");
        let mut flood = proto::preamble().to_vec();
        for _ in 0..STUCK_FRAMES {
            let body = Request::GetStats.encode();
            flood.extend_from_slice(&raw_frame(&body, checksum(&body)));
        }
        stuck.write_all(&flood).expect("flood");
        // Margin only: the server fills the buffer within a few hundred
        // replies, long before the client below finishes; the bound holds
        // for a correct server either way.
        std::thread::sleep(Duration::from_millis(200));

        let t = Instant::now();
        let ep = Endpoint::Unix(path.clone());
        let mut c = NetClient::connect(&ep, NetClientConfig::default()).expect("connect");
        let slot = c
            .open_stream("cam0", "cam-00", IngestOptions::default())
            .expect("open");
        c.push_batch(slot, &streams[0].2[..SEGS]).expect("push");
        c.close_stream(slot).expect("close");
        let took = t.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "a stalled reader must not hold up other connections: took {took:?}"
        );

        // Unstick: half-close, then read every reply up to the server's
        // hang-up. Closing with replies unread would reset the connection,
        // which the server may count as a violation.
        stuck
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        stuck
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut replies = Vec::new();
        stuck.read_to_end(&mut replies).expect("replies");
        drop(stuck);
        let (mut frames, mut at) = (0, proto::PREAMBLE_LEN);
        while at + 12 <= replies.len() {
            let len = u32::from_le_bytes(replies[at..at + 4].try_into().unwrap()) as usize;
            at += 12 + len;
            frames += 1;
        }
        assert_eq!(at, replies.len(), "replies end at a frame boundary");
        assert_eq!(frames, STUCK_FRAMES, "every request was answered");

        c.shutdown_server().expect("shutdown");
        let outs = c.recv_outcomes(1).expect("outcomes");
        assert_eq!(outs[0].stream, slot);
    });
    assert_eq!(report.connections, 2);
    assert_eq!(report.malformed, 0, "a slow consumer is not a violation");
    assert_eq!(report.autoclosed_streams, 0);
    assert_multi_outcomes_bitwise_equal("beside a stuck client", &reference, &report.outcome);
}

// ---- Protocol fuzzing: mutated, torn, and mis-framed input. ----

/// Hand-build one wire frame: `u32 len (LE) · u64 checksum (LE) · body`.
fn raw_frame(body: &[u8], stamp: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&stamp.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// One adversarial connection: connect, speak a valid preamble, then send
/// one corrupted frame drawn from the seeded mutation space. Returns true
/// if the server hung the connection up (vs answering and keeping it).
fn fuzz_connection(path: &Path, seed: u64, sample: &[Segment]) -> bool {
    let mut rng = StdRng::seed_from_u64(0xF0CC_0000 + seed);
    let mut sock = std::os::unix::net::UnixStream::connect(path).expect("fuzz connect");
    sock.set_read_timeout(Some(Duration::from_millis(100)))
        .expect("timeout");
    sock.write_all(&proto::preamble()).expect("fuzz preamble");

    // A valid body to mutate, covering every request tag.
    let body = match seed % 5 {
        0 => Request::Hello {
            client: "fuzz".into(),
        }
        .encode(),
        1 => Request::OpenStream {
            profile: "nosuch".into(),
            name: "fuzz".into(),
            options: IngestOptions::default(),
        }
        .encode(),
        2 => Request::encode_push(0, 0, &sample[..3]),
        3 => Request::CloseStream { stream: 0 }.encode(),
        _ => Request::GetStats.encode(),
    };

    let wire = match seed % 4 {
        0 => {
            // Byte flips with the checksum re-stamped VALID: the framing
            // layer must pass it through and the decoder answer typed.
            let mut b = body;
            for _ in 0..rng.gen_range(1..5usize) {
                let i = rng.gen_range(0..b.len());
                b[i] ^= 1 << rng.gen_range(0..8u32);
            }
            let stamp = checksum(&b);
            raw_frame(&b, stamp)
        }
        1 => {
            // Byte flips with the checksum left stale: caught as corrupt.
            let stamp = checksum(&body);
            let mut b = body;
            let i = rng.gen_range(0..b.len());
            b[i] ^= 0xFF;
            raw_frame(&b, stamp)
        }
        2 => {
            // A length field far past the frame cap.
            let mut f = raw_frame(&body, checksum(&body));
            f[..4].copy_from_slice(&(u32::MAX - rng.gen_range(0..1024u32)).to_le_bytes());
            f
        }
        _ => {
            // A torn frame: the header promises more than ever arrives.
            let f = raw_frame(&body, checksum(&body));
            f[..f.len() / 2].to_vec()
        }
    };
    sock.write_all(&wire).expect("fuzz frame");
    if seed % 4 == 3 {
        // Tear the connection mid-frame with a half-close: the server sees
        // EOF inside a frame body, but the socket stays open on our side
        // until it has been accepted and answered — a full close here can
        // get the backlog entry reaped before accept() ever returns it.
        sock.shutdown(std::net::Shutdown::Write)
            .expect("half-close");
    }
    // Read whatever typed answer comes back until EOF or quiesce; the
    // server must never leave us hanging in an undefined state.
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut buf = [0u8; 4096];
    let mut hung_up = false;
    while Instant::now() < deadline {
        match sock.read(&mut buf) {
            Ok(0) => {
                hung_up = true;
                break;
            }
            Ok(_) => continue,
            Err(_) => break, // timeout tick: server answered and kept us
        }
    }
    hung_up
}

#[test]
fn fuzzed_frames_are_contained_and_state_survives() {
    const SEGS: usize = 240;
    const FUZZ_SEEDS: u64 = 16;
    let streams = fixture();
    let reference = inprocess_reference(&[SEGS], true);
    let path = sock_path("fuzz");
    let server = NetServer::bind(ServerConfig {
        unix: Some(path.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    // The profile name is unguessable by a byte-flip of the fuzz
    // templates, so no mutated OpenStream can admit a real stream.
    let mut service = IngestService::new(rt_config());
    let (w, m, _) = &fixture()[0];
    service.register_profile("profile-a9f3c2d1", m, w);

    let (report, ()) = serve_and_drive(server, service, move || {
        let ep = Endpoint::Unix(path.clone());
        let mut clean = NetClient::connect(&ep, NetClientConfig::default()).expect("connect");
        let slot = clean
            .open_stream("profile-a9f3c2d1", "cam-00", IngestOptions::default())
            .expect("open");
        // Half the schedule before the storm, half after: corruption in
        // between must not perturb a single bit of the stream's outcome.
        clean
            .push_batch(slot, &streams[0].2[..SEGS / 2])
            .expect("push before storm");
        for seed in 0..FUZZ_SEEDS {
            fuzz_connection(&path, seed, &streams[0].2);
        }
        // A well-formed push to an owned stream whose `base_seq` range does
        // not fit a u64: rejected typed and terminal before any state or
        // journal change (the stream's outcome below still matches the
        // reference), and the connection keeps serving.
        let overflowing = Request::PushSegments {
            stream: slot,
            base_seq: u64::MAX,
            segs: streams[0].2[SEGS / 2..SEGS / 2 + 1].to_vec(),
        };
        match clean.request(&overflowing).expect("typed reply") {
            proto::Reply::Rejected {
                retryable: false,
                accepted: 0,
                reason,
                ..
            } => assert!(reason.contains("base_seq"), "{reason}"),
            other => panic!("expected a terminal rejection, got {other:?}"),
        }
        clean
            .push_batch(slot, &streams[0].2[SEGS / 2..SEGS])
            .expect("push after storm");
        clean.close_stream(slot).expect("close");
        clean.shutdown_server().expect("shutdown");
        let outs = clean.recv_outcomes(1).expect("outcomes");
        assert_eq!(outs[0].stream, slot);
    });

    assert_eq!(
        report.outcome.streams.len(),
        1,
        "no fuzzed frame ever admitted a stream"
    );
    assert_eq!(report.connections as u64, FUZZ_SEEDS + 1);
    // Stale checksums, oversize lengths, and torn frames are always
    // violations (3 of every 4 seeds); re-stamped mutations may decode as
    // well-formed requests and be answered without closing.
    assert!(
        report.malformed as u64 >= 3 * FUZZ_SEEDS / 4,
        "corrupt frames are counted: {} of {FUZZ_SEEDS}",
        report.malformed
    );
    assert_eq!(report.autoclosed_streams, 0);
    assert_multi_outcomes_bitwise_equal("fuzz storm vs reference", &reference, &report.outcome);
}
