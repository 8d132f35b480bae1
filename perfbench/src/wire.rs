//! `wire_batch`: closed-loop `BatchCheck` round trips over loopback TCP.
//!
//! One generator thread drives two connections to an in-process server
//! with one shard; each connection keeps one batch outstanding. The
//! world is a 10^4-principal campus with audit off and the decision
//! cache on. Batch sizes are 1 (60 %), 16 (25 %) and 64 (15 %), so the
//! round-trip p50 falls in the batch-1 mode and p99 in the batch-64 mode.

use crate::checks::{campus_spec, replay_check_path, CheckInput, CheckPool};
use crate::trace::{Root, Sp, Tracer};
use crate::util::{median, per_item_ns, ratio, Rng, Timeline};
use crate::{more_setups, Args, Report};
use extsec_campaign::World;
use extsec_core::{AccessMode, MonitorConfig, NsPath};
use extsec_server::proto::{self, FrameScan, Request, Response, MAX_FRAME};
use extsec_server::{BatchItem, Server, ServerConfig, ServerTelemetrySnapshot};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const FRAMES: usize = 8192;
const BATCH_SIZES: [usize; 3] = [1, 16, 64];
const BATCH_WEIGHTS: [u32; 3] = [60, 25, 15];

/// One pre-generated request: its subject, the pool items it checks, and
/// its encoded frame.
struct Frame {
    subject: u32,
    items: Vec<u32>,
    bytes: Vec<u8>,
}

/// The system under test: the monitor's world, the server, two
/// connections with their reassembly buffers.
struct Sut {
    world: World,
    server: Server,
    conns: Vec<Conn>,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Reads one whole response frame; returns its opcode and payload
    /// range inside `buf` and the frame length to discard afterwards.
    fn read_frame(&mut self) -> Result<(u8, usize, usize), String> {
        loop {
            match proto::scan_frame(&self.buf, MAX_FRAME).map_err(|e| format!("{e}"))? {
                FrameScan::Complete {
                    opcode,
                    payload_start,
                    consumed,
                } => return Ok((opcode, payload_start, consumed)),
                FrameScan::Partial => {
                    let mut chunk = [0u8; 16 * 1024];
                    let n = self.stream.read(&mut chunk).map_err(|e| format!("{e}"))?;
                    if n == 0 {
                        return Err("server closed the connection".into());
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
            }
        }
    }

    fn consume(&mut self, n: usize) {
        self.buf.drain(..n);
    }
}

fn setup(seed: u64, pool: &CheckPool, report: &mut Report) -> (Sut, f64, f64) {
    let start = Instant::now();
    let (world, stats) = World::build_timed(&campus_spec(seed));
    world.monitor.set_config(MonitorConfig {
        audit: false,
        decision_cache: true,
        ..world.monitor.config()
    });
    let server = Server::spawn(
        world.monitor.clone(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("spawn server on loopback");
    let mut conns: Vec<Conn> = (0..2)
        .map(|_| {
            let stream = TcpStream::connect(server.local_addr()).expect("connect to server");
            stream.set_nodelay(true).expect("set TCP_NODELAY");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("set read timeout");
            Conn {
                stream,
                buf: Vec::with_capacity(64 * 1024),
            }
        })
        .collect();
    // Warm-up: every pool key once, so the cache holds the working set.
    for (s, items) in pool.items.iter().enumerate() {
        let request = Request::BatchCheck {
            subject: pool.subjects[s].clone(),
            items: items
                .iter()
                .map(|(path, mode, _)| BatchItem {
                    path: path.clone(),
                    mode: *mode,
                })
                .collect(),
        };
        let conn = &mut conns[s % 2];
        conn.stream
            .write_all(&request.encode())
            .expect("send warm-up batch");
        let ok = match read_batch(conn) {
            Ok(decisions) => decisions
                .iter()
                .zip(items)
                .all(|(got, (_, _, want))| got == want),
            Err(_) => false,
        };
        report.tally(items.len() as u64, ok);
    }
    let secs = start.elapsed().as_secs_f64();
    (
        Sut {
            world,
            server,
            conns,
        },
        secs,
        stats.build.as_secs_f64() * 1e3,
    )
}

fn read_batch(conn: &mut Conn) -> Result<Vec<extsec_core::Decision>, String> {
    let (opcode, start, consumed) = conn.read_frame()?;
    let response = Response::decode(opcode, &conn.buf[start..consumed]).map_err(|e| format!("{e}"));
    conn.consume(consumed);
    match response? {
        Response::Batch(decisions) => Ok(decisions),
        other => Err(format!("unexpected response {other:?}")),
    }
}

fn frames(pool: &CheckPool, seed: u64, report: &mut Report) -> Vec<Frame> {
    let mut rng = Rng::new(seed ^ 0x3172e);
    let mut per_size = [0usize; 3];
    let (mut items_total, mut denied) = (0usize, 0usize);
    let frames: Vec<Frame> = (0..FRAMES)
        .map(|_| {
            let k = rng.weighted(&BATCH_WEIGHTS);
            per_size[k] += 1;
            let subject = pool.subject_zipf.sample(&mut rng) as u32;
            let items: Vec<u32> = (0..BATCH_SIZES[k])
                .map(|_| pool.item_zipf.sample(&mut rng) as u32)
                .collect();
            items_total += items.len();
            denied += items
                .iter()
                .filter(|i| !pool.item(subject, **i).2.allowed())
                .count();
            let bytes = request(pool, subject, &items).encode();
            Frame {
                subject,
                items,
                bytes,
            }
        })
        .collect();
    let mut digest = crate::util::Digest::new();
    for f in &frames {
        digest.bytes(&f.bytes);
    }
    report.note(format!(
        "digest: workload=wire_batch world=[{}] pool_keys={} pool_hash={} frames={} batch1={} batch16={} batch64={} items={} expected_deny_share={:.4} frames_hash={}",
        campus_spec(0).to_string().replace(" seed=0", ""),
        pool.keys(),
        pool.digest.hex(),
        FRAMES,
        per_size[0],
        per_size[1],
        per_size[2],
        items_total,
        ratio(denied as f64, items_total as f64),
        digest.hex()
    ));
    frames
}

fn request(pool: &CheckPool, subject: u32, items: &[u32]) -> Request {
    Request::BatchCheck {
        subject: pool.subjects[subject as usize].clone(),
        items: items
            .iter()
            .map(|i| {
                let (path, mode, _) = pool.item(subject, *i);
                BatchItem {
                    path: path.clone(),
                    mode: *mode,
                }
            })
            .collect(),
    }
}

/// Counters of one traced phase, for the per-layer ledger.
#[derive(Default)]
struct PhaseCounts {
    items: u64,
    denied: u64,
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let oracle_world = World::build(&campus_spec(args.seed));
    let pool = CheckPool::build(&oracle_world, args.seed);
    let frames = frames(&pool, args.seed, &mut report);
    let nodes = oracle_world.monitor.inspect(|ns| ns.len());
    drop(oracle_world);

    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut sut: Option<Sut> = None;
    while more_setups(&setups) {
        if let Some(old) = sut.take() {
            old.shutdown(&mut report);
        }
        let (s, secs, build_ms) = setup(args.seed, &pool, &mut report);
        setups.push(secs);
        builds.push(build_ms);
        sut = Some(s);
    }
    let mut sut = sut.expect("at least one set-up");
    report.check(
        "system world matches the oracle world",
        sut.world.monitor.inspect(|ns| ns.len()) == nodes,
    );
    report.setup_times(&setups);
    report.set("campaign.world_build_ms", median(&builds));

    let base = Instant::now();
    let mut next = 0usize;
    let mut responses: Vec<(u8, Vec<u8>)> = Vec::new();
    let mut overhead_ops = [0.0f64; 2];
    for (traced, window) in args.phases() {
        let mut tracer = Tracer::new(traced, base, 0);
        let cache0 = sut.world.monitor.cache_stats();
        let tele0 = sut.server.telemetry().snapshot();
        let mut counts = PhaseCounts::default();
        let start = Instant::now();
        let deadline = start + window;
        let mut timeline = Timeline::new(start, window);
        let mut in_flight: Vec<Option<InFlight>> = Vec::with_capacity(2);
        for c in 0..2 {
            let f = next % FRAMES;
            next += 1;
            in_flight.push(Some(send(&mut sut.conns[c], f, &frames[f], &mut tracer)));
        }
        while in_flight.iter().any(Option::is_some) {
            for (c, slot) in in_flight.iter_mut().enumerate() {
                let Some(InFlight {
                    frame: f,
                    sent,
                    mut root,
                    t_write,
                }) = slot.take()
                else {
                    continue;
                };
                let frame = &frames[f];
                let got = sut.conns[c].read_frame();
                let received = Instant::now();
                timeline.record(
                    received,
                    received.duration_since(sent).as_nanos() as u64,
                    frame.items.len() as u64,
                );
                let t_recv = tracer.stamp();
                tracer.child(&mut root, Sp::Rtt, t_write, t_recv);
                // `alive`: the reply was a well-formed batch, so the
                // connection can carry the next request even if a decision
                // in it was wrong.
                let (ok, alive) = match got {
                    Ok((opcode, pstart, consumed)) => {
                        let conn = &mut sut.conns[c];
                        if responses.len() < 512 {
                            responses.push((opcode, conn.buf[pstart..consumed].to_vec()));
                        }
                        let decoded = Response::decode(opcode, &conn.buf[pstart..consumed]);
                        conn.consume(consumed);
                        let t_dec = tracer.stamp();
                        tracer.child(&mut root, Sp::Decode, t_recv, t_dec);
                        let verdict = match decoded {
                            Ok(Response::Batch(decisions)) => {
                                let ok = decisions.len() == frame.items.len()
                                    && decisions.iter().zip(&frame.items).all(|(got, i)| {
                                        let want = &pool.item(frame.subject, *i).2;
                                        counts.denied += u64::from(!want.allowed());
                                        got == want
                                    });
                                (ok, true)
                            }
                            other => {
                                report.note(format!("unexpected reply: {other:?}"));
                                (false, false)
                            }
                        };
                        let t_ver = tracer.stamp();
                        tracer.child(&mut root, Sp::Verify, t_dec, t_ver);
                        tracer.close(root, t_ver);
                        verdict
                    }
                    Err(e) => {
                        report.note(format!("wire error: {e}"));
                        (false, false)
                    }
                };
                counts.items += frame.items.len() as u64;
                report.tally(frame.items.len() as u64, ok);
                if alive && Instant::now() < deadline {
                    let f = next % FRAMES;
                    next += 1;
                    *slot = Some(send(&mut sut.conns[c], f, &frames[f], &mut tracer));
                }
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let ops_per_s = ratio(counts.items as f64, secs);
        overhead_ops[traced as usize] = ops_per_s;
        if !traced {
            report.latency("wire_batch untraced", &mut timeline);
            continue;
        }
        // Per-layer numbers from the traced phase.
        let cache1 = sut.world.monitor.cache_stats();
        let tele1 = sut.server.telemetry().snapshot();
        layer_counts(&mut report, &tele0, &tele1);
        let hits = (cache1.hits - cache0.hits) as f64;
        let misses = (cache1.misses - cache0.misses) as f64;
        report.set("refmon.cache_hit_ratio", ratio(hits, hits + misses));
        report.set(
            "refmon.cache_invalidations",
            (cache1.invalidations - cache0.invalidations) as f64,
        );
        report.set(
            "refmon.deny_share",
            ratio(counts.denied as f64, counts.items as f64),
        );
        let rtt = tracer.p50_us(Sp::Rtt);
        report.set("server.rtt_us", rtt);
        report.set("ledger.unattributed_share", tracer.unattributed_share());
        let eval = tele1.batch_latency.p50 as f64 / 1e3;
        report.set("server.batch_eval_p50_us", eval);
        report.set("server.wire_overhead_us", rtt - eval);
        let path =
            std::path::PathBuf::from(format!(".bench_out/trace-wire_batch-seed{}.tsv", args.seed));
        if let Err(e) = tracer.write_tsv(&path) {
            report.note(format!("could not write spans: {e}"));
        }
    }
    report.peak_rss();
    if args.trace {
        report.set(
            "bench.tracing_overhead",
            ratio(overhead_ops[0], overhead_ops[1]) - 1.0,
        );
    }

    let (world, snap) = sut.shutdown(&mut report);
    report.set("server.protocol_errors", snap.protocol_errors as f64);
    if args.trace {
        replay(&world, &pool, &frames, &responses, &mut report);
    }
    report
}

impl Sut {
    /// Closes the connections, stops the server and checks its final
    /// counters.
    fn shutdown(self, report: &mut Report) -> (World, ServerTelemetrySnapshot) {
        let Sut {
            world,
            server,
            conns,
        } = self;
        drop(conns);
        let snap = server.shutdown();
        check_server(report, &snap);
        (world, snap)
    }
}

fn check_server(report: &mut Report, snap: &ServerTelemetrySnapshot) {
    report.check(
        format!(
            "server accepted == closed ({} == {})",
            snap.accepted, snap.closed
        ),
        snap.accepted == snap.closed,
    );
    report.check(
        format!("server protocol_errors == 0 ({})", snap.protocol_errors),
        snap.protocol_errors == 0,
    );
    report.check(
        format!("server worker_panics == 0 ({})", snap.worker_panics),
        snap.worker_panics == 0,
    );
    report.check(
        format!(
            "server shed nothing (accept {}, budget {})",
            snap.shed_accept, snap.shed_budget
        ),
        snap.shed_accept == 0 && snap.shed_budget == 0,
    );
}

/// A request on the wire, waiting for its reply.
struct InFlight {
    frame: usize,
    sent: Instant,
    root: Root,
    t_write: u64,
}

/// Writes one pre-encoded frame; encoding is timed in the replay phase.
fn send(conn: &mut Conn, f: usize, frame: &Frame, tracer: &mut Tracer) -> InFlight {
    let t_write = tracer.stamp();
    let root = tracer.root(f as u64, t_write);
    let sent = Instant::now();
    // A failed write shows up as a failed read of the reply.
    let _ = conn.stream.write_all(&frame.bytes);
    InFlight {
        frame: f,
        sent,
        root,
        t_write,
    }
}

fn layer_counts(report: &mut Report, t0: &ServerTelemetrySnapshot, t1: &ServerTelemetrySnapshot) {
    let polls = (t1.polls - t0.polls) as f64;
    let ready = (t1.ready_events - t0.ready_events) as f64;
    report.set("server.ready_per_poll", ratio(ready, polls));
    let flushes = (t1.flushes - t0.flushes) as f64;
    let responses = (t1.flushed_responses - t0.flushed_responses) as f64;
    report.set("server.flushes_per_response", ratio(flushes, responses));
}

/// The replay phase: re-times the server codec and the monitor's batch
/// path on the frames and replies the run actually used.
fn replay(
    world: &World,
    pool: &CheckPool,
    frames: &[Frame],
    responses: &[(u8, Vec<u8>)],
    report: &mut Report,
) {
    let sample: Vec<&Frame> = frames.iter().take(1024).collect();
    let requests: Vec<Request> = sample
        .iter()
        .map(|f| request(pool, f.subject, &f.items))
        .collect();
    report.set(
        "server.request_encode_ns",
        per_item_ns(requests.len(), 20, || {
            for r in &requests {
                black_box(r.encode());
            }
        }),
    );
    report.set(
        "server.frame_decode_ns",
        per_item_ns(sample.len(), 20, || {
            for f in &sample {
                if let Ok(FrameScan::Complete {
                    opcode,
                    payload_start,
                    consumed,
                }) = proto::scan_frame(&f.bytes, MAX_FRAME)
                {
                    let _ = black_box(Request::decode(opcode, &f.bytes[payload_start..consumed]));
                }
            }
        }),
    );
    report.set(
        "server.response_decode_ns",
        per_item_ns(responses.len(), 20, || {
            for (opcode, payload) in responses {
                let _ = black_box(Response::decode(*opcode, payload));
            }
        }),
    );
    let batches: Vec<(usize, Vec<(NsPath, AccessMode)>)> = sample
        .iter()
        .map(|f| {
            (
                f.subject as usize,
                f.items
                    .iter()
                    .map(|i| {
                        let (p, m, _) = pool.item(f.subject, *i);
                        (p.clone(), *m)
                    })
                    .collect(),
            )
        })
        .collect();
    let items: usize = batches.iter().map(|(_, b)| b.len()).sum();
    report.set(
        "refmon.batch_item_ns",
        per_item_ns(items, 20, || {
            for (s, batch) in &batches {
                black_box(world.monitor.view().check_batch(&pool.subjects[*s], batch));
            }
        }),
    );
    let inputs: Vec<CheckInput> = sample
        .iter()
        .flat_map(|f| {
            f.items.iter().map(|i| {
                let (p, m, _) = pool.item(f.subject, *i);
                (pool.subjects[f.subject as usize].clone(), p.clone(), *m)
            })
        })
        .take(2048)
        .collect();
    replay_check_path(&world.monitor, &inputs, report);
}
