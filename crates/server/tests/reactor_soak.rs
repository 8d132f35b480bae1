//! Reactor soak: thousands of concurrent connections on a fixed,
//! small number of shard threads.
//!
//! The pre-reactor server held one thread per active connection, so "4k
//! concurrent peers" meant 4k threads or a 4k-deep accept queue. The
//! reactor multiplexes them all onto `workers` event loops; this suite
//! holds it to that:
//!
//! - ≥4k connections, mostly idle with an active minority, all live at
//!   once on two shards — and every one of them accounted:
//!   `accepted == closed`, `active == 0`, zero slot leaks, zero panics;
//! - idle connections are *not* timed out (only mid-frame stalls and
//!   unread replies are) and still answer after sitting idle;
//! - past `max_connections` the server sheds at the door with a typed
//!   `Busy` frame naming a backoff — never a silent RST — and shed
//!   connections stay out of the accepted/closed accounting.
//!
//! The default shape (4,096 idle + every 16th pinged) keeps CI fast;
//! `EXTSEC_SOAK_FULL=1` raises the load for the release leg. The chosen
//! configuration is logged so the release-leg output records what was
//! actually soaked.

use extsec_mac::Lattice;
use extsec_refmon::MonitorBuilder;
use extsec_server::proto::{self, Request, Response, MAX_FRAME};
use extsec_server::{read_response, Server, ServerConfig};
use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

fn spawn_server(config: ServerConfig) -> Server {
    let lattice = Lattice::build(["user", "system"], ["net"]).unwrap();
    let builder = MonitorBuilder::new(lattice);
    let monitor = builder.build();
    Server::spawn(monitor, "127.0.0.1:0", config).unwrap()
}

fn ping(stream: &mut TcpStream) {
    proto::write_frame(stream, &Request::Ping.encode()).unwrap();
    match read_response(stream, MAX_FRAME).unwrap() {
        Response::Pong => {}
        other => panic!("wanted Pong, got {other:?}"),
    }
}

#[test]
fn thousands_of_connections_on_fixed_shards() {
    let full = std::env::var("EXTSEC_SOAK_FULL").is_ok();
    let connections: usize = if full { 6000 } else { 4096 };
    let active_every = 16;
    let config = ServerConfig {
        workers: 2,
        accept_queue: 8192,
        max_connections: 8192,
        read_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    println!(
        "soak config: connections={connections} active_every={active_every} \
         workers={} accept_queue={} max_connections={} full={full}",
        config.workers, config.accept_queue, config.max_connections
    );
    let server = spawn_server(config);
    let addr = server.local_addr();

    let mut conns: Vec<TcpStream> = Vec::with_capacity(connections);
    for i in 0..connections {
        let stream = TcpStream::connect(addr)
            .unwrap_or_else(|e| panic!("connect {i} of {connections} failed: {e}"));
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conns.push(stream);
    }

    // With every connection live, the active minority must still get
    // answers — the idle majority costs readiness registrations, not
    // threads or queue slots.
    for stream in conns.iter_mut().step_by(active_every) {
        ping(stream);
    }

    // Idle connections are not reaped: sit past several read timeouts,
    // then every probed connection must still answer.
    std::thread::sleep(Duration::from_millis(50));
    for stream in conns.iter_mut().step_by(active_every * 8) {
        ping(stream);
    }

    // Registration is asynchronous (accept → shard inbox → slab); give
    // the shards a moment to drain the tail before taking the census.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let snapshot = loop {
        let snapshot = server.telemetry().snapshot();
        if snapshot.active as usize == connections || std::time::Instant::now() > deadline {
            break snapshot;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(
        snapshot.active as usize, connections,
        "every connection should be live and registered"
    );
    assert_eq!(snapshot.accepted as usize, connections);
    assert_eq!(snapshot.worker_panics, 0);
    assert_eq!(snapshot.timeouts, 0, "idle connections must not time out");
    assert_eq!(snapshot.shed_accept, 0, "under the cap nothing is shed");

    drop(conns);
    let stats = server.shutdown();
    println!(
        "soak result: accepted={} closed={} polls={} ready={} wakeups={} flushes={}",
        stats.accepted, stats.closed, stats.polls, stats.ready_events, stats.wakeups, stats.flushes
    );
    assert_eq!(stats.accepted as usize, connections);
    assert_eq!(stats.accepted, stats.closed, "no slot may leak");
    assert_eq!(stats.active, 0);
    assert_eq!(stats.worker_panics, 0);
}

#[test]
fn overload_sheds_with_typed_busy_and_leaks_nothing() {
    let cap = 64;
    let server = spawn_server(ServerConfig {
        workers: 2,
        max_connections: cap,
        shed_retry_after: Duration::from_millis(35),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let mut held: Vec<TcpStream> = (0..cap)
        .map(|i| {
            let stream = TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("connect {i} of {cap} failed: {e}"));
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream
        })
        .collect();
    // Prove the cap-filling connections are real, served connections.
    ping(&mut held[0]);
    ping(&mut held[cap - 1]);

    // One past the cap: a typed Busy frame naming the backoff, then a
    // clean EOF — the refusal is legible, not a silent RST.
    let mut over = TcpStream::connect(addr).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match read_response(&mut over, MAX_FRAME).unwrap() {
        Response::Busy { retry_after_ms } => assert_eq!(retry_after_ms, 35),
        other => panic!("wanted Busy, got {other:?}"),
    }
    let mut sink = [0u8; 16];
    assert_eq!(over.read(&mut sink).unwrap(), 0, "after Busy: clean EOF");

    // Free a slot and the door opens again.
    drop(held.remove(0));
    let mut retry = loop {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // The freed slot is reclaimed asynchronously; a Busy here just
        // means the close has not landed yet.
        match proto::write_frame(&mut stream, &Request::Ping.encode()) {
            Ok(()) => {}
            Err(_) => continue,
        }
        let response = match read_response(&mut stream, MAX_FRAME) {
            Ok(response) => response,
            Err(_) => continue,
        };
        match response {
            Response::Pong => break stream,
            Response::Busy { .. } => {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            other => panic!("wanted Pong or Busy, got {other:?}"),
        }
    };
    ping(&mut retry);

    drop(retry);
    drop(held);
    let stats = server.shutdown();
    assert!(stats.shed_accept >= 1, "the over-cap connect must be shed");
    assert_eq!(
        stats.accepted, stats.closed,
        "shed connections never enter the accounting; served ones balance"
    );
    assert_eq!(stats.active, 0);
    assert_eq!(stats.worker_panics, 0);
}
