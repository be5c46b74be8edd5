//! Hot-path regression tests: zero pool misses on the warm path, buffer
//! recycling under pipelined load, coalescing correctness over real
//! sockets, and fail-fast on dead connections.

use std::sync::Arc;
use std::time::Duration;

use weaver_transport::{
    BufferPool, Connection, RequestHeader, ResponseBody, RpcHandler, Server, Status,
    TransportError, WeaverFraming,
};

fn echo() -> Arc<dyn RpcHandler> {
    Arc::new(|_h: &RequestHeader, args: &[u8]| ResponseBody {
        status: Status::Ok,
        payload: args.to_vec().into(),
    })
}

fn header() -> RequestHeader {
    RequestHeader {
        version: 1,
        ..Default::default()
    }
}

/// The allocation-count regression test: once warm, a round-trip must be
/// served entirely from recycled buffers — zero pool misses in steady state.
#[test]
fn warm_round_trip_has_zero_pool_misses() {
    let client_pool = BufferPool::new();
    let server_pool = BufferPool::new();
    let server =
        Server::<WeaverFraming>::bind_with_pool("127.0.0.1:0", 2, echo(), server_pool.clone())
            .unwrap();
    let conn =
        Connection::<WeaverFraming>::connect_with_pool(server.local_addr(), client_pool.clone())
            .unwrap();
    let h = header();

    // Warm-up: populate every size class this workload touches (request
    // encode, response receive on the client; request receive, response
    // encode on the server).
    for _ in 0..32 {
        conn.call(&h, &[5u8; 200], Some(Duration::from_secs(5)))
            .unwrap();
    }
    // Responses recycle asynchronously after the caller drops the payload;
    // give in-flight recycling a moment to settle.
    std::thread::sleep(Duration::from_millis(50));

    let client_before = client_pool.stats();
    let server_before = server_pool.stats();
    for _ in 0..100 {
        let resp = conn
            .call(&h, &[5u8; 200], Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(resp.payload, [5u8; 200][..]);
    }
    std::thread::sleep(Duration::from_millis(50));
    let client_after = client_pool.stats();
    let server_after = server_pool.stats();

    assert_eq!(
        client_after.misses, client_before.misses,
        "client warm path must not miss the pool: {client_before:?} -> {client_after:?}"
    );
    assert_eq!(
        server_after.misses, server_before.misses,
        "server warm path must not miss the pool: {server_before:?} -> {server_after:?}"
    );
    // And the pool is actually being used, not bypassed.
    assert!(
        client_after.hits > client_before.hits + 100,
        "client hot path should draw from the pool: {client_before:?} -> {client_after:?}"
    );
    assert!(
        server_after.hits > server_before.hits + 100,
        "server hot path should draw from the pool: {server_before:?} -> {server_after:?}"
    );
}

/// Buffers must recycle correctly when 8 pipelined callers share one
/// connection: every response intact, and the pools bounded (recycling
/// keeps up — a leak would show up as misses growing with call count).
#[test]
fn pipelined_callers_share_recycled_buffers() {
    const CALLERS: usize = 8;
    const CALLS: usize = 200;
    let client_pool = BufferPool::new();
    let server_pool = BufferPool::new();
    let server =
        Server::<WeaverFraming>::bind_with_pool("127.0.0.1:0", 4, echo(), server_pool.clone())
            .unwrap();
    let conn = Arc::new(
        Connection::<WeaverFraming>::connect_with_pool(server.local_addr(), client_pool.clone())
            .unwrap(),
    );

    std::thread::scope(|s| {
        for caller in 0..CALLERS as u8 {
            let conn = Arc::clone(&conn);
            s.spawn(move || {
                let h = header();
                for i in 0..CALLS {
                    let args = [caller, i as u8, 3, 4, 5];
                    let resp = conn.call(&h, &args, Some(Duration::from_secs(10))).unwrap();
                    assert_eq!(resp.status, Status::Ok);
                    assert_eq!(resp.payload, args[..], "caller {caller} call {i}");
                }
            });
        }
    });

    // 8 × 200 calls × ~2 buffers per side: without recycling this would be
    // thousands of misses. With it, misses stay around the concurrency
    // level (each thread may fault in its first few buffers).
    let stats = client_pool.stats();
    assert!(
        stats.misses < 100,
        "client misses should be bounded by concurrency, got {stats:?}"
    );
    assert!(
        stats.hits > 1000,
        "client should mostly hit the warm pool, got {stats:?}"
    );
    let stats = server_pool.stats();
    assert!(
        stats.misses < 100,
        "server misses should be bounded by concurrency, got {stats:?}"
    );
}

/// Coalescing correctness over a real socket: N pipelined requests must all
/// arrive as valid frames and produce correct responses no matter how the
/// writer batches them, and the writer must actually coalesce (fewer
/// flushes than frames under pipelining).
#[test]
fn coalesced_batches_parse_as_back_to_back_frames() {
    const CALLERS: usize = 8;
    const CALLS: usize = 50;
    // Handler echoes with a method-dependent suffix so responses can't be
    // confused across streams.
    let handler: Arc<dyn RpcHandler> = Arc::new(|h: &RequestHeader, args: &[u8]| {
        let mut payload = args.to_vec();
        payload.extend_from_slice(&h.method.to_le_bytes());
        ResponseBody {
            status: Status::Ok,
            payload: payload.into(),
        }
    });
    let server = Server::<WeaverFraming>::bind("127.0.0.1:0", 4, handler).unwrap();
    let conn = Arc::new(Connection::<WeaverFraming>::connect(server.local_addr()).unwrap());

    std::thread::scope(|s| {
        for caller in 0..CALLERS as u32 {
            let conn = Arc::clone(&conn);
            s.spawn(move || {
                let h = RequestHeader {
                    method: caller,
                    version: 1,
                    ..Default::default()
                };
                for i in 0..CALLS {
                    // Vary the payload size to vary batching boundaries.
                    let args = vec![i as u8; 1 + (i * 37) % 600];
                    let resp = conn.call(&h, &args, Some(Duration::from_secs(10))).unwrap();
                    let mut expect = args.clone();
                    expect.extend_from_slice(&caller.to_le_bytes());
                    assert_eq!(resp.payload, expect[..]);
                }
            });
        }
    });

    let (frames, flushes) = conn.writer_counters();
    assert_eq!(frames, (CALLERS * CALLS) as u64);
    assert!(
        flushes < frames,
        "pipelined writes should coalesce: {frames} frames in {flushes} flushes"
    );
}

/// Satellite fix: when the socket dies with requests still queued, callers
/// fail fast with `ConnectionClosed` instead of the flush spinning on (or
/// silently accumulating) an unbounded queue.
#[test]
fn dead_connection_fails_fast_without_spinning() {
    let server = Server::<WeaverFraming>::bind("127.0.0.1:0", 2, echo()).unwrap();
    let conn = Connection::<WeaverFraming>::connect(server.local_addr()).unwrap();
    let h = header();
    conn.call(&h, &[1], Some(Duration::from_secs(5))).unwrap();

    server.shutdown();
    // Wait for the reader to observe the severed socket and mark the
    // connection dead.
    for _ in 0..100 {
        if conn.is_dead() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        conn.is_dead(),
        "severed socket must mark the connection dead"
    );

    // Every subsequent call fails immediately — bounded time, correct error,
    // no frames written for them.
    let (frames_before, _) = conn.writer_counters();
    let started = std::time::Instant::now();
    for _ in 0..50 {
        assert_eq!(
            conn.call(&h, &[2u8; 100], Some(Duration::from_secs(30))),
            Err(TransportError::ConnectionClosed)
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "dead-connection calls must fail fast, took {:?}",
        started.elapsed()
    );
    let (frames_after, _) = conn.writer_counters();
    assert_eq!(
        frames_after, frames_before,
        "no frames may be written to a dead connection"
    );
    assert_eq!(conn.in_flight(), 0);
}
