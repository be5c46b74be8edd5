//! Timed probes into single layers, run after the measured phase: the
//! codec on values the workload produced, the metrics recorders, an RPC
//! to an echo server, and a bare-socket ping-pong (the kernel floor).
//!
//! Each probe times batches and reports the median batch, so a stray
//! preemption moves one batch rather than the figure.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use boutique::types::{HomeView, PlaceOrderRequest};
use weaver_codec::{decode_from_slice, encode_to_vec, Decode, Encode};
use weaver_metrics::{CallEdge, CallGraph, Histogram};
use weaver_transport::{
    Connection, RequestHeader, ResponseBody, RpcHandler, Server, Status, WeaverFraming, WireBuf,
};

use crate::stats::median;

const BATCHES: usize = 31;

/// Median over batches of the mean time per iteration, in ns.
fn per_iteration_ns(iterations: usize, mut f: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iterations {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / iterations as f64
        })
        .collect();
    median(&batches)
}

/// Encode and decode cost of one value, and its encoded size.
#[derive(Debug, Clone, Copy)]
pub struct CodecCost {
    /// `encode_to_vec`, ns.
    pub encode_ns: f64,
    /// `decode_from_slice`, ns.
    pub decode_ns: f64,
    /// Encoded bytes.
    pub bytes: usize,
}

/// Times the codec on `value`.
pub fn codec<T: Encode + Decode>(value: &T, iterations: usize) -> CodecCost {
    let bytes = encode_to_vec(value);
    let encode_ns = per_iteration_ns(iterations, |_| {
        black_box(encode_to_vec(black_box(value)));
    });
    let decode_ns = per_iteration_ns(iterations, |_| {
        let decoded: T = decode_from_slice(black_box(&bytes)).expect("round trip");
        black_box(decoded);
    });
    CodecCost {
        encode_ns,
        decode_ns,
        bytes: bytes.len(),
    }
}

/// Times the codec on a home page and an order request.
pub fn codec_pair(home: &HomeView, order: &PlaceOrderRequest) -> (CodecCost, CodecCost) {
    (codec(home, 200), codec(order, 1_000))
}

/// `EdgeCell::record` and `Histogram::record`, ns per call.
pub fn metrics_record() -> (f64, f64) {
    let graph = CallGraph::new();
    let cell = graph.handle(&CallEdge {
        caller: "boutique.Frontend".into(),
        callee: "boutique.CurrencyService".into(),
        method: "convert".into(),
    });
    let edge_ns = per_iteration_ns(10_000, |i| {
        cell.record(
            black_box(170),
            black_box(170),
            black_box(20_000 + i as u64),
            false,
        );
    });
    let histogram = Histogram::new();
    let histogram_ns = per_iteration_ns(10_000, |i| {
        histogram.record(black_box(20_000 + i as u64));
    });
    (edge_ns, histogram_ns)
}

/// Median round trip of `payload`-byte requests answered with the same
/// bytes, through the transport's `Connection::call` to an echo `Server`,
/// in µs.
pub fn echo_rtt_us(payload: usize, calls: usize) -> Result<f64, String> {
    let handler: Arc<dyn RpcHandler> = Arc::new(|_: &RequestHeader, args: &[u8]| ResponseBody {
        status: Status::Ok,
        payload: WireBuf::from_vec(args.to_vec()),
    });
    let server = Server::<WeaverFraming>::bind("127.0.0.1:0", 1, handler)
        .map_err(|e| format!("echo server: {e}"))?;
    let conn = Connection::<WeaverFraming>::connect(server.local_addr())
        .map_err(|e| format!("echo connect: {e}"))?;
    let header = RequestHeader {
        component: 0,
        method: 0,
        version: 1,
        deadline_nanos: 0,
        trace_id: 0,
        span_id: 0,
        routing: None,
        idempotency: None,
        attempt: 0,
    };
    let args = vec![0x5a; payload];
    let mut times = Vec::with_capacity(calls);
    for i in 0..calls + calls / 10 {
        let t = Instant::now();
        let reply = conn
            .call(&header, &args, Some(Duration::from_secs(5)))
            .map_err(|e| format!("echo call: {e}"))?;
        let elapsed = t.elapsed();
        if reply.status != Status::Ok || reply.payload.as_slice() != args.as_slice() {
            return Err("echo server answered wrongly".into());
        }
        // The first tenth warms the connection and is not kept.
        if i >= calls / 10 {
            times.push(elapsed.as_nanos() as f64 / 1e3);
        }
    }
    drop(conn);
    server.shutdown();
    Ok(median(&times))
}

/// Median round trip of a `payload`-byte ping-pong over a bare loopback
/// `TcpStream`, in µs: what the kernel alone costs.
pub fn raw_socket_rtt_us(payload: usize, trips: usize) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let total = trips + trips / 10;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut buf = vec![0u8; payload];
        for _ in 0..total {
            stream.read_exact(&mut buf)?;
            stream.write_all(&buf)?;
        }
        Ok(())
    });
    let run = || -> std::io::Result<Vec<f64>> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let out = vec![0xa5u8; payload];
        let mut back = vec![0u8; payload];
        let mut times = Vec::with_capacity(trips);
        for i in 0..total {
            let t = Instant::now();
            stream.write_all(&out)?;
            stream.read_exact(&mut back)?;
            if i >= trips / 10 {
                times.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
        }
        Ok(times)
    };
    let times = run().map_err(|e| format!("raw socket: {e}"));
    let served = echo
        .join()
        .map_err(|_| "raw echo thread panicked".to_string())?;
    let times = times?;
    served.map_err(|e| format!("raw echo: {e}"))?;
    Ok(median(&times))
}
