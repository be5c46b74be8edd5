//! Per-layer figures read from outside: the counters the crates already
//! expose, snapshotted before and after the measured phase and
//! differenced.

use std::collections::HashMap;

use weaver_metrics::{CallEdge, CallGraphSnapshot, EdgeStats, HistogramSnapshot};
use weaver_runtime::TcpProcess;
use weaver_transport::{reactor_snapshot, BufferPool, PoolStats, ReactorSnapshot};

use crate::workloads::cart_slice_requests;

/// The ingress edge's caller name: calls the benchmark makes itself.
const INGRESS: &str = "";
const FRONTEND: &str = "boutique.Frontend";
const CURRENCY: &str = "boutique.CurrencyService";

/// Counter readings at one instant.
pub struct Counters {
    graph: CallGraphSnapshot,
    reactor: Option<ReactorSnapshot>,
    pool: PoolStats,
    cart_slices: Option<Vec<u64>>,
}

impl Counters {
    /// Reads every counter now.
    pub fn read(dep: &TcpProcess) -> Counters {
        Counters {
            graph: dep.callgraph(),
            reactor: reactor_snapshot(),
            pool: BufferPool::global().stats(),
            cart_slices: cart_slice_requests(dep).map(|(_, r)| r),
        }
    }

    /// Cart per-slice request counts at this reading.
    pub fn cart_slices(&self) -> Option<&[u64]> {
        self.cart_slices.as_deref()
    }
}

/// `after - before` of a cumulative histogram's buckets.
fn histogram_delta(
    after: &HistogramSnapshot,
    before: Option<&HistogramSnapshot>,
) -> HistogramSnapshot {
    let earlier: HashMap<u32, u64> = before
        .map(|b| b.buckets.iter().copied().collect())
        .unwrap_or_default();
    let buckets: Vec<(u32, u64)> = after
        .buckets
        .iter()
        .map(|&(i, c)| (i, c.saturating_sub(earlier.get(&i).copied().unwrap_or(0))))
        .filter(|&(_, c)| c > 0)
        .collect();
    HistogramSnapshot {
        count: buckets.iter().map(|b| b.1).sum(),
        sum: after.sum.saturating_sub(before.map_or(0, |b| b.sum)),
        max: after.max,
        buckets,
    }
}

/// Per-edge change between two call-graph snapshots.
fn graph_delta(
    before: &CallGraphSnapshot,
    after: &CallGraphSnapshot,
) -> Vec<(CallEdge, EdgeStats)> {
    let earlier: HashMap<&CallEdge, &EdgeStats> =
        before.edges.iter().map(|(e, s)| (e, s)).collect();
    after
        .edges
        .iter()
        .map(|(edge, now)| {
            let then = earlier.get(edge);
            let stats = EdgeStats {
                calls: now.calls - then.map_or(0, |t| t.calls),
                request_bytes: now.request_bytes - then.map_or(0, |t| t.request_bytes),
                response_bytes: now.response_bytes - then.map_or(0, |t| t.response_bytes),
                errors: now.errors - then.map_or(0, |t| t.errors),
                latency: histogram_delta(&now.latency, then.map(|t| &t.latency)),
            };
            (edge.clone(), stats)
        })
        .filter(|(_, s)| s.calls > 0)
        .collect()
}

/// What the call path and transport did between two readings.
#[derive(Debug, Clone, Default)]
pub struct CallPath {
    /// RPCs on every call-graph edge, ingress included.
    pub rpcs: u64,
    /// Request plus response bytes on those RPCs.
    pub rpc_bytes: u64,
    /// Calls that returned an error.
    pub rpc_errors: u64,
    /// Median latency of component-to-component calls, µs.
    pub rpc_p50_us: f64,
    /// Median latency of Frontend → CurrencyService.convert, µs.
    pub convert_p50_us: f64,
    /// Share of component-to-component calls that are that convert edge.
    pub convert_share: f64,
    /// Reactor poller wakeups.
    pub wakeups: u64,
    /// Readiness events those wakeups delivered.
    pub ready_events: u64,
    /// Buffer-pool allocations.
    pub pool_misses: u64,
}

impl CallPath {
    /// Differences two readings.
    pub fn between(before: &Counters, after: &Counters) -> CallPath {
        let edges = graph_delta(&before.graph, &after.graph);
        let mut inner = HistogramSnapshot::default();
        let mut convert = HistogramSnapshot::default();
        let mut path = CallPath::default();
        for (edge, stats) in &edges {
            path.rpcs += stats.calls;
            path.rpc_bytes += stats.total_bytes();
            path.rpc_errors += stats.errors;
            if edge.caller != INGRESS {
                inner.merge(&stats.latency);
            }
            if edge.caller == FRONTEND && edge.callee == CURRENCY && edge.method == "convert" {
                convert.merge(&stats.latency);
            }
        }
        path.rpc_p50_us = inner.quantile(0.5) as f64 / 1e3;
        path.convert_p50_us = convert.quantile(0.5) as f64 / 1e3;
        path.convert_share = convert.count as f64 / inner.count.max(1) as f64;
        if let (Some(b), Some(a)) = (before.reactor, after.reactor) {
            path.wakeups = a.wakeups - b.wakeups;
            path.ready_events = a.ready_events - b.ready_events;
        }
        path.pool_misses = after.pool.misses - before.pool.misses;
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_metrics::Histogram;

    #[test]
    fn deltas_subtract_bucketwise() {
        let h = Histogram::new();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        let before = h.snapshot();
        h.record(5_000);
        let delta = histogram_delta(&h.snapshot(), Some(&before));
        assert_eq!(delta.count, 1);
        assert_eq!(delta.sum, 5_000);
        let alone = Histogram::new();
        alone.record(5_000);
        assert_eq!(delta.buckets, alone.snapshot().buckets);
    }
}
