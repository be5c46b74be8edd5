//! Server-side idempotency: a bounded dedup cache of completed responses.
//!
//! A retry after an *ambiguous* failure (the connection severed after the
//! request was written) may reach a callee that already executed the
//! request. When the request carried an idempotency key, the dispatcher
//! records the completed response under `(component, method, key)` and
//! replays it for any repeat of the same key instead of re-executing the
//! method — turning the client's at-least-once retry into exactly-once
//! execution as observed by application code.
//!
//! Scope and bounds:
//!
//! * Only **completed executions** are recorded (the dispatcher produced a
//!   reply payload, which includes application-level errors). Runtime
//!   failures — version mismatch, unknown component, injected faults —
//!   are never cached: the method did not run, so a retry must run it.
//! * The cache is bounded **per (component, method)**: each method keeps
//!   at most [`DedupCache::capacity`] entries and evicts the oldest
//!   recorded key first (insertion-order FIFO). One chatty method cannot
//!   evict another method's in-flight retry window.
//! * All replicas of a process share one cache (see `TcpProcess`), so a
//!   retry that lands on a different replica than the first attempt still
//!   finds the recorded response.
//! * Local dispatch to a migrated-in (colocated) component carries **no
//!   key**, so it is neither replayed nor recorded. The call resolves
//!   synchronously when it begins and is never retried, and the cache only
//!   exists for the one retry of a wire call after an ambiguous failure.
//!   Keying local calls would make every colocated call lock this cache
//!   twice and copy its response in, for a replay that cannot happen.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use weaver_transport::{RequestHeader, ResponseBody, Status, WireBuf};

/// Default per-(component, method) entry bound. Sized for a retry window,
/// not a history: a key only needs to survive until the client's single
/// retry arrives.
pub const DEFAULT_DEDUP_CAPACITY: usize = 1024;

/// One method's recorded responses plus FIFO eviction order.
#[derive(Default)]
struct MethodCache {
    /// key → (status, payload bytes) of the completed response.
    entries: HashMap<u64, (Status, Vec<u8>)>,
    /// Keys in insertion order; front is evicted first.
    order: VecDeque<u64>,
}

/// Bounded per-(component, method) cache of completed responses, keyed by
/// the request's idempotency key.
pub struct DedupCache {
    methods: Mutex<HashMap<(u32, u32), MethodCache>>,
    capacity: usize,
    hits: AtomicU64,
}

impl Default for DedupCache {
    fn default() -> Self {
        Self::new()
    }
}

impl DedupCache {
    /// A cache with the default per-method bound.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_DEDUP_CAPACITY)
    }

    /// A cache keeping at most `capacity` entries per (component, method).
    pub fn with_capacity(capacity: usize) -> Self {
        DedupCache {
            methods: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
        }
    }

    /// Per-(component, method) entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Replays the recorded response for `header`'s idempotency key, if the
    /// exact (component, method, key) completed before.
    pub fn replay(&self, header: &RequestHeader) -> Option<ResponseBody> {
        let key = header.idempotency?;
        let methods = self.methods.lock();
        let (status, payload) = methods
            .get(&(header.component, header.method))?
            .entries
            .get(&key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(ResponseBody {
            status: *status,
            payload: WireBuf::from_vec(payload.clone()),
        })
    }

    /// Records a completed response under `header`'s idempotency key,
    /// evicting the oldest key of the same (component, method) at the
    /// bound. No-op for keyless requests.
    pub fn record(&self, header: &RequestHeader, body: &ResponseBody) {
        let Some(key) = header.idempotency else {
            return;
        };
        let mut methods = self.methods.lock();
        let method = methods
            .entry((header.component, header.method))
            .or_default();
        if method
            .entries
            .insert(key, (body.status, body.payload.to_vec()))
            .is_none()
        {
            method.order.push_back(key);
            while method.order.len() > self.capacity {
                if let Some(oldest) = method.order.pop_front() {
                    method.entries.remove(&oldest);
                }
            }
        }
    }

    /// Replays served since construction (observability + tests).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total recorded entries across all methods.
    pub fn entries(&self) -> usize {
        self.methods.lock().values().map(|m| m.entries.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(component: u32, method: u32, key: Option<u64>) -> RequestHeader {
        RequestHeader {
            component,
            method,
            version: 1,
            idempotency: key,
            ..Default::default()
        }
    }

    fn ok_body(byte: u8) -> ResponseBody {
        ResponseBody {
            status: Status::Ok,
            payload: WireBuf::from_vec(vec![byte]),
        }
    }

    #[test]
    fn records_and_replays_by_key() {
        let cache = DedupCache::new();
        assert!(cache.replay(&header(0, 0, Some(7))).is_none());
        cache.record(&header(0, 0, Some(7)), &ok_body(42));
        let replayed = cache.replay(&header(0, 0, Some(7))).unwrap();
        assert_eq!(replayed.status, Status::Ok);
        assert_eq!(&replayed.payload[..], &[42]);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn keys_are_scoped_per_component_and_method() {
        let cache = DedupCache::new();
        cache.record(&header(1, 2, Some(7)), &ok_body(1));
        assert!(cache.replay(&header(1, 3, Some(7))).is_none());
        assert!(cache.replay(&header(2, 2, Some(7))).is_none());
        assert!(cache.replay(&header(1, 2, Some(8))).is_none());
        assert!(cache.replay(&header(1, 2, Some(7))).is_some());
    }

    #[test]
    fn keyless_requests_are_never_cached() {
        let cache = DedupCache::new();
        cache.record(&header(0, 0, None), &ok_body(1));
        assert_eq!(cache.entries(), 0);
        assert!(cache.replay(&header(0, 0, None)).is_none());
    }

    #[test]
    fn eviction_is_fifo_and_per_method() {
        let cache = DedupCache::with_capacity(2);
        cache.record(&header(0, 0, Some(1)), &ok_body(1));
        cache.record(&header(0, 0, Some(2)), &ok_body(2));
        cache.record(&header(0, 0, Some(3)), &ok_body(3));
        // Oldest key of the full method evicted...
        assert!(cache.replay(&header(0, 0, Some(1))).is_none());
        assert!(cache.replay(&header(0, 0, Some(2))).is_some());
        assert!(cache.replay(&header(0, 0, Some(3))).is_some());
        // ...but another method's entries are untouched by that pressure.
        cache.record(&header(0, 1, Some(9)), &ok_body(9));
        cache.record(&header(0, 0, Some(4)), &ok_body(4));
        assert!(cache.replay(&header(0, 1, Some(9))).is_some());
    }

    #[test]
    fn re_recording_same_key_does_not_grow_order() {
        let cache = DedupCache::with_capacity(2);
        for _ in 0..10 {
            cache.record(&header(0, 0, Some(5)), &ok_body(5));
        }
        cache.record(&header(0, 0, Some(6)), &ok_body(6));
        assert!(cache.replay(&header(0, 0, Some(5))).is_some());
        assert!(cache.replay(&header(0, 0, Some(6))).is_some());
        assert_eq!(cache.entries(), 2);
    }
}
