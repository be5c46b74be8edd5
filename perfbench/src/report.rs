//! The metric catalogue and the two output shapes: one ledger row per
//! figure (metric, unit, value, workload, seed, host_cpus, rev), and the
//! final summary line.

use crate::stats::{valid_name, valid_unit};

/// Whether a metric improves upward or downward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// A metric the benchmark reports: name, unit, direction.
pub type Metric = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: [Metric; 6] = [
    ("throughput_rps", "1/s", Higher),
    ("p50_us", "us", Lower),
    ("p99_us", "us", Lower),
    ("cpu_us_per_req", "us", Lower),
    ("peak_rss_mb", "MB", Lower),
    ("setup_s", "s", Lower),
];

/// Per-layer metrics, reported by traced runs.
pub const PER_LAYER: [Metric; 38] = [
    ("boutique.home.p50_us", "us", Lower),
    ("boutique.browse_product.p50_us", "us", Lower),
    ("boutique.add_to_cart.p50_us", "us", Lower),
    ("boutique.view_cart.p50_us", "us", Lower),
    ("boutique.place_order.p50_us", "us", Lower),
    ("boutique.place_order.p99_us", "us", Lower),
    ("weaver-runtime.rpcs_per_req", "count", Lower),
    ("weaver-runtime.rpc_bytes_per_req", "B", Lower),
    ("weaver-runtime.rpc.p50_us", "us", Lower),
    ("weaver-runtime.convert.p50_us", "us", Lower),
    ("weaver-runtime.rpc_errors", "count", Lower),
    ("weaver-runtime.in_flight_after", "count", Lower),
    ("weaver-runtime.placement_rounds", "count", Lower),
    ("weaver-runtime.migrations", "count", Lower),
    ("weaver-runtime.placement_round_ms", "ms", Lower),
    ("weaver-runtime.rebalance_rounds", "count", Lower),
    ("weaver-runtime.ranges_moved", "count", Lower),
    ("weaver-runtime.entries_moved", "count", Lower),
    ("weaver-runtime.rebalance_ms", "ms", Lower),
    ("weaver-transport.wakeups_per_rpc", "count", Lower),
    ("weaver-transport.ready_events_per_wakeup", "count", Higher),
    ("weaver-transport.pool_misses", "count", Lower),
    ("weaver-transport.dispatch_queue_depth", "count", Lower),
    ("weaver-transport.echo_rtt_us", "us", Lower),
    ("weaver-transport.raw_socket_rtt_us", "us", Lower),
    ("weaver-codec.home_view.encode_ns", "ns", Lower),
    ("weaver-codec.home_view.decode_ns", "ns", Lower),
    ("weaver-codec.home_view.bytes", "B", Lower),
    ("weaver-codec.place_order_request.encode_ns", "ns", Lower),
    ("weaver-codec.place_order_request.decode_ns", "ns", Lower),
    ("weaver-codec.place_order_request.bytes", "B", Lower),
    ("weaver-metrics.edge_record_ns", "ns", Lower),
    ("weaver-metrics.histogram_record_ns", "ns", Lower),
    ("weaver-routing.cart_load_max_over_mean", "ratio", Lower),
    ("bench.loadgen_cpu_us_per_req", "us", Lower),
    ("bench.stub_throughput_rps", "1/s", Higher),
    ("bench.trace_overhead_frac", "frac", Lower),
    ("bench.trace_overhead_p50_frac", "frac", Lower),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

/// One measured figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Everything one run reports.
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// CPUs of the host.
    pub host_cpus: usize,
    /// Revision under test.
    pub rev: String,
    /// Every figure, catalogued or extra.
    pub figures: Vec<Figure>,
}

/// Quotes a string for JSON (the benchmark's strings need only `"`/`\`
/// and control characters escaped).
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON, all digits kept (non-finite becomes `null`).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

impl Report {
    /// Adds a figure; panics on a malformed name or unit, which is a bug
    /// in this program.
    pub fn add(&mut self, metric: impl Into<String>, unit: &'static str, value: f64) {
        let metric = metric.into();
        assert!(valid_name(&metric), "bad metric name {metric:?}");
        assert!(valid_unit(unit), "bad unit {unit:?}");
        self.figures.push(Figure {
            metric,
            unit,
            value,
        });
    }

    /// Adds a catalogued figure, taking its unit from the catalogue.
    pub fn put(&mut self, metric: &'static str, value: f64) {
        let unit = unit_of(metric).unwrap_or_else(|| panic!("{metric} is not catalogued"));
        self.add(metric, unit, value);
    }

    fn get(&self, metric: &str) -> Option<&Figure> {
        self.figures.iter().find(|f| f.metric == metric)
    }

    /// One ledger row per figure, as JSON lines.
    pub fn rows(&self) -> Vec<String> {
        self.figures
            .iter()
            .map(|f| {
                format!(
                    "{{\"metric\":{},\"unit\":{},\"value\":{},\"workload\":{},\"seed\":{},\"host_cpus\":{},\"rev\":{}}}",
                    quote(&f.metric),
                    quote(f.unit),
                    number(f.value),
                    quote(self.workload),
                    self.seed,
                    self.host_cpus,
                    quote(&self.rev)
                )
            })
            .collect()
    }

    /// Whether every metric in `catalogue` has a finite figure.
    pub fn complete(&self, catalogue: &[Metric]) -> bool {
        catalogue
            .iter()
            .all(|m| self.get(m.0).is_some_and(|f| f.value.is_finite()))
    }

    /// The summary line: checks, counts, and the catalogued metrics.
    pub fn summary(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
        catalogue: &[Metric],
    ) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .filter_map(|m| {
                let f = self.get(m.0)?;
                Some(format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(m.0),
                    number(f.value),
                    quote(f.unit)
                ))
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_codec::json::JsonValue;

    /// The word `BENCHMARK.json` uses for a direction.
    fn word(better: Better) -> &'static str {
        match better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for m in &all {
            assert!(valid_name(m.0), "{}", m.0);
            assert!(valid_unit(m.1), "{}", m.1);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    /// `BENCHMARK.json` at the repository root lists exactly this
    /// catalogue, with the same units and directions, and the workloads
    /// this binary runs.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let check = |key: &'static str, catalogue: &[Metric], bounded: bool| {
            let listed = doc.get(key).and_then(JsonValue::as_array).expect(key);
            assert_eq!(listed.len(), catalogue.len(), "{key} length");
            for (entry, m) in listed.iter().zip(catalogue) {
                assert_eq!(entry.get("name").and_then(|v| v.as_str()).unwrap(), m.0);
                assert_eq!(entry.get("unit").and_then(|v| v.as_str()).unwrap(), m.1);
                assert_eq!(
                    entry.get("better").and_then(|v| v.as_str()).unwrap(),
                    word(m.2)
                );
                let keys = entry.as_object().unwrap().len();
                if bounded {
                    let bound = entry.get("bound").and_then(|v| v.as_number()).unwrap();
                    assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.0);
                    assert_eq!(keys, 4, "{}", m.0);
                } else {
                    assert_eq!(keys, 3, "{}", m.0);
                }
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
        let workloads = doc.get("workloads").unwrap().as_array().unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
        for n in names {
            assert!(valid_name(n), "{n}");
        }
    }

    #[test]
    fn summary_has_the_contract_shape() {
        let mut r = Report {
            workload: "routed-browse",
            seed: 7,
            host_cpus: 2,
            rev: "abc".into(),
            figures: Vec::new(),
        };
        r.put("p50_us", 266.25);
        r.add("samples", "count", 5.0);
        assert!(!r.complete(&END_TO_END));
        let line = r.summary(true, 10, 0, &END_TO_END);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"p50_us\":{\"value\":266.25,\"unit\":\"us\"}}}"
        );
        let doc = JsonValue::parse(&line).expect("summary parses");
        assert!(doc.get("metrics").is_ok());
        let rows = r.rows();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].contains("\"host_cpus\":2") && rows[0].contains("\"rev\":\"abc\""));
    }
}
