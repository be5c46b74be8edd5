//! The boutique benchmark: deploys the real Online Boutique on loopback
//! TCP, drives it closed-loop from one process, checks every answer, and
//! reports end-to-end figures (untraced run) or per-layer figures (traced
//! run) for one workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload routed-browse --seed 1 --seconds 24 --trace 0
//! ```
//!
//! Standard output carries one ledger row per figure and ends with the
//! summary line `{"correct", "attempted", "failed", "metrics"}`. A traced
//! run also writes its spans as JSON lines under the build directory.

mod layers;
mod load;
mod probes;
mod report;
mod stats;
mod stub;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use boutique::components::{CartService, Frontend};
use boutique::logic::audit::{AuditEvent, AuditLog};

use layers::{CallPath, Counters};
use load::{run_phase, Client, Oracle, Stop, Tally, METHODS};
use report::{Report, END_TO_END, PER_LAYER};
use stats::{highest_reportable, label, median, percentile, reportable};
use trace::SpanLog;
use workloads::{cart_load_max_over_mean, set_up, Deployment, Workload};

/// Set-ups per run; `setup_s` is the median of the undisturbed ones.
const SETUPS: usize = 4;
/// Width of a measurement window. Throughput and latency figures are the
/// median over windows, so one disturbed second moves one window only.
const WINDOW: Duration = Duration::from_secs(1);
/// Requests each measured client sends before measuring.
const WARM_REQUESTS: u64 = 2_000;
/// Steal share above which a window counts as disturbed.
const MAX_STEAL: f64 = 0.02;
/// Users per client whose carts are read back after the run.
const AUDIT_USERS: usize = 200;
/// Length of the generator self-cost phase against the stub frontend.
const STUB_WINDOWS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: usize,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10usize;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; known: {known:?}")
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Figures of one measured phase, each over its undisturbed windows.
struct Phase {
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    cpu_us_per_req: f64,
    /// Requests behind `p50_us` and `p99_us`.
    samples: usize,
    tail: Option<(u32, f64)>,
    windows_used: usize,
    steal: f64,
    steal_used: f64,
}

/// Indices of the undisturbed intervals among intervals with the given
/// steal shares (`None` when unmeasured): those in which the hypervisor
/// stole at most [`MAX_STEAL`] of the machine's CPU time, since stolen
/// time went to other guests, not to the system under test. At least half
/// are always kept, the least disturbed first. Ascending.
fn undisturbed(steals: &[Option<f64>]) -> Vec<usize> {
    let steal = |i: usize| steals[i].unwrap_or(f64::INFINITY);
    let mut order: Vec<usize> = (0..steals.len()).collect();
    order.sort_by(|&a, &b| steal(a).total_cmp(&steal(b)));
    let clean = order.iter().filter(|&&i| steal(i) <= MAX_STEAL).count();
    let mut used = order[..clean.max(steals.len().div_ceil(2))].to_vec();
    used.sort_unstable();
    used
}

/// Summarizes a phase over its [`undisturbed`] windows. Throughput is
/// the median over those windows. p50 and p99 are nearest-rank over every
/// request of those windows pooled, so a stall that hits a few windows
/// still shows in the tail. CPU per request is their total CPU over their
/// requests.
fn summarize(tally: &Tally) -> Result<Phase, String> {
    let steals: Vec<Option<f64>> = (0..tally.windows.len())
        .map(|i| tally.window_host.get(i).copied().flatten().map(|h| h.steal))
        .collect();
    let used = undisturbed(&steals);
    let mut pooled: Vec<u64> = used
        .iter()
        .flat_map(|&i| tally.windows[i].iter().copied())
        .collect();
    pooled.sort_unstable();
    if !reportable(pooled.len(), 9_900) {
        return Err(format!("{} requests are too few for a p99", pooled.len()));
    }
    let rates: Vec<f64> = used
        .iter()
        .map(|&i| tally.windows[i].len() as f64 / WINDOW.as_secs_f64())
        .collect();
    let host: Vec<(usize, sys::HostUse)> = used
        .iter()
        .filter_map(|&i| {
            Some((
                tally.windows[i].len(),
                tally.window_host.get(i).copied().flatten()?,
            ))
        })
        .collect();
    let cpu_s: f64 = host.iter().map(|h| h.1.cpu_s).sum();
    let requests: usize = host.iter().map(|h| h.0).sum();
    let mean_steal = |hosts: &mut dyn Iterator<Item = sys::HostUse>| {
        let (sum, count) = hosts.fold((0.0, 0), |(s, c), h| (s + h.steal, c + 1));
        sum / f64::from(count.max(1))
    };
    let us = |bp: u32| percentile(&pooled, bp) as f64 / 1e3;
    Ok(Phase {
        throughput_rps: median(&rates),
        p50_us: us(5_000),
        p99_us: us(9_900),
        cpu_us_per_req: cpu_s * 1e6 / requests.max(1) as f64,
        samples: pooled.len(),
        tail: highest_reportable(pooled.len()).map(|bp| (bp, us(bp))),
        windows_used: used.len(),
        steal: mean_steal(&mut tally.window_host.iter().flatten().copied()),
        steal_used: mean_steal(&mut host.iter().map(|h| h.1)),
    })
}

fn windows(count: usize, trace_odd: bool) -> Stop {
    Stop::Windows {
        start: Instant::now(),
        width: WINDOW,
        count,
        trace_odd,
    }
}

/// The windows of `tally` with the given parity, for comparing traced
/// (odd) and untraced (even) windows.
fn every_other(tally: &Tally, odd: bool) -> Tally {
    let keep = |i: &usize| (i % 2 == 1) == odd;
    Tally {
        windows: (0..tally.windows.len())
            .filter(keep)
            .map(|i| tally.windows[i].clone())
            .collect(),
        window_host: (0..tally.window_host.len())
            .filter(keep)
            .map(|i| tally.window_host[i])
            .collect(),
        ..Tally::default()
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload and prints its report. Returns whether every check
/// passed; an error means the run could not measure at all.
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let workload = args.workload;
    let host_cpus = sys::host_cpus();
    let oracle = Oracle::new();
    let epoch = Instant::now();
    let mut log = SpanLog::new(args.trace, epoch, 0);
    let mut report = Report {
        workload: workload.name(),
        seed: args.seed,
        host_cpus,
        rev: sys::revision(),
        figures: Vec::new(),
    };

    // Set up several times from scratch. An untraced run measures every
    // deployment for its share of the windows, so the figures span several
    // thread placements; a traced run measures the last one.
    let traffic = workload.traffic();
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut tally = Tally::default();
    let mut problems: Vec<String> = Vec::new();
    let mut in_flight = 0;
    let mut rpc_errors = 0;
    let mut peak_rss_mb = None;
    for i in 0..SETUPS {
        let host = sys::HostSample::read()?;
        let d = set_up(workload, args.seed, host_cpus, &oracle, &mut log)?;
        let steal = sys::HostSample::read()?.since(&host).steal;
        setup_times.push((d.setup_s, Some(steal)));
        let share = if args.trace {
            if i + 1 < SETUPS {
                continue;
            }
            args.seconds.max(2)
        } else {
            args.seconds / SETUPS + usize::from(i < args.seconds % SETUPS)
        };
        if share == 0 {
            continue;
        }
        let version = d.dep.version();
        let mut clients: Vec<Client> = (0..host_cpus)
            .map(|c| Client::new(c, "u", args.seed, SpanLog::new(false, epoch, c as u64 + 1)))
            .collect();
        // Bring the measured users' carts to their steady size first:
        // fresh users have empty carts, which makes cart pages cheaper.
        let warm = run_phase(
            &d.frontend,
            version,
            &traffic,
            &oracle,
            &mut clients,
            Stop::Requests(WARM_REQUESTS),
        );
        if warm.failed > 0 {
            return Err(format!(
                "{} warm-up requests failed: {:?}",
                warm.failed, warm.problems
            ));
        }
        let orders_mark = AuditLog::mark();
        // A traced run records spans in its odd windows only, so traced
        // and untraced windows interleave on the same deployment.
        let before = Counters::read(&d.dep);
        let measured = run_phase(
            &d.frontend,
            version,
            &traffic,
            &oracle,
            &mut clients,
            windows(share, args.trace),
        );
        let after = Counters::read(&d.dep);
        let path = CallPath::between(&before, &after);
        rpc_errors += path.rpc_errors;
        if args.trace {
            let cart_load = cart_load_max_over_mean(&d.dep, before.cart_slices());
            report_layers(
                &d,
                &args,
                &oracle,
                &measured,
                &path,
                cart_load,
                &mut log,
                &mut report,
            )?;
        }

        // After the run: nothing left in flight, one order per confirmed
        // checkout, and every audited cart as the model says.
        in_flight += d.dep.client_in_flight();
        let placed = AuditLog::since(orders_mark)
            .iter()
            .filter(|e| matches!(e, AuditEvent::OrderPlaced { .. }))
            .count() as u64;
        if placed != measured.orders {
            problems.push(format!(
                "{placed} orders placed, {} checkouts confirmed",
                measured.orders
            ));
        }
        let cart = d.dep.get::<dyn CartService>().map_err(|e| e.to_string())?;
        for client in &mut clients {
            problems.extend(client.audit_carts(&*cart, version, &oracle, AUDIT_USERS));
            log.absorb(&mut client.log);
        }
        // The first deployment's peak is one deployment's footprint: no
        // other deployment has existed in this process yet.
        if peak_rss_mb.is_none() {
            peak_rss_mb = Some(sys::peak_rss_mb()?);
        }
        tally.append(measured);
    }
    if in_flight != 0 {
        problems.push(format!("{in_flight} calls still in flight after the run"));
    }
    if rpc_errors != 0 {
        problems.push(format!("{rpc_errors} RPCs returned an error"));
    }
    problems.extend(tally.problems.iter().cloned());
    let phase = summarize(&tally)?;
    if args.trace {
        report.put("weaver-runtime.in_flight_after", in_flight as f64);
        report.put("weaver-runtime.rpc_errors", rpc_errors as f64);
    } else {
        report.put("throughput_rps", phase.throughput_rps);
        report.put("p50_us", phase.p50_us);
        report.put("p99_us", phase.p99_us);
        report.put("cpu_us_per_req", phase.cpu_us_per_req);
        report.put(
            "peak_rss_mb",
            peak_rss_mb.ok_or("no deployment was measured")?,
        );
        let steals: Vec<Option<f64>> = setup_times.iter().map(|s| s.1).collect();
        let used: Vec<f64> = undisturbed(&steals)
            .into_iter()
            .map(|i| setup_times[i].0)
            .collect();
        report.put("setup_s", median(&used));
    }
    report.add(
        "failed_frac",
        "frac",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    report.add("samples", "count", phase.samples as f64);
    if let Some((bp, value)) = phase.tail {
        report.add(format!("{}_us", label(bp)), "us", value);
    }
    report.add("orders", "count", tally.orders as f64);
    report.add("windows", "count", tally.windows.len() as f64);
    report.add("windows_used", "count", phase.windows_used as f64);
    report.add("steal_frac", "frac", phase.steal);
    report.add("steal_frac_used", "frac", phase.steal_used);

    let catalogue: &[report::Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !report.complete(catalogue) {
        problems.push("a catalogued metric is missing or not finite".into());
    }
    let correct = tally.wrong == 0 && problems.is_empty();
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }

    if args.trace {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")));
        let path = dir
            .join("perfbench")
            .join(format!("trace-{}.jsonl", workload.name()));
        log.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            log.len(),
            path.display()
        );
    }
    for row in report.rows() {
        println!("{row}");
    }
    println!(
        "{}",
        report.summary(correct, tally.attempted, tally.failed, catalogue)
    );
    Ok(correct)
}

/// Reports the per-layer figures of a traced phase: the tracing overhead
/// (odd windows recorded spans, even ones did not), the counter deltas
/// `path` across the phase, then the probes and the generator's
/// self-cost.
#[allow(clippy::too_many_arguments)]
fn report_layers(
    d: &Deployment,
    args: &Args,
    oracle: &Oracle,
    phase: &Tally,
    path: &CallPath,
    cart_load: Option<f64>,
    log: &mut SpanLog,
    report: &mut Report,
) -> Result<(), String> {
    let version = d.dep.version();
    let traffic = args.workload.traffic();
    let plain = summarize(&every_other(phase, false))?;
    let with_spans = summarize(&every_other(phase, true))?;
    report.put(
        "bench.trace_overhead_frac",
        1.0 - with_spans.throughput_rps / plain.throughput_rps,
    );
    report.put(
        "bench.trace_overhead_p50_frac",
        with_spans.p50_us / plain.p50_us - 1.0,
    );

    // boutique: per-method latency of the Frontend calls.
    for (i, method) in METHODS.iter().enumerate() {
        let mut samples = phase.methods[i].clone();
        samples.sort_unstable();
        let name = format!("boutique.{method}.p50_us");
        let p50 = if samples.is_empty() {
            0.0
        } else {
            percentile(&samples, 5_000) as f64 / 1e3
        };
        report.add(name, "us", p50);
        if *method == "place_order" {
            // The percentile rule: no p99 without ten samples beyond it.
            let p99 = if reportable(samples.len(), 9_900) {
                percentile(&samples, 9_900) as f64 / 1e3
            } else {
                0.0
            };
            report.put("boutique.place_order.p99_us", p99);
        }
    }

    // weaver-runtime and weaver-transport: counter deltas.
    let requests = phase.attempted.max(1) as f64;
    report.put("weaver-runtime.rpcs_per_req", path.rpcs as f64 / requests);
    report.put(
        "weaver-runtime.rpc_bytes_per_req",
        path.rpc_bytes as f64 / requests,
    );
    report.put("weaver-runtime.rpc.p50_us", path.rpc_p50_us);
    report.put("weaver-runtime.convert.p50_us", path.convert_p50_us);
    report.add("weaver-runtime.convert_share", "frac", path.convert_share);
    let c = &d.control;
    report.put("weaver-runtime.placement_rounds", c.placement_rounds as f64);
    report.put("weaver-runtime.migrations", c.migrations as f64);
    report.put("weaver-runtime.placement_round_ms", c.placement_round_ms);
    report.put("weaver-runtime.rebalance_rounds", c.rebalance_rounds as f64);
    report.put("weaver-runtime.ranges_moved", c.ranges_moved as f64);
    report.put("weaver-runtime.entries_moved", c.entries_moved as f64);
    report.put("weaver-runtime.rebalance_ms", c.rebalance_ms);
    report.put(
        "weaver-transport.wakeups_per_rpc",
        path.wakeups as f64 / path.rpcs.max(1) as f64,
    );
    report.put(
        "weaver-transport.ready_events_per_wakeup",
        path.ready_events as f64 / path.wakeups.max(1) as f64,
    );
    report.put("weaver-transport.pool_misses", path.pool_misses as f64);
    report.put(
        "weaver-transport.dispatch_queue_depth",
        phase.queue_depth.0 as f64 / phase.queue_depth.1.max(1) as f64,
    );
    report.put(
        "weaver-routing.cart_load_max_over_mean",
        cart_load.unwrap_or(0.0),
    );

    // Timed probes, each a child span of one `probes` root.
    let probes = log.open("probes", None);
    // A mix without home pages gets one page fetched for the probe.
    let home = match &phase.home_sample {
        Some(home) => home.clone(),
        None => d
            .frontend
            .home(&d.dep.root_context(), "probe".into(), "EUR".into())
            .map_err(|e| format!("home page for the codec probe: {e}"))?,
    };
    let order = phase
        .order_sample
        .as_ref()
        .ok_or("the traced phase sent no order")?;
    let (home_cost, order_cost) = log.scope("probe.codec", Some(&probes), || {
        probes::codec_pair(&home, order)
    });
    for (prefix, cost) in [
        ("home_view", home_cost),
        ("place_order_request", order_cost),
    ] {
        report.add(
            format!("weaver-codec.{prefix}.encode_ns"),
            "ns",
            cost.encode_ns,
        );
        report.add(
            format!("weaver-codec.{prefix}.decode_ns"),
            "ns",
            cost.decode_ns,
        );
        report.add(
            format!("weaver-codec.{prefix}.bytes"),
            "B",
            cost.bytes as f64,
        );
    }
    let (edge_ns, histogram_ns) = log.scope("probe.metrics", Some(&probes), probes::metrics_record);
    report.put("weaver-metrics.edge_record_ns", edge_ns);
    report.put("weaver-metrics.histogram_record_ns", histogram_ns);
    // Mean bytes per message: request and response, each way.
    let message = (path.rpc_bytes / (2 * path.rpcs).max(1)).max(1) as usize;
    report.add("bench.probe_message_bytes", "B", message as f64);
    let echo = log.scope("probe.echo_rpc", Some(&probes), || {
        probes::echo_rtt_us(message, 2_000)
    })?;
    report.put("weaver-transport.echo_rtt_us", echo);
    let raw = log.scope("probe.raw_socket", Some(&probes), || {
        probes::raw_socket_rtt_us(message, 2_000)
    })?;
    report.put("weaver-transport.raw_socket_rtt_us", raw);

    // The generator against a stub that answers from canned pages.
    let stub: Arc<dyn Frontend> = Arc::new(stub::StubFrontend::new());
    let mut stub_clients: Vec<Client> = (0..sys::host_cpus())
        .map(|i| Client::new(i, "t", args.seed, SpanLog::off()))
        .collect();
    let stub_open = log.open("probe.loadgen_stub", Some(&probes));
    let cpu_stub0 = sys::cpu_seconds()?;
    let stub_tally = run_phase(
        &stub,
        version,
        &traffic,
        oracle,
        &mut stub_clients,
        windows(STUB_WINDOWS, false),
    );
    let stub_cpu = sys::cpu_seconds()? - cpu_stub0;
    log.finish(stub_open);
    log.finish(probes);
    if stub_tally.failed > 0 {
        return Err(format!(
            "generator against the stub failed: {:?}",
            stub_tally.problems
        ));
    }
    report.put(
        "bench.loadgen_cpu_us_per_req",
        stub_cpu * 1e6 / stub_tally.attempted.max(1) as f64,
    );
    report.put(
        "bench.stub_throughput_rps",
        stub_tally.attempted as f64 / (STUB_WINDOWS as f64 * WINDOW.as_secs_f64()),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::undisturbed;

    #[test]
    fn undisturbed_keeps_clean_intervals_and_at_least_half() {
        // All clean: everything is used.
        assert_eq!(undisturbed(&[Some(0.0), Some(0.01), Some(0.02)]), [0, 1, 2]);
        // Disturbed intervals drop out while clean ones are the majority.
        assert_eq!(
            undisturbed(&[Some(0.0), Some(0.3), Some(0.005), Some(0.01)]),
            [0, 2, 3]
        );
        // All disturbed: the least disturbed half, unmeasured ones last.
        assert_eq!(
            undisturbed(&[Some(0.5), None, Some(0.1), Some(0.2), Some(0.05)]),
            [2, 3, 4]
        );
    }
}
