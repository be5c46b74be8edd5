//! The three workloads and their set-up: a fresh boutique deployment on
//! loopback TCP, warmed by a fixed number of requests, then driven by the
//! live control plane until it converges.
//!
//! Set-up traffic is a fixed request count drawn from the seed, never a
//! fixed duration, so every run converges through the same decisions and
//! `setup_s` measures the same work. Controller rounds are capped, and the
//! converged state is asserted on every run.

use std::sync::Arc;
use std::time::Instant;

use boutique::components::{Frontend, SAGA_STORE};
use boutique::loadgen::{Mix, Zipf};
use weaver_metrics::PlacementSignalBuilder;
use weaver_placement::PlacementController;
use weaver_routing::{ControllerOptions, SliceAssignment};
use weaver_runtime::{TcpOptions, TcpProcess};
use weaver_saga::MemStore;

use crate::load::{derive_seed, run_phase, Client, Oracle, Stop, Traffic, Users, WRITE_HEAVY};
use crate::trace::SpanLog;

/// The routed cart component.
pub const CART: &str = "boutique.CartService";
/// Requests each set-up client sends before the first controller round.
const WARM_REQUESTS: u64 = 1_000;
/// Requests each set-up client sends between controller rounds.
const ROUND_REQUESTS: u64 = 500;
/// Cap on placement rounds before set-up gives up.
const MAX_PLACEMENT_ROUNDS: usize = 8;
/// Cap on rebalance rounds before set-up gives up.
const MAX_REBALANCE_ROUNDS: usize = 6;
/// Cart slices per replica; `sliced-checkout` starts with all of them on
/// replica 0.
const CART_SLICES_PER_REPLICA: u32 = 8;
/// Salt separating set-up users' random streams from the measured ones.
const SETUP_STREAM: u64 = 0x5e70_0000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One replica, every component routed over loopback TCP.
    RoutedBrowse,
    /// Two replicas, every component colocated by the placement loop.
    ColocatedBrowse,
    /// Two replicas, write-heavy Zipf traffic, cart slices rebalanced live.
    SlicedCheckout,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::RoutedBrowse,
        Workload::ColocatedBrowse,
        Workload::SlicedCheckout,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RoutedBrowse => "routed-browse",
            Workload::ColocatedBrowse => "colocated-browse",
            Workload::SlicedCheckout => "sliced-checkout",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The request stream every client of this workload sends.
    pub fn traffic(self) -> Traffic {
        match self {
            Workload::RoutedBrowse | Workload::ColocatedBrowse => Traffic {
                mix: Mix::default(),
                users: Users::Uniform(256),
            },
            Workload::SlicedCheckout => Traffic {
                mix: WRITE_HEAVY,
                users: Users::Zipf(Zipf::new(100_000, 1.1)),
            },
        }
    }

    fn replicas(self) -> usize {
        match self {
            Workload::RoutedBrowse => 1,
            Workload::ColocatedBrowse | Workload::SlicedCheckout => 2,
        }
    }
}

/// What the control plane did during one set-up.
#[derive(Debug, Clone, Default)]
pub struct ControlPlane {
    /// `placement_round` calls, the final no-op included.
    pub placement_rounds: u64,
    /// Components whose placement changed.
    pub migrations: u64,
    /// Time inside `placement_round`, summed over the rounds.
    pub placement_round_ms: f64,
    /// `rebalance_routed` calls, the final no-op included.
    pub rebalance_rounds: u64,
    /// Key ranges handed from one replica to another.
    pub ranges_moved: u64,
    /// Cart entries carried by those handoffs.
    pub entries_moved: u64,
    /// Time inside `rebalance_routed`, summed over the rounds.
    pub rebalance_ms: f64,
}

/// A converged deployment, ready to measure.
pub struct Deployment {
    /// The deployment.
    pub dep: Arc<TcpProcess>,
    /// Its ingress.
    pub frontend: Arc<dyn Frontend>,
    /// What the control plane did to get here.
    pub control: ControlPlane,
    /// Deploy plus warm-up plus convergence, in seconds.
    pub setup_s: f64,
}

/// Per-replica share of the cart's routed calls since the assignment was
/// installed, as max over mean; `None` when no routed cart call resolved.
pub fn cart_load_max_over_mean(dep: &TcpProcess, before: Option<&[u64]>) -> Option<f64> {
    let (assignment, requests) = cart_slice_requests(dep)?;
    let mut per_replica = vec![0u64; assignment.replica_count as usize];
    for (i, slice) in assignment.slices.iter().enumerate() {
        let earlier = before.and_then(|b| b.get(i)).copied().unwrap_or(0);
        per_replica[slice.replica as usize] += requests[i].saturating_sub(earlier);
    }
    let total: u64 = per_replica.iter().sum();
    if total == 0 {
        return None;
    }
    let mean = total as f64 / per_replica.len() as f64;
    Some(*per_replica.iter().max().expect("at least one replica") as f64 / mean)
}

/// The cart's current assignment and its per-slice routed-call counts.
pub fn cart_slice_requests(dep: &TcpProcess) -> Option<(SliceAssignment, Vec<u64>)> {
    let id = boutique::registry().id_of(CART).ok()?;
    let table = dep.routing_table();
    let assignment = table.assignment_of(id)?;
    let load = table.slice_load(id)?;
    (load.version == assignment.version).then_some((assignment, load.requests))
}

fn drive(
    frontend: &Arc<dyn Frontend>,
    version: u64,
    traffic: &Traffic,
    oracle: &Oracle,
    clients: &mut [Client],
    requests: u64,
) -> Result<(), String> {
    let tally = run_phase(
        frontend,
        version,
        traffic,
        oracle,
        clients,
        Stop::Requests(requests),
    );
    if tally.failed > 0 {
        return Err(format!(
            "{} of {} set-up requests failed: {:?}",
            tally.failed, tally.attempted, tally.problems
        ));
    }
    Ok(())
}

/// Deploys `workload` afresh and drives it to its converged state.
/// Control-plane calls are recorded as spans under one `setup` root.
pub fn set_up(
    workload: Workload,
    seed: u64,
    clients: usize,
    oracle: &Oracle,
    log: &mut SpanLog,
) -> Result<Deployment, String> {
    // A previous deployment's orders must not weigh on this one.
    MemStore::reset(SAGA_STORE);
    let started = Instant::now();
    let root = log.open("setup", None);
    let dep = TcpProcess::deploy(
        boutique::registry(),
        TcpOptions {
            replicas: workload.replicas(),
            ..Default::default()
        },
        1,
    )
    .map_err(|e| format!("deploy: {e}"))?;
    let frontend = dep.get::<dyn Frontend>().map_err(|e| e.to_string())?;
    let version = dep.version();
    let traffic = workload.traffic();
    let mut users: Vec<Client> = (0..clients)
        .map(|i| {
            let off = SpanLog::new(false, started, 0);
            Client::new(i, "s", derive_seed(seed, SETUP_STREAM), off)
        })
        .collect();
    let mut control = ControlPlane::default();

    if workload == Workload::SlicedCheckout {
        let mut hot = SliceAssignment::uniform(2, CART_SLICES_PER_REPLICA);
        for slice in &mut hot.slices {
            slice.replica = 0;
        }
        dep.install_routed_assignment(CART, hot)
            .map_err(|e| format!("install hot cart assignment: {e}"))?;
    }
    drive(
        &frontend,
        version,
        &traffic,
        oracle,
        &mut users,
        WARM_REQUESTS,
    )?;

    match workload {
        Workload::RoutedBrowse => {}
        Workload::ColocatedBrowse => {
            let controller = PlacementController::default();
            let mut signal = PlacementSignalBuilder::halving();
            let mut converged = false;
            for _ in 0..MAX_PLACEMENT_ROUNDS {
                signal.observe(&dep.callgraph());
                let t = Instant::now();
                let report = log
                    .scope("placement_round", Some(&root), || {
                        dep.placement_round(&controller, &signal.signal())
                    })
                    .map_err(|e| format!("placement round: {e}"))?;
                control.placement_round_ms += t.elapsed().as_secs_f64() * 1e3;
                control.placement_rounds += 1;
                control.migrations += report.migrated.iter().filter(|m| m.changed).count() as u64;
                if report.is_noop() {
                    converged = true;
                    break;
                }
                drive(
                    &frontend,
                    version,
                    &traffic,
                    oracle,
                    &mut users,
                    ROUND_REQUESTS,
                )?;
            }
            let state = dep.placement_state();
            if !converged || state.colocated_count() != state.placements.len() {
                return Err(format!(
                    "placement did not converge to all-colocated in {MAX_PLACEMENT_ROUNDS} \
                     rounds: {} of {} colocated",
                    state.colocated_count(),
                    state.placements.len()
                ));
            }
        }
        Workload::SlicedCheckout => {
            let options = ControllerOptions::default();
            let mut converged = false;
            for _ in 0..MAX_REBALANCE_ROUNDS {
                let t = Instant::now();
                let report = log
                    .scope("rebalance_routed", Some(&root), || {
                        dep.rebalance_routed(CART, &options)
                    })
                    .map_err(|e| format!("rebalance: {e}"))?;
                control.rebalance_ms += t.elapsed().as_secs_f64() * 1e3;
                control.rebalance_rounds += 1;
                control.ranges_moved += report.migrated.len() as u64;
                control.entries_moved += report.migrated.iter().map(|m| m.entries).sum::<u64>();
                if report.decisions.is_empty() {
                    converged = true;
                    break;
                }
                drive(
                    &frontend,
                    version,
                    &traffic,
                    oracle,
                    &mut users,
                    ROUND_REQUESTS,
                )?;
            }
            // The no-op round planned from the traffic since the last move:
            // that traffic must already be spread across both replicas.
            let balance = cart_load_max_over_mean(&dep, None).unwrap_or(f64::INFINITY);
            if !converged || control.ranges_moved == 0 || balance >= 2.0 {
                return Err(format!(
                    "cart rebalance did not converge in {MAX_REBALANCE_ROUNDS} rounds: \
                     {} ranges moved, load max/mean {balance:.2}",
                    control.ranges_moved
                ));
            }
        }
    }
    log.finish(root);
    Ok(Deployment {
        dep,
        frontend,
        control,
        setup_s: started.elapsed().as_secs_f64(),
    })
}
