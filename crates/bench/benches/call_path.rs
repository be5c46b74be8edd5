//! End-to-end component call cost under each placement.
//!
//! The paper's §3.1 promise is that a method call is "a regular method
//! call" when co-located and an RPC otherwise. This bench puts numbers on
//! the three rungs of that ladder for a real boutique call
//! (`ProductCatalog::get_product`):
//!
//! * **colocated** — `Arc<dyn Trait>` virtual dispatch, zero marshaling;
//! * **marshaled** — encode + dispatch + decode, same process (weavertest);
//! * **live_colocated** — a `TcpProcess` whose catalog the live placement
//!   path migrated to `Colocated`: marshaling, admission gate and local
//!   dispatch, no socket;
//! * **tcp** — the full streamlined transport over loopback.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use boutique::components::{Frontend, ProductCatalog};
use weaver_core::component::ComponentInterface;
use weaver_core::context::CallContext;
use weaver_core::error::WeaverError;
use weaver_core::instance::LiveComponents;
use weaver_placement::ComponentPlacement;
use weaver_runtime::dispatch::ProcletDispatcher;
use weaver_runtime::{SingleMode, SingleProcess, TcpOptions, TcpProcess};
use weaver_transport::{Connection, RequestHeader, Status, WeaverFraming};

fn bench_get_product(c: &mut Criterion) {
    let mut group = c.benchmark_group("call_path/get_product");
    let ctx = CallContext::test();

    // Rung 1: colocated (plain method call).
    let colocated = SingleProcess::deploy(boutique::registry(), SingleMode::Colocated, 1);
    let catalog = colocated.get::<dyn ProductCatalog>().expect("catalog");
    group.bench_function("colocated", |b| {
        b.iter(|| {
            catalog
                .get_product(&ctx, "OLJCESPC7Z".into())
                .expect("get_product")
        })
    });

    // Rung 2: marshaled in-process.
    let marshaled = SingleProcess::deploy(boutique::registry(), SingleMode::Marshaled, 1);
    let catalog = marshaled.get::<dyn ProductCatalog>().expect("catalog");
    group.bench_function("marshaled", |b| {
        b.iter(|| {
            catalog
                .get_product(&ctx, "OLJCESPC7Z".into())
                .expect("get_product")
        })
    });

    // Rung 3: live-colocated. A two-replica loopback deployment whose
    // catalog was migrated in by `migrate_component`, as the placement
    // loop does: each call passes the admission gate and dispatches to
    // replica 0's handler in-process.
    let live = TcpProcess::deploy(
        boutique::registry(),
        TcpOptions {
            replicas: 2,
            ..Default::default()
        },
        1,
    )
    .expect("deploy tcp");
    live.migrate_component(<dyn ProductCatalog>::NAME, ComponentPlacement::Colocated)
        .expect("colocate catalog");
    let catalog = live.get::<dyn ProductCatalog>().expect("catalog");
    let live_ctx = live.root_context();
    group.bench_function("live_colocated", |b| {
        b.iter(|| {
            catalog
                .get_product(&live_ctx, "OLJCESPC7Z".into())
                .expect("get_product")
        })
    });

    // Rung 4: over TCP via the proclet dispatcher (what a remote replica
    // actually runs).
    let registry = boutique::registry();
    let live = Arc::new(LiveComponents::new(Arc::clone(&registry)));
    struct NoDeps;
    impl weaver_core::context::ComponentGetter for NoDeps {
        fn acquire(&self, name: &str) -> Result<weaver_core::context::Acquired, WeaverError> {
            Err(WeaverError::UnknownComponent { name: name.into() })
        }
    }
    let dispatcher = Arc::new(ProcletDispatcher::new(
        live,
        Arc::new(NoDeps),
        1,
        Arc::new(weaver_metrics::MetricsRegistry::new()),
    ));
    let server = weaver_transport::Server::<WeaverFraming>::bind("127.0.0.1:0", 2, dispatcher)
        .expect("bind");
    let conn = Connection::<WeaverFraming>::connect(server.local_addr()).expect("connect");
    let component_id = registry.id_of(<dyn ProductCatalog>::NAME).expect("id");
    let args = weaver_codec::encode_to_vec(&"OLJCESPC7Z".to_string());
    let header = RequestHeader {
        component: component_id,
        method: 1, // get_product
        version: 1,
        ..Default::default()
    };
    group.bench_function("tcp", |b| {
        b.iter(|| {
            let resp = conn
                .call(&header, &args, Some(Duration::from_secs(5)))
                .expect("tcp call");
            assert_eq!(resp.status, Status::Ok);
            resp
        })
    });

    group.finish();
}

fn bench_full_checkout(c: &mut Criterion) {
    // The heaviest request in the app, under both placements.
    let mut group = c.benchmark_group("call_path/checkout");
    group.sample_size(30);

    for (label, mode) in [
        ("colocated", SingleMode::Colocated),
        ("marshaled", SingleMode::Marshaled),
    ] {
        let app = SingleProcess::deploy(boutique::registry(), mode, 1);
        let frontend = app.get::<dyn Frontend>().expect("frontend");
        let ctx = app.root_context();
        let mut user = 0u64;
        group.bench_function(label, |b| {
            b.iter(|| {
                user += 1;
                let uid = format!("bench-user-{user}");
                frontend
                    .add_to_cart(&ctx, uid.clone(), "OLJCESPC7Z".into(), 1)
                    .expect("add_to_cart");
                frontend
                    .place_order(
                        &ctx,
                        boutique::types::PlaceOrderRequest {
                            user_id: uid,
                            user_currency: "USD".into(),
                            address: boutique::loadgen::test_address(),
                            email: "bench@example.com".into(),
                            credit_card: boutique::logic::payment::test_card(),
                        },
                    )
                    .expect("place_order")
            })
        });
    }
    group.finish();
}

fn quick() -> Criterion {
    // Bounded runtimes: CI-friendly while still statistically useful.
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(30)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_get_product, bench_full_checkout
}
criterion_main!(benches);
