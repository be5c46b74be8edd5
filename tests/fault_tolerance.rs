//! Fault-tolerance testing (paper §5.3 / experiment A6): chaos over the
//! boutique with invariants checked during and after.

use std::sync::Arc;
use std::time::Duration;

use boutique::components::{CurrencyService, Frontend, ProductCatalog};
use boutique::loadgen::{run_load, LoadOptions};
use weaver_runtime::{ComponentFault, SingleMode, SingleProcess};
use weaver_testing::chaos::{eventually, ChaosOptions, ChaosRunner};

fn deploy() -> Arc<SingleProcess> {
    SingleProcess::deploy(boutique::registry(), SingleMode::Marshaled, 1)
}

#[test]
fn app_survives_chaos_and_recovers() {
    let app = deploy();
    let frontend = app.get::<dyn Frontend>().unwrap();

    let chaos = ChaosRunner::start(
        app.clone(),
        ChaosOptions {
            seed: 1234,
            targets: vec![
                "boutique.CartService".into(),
                "boutique.ProductCatalog".into(),
                "boutique.PaymentService".into(),
                "boutique.EmailService".into(),
            ],
            interval: Duration::from_millis(2),
            heal_fraction: 0.5,
        },
    );

    let stormy = run_load(
        frontend.clone(),
        &LoadOptions {
            workers: 4,
            duration: Duration::from_millis(600),
            ..Default::default()
        },
    );
    let actions = chaos.stop();
    assert!(actions.len() > 20, "chaos barely ran: {}", actions.len());
    // Liveness under chaos: the app keeps taking requests.
    assert!(
        stormy.requests > 50,
        "app wedged under chaos: {} requests",
        stormy.requests
    );

    // Recovery: healed system serves cleanly again.
    let ctx = app.root_context();
    eventually(Duration::from_secs(5), || {
        frontend.home(&ctx, "recovery-check".into(), "USD".into())
    })
    .expect("system did not recover");
    let calm = run_load(
        frontend,
        &LoadOptions {
            workers: 2,
            duration: Duration::from_millis(300),
            ..Default::default()
        },
    );
    assert_eq!(calm.errors, 0, "errors persisted after chaos healed");
}

#[test]
fn chaos_log_is_deterministic_per_seed() {
    let options = ChaosOptions {
        seed: 77,
        targets: vec!["boutique.AdService".into(), "boutique.Shipping".into()],
        interval: Duration::from_millis(1),
        heal_fraction: 0.3,
    };
    let run = |opts: ChaosOptions| {
        let app = deploy();
        let chaos = ChaosRunner::start(app, opts);
        std::thread::sleep(Duration::from_millis(100));
        chaos.stop()
    };
    let a = run(options.clone());
    let b = run(options);
    // Timing can truncate one log; the common prefix must match exactly.
    let common = a.len().min(b.len());
    assert!(common > 10, "chaos produced too few actions");
    assert_eq!(a[..common], b[..common], "chaos sequence diverged per seed");
}

#[test]
fn downed_dependency_fails_calls_cleanly_then_heals() {
    let app = deploy();
    let frontend = app.get::<dyn Frontend>().unwrap();
    let ctx = app.root_context();

    app.inject_fault(
        "boutique.ProductCatalog",
        ComponentFault {
            down: true,
            ..Default::default()
        },
    );
    let err = frontend
        .home(&ctx, "x".into(), "USD".into())
        .expect_err("catalog is down");
    assert!(
        matches!(err, weaver_core::WeaverError::Unavailable { .. }),
        "wrong error: {err}"
    );

    app.inject_fault("boutique.ProductCatalog", ComponentFault::default());
    frontend
        .home(&ctx, "x".into(), "USD".into())
        .expect("healed");
}

#[test]
fn transient_failures_do_not_corrupt_state() {
    let app = deploy();
    let frontend = app.get::<dyn Frontend>().unwrap();
    let ctx = app.root_context();

    frontend
        .add_to_cart(&ctx, "tf".into(), "OLJCESPC7Z".into(), 2)
        .unwrap();

    // Fail the next payment call: checkout errors, cart must survive.
    app.inject_fault(
        "boutique.PaymentService",
        ComponentFault {
            fail_next: 1,
            ..Default::default()
        },
    );
    let err = frontend
        .place_order(
            &ctx,
            boutique::types::PlaceOrderRequest {
                user_id: "tf".into(),
                user_currency: "USD".into(),
                address: boutique::loadgen::test_address(),
                email: "tf@example.com".into(),
                credit_card: boutique::logic::payment::test_card(),
            },
        )
        .expect_err("payment was injected to fail");
    assert!(matches!(err, weaver_core::WeaverError::Unavailable { .. }));
    let cart = frontend.view_cart(&ctx, "tf".into(), "USD".into()).unwrap();
    assert_eq!(cart.items.len(), 1, "failed checkout lost the cart");

    // Retry succeeds and empties the cart exactly once.
    let order = frontend
        .place_order(
            &ctx,
            boutique::types::PlaceOrderRequest {
                user_id: "tf".into(),
                user_currency: "USD".into(),
                address: boutique::loadgen::test_address(),
                email: "tf@example.com".into(),
                credit_card: boutique::logic::payment::test_card(),
            },
        )
        .expect("retry after transient failure");
    assert_eq!(order.items.len(), 1);
    let cart = frontend.view_cart(&ctx, "tf".into(), "USD".into()).unwrap();
    assert!(cart.items.is_empty());
}

#[test]
fn crash_restart_constructs_fresh_replica() {
    let app = deploy();
    let frontend = app.get::<dyn Frontend>().unwrap();
    let ctx = app.root_context();

    frontend
        .add_to_cart(&ctx, "cr".into(), "6E92ZMYYFZ".into(), 1)
        .unwrap();
    assert!(app.running().contains(&"boutique.CartService"));

    app.crash_component("boutique.CartService").unwrap();
    // Cart state is per-replica (a cache): gone after the crash, but the
    // component answers again immediately (restart-on-demand).
    let cart = frontend.view_cart(&ctx, "cr".into(), "USD".into()).unwrap();
    assert!(cart.items.is_empty());
}

#[test]
fn delay_on_one_component_does_not_slow_another() {
    let app = deploy();
    let catalog = app.get::<dyn ProductCatalog>().unwrap();
    let currency = app.get::<dyn CurrencyService>().unwrap();
    let ctx = app.root_context();
    let delay = Duration::from_millis(400);
    app.inject_fault(
        "boutique.ProductCatalog",
        ComponentFault {
            delay,
            ..Default::default()
        },
    );
    let slow = std::thread::spawn({
        let ctx = ctx.clone();
        move || {
            let started = std::time::Instant::now();
            catalog.get_product(&ctx, "OLJCESPC7Z".into()).unwrap();
            started.elapsed()
        }
    });
    // Call the currency service for as long as the catalog call is in
    // flight, so some of these calls overlap its injected delay.
    let mut worst = Duration::ZERO;
    while !slow.is_finished() {
        let started = std::time::Instant::now();
        currency.get_supported_currencies(&ctx).unwrap();
        worst = worst.max(started.elapsed());
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(slow.join().unwrap() >= delay, "the delay was not applied");
    assert!(
        worst < delay / 2,
        "a delay on the catalog held up the currency service for {worst:?}"
    );
}

#[test]
fn fail_next_fails_exactly_n_among_concurrent_callers() {
    let app = deploy();
    let ctx = app.root_context();
    app.inject_fault(
        "boutique.CurrencyService",
        ComponentFault {
            fail_next: 25,
            ..Default::default()
        },
    );
    let callers: Vec<_> = (0..8)
        .map(|_| {
            let currency = app.get::<dyn CurrencyService>().unwrap();
            let ctx = ctx.clone();
            std::thread::spawn(move || {
                (0..20)
                    .filter(|_| match currency.get_supported_currencies(&ctx) {
                        Ok(_) => false,
                        Err(weaver_core::WeaverError::Unavailable { .. }) => true,
                        Err(e) => panic!("unexpected error: {e}"),
                    })
                    .count()
            })
        })
        .collect();
    let failed: usize = callers.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(failed, 25, "fail_next must fail exactly n calls");
}
