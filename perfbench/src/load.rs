//! The closed-loop load generator and its per-response checks.
//!
//! Each [`Client`] is one thread playing a population of virtual users
//! that wait for every reply before sending the next request, as a Locust
//! user does. A client owns its users (names carry the client index), so
//! no user ever has two requests in flight, and it keeps a model of each
//! user's cart. Every response is checked against that model and against
//! an oracle built from the boutique's pure catalog and currency logic:
//! prices must be the catalog price converted into the requested
//! currency, cart views and orders must list exactly the modelled lines,
//! totals must equal the lines plus shipping, and a placed order must
//! leave the cart empty (which the next view, home page or the final
//! audit observes). A request that errors or answers wrongly counts as
//! failed.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use boutique::components::{CartService, Frontend};
use boutique::loadgen::{test_address, Mix, Zipf};
use boutique::logic::catalog::CatalogStore;
use boutique::logic::currency::CurrencyConverter;
use boutique::logic::payment::test_card;
use boutique::types::{CartItem, HomeView, Money, OrderItem, PlaceOrderRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use weaver_core::context::CallContext;

use crate::sys::{HostSample, HostUse};
use crate::trace::{Open, SpanLog};

/// Currencies users ask for.
pub const CURRENCIES: [&str; 5] = ["USD", "EUR", "JPY", "GBP", "CAD"];

/// Frontend methods, in the order per-method latencies are kept.
pub const METHODS: [&str; 5] = [
    "home",
    "browse_product",
    "add_to_cart",
    "view_cart",
    "place_order",
];
/// Span names: one per Frontend call, plus the checkout that wraps two.
const CALL_SPANS: [&str; 5] = [
    "boutique.home",
    "boutique.browse_product",
    "boutique.add_to_cart",
    "boutique.view_cart",
    "boutique.place_order",
];
const CHECKOUT_SPAN: &str = "boutique.checkout";
const HOME: usize = 0;
const BROWSE: usize = 1;
const ADD: usize = 2;
const VIEW: usize = 3;
const PLACE: usize = 4;

/// A write-heavy mix (home / browse / add / view / checkout =
/// 0 / 10 / 40 / 20 / 30): carts fill and empty constantly. The
/// browse-heavy mix is `Mix::default()`.
pub const WRITE_HEAVY: Mix = Mix {
    home: 0,
    browse: 10,
    add_to_cart: 40,
    view_cart: 20,
    checkout: 30,
};

/// The operation a uniform draw picks from `mix`, as a `METHODS` index
/// (`PLACE` stands for the whole checkout, an add and then the order).
fn pick(mix: &Mix, rng: &mut StdRng) -> usize {
    let weights = [
        mix.home,
        mix.browse,
        mix.add_to_cart,
        mix.view_cart,
        mix.checkout,
    ];
    let mut draw = rng.gen_range(0..weights.iter().sum::<u32>());
    for (op, w) in weights.into_iter().enumerate() {
        if draw < w {
            return op;
        }
        draw -= w;
    }
    PLACE
}

/// How a client picks which of its users sends the next request.
#[derive(Debug, Clone)]
pub enum Users {
    /// Uniform over this many users.
    Uniform(u64),
    /// Zipf-skewed over the sampler's population: a few users are hot.
    Zipf(Zipf),
}

impl Users {
    fn sample(&self, rng: &mut StdRng) -> u64 {
        match self {
            Users::Uniform(n) => rng.gen_range(0..*n),
            Users::Zipf(z) => z.sample(rng) - 1,
        }
    }
}

/// The request stream of one workload.
#[derive(Debug, Clone)]
pub struct Traffic {
    /// Operation weights.
    pub mix: Mix,
    /// User population of each client.
    pub users: Users,
}

/// Expected answers, from the boutique's pure logic: every catalog price
/// converted into every currency.
pub struct Oracle {
    ids: Vec<String>,
    index: HashMap<String, usize>,
    prices: Vec<Vec<Money>>,
}

impl Oracle {
    /// Builds the price table from the seeded catalog and rates.
    pub fn new() -> Oracle {
        let catalog = CatalogStore::seeded();
        let rates = CurrencyConverter::seeded();
        let ids: Vec<String> = catalog.list().iter().map(|p| p.id.clone()).collect();
        let prices = catalog
            .list()
            .iter()
            .map(|p| {
                CURRENCIES
                    .iter()
                    .map(|c| rates.convert(&p.price, c).expect("seeded currency"))
                    .collect()
            })
            .collect();
        let index = ids.iter().cloned().zip(0..).collect();
        Oracle { ids, index, prices }
    }

    /// Number of catalog products.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Product id at `i`.
    pub fn id(&self, i: usize) -> &str {
        &self.ids[i]
    }

    fn price(&self, id: &str, currency: usize) -> Option<&Money> {
        self.index.get(id).map(|&i| &self.prices[i][currency])
    }

    fn check_price(&self, what: &str, id: &str, got: &Money, currency: usize) -> Check {
        match self.price(id, currency) {
            Some(want) if want == got => Ok(()),
            want => Err(format!("{what}: {id} priced {got:?}, want {want:?}")),
        }
    }
}

type Check = Result<(), String>;

/// A request's result: on failure, whether the answer was wrong (rather
/// than an error) and what went wrong.
type Outcome = Result<(), (bool, String)>;

/// One request's inputs.
struct Req<'a> {
    frontend: &'a dyn Frontend,
    oracle: &'a Oracle,
    ctx: CallContext,
    /// The request's span.
    root: Open,
    user: String,
    rank: u64,
    product: usize,
    currency: usize,
}

/// What a set of clients did over one phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored or answered wrongly.
    pub failed: u64,
    /// Of `failed`, requests whose answer broke a check.
    pub wrong: u64,
    /// The first few problems, for the log.
    pub problems: Vec<String>,
    /// Orders confirmed to the users.
    pub orders: u64,
    /// Request latencies (ns), by the window the request started in.
    pub windows: Vec<Vec<u64>>,
    /// Frontend call latencies (ns) by `METHODS` index; traced runs only.
    pub methods: [Vec<u64>; 5],
    /// Sum and count of dispatch-queue depth samples; traced runs only.
    pub queue_depth: (u64, u64),
    /// Machine steal and process CPU over each window, when client 0 saw
    /// both of its boundaries.
    pub window_host: Vec<Option<HostUse>>,
    /// A home page the workload produced (traced runs only).
    pub home_sample: Option<HomeView>,
    /// An order request the workload sent (traced runs only).
    pub order_sample: Option<PlaceOrderRequest>,
}

impl Tally {
    /// Adds another tally's counts and samples to this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for p in other.problems {
            if self.problems.len() < 8 {
                self.problems.push(p);
            }
        }
        self.orders += other.orders;
        if self.windows.len() < other.windows.len() {
            self.windows.resize_with(other.windows.len(), Vec::new);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.methods.iter_mut().zip(other.methods) {
            mine.extend(theirs);
        }
        self.queue_depth.0 += other.queue_depth.0;
        self.queue_depth.1 += other.queue_depth.1;
        if self.window_host.len() < other.window_host.len() {
            self.window_host.resize(other.window_host.len(), None);
        }
        for (mine, theirs) in self.window_host.iter_mut().zip(other.window_host) {
            *mine = mine.or(theirs);
        }
        self.home_sample = self.home_sample.take().or(other.home_sample);
        self.order_sample = self.order_sample.take().or(other.order_sample);
    }

    /// Appends a later phase: its windows follow this phase's windows.
    pub fn append(&mut self, mut later: Tally) {
        let windows = std::mem::take(&mut later.windows);
        let host = std::mem::take(&mut later.window_host);
        self.merge(later);
        self.windows.extend(windows);
        self.window_host.extend(host);
    }
}

/// When a phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many requests per client.
    Requests(u64),
    /// After `count` windows of `width` from `start`; requests are
    /// binned by the window they start in.
    Windows {
        /// Phase start.
        start: Instant,
        /// Window length.
        width: Duration,
        /// Number of windows.
        count: usize,
        /// Record spans in odd windows only, so traced and untraced
        /// windows interleave and compare like with like.
        trace_odd: bool,
    },
}

/// One virtual-user thread: its random stream, its users' carts, and its
/// spans.
pub struct Client {
    index: usize,
    prefix: &'static str,
    rng: StdRng,
    /// Modelled cart of each user: (product index, quantity) in the order
    /// the cart service keeps lines.
    carts: HashMap<u64, Vec<(usize, u32)>>,
    /// Users whose cart is unknown after a failed request.
    unknown: HashSet<u64>,
    /// This client's spans.
    pub log: SpanLog,
}

/// Derives a client's seed from the workload seed (SplitMix64 finalizer).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Client {
    /// Client `index` of a population named `prefix`, seeded from `seed`.
    pub fn new(index: usize, prefix: &'static str, seed: u64, log: SpanLog) -> Client {
        Client {
            index,
            prefix,
            rng: StdRng::seed_from_u64(derive_seed(seed, index as u64 + 1)),
            carts: HashMap::new(),
            unknown: HashSet::new(),
            log,
        }
    }

    fn user(&self, rank: u64) -> String {
        format!("{}{}-{}", self.prefix, self.index, rank)
    }

    fn run(
        &mut self,
        frontend: &dyn Frontend,
        version: u64,
        traffic: &Traffic,
        oracle: &Oracle,
        stop: Stop,
    ) -> Tally {
        let mut tally = Tally::default();
        match stop {
            Stop::Requests(n) => {
                tally.windows = vec![Vec::with_capacity(n as usize)];
                for _ in 0..n {
                    let latency = self.request(frontend, version, traffic, oracle, &mut tally);
                    tally.windows[0].push(latency);
                }
            }
            Stop::Windows {
                start,
                width,
                count,
                trace_odd,
            } => {
                tally.windows = vec![Vec::new(); count];
                tally.window_host = vec![None; count];
                let end = start + width * count as u32;
                // Client 0 reads the machine's steal time and this
                // process's CPU time at each window boundary it crosses.
                let mut last = (self.index == 0)
                    .then(HostSample::read)
                    .and_then(Result::ok);
                let mut current = 0;
                if trace_odd {
                    self.log.set_enabled(false);
                }
                loop {
                    let now = Instant::now();
                    let window = (now.saturating_duration_since(start).as_nanos()
                        / width.as_nanos()) as usize;
                    if window != current {
                        if let Some(before) = last {
                            last = HostSample::read().ok();
                            tally.window_host[current] = last.map(|after| after.since(&before));
                        }
                        current = window;
                        if trace_odd {
                            self.log.set_enabled(window % 2 == 1);
                        }
                    }
                    if now >= end {
                        break;
                    }
                    let latency = self.request(frontend, version, traffic, oracle, &mut tally);
                    tally.windows[window.min(count - 1)].push(latency);
                }
            }
        }
        tally
    }

    /// Sends one request, checks the answer, and returns its latency (ns).
    fn request(
        &mut self,
        frontend: &dyn Frontend,
        version: u64,
        traffic: &Traffic,
        oracle: &Oracle,
        tally: &mut Tally,
    ) -> u64 {
        let rank = traffic.users.sample(&mut self.rng);
        let currency = self.rng.gen_range(0..CURRENCIES.len());
        let product = self.rng.gen_range(0..oracle.len());
        let op = pick(&traffic.mix, &mut self.rng);
        let quantity = self.rng.gen_range(1..4u32);

        let start = Instant::now();
        // One span per request; a checkout's two Frontend calls get
        // child spans under it.
        let name = if op == PLACE {
            CHECKOUT_SPAN
        } else {
            CALL_SPANS[op]
        };
        let req = Req {
            frontend,
            oracle,
            ctx: CallContext::root(version),
            root: self.log.open_at(name, None, start),
            user: self.user(rank),
            rank,
            product,
            currency,
        };
        let outcome = match op {
            HOME => self.home(&req, tally),
            BROWSE => self.browse(&req, tally),
            ADD => self.add(&req, tally, quantity),
            VIEW => self.view(&req, tally),
            _ => self.checkout(&req, tally),
        };
        let end = Instant::now();
        self.log.finish_at(req.root, end);
        if self.log.enabled() {
            tally.queue_depth.0 += weaver_transport::pool::dispatch_queue_depth();
            tally.queue_depth.1 += 1;
        }

        tally.attempted += 1;
        if let Err((wrong, problem)) = outcome {
            tally.failed += 1;
            tally.wrong += u64::from(wrong);
            if tally.problems.len() < 8 {
                tally.problems.push(problem);
            }
            // The cart may or may not have changed: stop checking it.
            self.unknown.insert(rank);
        }
        end.saturating_duration_since(start).as_nanos() as u64
    }

    /// Times one Frontend call (traced runs only), as a child span when
    /// the request's span wraps more than this call.
    fn call<T>(
        &mut self,
        req: &Req,
        tally: &mut Tally,
        method: usize,
        f: impl FnOnce() -> Result<T, weaver_core::error::WeaverError>,
    ) -> Result<T, (bool, String)> {
        let out = if self.log.enabled() {
            let start = Instant::now();
            let out = f();
            let end = Instant::now();
            tally.methods[method].push(end.saturating_duration_since(start).as_nanos() as u64);
            if req.root.name() != CALL_SPANS[method] {
                let child = self.log.open_at(CALL_SPANS[method], Some(&req.root), start);
                self.log.finish_at(child, end);
            }
            out
        } else {
            f()
        };
        out.map_err(|e| (false, format!("{}: {e}", METHODS[method])))
    }

    /// The modelled cart of user `rank`, if known.
    fn model(&self, rank: u64) -> Option<&[(usize, u32)]> {
        if self.unknown.contains(&rank) {
            return None;
        }
        Some(self.carts.get(&rank).map_or(&[][..], Vec::as_slice))
    }

    fn home(&mut self, req: &Req, tally: &mut Tally) -> Outcome {
        let code = CURRENCIES[req.currency];
        let view = self.call(req, tally, HOME, || {
            req.frontend
                .home(&req.ctx, req.user.clone(), code.to_string())
        })?;
        let check = || -> Check {
            if view.currency != code {
                return Err(format!("home: currency {} for {code}", view.currency));
            }
            if view.products.len() != req.oracle.len() {
                return Err(format!("home: {} products", view.products.len()));
            }
            for p in &view.products {
                req.oracle
                    .check_price("home", &p.id, &p.price, req.currency)?;
            }
            let size = self
                .model(req.rank)
                .map(|m| m.iter().map(|l| l.1).sum::<u32>());
            match size {
                Some(n) if n != view.cart_size => {
                    Err(format!("home: cart size {} want {n}", view.cart_size))
                }
                _ => Ok(()),
            }
        };
        check().map_err(|e| (true, e))?;
        if self.log.enabled() && tally.home_sample.is_none() {
            tally.home_sample = Some(view);
        }
        Ok(())
    }

    fn browse(&mut self, req: &Req, tally: &mut Tally) -> Outcome {
        let id = req.oracle.id(req.product);
        let view = self.call(req, tally, BROWSE, || {
            req.frontend.browse_product(
                &req.ctx,
                req.user.clone(),
                id.to_string(),
                CURRENCIES[req.currency].to_string(),
            )
        })?;
        let check = || -> Check {
            if view.product.id != id {
                return Err(format!("browse: got {} for {id}", view.product.id));
            }
            req.oracle
                .check_price("browse", id, &view.product.price, req.currency)?;
            if view.recommendations.iter().any(|p| p.id == id) {
                return Err(format!("browse: {id} recommends itself"));
            }
            Ok(())
        };
        check().map_err(|e| (true, e))
    }

    fn add(&mut self, req: &Req, tally: &mut Tally, quantity: u32) -> Outcome {
        let id = req.oracle.id(req.product);
        self.call(req, tally, ADD, || {
            req.frontend
                .add_to_cart(&req.ctx, req.user.clone(), id.to_string(), quantity)
        })?;
        let cart = self.carts.entry(req.rank).or_default();
        match cart.iter_mut().find(|l| l.0 == req.product) {
            Some(line) => line.1 += quantity,
            None => cart.push((req.product, quantity)),
        }
        Ok(())
    }

    /// Checks priced lines against the modelled cart and the total against
    /// lines plus shipping.
    fn check_lines(
        &self,
        what: &str,
        req: &Req,
        items: &[OrderItem],
        shipping: &Money,
        total: &Money,
    ) -> Check {
        let code = CURRENCIES[req.currency];
        let oracle = req.oracle;
        if let Some(model) = self.model(req.rank) {
            let same = items.len() == model.len()
                && items.iter().zip(model).all(|(item, &(p, q))| {
                    item.item.product_id == oracle.id(p) && item.item.quantity == q
                });
            if !same {
                let got: Vec<(&str, u32)> = items
                    .iter()
                    .map(|i| (i.item.product_id.as_str(), i.item.quantity))
                    .collect();
                let want: Vec<(&str, u32)> =
                    model.iter().map(|&(p, q)| (oracle.id(p), q)).collect();
                return Err(format!("{what}: lines {got:?}, want {want:?}"));
            }
        }
        let mut sum = Money::new(code, 0, 0);
        for item in items {
            oracle.check_price(what, &item.item.product_id, &item.cost, req.currency)?;
            sum = sum
                .checked_add(&item.cost.times(item.item.quantity))
                .ok_or_else(|| format!("{what}: line currency mixes with {code}"))?;
        }
        if shipping.currency_code != code {
            return Err(format!("{what}: shipping in {}", shipping.currency_code));
        }
        let want = sum
            .checked_add(shipping)
            .ok_or_else(|| format!("{what}: shipping currency"))?;
        if total.currency_code != code || total.total_nanos() != want.total_nanos() {
            return Err(format!(
                "{what}: total {total:?}, lines plus shipping {want:?}"
            ));
        }
        Ok(())
    }

    fn view(&mut self, req: &Req, tally: &mut Tally) -> Outcome {
        let view = self.call(req, tally, VIEW, || {
            req.frontend.view_cart(
                &req.ctx,
                req.user.clone(),
                CURRENCIES[req.currency].to_string(),
            )
        })?;
        self.check_lines(
            "view_cart",
            req,
            &view.items,
            &view.shipping_cost,
            &view.total,
        )
        .map_err(|e| (true, e))
    }

    fn checkout(&mut self, req: &Req, tally: &mut Tally) -> Outcome {
        self.add(req, tally, 1)?;
        let request = PlaceOrderRequest {
            user_id: req.user.clone(),
            user_currency: CURRENCIES[req.currency].to_string(),
            address: test_address(),
            email: "someone@example.com".into(),
            credit_card: test_card(),
        };
        if self.log.enabled() && tally.order_sample.is_none() {
            tally.order_sample = Some(request.clone());
        }
        let order = self.call(req, tally, PLACE, || {
            req.frontend.place_order(&req.ctx, request)
        })?;
        let check = || -> Check {
            if !order.order_id.starts_with("order-") {
                return Err(format!("place_order: order id {:?}", order.order_id));
            }
            if order.shipping_tracking_id.is_empty() {
                return Err("place_order: no tracking id".into());
            }
            self.check_lines(
                "place_order",
                req,
                &order.items,
                &order.shipping_cost,
                &order.total,
            )
        };
        check().map_err(|e| (true, e))?;
        // An empty entry, not none: the audit then checks this user too.
        self.carts.insert(req.rank, Vec::new());
        tally.orders += 1;
        Ok(())
    }

    /// Compares up to `limit` known users' carts, read straight from the
    /// cart service, with the model. Returns the mismatches.
    pub fn audit_carts(
        &self,
        cart: &dyn CartService,
        version: u64,
        oracle: &Oracle,
        limit: usize,
    ) -> Vec<String> {
        let mut ranks: Vec<u64> = self
            .carts
            .keys()
            .copied()
            .filter(|r| !self.unknown.contains(r))
            .collect();
        ranks.sort_unstable();
        let ctx = CallContext::root(version);
        let mut problems = Vec::new();
        for rank in ranks.into_iter().take(limit) {
            let want: Vec<CartItem> = self.carts[&rank]
                .iter()
                .map(|&(p, q)| CartItem {
                    product_id: oracle.id(p).to_string(),
                    quantity: q,
                })
                .collect();
            match cart.get_cart(&ctx, self.user(rank)) {
                Ok(got) if got == want => {}
                Ok(got) => {
                    problems.push(format!("audit {}: {got:?} want {want:?}", self.user(rank)))
                }
                Err(e) => problems.push(format!("audit {}: {e}", self.user(rank))),
            }
        }
        problems
    }
}

/// Runs every client on its own thread until `stop`, and merges what they
/// saw.
pub fn run_phase(
    frontend: &Arc<dyn Frontend>,
    version: u64,
    traffic: &Traffic,
    oracle: &Oracle,
    clients: &mut [Client],
    stop: Stop,
) -> Tally {
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let frontend = Arc::clone(frontend);
                scope.spawn(move || client.run(&*frontend, version, traffic, oracle, stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged = Tally::default();
    for t in tallies {
        merged.merge(t);
    }
    merged
}
