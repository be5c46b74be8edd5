//! An in-process `Frontend` that answers from canned pages, so the load
//! generator can be timed against a server that costs almost nothing.
//!
//! Pages are built once per currency from the same pure logic the oracle
//! uses; the only live state is each user's cart, which the checks need.

use std::collections::HashMap;
use std::sync::Mutex;

use boutique::components::Frontend;
use boutique::logic::catalog::CatalogStore;
use boutique::logic::currency::CurrencyConverter;
use boutique::types::{
    CartItem, CartView, HomeView, Money, OrderItem, OrderResult, PlaceOrderRequest, Product,
    ProductView,
};
use weaver_core::context::CallContext;
use weaver_core::error::WeaverError;

use crate::load::CURRENCIES;

/// The canned frontend.
pub struct StubFrontend {
    /// Catalog priced in each currency, indexed like `CURRENCIES`.
    pages: Vec<Vec<Product>>,
    carts: Mutex<HashMap<String, Vec<CartItem>>>,
}

fn currency_index(code: &str) -> Result<usize, WeaverError> {
    CURRENCIES
        .iter()
        .position(|c| *c == code)
        .ok_or_else(|| WeaverError::app(format!("unsupported currency {code}")))
}

impl StubFrontend {
    /// Builds the canned pages.
    pub fn new() -> StubFrontend {
        let catalog = CatalogStore::seeded();
        let rates = CurrencyConverter::seeded();
        let pages = CURRENCIES
            .iter()
            .map(|code| {
                catalog
                    .list()
                    .iter()
                    .map(|p| Product {
                        price: rates.convert(&p.price, code).expect("seeded currency"),
                        ..p.clone()
                    })
                    .collect()
            })
            .collect();
        StubFrontend {
            pages,
            carts: Mutex::new(HashMap::new()),
        }
    }

    fn cart(&self, user: &str) -> Vec<CartItem> {
        let carts = self.carts.lock().expect("stub cart lock poisoned");
        carts.get(user).cloned().unwrap_or_default()
    }

    fn priced(&self, cart: &[CartItem], currency: usize) -> (Vec<OrderItem>, Money) {
        let page = &self.pages[currency];
        let mut total = Money::new(CURRENCIES[currency], 0, 0);
        let items = cart
            .iter()
            .map(|line| {
                let cost = page
                    .iter()
                    .find(|p| p.id == line.product_id)
                    .map(|p| p.price.clone())
                    .unwrap_or_default();
                total = total
                    .checked_add(&cost.times(line.quantity))
                    .unwrap_or_default();
                OrderItem {
                    item: line.clone(),
                    cost,
                }
            })
            .collect();
        (items, total)
    }
}

impl Frontend for StubFrontend {
    fn home(
        &self,
        _: &CallContext,
        user_id: String,
        currency: String,
    ) -> Result<HomeView, WeaverError> {
        let i = currency_index(&currency)?;
        Ok(HomeView {
            products: self.pages[i].clone(),
            ad: None,
            cart_size: self.cart(&user_id).iter().map(|l| l.quantity).sum(),
            currency,
        })
    }

    fn browse_product(
        &self,
        _: &CallContext,
        _user_id: String,
        product_id: String,
        currency: String,
    ) -> Result<ProductView, WeaverError> {
        let page = &self.pages[currency_index(&currency)?];
        let product = page
            .iter()
            .find(|p| p.id == product_id)
            .cloned()
            .ok_or_else(|| WeaverError::app(format!("no product {product_id}")))?;
        Ok(ProductView {
            product,
            recommendations: Vec::new(),
            ad: None,
        })
    }

    fn add_to_cart(
        &self,
        _: &CallContext,
        user_id: String,
        product_id: String,
        quantity: u32,
    ) -> Result<(), WeaverError> {
        let mut carts = self.carts.lock().expect("stub cart lock poisoned");
        let cart = carts.entry(user_id).or_default();
        match cart.iter_mut().find(|l| l.product_id == product_id) {
            Some(line) => line.quantity += quantity,
            None => cart.push(CartItem {
                product_id,
                quantity,
            }),
        }
        Ok(())
    }

    fn view_cart(
        &self,
        _: &CallContext,
        user_id: String,
        currency: String,
    ) -> Result<CartView, WeaverError> {
        let i = currency_index(&currency)?;
        let (items, total) = self.priced(&self.cart(&user_id), i);
        Ok(CartView {
            items,
            shipping_cost: Money::new(currency, 0, 0),
            total,
            recommendations: Vec::new(),
        })
    }

    fn place_order(
        &self,
        _: &CallContext,
        request: PlaceOrderRequest,
    ) -> Result<OrderResult, WeaverError> {
        let i = currency_index(&request.user_currency)?;
        let cart = self
            .carts
            .lock()
            .expect("stub cart lock poisoned")
            .remove(&request.user_id)
            .unwrap_or_default();
        let (items, total) = self.priced(&cart, i);
        Ok(OrderResult {
            order_id: "order-stub".into(),
            shipping_tracking_id: "stub-tracking".into(),
            shipping_cost: Money::new(request.user_currency, 0, 0),
            shipping_address: request.address,
            items,
            total,
        })
    }
}
