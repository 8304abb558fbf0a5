//! The storefront family: per-merchant visibility (a Spree-style shop).
//!
//! Customers see active products and their own orders; merchant staff
//! additionally see every order placed against their merchant's products.
//! Inactive products are hidden from the storefront — another negation the
//! policy over-approximates (`ActiveProducts` is keyed on `Active = TRUE`,
//! so a probe for a hidden product is simply not covered).

use crate::fleet::uid;
use crate::rng::{substream, SplitMix64};
use appdsl::Request;
use appsim::BatchSink;
use minidb::DbError;
use rand::Rng;
use sqlir::{Text, Value};

const TAG_STAFF: u64 = 11;
const TAG_PROD: u64 = 12;
const TAG_ORDER: u64 = 13;

pub(crate) const TEMPLATES: usize = 5;

pub(crate) fn ddl() -> Vec<String> {
    vec![
        "CREATE TABLE Users (UId INT PRIMARY KEY, Name TEXT NOT NULL)".into(),
        "CREATE TABLE Merchants (MId INT PRIMARY KEY, Name TEXT NOT NULL)".into(),
        "CREATE TABLE Staff (UId INT NOT NULL, MId INT NOT NULL, \
         PRIMARY KEY (UId, MId), \
         FOREIGN KEY (UId) REFERENCES Users (UId), \
         FOREIGN KEY (MId) REFERENCES Merchants (MId))"
            .into(),
        "CREATE TABLE Products (PId INT PRIMARY KEY, MId INT NOT NULL, \
         Title TEXT NOT NULL, Price INT NOT NULL, Active BOOL NOT NULL, \
         FOREIGN KEY (MId) REFERENCES Merchants (MId))"
            .into(),
        "CREATE TABLE Orders (OId INT PRIMARY KEY, UId INT NOT NULL, \
         PId INT NOT NULL, Qty INT NOT NULL, \
         FOREIGN KEY (UId) REFERENCES Users (UId), \
         FOREIGN KEY (PId) REFERENCES Products (PId))"
            .into(),
    ]
}

pub(crate) const SOURCE: &str = r#"
    handler storefront(merchant_id) {
        emit sql("SELECT PId, Title, Price FROM Products
                  WHERE MId = ?merchant_id AND Active = TRUE");
    }

    handler product(product_id) {
        let p = sql("SELECT Title, Price FROM Products
                     WHERE PId = ?product_id AND Active = TRUE");
        if p.is_empty() {
            abort(404);
        }
        emit p;
    }

    handler my_orders() {
        emit sql("SELECT OId, PId, Qty FROM Orders WHERE UId = ?MyUId");
    }

    handler store_orders() {
        let s = sql("SELECT MId FROM Staff WHERE UId = ?MyUId");
        if s.is_empty() {
            abort(403);
        }
        let mid = s.MId;
        emit sql("SELECT o.OId, o.PId, o.Qty FROM Orders o
                  JOIN Products p ON o.PId = p.PId WHERE p.MId = ?mid");
    }

    handler place_order(order_id, product_id, qty) {
        let p = sql("SELECT 1 FROM Products
                     WHERE PId = ?product_id AND Active = TRUE");
        if p.is_empty() {
            abort(404);
        }
        run sql("INSERT INTO Orders (OId, UId, PId, Qty)
                 VALUES (?order_id, ?MyUId, ?product_id, ?qty)");
    }
"#;

pub(crate) fn ground_truth() -> Vec<(String, String)> {
    [
        (
            "ActiveProducts",
            "SELECT PId, MId, Title, Price FROM Products WHERE Active = TRUE",
        ),
        (
            "MyOrders",
            "SELECT OId, UId, PId, Qty FROM Orders WHERE UId = ?MyUId",
        ),
        ("MyStaff", "SELECT UId, MId FROM Staff WHERE UId = ?MyUId"),
        (
            "MyStoreOrders",
            // `p.MId` must be in the head: the order-book handler selects on
            // it, and a selection is only expressible over a view that
            // projects the column (the Staff atom itself is discharged by
            // the trace fact from the handler's staff-check query).
            "SELECT o.OId, o.UId, o.PId, o.Qty, p.MId FROM Orders o \
             JOIN Products p ON o.PId = p.PId \
             JOIN Staff s ON p.MId = s.MId WHERE s.UId = ?MyUId",
        ),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_string(), s.to_string()))
    .collect()
}

/// Number of merchants for a fleet of `users`.
pub(crate) fn merchant_count(users: u64) -> u64 {
    (users / 32).max(2)
}

fn mid(j: u64) -> i64 {
    1 + j as i64
}

/// The merchant user `i` staffs, if any (about one user in ten).
pub(crate) fn staff_of(seed: u64, i: u64, m: u64) -> Option<u64> {
    let mut rng = substream(seed, &[TAG_STAFF, i]);
    if rng.gen_bool(0.1) {
        Some(rng.gen_range(0..m))
    } else {
        None
    }
}

/// Merchant `j`'s products as `(pid, price, active)` — pure in `(seed, j)`.
pub(crate) fn products(seed: u64, j: u64) -> Vec<(i64, i64, bool)> {
    let mut rng = substream(seed, &[TAG_PROD, j]);
    let np = 4 + rng.gen_range(0..8u64);
    (0..np)
        .map(|k| {
            let price = rng.gen_range(100i64..10_000);
            let active = rng.gen_bool(0.8);
            (mid(j) * 64 + k as i64, price, active)
        })
        .collect()
}

/// User `i`'s seeded orders as `(oid, pid, qty)`.
pub(crate) fn orders_of(seed: u64, i: u64, m: u64) -> Vec<(i64, i64, i64)> {
    let mut rng = substream(seed, &[TAG_ORDER, i]);
    let n = rng.gen_range(0..3u64);
    (0..n)
        .map(|k| {
            let j = rng.gen_range(0..m);
            let prods = products(seed, j);
            let (pid, _, _) = prods[rng.gen_range(0..prods.len())];
            let qty = 1 + rng.gen_range(0..5i64);
            (uid(i) * 8 + k as i64, pid, qty)
        })
        .collect()
}

pub(crate) fn populate(sink: &mut BatchSink, seed: u64, users: u64) -> Result<(), DbError> {
    let m = merchant_count(users);
    for i in 0..users {
        sink.push(
            "Users",
            vec![
                Value::Int(uid(i)),
                Value::Str(Text::format(format_args!("user{i}"))),
            ],
        )?;
    }
    for j in 0..m {
        sink.push(
            "Merchants",
            vec![
                Value::Int(mid(j)),
                Value::Str(Text::format(format_args!("shop{j}"))),
            ],
        )?;
    }
    for i in 0..users {
        if let Some(j) = staff_of(seed, i, m) {
            sink.push("Staff", vec![Value::Int(uid(i)), Value::Int(mid(j))])?;
        }
    }
    for j in 0..m {
        for (pid, price, active) in products(seed, j) {
            sink.push(
                "Products",
                vec![
                    Value::Int(pid),
                    Value::Int(mid(j)),
                    Value::Str(Text::format(format_args!("item {pid}"))),
                    Value::Int(price),
                    Value::Bool(active),
                ],
            )?;
        }
    }
    for i in 0..users {
        for (oid, pid, qty) in orders_of(seed, i, m) {
            sink.push(
                "Orders",
                vec![
                    Value::Int(oid),
                    Value::Int(uid(i)),
                    Value::Int(pid),
                    Value::Int(qty),
                ],
            )?;
        }
    }
    Ok(())
}

fn session(i: u64) -> Vec<(String, Value)> {
    vec![("MyUId".to_string(), Value::Int(uid(i)))]
}

/// A random active product of a random merchant, if one exists.
fn active_product(seed: u64, m: u64, rng: &mut SplitMix64) -> Option<i64> {
    for _ in 0..4 {
        let j = rng.gen_range(0..m);
        let active: Vec<i64> = products(seed, j)
            .into_iter()
            .filter(|&(_, _, a)| a)
            .map(|(pid, _, _)| pid)
            .collect();
        if !active.is_empty() {
            return Some(active[rng.gen_range(0..active.len())]);
        }
    }
    None
}

pub(crate) fn authorized(
    seed: u64,
    users: u64,
    i: u64,
    template: usize,
    rng: &mut SplitMix64,
    fresh: &mut i64,
) -> Request {
    let m = merchant_count(users);
    match template {
        0 => Request {
            handler: "storefront".into(),
            session: session(i),
            params: vec![("merchant_id".into(), Value::Int(mid(rng.gen_range(0..m))))],
        },
        1 => match active_product(seed, m, rng) {
            Some(pid) => Request {
                handler: "product".into(),
                session: session(i),
                params: vec![("product_id".into(), Value::Int(pid))],
            },
            None => Request {
                handler: "my_orders".into(),
                session: session(i),
                params: vec![],
            },
        },
        2 => Request {
            handler: "my_orders".into(),
            session: session(i),
            params: vec![],
        },
        3 => {
            // Staff check their store's order book; everyone else falls
            // back to their own orders.
            let handler = match staff_of(seed, i, m) {
                Some(_) => "store_orders",
                None => "my_orders",
            };
            Request {
                handler: handler.into(),
                session: session(i),
                params: vec![],
            }
        }
        _ => match active_product(seed, m, rng) {
            Some(pid) => {
                *fresh += 1;
                Request {
                    handler: "place_order".into(),
                    session: session(i),
                    params: vec![
                        ("order_id".into(), Value::Int(*fresh)),
                        ("product_id".into(), Value::Int(pid)),
                        ("qty".into(), Value::Int(1 + rng.gen_range(0..3i64))),
                    ],
                }
            }
            None => Request {
                handler: "my_orders".into(),
                session: session(i),
                params: vec![],
            },
        },
    }
}

pub(crate) fn probe(seed: u64, users: u64, i: u64, rng: &mut SplitMix64) -> Request {
    let m = merchant_count(users);
    match staff_of(seed, i, m) {
        // Non-staff probing the order book: 403.
        None => Request {
            handler: "store_orders".into(),
            session: session(i),
            params: vec![],
        },
        // Staff probe a hidden (inactive or nonexistent) product: 404.
        Some(_) => {
            let j = rng.gen_range(0..m);
            let hidden = products(seed, j)
                .into_iter()
                .find(|&(_, _, a)| !a)
                .map(|(pid, _, _)| pid)
                .unwrap_or(-1);
            Request {
                handler: "product".into(),
                session: session(i),
                params: vec![("product_id".into(), Value::Int(hidden))],
            }
        }
    }
}

pub(crate) fn raw_probe(users: u64, i: u64, rng: &mut SplitMix64) -> String {
    // Another customer's order history is in no view: always denied.
    let mut j = (i + 1) % users.max(1);
    for _ in 0..8 {
        let cand = rng.gen_range(0..users.max(1));
        if cand != i {
            j = cand;
            break;
        }
    }
    format!("SELECT OId, PId, Qty FROM Orders WHERE UId = {}", uid(j))
}

pub(crate) fn raw_write_probe(
    _seed: u64,
    users: u64,
    i: u64,
    rng: &mut SplitMix64,
    fresh: &mut i64,
) -> String {
    // Forge state for another customer: `MyOrders`/`MyStaff` pin UId to
    // the session, and `MyStoreOrders` needs a Products fact for the
    // order's PId — a fresh (nonexistent) product id keeps the insert
    // uncoverable even for staff sessions with storefront facts.
    let mut j = (i + 1) % users.max(1);
    for _ in 0..8 {
        let cand = rng.gen_range(0..users.max(1));
        if cand != i {
            j = cand;
            break;
        }
    }
    match rng.gen_range(0..3u64) {
        0 => {
            *fresh += 1;
            let oid = *fresh;
            *fresh += 1;
            format!(
                "INSERT INTO Orders (OId, UId, PId, Qty) VALUES ({}, {}, {}, 1)",
                oid,
                uid(j),
                *fresh
            )
        }
        1 => format!("UPDATE Orders SET Qty = 0 WHERE UId = {}", uid(j)),
        _ => format!("INSERT INTO Staff (UId, MId) VALUES ({}, 1)", uid(j)),
    }
}
