//! A seeded TPC-H-like data and stream generator.
//!
//! The paper's TPC-H experiments replay a stream synthesized from a DBGEN database:
//! insertions of all relations are randomly interleaved (preserving foreign keys) and
//! random deletions of `Orders` / `Lineitem` rows keep those two relations at a bounded
//! working-set size (about 30 000 orders and 120 000 line items at scale factor 0.1).
//! This module reproduces that construction with a from-scratch generator whose row
//! counts scale linearly with the scale factor.

use crate::dataset::Dataset;
use dbtoaster_agca::UpdateEvent;
use dbtoaster_gmr::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generation parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct TpchConfig {
    /// Scale factor; 1.0 corresponds to the row counts below.
    pub scale: f64,
    /// RNG seed (the generator is fully deterministic given the seed).
    pub seed: u64,
    /// Orders working-set target (rows kept live before deletions start).
    pub orders_working_set: usize,
    /// Lineitem working-set target.
    pub lineitem_working_set: usize,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale: 0.01,
            seed: 42,
            orders_working_set: 3_000,
            lineitem_working_set: 12_000,
        }
    }
}

impl TpchConfig {
    /// A configuration with the given scale factor and proportional working sets
    /// (the paper keeps the working set constant across scale factors; use
    /// [`TpchConfig::with_fixed_working_set`] for that behaviour).
    pub fn scaled(scale: f64, seed: u64) -> Self {
        TpchConfig {
            scale,
            seed,
            orders_working_set: ((30_000.0 * scale / 0.1) as usize).max(200),
            lineitem_working_set: ((120_000.0 * scale / 0.1) as usize).max(800),
        }
    }

    /// Fixed working set independent of scale (Figure 11's scaling experiment).
    pub fn with_fixed_working_set(scale: f64, seed: u64, orders: usize, lineitems: usize) -> Self {
        TpchConfig {
            scale,
            seed,
            orders_working_set: orders,
            lineitem_working_set: lineitems,
        }
    }

    fn customers(&self) -> usize {
        ((1_500.0 * self.scale / 0.01) as usize).max(50)
    }
    fn orders(&self) -> usize {
        ((15_000.0 * self.scale / 0.01) as usize).max(200)
    }
    fn parts(&self) -> usize {
        ((2_000.0 * self.scale / 0.01) as usize).max(50)
    }
    fn suppliers(&self) -> usize {
        ((100.0 * self.scale / 0.01) as usize).max(10)
    }
}

const SEGMENTS: &[&str] = &[
    "BUILDING",
    "AUTOMOBILE",
    "MACHINERY",
    "HOUSEHOLD",
    "FURNITURE",
];
const PRIORITIES: &[&str] = &["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const RETURN_FLAGS: &[&str] = &["A", "N", "R"];
const BRANDS: &[&str] = &["Brand#12", "Brand#23", "Brand#34", "Brand#45", "Brand#55"];
const TYPES: &[&str] = &[
    "ECONOMY ANODIZED STEEL",
    "SMALL BRASS",
    "MEDIUM POLISHED COPPER",
    "PROMO BURNISHED NICKEL",
    "STANDARD PLATED TIN",
];
const CONTAINERS: &[&str] = &["SM CASE", "MED BOX", "LG PACK", "JUMBO JAR"];
const REGIONS: &[&str] = &["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: &[(&str, i64)] = &[
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

fn random_date(rng: &mut StdRng) -> i64 {
    let year: i64 = rng.random_range(1992..=1998);
    let month: i64 = rng.random_range(1..=12);
    let day: i64 = rng.random_range(1..=28);
    year * 10_000 + month * 100 + day
}

/// The first `events` events of the TPC-H stream the benchmark's
/// `tpch_durable` workload feeds at `seed` (float prices and discounts): the
/// generator at the scale the benchmark picks, five events per order, with
/// its fixed working set of 30,000 orders and 120,000 line items, grown
/// until it yields enough.
pub fn ledger_events(events: usize, seed: u64) -> Vec<UpdateEvent> {
    let mut raw = events;
    loop {
        let scale = (raw as f64 / 5.0 / 1_500_000.0).max(0.0002);
        let config = TpchConfig::with_fixed_working_set(scale, seed, 30_000, 120_000);
        let mut data = generate(&config);
        if data.len() >= events {
            data.truncate(events);
            return data.events;
        }
        raw += raw / 2;
    }
}

/// Generate the TPC-H-like workload: the static `Nation`/`Region` tables plus the
/// FK-preserving update stream over the six stream relations.
pub fn generate(config: &TpchConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut dataset = Dataset::default();

    // ----------------------------------------------------------- static tables
    dataset.tables.insert(
        "Region".into(),
        REGIONS
            .iter()
            .enumerate()
            .map(|(i, name)| vec![Value::long(i as i64), Value::str(*name)])
            .collect(),
    );
    dataset.tables.insert(
        "Nation".into(),
        NATIONS
            .iter()
            .enumerate()
            .map(|(i, (name, region))| {
                vec![
                    Value::long(i as i64),
                    Value::long(*region),
                    Value::str(*name),
                ]
            })
            .collect(),
    );

    // ----------------------------------------------------------- dimension rows
    let n_customers = config.customers();
    let n_parts = config.parts();
    let n_suppliers = config.suppliers();
    let n_orders = config.orders();

    let customers: Vec<Vec<Value>> = (1..=n_customers as i64)
        .map(|ck| {
            vec![
                Value::long(ck),
                Value::long(rng.random_range(0..NATIONS.len() as i64)),
                Value::str(SEGMENTS[rng.random_range(0..SEGMENTS.len())]),
                Value::double((rng.random_range(-99_999..999_999) as f64) / 100.0),
            ]
        })
        .collect();
    let parts: Vec<Vec<Value>> = (1..=n_parts as i64)
        .map(|pk| {
            vec![
                Value::long(pk),
                Value::str(BRANDS[rng.random_range(0..BRANDS.len())]),
                Value::str(TYPES[rng.random_range(0..TYPES.len())]),
                Value::long(rng.random_range(1..=50)),
                Value::str(CONTAINERS[rng.random_range(0..CONTAINERS.len())]),
                Value::double(rng.random_range(900..2_000) as f64 / 1.0),
            ]
        })
        .collect();
    let suppliers: Vec<Vec<Value>> = (1..=n_suppliers as i64)
        .map(|sk| {
            vec![
                Value::long(sk),
                Value::long(rng.random_range(0..NATIONS.len() as i64)),
                Value::double(rng.random_range(-99_999..999_999) as f64 / 100.0),
            ]
        })
        .collect();
    let mut partsupps: Vec<Vec<Value>> = Vec::with_capacity(n_parts * 4);
    for pk in 1..=n_parts as i64 {
        for _ in 0..4 {
            partsupps.push(vec![
                Value::long(pk),
                Value::long(rng.random_range(1..=n_suppliers as i64)),
                Value::long(rng.random_range(1..10_000)),
                Value::double(rng.random_range(100..100_000) as f64 / 100.0),
            ]);
        }
    }

    // ----------------------------------------------------------- stream synthesis
    // Customers, parts, suppliers and partsupp rows are interleaved with the order
    // stream; foreign keys are preserved by inserting a referenced row immediately
    // before its first use. Orders and their line items are deleted once the working
    // set exceeds its target, oldest first.
    let mut events = Vec::new();
    let mut customer_inserted = vec![false; n_customers + 1];
    let mut part_inserted = vec![false; n_parts + 1];
    let mut supplier_inserted = vec![false; n_suppliers + 1];
    let mut partsupp_queue = partsupps.into_iter();
    // Each live order keeps its full tuple and its line items so deletions can replay
    // the exact inserted tuples.
    let mut live_orders: std::collections::VecDeque<(Vec<Value>, Vec<Vec<Value>>)> =
        Default::default();
    let mut live_lineitems = 0usize;

    for ok in 1..=n_orders as i64 {
        // Interleave a few dimension inserts to mimic the randomly mixed agenda.
        for _ in 0..rng.random_range(0..2) {
            if let Some(ps) = partsupp_queue.next() {
                let pk = ps[0].as_i64().unwrap() as usize;
                let sk = ps[1].as_i64().unwrap() as usize;
                if !part_inserted[pk] {
                    part_inserted[pk] = true;
                    events.push(UpdateEvent::insert("Part", parts[pk - 1].clone()));
                }
                if !supplier_inserted[sk] {
                    supplier_inserted[sk] = true;
                    events.push(UpdateEvent::insert("Supplier", suppliers[sk - 1].clone()));
                }
                events.push(UpdateEvent::insert("Partsupp", ps));
            }
        }

        let ck = rng.random_range(1..=n_customers as i64);
        if !customer_inserted[ck as usize] {
            customer_inserted[ck as usize] = true;
            events.push(UpdateEvent::insert(
                "Customer",
                customers[ck as usize - 1].clone(),
            ));
        }
        let order = vec![
            Value::long(ok),
            Value::long(ck),
            Value::long(random_date(&mut rng)),
            Value::str(PRIORITIES[rng.random_range(0..PRIORITIES.len())]),
            Value::double(rng.random_range(1_000..500_000) as f64 / 1.0),
        ];
        events.push(UpdateEvent::insert("Orders", order.clone()));

        let n_items = rng.random_range(1..=7);
        let mut items = Vec::with_capacity(n_items);
        for _ in 0..n_items {
            let pk = rng.random_range(1..=n_parts as i64);
            let sk = rng.random_range(1..=n_suppliers as i64);
            if !part_inserted[pk as usize] {
                part_inserted[pk as usize] = true;
                events.push(UpdateEvent::insert("Part", parts[pk as usize - 1].clone()));
            }
            if !supplier_inserted[sk as usize] {
                supplier_inserted[sk as usize] = true;
                events.push(UpdateEvent::insert(
                    "Supplier",
                    suppliers[sk as usize - 1].clone(),
                ));
            }
            let item = vec![
                Value::long(ok),
                Value::long(pk),
                Value::long(sk),
                Value::long(rng.random_range(1..=50)),
                Value::double(rng.random_range(1_000..100_000) as f64 / 100.0),
                Value::double(rng.random_range(0..11) as f64 / 100.0),
                Value::long(random_date(&mut rng)),
                Value::str(RETURN_FLAGS[rng.random_range(0..RETURN_FLAGS.len())]),
            ];
            events.push(UpdateEvent::insert("Lineitem", item.clone()));
            items.push(item);
        }
        live_lineitems += items.len();
        live_orders.push_back((order, items));

        // Working-set maintenance: delete the oldest orders (and their line items).
        while live_orders.len() > config.orders_working_set
            || live_lineitems > config.lineitem_working_set
        {
            match live_orders.pop_front() {
                Some((old_order, old_items)) => {
                    live_lineitems -= old_items.len();
                    for item in old_items {
                        events.push(UpdateEvent::delete("Lineitem", item));
                    }
                    events.push(UpdateEvent::delete("Orders", old_order));
                }
                None => break,
            }
        }
    }

    dataset.events = events;
    dataset
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_agca::UpdateSign;
    use std::collections::HashSet;

    #[test]
    fn generator_is_deterministic() {
        let cfg = TpchConfig {
            scale: 0.001,
            seed: 7,
            ..Default::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.events.first(), b.events.first());
        assert_eq!(a.events.last(), b.events.last());
    }

    #[test]
    fn foreign_keys_are_preserved() {
        let cfg = TpchConfig {
            scale: 0.002,
            seed: 1,
            ..Default::default()
        };
        let d = generate(&cfg);
        let mut customers = HashSet::new();
        let mut orders = HashSet::new();
        let mut parts = HashSet::new();
        let mut suppliers = HashSet::new();
        for e in &d.events {
            if e.sign != UpdateSign::Insert {
                continue;
            }
            match e.relation.as_str() {
                "Customer" => {
                    customers.insert(e.tuple[0].as_i64().unwrap());
                }
                "Part" => {
                    parts.insert(e.tuple[0].as_i64().unwrap());
                }
                "Supplier" => {
                    suppliers.insert(e.tuple[0].as_i64().unwrap());
                }
                "Orders" => {
                    assert!(
                        customers.contains(&e.tuple[1].as_i64().unwrap()),
                        "order before customer"
                    );
                    orders.insert(e.tuple[0].as_i64().unwrap());
                }
                "Lineitem" => {
                    assert!(
                        orders.contains(&e.tuple[0].as_i64().unwrap()),
                        "lineitem before order"
                    );
                    assert!(
                        parts.contains(&e.tuple[1].as_i64().unwrap()),
                        "lineitem before part"
                    );
                    assert!(
                        suppliers.contains(&e.tuple[2].as_i64().unwrap()),
                        "lineitem before supplier"
                    );
                }
                "Partsupp" => {
                    assert!(parts.contains(&e.tuple[0].as_i64().unwrap()));
                    assert!(suppliers.contains(&e.tuple[1].as_i64().unwrap()));
                }
                other => panic!("unexpected stream relation {other}"),
            }
        }
    }

    #[test]
    fn deletions_keep_working_set_bounded() {
        let cfg = TpchConfig {
            scale: 0.01,
            seed: 3,
            orders_working_set: 100,
            lineitem_working_set: 400,
        };
        let d = generate(&cfg);
        let mut live_orders: i64 = 0;
        let mut max_live = 0;
        for e in &d.events {
            if e.relation == "Orders" {
                match e.sign {
                    UpdateSign::Insert => live_orders += 1,
                    UpdateSign::Delete => live_orders -= 1,
                }
                max_live = max_live.max(live_orders);
            }
        }
        assert!(
            max_live <= 102,
            "working set should stay near the target, got {max_live}"
        );
        // Deletions actually occur.
        assert!(d.events.iter().any(|e| e.sign == UpdateSign::Delete));
    }

    #[test]
    fn static_tables_present() {
        let d = generate(&TpchConfig {
            scale: 0.001,
            seed: 5,
            ..Default::default()
        });
        assert_eq!(d.tables["Region"].len(), 5);
        assert_eq!(d.tables["Nation"].len(), 25);
        assert!(!d.is_empty());
    }

    #[test]
    fn order_deletions_carry_the_original_tuple() {
        let cfg = TpchConfig {
            scale: 0.005,
            seed: 11,
            orders_working_set: 20,
            lineitem_working_set: 100,
        };
        let d = generate(&cfg);
        let deleted: Vec<&UpdateEvent> = d
            .events
            .iter()
            .filter(|e| e.relation == "Orders" && e.sign == UpdateSign::Delete)
            .collect();
        assert!(!deleted.is_empty());
        for del in deleted.iter().take(5) {
            assert_eq!(del.tuple.len(), 5, "order delete must carry the full tuple");
        }
    }
}
