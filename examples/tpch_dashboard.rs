//! A "live business dashboard" over a TPC-H-like order stream.
//!
//! Maintains several decision-support views simultaneously (pricing summary Q1, shipping
//! revenue Q3, revenue per customer Q10 and the large-order customers of Q18a) while
//! orders and line items are inserted and deleted, mimicking the ETL/monitoring scenario
//! of the paper's evaluation. Every view is fresh after every single update — no batch
//! window, no refresh interval.
//!
//! Run with: `cargo run --release --example tpch_dashboard`

use dbtoaster::prelude::*;
use dbtoaster::workloads::{self, TpchConfig};
use std::time::Instant;

fn main() -> Result<(), DbToasterError> {
    let catalog = workloads::tpch_catalog();
    let queries = ["q1", "q3", "q10", "q18a"];

    let mut builder = QueryEngineBuilder::new(catalog).mode(CompileMode::HigherOrder);
    for name in queries {
        let q = workloads::query(name).unwrap();
        builder = builder.add_query(q.name, q.sql);
    }
    let mut engine = builder.build()?;
    println!(
        "compiled {} queries into {} maps and {} trigger statements",
        queries.len(),
        engine.program().maps.len(),
        engine.program().statement_count()
    );

    // Generate the order stream (deterministic) and load the static tables.
    let data = workloads::tpch::generate(&TpchConfig {
        scale: 0.01,
        seed: 7,
        orders_working_set: 2_000,
        lineitem_working_set: 8_000,
    });
    for (table, rows) in &data.tables {
        engine.load_table(table, rows.clone())?;
    }
    engine.init()?;
    println!("replaying {} updates...", data.len());

    let checkpoint = (data.len() / 5).max(1);
    // The engine keeps no time: the example times its own loop, reads included.
    let start = Instant::now();
    for (i, event) in data.events.iter().enumerate() {
        engine.process(event)?;
        if (i + 1) % checkpoint == 0 {
            let q1 = engine.result("q1")?;
            let q10 = engine.result("q10")?;
            let q18a = engine.result("q18a")?;
            println!(
                "{:>3.0}% | pricing-summary groups: {:>2} | customers with revenue: {:>5} | large-order customers: {:>4} | {:>7.0} refreshes/s",
                100.0 * (i + 1) as f64 / data.len() as f64,
                q1.len(),
                q10.rows.iter().filter(|r| r.values[0] != 0.0).count(),
                q18a.rows.iter().filter(|r| r.values[0] != 0.0).count(),
                (i + 1) as f64 / start.elapsed().as_secs_f64(),
            );
        }
    }

    println!("\nfinal pricing summary (Q1):");
    let q1 = engine.result("q1")?;
    println!("  columns: {:?}", q1.columns);
    for row in &q1.rows {
        println!("  {:?} -> {:?}", row.key, row.values);
    }
    println!(
        "\nview state: {:.1} MB across {} maps",
        engine.memory_bytes() as f64 / (1024.0 * 1024.0),
        engine.program().maps.len()
    );
    Ok(())
}
