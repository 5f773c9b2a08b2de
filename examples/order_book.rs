//! Algorithmic-trading order-book monitoring (the paper's motivating application).
//!
//! Maintains three of the financial views from the evaluation — AXF, BSV and PSP — over
//! a synthetic order-book stream, printing a monitoring snapshot every 10 000 events.
//! Order books hold long-lived state (an order may rest in the book indefinitely), which
//! is exactly why window-based stream engines cannot express these views and why the
//! paper argues for incremental maintenance of full SQL semantics.
//!
//! Run with: `cargo run --release --example order_book`

use dbtoaster::prelude::*;
use dbtoaster::workloads::{self, FinanceConfig};
use std::time::Instant;

fn main() -> Result<(), DbToasterError> {
    let catalog = workloads::finance_catalog();
    let axf = workloads::query("axf").unwrap();
    let bsv = workloads::query("bsv").unwrap();
    let psp = workloads::query("psp").unwrap();

    let mut engine = QueryEngineBuilder::new(catalog)
        .add_query(axf.name, axf.sql)
        .add_query(bsv.name, bsv.sql)
        .add_query(psp.name, psp.sql)
        .mode(CompileMode::HigherOrder)
        .build()?;

    let stream = workloads::finance::generate(&FinanceConfig {
        events: 50_000,
        seed: 2024,
        brokers: 10,
        delete_probability: 0.25,
    });
    println!("order-book stream: {} events over 10 brokers", stream.len());

    // The engine keeps no time: the example times its own loop, reads included.
    let start = Instant::now();
    for (i, event) in stream.events.iter().enumerate() {
        engine.process(event)?;
        if (i + 1) % 10_000 == 0 {
            let psp_value = engine.result("psp")?.scalar();
            let axf_rows = engine.result("axf")?;
            let top_broker = axf_rows
                .rows
                .iter()
                .max_by(|a, b| a.values[0].abs().partial_cmp(&b.values[0].abs()).unwrap());
            println!(
                "event {:>6}: price spread = {:>14.2}, brokers tracked by AXF = {:>2}, largest AXF imbalance = {:?}",
                i + 1,
                psp_value,
                axf_rows.len(),
                top_broker.map(|r| (r.key.clone(), r.values[0]))
            );
        }
    }

    let (events, secs) = (engine.stats().events, start.elapsed().as_secs_f64());
    println!(
        "\n{events} events processed in {secs:.2} s ({:.0} refreshes/s across 3 simultaneously fresh views)",
        events as f64 / secs
    );
    Ok(())
}
