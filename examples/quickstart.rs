//! Quickstart: maintain a SQL view over a stream of single-tuple updates.
//!
//! This is the running example of the paper (Example 2): the total value of all orders,
//! weighted by each order's currency exchange rate, kept fresh as orders and line items
//! arrive and are removed.
//!
//! Run with: `cargo run --example quickstart`

use dbtoaster::prelude::*;

fn main() -> Result<(), DbToasterError> {
    // 1. Declare the schema: two update streams.
    let catalog: Catalog = [
        RelationMeta::stream("Orders", ["ordk", "custk", "xch"]),
        RelationMeta::stream("Lineitem", ["ordk", "ptk", "price"]),
    ]
    .into_iter()
    .collect();

    // 2. Compile the SQL view with full Higher-Order IVM.
    let mut engine = QueryEngineBuilder::new(catalog)
        .add_query(
            "total_sales",
            "SELECT SUM(li.price * o.xch) FROM Orders o, Lineitem li WHERE o.ordk = li.ordk",
        )
        .mode(CompileMode::HigherOrder)
        .build()?;

    println!("compiled trigger program:\n{}", engine.program());

    // 3. Feed single-tuple updates; the view is fresh after every one of them.
    let events = [
        UpdateEvent::insert(
            "Orders",
            vec![Value::long(1), Value::long(7), Value::double(2.0)],
        ),
        UpdateEvent::insert(
            "Lineitem",
            vec![Value::long(1), Value::long(100), Value::double(40.0)],
        ),
        UpdateEvent::insert(
            "Lineitem",
            vec![Value::long(1), Value::long(101), Value::double(10.0)],
        ),
        UpdateEvent::insert(
            "Orders",
            vec![Value::long(2), Value::long(8), Value::double(0.5)],
        ),
        UpdateEvent::insert(
            "Lineitem",
            vec![Value::long(2), Value::long(102), Value::double(200.0)],
        ),
        // A line item is cancelled: deletion is just a negative-multiplicity update.
        UpdateEvent::delete(
            "Lineitem",
            vec![Value::long(1), Value::long(101), Value::double(10.0)],
        ),
    ];
    for (i, event) in events.iter().enumerate() {
        engine.process(event)?;
        println!(
            "after event {:>2} ({:?} {:>8}) : total_sales = {}",
            i + 1,
            event.sign,
            event.relation,
            engine.result("total_sales")?.scalar()
        );
    }

    // 4. Inspect runtime statistics.
    let stats = engine.stats();
    println!(
        "\nprocessed {} events at {:.0} view refreshes/second, {} bytes of view state",
        stats.events,
        stats.refresh_rate(),
        engine.memory_bytes()
    );
    Ok(())
}
