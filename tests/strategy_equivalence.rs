//! Compile-mode equivalence over the bundled queries.
//!
//! For every bundled query (over its workload dataset at seed 7) the shared
//! driver (`common`) runs higher-order and first-order maintenance (some
//! queries also naive viewlets) and re-evaluation, and for a seeded slice of
//! generated programs fed event by event all four compile modes. It checks
//! every maintained map against per-event processing and against its
//! definition recomputed from the base relations. Any bug in the delta
//! transform, the materialization heuristics, statement ordering or the
//! runtime shows up as a divergence.

#[macro_use]
mod common;

use dbtoaster::agca::UpdateEvent;
use dbtoaster::compiler::CompileMode::{self, *};
use dbtoaster::gmr::Value;
use dbtoaster::workloads::Family;

/// `plan_equivalence` runs the same queries over the datasets at seed 11.
const SEED: u64 = 7;

/// Higher- and first-order against re-evaluation; `ALL` adds naive viewlets.
const STANDARD: [CompileMode; 3] = [HigherOrder, FirstOrder, Reevaluate];
const ALL: [CompileMode; 4] = [HigherOrder, FirstOrder, NaiveViewlet, Reevaluate];

workload_tests! {
    q1_equivalence: ["q1"], 800, ALL;
    q3_equivalence: ["q3"], 800, STANDARD;
    q4_equivalence: ["q4"], 500, STANDARD;
    q5_equivalence: ["q5"], 600, STANDARD;
    q6_equivalence: ["q6"], 800, ALL;
    q10_equivalence: ["q10"], 800, STANDARD;
    q11a_equivalence: ["q11a"], 800, ALL;
    q12_equivalence: ["q12"], 800, STANDARD;
    q17a_equivalence: ["q17a"], 500, STANDARD;
    q18a_equivalence: ["q18a"], 500, STANDARD;
    q22a_equivalence: ["q22a"], 500, STANDARD;
    ssb4_equivalence: ["ssb4"], 600, STANDARD;
    vwap_equivalence: ["vwap"], 150, STANDARD;
    axf_equivalence: ["axf"], 500, STANDARD;
    bsp_equivalence: ["bsp"], 500, STANDARD;
    /// The program the `book_join` benchmark serves: three queries sharing
    /// `Bids` in one engine.
    book_join_program_equivalence: ["axf", "bsp", "bsv"], 500, ALL;
    bsv_equivalence: ["bsv"], 500, ALL;
    mst_equivalence: ["mst"], 60, STANDARD;
    psp_equivalence: ["psp"], 250, STANDARD;
    mddb1_equivalence: ["mddb1"], 200, STANDARD;
}

mod random_streams {
    /// The seeded slice of generated programs, event by event.
    #[test]
    fn random_streams_agree_with_reference_semantics_in_all_modes() {
        super::common::run_slice(super::common::Lean::PerEvent);
    }
}

/// An insert followed by the matching delete leaves every map of `axf` where
/// it was: GMRs make a deletion a negative-multiplicity insertion, so this
/// checks the whole pipeline's sign handling. (The prices are floats, so a
/// sum the bid passed through may differ in its last bits.)
#[test]
fn deletions_restore_previous_results() {
    let program = common::workload_program(&["axf"], CompileMode::HigherOrder);
    let data = common::workload_data(Family::Finance, 300, SEED);
    let mut engine = common::per_event(&program, &common::workload_catalog(), &data.events);
    let before = engine.snapshot();
    let bid = [99_999, 424_242, 1].map(Value::long).to_vec();
    let bid = [bid, [9_000.0, 10.0].map(Value::double).to_vec()].concat();
    let events = [
        UpdateEvent::insert("Bids", bid.clone()),
        UpdateEvent::delete("Bids", bid),
    ];
    engine.process_all(&events).unwrap();
    let (want, got) = (common::reader(&before), |n: &str| engine.view(n));
    common::assert_views("after", &program, &want, &got, &|_| common::FLOAT_EPS);
}
