//! Property-based tests of the GMR ring.
//!
//! The correctness of the delta transform rests on GMRs with generalized union and
//! natural join forming a (commutative, distributive) ring structure; these properties
//! are checked here on randomly generated integer-multiplicity GMRs so the assertions
//! are exact.

use dbtoaster_gmr::{Gmr, Schema, Value};
use proptest::prelude::*;

/// A random GMR over the given columns with small integer keys and multiplicities.
fn arb_gmr(columns: &'static [&'static str]) -> impl Strategy<Value = Gmr> {
    let arity = columns.len();
    prop::collection::vec((prop::collection::vec(0i64..6, arity), -4i64..5), 0..12).prop_map(
        move |rows| {
            let mut g = Gmr::new(Schema::new(columns.iter().copied()));
            for (key, mult) in rows {
                g.add_tuple(
                    key.into_iter()
                        .map(Value::long)
                        .collect::<dbtoaster_gmr::Tuple>(),
                    mult as f64,
                );
            }
            g
        },
    )
}

fn assert_equiv(a: &Gmr, b: &Gmr) {
    assert!(a.equivalent(b, 1e-9), "GMRs differ:\n{a}\nvs\n{b}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn union_is_commutative(a in arb_gmr(&["x", "y"]), b in arb_gmr(&["x", "y"])) {
        let mut ab = a.clone();
        ab.add_gmr(&b);
        let mut ba = b.clone();
        ba.add_gmr(&a);
        assert_equiv(&ab, &ba);
    }

    #[test]
    fn union_is_associative(
        a in arb_gmr(&["x", "y"]),
        b in arb_gmr(&["x", "y"]),
        c in arb_gmr(&["x", "y"]),
    ) {
        let mut left = a.clone();
        left.add_gmr(&b);
        left.add_gmr(&c);
        let mut bc = b.clone();
        bc.add_gmr(&c);
        let mut right = a.clone();
        right.add_gmr(&bc);
        assert_equiv(&left, &right);
    }

    #[test]
    fn negation_is_additive_inverse(a in arb_gmr(&["x", "y"])) {
        let mut z = a.clone();
        z.add_gmr(&a.negate());
        prop_assert!(z.is_empty());
    }

    #[test]
    fn join_is_commutative_up_to_column_order(
        a in arb_gmr(&["x", "y"]),
        b in arb_gmr(&["y", "z"]),
    ) {
        let ab = a.join(&b);
        let ba = b.join(&a);
        assert_equiv(&ab, &ba);
    }

    #[test]
    fn join_is_associative(
        a in arb_gmr(&["x", "y"]),
        b in arb_gmr(&["y", "z"]),
        c in arb_gmr(&["z", "w"]),
    ) {
        assert_equiv(&a.join(&b).join(&c), &a.join(&b.join(&c)));
    }

    #[test]
    fn join_distributes_over_union(
        a in arb_gmr(&["x", "y"]),
        b in arb_gmr(&["y", "z"]),
        c in arb_gmr(&["y", "z"]),
    ) {
        // a * (b + c) = a*b + a*c
        let mut bc = b.clone();
        bc.add_gmr(&c);
        let left = a.join(&bc);
        let mut right = a.join(&b);
        right.add_gmr(&a.join(&c));
        assert_equiv(&left, &right);
    }

    #[test]
    fn scalar_one_is_multiplicative_identity(a in arb_gmr(&["x", "y"])) {
        assert_equiv(&a.join(&Gmr::scalar(1.0)), &a);
        assert_equiv(&Gmr::scalar(1.0).join(&a), &a);
    }

    #[test]
    fn empty_gmr_is_multiplicative_zero(a in arb_gmr(&["x", "y"])) {
        let zero = Gmr::new(Schema::new(["y", "z"]));
        prop_assert!(a.join(&zero).is_empty());
    }

    #[test]
    fn agg_sum_is_linear(a in arb_gmr(&["x", "y"]), b in arb_gmr(&["x", "y"])) {
        // Sum_x(a + b) = Sum_x(a) + Sum_x(b)
        let cols = vec!["x".to_string()];
        let mut ab = a.clone();
        ab.add_gmr(&b);
        let left = ab.agg_sum(&cols);
        let mut right = a.agg_sum(&cols);
        right.add_gmr(&b.agg_sum(&cols));
        assert_equiv(&left, &right);
    }

    #[test]
    fn agg_sum_preserves_total_multiplicity(a in arb_gmr(&["x", "y"])) {
        let total: f64 = a.iter().map(|(_, m)| m).sum();
        let grouped = a.agg_sum(&["x".to_string()]);
        let grouped_total: f64 = grouped.iter().map(|(_, m)| m).sum();
        prop_assert!((total - grouped_total).abs() < 1e-9);
    }

    #[test]
    fn reorder_round_trips(a in arb_gmr(&["x", "y"])) {
        let r = a.reorder(&Schema::new(["y", "x"]));
        assert_equiv(&a, &r);
        let rr = r.reorder(&Schema::new(["x", "y"]));
        prop_assert_eq!(a.len(), rr.len());
    }
}
