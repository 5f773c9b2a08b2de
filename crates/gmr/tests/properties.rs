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

/// The numbers on which an `f64` image of a `Long` and the `Long` itself part
/// ways: 0.5, both zeros, NaN, the integers around 2^53 as `Long`s and as the
/// `Double`s that hold them (2^53 + 1 has none), and ±2^63, one past and at
/// the ends of `i64`.
fn hostile_numbers() -> Vec<Value> {
    let big = 1i64 << 53;
    let mut values = vec![
        Value::double(0.5),
        Value::double(0.0),
        Value::double(-0.0),
        Value::double(f64::NAN),
        Value::long(0),
        Value::double(9_223_372_036_854_775_808.0),
        Value::double(-9_223_372_036_854_775_808.0),
        Value::long(i64::MIN),
        Value::long(i64::MAX),
    ];
    for v in [-2, -1, 0, 1, 2] {
        values.push(Value::long(big + v));
        values.push(Value::double((big + v) as f64));
        values.push(Value::long(-big - v));
        values.push(Value::double((-big - v) as f64));
    }
    values
}

fn hash_of(v: &Value) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// `==` is an equivalence and `cmp` a total order that agrees with it, and
/// equal values hash alike, over every triple of the hostile numbers. Before
/// a `Long` and a `Double` compared exactly, `Long(2^53 + 1) == Double(2^53)
/// == Long(2^53)` while `Long(2^53 + 1) != Long(2^53)`.
#[test]
fn numeric_equality_and_order_are_exact_and_transitive() {
    use std::cmp::Ordering::{Equal, Greater, Less};
    let values = hostile_numbers();
    for a in &values {
        assert_eq!(a, a, "{a:?} equals itself");
        for b in &values {
            let ab = a.cmp(b);
            assert_eq!(
                ab == Equal,
                a == b,
                "cmp {ab:?} but == {} for {a:?}, {b:?}",
                a == b
            );
            assert_eq!(ab, b.cmp(a).reverse(), "{a:?}, {b:?}");
            if a == b {
                assert_eq!(hash_of(a), hash_of(b), "{a:?} == {b:?} hash apart");
            }
            for c in &values {
                let (bc, ac) = (b.cmp(c), a.cmp(c));
                if ab == bc {
                    assert_eq!(ac, ab, "{a:?} {ab:?} {b:?} {bc:?} {c:?} but {ac:?}");
                }
                if ab != Greater && bc != Greater {
                    assert!(ac != Greater, "{a:?} <= {b:?} <= {c:?} but {a:?} > {c:?}");
                }
                if ab != Less && bc != Less {
                    assert!(ac != Less, "{a:?} >= {b:?} >= {c:?} but {a:?} < {c:?}");
                }
            }
        }
    }
}
