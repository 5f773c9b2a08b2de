//! Dynamically typed scalar values.
//!
//! Columns of GMRs hold [`Value`]s. The type system is deliberately small — the paper's
//! calculus only needs numbers (which double as multiplicities and aggregate results)
//! and strings (for categorical TPC-H columns such as `mktsegment`). Dates are encoded
//! as integers of the form `yyyymmdd` by the SQL frontend, so no dedicated date type is
//! required.
//!
//! ## Coercion rules
//!
//! `Long` and `Double` are mutually comparable and hash identically for values that are
//! exactly representable as `f64` (all keys generated by the workloads are far below
//! 2^53). This allows, e.g., the literal `100` to be compared against an aggregate whose
//! value is a double, and an integer key column to join against a value produced by
//! arithmetic, without a separate static type-checking pass.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A scalar value stored in a GMR column or bound to an AGCA variable.
///
/// 16 bytes: a tag and one word. Every key slot, index entry, snapshot
/// buffer, kernel frame slot and queued event holds `Value`s inline, so the
/// variant payloads are kept to one word each (see [`Value::Str`]).
#[derive(Clone, Debug)]
pub enum Value {
    /// 64-bit signed integer (also used for booleans and `yyyymmdd` dates).
    Long(i64),
    /// 64-bit IEEE float.
    Double(f64),
    /// Shared string, cheap to clone (a reference-count bump). Not interned:
    /// [`Value::str`] allocates a new body on every call. The handle is one
    /// word (`Arc<Box<str>>`) rather than `Arc<str>`'s two-word fat pointer,
    /// which would make every `Value` 24 bytes. Equality, order and hashing
    /// run over the string's bytes, as they would through `Arc<str>`.
    Str(Arc<Box<str>>),
}

impl Value {
    /// Construct an integer value.
    #[inline]
    pub fn long(v: i64) -> Self {
        Value::Long(v)
    }

    /// Construct a double value.
    #[inline]
    pub fn double(v: f64) -> Self {
        Value::Double(v)
    }

    /// Construct a string value.
    #[inline]
    pub fn str(v: impl AsRef<str>) -> Self {
        Value::Str(Arc::new(Box::from(v.as_ref())))
    }

    /// Construct a boolean, encoded as `Long(0)` / `Long(1)`.
    #[inline]
    pub fn bool(v: bool) -> Self {
        Value::Long(v as i64)
    }

    /// Encode a date as `yyyymmdd`.
    #[inline]
    pub fn date(year: i64, month: i64, day: i64) -> Self {
        Value::Long(year * 10_000 + month * 100 + day)
    }

    /// Is this a numeric value (`Long` or `Double`)?
    #[inline]
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Long(_) | Value::Double(_))
    }

    /// Numeric view of the value; strings raise an error.
    #[inline]
    pub fn as_f64(&self) -> Result<f64, ValueError> {
        match self {
            Value::Long(v) => Ok(*v as f64),
            Value::Double(v) => Ok(*v),
            Value::Str(s) => Err(ValueError::NotNumeric(s.to_string())),
        }
    }

    /// Integer view of the value (doubles are truncated); strings raise an error.
    #[inline]
    pub fn as_i64(&self) -> Result<i64, ValueError> {
        match self {
            Value::Long(v) => Ok(*v),
            Value::Double(v) => Ok(*v as i64),
            Value::Str(s) => Err(ValueError::NotNumeric(s.to_string())),
        }
    }

    /// String view of the value.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Is `other` this very value: the same variant with the same bits, or
    /// the same string body? Not [`PartialEq`], which equates values a
    /// kernel must still tell apart (`Long(2^53 + 1)` and `Double(2^53)`,
    /// `-0.0` and `+0.0`): a slot that already holds `other` in this sense
    /// needs no write, one that only compares equal does.
    #[inline]
    pub fn is_same(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Long(a), Value::Long(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Truthiness as used by comparison results: non-zero numerics are true.
    #[inline]
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Long(v) => *v != 0,
            Value::Double(v) => *v != 0.0,
            Value::Str(s) => !s.is_empty(),
        }
    }

    /// Normalized bit pattern for hashing doubles (and longs coerced to
    /// doubles): `-0.0` collapses to `+0.0` and all NaNs to one canonical
    /// NaN, so [`PartialEq`]/[`Hash`] agree. Public so numeric fast paths
    /// (e.g. compiled trigger kernels) can reproduce `Value` equality on raw
    /// `f64`s without duplicating the normalization.
    #[inline]
    pub fn numeric_bits(v: f64) -> u64 {
        // Normalize -0.0 to +0.0 and all NaNs to a canonical NaN so Eq and Hash agree.
        if v == 0.0 {
            0f64.to_bits()
        } else if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// The total order that agrees with [`Value::numeric_bits`] equality:
    /// IEEE order, in which `-0.0` and `+0.0` are equal, with every NaN equal
    /// to every other and above all numbers. Public for the same reason as
    /// `numeric_bits`.
    #[inline]
    pub fn numeric_cmp(a: f64, b: f64) -> Ordering {
        a.partial_cmp(&b)
            .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
    }

    /// Total ordering across values: numerics first (by numeric value, see
    /// [`Value::numeric_cmp`]), then strings.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Long(a), Long(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Str(_), _) => Ordering::Greater,
            (_, Str(_)) => Ordering::Less,
            (a, b) => Value::numeric_cmp(a.as_f64().unwrap(), b.as_f64().unwrap()),
        }
    }

    /// Arithmetic addition with numeric promotion.
    pub fn add(&self, other: &Value) -> Result<Value, ValueError> {
        numeric_binop(self, other, |a, b| a + b, |a, b| a.checked_add(b))
    }

    /// Arithmetic subtraction with numeric promotion.
    pub fn sub(&self, other: &Value) -> Result<Value, ValueError> {
        numeric_binop(self, other, |a, b| a - b, |a, b| a.checked_sub(b))
    }

    /// Arithmetic multiplication with numeric promotion.
    pub fn mul(&self, other: &Value) -> Result<Value, ValueError> {
        numeric_binop(self, other, |a, b| a * b, |a, b| a.checked_mul(b))
    }

    /// Arithmetic division; always produces a double. Division by zero yields 0.0,
    /// matching DBToaster's runtime behaviour for `LISTMAX(1, x)`-guarded expressions.
    pub fn div(&self, other: &Value) -> Result<Value, ValueError> {
        let a = self.as_f64()?;
        let b = other.as_f64()?;
        if b == 0.0 {
            Ok(Value::Double(0.0))
        } else {
            Ok(Value::Double(a / b))
        }
    }

    /// Unary negation.
    pub fn neg(&self) -> Result<Value, ValueError> {
        match self {
            Value::Long(v) => Ok(Value::Long(-v)),
            Value::Double(v) => Ok(Value::Double(-v)),
            Value::Str(s) => Err(ValueError::NotNumeric(s.to_string())),
        }
    }
}

fn numeric_binop(
    a: &Value,
    b: &Value,
    f_double: impl Fn(f64, f64) -> f64,
    f_long: impl Fn(i64, i64) -> Option<i64>,
) -> Result<Value, ValueError> {
    match (a, b) {
        (Value::Long(x), Value::Long(y)) => match f_long(*x, *y) {
            Some(v) => Ok(Value::Long(v)),
            None => Ok(Value::Double(f_double(*x as f64, *y as f64))),
        },
        _ => Ok(Value::Double(f_double(a.as_f64()?, b.as_f64()?))),
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Long(a), Long(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (a, b) if a.is_numeric() && b.is_numeric() => {
                Value::numeric_bits(a.as_f64().unwrap()) == Value::numeric_bits(b.as_f64().unwrap())
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            // Longs hash through their f64 coercion so that Long(1) and Double(1.0)
            // land in the same hash bucket (they are equal under PartialEq).
            Value::Long(v) => Value::numeric_bits(*v as f64).hash(state),
            Value::Double(v) => Value::numeric_bits(*v).hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Long(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Long(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Long(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::bool(v)
    }
}

/// The declared type of a catalog column: the kind of [`Value`] it holds.
///
/// Two kinds are all kernel totality needs: a number may sit in any
/// arithmetic or multiplicity position, a string only in comparisons, lifts,
/// group-by keys and `LIKE`. A number column holds `Long` and `Double` values
/// alike (dates are `Long` `yyyymmdd`), so numeric key equality across the
/// two stays as [`Value`]'s equality defines it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// `Long` or `Double`.
    Number,
    /// `Str`.
    String,
}

impl ColumnType {
    /// The kind of `v`.
    #[inline]
    pub fn of(v: &Value) -> ColumnType {
        match v {
            Value::Str(_) => ColumnType::String,
            _ => ColumnType::Number,
        }
    }

    /// Does a column of this type hold `v`?
    #[inline]
    pub fn admits(self, v: &Value) -> bool {
        ColumnType::of(v) == self
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ColumnType::Number => "number",
            ColumnType::String => "string",
        })
    }
}

/// Errors raised by value-level operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValueError {
    /// A string was used where a number was required.
    NotNumeric(String),
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueError::NotNumeric(s) => write!(f, "value '{s}' is not numeric"),
        }
    }
}

impl std::error::Error for ValueError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn long_and_double_coerce_for_equality_and_hash() {
        let a = Value::long(42);
        let b = Value::double(42.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn negative_zero_normalizes() {
        assert_eq!(Value::double(0.0), Value::double(-0.0));
        assert_eq!(hash_of(&Value::double(0.0)), hash_of(&Value::double(-0.0)));
        // The order agrees with equality, for NaNs too.
        let (zero, neg_zero) = (Value::double(0.0), Value::double(-0.0));
        assert_eq!(neg_zero.cmp(&zero), Ordering::Equal);
        assert_eq!(neg_zero.cmp(&Value::long(0)), Ordering::Equal);
        let (nan, neg_nan) = (Value::double(f64::NAN), Value::double(-f64::NAN));
        assert_eq!(nan, neg_nan);
        assert_eq!(neg_nan.cmp(&nan), Ordering::Equal);
        assert_eq!(
            neg_nan.cmp(&Value::double(f64::INFINITY)),
            Ordering::Greater
        );
    }

    #[test]
    fn strings_compare_and_display() {
        let a = Value::str("BUILDING");
        let b = Value::str("BUILDING");
        let c = Value::str("MACHINERY");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(format!("{a}"), "'BUILDING'");
    }

    #[test]
    fn ordering_is_total() {
        let mut vals = [
            Value::str("z"),
            Value::long(3),
            Value::double(2.5),
            Value::long(-1),
            Value::str("a"),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::long(-1));
        assert_eq!(vals[1], Value::double(2.5));
        assert_eq!(vals[2], Value::long(3));
        assert_eq!(vals[3], Value::str("a"));
        assert_eq!(vals[4], Value::str("z"));
    }

    #[test]
    fn arithmetic_promotes() {
        assert_eq!(
            Value::long(2).mul(&Value::double(1.5)).unwrap(),
            Value::double(3.0)
        );
        assert_eq!(Value::long(2).add(&Value::long(3)).unwrap(), Value::long(5));
        assert_eq!(
            Value::long(7).sub(&Value::long(9)).unwrap(),
            Value::long(-2)
        );
        assert_eq!(
            Value::long(1).div(&Value::long(0)).unwrap(),
            Value::double(0.0)
        );
    }

    #[test]
    fn overflow_falls_back_to_double() {
        let big = Value::long(i64::MAX);
        let r = big.add(&Value::long(1)).unwrap();
        assert!(matches!(r, Value::Double(_)));
    }

    #[test]
    fn string_arithmetic_errors() {
        assert!(Value::str("x").add(&Value::long(1)).is_err());
        assert!(Value::long(1).neg().is_ok());
        assert!(Value::str("x").neg().is_err());
    }

    #[test]
    fn date_encoding() {
        assert_eq!(Value::date(1995, 3, 15), Value::long(19950315));
        assert!(Value::date(1995, 3, 15) < Value::date(1996, 1, 1));
    }

    /// The layout every resident key pays for: a fat variant would regrow
    /// every map entry, index entry and snapshot buffer by a half.
    #[test]
    fn value_is_two_words_and_an_inline_tuple_seven() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
        assert_eq!(std::mem::size_of::<crate::Tuple>(), 56);
    }

    /// Only a value and its clones are the same: values `==` equates across
    /// a variant, a sign of zero, a NaN payload or an allocation are not.
    #[test]
    fn only_a_value_and_its_clone_are_the_same() {
        let pairs = [
            (Value::double(-0.0), Value::double(0.0)),
            (Value::double(f64::NAN), Value::double(-f64::NAN)),
            (
                Value::double(f64::NAN),
                Value::double(f64::from_bits(f64::NAN.to_bits() | 1)),
            ),
            (Value::long(1), Value::double(1.0)),
            (
                Value::long((1 << 53) + 1),
                Value::double((1u64 << 53) as f64),
            ),
            (Value::str("BUILDING"), Value::str("BUILDING")),
        ];
        for (a, b) in &pairs {
            // Equal, so a skip written with `==` would keep the wrong one.
            assert_eq!(a, b);
            assert!(!a.is_same(b) && !b.is_same(a), "{a:?} is not {b:?}");
        }
        for v in pairs.iter().flat_map(|(a, b)| [a, b]) {
            assert!(v.is_same(&v.clone()), "{v:?} is its clone");
        }
    }

    #[test]
    fn truthiness() {
        assert!(Value::long(1).is_truthy());
        assert!(!Value::long(0).is_truthy());
        assert!(!Value::double(0.0).is_truthy());
        assert!(Value::str("x").is_truthy());
        assert!(!Value::str("").is_truthy());
    }
}
