//! Tuples: ordered sequences of [`Value`]s, optimized for use as map keys.
//!
//! The paper models a tuple as a partial function from column names to values; here a
//! tuple is an ordered sequence of values positionally interpreted through a
//! [`Schema`](crate::schema::Schema). [`Tuple`] is the shared key type of the whole
//! system: GMR entries, view-map keys and secondary-index entries all use it.
//!
//! ## Representation
//!
//! Tuples up to [`INLINE_CAP`] values are stored **inline** (no heap allocation, no
//! pointer chase on hash/compare); longer tuples spill to a shared `Arc<[Value]>` slab.
//! Both representations make `clone` cheap — at most [`INLINE_CAP`] `Value` clones
//! (a `Value` clone is a memcpy or an `Arc` refcount bump) or a single refcount bump —
//! which is what lets the runtime maintain secondary indexes without per-event
//! allocations. A spilled tuple built from a slice or an iterator of known length
//! allocates its slab once. Tuples are immutable after construction except for
//! [`Tuple::push`], which is only used on cold paths.

use crate::value::Value;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Maximum arity stored inline (covers the vast majority of view keys).
pub const INLINE_CAP: usize = 3;

/// Filler for unused inline slots: a `Value::Long` is allocation-free to create
/// and drop.
#[inline]
fn filler() -> Value {
    Value::Long(0)
}

#[inline]
fn filler_buf() -> [Value; INLINE_CAP] {
    std::array::from_fn(|_| filler())
}

#[derive(Clone, Debug)]
enum Repr {
    Inline { len: u8, buf: [Value; INLINE_CAP] },
    Heap(Arc<[Value]>),
}

/// An ordered list of values, positionally interpreted via a schema.
#[derive(Clone, Debug)]
pub struct Tuple {
    repr: Repr,
}

impl Tuple {
    /// The empty (nullary) tuple, the key of scalar GMRs.
    #[inline]
    pub fn new() -> Tuple {
        Tuple {
            repr: Repr::Inline {
                len: 0,
                buf: filler_buf(),
            },
        }
    }

    /// The values as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Value] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(values) => values,
        }
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(values) => values.len(),
        }
    }

    /// Is this the nullary tuple?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy into a plain `Vec<Value>`.
    #[inline]
    pub fn to_vec(&self) -> Vec<Value> {
        self.as_slice().to_vec()
    }

    /// Append a value (cold path: spills to the heap representation beyond
    /// [`INLINE_CAP`] and rebuilds shared slabs).
    pub fn push(&mut self, value: Value) {
        match &mut self.repr {
            Repr::Inline { len, buf } if (*len as usize) < INLINE_CAP => {
                buf[*len as usize] = value;
                *len += 1;
            }
            _ => {
                let mut values = self.to_vec();
                values.push(value);
                self.repr = Repr::Heap(values.into());
            }
        }
    }

    /// Does the tuple live in the inline representation?
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }
}

impl Default for Tuple {
    #[inline]
    fn default() -> Tuple {
        Tuple::new()
    }
}

impl Deref for Tuple {
    type Target = [Value];

    #[inline]
    fn deref(&self) -> &[Value] {
        self.as_slice()
    }
}

impl Borrow<[Value]> for Tuple {
    #[inline]
    fn borrow(&self) -> &[Value] {
        self.as_slice()
    }
}

impl AsRef<[Value]> for Tuple {
    #[inline]
    fn as_ref(&self) -> &[Value] {
        self.as_slice()
    }
}

// Hash/Eq/Ord delegate to the value slice so that a `Tuple` key can be probed
// with a borrowed `&[Value]` (`Borrow` requires identical Hash/Eq behaviour).
impl Hash for Tuple {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl PartialEq for Tuple {
    #[inline]
    fn eq(&self, other: &Tuple) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Tuple {}

impl PartialEq<Vec<Value>> for Tuple {
    #[inline]
    fn eq(&self, other: &Vec<Value>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Tuple> for Vec<Value> {
    #[inline]
    fn eq(&self, other: &Tuple) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[Value]> for Tuple {
    #[inline]
    fn eq(&self, other: &[Value]) -> bool {
        self.as_slice() == other
    }
}

impl PartialOrd for Tuple {
    #[inline]
    fn partial_cmp(&self, other: &Tuple) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    #[inline]
    fn cmp(&self, other: &Tuple) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Tuple {
        let mut it = iter.into_iter();
        let mut buf = filler_buf();
        let mut len = 0usize;
        while let Some(v) = it.next() {
            if len < INLINE_CAP {
                buf[len] = v;
                len += 1;
            } else {
                // Spill: the inline prefix plus the rest, straight into the
                // slab — one allocation when the iterator knows its length.
                let values = buf.into_iter().chain(std::iter::once(v)).chain(it);
                return Tuple {
                    repr: Repr::Heap(values.collect()),
                };
            }
        }
        Tuple {
            repr: Repr::Inline {
                len: len as u8,
                buf,
            },
        }
    }
}

impl From<Vec<Value>> for Tuple {
    #[inline]
    fn from(values: Vec<Value>) -> Tuple {
        if values.len() <= INLINE_CAP {
            values.into_iter().collect()
        } else {
            Tuple {
                repr: Repr::Heap(values.into()),
            }
        }
    }
}

impl From<&[Value]> for Tuple {
    #[inline]
    fn from(values: &[Value]) -> Tuple {
        if values.len() <= INLINE_CAP {
            values.iter().cloned().collect()
        } else {
            Tuple {
                repr: Repr::Heap(Arc::from(values)),
            }
        }
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    #[inline]
    fn from(values: [Value; N]) -> Tuple {
        values.into_iter().collect()
    }
}

impl From<Tuple> for Vec<Value> {
    #[inline]
    fn from(t: Tuple) -> Vec<Value> {
        match t.repr {
            Repr::Inline { len, buf } => {
                let mut v = Vec::with_capacity(len as usize);
                v.extend(buf.into_iter().take(len as usize));
                v
            }
            Repr::Heap(values) => values.to_vec(),
        }
    }
}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">")
    }
}

/// Project a tuple onto the given positions.
#[inline]
pub fn project(tuple: &[Value], positions: &[usize]) -> Tuple {
    positions.iter().map(|&i| tuple[i].clone()).collect()
}

/// Build the empty (nullary) tuple, the key of scalar GMRs.
#[inline]
pub fn empty() -> Tuple {
    Tuple::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FxBuildHasher;
    use std::hash::BuildHasher;

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Value::long(v)).collect()
    }

    #[test]
    fn project_reorders_and_duplicates() {
        let tup = t(&[10, 20, 30]);
        assert_eq!(project(&tup, &[2, 0]), t(&[30, 10]));
        assert_eq!(project(&tup, &[1, 1]), t(&[20, 20]));
        assert_eq!(project(&tup, &[]), empty());
    }

    #[test]
    fn small_tuples_stay_inline_and_long_ones_spill() {
        assert!(t(&[1, 2, 3]).is_inline());
        assert!(!t(&[1, 2, 3, 4, 5]).is_inline());
        assert_eq!(t(&[1, 2, 3, 4, 5]).len(), 5);
        assert_eq!(t(&[1, 2, 3, 4, 5])[4], Value::long(5));
    }

    #[test]
    fn push_crosses_the_inline_boundary() {
        let mut tup = t(&[1, 2]);
        tup.push(Value::long(3));
        assert_eq!(tup, t(&[1, 2, 3]));
        let mut empty = Tuple::new();
        empty.push(Value::str("x"));
        assert_eq!(empty.len(), 1);
    }

    #[test]
    fn hash_agrees_with_borrowed_slice() {
        let hasher = FxBuildHasher::default();
        for tup in [t(&[]), t(&[7]), t(&[1, 2, 3, 4, 5, 6])] {
            assert_eq!(hasher.hash_one(&tup), hasher.hash_one(tup.as_slice()));
        }
    }

    #[test]
    fn vec_round_trip_and_equality() {
        let v = vec![Value::long(1), Value::str("a")];
        let tup = Tuple::from(v.clone());
        assert_eq!(tup, v);
        assert_eq!(v, tup);
        assert_eq!(Vec::<Value>::from(tup.clone()), v);
        assert_eq!(tup.to_vec(), v);
    }

    #[test]
    fn display_renders_values() {
        assert_eq!(format!("{}", t(&[1, 2])), "<1, 2>");
    }
}
