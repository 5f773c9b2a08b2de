//! Rows of a kernel unit whose members' maps are one key table (see the
//! parent module's docs on kernel units), and the sinks a straight-line
//! unit appends its rows through.

use super::MemberRows;
use dbtoaster_gmr::Tuple;

/// The rows a kernel unit emits when its members' maps share one key table:
/// one key per row, and per member its value in that row, or `None` where
/// the member has no row. Member `i`'s rows — those whose value `i` is
/// `Some` — are, in order, the rows its own buffer would hold: the same
/// keys and values, collapsed the same way. A unit whose members emit
/// under the same keys, as a straight-line unit's do under its event's
/// one key, fills one row where its members' buffers would hold one each.
#[derive(Clone, Debug, Default)]
pub struct TableRows {
    width: usize,
    keys: Vec<Tuple>,
    values: Vec<Option<f64>>,
}

impl TableRows {
    /// Empty the rows for a unit of `width` members, keeping the capacity.
    #[inline]
    pub fn reset(&mut self, width: usize) {
        self.width = width;
        self.keys.clear();
        self.values.clear();
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Are there no rows?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Members per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `r`'s key.
    #[inline]
    pub fn key(&self, r: usize) -> &Tuple {
        &self.keys[r]
    }

    /// Take row `r`'s key out, leaving an empty tuple.
    #[inline]
    pub fn take_key(&mut self, r: usize) -> Tuple {
        std::mem::take(&mut self.keys[r])
    }

    /// Row `r`'s value of each member.
    #[inline]
    pub fn values(&self, r: usize) -> &[Option<f64>] {
        &self.values[r * self.width..(r + 1) * self.width]
    }

    /// Append a row under `key` holding no member's value yet; returns its
    /// index.
    #[inline]
    pub fn push_key(&mut self, key: Tuple) -> usize {
        self.keys.push(key);
        self.values.extend(std::iter::repeat_n(None, self.width));
        self.keys.len() - 1
    }

    /// Member `i`'s value in row `r`.
    #[inline]
    pub fn value_mut(&mut self, r: usize, i: usize) -> &mut Option<f64> {
        &mut self.values[r * self.width + i]
    }
}

/// Where a straight-line execution puts member `i`'s row `m`, under the
/// execution's one key: `built` is the member whose row took the key last,
/// `None` before any did, and `key` builds it.
pub(super) trait Sink {
    fn push(&mut self, i: usize, m: f64, built: Option<usize>, key: impl FnOnce() -> Tuple);
}

/// Each member's row into its own buffer: the key built for the first and
/// cloned for every later one.
pub(super) struct Members<'a, M: ?Sized>(pub &'a mut M);

impl<M: MemberRows + ?Sized> Sink for Members<'_, M> {
    #[inline]
    fn push(&mut self, i: usize, m: f64, built: Option<usize>, key: impl FnOnce() -> Tuple) {
        let key = match built {
            Some(b) => self.0.member(b).last().expect("the built key").0.clone(),
            None => key(),
        };
        self.0.member(i).push((key, m));
    }
}

/// One row per execution: pushed, with its key built, for the first
/// member's row, which every later member's value joins.
impl Sink for TableRows {
    #[inline]
    fn push(&mut self, i: usize, m: f64, built: Option<usize>, key: impl FnOnce() -> Tuple) {
        if built.is_none() {
            self.push_key(key());
        }
        let r = self.len() - 1;
        *self.value_mut(r, i) = Some(m);
    }
}
