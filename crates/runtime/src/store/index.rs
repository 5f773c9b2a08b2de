//! The hash secondary index of one binding-pattern mask and the index upkeep
//! both writers share (see the parent module's docs on index maintenance).

use super::project_mask;
use crate::ordered::{slot_bytes, tuple_slot_bytes, OrderedIndex};
use dbtoaster_gmr::hash::fast_set_with_capacity;
use dbtoaster_gmr::tuple::project;
use dbtoaster_gmr::{FastMap, FastSet, Tuple, Value};

/// A hash secondary index: projected key → the group of its members' free
/// columns, the key columns the mask leaves unbound. Every member is an entry
/// of the primary map, which alone holds its multiplicity, as the paper's
/// multi-index containers link to an entry rather than copy it. So the index
/// is written only when a key enters or leaves the map, and a scan rebuilds
/// each member's full key from the pattern and probes the primary map.
#[derive(Clone, Debug)]
pub(super) struct HashIndex {
    /// The key positions the mask leaves free, ascending: what a group holds
    /// of each member.
    pub(super) free: Box<[usize]>,
    pub(super) groups: FastMap<Tuple, Group>,
    /// Footprint, maintained per write.
    pub(super) bytes: usize,
}

/// Groups of at most this many members are one flat vector; larger ones a
/// set. Most groups of the bundled workloads hold one to seven members, and
/// a per-group table pays a minimum capacity where a vector pays what it
/// holds. The large groups (`tpch_dash`'s two `l_suppkey` indexes, about 72
/// and 512 members) stay sets, so removing a member is still a probe, not a
/// walk.
pub(super) const SMALL_GROUP: usize = 16;

/// One group of a [`HashIndex`]: the free columns of its members, no
/// multiplicities. Its size picks its form, so a group is the same whether it
/// grew, shrank or was built at once.
#[derive(Clone, Debug)]
pub(super) enum Group {
    /// The one member of an index with one free column, held in the group
    /// with no buffer of its own.
    One(Value),
    /// At most [`SMALL_GROUP`] members (and more than one, when a member is
    /// one value), their free columns back to back, searched linearly; grown
    /// one member at a time, so it holds no spare capacity it never used.
    Small(Vec<Value>),
    /// More than [`SMALL_GROUP`] members.
    Large(Box<FastSet<Tuple>>),
}

impl Group {
    /// The group of the one member `free`.
    pub(super) fn new(free: &[Value]) -> Group {
        match free {
            [one] => Group::One(one.clone()),
            _ => Group::Small(free.to_vec()),
        }
    }

    #[cfg(test)]
    pub(super) fn members(&self, width: usize) -> usize {
        match self {
            Group::One(_) => 1,
            Group::Small(values) => values.len() / width,
            Group::Large(set) => set.len(),
        }
    }

    /// Add the member `free`, which the primary map says is new: no search.
    fn push(&mut self, free: &[Value]) {
        let width = free.len();
        match self {
            Group::One(one) => {
                let mut values = Vec::with_capacity(2);
                values.push(one.clone());
                values.extend_from_slice(free);
                *self = Group::Small(values);
            }
            Group::Small(values) if values.len() < SMALL_GROUP * width => {
                values.reserve_exact(width);
                values.extend_from_slice(free);
            }
            Group::Small(values) => {
                let mut set = fast_set_with_capacity(SMALL_GROUP + 1);
                set.extend(values.chunks_exact(width).map(Tuple::from));
                set.insert(Tuple::from(free));
                *self = Group::Large(Box::new(set));
            }
            Group::Large(set) => {
                set.insert(Tuple::from(free));
            }
        }
    }

    /// Remove the member `free`. Was it there? An emptied group is an empty
    /// `Small`, for its index to drop.
    fn remove(&mut self, free: &[Value]) -> bool {
        let width = free.len();
        match self {
            Group::One(one) => {
                if std::slice::from_ref(one) != free {
                    return false;
                }
                *self = Group::Small(Vec::new());
            }
            Group::Small(values) => {
                let Some(at) = values.chunks_exact(width).position(|m| m == free) else {
                    return false;
                };
                // Move the last member into the hole.
                let last = values.len() - width;
                for i in 0..width {
                    values.swap(at * width + i, last + i);
                }
                values.truncate(last);
                if let [one] = values.as_mut_slice() {
                    *self = Group::One(std::mem::replace(one, Value::Long(0)));
                }
            }
            Group::Large(set) => {
                if !set.remove(free) {
                    return false;
                }
                if set.len() <= SMALL_GROUP {
                    let mut values = Vec::with_capacity(set.len() * width);
                    values.extend(set.iter().flat_map(|m| m.iter().cloned()));
                    *self = Group::Small(values);
                }
            }
        }
        true
    }

    fn is_empty(&self) -> bool {
        matches!(self, Group::Small(values) if values.is_empty())
    }

    /// Hand each member's free columns to `visit`.
    pub(super) fn for_each(&self, width: usize, mut visit: impl FnMut(&[Value])) {
        match self {
            Group::One(one) => visit(std::slice::from_ref(one)),
            Group::Small(values) => values.chunks_exact(width).for_each(visit),
            Group::Large(set) => set.iter().for_each(|m| visit(m)),
        }
    }

    /// What the members cost beyond the group's table slot (see the module
    /// docs): nothing held inline, a value per free column in a vector, the
    /// table of a set.
    fn member_bytes(&self, width: usize) -> usize {
        match self {
            Group::One(_) => 0,
            Group::Small(values) => values.len() * std::mem::size_of::<Value>(),
            Group::Large(set) => set_bytes(set.len(), width),
        }
    }
}

/// What a set of `members` free-column tuples of `width` values holds: the
/// smallest table that takes them at the hash table's 7/8 load limit, which
/// is the table a set grown one member at a time has (one tuple and one
/// control byte per bucket, a trailing group of control bytes), its header,
/// and the value slab of each spilled tuple. A function of the size alone,
/// so a set that shrank is charged what a set built at its size would hold.
fn set_bytes(members: usize, width: usize) -> usize {
    let buckets = (members * 8 / 7).next_power_of_two();
    let spill = slot_bytes(width) - slot_bytes(0);
    std::mem::size_of::<FastSet<Tuple>>()
        + buckets * (std::mem::size_of::<Tuple>() + 1)
        + 16
        + members * spill
}

/// The table slot of a hash-index group keyed `key`: a primary slot (see
/// [`slot_bytes`]) with a [`Group`] where the multiplicity would be.
fn group_slot_bytes(key: &Tuple) -> usize {
    tuple_slot_bytes(key) - std::mem::size_of::<f64>() + std::mem::size_of::<Group>()
}

impl HashIndex {
    pub(super) fn new(mask: u64, arity: usize) -> HashIndex {
        HashIndex {
            free: (0..arity)
                .filter(|&i| i >= 63 || mask & (1 << i) == 0)
                .collect(),
            groups: FastMap::default(),
            bytes: 0,
        }
    }

    /// `key`, projecting to the group `mask` binds, entered the primary map.
    pub(super) fn insert(&mut self, mask: u64, key: &[Value]) {
        use std::collections::hash_map::Entry;
        let free = project(key, &self.free);
        match self.groups.entry(project_mask(key, mask)) {
            Entry::Occupied(mut o) => {
                let group = o.get_mut();
                let held = group.member_bytes(free.len());
                group.push(&free);
                self.bytes = self.bytes + group.member_bytes(free.len()) - held;
            }
            Entry::Vacant(v) => {
                let group = Group::new(&free);
                self.bytes += group_slot_bytes(v.key()) + group.member_bytes(free.len());
                v.insert(group);
            }
        }
    }

    /// `key`, projecting to the group `mask` binds, left the primary map.
    fn remove(&mut self, mask: u64, key: &[Value]) {
        let free = project(key, &self.free);
        let group_key = project_mask(key, mask);
        let Some(group) = self.groups.get_mut(&group_key) else {
            return;
        };
        let held = group.member_bytes(free.len());
        if !group.remove(&free) {
            return;
        }
        self.bytes = self.bytes + group.member_bytes(free.len()) - held;
        if group.is_empty() {
            self.groups.remove(&group_key);
            self.bytes -= group_slot_bytes(&group_key);
        }
    }
}

/// The secondary index of one binding-pattern mask (see the module docs).
#[derive(Clone, Debug)]
pub(super) enum Index {
    Hash(HashIndex),
    Ordered(OrderedIndex),
}

impl Index {
    /// `key` entered the primary map with multiplicity `mult`.
    pub(super) fn insert(&mut self, mask: u64, key: &[Value], mult: f64) {
        match self {
            Index::Hash(h) => h.insert(mask, key),
            Index::Ordered(o) => o.set(project_mask(key, mask), key, mult),
        }
    }

    /// `key` left the primary map.
    fn remove(&mut self, mask: u64, key: &[Value]) {
        match self {
            Index::Hash(h) => h.remove(mask, key),
            Index::Ordered(o) => o.set(project_mask(key, mask), key, 0.0),
        }
    }

    /// `key` stayed in the primary map with the new multiplicity `mult`:
    /// only an ordered index, whose running sums hold multiplicities, keeps
    /// it.
    fn update(&mut self, mask: u64, key: &[Value], mult: f64) {
        if let Index::Ordered(o) = self {
            o.set(project_mask(key, mask), key, mult);
        }
    }

    pub(super) fn clear(&mut self) {
        match self {
            Index::Hash(h) => {
                h.groups.clear();
                h.bytes = 0;
            }
            Index::Ordered(o) => o.clear(),
        }
    }

    pub(super) fn bytes(&self) -> usize {
        match self {
            Index::Hash(h) => h.bytes,
            Index::Ordered(o) => o.bytes(),
        }
    }
}

/// Index upkeep of both writers for a key the primary map held, whose
/// multiplicity is now `v`: it stayed, or left when `v` is `0.0`.
pub(super) fn reindex(indexes: &mut [(u64, Index)], key: &[Value], v: f64) {
    for (mask, index) in indexes {
        if v != 0.0 {
            index.update(*mask, key, v);
        } else {
            index.remove(*mask, key);
        }
    }
}
