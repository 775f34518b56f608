//! Body position and use maps, and bringing them up to date from the
//! delta log.
//!
//! Both maps are snapshots of one function state. Inside a transaction
//! they can follow the function through later edits in O(edits) instead
//! of being recomputed: [`crate::Function::edits_since`] lists what changed
//! and [`PositionMap::apply`] / [`UseMap::apply`] replay it.

use std::collections::HashMap;

use crate::function::{Edit, Function};
use crate::inst::Inst;
use crate::value::ValueId;

/// Key distance between neighbours in a freshly numbered body.
const GAP: u64 = 1 << 32;
/// The largest step an insertion takes into a gap, so a run of insertions
/// after one instruction uses the gap up linearly, not by halving.
const STEP: u64 = 1 << 24;

/// Order keys of the body instructions: sparse `u64`s, increasing along
/// the body, so comparing two keys compares body positions.
///
/// Inserting an instruction gives it a key between its neighbours' keys
/// without renumbering anything; only when a gap runs out does the map
/// have to be rebuilt ([`PositionMap::apply`] reports it). Keys are not
/// body indices: [`PositionMap::index_in`] finds an index by binary search.
#[derive(Clone, Debug, Default)]
pub struct PositionMap {
    /// Key per value index; 0 means "not in the body".
    keys: Vec<u64>,
    /// Number of keyed values.
    len: usize,
}

impl PositionMap {
    /// Freshly numbered keys for `body`.
    pub(crate) fn of_body(body: &[ValueId]) -> PositionMap {
        let n = body.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        let mut keys = vec![0; n];
        let mut len = 0;
        for (i, v) in body.iter().enumerate() {
            // A duplicate keeps its last key and counts once, so a body
            // with duplicates has fewer keys than entries.
            len += usize::from(keys[v.index()] == 0);
            keys[v.index()] = (i as u64 + 1) * GAP;
        }
        PositionMap { keys, len }
    }

    /// The order key of `v`, if it is in the body.
    pub fn key(&self, v: ValueId) -> Option<u64> {
        self.keys.get(v.index()).copied().filter(|&k| k != 0)
    }

    /// Whether `v` is in the body.
    pub fn contains(&self, v: ValueId) -> bool {
        self.key(v).is_some()
    }

    /// Number of body instructions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The index of `v` in `body`, the body these keys describe, by binary
    /// search over the keys.
    pub fn index_in(&self, body: &[ValueId], v: ValueId) -> Option<usize> {
        let k = self.key(v)?;
        body.binary_search_by_key(&k, |&x| self.key(x).unwrap_or(0)).ok()
    }

    /// Whether these keys describe exactly `body`: every body instruction
    /// and nothing else is keyed, with keys increasing along the body.
    pub fn orders(&self, body: &[ValueId]) -> bool {
        let mut last = 0;
        self.len == body.len()
            && body.iter().all(|&v| {
                let k = self.key(v).unwrap_or(0);
                let ok = k > last;
                last = k;
                ok
            })
    }

    fn set(&mut self, v: ValueId, key: u64) {
        if v.index() >= self.keys.len() {
            self.keys.resize(v.index() + 1, 0);
        }
        self.keys[v.index()] = key;
    }

    /// Replay `edits` in order. Returns `false`, leaving the map in an
    /// unspecified state to be rebuilt, when a gap between neighbours has
    /// run out or an edit contradicts the map (an insert of a keyed value,
    /// a neighbour or removal without a key).
    pub fn apply(&mut self, edits: &[Edit<'_>]) -> bool {
        for edit in edits {
            match *edit {
                Edit::Insert { v, prev, next } => {
                    let lo = match prev {
                        Some(p) => match self.key(p) {
                            Some(k) => k,
                            None => return false,
                        },
                        None => 0,
                    };
                    let hi = match next {
                        Some(n) => self.key(n),
                        None => lo.checked_add(2 * STEP),
                    };
                    let Some(gap) = hi.and_then(|hi| hi.checked_sub(lo)) else { return false };
                    if gap < 2 || self.contains(v) {
                        return false;
                    }
                    self.set(v, lo + (gap / 2).min(STEP));
                    self.len += 1;
                }
                Edit::Remove { v } => {
                    if !self.contains(v) {
                        return false;
                    }
                    self.keys[v.index()] = 0;
                    self.len -= 1;
                }
                Edit::Rewrite { .. } => {}
            }
        }
        true
    }
}

/// One use of a value: which instruction uses it and at which operand slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Use {
    /// The using instruction.
    pub user: ValueId,
    /// The operand index within the user's argument list.
    pub index: usize,
}

/// A map from values to their uses within a function body, in body order.
///
/// Snapshot semantics: the map reflects the function at the time
/// [`Function::use_map`] was called; [`UseMap::apply`] brings it forward.
/// Operand handles outside the function's value range have no entry.
#[derive(Clone, Debug, Default)]
pub struct UseMap {
    /// Uses per value index.
    lists: Vec<Vec<Use>>,
}

impl UseMap {
    pub(crate) fn of_body(f: &Function) -> UseMap {
        let mut map = UseMap { lists: vec![Vec::new(); f.num_values()] };
        for &user in f.body() {
            for (index, &arg) in f.args_of(user).iter().enumerate() {
                if let Some(list) = map.lists.get_mut(arg.index()) {
                    list.push(Use { user, index });
                }
            }
        }
        map
    }

    /// All uses of `v`, in body order. Empty when unused.
    pub fn uses(&self, v: ValueId) -> &[Use] {
        self.lists.get(v.index()).map_or(&[], Vec::as_slice)
    }

    /// Number of uses of `v`.
    pub fn num_uses(&self, v: ValueId) -> usize {
        self.uses(v).len()
    }

    /// Replay `edits`, made to `f` since this map's state, given
    /// `positions` already brought up to date with them. Costs O(uses of
    /// the operands of each edited instruction).
    pub fn apply(&mut self, f: &Function, edits: &[Edit<'_>], positions: &PositionMap) {
        // Per edited instruction, in first-edit order: whether it was in
        // the body before the edits (its first body edit says; with none,
        // membership did not change) and its payload then (the first
        // rewrite's `old`, else the current one).
        struct Before<'a> {
            in_body: Option<bool>,
            payload: Option<&'a Inst>,
        }
        let mut order = Vec::new();
        let mut before: HashMap<ValueId, Before<'_>> = HashMap::new();
        for edit in edits {
            let (v, in_body, payload) = match *edit {
                Edit::Insert { v, .. } => (v, Some(false), None),
                Edit::Remove { v } => (v, Some(true), None),
                Edit::Rewrite { v, old } => (v, None, Some(old)),
            };
            let b = before.entry(v).or_insert_with(|| {
                order.push(v);
                Before { in_body: None, payload: None }
            });
            b.in_body = b.in_body.or(in_body);
            b.payload = b.payload.or(payload);
        }
        for &v in &order {
            let b = &before[&v];
            if !b.in_body.unwrap_or_else(|| positions.contains(v)) {
                continue;
            }
            let args = b.payload.map_or(f.args_of(v), |i| i.args.as_slice());
            for (index, &arg) in args.iter().enumerate() {
                let gone = Use { user: v, index };
                if let Some(list) = self.lists.get_mut(arg.index()) {
                    if let Some(at) = list.iter().position(|u| *u == gone) {
                        list.remove(at);
                    }
                }
            }
        }
        for &v in &order {
            let Some(key) = positions.key(v) else { continue };
            for (index, &arg) in f.args_of(v).iter().enumerate() {
                if arg.index() >= f.num_values() {
                    continue;
                }
                if arg.index() >= self.lists.len() {
                    self.lists.resize_with(arg.index() + 1, Vec::new);
                }
                let list = &mut self.lists[arg.index()];
                let at = list.partition_point(|u| {
                    (positions.key(u.user).unwrap_or(0), u.index) < (key, index)
                });
                list.insert(at, Use { user: v, index });
            }
        }
    }
}
