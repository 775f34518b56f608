//! Body position and use maps, and bringing them up to date from the
//! delta log.
//!
//! Both maps are snapshots of one function state. Inside a transaction
//! they can follow the function through later edits in O(edits) instead
//! of being recomputed: [`crate::Function::edits_since`] lists what changed
//! and [`PositionMap::apply`] / [`UseMap::apply`] replay it.

use crate::function::{Edit, Function};
use crate::inline::InlineVec;
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
    pub index: u32,
}

/// A value's uses: most values have one or two, which stay in place.
type Uses = InlineVec<Use, 2>;

/// A map from values to their uses within a function body, in body order.
///
/// Snapshot semantics: the map reflects the function at the time
/// [`Function::use_map`] was called; [`UseMap::apply`] brings it forward.
/// Operand handles outside the function's value range have no entry.
#[derive(Clone, Debug, Default)]
pub struct UseMap {
    /// Uses per value index, inline up to two.
    lists: Vec<Uses>,
}

impl UseMap {
    pub(crate) fn of_body(f: &Function) -> UseMap {
        let mut map = UseMap { lists: vec![Uses::new(); f.num_values()] };
        for &user in f.body() {
            for (index, &arg) in f.args_of(user).iter().enumerate() {
                if let Some(list) = map.lists.get_mut(arg.index()) {
                    list.push(Use { user, index: index as u32 });
                }
            }
        }
        map
    }

    /// All uses of `v`, in body order. Empty when unused.
    pub fn uses(&self, v: ValueId) -> &[Use] {
        self.lists.get(v.index()).map_or(&[], Uses::as_slice)
    }

    /// Number of uses of `v`.
    pub fn num_uses(&self, v: ValueId) -> usize {
        self.uses(v).len()
    }

    /// Replay `edits`, made to `f` since this map's state, given
    /// `positions` already brought up to date with them. Costs O(uses of
    /// the operands of each edited instruction), plus sorting the edits.
    pub fn apply(&mut self, f: &Function, edits: &[Edit<'_>], positions: &PositionMap) {
        // The edits grouped by instruction, each group in log order. Each
        // edited instruction drops the uses it had before the edits and
        // adds the ones it has now; the result does not depend on the
        // order the instructions are visited in.
        let mut by_value: Vec<(ValueId, u32)> =
            edits.iter().enumerate().map(|(i, e)| (e.value(), i as u32)).collect();
        by_value.sort_unstable();
        let groups = || by_value.chunk_by(|a, b| a.0 == b.0);
        for group in groups() {
            let v = group[0].0;
            let mut group_edits = group.iter().map(|&(_, i)| &edits[i as usize]);
            // In the body before the edits: its first body edit says; with
            // none, membership did not change.
            let was_in_body = group_edits
                .clone()
                .find_map(|e| match e {
                    Edit::Insert { .. } => Some(false),
                    Edit::Remove { .. } => Some(true),
                    Edit::Rewrite { .. } => None,
                })
                .unwrap_or_else(|| positions.contains(v));
            if !was_in_body {
                continue;
            }
            // Its operands then: the first rewrite's old payload, else the
            // current one.
            let old = group_edits.find_map(|e| match e {
                Edit::Rewrite { old, .. } => Some(old.args.as_slice()),
                _ => None,
            });
            for (index, &arg) in old.unwrap_or(f.args_of(v)).iter().enumerate() {
                let gone = Use { user: v, index: index as u32 };
                if let Some(list) = self.lists.get_mut(arg.index()) {
                    if let Some(at) = list.iter().position(|u| *u == gone) {
                        list.remove(at);
                    }
                }
            }
        }
        for group in groups() {
            let v = group[0].0;
            let Some(key) = positions.key(v) else { continue };
            for (index, &arg) in f.args_of(v).iter().enumerate() {
                if arg.index() >= f.num_values() {
                    continue;
                }
                if arg.index() >= self.lists.len() {
                    self.lists.resize_with(arg.index() + 1, Uses::new);
                }
                let index = index as u32;
                let list = &mut self.lists[arg.index()];
                let at = list.partition_point(|u| {
                    (positions.key(u.user).unwrap_or(0), u.index) < (key, index)
                });
                list.insert(at, Use { user: v, index });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{HashMap, HashSet};
    use crate::inst::{InstAttr, Opcode, Operands};
    use crate::types::Type;
    use proptest::prelude::*;

    /// splitmix64, so one sampled seed drives a whole case.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// An operand: half the draws pick one of two hot values, so their use
    /// lists outgrow the two in place.
    fn operand(r: &mut Rng, f: &Function) -> ValueId {
        let hot = f.params()[r.below(2)];
        if r.below(2) == 0 {
            hot
        } else {
            ValueId::from_raw(r.below(f.num_values()) as u32)
        }
    }

    /// An instruction of arity 1, 2 or 3 over random operands. The map
    /// does not look at types, so the instructions need not verify.
    fn random_inst(r: &mut Rng, f: &Function) -> (Opcode, Operands) {
        let (op, arity) = [(Opcode::Sext, 1), (Opcode::Add, 2), (Opcode::Select, 3)][r.below(3)];
        (op, (0..arity).map(|_| operand(r, f)).collect())
    }

    /// A body of a few instructions, then one to three rounds of random
    /// edits inside a transaction, each round replayed into the maps and
    /// checked against a fresh use map before the next starts. Returns the
    /// most uses any value had and which arities the body held.
    fn check_case(seed: u64) -> Result<(usize, [bool; 3]), String> {
        let mut r = Rng(seed);
        let mut f = Function::new("uses");
        for name in ["a", "b", "c"] {
            f.add_param(name, Type::I64);
        }
        f.const_i64(7);
        for _ in 0..4 + r.below(12) {
            let (op, args) = random_inst(&mut r, &f);
            f.push(op, Type::I64, args, InstAttr::None);
        }
        let mark = f.begin_txn();
        let mut uses = f.use_map();
        let mut positions = f.position_map();
        let mut most_uses = 0;
        let mut arities = [false; 3];
        for round in 0..1 + r.below(3) {
            let cursor = f.log_cursor().expect("inside a transaction");
            for _ in 0..1 + r.below(12) {
                let len = f.body_len();
                match r.below(6) {
                    0 => {
                        let (op, args) = random_inst(&mut r, &f);
                        f.insert(r.below(len + 1), op, Type::I64, args, InstAttr::None);
                    }
                    1 => {
                        let (op, args) = random_inst(&mut r, &f);
                        let v = f.create(op, Type::I64, args, InstAttr::None);
                        f.insert_value(r.below(len + 1), v);
                    }
                    2 if len > 0 => {
                        // Remove, and sometimes put back elsewhere.
                        let v = f.remove_at(r.below(len));
                        if r.below(2) == 0 {
                            f.insert_value(r.below(len), v);
                        }
                    }
                    3 if len > 0 => {
                        let dead: HashSet<ValueId> =
                            (0..1 + r.below(2)).map(|_| f.body()[r.below(len)]).collect();
                        f.remove_from_body(&dead);
                    }
                    4 => {
                        // Rewrite one operand of any instruction, in the
                        // body or orphaned.
                        let v = ValueId::from_raw(r.below(f.num_values()) as u32);
                        let new = operand(&mut r, &f);
                        if let Some(inst) = f.inst_mut(v) {
                            let i = r.below(inst.args.len());
                            inst.args[i] = new;
                        }
                    }
                    _ => {
                        let old = operand(&mut r, &f);
                        let new = operand(&mut r, &f);
                        f.replace_uses_with(&HashMap::from_iter([(old, new)]));
                    }
                }
            }
            let edits = f.edits_since(cursor).ok_or("the window is replayable")?;
            if !positions.apply(&edits) {
                positions = f.position_map();
            }
            uses.apply(&f, &edits, &positions);
            let fresh = f.use_map();
            for i in 0..f.num_values() {
                let v = ValueId::from_raw(i as u32);
                if uses.uses(v) != fresh.uses(v) {
                    return Err(format!(
                        "seed {seed} round {round}: uses of {v}: applied {:?}, fresh {:?}",
                        uses.uses(v),
                        fresh.uses(v)
                    ));
                }
                most_uses = most_uses.max(fresh.num_uses(v));
            }
            for &v in f.body() {
                arities[f.args_of(v).len() - 1] = true;
            }
        }
        f.rollback_txn(mark);
        Ok((most_uses, arities))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn applied_edits_match_a_fresh_use_map(seed in any::<u64>()) {
            let checked = check_case(seed);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }

    /// The generator is not degenerate: cases reach use lists past the
    /// inline capacity and bodies with every arity.
    #[test]
    fn random_cases_spill_use_lists_and_mix_arities() {
        let mut spilled = 0;
        let mut arities = [false; 3];
        for seed in 0..200 {
            let (most, seen) = check_case(seed).unwrap();
            spilled += usize::from(most > 2);
            for (a, s) in arities.iter_mut().zip(seen) {
                *a |= s;
            }
        }
        assert!(spilled > 100, "{spilled} of 200 cases spill a use list");
        assert_eq!(arities, [true; 3]);
    }
}
