//! Memory-dependence summary ("MemorySSA-lite").
//!
//! For every load in a straight-line function, precompute which *memory
//! epoch* it reads from: the index (1-based) of the most recent preceding
//! store that may alias the load's address, or 0 when no such store exists.
//! Two loads of the same address are redundant exactly when they share a
//! memory epoch — the query local CSE performs. Centralizing the summary
//! here lets the [`crate::AnalysisManager`] cache it alongside the address
//! analysis instead of every consumer re-deriving aliasing pairwise.

use lslp_ir::hash::HashMap;
use lslp_ir::{Function, Opcode, ValueId};

use crate::addr::{AddrInfo, MemLoc};
use crate::alias::may_alias;

/// Per-load memory epochs for one function (snapshot semantics: reflects
/// the function at analysis time, like [`AddrInfo`]).
#[derive(Clone, Debug, Default)]
pub struct MemDep {
    load_epoch: HashMap<ValueId, usize>,
    num_stores: usize,
}

impl MemDep {
    /// Analyze `f` against an address analysis computed for the same
    /// function state.
    ///
    /// Follows [`may_alias`]'s own case split: a store with no location
    /// aliases every load, a store to another base aliases the load unless
    /// both bases are pointer parameters, and only stores to the load's
    /// own base need the distance test. So each load takes the latest
    /// aliasing store of another base from running maxima, then tests only
    /// its own base's stores newer than that, newest first.
    pub fn analyze(f: &Function, addr: &AddrInfo) -> MemDep {
        let mut load_epoch = HashMap::default();
        // Stores are numbered from 1 in body order; 0 means "none".
        let mut num_stores = 0;
        // The latest store with no location.
        let mut unknown = 0;
        // The latest store whose base is not a parameter.
        let mut foreign = 0;
        // The latest store of each of the two most recent distinct bases,
        // newest first: the latest store of any base but `b` is the first
        // entry whose base is not `b`.
        let mut recent: [(Option<ValueId>, usize); 2] = [(None, 0); 2];
        // Every located store, grouped by base, in body order.
        let mut by_base: HashMap<ValueId, Vec<(usize, &MemLoc)>> = HashMap::default();
        for (_, id, inst) in f.iter_body() {
            match inst.op {
                Opcode::Store => {
                    num_stores += 1;
                    let Some(sloc) = addr.loc(id) else {
                        unknown = num_stores;
                        continue;
                    };
                    let base = sloc.addr.base;
                    if !f.is_arg(base) {
                        foreign = num_stores;
                    }
                    if recent[0].0 != Some(base) {
                        recent[1] = recent[0];
                    }
                    recent[0] = (Some(base), num_stores);
                    by_base.entry(base).or_default().push((num_stores, sloc));
                }
                Opcode::Load => {
                    // The load's epoch is the most recent store that may
                    // alias it; a load with no address expression
                    // conservatively depends on every store so far.
                    let epoch = match addr.loc(id) {
                        Some(lloc) => {
                            let base = lloc.addr.base;
                            let other_base = if f.is_arg(base) {
                                foreign
                            } else {
                                recent.iter().find(|r| r.0 != Some(base)).map_or(0, |r| r.1)
                            };
                            let floor = unknown.max(other_base);
                            by_base
                                .get(&base)
                                .and_then(|stores| {
                                    stores
                                        .iter()
                                        .rev()
                                        .take_while(|&&(n, _)| n > floor)
                                        .find(|&&(_, sloc)| may_alias(f, lloc, sloc))
                                })
                                .map_or(floor, |&(n, _)| n)
                        }
                        None => num_stores,
                    };
                    load_epoch.insert(id, epoch);
                }
                _ => {}
            }
        }
        MemDep { load_epoch, num_stores }
    }

    /// The memory epoch of load `v`: 1-based index of the latest preceding
    /// may-aliasing store, 0 when the load reads initial memory. `None` if
    /// `v` is not a load of the analyzed body.
    pub fn load_epoch(&self, v: ValueId) -> Option<usize> {
        self.load_epoch.get(&v).copied()
    }

    /// Number of stores in the analyzed body.
    pub fn num_stores(&self) -> usize {
        self.num_stores
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::test_rng::Rng;
    use lslp_ir::{FunctionBuilder, ScalarType, Type};

    #[test]
    fn epochs_split_around_aliasing_stores() {
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let b_ = f.add_param("B", Type::PTR);
        let x = f.add_param("x", Type::I64);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let ga = b.gep(a, i, 8);
        let l1 = b.load(Type::I64, ga);
        let gb = b.gep(b_, i, 8);
        b.store(x, gb); // distinct base: does not advance A's epoch
        let l2 = b.load(Type::I64, ga);
        b.store(x, ga); // overwrites A[i]
        let l3 = b.load(Type::I64, ga);
        let addr = AddrInfo::analyze(&f);
        let md = MemDep::analyze(&f, &addr);
        assert_eq!(md.load_epoch(l1), Some(0));
        assert_eq!(md.load_epoch(l2), Some(0), "store to B must not block");
        assert_eq!(md.load_epoch(l3), Some(2), "store to A[i] advances the epoch");
        assert_eq!(md.num_stores(), 2);
        assert_eq!(md.load_epoch(ga), None, "geps are not loads");
    }

    #[test]
    fn wild_store_newer_than_every_same_base_store() {
        // Stores to A[i], then through a loaded pointer Q (not a
        // parameter): every later load of A reads past the Q store, even
        // A[i+1], which the A[i] store leaves alone.
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let x = f.add_param("x", Type::I64);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let one = b.func().const_i64(1);
        let ga = b.gep(a, i, 8);
        let slot = b.gep(a, one, 8);
        let q = b.load(Type::PTR, slot);
        b.store(x, ga);
        let i1 = b.add(i, one);
        let ga1 = b.gep(a, i1, 8);
        let l1 = b.load(Type::I64, ga1);
        let gq = b.gep(q, i, 8);
        b.store(x, gq);
        let l2 = b.load(Type::I64, ga1);
        let l3 = b.load(Type::I64, ga);
        let gq1 = b.gep(q, i1, 8);
        let l4 = b.load(Type::I64, gq1);
        let addr = AddrInfo::analyze(&f);
        let md = MemDep::analyze(&f, &addr);
        assert_eq!(md.load_epoch(q), Some(0));
        assert_eq!(md.load_epoch(l1), Some(0), "A[i] and A[i+1] are disjoint");
        assert_eq!(md.load_epoch(l2), Some(2), "the Q store may alias A[i+1]");
        assert_eq!(md.load_epoch(l3), Some(2), "the Q store is newer than A[i]'s");
        assert_eq!(md.load_epoch(l4), Some(1), "Q[i+1] misses Q[i] but not A[i]");
        assert_eq!(md.load_epoch(l4), reference(&f, &addr).0.get(&l4).copied());
    }

    /// The all-stores scan `analyze` replaced: every load tests every
    /// earlier store, newest first.
    fn reference(f: &Function, addr: &AddrInfo) -> (HashMap<ValueId, usize>, usize) {
        let mut load_epoch = HashMap::default();
        let mut stores: Vec<ValueId> = Vec::new();
        for (_, id, inst) in f.iter_body() {
            match inst.op {
                Opcode::Store => stores.push(id),
                Opcode::Load => {
                    let epoch = match addr.loc(id) {
                        Some(lloc) => stores
                            .iter()
                            .rposition(|&s| match addr.loc(s) {
                                Some(sloc) => may_alias(f, lloc, sloc),
                                None => true,
                            })
                            .map(|p| p + 1)
                            .unwrap_or(0),
                        None => stores.len(),
                    };
                    load_epoch.insert(id, epoch);
                }
                _ => {}
            }
        }
        (load_epoch, stores.len())
    }

    /// A random function of loads and stores. The accesses go through 1–4
    /// pointer parameters and two pointers loaded from memory, at `i + c`
    /// (constant distances that overlap or not), `i*i` and `j` (unknown
    /// distances), with 4- and 8-byte elements and strides. With `holes`,
    /// about one store in four is built as an `add` instead, so an address
    /// analysis of that twin has no location for the store.
    fn random_function(seed: u64, holes: bool) -> Function {
        let mut r = Rng(seed);
        let mut f = Function::new("t");
        let params: Vec<ValueId> =
            (0..1 + r.below(4)).map(|k| f.add_param(format!("P{k}"), Type::PTR)).collect();
        let i = f.add_param("i", Type::I64);
        let j = f.add_param("j", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let mut bases = params.clone();
        for p in [params[0], params[params.len() - 1]] {
            let slot = b.gep(p, j, 8);
            bases.push(b.load(Type::PTR, slot));
        }
        let sq = b.mul(i, i);
        for _ in 0..4 + r.below(40) {
            let base = bases[r.below(bases.len())];
            let idx = match r.below(5) {
                0 => sq,
                1 => j,
                _ => {
                    let c = b.func().const_i64(r.below(7) as i64 - 3);
                    b.add(i, c)
                }
            };
            let (ty, stride) = [
                (ScalarType::I64, 8),
                (ScalarType::I32, 4),
                (ScalarType::I64, 4),
                (ScalarType::I32, 8),
            ][r.below(4)];
            let p = b.gep(base, idx, stride);
            let (store, hole) = (r.below(2) == 0, r.below(4) == 0);
            let v = b.func().const_int(ty, 5);
            match (store, holes && hole) {
                (false, _) => b.load(Type::Scalar(ty), p),
                (true, false) => b.store(v, p),
                (true, true) => b.add(v, v),
            };
        }
        f
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn analyze_matches_all_stores_scan(seed in any::<u64>()) {
            let f = random_function(seed, false);
            let twin = AddrInfo::analyze(&random_function(seed, true));
            for addr in [AddrInfo::analyze(&f), twin] {
                let md = MemDep::analyze(&f, &addr);
                let (epochs, num_stores) = reference(&f, &addr);
                prop_assert_eq!(md.num_stores(), num_stores);
                prop_assert_eq!(&md.load_epoch, &epochs);
            }
        }
    }

    /// The generator is not degenerate: loads read initial memory, the
    /// latest store, and an older store.
    #[test]
    fn random_cases_cover_every_epoch_kind() {
        let mut kinds = [0usize; 3];
        for seed in 0..200 {
            let f = random_function(seed, false);
            let (epochs, _) = reference(&f, &AddrInfo::analyze(&f));
            let mut stores = 0;
            for (_, id, inst) in f.iter_body() {
                match inst.op {
                    Opcode::Store => stores += 1,
                    Opcode::Load if stores > 0 => {
                        let kind = match epochs[&id] {
                            0 => 0,
                            e if e == stores => 1,
                            _ => 2,
                        };
                        kinds[kind] += 1;
                    }
                    _ => {}
                }
            }
        }
        assert!(kinds.iter().all(|&n| n > 0), "{kinds:?}");
    }
}
