//! Seed collection (paper §2.2, step 1).
//!
//! The most promising vectorization seeds are groups of non-dependent store
//! instructions accessing adjacent memory locations. This module finds all
//! maximal *store chains*: runs of stores to the same symbolic base whose
//! constant offsets are consecutive multiples of the access size.

use lslp_analysis::AddrInfo;
use lslp_ir::{Function, Opcode, ValueId};

/// A maximal run of consecutive stores, in increasing address order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreChain {
    /// The stores, ordered by address.
    pub stores: Vec<ValueId>,
    /// Element size in bytes.
    pub elem_bytes: u32,
}

impl StoreChain {
    /// Number of stores in the chain.
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// Whether the chain is empty (never produced by collection).
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }
}

/// Collect all store chains of length ≥ 2 in body order of their first
/// member.
pub fn collect_store_chains(f: &Function, addr: &AddrInfo) -> Vec<StoreChain> {
    // Group stores by (base, symbolic terms, access size).
    #[derive(PartialEq, Eq, Hash)]
    struct Key {
        base: ValueId,
        terms: Vec<(ValueId, i64)>,
        bytes: u32,
    }
    let mut groups: std::collections::HashMap<Key, Vec<(i64, usize, ValueId)>> =
        std::collections::HashMap::new();
    for (pos, id, inst) in f.iter_body() {
        if inst.op != Opcode::Store {
            continue;
        }
        let Some(loc) = addr.loc(id) else { continue };
        let key =
            Key { base: loc.addr.base, terms: loc.addr.offset.terms.clone(), bytes: loc.bytes };
        groups.entry(key).or_default().push((loc.addr.offset.konst, pos, id));
    }

    let mut chains = Vec::new();
    for (key, mut members) in groups {
        members.sort();
        let mut run: Vec<(usize, ValueId)> = Vec::new();
        let mut last_off = None;
        for (off, pos, id) in members {
            match last_off {
                Some(prev) if off == prev => {
                    // Duplicate address (two stores to the same slot): keep
                    // the later one out; end the run here to stay sound.
                    flush(&mut chains, &mut run, key.bytes);
                    run.push((pos, id));
                }
                Some(prev) if off == prev + key.bytes as i64 => run.push((pos, id)),
                _ => {
                    flush(&mut chains, &mut run, key.bytes);
                    run.push((pos, id));
                }
            }
            last_off = Some(off);
        }
        flush(&mut chains, &mut run, key.bytes);
    }
    // Deterministic order: by first member's body position (chains are
    // disjoint, so these positions are distinct).
    chains.sort_by_key(|&(first, _)| first);
    chains.into_iter().map(|(_, c)| c).collect()
}

/// Close `run`: keep it as a chain, keyed by its earliest body position,
/// when it holds at least two stores.
fn flush(chains: &mut Vec<(usize, StoreChain)>, run: &mut Vec<(usize, ValueId)>, elem_bytes: u32) {
    if run.len() >= 2 {
        let first = run.iter().map(|&(pos, _)| pos).min().expect("run is non-empty");
        let stores = run.iter().map(|&(_, id)| id).collect();
        chains.push((first, StoreChain { stores, elem_bytes }));
    }
    run.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_ir::{FunctionBuilder, ScalarType, Type};

    fn store_at(f: &mut Function, arr: ValueId, i: ValueId, off: i64, val: ValueId) -> ValueId {
        let mut b = FunctionBuilder::new(f);
        let c = b.func().const_i64(off);
        let idx = b.add(i, c);
        let g = b.gep(arr, idx, 8);
        b.store(val, g)
    }

    #[test]
    fn finds_simple_chain() {
        let mut f = Function::new("s");
        let a = f.add_param("A", Type::PTR);
        let x = f.add_param("x", Type::I64);
        let i = f.add_param("i", Type::I64);
        let s0 = store_at(&mut f, a, i, 0, x);
        let s1 = store_at(&mut f, a, i, 1, x);
        let s2 = store_at(&mut f, a, i, 2, x);
        let addr = AddrInfo::analyze(&f);
        let chains = collect_store_chains(&f, &addr);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].stores, vec![s0, s1, s2]);
        assert_eq!(chains[0].elem_bytes, 8);
    }

    #[test]
    fn out_of_order_stores_sort_by_address() {
        let mut f = Function::new("s");
        let a = f.add_param("A", Type::PTR);
        let x = f.add_param("x", Type::I64);
        let i = f.add_param("i", Type::I64);
        let s1 = store_at(&mut f, a, i, 1, x);
        let s0 = store_at(&mut f, a, i, 0, x);
        let addr = AddrInfo::analyze(&f);
        let chains = collect_store_chains(&f, &addr);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].stores, vec![s0, s1]);
    }

    #[test]
    fn gaps_split_chains() {
        let mut f = Function::new("s");
        let a = f.add_param("A", Type::PTR);
        let x = f.add_param("x", Type::I64);
        let i = f.add_param("i", Type::I64);
        let s0 = store_at(&mut f, a, i, 0, x);
        let s1 = store_at(&mut f, a, i, 1, x);
        let _lone = store_at(&mut f, a, i, 4, x); // isolated: in no chain
        let s6 = store_at(&mut f, a, i, 6, x);
        let s7 = store_at(&mut f, a, i, 7, x);
        let addr = AddrInfo::analyze(&f);
        let chains = collect_store_chains(&f, &addr);
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].stores, vec![s0, s1]);
        assert_eq!(chains[1].stores, vec![s6, s7]);
    }

    #[test]
    fn different_arrays_do_not_mix() {
        let mut f = Function::new("s");
        let a = f.add_param("A", Type::PTR);
        let b_ = f.add_param("B", Type::PTR);
        let x = f.add_param("x", Type::I64);
        let i = f.add_param("i", Type::I64);
        store_at(&mut f, a, i, 0, x);
        store_at(&mut f, b_, i, 1, x);
        let addr = AddrInfo::analyze(&f);
        assert!(collect_store_chains(&f, &addr).is_empty());
    }

    #[test]
    fn mixed_widths_do_not_mix() {
        let mut f = Function::new("s");
        let a = f.add_param("A", Type::PTR);
        let x32 = f.add_param("x", Type::Scalar(ScalarType::I32));
        let y64 = f.add_param("y", Type::I64);
        let i = f.add_param("i", Type::I64);
        {
            let mut b = FunctionBuilder::new(&mut f);
            let g = b.gep(a, i, 8);
            b.store(x32, g);
        }
        {
            let mut b = FunctionBuilder::new(&mut f);
            let one = b.func().const_i64(1);
            let idx = b.add(i, one);
            let g = b.gep(a, idx, 8);
            b.store(y64, g);
        }
        let addr = AddrInfo::analyze(&f);
        assert!(collect_store_chains(&f, &addr).is_empty());
    }

    #[test]
    fn duplicate_addresses_break_runs() {
        let mut f = Function::new("s");
        let a = f.add_param("A", Type::PTR);
        let x = f.add_param("x", Type::I64);
        let i = f.add_param("i", Type::I64);
        let s0 = store_at(&mut f, a, i, 0, x);
        let s1 = store_at(&mut f, a, i, 1, x);
        let _dup = store_at(&mut f, a, i, 1, x);
        let addr = AddrInfo::analyze(&f);
        let chains = collect_store_chains(&f, &addr);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].stores, vec![s0, s1]);
    }
}
