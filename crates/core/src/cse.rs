//! Local common-subexpression elimination (value numbering).
//!
//! Pure instructions (arithmetic, `gep`, shuffles, compares) with identical
//! opcode, type, operands, and attributes are merged into the first
//! occurrence. Loads are merged only when no possibly-aliasing store
//! intervenes; stores are barriers and never merged.

use lslp_analysis::AnalysisManager;
use lslp_ir::hash::{Entry, HashMap, HashSet};
use lslp_ir::{Function, InstAttr, Module, Opcode, Operands, Type, ValueId};

#[derive(PartialEq, Eq, Hash)]
struct Key<'a> {
    op: Opcode,
    ty: Type,
    /// Operands held in place, as in the instruction, so building a key
    /// allocates nothing.
    args: Operands,
    attr: &'a InstAttr,
    /// For loads: the index of the last store that may alias this address
    /// (loads merge only within the same "memory epoch").
    mem_epoch: usize,
}

/// Run one CSE pass; returns the number of instructions merged away.
/// (Standalone entry point: computes its analyses into a throwaway
/// manager. The pipeline uses [`run_with`] to share the cache.)
pub fn run(f: &mut Function) -> usize {
    run_with(f, &mut AnalysisManager::new())
}

/// [`run`], pulling the memory-dependence summary from `am`'s cache.
pub fn run_with(f: &mut Function, am: &mut AnalysisManager) -> usize {
    let memdep = am.memdep(f);
    // Both maps are sized for the body up front: growing them by
    // rehashing showed in profiles of large functions.
    let n = f.body_len();
    let mut table: HashMap<Key, ValueId> = HashMap::with_capacity_and_hasher(n, Default::default());
    // Map from merged-away values to their representative, applied eagerly
    // while scanning so chains of duplicates (dup gep feeding dup load)
    // merge in a single pass, then handed to one batched use rewrite.
    let mut resolved: HashMap<ValueId, ValueId> =
        HashMap::with_capacity_and_hasher(n, Default::default());
    let resolve = |resolved: &HashMap<ValueId, ValueId>, v: ValueId| -> ValueId {
        resolved.get(&v).copied().unwrap_or(v)
    };
    for (_, id, inst) in f.iter_body() {
        // Stores are barriers and never merge. A load's memory epoch is
        // precomputed by the MemDep analysis; a conservative fallback is
        // "any store".
        let mem_epoch = match inst.op {
            Opcode::Store => continue,
            Opcode::Load => memdep.load_epoch(id).unwrap_or(memdep.num_stores()),
            _ => 0,
        };
        let key = Key {
            op: inst.op,
            ty: inst.ty,
            args: inst.args.iter().map(|&a| resolve(&resolved, a)).collect(),
            attr: &inst.attr,
            mem_epoch,
        };
        match table.entry(key) {
            Entry::Occupied(first) => {
                resolved.insert(id, *first.get());
            }
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
        }
    }

    f.replace_uses_with(&resolved);
    f.remove_from_body(&resolved.keys().copied().collect::<HashSet<_>>());
    resolved.len()
}

/// CSE every function of a module; returns total merges.
pub fn run_module(m: &mut Module) -> usize {
    m.functions.iter_mut().map(run).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_ir::{FunctionBuilder, Type};

    #[test]
    fn merges_pure_duplicates() {
        let mut f = Function::new("t");
        let x = f.add_param("x", Type::I64);
        let y = f.add_param("y", Type::I64);
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let a1 = b.add(x, y);
        let a2 = b.add(x, y);
        let s = b.mul(a1, a2);
        b.store(s, p);
        assert_eq!(run(&mut f), 1);
        let text = lslp_ir::print_function(&f);
        assert_eq!(text.matches("add i64").count(), 1, "{text}");
        // The surviving mul squares the shared value.
        assert!(text.contains("mul i64 %0, %0"), "{text}");
    }

    #[test]
    fn does_not_merge_commuted_operands() {
        // CSE is syntactic: add(x, y) != add(y, x). (Canonicalization in
        // `simplify` handles the constant case.)
        let mut f = Function::new("t");
        let x = f.add_param("x", Type::I64);
        let y = f.add_param("y", Type::I64);
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let a1 = b.add(x, y);
        let a2 = b.add(y, x);
        let s = b.mul(a1, a2);
        b.store(s, p);
        assert_eq!(run(&mut f), 0);
    }

    #[test]
    fn merges_loads_without_intervening_alias() {
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let bp = f.add_param("B", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let g1 = b.gep(a, i, 8);
        let l1 = b.load(Type::I64, g1);
        // Store to a *different* array: loads of A may still merge.
        let gb = b.gep(bp, i, 8);
        b.store(l1, gb);
        let g2 = b.gep(a, i, 8);
        let l2 = b.load(Type::I64, g2);
        let one = b.func().const_i64(1);
        let i1 = b.add(i, one);
        let gb2 = b.gep(bp, i1, 8);
        b.store(l2, gb2);
        let merged = run(&mut f);
        // gep dup + load dup merge.
        assert_eq!(merged, 2);
        let text = lslp_ir::print_function(&f);
        assert_eq!(text.matches("load i64").count(), 1, "{text}");
    }

    #[test]
    fn aliasing_store_blocks_load_merge() {
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let x = f.add_param("x", Type::I64);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let g = b.gep(a, i, 8);
        let l1 = b.load(Type::I64, g);
        b.store(x, g); // overwrites A[i]
        let l2 = b.load(Type::I64, g);
        let s = b.add(l1, l2);
        b.store(s, g);
        let merged = run(&mut f);
        assert_eq!(merged, 0, "the store must block the merge");
        let text = lslp_ir::print_function(&f);
        assert_eq!(text.matches("load i64").count(), 2, "{text}");
    }

    #[test]
    fn attrs_distinguish_instructions() {
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let g4 = b.gep(a, i, 4);
        let g8 = b.gep(a, i, 8);
        let l4 = b.load(Type::Scalar(lslp_ir::ScalarType::I32), g4);
        let l8 = b.load(Type::I64, g8);
        let _ = (l4, l8);
        assert_eq!(run(&mut f), 0, "different gep strides must not merge");
    }

    #[test]
    fn merging_nothing_leaves_the_epoch_unchanged() {
        let mut f = Function::new("t");
        let x = f.add_param("x", Type::I64);
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let a = b.add(x, x);
        b.store(a, p);
        let e0 = f.epoch();
        assert_eq!(run(&mut f), 0);
        assert_eq!(f.epoch(), e0, "a no-op CSE run must not look like a mutation");
    }
}
