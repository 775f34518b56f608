//! Trivial dead-code elimination.
//!
//! After vector code generation the scalar instructions whose results were
//! fully superseded by vector values have no remaining users; this pass
//! sweeps them (and the address computations that die with them). Stores
//! are side-effecting and never removed here — the vectorizer deletes the
//! scalar stores it replaces explicitly.

use lslp_ir::hash::HashSet;
use lslp_ir::{Function, Module, ValueId};

/// Remove side-effect-free instructions with no users, transitively (an
/// instruction whose only users are dead is dead too). One use count and
/// a worklist, so the cost is linear in the body. Returns the number of
/// instructions removed.
pub fn run(f: &mut Function) -> usize {
    let mut uses = vec![0usize; f.num_values()];
    let mut in_body = vec![false; f.num_values()];
    for (_, v, inst) in f.iter_body() {
        in_body[v.index()] = true;
        for &a in &inst.args {
            if let Some(n) = uses.get_mut(a.index()) {
                *n += 1;
            }
        }
    }
    let removable = |f: &Function, v: ValueId| {
        in_body[v.index()] && !f.inst(v).is_some_and(|i| i.op.has_side_effect())
    };
    let mut work: Vec<ValueId> =
        f.body().iter().copied().filter(|&v| uses[v.index()] == 0 && removable(f, v)).collect();
    let mut dead: HashSet<ValueId> = HashSet::default();
    while let Some(v) = work.pop() {
        if !dead.insert(v) {
            continue;
        }
        for &a in f.args_of(v) {
            let Some(n) = uses.get_mut(a.index()) else { continue };
            *n -= 1;
            if *n == 0 && removable(f, a) && !dead.contains(&a) {
                work.push(a);
            }
        }
    }
    f.remove_from_body(&dead);
    dead.len()
}

/// Run DCE over every function of a module; returns total removals.
pub fn run_module(m: &mut Module) -> usize {
    m.functions.iter_mut().map(run).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_ir::{FunctionBuilder, Type};

    #[test]
    fn removes_transitively_dead_chains() {
        let mut f = Function::new("d");
        let a = f.add_param("a", Type::I64);
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let x = b.add(a, a); // dead via y
        let _y = b.mul(x, a); // dead
        let z = b.sub(a, a); // live (stored)
        b.store(z, p);
        assert_eq!(run(&mut f), 2);
        assert_eq!(f.body_len(), 2);
        lslp_ir::verify_function(&f).unwrap();
    }

    #[test]
    fn keeps_stores_and_their_inputs() {
        let mut f = Function::new("d");
        let a = f.add_param("a", Type::I64);
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let g = b.gep(p, a, 8);
        let x = b.add(a, a);
        b.store(x, g);
        assert_eq!(run(&mut f), 0);
        assert_eq!(f.body_len(), 3);
    }

    #[test]
    fn dead_loads_are_removed() {
        let mut f = Function::new("d");
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let _l = b.load(Type::I64, p);
        assert_eq!(run(&mut f), 1);
        assert_eq!(f.body_len(), 0);
    }
}
