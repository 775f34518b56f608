//! Control-flow graph data model: blocks, block parameters, terminators,
//! and counted-loop regions.
//!
//! A [`crate::Function`] is either *straight-line* (its classic single
//! ordered body, `cfg() == None`) or a *CFG function*: the body is empty
//! and all instructions live inside the blocks of a [`Cfg`]. Block
//! parameters are the phi-equivalents: every edge that enters a block
//! supplies one argument per parameter.
//!
//! The loop construct is deliberately structured rather than free-form: a
//! [`Terminator::Loop`] names a compile-time trip count, a body-entry
//! block, the loop-carried initial values, and an exit block. The body
//! region runs `trip` times; each iteration ends at a
//! [`Terminator::Continue`] whose arguments become the next iteration's
//! carried values (the body entry's parameters are `[iv, carried...]`,
//! with the induction variable counting `0..trip`). After the final
//! iteration the exit block's parameters receive the carried values.
//! This is exactly the shape the unroll-and-SLP pass consumes, and it
//! keeps verification and interpretation simple and total.

use std::collections::HashMap;
use std::fmt;

use crate::value::ValueId;

/// Identifies one basic block within a function's [`Cfg`].
///
/// Displays as the printed label `bbN`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BlockId(u32);

impl BlockId {
    /// Construct from a raw index (for the parser and tests).
    pub fn from_raw(raw: u32) -> BlockId {
        BlockId(raw)
    }

    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// How control leaves a basic block.
#[derive(Clone, PartialEq, Debug)]
pub enum Terminator {
    /// Return from the function.
    Ret,
    /// Unconditional branch, passing one argument per target parameter.
    Jump {
        /// The successor block.
        target: BlockId,
        /// Arguments bound to the target's block parameters.
        args: Vec<ValueId>,
    },
    /// Conditional branch on a scalar `i8` condition (`!= 0` takes the
    /// then edge).
    Br {
        /// The branch condition (scalar `i8`).
        cond: ValueId,
        /// Successor when the condition is nonzero.
        then_to: BlockId,
        /// Arguments for `then_to`'s parameters.
        then_args: Vec<ValueId>,
        /// Successor when the condition is zero.
        else_to: BlockId,
        /// Arguments for `else_to`'s parameters.
        else_args: Vec<ValueId>,
    },
    /// A counted loop region with a compile-time trip count.
    ///
    /// `trip` must verify as a constant `i64` ≥ 1. The body entry's
    /// parameters are `[iv: i64, carried...]` with `carried` matching
    /// `init`; each iteration runs the body region until a
    /// [`Terminator::Continue`], whose arguments are the next carried
    /// values. After `trip` iterations the exit block's parameters (one
    /// per `init` entry) receive the final carried values.
    Loop {
        /// The trip count (a constant `i64` value ≥ 1).
        trip: ValueId,
        /// The body-entry block.
        body: BlockId,
        /// Initial values of the loop-carried parameters.
        init: Vec<ValueId>,
        /// The block control reaches after the final iteration.
        exit: BlockId,
    },
    /// End one loop iteration, supplying the next carried values. Only
    /// legal inside a loop body region.
    Continue {
        /// The carried values for the next iteration (or the exit block's
        /// parameters after the final one).
        args: Vec<ValueId>,
    },
}

impl Terminator {
    /// The successor blocks this terminator can transfer control to
    /// (`Continue` has none — its successor is determined by the
    /// enclosing loop).
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Ret | Terminator::Continue { .. } => Vec::new(),
            Terminator::Jump { target, .. } => vec![*target],
            Terminator::Br { then_to, else_to, .. } => vec![*then_to, *else_to],
            Terminator::Loop { body, exit, .. } => vec![*body, *exit],
        }
    }

    /// All value operands referenced by this terminator (condition, trip
    /// count, and every edge argument).
    pub fn value_operands(&self) -> Vec<ValueId> {
        match self {
            Terminator::Ret => Vec::new(),
            Terminator::Jump { args, .. } => args.clone(),
            Terminator::Br { cond, then_args, else_args, .. } => {
                let mut v = vec![*cond];
                v.extend_from_slice(then_args);
                v.extend_from_slice(else_args);
                v
            }
            Terminator::Loop { trip, init, .. } => {
                let mut v = vec![*trip];
                v.extend_from_slice(init);
                v
            }
            Terminator::Continue { args } => args.clone(),
        }
    }

    /// Rewrite every value operand through `map` (used by
    /// [`crate::Function::replace_uses_with`] on CFG functions). Returns
    /// `true` when anything changed.
    pub(crate) fn rewrite_operands(&mut self, map: &HashMap<ValueId, ValueId>) -> bool {
        let mut changed = false;
        let mut fix = |v: &mut ValueId| {
            if let Some(&new) = map.get(v) {
                *v = new;
                changed = true;
            }
        };
        match self {
            Terminator::Ret => {}
            Terminator::Jump { args, .. } => args.iter_mut().for_each(&mut fix),
            Terminator::Br { cond, then_args, else_args, .. } => {
                fix(cond);
                then_args.iter_mut().for_each(&mut fix);
                else_args.iter_mut().for_each(&mut fix);
            }
            Terminator::Loop { trip, init, .. } => {
                fix(trip);
                init.iter_mut().for_each(&mut fix);
            }
            Terminator::Continue { args } => args.iter_mut().for_each(&mut fix),
        }
        changed
    }
}

/// One basic block: parameters (phi-equivalents), an ordered instruction
/// list, and a terminator.
#[derive(Clone, PartialEq, Debug)]
pub struct Block {
    pub(crate) params: Vec<ValueId>,
    pub(crate) insts: Vec<ValueId>,
    pub(crate) term: Terminator,
}

impl Block {
    pub(crate) fn new() -> Block {
        Block { params: Vec::new(), insts: Vec::new(), term: Terminator::Ret }
    }

    /// The block parameters, in declaration order.
    pub fn params(&self) -> &[ValueId] {
        &self.params
    }

    /// The block's instructions, in execution order.
    pub fn insts(&self) -> &[ValueId] {
        &self.insts
    }

    /// The block terminator.
    pub fn term(&self) -> &Terminator {
        &self.term
    }
}

/// The control-flow graph of a function: an arena of [`Block`]s with
/// block 0 as the entry.
#[derive(Clone, PartialEq, Debug)]
pub struct Cfg {
    pub(crate) blocks: Vec<Block>,
}

impl Cfg {
    pub(crate) fn new() -> Cfg {
        Cfg { blocks: vec![Block::new()] }
    }

    /// The entry block (always block 0).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Number of blocks (including unreachable ones).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// All block ids, in arena order.
    pub fn block_ids(&self) -> impl DoubleEndedIterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// The block data for `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` does not belong to this CFG.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Whether `b` names a block of this CFG.
    pub fn contains(&self, b: BlockId) -> bool {
        b.index() < self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ids_display_as_labels() {
        assert_eq!(BlockId::from_raw(0).to_string(), "bb0");
        assert_eq!(BlockId::from_raw(7).to_string(), "bb7");
        assert_eq!(BlockId::from_raw(3).index(), 3);
    }

    #[test]
    fn successors_per_terminator() {
        let b1 = BlockId::from_raw(1);
        let b2 = BlockId::from_raw(2);
        let v = ValueId::from_raw(0);
        assert!(Terminator::Ret.successors().is_empty());
        assert!(Terminator::Continue { args: vec![v] }.successors().is_empty());
        assert_eq!(Terminator::Jump { target: b1, args: vec![] }.successors(), vec![b1]);
        let br = Terminator::Br {
            cond: v,
            then_to: b1,
            then_args: vec![],
            else_to: b2,
            else_args: vec![],
        };
        assert_eq!(br.successors(), vec![b1, b2]);
        let lp = Terminator::Loop { trip: v, body: b1, init: vec![], exit: b2 };
        assert_eq!(lp.successors(), vec![b1, b2]);
    }

    #[test]
    fn rewrite_operands_touches_every_slot() {
        let a = ValueId::from_raw(4);
        let b = ValueId::from_raw(9);
        let mut t = Terminator::Br {
            cond: a,
            then_to: BlockId::from_raw(1),
            then_args: vec![a, b],
            else_to: BlockId::from_raw(2),
            else_args: vec![b, a],
        };
        let map = HashMap::from([(a, b)]);
        assert!(t.rewrite_operands(&map));
        assert_eq!(t.value_operands(), vec![b, b, b, b, b]);
        assert!(!t.rewrite_operands(&map), "nothing left to rewrite");
    }
}
