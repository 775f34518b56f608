//! Functions, modules, use-def bookkeeping, and the delta-undo
//! transaction log.
//!
//! All values live in index-addressed arenas inside [`Function`]: the value
//! arena (indexed by [`ValueId`]) holds small, cheaply-movable payloads, and
//! constants are interned once into a per-function pool (indexed by
//! [`ConstId`]) so the arena entry for a constant is a copyable id rather
//! than a (potentially large, e.g. vector) payload.
//!
//! Mutation is transactional: inside a [`Function::begin_txn`] /
//! [`Function::commit_txn`] / [`Function::rollback_txn`] window, every
//! mutating method appends a reversible [`Delta`] record, and rollback
//! replays only the touched records — O(changes), not O(function) — while
//! restoring the pre-transaction epoch so epoch-keyed analysis caches stay
//! warm. Outside a transaction no records are kept and mutation is
//! log-free. Inside one, the log doubles as an edit journal: body edits are
//! recorded per instruction, so [`Function::edits_since`] lets analyses
//! catch up with a commit in O(changes) (see [`crate::PositionMap`]).

use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::cfg::{Block, BlockId, Cfg, Terminator};
use crate::hash::{HashMap, HashSet};
use crate::inst::{Inst, InstAttr, Opcode};
use crate::maps::{PositionMap, UseMap};
use crate::types::Type;
use crate::value::{ConstId, Constant, ValueId};

/// Process-wide source of mutation epochs. Every mutation of any function
/// draws a fresh value, so an epoch identifies *one specific content state*
/// of one function: two functions (or two states of the same function) with
/// equal epochs are guaranteed identical. Cached analyses key on this.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Draw a fresh, never-before-seen epoch.
///
/// Ordering rationale: `Relaxed` is sufficient. The entire contract —
/// "every draw returns a distinct value, and the values handed out are
/// monotone along the counter's modification order" — is a property of the
/// single atomic read-modify-write itself: `fetch_add` on one cell is
/// guaranteed to observe and produce a total modification order regardless
/// of memory-ordering strength, so no two threads can ever receive the same
/// epoch and no draw can return a value below one already handed out.
/// Stronger orderings (`Acquire`/`Release`/`SeqCst`) would only add
/// synchronizes-with edges to *other* memory locations, and the epoch
/// protocol never relies on such edges: an epoch is compared for equality
/// against values stored in the same-thread `Function` it stamps, never
/// used to publish unrelated data across threads.
fn fresh_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// The payload stored for each [`ValueId`] of a function.
#[derive(Clone, PartialEq, Debug)]
pub enum ValueData {
    /// A function parameter.
    Arg {
        /// Zero-based parameter position.
        index: u32,
        /// The parameter type.
        ty: Type,
    },
    /// An interned constant; the payload lives in the function's constant
    /// pool and is resolved via [`Function::const_value`].
    Const(ConstId),
    /// An instruction; only instructions appear in the body.
    Inst(Inst),
    /// A block parameter (phi-equivalent) of a CFG function. Bound per
    /// incoming edge by the predecessor's terminator arguments.
    BlockParam {
        /// The parameter type.
        ty: Type,
    },
}

/// One reversible mutation record in a function's [`DeltaLog`].
///
/// Each mutating method of [`Function`] appends exactly the records needed
/// to undo itself, in operation order; [`Function::rollback_txn`] pops and
/// undoes them in reverse. Records are only kept while a transaction is
/// open ([`Function::in_txn`]).
#[derive(Clone, Debug)]
enum Delta {
    /// A value was allocated at the end of the arena.
    Alloc { v: ValueId },
    /// A constant was interned at the end of the pool.
    ConstIntern,
    /// A parameter handle was appended.
    ParamPush,
    /// Instruction `v` was inserted into the body at index `at`, between
    /// `prev` and `next` (its neighbours at the time).
    BodyInsert { at: usize, v: ValueId, prev: Option<ValueId>, next: Option<ValueId> },
    /// Instruction `v` was removed from body index `at`.
    BodyRemove { at: usize, v: ValueId },
    /// The whole body order was replaced; `old` is the previous order.
    BodyReplace { old: Vec<ValueId> },
    /// A value's debug name was set; `old` is the previous name.
    SetName { v: ValueId, old: Option<String> },
    /// An instruction payload was (possibly) mutated in place; `old` is the
    /// full previous record.
    SetInst { v: ValueId, old: Inst },
    /// A CFG was initialised (one empty entry block).
    CfgInit,
    /// A block was appended to the CFG.
    CfgBlockAdd,
    /// A block parameter was appended to block `b`.
    CfgBlockParamPush { b: BlockId },
    /// An instruction was appended to block `b`.
    CfgInstPush { b: BlockId },
    /// Block `b`'s instruction order was replaced; `old` is the previous
    /// order.
    CfgInstsReplace { b: BlockId, old: Vec<ValueId> },
    /// Block `b`'s parameter list was replaced; `old` is the previous list.
    CfgParamsReplace { b: BlockId, old: Vec<ValueId> },
    /// Block `b`'s terminator was replaced; `old` is the previous one.
    CfgSetTerm { b: BlockId, old: Terminator },
    /// The CFG was dissolved into a straight-line body; `old` is the whole
    /// previous CFG.
    CfgDissolve { old: Cfg },
}

/// A position in a function's delta log plus the epoch at that point.
///
/// Returned by [`Function::begin_txn`]; pass it back to
/// [`Function::commit_txn`] or [`Function::rollback_txn`]. Marks are
/// `Copy` and nest naturally (a mark taken inside an outer transaction
/// rolls back only the inner window).
#[derive(Clone, Copy, Debug)]
pub struct TxnMark {
    len: usize,
    epoch: u64,
}

/// A resumable position in a function's delta log, for analyses that
/// catch up with later edits instead of recomputing (see
/// [`Function::log_cursor`] and [`Function::edits_since`]).
///
/// A cursor stays valid while the records before it are unchanged: it
/// names the stamp of its last record (or of the log's base state), and
/// stamps are never reused, so a rollback below the cursor or a closed
/// transaction invalidates it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LogCursor {
    len: usize,
    stamp: u64,
}

/// One edit since a [`LogCursor`], as [`Function::edits_since`] reports it.
#[derive(Clone, Copy, Debug)]
pub enum Edit<'a> {
    /// Instruction `v` entered the body between `prev` and `next`, its
    /// neighbours at that moment (`None` at either end).
    Insert {
        /// The inserted instruction.
        v: ValueId,
        /// The instruction just before it, if any.
        prev: Option<ValueId>,
        /// The instruction just after it, if any.
        next: Option<ValueId>,
    },
    /// Instruction `v` left the body.
    Remove {
        /// The removed instruction.
        v: ValueId,
    },
    /// The payload of `v` was (possibly) changed; `old` is the payload it
    /// had just before.
    Rewrite {
        /// The rewritten instruction.
        v: ValueId,
        /// Its previous payload.
        old: &'a Inst,
    },
}

/// A straight-line function: parameters, interned constants, and a single
/// ordered list of instructions (the *body*).
///
/// All values live in one arena indexed by [`ValueId`]; constant payloads
/// live once in a pool indexed by [`ConstId`]. Instructions removed from
/// the body stay in the arena as orphans; only body membership defines
/// program semantics.
#[derive(Clone, Debug)]
pub struct Function {
    name: String,
    values: Vec<ValueData>,
    names: Vec<Option<String>>,
    params: Vec<ValueId>,
    body: Vec<ValueId>,
    /// Interned constant payloads, indexed by [`ConstId`].
    consts: Vec<Constant>,
    /// Canonical value handle for each pool entry (1:1 with `consts`).
    const_vals: Vec<ValueId>,
    /// Interning index: constant payload → pool id. Only consulted when
    /// interning (parse/build time), never on the per-attempt hot path.
    const_lookup: HashMap<Constant, ConstId>,
    /// Reversible records for the open transaction window(s), each with
    /// the epoch it was made at; empty when no transaction is open.
    log: Vec<(u64, Delta)>,
    /// The epoch at which the outermost open transaction began: the state
    /// an empty log prefix stands for.
    log_base: u64,
    /// Number of nested open transactions.
    txn_depth: u32,
    /// Mutation epoch: refreshed from a process-wide counter on every
    /// mutation, preserved by `Clone` (a clone has identical content).
    /// Equal epochs imply identical content, so analysis caches keyed by
    /// epoch stay warm across snapshot/rollback cycles.
    epoch: u64,
    /// Control-flow graph, when this is a CFG function. `None` means the
    /// classic straight-line form; `Some` means the body is empty and every
    /// instruction lives in a block.
    cfg: Option<Cfg>,
}

/// Rewrite `user`'s operands through `map`, logging its previous payload
/// when `logging`. Untouched instructions are neither cloned nor logged.
fn rewrite_args<S: BuildHasher>(
    values: &mut [ValueData],
    log: &mut Vec<(u64, Delta)>,
    logging: Option<u64>,
    user: ValueId,
    map: &std::collections::HashMap<ValueId, ValueId, S>,
) {
    let ValueData::Inst(inst) = &mut values[user.index()] else { return };
    if !inst.args.iter().any(|a| map.contains_key(a)) {
        return;
    }
    if let Some(epoch) = logging {
        log.push((epoch, Delta::SetInst { v: user, old: inst.clone() }));
    }
    for arg in &mut inst.args {
        if let Some(&new) = map.get(arg) {
            *arg = new;
        }
    }
}

impl Function {
    /// Create an empty function.
    pub fn new(name: impl Into<String>) -> Function {
        Function {
            name: name.into(),
            values: Vec::new(),
            names: Vec::new(),
            params: Vec::new(),
            body: Vec::new(),
            consts: Vec::new(),
            const_vals: Vec::new(),
            const_lookup: HashMap::default(),
            log: Vec::new(),
            log_base: 0,
            txn_depth: 0,
            epoch: fresh_epoch(),
            cfg: None,
        }
    }

    /// The function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current mutation epoch.
    ///
    /// Every mutating method refreshes this from a process-wide counter, so
    /// an epoch names one specific content state: if two `Function` values
    /// report the same epoch they are bit-identical (clones preserve the
    /// epoch together with the content; a transactional rollback — whether
    /// by snapshot restore or by [`Function::rollback_txn`] delta replay —
    /// therefore also restores the pre-transaction epoch, keeping
    /// epoch-keyed analysis caches warm). Cached analyses compare this
    /// against the epoch they were computed at to detect staleness.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Mark the function as mutated (invalidates epoch-keyed caches).
    fn touch(&mut self) {
        self.epoch = fresh_epoch();
    }

    /// Append a reversible record if a transaction is open.
    fn record(&mut self, d: Delta) {
        if self.txn_depth > 0 {
            self.log.push((self.epoch, d));
        }
    }

    // ----- transactions ---------------------------------------------------

    /// Open a transaction window; mutations from here on are recorded in
    /// the delta log until the matching [`Function::commit_txn`] or
    /// [`Function::rollback_txn`]. Transactions nest: an inner mark rolls
    /// back only the mutations made after it.
    pub fn begin_txn(&mut self) -> TxnMark {
        if self.txn_depth == 0 {
            self.log_base = self.epoch;
        }
        self.txn_depth += 1;
        TxnMark { len: self.log.len(), epoch: self.epoch }
    }

    /// Close the transaction opened at `mark`, keeping its mutations. When
    /// the outermost transaction commits, the log is discarded and its
    /// memory released (a committed attempt costs nothing beyond the
    /// mutations themselves, and a function kept after a large pass does
    /// not hold on to that pass's log).
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn commit_txn(&mut self, mark: TxnMark) {
        assert!(self.txn_depth > 0, "commit_txn without begin_txn");
        debug_assert!(mark.len <= self.log.len(), "stale transaction mark");
        self.txn_depth -= 1;
        if self.txn_depth == 0 {
            self.log = Vec::new();
        }
    }

    /// Close the transaction opened at `mark`, undoing every mutation made
    /// since, in reverse order, and restoring the pre-transaction epoch
    /// (so epoch-keyed analysis caches computed before the transaction stay
    /// warm — the content is bit-identical to the pre-transaction state).
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn rollback_txn(&mut self, mark: TxnMark) {
        assert!(self.txn_depth > 0, "rollback_txn without begin_txn");
        while self.log.len() > mark.len {
            let (_, d) = self.log.pop().expect("log shorter than its mark");
            self.undo(d);
        }
        self.epoch = mark.epoch;
        self.txn_depth -= 1;
        if self.txn_depth == 0 {
            self.log = Vec::new();
        }
    }

    /// Whether a transaction is currently open.
    pub fn in_txn(&self) -> bool {
        self.txn_depth > 0
    }

    /// Number of delta records currently held (0 outside transactions).
    /// Exposed for diagnostics and benchmarks.
    pub fn delta_len(&self) -> usize {
        self.log.len()
    }

    /// The set of values touched since `mark`: allocated, rewritten, or
    /// inserted into or removed from the body. Renames are left out: a
    /// name is not part of what the verifier checks.
    ///
    /// Used by the incremental verifier on commit: an instruction outside
    /// this set none of whose operands is in it kept its payload, its
    /// operands' payloads and its operands' body membership, so it cannot
    /// have become invalid. `None` when the window holds a whole-body or
    /// CFG edit, which names no instructions (verify in full then).
    pub fn touched_since(&self, mark: TxnMark) -> Option<HashSet<ValueId>> {
        let mut touched = HashSet::default();
        for (_, d) in &self.log[mark.len.min(self.log.len())..] {
            match d {
                Delta::Alloc { v }
                | Delta::SetInst { v, .. }
                | Delta::BodyInsert { v, .. }
                | Delta::BodyRemove { v, .. } => {
                    touched.insert(*v);
                }
                Delta::ConstIntern | Delta::ParamPush | Delta::SetName { .. } => {}
                Delta::BodyReplace { .. }
                | Delta::CfgInit
                | Delta::CfgBlockAdd
                | Delta::CfgBlockParamPush { .. }
                | Delta::CfgInstPush { .. }
                | Delta::CfgInstsReplace { .. }
                | Delta::CfgParamsReplace { .. }
                | Delta::CfgSetTerm { .. }
                | Delta::CfgDissolve { .. } => return None,
            }
        }
        Some(touched)
    }

    /// A cursor at the current end of the delta log, for an analysis
    /// computed against the function as it is now. `None` outside a
    /// transaction, where nothing is logged.
    pub fn log_cursor(&self) -> Option<LogCursor> {
        if self.txn_depth == 0 {
            return None;
        }
        let stamp = self.log.last().map_or(self.log_base, |&(epoch, _)| epoch);
        Some(LogCursor { len: self.log.len(), stamp })
    }

    /// The edits made since `cursor`, in order: body insertions and
    /// removals and payload rewrites (allocations, names and interned
    /// constants change no analysis and are left out). `None` when the
    /// records before the cursor are gone (the transaction closed or
    /// rolled back below it) or the window holds a whole-body or CFG edit
    /// that names no instructions; the caller then recomputes.
    pub fn edits_since(&self, cursor: LogCursor) -> Option<Vec<Edit<'_>>> {
        if self.txn_depth == 0 || cursor.len > self.log.len() {
            return None;
        }
        let stamp = match cursor.len {
            0 => self.log_base,
            n => self.log[n - 1].0,
        };
        if stamp != cursor.stamp {
            return None;
        }
        let mut edits = Vec::new();
        for (_, d) in &self.log[cursor.len..] {
            match d {
                Delta::BodyInsert { v, prev, next, .. } => {
                    edits.push(Edit::Insert { v: *v, prev: *prev, next: *next });
                }
                Delta::BodyRemove { v, .. } => edits.push(Edit::Remove { v: *v }),
                Delta::SetInst { v, old } => edits.push(Edit::Rewrite { v: *v, old }),
                Delta::Alloc { .. }
                | Delta::ConstIntern
                | Delta::ParamPush
                | Delta::SetName { .. } => {}
                Delta::BodyReplace { .. }
                | Delta::CfgInit
                | Delta::CfgBlockAdd
                | Delta::CfgBlockParamPush { .. }
                | Delta::CfgInstPush { .. }
                | Delta::CfgInstsReplace { .. }
                | Delta::CfgParamsReplace { .. }
                | Delta::CfgSetTerm { .. }
                | Delta::CfgDissolve { .. } => return None,
            }
        }
        Some(edits)
    }

    /// Undo one record. Called in reverse log order only.
    fn undo(&mut self, d: Delta) {
        match d {
            Delta::Alloc { v } => {
                debug_assert_eq!(v.index() + 1, self.values.len(), "undo out of order");
                self.values.pop();
                self.names.pop();
            }
            Delta::ConstIntern => {
                let c = self.consts.pop().expect("undo ConstIntern on empty pool");
                self.const_vals.pop();
                self.const_lookup.remove(&c);
            }
            Delta::ParamPush => {
                self.params.pop();
            }
            Delta::BodyInsert { at, .. } => {
                self.body.remove(at);
            }
            Delta::BodyRemove { at, v } => {
                self.body.insert(at, v);
            }
            Delta::BodyReplace { old } => {
                self.body = old;
            }
            Delta::SetName { v, old } => {
                self.names[v.index()] = old;
            }
            Delta::SetInst { v, old } => {
                self.values[v.index()] = ValueData::Inst(old);
            }
            Delta::CfgInit => {
                self.cfg = None;
            }
            Delta::CfgBlockAdd => {
                self.cfg_mut().blocks.pop();
            }
            Delta::CfgBlockParamPush { b } => {
                self.cfg_mut().blocks[b.index()].params.pop();
            }
            Delta::CfgInstPush { b } => {
                self.cfg_mut().blocks[b.index()].insts.pop();
            }
            Delta::CfgInstsReplace { b, old } => {
                self.cfg_mut().blocks[b.index()].insts = old;
            }
            Delta::CfgParamsReplace { b, old } => {
                self.cfg_mut().blocks[b.index()].params = old;
            }
            Delta::CfgSetTerm { b, old } => {
                self.cfg_mut().blocks[b.index()].term = old;
            }
            Delta::CfgDissolve { old } => {
                self.cfg = Some(old);
            }
        }
    }

    /// The CFG, for undo paths that know it must exist.
    fn cfg_mut(&mut self) -> &mut Cfg {
        self.cfg.as_mut().expect("undo requires the CFG it mutated")
    }

    // ----- construction ---------------------------------------------------

    fn alloc(&mut self, data: ValueData, name: Option<String>) -> ValueId {
        self.touch();
        let id = ValueId::from_raw(self.values.len() as u32);
        self.values.push(data);
        self.names.push(name);
        self.record(Delta::Alloc { v: id });
        id
    }

    /// Append a parameter of the given type; returns its value handle.
    pub fn add_param(&mut self, name: impl Into<String>, ty: Type) -> ValueId {
        let index = self.params.len() as u32;
        let id = self.alloc(ValueData::Arg { index, ty }, Some(name.into()));
        self.params.push(id);
        self.record(Delta::ParamPush);
        id
    }

    /// The parameter values, in declaration order.
    pub fn params(&self) -> &[ValueId] {
        &self.params
    }

    /// Intern a constant, returning a stable handle (equal constants share
    /// one handle, so handle equality is constant equality). Re-interning a
    /// known constant is not a mutation: it returns the existing handle and
    /// leaves the epoch untouched.
    pub fn constant(&mut self, c: Constant) -> ValueId {
        if let Some(&cid) = self.const_lookup.get(&c) {
            return self.const_vals[cid.index()];
        }
        let cid = ConstId::from_raw(self.consts.len() as u32);
        self.consts.push(c.clone());
        self.const_lookup.insert(c, cid);
        let id = self.alloc(ValueData::Const(cid), None);
        self.const_vals.push(id);
        self.record(Delta::ConstIntern);
        id
    }

    /// Intern an integer constant of scalar type `ty`.
    pub fn const_int(&mut self, ty: crate::ScalarType, v: i64) -> ValueId {
        self.constant(Constant::int(ty, v))
    }

    /// Intern an `i64` constant.
    pub fn const_i64(&mut self, v: i64) -> ValueId {
        self.const_int(crate::ScalarType::I64, v)
    }

    /// Intern a float constant of scalar type `ty`.
    pub fn const_float(&mut self, ty: crate::ScalarType, v: f64) -> ValueId {
        self.constant(Constant::float(ty, v))
    }

    /// Append an instruction to the body; returns its value handle.
    pub fn push(&mut self, op: Opcode, ty: Type, args: Vec<ValueId>, attr: InstAttr) -> ValueId {
        let id = self.create(op, ty, args, attr);
        self.insert_value(self.body.len(), id);
        id
    }

    /// Insert an instruction at body position `at` (shifting later ones).
    ///
    /// # Panics
    ///
    /// Panics if `at > body_len()`.
    pub fn insert(
        &mut self,
        at: usize,
        op: Opcode,
        ty: Type,
        args: Vec<ValueId>,
        attr: InstAttr,
    ) -> ValueId {
        assert!(at <= self.body.len(), "insert position out of range");
        let id = self.create(op, ty, args, attr);
        self.insert_value(at, id);
        id
    }

    /// Allocate an instruction outside the body (an orphan until
    /// [`Function::insert_value`] places it).
    pub fn create(&mut self, op: Opcode, ty: Type, args: Vec<ValueId>, attr: InstAttr) -> ValueId {
        self.alloc(ValueData::Inst(Inst::new(op, ty, args, attr)), None)
    }

    /// Insert the existing instruction `v`, which must not already be in
    /// the body, at body position `at` (shifting later ones). Logs one
    /// record naming `v` and its new neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `at > body_len()` or `v` is not an instruction.
    pub fn insert_value(&mut self, at: usize, v: ValueId) {
        assert!(at <= self.body.len(), "insert position out of range");
        assert!(self.is_inst(v), "insert_value: {v} is not an instruction");
        self.touch();
        let prev = at.checked_sub(1).map(|i| self.body[i]);
        let next = self.body.get(at).copied();
        self.body.insert(at, v);
        self.record(Delta::BodyInsert { at, v, prev, next });
    }

    /// Remove the instruction at body position `at` (it becomes an
    /// orphan) and return it.
    ///
    /// # Panics
    ///
    /// Panics if `at >= body_len()`.
    pub fn remove_at(&mut self, at: usize) -> ValueId {
        self.touch();
        let v = self.body.remove(at);
        self.record(Delta::BodyRemove { at, v });
        v
    }

    /// Attach a debug name to a value (shown by the printer).
    pub fn set_value_name(&mut self, v: ValueId, name: impl Into<String>) {
        self.touch();
        let old = self.names[v.index()].replace(name.into());
        // `replace` already stored the new name; keep the previous one for
        // the undo record.
        self.record(Delta::SetName { v, old });
    }

    /// The debug name of a value, if any.
    pub fn value_name(&self, v: ValueId) -> Option<&str> {
        self.names[v.index()].as_deref()
    }

    // ----- queries --------------------------------------------------------

    /// The payload of a value.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this function.
    pub fn value(&self, v: ValueId) -> &ValueData {
        &self.values[v.index()]
    }

    /// The instruction record, if `v` is an instruction.
    pub fn inst(&self, v: ValueId) -> Option<&Inst> {
        match self.value(v) {
            ValueData::Inst(i) => Some(i),
            _ => None,
        }
    }

    /// Mutable access to an instruction record.
    pub fn inst_mut(&mut self, v: ValueId) -> Option<&mut Inst> {
        // Conservatively assume the caller mutates through the reference.
        self.touch();
        if self.txn_depth > 0 {
            if let ValueData::Inst(old) = &self.values[v.index()] {
                let old = old.clone();
                self.log.push((self.epoch, Delta::SetInst { v, old }));
            }
        }
        match &mut self.values[v.index()] {
            ValueData::Inst(i) => Some(i),
            _ => None,
        }
    }

    /// The constant, if `v` is a constant.
    pub fn as_const(&self, v: ValueId) -> Option<&Constant> {
        match self.value(v) {
            ValueData::Const(c) => Some(&self.consts[c.index()]),
            _ => None,
        }
    }

    /// The pool id, if `v` is a constant.
    pub fn const_id(&self, v: ValueId) -> Option<ConstId> {
        match self.value(v) {
            ValueData::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// Resolve an interned constant's payload.
    ///
    /// # Panics
    ///
    /// Panics if `c` was not interned by this function.
    pub fn const_value(&self, c: ConstId) -> &Constant {
        &self.consts[c.index()]
    }

    /// Number of distinct interned constants.
    pub fn num_consts(&self) -> usize {
        self.consts.len()
    }

    /// Whether `v` is an instruction.
    pub fn is_inst(&self, v: ValueId) -> bool {
        matches!(self.value(v), ValueData::Inst(_))
    }

    /// Whether `v` is a constant.
    pub fn is_const(&self, v: ValueId) -> bool {
        matches!(self.value(v), ValueData::Const(_))
    }

    /// Whether `v` is a parameter.
    pub fn is_arg(&self, v: ValueId) -> bool {
        matches!(self.value(v), ValueData::Arg { .. })
    }

    /// The opcode, if `v` is an instruction.
    pub fn opcode(&self, v: ValueId) -> Option<Opcode> {
        self.inst(v).map(|i| i.op)
    }

    /// The operands of `v` (empty for non-instructions).
    pub fn args_of(&self, v: ValueId) -> &[ValueId] {
        self.inst(v).map_or(&[], |i| i.args.as_slice())
    }

    /// The type of any value.
    pub fn ty(&self, v: ValueId) -> Type {
        match self.value(v) {
            ValueData::Arg { ty, .. } => *ty,
            ValueData::Const(c) => self.consts[c.index()].ty(),
            ValueData::Inst(i) => i.ty,
            ValueData::BlockParam { ty } => *ty,
        }
    }

    /// Whether `v` is a block parameter of a CFG function.
    pub fn is_block_param(&self, v: ValueId) -> bool {
        matches!(self.value(v), ValueData::BlockParam { .. })
    }

    /// The instruction body, in execution order.
    pub fn body(&self) -> &[ValueId] {
        &self.body
    }

    /// Number of instructions in the body.
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// Total number of allocated values (including orphans and constants).
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// The order keys of the current body (see [`PositionMap`]).
    pub fn position_map(&self) -> PositionMap {
        PositionMap::of_body(&self.body)
    }

    /// Compute the current use map of the body.
    pub fn use_map(&self) -> UseMap {
        UseMap::of_body(self)
    }

    // ----- mutation -------------------------------------------------------

    /// Replace every use of `old` with `new`: body instructions, and on CFG
    /// functions also every block instruction and terminator operand. A
    /// one-entry [`Function::replace_uses_with`]; each call sweeps the whole
    /// function, so callers with many replacements batch them instead.
    pub fn replace_uses(&mut self, old: ValueId, new: ValueId) {
        self.replace_uses_with(&HashMap::from_iter([(old, new)]));
    }

    /// Replace every use of each key of `map` with its value, in one sweep
    /// over the body and, on CFG functions, every block's instructions and
    /// terminator. The substitution is simultaneous: a value that is itself
    /// a key is not looked up again. Inside a transaction each rewritten
    /// instruction logs one `SetInst` and each rewritten terminator one
    /// `CfgSetTerm`. An empty map is a no-op.
    pub fn replace_uses_with<S: BuildHasher>(
        &mut self,
        map: &std::collections::HashMap<ValueId, ValueId, S>,
    ) {
        if map.is_empty() {
            return;
        }
        self.touch();
        let Function { values, body, log, txn_depth, cfg, epoch, .. } = self;
        let logging = (*txn_depth > 0).then_some(*epoch);
        for &user in body.iter() {
            rewrite_args(values, log, logging, user, map);
        }
        let Some(cfg) = cfg else { return };
        for (bi, block) in cfg.blocks.iter_mut().enumerate() {
            for &user in &block.insts {
                rewrite_args(values, log, logging, user, map);
            }
            let mut term = block.term.clone();
            if term.rewrite_operands(map) {
                let old = std::mem::replace(&mut block.term, term);
                if let Some(epoch) = logging {
                    log.push((epoch, Delta::CfgSetTerm { b: BlockId::from_raw(bi as u32), old }));
                }
            }
        }
    }

    /// Remove the given instructions from the body (they become orphans),
    /// logging one removal per instruction. An empty set is a no-op.
    pub fn remove_from_body<S: BuildHasher>(
        &mut self,
        dead: &std::collections::HashSet<ValueId, S>,
    ) {
        if dead.is_empty() {
            return;
        }
        self.touch();
        let logging = self.txn_depth > 0;
        let mut kept = 0;
        for i in 0..self.body.len() {
            let v = self.body[i];
            if dead.contains(&v) {
                if logging {
                    self.log.push((self.epoch, Delta::BodyRemove { at: kept, v }));
                }
            } else {
                self.body[kept] = v;
                kept += 1;
            }
        }
        self.body.truncate(kept);
    }

    /// Iterate over `(position, id, inst)` for the body.
    pub fn iter_body(&self) -> impl Iterator<Item = (usize, ValueId, &Inst)> + '_ {
        self.body.iter().enumerate().map(move |(i, &v)| {
            let ValueData::Inst(inst) = self.value(v) else {
                unreachable!("body contains only instructions");
            };
            (i, v, inst)
        })
    }

    // ----- control flow ---------------------------------------------------

    /// The control-flow graph, when this is a CFG function.
    pub fn cfg(&self) -> Option<&Cfg> {
        self.cfg.as_ref()
    }

    /// The block data for `b`.
    ///
    /// # Panics
    ///
    /// Panics on a straight-line function or an out-of-range id.
    pub fn block(&self, b: BlockId) -> &Block {
        self.cfg.as_ref().expect("block() on a straight-line function").block(b)
    }

    /// Number of CFG blocks (0 on a straight-line function).
    pub fn num_blocks(&self) -> usize {
        self.cfg.as_ref().map_or(0, Cfg::num_blocks)
    }

    /// Turn this straight-line function into a CFG function with one empty
    /// entry block (terminated by `ret`); returns the entry block id.
    ///
    /// # Panics
    ///
    /// Panics if a CFG already exists or the body is non-empty (CFG
    /// functions keep all instructions in blocks; lower the body into the
    /// entry block instead).
    pub fn init_cfg(&mut self) -> BlockId {
        assert!(self.cfg.is_none(), "init_cfg: CFG already present");
        assert!(self.body.is_empty(), "init_cfg: body must be empty");
        self.touch();
        let cfg = Cfg::new();
        let entry = cfg.entry();
        self.cfg = Some(cfg);
        self.record(Delta::CfgInit);
        entry
    }

    /// Append a new empty block (terminated by `ret`); returns its id.
    ///
    /// # Panics
    ///
    /// Panics on a straight-line function.
    pub fn add_block(&mut self) -> BlockId {
        self.touch();
        let cfg = self.cfg.as_mut().expect("add_block on a straight-line function");
        let id = BlockId::from_raw(cfg.blocks.len() as u32);
        cfg.blocks.push(Block::new());
        self.record(Delta::CfgBlockAdd);
        id
    }

    /// Append a parameter of type `ty` to block `b`; returns its handle.
    /// Pass `None` as the name to let the printer auto-number it.
    ///
    /// # Panics
    ///
    /// Panics on a straight-line function or an out-of-range block id.
    pub fn add_block_param(&mut self, b: BlockId, name: Option<String>, ty: Type) -> ValueId {
        assert!(self.cfg.as_ref().is_some_and(|c| c.contains(b)), "add_block_param: no block {b}");
        let id = self.alloc(ValueData::BlockParam { ty }, name);
        self.cfg.as_mut().expect("checked above").blocks[b.index()].params.push(id);
        self.record(Delta::CfgBlockParamPush { b });
        id
    }

    /// Append an instruction to block `b`; returns its handle.
    ///
    /// # Panics
    ///
    /// Panics on a straight-line function or an out-of-range block id.
    pub fn push_in_block(
        &mut self,
        b: BlockId,
        op: Opcode,
        ty: Type,
        args: Vec<ValueId>,
        attr: InstAttr,
    ) -> ValueId {
        assert!(self.cfg.as_ref().is_some_and(|c| c.contains(b)), "push_in_block: no block {b}");
        let id = self.alloc(ValueData::Inst(Inst::new(op, ty, args, attr)), None);
        self.cfg.as_mut().expect("checked above").blocks[b.index()].insts.push(id);
        self.record(Delta::CfgInstPush { b });
        id
    }

    /// Replace block `b`'s terminator.
    ///
    /// # Panics
    ///
    /// Panics on a straight-line function or an out-of-range block id.
    pub fn set_term(&mut self, b: BlockId, term: Terminator) {
        assert!(self.cfg.as_ref().is_some_and(|c| c.contains(b)), "set_term: no block {b}");
        self.touch();
        let slot = &mut self.cfg.as_mut().expect("checked above").blocks[b.index()].term;
        let old = std::mem::replace(slot, term);
        self.record(Delta::CfgSetTerm { b, old });
    }

    /// Replace block `b`'s instruction order. Instructions left out become
    /// orphans.
    ///
    /// # Panics
    ///
    /// Panics on a straight-line function, an out-of-range block id, or a
    /// list with duplicates or non-instructions.
    pub fn set_block_insts(&mut self, b: BlockId, insts: Vec<ValueId>) {
        assert!(self.cfg.as_ref().is_some_and(|c| c.contains(b)), "set_block_insts: no block {b}");
        let mut seen = HashSet::with_capacity_and_hasher(insts.len(), Default::default());
        for &v in &insts {
            assert!(self.is_inst(v), "set_block_insts: {v} is not an instruction");
            assert!(seen.insert(v), "set_block_insts: {v} appears twice");
        }
        // Validation precedes both the mutation and the record, so a
        // panicking call leaves the log consistent with the content.
        self.touch();
        let slot = &mut self.cfg.as_mut().expect("checked above").blocks[b.index()].insts;
        let old = std::mem::replace(slot, insts);
        self.record(Delta::CfgInstsReplace { b, old });
    }

    /// Replace block `b`'s parameter list. Dropped parameters become
    /// orphans (rewrite their uses first).
    ///
    /// # Panics
    ///
    /// Panics on a straight-line function, an out-of-range block id, or a
    /// list containing non-block-parameters.
    pub fn set_block_params(&mut self, b: BlockId, params: Vec<ValueId>) {
        assert!(self.cfg.as_ref().is_some_and(|c| c.contains(b)), "set_block_params: no block {b}");
        for &v in &params {
            assert!(self.is_block_param(v), "set_block_params: {v} is not a block parameter");
        }
        self.touch();
        let slot = &mut self.cfg.as_mut().expect("checked above").blocks[b.index()].params;
        let old = std::mem::replace(slot, params);
        self.record(Delta::CfgParamsReplace { b, old });
    }

    /// Dissolve the CFG back into a straight-line function whose body is
    /// `new_body`. The caller guarantees `new_body` is the linearised
    /// program (the passes only call this after reducing the CFG to a
    /// single straight-line chain).
    ///
    /// # Panics
    ///
    /// Panics on a straight-line function, or if `new_body` contains
    /// duplicates or non-instructions.
    pub fn dissolve_cfg(&mut self, new_body: Vec<ValueId>) {
        assert!(self.cfg.is_some(), "dissolve_cfg on a straight-line function");
        let mut seen = HashSet::with_capacity_and_hasher(new_body.len(), Default::default());
        for &v in &new_body {
            assert!(self.is_inst(v), "dissolve_cfg: {v} is not an instruction");
            assert!(seen.insert(v), "dissolve_cfg: {v} appears twice");
        }
        self.touch();
        let old = std::mem::replace(&mut self.body, new_body);
        self.record(Delta::BodyReplace { old });
        let old_cfg = self.cfg.take().expect("checked above");
        self.record(Delta::CfgDissolve { old: old_cfg });
    }
}

/// A set of functions compiled together.
#[derive(Clone, Debug, Default)]
pub struct Module {
    /// The functions, in definition order.
    pub functions: Vec<Function>,
}

impl Module {
    /// An empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name() == name)
    }

    /// Find a function by name, mutably.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.functions.iter_mut().find(|f| f.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_function;
    use crate::{ScalarType, Type};

    fn sample() -> (Function, ValueId, ValueId) {
        let mut f = Function::new("t");
        let a = f.add_param("a", Type::I64);
        let one = f.const_i64(1);
        let add = f.push(Opcode::Add, Type::I64, vec![a, one], InstAttr::None);
        let mul = f.push(Opcode::Mul, Type::I64, vec![add, add], InstAttr::None);
        (f, add, mul)
    }

    #[test]
    fn constants_are_interned() {
        let mut f = Function::new("t");
        let c1 = f.const_i64(7);
        let c2 = f.const_i64(7);
        let c3 = f.const_i64(8);
        assert_eq!(c1, c2);
        assert_ne!(c1, c3);
        let cf1 = f.const_float(ScalarType::F64, 0.5);
        let cf2 = f.const_float(ScalarType::F64, 0.5);
        assert_eq!(cf1, cf2);
        assert_eq!(f.num_consts(), 3);
        // The pool resolves both directions.
        let cid = f.const_id(c1).unwrap();
        assert_eq!(f.const_value(cid).as_int(), Some(7));
        assert_eq!(f.as_const(c1).unwrap().as_int(), Some(7));
    }

    #[test]
    fn body_and_positions() {
        let (f, add, mul) = sample();
        assert_eq!(f.body_len(), 2);
        let pos = f.position_map();
        assert_eq!(pos.index_in(f.body(), add), Some(0));
        assert_eq!(pos.index_in(f.body(), mul), Some(1));
        assert!(pos.key(add) < pos.key(mul));
        assert!(pos.orders(f.body()));
    }

    #[test]
    fn use_map_counts() {
        let (f, add, mul) = sample();
        let um = f.use_map();
        assert_eq!(um.num_uses(add), 2);
        assert_eq!(um.uses(add)[0].user, mul);
        assert_eq!(um.uses(add)[0].index, 0);
        assert_eq!(um.uses(add)[1].index, 1);
        assert_eq!(um.num_uses(mul), 0);
    }

    #[test]
    fn replace_uses_rewrites_operands() {
        let (mut f, add, mul) = sample();
        let zero = f.const_i64(0);
        f.replace_uses(add, zero);
        assert_eq!(f.args_of(mul), &[zero, zero]);
    }

    #[test]
    fn replace_uses_with_rewrites_straight_line_operands() {
        let mut f = Function::new("t");
        let a = f.add_param("a", Type::I64);
        let b = f.add_param("b", Type::I64);
        let x = f.push(Opcode::Add, Type::I64, vec![a, b], InstAttr::None);
        let y = f.push(Opcode::Add, Type::I64, vec![a, b], InstAttr::None);
        let z = f.push(Opcode::Mul, Type::I64, vec![x, y], InstAttr::None);
        let w = f.push(Opcode::Sub, Type::I64, vec![y, a], InstAttr::None);
        // Simultaneous substitution: `a` becomes `b` and `b` becomes `a`.
        f.replace_uses_with(&HashMap::from_iter([(y, x), (a, b), (b, a)]));
        assert_eq!(f.args_of(x), &[b, a]);
        assert_eq!(f.args_of(z), &[x, x]);
        assert_eq!(f.args_of(w), &[x, b]);
        // The replaced instruction itself is left in place for DCE.
        assert_eq!(f.body(), &[x, y, z, w]);
    }

    #[test]
    fn replace_uses_with_rewrites_block_insts_and_terminators() {
        use crate::cfg::Terminator;
        let mut f = Function::new("cfg");
        let a = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let entry = f.init_cfg();
        let join = f.add_block();
        let m = f.add_block_param(join, Some("m".into()), Type::I64);
        let c7 = f.const_i64(7);
        let c9 = f.const_i64(9);
        let s = f.push_in_block(entry, Opcode::Add, Type::I64, vec![i, c7], InstAttr::None);
        f.set_term(entry, Terminator::Jump { target: join, args: vec![s] });
        let g = f.push_in_block(join, Opcode::Gep, Type::PTR, vec![a, m], InstAttr::ElemBytes(8));
        f.push_in_block(join, Opcode::Store, Type::Void, vec![m, g], InstAttr::None);
        f.replace_uses_with(&HashMap::from_iter([(c7, c9), (s, i), (m, c9)]));
        assert_eq!(f.args_of(s), &[i, c9]);
        assert_eq!(f.block(entry).term(), &Terminator::Jump { target: join, args: vec![i] });
        assert_eq!(f.args_of(g), &[a, c9]);
    }

    #[test]
    fn replace_uses_with_rolls_back_with_its_txn() {
        let (mut f, add, mul) = sample();
        let before = print_function(&f);
        let e0 = f.epoch();
        let mark = f.begin_txn();
        let zero = f.const_i64(0);
        let a = f.params()[0];
        f.replace_uses_with(&HashMap::from_iter([(add, zero), (a, zero)]));
        assert_eq!(f.args_of(mul), &[zero, zero]);
        assert_ne!(print_function(&f), before);
        f.rollback_txn(mark);
        assert_eq!(print_function(&f), before, "rollback must be bit-identical");
        assert_eq!(f.epoch(), e0, "rollback restores the pre-txn epoch");
    }

    #[test]
    fn empty_rewrites_and_removals_keep_the_epoch() {
        let (mut f, _, _) = sample();
        let e0 = f.epoch();
        let mark = f.begin_txn();
        f.replace_uses_with(&HashMap::default());
        f.remove_from_body(&HashSet::default());
        assert_eq!(f.epoch(), e0);
        assert_eq!(f.delta_len(), 0, "nothing is logged");
        f.commit_txn(mark);
    }

    #[test]
    fn remove_from_body_orphans_instructions() {
        let (mut f, add, _mul) = sample();
        let mut dead = HashSet::default();
        dead.insert(add);
        f.remove_from_body(&dead);
        assert_eq!(f.body_len(), 1);
        // Orphan is still queryable.
        assert_eq!(f.opcode(add), Some(Opcode::Add));
    }

    #[test]
    fn insert_shifts_positions() {
        let (mut f, add, _) = sample();
        let c = f.const_i64(3);
        let early = f.insert(0, Opcode::Add, Type::I64, vec![c, c], InstAttr::None);
        let pos = f.position_map();
        assert_eq!(pos.index_in(f.body(), early), Some(0));
        assert_eq!(pos.index_in(f.body(), add), Some(1));
    }

    #[test]
    fn value_names() {
        let (mut f, add, _) = sample();
        assert_eq!(f.value_name(add), None);
        f.set_value_name(add, "sum");
        assert_eq!(f.value_name(add), Some("sum"));
        assert_eq!(f.value_name(f.params()[0]), Some("a"));
    }

    #[test]
    fn epoch_tracks_mutation() {
        let (mut f, add, _) = sample();
        let e0 = f.epoch();
        // Read-only queries keep the epoch.
        let _ = f.body_len();
        let _ = f.use_map();
        let _ = f.position_map();
        assert_eq!(f.epoch(), e0);
        // Interning an already-known constant is not a mutation.
        let one_again = f.const_i64(1);
        assert_eq!(f.epoch(), e0);
        let _ = one_again;
        // Any real mutation draws a fresh, never-before-seen epoch.
        let zero = f.const_i64(0);
        let e1 = f.epoch();
        assert_ne!(e1, e0);
        f.replace_uses(add, zero);
        let e2 = f.epoch();
        assert_ne!(e2, e1);
    }

    #[test]
    fn epoch_survives_snapshot_rollback() {
        let (mut f, _, _) = sample();
        let snapshot = f.clone();
        let e0 = f.epoch();
        assert_eq!(snapshot.epoch(), e0, "a clone has identical content");
        f.add_param("junk", Type::I64);
        assert_ne!(f.epoch(), e0);
        f = snapshot;
        assert_eq!(f.epoch(), e0, "rollback restores the snapshot's epoch");
        // Post-rollback mutations never reuse an epoch from the abandoned
        // timeline (epochs are globally unique).
        let abandoned = f.epoch();
        f.add_param("other", Type::I64);
        assert_ne!(f.epoch(), abandoned);
    }

    #[test]
    fn epochs_are_distinct_across_functions() {
        let a = Function::new("a");
        let b = Function::new("b");
        assert_ne!(a.epoch(), b.epoch());
    }

    #[test]
    fn epoch_draws_are_unique_and_monotone_across_threads() {
        // Two threads hammering the epoch counter must each observe
        // strictly increasing draws, and the union must be duplicate-free.
        // This pins the `Relaxed` rationale on `fresh_epoch`: uniqueness
        // and monotonicity come from the single atomic RMW, not from any
        // cross-location ordering.
        const DRAWS: usize = 10_000;
        let worker = || {
            let mut out = Vec::with_capacity(DRAWS);
            let mut f = Function::new("spin");
            for _ in 0..DRAWS {
                f.add_param("p", Type::I64);
                out.push(f.epoch());
            }
            out
        };
        let t1 = std::thread::spawn(worker);
        let t2 = std::thread::spawn(worker);
        let a = t1.join().unwrap();
        let b = t2.join().unwrap();
        for seq in [&a, &b] {
            assert!(seq.windows(2).all(|w| w[0] < w[1]), "per-thread draws must be monotone");
        }
        let mut all: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "no epoch may ever be handed out twice");
    }

    #[test]
    fn txn_rollback_restores_content_and_epoch() {
        let (mut f, add, mul) = sample();
        let before = print_function(&f);
        let e0 = f.epoch();

        let mark = f.begin_txn();
        // One of each kind of mutation.
        let p = f.add_param("extra", Type::F64);
        let c = f.const_i64(99);
        let s = f.push(Opcode::Sub, Type::I64, vec![c, c], InstAttr::None);
        f.insert(0, Opcode::Add, Type::I64, vec![c, c], InstAttr::None);
        f.set_value_name(add, "renamed");
        f.set_value_name(s, "s");
        if let Some(i) = f.inst_mut(mul) {
            i.args.swap(0, 1);
        }
        f.replace_uses(add, c);
        let mut dead = HashSet::default();
        dead.insert(add);
        f.remove_from_body(&dead);
        let moved = f.remove_at(0);
        f.insert_value(f.body_len(), moved);
        let detached = f.create(Opcode::Mul, Type::I64, vec![c, c], InstAttr::None);
        f.insert_value(1, detached);
        assert_ne!(print_function(&f), before);
        let _ = p;

        f.rollback_txn(mark);
        assert_eq!(print_function(&f), before, "rollback must be bit-identical");
        assert_eq!(f.epoch(), e0, "rollback restores the pre-txn epoch");
        assert!(!f.in_txn());
        assert_eq!(f.delta_len(), 0);
        assert_eq!(f.num_values(), 4, "allocations are undone");
        assert_eq!(f.num_consts(), 1, "interning is undone");
        // The undone constant can be re-interned cleanly.
        let again = f.const_i64(99);
        assert_eq!(f.as_const(again).unwrap().as_int(), Some(99));
    }

    #[test]
    fn txn_commit_keeps_changes_and_clears_log() {
        let (mut f, _, _) = sample();
        let mark = f.begin_txn();
        let c = f.const_i64(5);
        f.push(Opcode::Add, Type::I64, vec![c, c], InstAttr::None);
        assert!(f.delta_len() > 0);
        f.commit_txn(mark);
        assert_eq!(f.body_len(), 3);
        assert_eq!(f.delta_len(), 0, "outermost commit discards the log");
        assert!(!f.in_txn());
    }

    #[test]
    fn nested_txns_roll_back_independently() {
        let (mut f, _, _) = sample();
        let outer = f.begin_txn();
        let c = f.const_i64(5);
        f.push(Opcode::Add, Type::I64, vec![c, c], InstAttr::None);
        let mid = print_function(&f);

        let inner = f.begin_txn();
        f.push(Opcode::Mul, Type::I64, vec![c, c], InstAttr::None);
        f.rollback_txn(inner);
        assert_eq!(print_function(&f), mid, "inner rollback keeps outer work");
        assert!(f.in_txn());

        let inner2 = f.begin_txn();
        f.push(Opcode::Sub, Type::I64, vec![c, c], InstAttr::None);
        f.commit_txn(inner2);
        assert_eq!(f.body_len(), 4);

        let before_outer = print_function(&f);
        f.commit_txn(outer);
        assert_eq!(print_function(&f), before_outer);
        assert!(!f.in_txn());
        assert_eq!(f.delta_len(), 0);
    }

    #[test]
    fn touched_since_names_mutated_values() {
        let (mut f, add, mul) = sample();
        let mark = f.begin_txn();
        let c = f.const_i64(42);
        let s = f.push(Opcode::Sub, Type::I64, vec![c, c], InstAttr::None);
        if let Some(i) = f.inst_mut(mul) {
            i.args.swap(0, 1);
        }
        let touched = f.touched_since(mark).expect("no whole-body edit");
        assert!(touched.contains(&c));
        assert!(touched.contains(&s));
        assert!(touched.contains(&mul));
        assert!(!touched.contains(&add));
        f.remove_from_body(&HashSet::from_iter([add]));
        assert!(f.touched_since(mark).unwrap().contains(&add), "removals count");
        f.rollback_txn(mark);
    }

    #[test]
    fn edits_since_replays_into_the_maps() {
        let (mut f, add, mul) = sample();
        let anchor = f.begin_txn();
        let mut positions = f.position_map();
        let mut uses = f.use_map();
        let cursor = f.log_cursor().expect("inside a transaction");
        let c = f.const_i64(5);
        let x = f.insert(1, Opcode::Add, Type::I64, vec![add, c], InstAttr::None);
        if let Some(i) = f.inst_mut(mul) {
            i.args[1] = x;
        }
        let y = f.create(Opcode::Sub, Type::I64, vec![x, add], InstAttr::None);
        f.insert_value(3, y);
        let edits = f.edits_since(cursor).expect("replayable");
        assert_eq!(edits.len(), 3);
        assert!(positions.apply(&edits));
        uses.apply(&f, &edits, &positions);
        assert!(positions.orders(f.body()));
        let fresh = f.use_map();
        for i in 0..f.num_values() {
            let v = ValueId::from_raw(i as u32);
            assert_eq!(uses.uses(v), fresh.uses(v), "uses of {v}");
        }
        // A rollback below the cursor invalidates it.
        let later = f.log_cursor().unwrap();
        f.rollback_txn(anchor);
        assert!(f.edits_since(later).is_none());
        assert!(f.log_cursor().is_none(), "no cursor outside a transaction");
    }

    #[test]
    fn edits_since_stops_at_whole_body_edits() {
        let mut f = Function::new("cfg");
        let mark = f.begin_txn();
        let cursor = f.log_cursor().unwrap();
        let entry = f.init_cfg();
        let _ = entry;
        assert!(f.edits_since(cursor).is_none());
        assert!(f.touched_since(mark).is_none());
        f.rollback_txn(mark);
    }

    #[test]
    fn positions_report_an_exhausted_gap() {
        let (mut f, add, _) = sample();
        f.begin_txn();
        let mut positions = f.position_map();
        let cursor = f.log_cursor().unwrap();
        let c = f.const_i64(1);
        // Every insert lands right after `add`, halving the same gap.
        for _ in 0..40 {
            let at = f.body().iter().position(|&v| v == add).unwrap() + 1;
            f.insert(at, Opcode::Add, Type::I64, vec![c, c], InstAttr::None);
        }
        let edits = f.edits_since(cursor).unwrap();
        assert!(!positions.apply(&edits), "the gap runs out and asks for a rebuild");
        assert!(f.position_map().orders(f.body()));
    }

    #[test]
    fn mutation_outside_txn_keeps_no_log() {
        let (mut f, _, _) = sample();
        let c = f.const_i64(9);
        f.push(Opcode::Add, Type::I64, vec![c, c], InstAttr::None);
        assert_eq!(f.delta_len(), 0);
    }

    #[test]
    fn clone_mid_txn_restores_consistently() {
        // Paranoid guards and tests clone mid-transaction; assigning the
        // clone back must restore content, epoch, and log state together.
        let (mut f, _, _) = sample();
        let mark = f.begin_txn();
        let snap = f.clone();
        let c = f.const_i64(123);
        f.push(Opcode::Add, Type::I64, vec![c, c], InstAttr::None);
        f = snap;
        assert!(f.in_txn());
        f.rollback_txn(mark);
        assert!(!f.in_txn());
    }

    #[test]
    fn cfg_txn_rollback_restores_blocks() {
        use crate::cfg::{BlockId, Terminator};
        // Build a small diamond, then mutate every CFG surface inside a
        // transaction and roll back; the print must be byte-identical.
        let mut f = Function::new("cfg");
        let a = f.add_param("A", Type::PTR);
        let entry = f.init_cfg();
        let join = f.add_block();
        let m = f.add_block_param(join, Some("m".into()), Type::I64);
        let c0 = f.const_i64(7);
        f.set_term(entry, Terminator::Jump { target: join, args: vec![c0] });
        let g = f.push_in_block(join, Opcode::Gep, Type::PTR, vec![a, m], InstAttr::ElemBytes(8));
        f.push_in_block(join, Opcode::Store, Type::Void, vec![m, g], InstAttr::None);
        let before = print_function(&f);
        let e0 = f.epoch();

        let mark = f.begin_txn();
        let extra = f.add_block();
        let p = f.add_block_param(extra, None, Type::F64);
        f.push_in_block(extra, Opcode::FAdd, Type::F64, vec![p, p], InstAttr::None);
        f.set_term(entry, Terminator::Jump { target: extra, args: vec![] });
        f.set_block_params(join, vec![]);
        f.set_block_insts(join, vec![]);
        let c1 = f.const_i64(9);
        f.replace_uses(c0, c1);
        assert_ne!(print_function(&f), before);
        f.rollback_txn(mark);
        assert_eq!(print_function(&f), before, "CFG rollback must be bit-identical");
        assert_eq!(f.epoch(), e0);
        assert_eq!(f.num_blocks(), 2);

        // Dissolving rolls back too (body and CFG restored together).
        let mark = f.begin_txn();
        f.set_term(entry, Terminator::Ret);
        f.set_block_insts(join, vec![]);
        f.set_block_params(join, vec![]);
        f.dissolve_cfg(vec![g]);
        assert!(f.cfg().is_none());
        assert_eq!(f.body_len(), 1);
        f.rollback_txn(mark);
        assert_eq!(print_function(&f), before);
        assert!(f.cfg().is_some());
        assert_eq!(f.block(BlockId::from_raw(1)).insts().len(), 2);
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new();
        m.functions.push(Function::new("a"));
        m.functions.push(Function::new("b"));
        assert!(m.function("a").is_some());
        assert!(m.function("c").is_none());
        m.function_mut("b").unwrap().add_param("x", Type::I64);
        assert_eq!(m.function("b").unwrap().params().len(), 1);
    }
}
