//! The analysis manager: lazy, epoch-keyed caching of function analyses.
//!
//! Modeled on LLVM's new-pass-manager `FunctionAnalysisManager`. Consumers
//! ask the manager for an analysis instead of computing it; the manager
//! computes on first request and serves cached results until the function's
//! mutation epoch ([`lslp_ir::Function::epoch`]) moves. Because epochs are
//! globally unique and a transactional rollback restores the
//! pre-transaction epoch with the content, a rolled-back vectorization
//! attempt leaves the cache warm, while a committed mutation moves the
//! epoch and the entries are brought up to date before they are served.
//!
//! Inside a transaction the manager also keeps a [`LogCursor`] into the
//! function's delta log. When the epoch has moved, the positions, the use
//! map and the address analysis catch up by replaying the edits since the
//! cursor — O(edits), so a guarded commit no longer costs a whole-body
//! recomputation, and edits that change no analysis (renames) keep every
//! entry as it is. Only when the log cannot be replayed (no transaction, a
//! rollback below the cursor, a whole-body or CFG edit, or more edits than
//! a recomputation would cost) are the entries dropped and recomputed.

use std::rc::Rc;
use std::time::{Duration, Instant};

use lslp_ir::{Function, LogCursor, UseMap};

use crate::addr::AddrInfo;
use crate::memdep::MemDep;

pub use lslp_ir::PositionMap;

/// The analyses the manager knows how to compute and cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AnalysisKind {
    /// Symbolic address analysis ([`AddrInfo`]).
    Addr,
    /// Body position map.
    Positions,
    /// Use-def map ([`UseMap`]).
    Uses,
    /// Memory-dependence summary ([`MemDep`]).
    MemDep,
}

/// All analysis kinds, in display order.
pub const ANALYSIS_KINDS: [AnalysisKind; 4] =
    [AnalysisKind::Addr, AnalysisKind::Positions, AnalysisKind::Uses, AnalysisKind::MemDep];

impl AnalysisKind {
    /// Stable display name (used in statistics output).
    pub fn name(self) -> &'static str {
        match self {
            AnalysisKind::Addr => "addr",
            AnalysisKind::Positions => "positions",
            AnalysisKind::Uses => "uses",
            AnalysisKind::MemDep => "memdep",
        }
    }

    fn index(self) -> usize {
        match self {
            AnalysisKind::Addr => 0,
            AnalysisKind::Positions => 1,
            AnalysisKind::Uses => 2,
            AnalysisKind::MemDep => 3,
        }
    }
}

/// Cache effectiveness counters, cumulative over the manager's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to compute the analysis.
    pub misses: u64,
    /// Times cached entries were dropped because the function's epoch
    /// moved and the delta log could not bring them up to date.
    pub invalidations: u64,
    /// Times a cached entry was brought up to date from the delta log
    /// instead of being dropped; queries it then answers count as hits.
    pub updates: u64,
}

impl CacheStats {
    fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
        self.updates += other.updates;
    }
}

/// Lazily computes and caches per-function analyses, keyed by the
/// function's mutation epoch.
///
/// ```
/// use lslp_analysis::AnalysisManager;
/// use lslp_ir::{Function, Type};
///
/// let mut f = Function::new("k");
/// f.add_param("A", Type::PTR);
/// let mut am = AnalysisManager::new();
/// let a1 = am.addr_info(&f);
/// let a2 = am.addr_info(&f); // served from cache
/// assert!(std::rc::Rc::ptr_eq(&a1, &a2));
/// assert_eq!(am.cache_stats().hits, 1);
/// assert_eq!(am.cache_stats().misses, 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct AnalysisManager {
    /// Epoch the cached entries were computed at (`None` = empty cache).
    epoch: Option<u64>,
    /// The delta-log position of that state, when it was seen inside a
    /// transaction.
    cursor: Option<LogCursor>,
    addr: Option<Rc<AddrInfo>>,
    positions: Option<Rc<PositionMap>>,
    uses: Option<Rc<UseMap>>,
    memdep: Option<Rc<MemDep>>,
    total: CacheStats,
    per_kind: [CacheStats; 4],
    analysis_time: Duration,
}

impl AnalysisManager {
    /// An empty manager.
    pub fn new() -> AnalysisManager {
        AnalysisManager::default()
    }

    /// Cumulative cache counters (all analyses combined).
    pub fn cache_stats(&self) -> CacheStats {
        self.total
    }

    /// Cache counters for one analysis kind.
    pub fn cache_stats_for(&self, kind: AnalysisKind) -> CacheStats {
        self.per_kind[kind.index()]
    }

    /// Total wall-clock time spent *computing* analyses (cache misses).
    pub fn analysis_time(&self) -> Duration {
        self.analysis_time
    }

    /// Fold another manager's counters into this one (used when a nested
    /// run keeps its own manager).
    pub fn absorb_stats(&mut self, other: &AnalysisManager) {
        self.total.absorb(&other.total);
        for (mine, theirs) in self.per_kind.iter_mut().zip(&other.per_kind) {
            mine.absorb(theirs);
        }
        self.analysis_time += other.analysis_time;
    }

    /// Drop every cached entry.
    fn invalidate_all(&mut self) {
        if self.has_entries() {
            self.total.invalidations += 1;
        }
        self.epoch = None;
        self.cursor = None;
        self.addr = None;
        self.positions = None;
        self.uses = None;
        self.memdep = None;
    }

    fn has_entries(&self) -> bool {
        self.addr.is_some()
            || self.positions.is_some()
            || self.uses.is_some()
            || self.memdep.is_some()
    }

    /// Bring the entries up to `f`'s epoch — replaying the delta log since
    /// the cursor when possible, else dropping them — and move the cursor
    /// to the current end of the log. At an unchanged epoch this only
    /// re-anchors the cursor. The guard calls it right after opening a
    /// transaction, so the edits the transaction makes can be caught up
    /// from its start, and again just before committing, while the log
    /// still holds them.
    pub fn refresh(&mut self, f: &Function) {
        if self.epoch != Some(f.epoch()) {
            let start = Instant::now();
            if self.catch_up(f) {
                self.analysis_time += start.elapsed();
            } else {
                self.invalidate_all();
            }
            self.epoch = Some(f.epoch());
        }
        self.cursor = f.log_cursor();
    }

    /// Replay the edits since the cursor into the positions, uses and
    /// address analysis (each update needs the ones before it, so an entry
    /// whose inputs are not cached is dropped). Returns `false` when the
    /// log cannot be replayed or is longer than a recomputation is worth.
    fn catch_up(&mut self, f: &Function) -> bool {
        let Some(edits) = self.cursor.and_then(|c| f.edits_since(c)) else { return false };
        if edits.is_empty() {
            return true; // nothing any analysis reads changed
        }
        if edits.len() > f.body_len() / 4 {
            return false;
        }
        self.memdep = None;
        let Some(positions) = self.positions.as_mut() else {
            self.uses = None;
            self.addr = None;
            return true;
        };
        let mut updated = vec![AnalysisKind::Positions];
        let renumbered = !Rc::make_mut(positions).apply(&edits);
        if renumbered {
            // A gap ran out: number the body afresh (one pass writing keys).
            *positions = Rc::new(f.position_map());
        }
        match self.uses.as_mut() {
            Some(uses) => {
                Rc::make_mut(uses).apply(f, &edits, positions);
                updated.push(AnalysisKind::Uses);
            }
            None => self.addr = None,
        }
        if let (Some(addr), Some(uses)) = (self.addr.as_mut(), self.uses.as_ref()) {
            Rc::make_mut(addr).apply(f, &edits, positions, uses);
            updated.push(AnalysisKind::Addr);
        }
        for kind in updated {
            // Renumbered positions were computed afresh: a miss.
            let recomputed = renumbered && kind == AnalysisKind::Positions;
            for stats in [&mut self.total, &mut self.per_kind[kind.index()]] {
                if recomputed {
                    stats.misses += 1;
                } else {
                    stats.updates += 1;
                }
            }
        }
        true
    }

    /// The address analysis for the current state of `f`.
    pub fn addr_info(&mut self, f: &Function) -> Rc<AddrInfo> {
        self.refresh(f);
        if self.addr.is_some() {
            self.hit(AnalysisKind::Addr);
            return Rc::clone(self.addr.as_ref().expect("checked above"));
        }
        let start = Instant::now();
        let a = Rc::new(AddrInfo::analyze(f));
        self.miss(AnalysisKind::Addr, start);
        self.addr = Some(Rc::clone(&a));
        a
    }

    /// The body position map for the current state of `f`.
    pub fn positions(&mut self, f: &Function) -> Rc<PositionMap> {
        self.refresh(f);
        if self.positions.is_some() {
            self.hit(AnalysisKind::Positions);
            return Rc::clone(self.positions.as_ref().expect("checked above"));
        }
        let start = Instant::now();
        let p = Rc::new(f.position_map());
        self.miss(AnalysisKind::Positions, start);
        self.positions = Some(Rc::clone(&p));
        p
    }

    /// The use-def map for the current state of `f`.
    pub fn use_map(&mut self, f: &Function) -> Rc<UseMap> {
        self.refresh(f);
        if self.uses.is_some() {
            self.hit(AnalysisKind::Uses);
            return Rc::clone(self.uses.as_ref().expect("checked above"));
        }
        let start = Instant::now();
        let u = Rc::new(f.use_map());
        self.miss(AnalysisKind::Uses, start);
        self.uses = Some(Rc::clone(&u));
        u
    }

    /// The position and use maps for the current state of `f`, only when
    /// both are already cached (caught up from the delta log if the epoch
    /// moved); nothing is computed. For checks that have a full-function
    /// fallback and want the maps only when they cost nothing.
    pub fn cached_maps(&mut self, f: &Function) -> Option<(Rc<PositionMap>, Rc<UseMap>)> {
        self.refresh(f);
        let maps = (Rc::clone(self.positions.as_ref()?), Rc::clone(self.uses.as_ref()?));
        self.hit(AnalysisKind::Positions);
        self.hit(AnalysisKind::Uses);
        Some(maps)
    }

    /// The memory-dependence summary for the current state of `f`
    /// (computes the address analysis first if needed).
    pub fn memdep(&mut self, f: &Function) -> Rc<MemDep> {
        self.refresh(f);
        if self.memdep.is_some() {
            self.hit(AnalysisKind::MemDep);
            return Rc::clone(self.memdep.as_ref().expect("checked above"));
        }
        let addr = self.addr_info(f);
        let start = Instant::now();
        let m = Rc::new(MemDep::analyze(f, &addr));
        self.miss(AnalysisKind::MemDep, start);
        self.memdep = Some(Rc::clone(&m));
        m
    }

    fn hit(&mut self, kind: AnalysisKind) {
        self.total.hits += 1;
        self.per_kind[kind.index()].hits += 1;
    }

    fn miss(&mut self, kind: AnalysisKind, started: Instant) {
        self.total.misses += 1;
        self.per_kind[kind.index()].misses += 1;
        self.analysis_time += started.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_ir::{FunctionBuilder, Type};

    fn kernel() -> Function {
        let mut f = Function::new("k");
        let a = f.add_param("A", Type::PTR);
        let x = f.add_param("x", Type::I64);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let g = b.gep(a, i, 8);
        let l = b.load(Type::I64, g);
        let s = b.add(l, x);
        b.store(s, g);
        f
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let f = kernel();
        let mut am = AnalysisManager::new();
        let a1 = am.addr_info(&f);
        let p1 = am.positions(&f);
        let u1 = am.use_map(&f);
        let a2 = am.addr_info(&f);
        let p2 = am.positions(&f);
        let u2 = am.use_map(&f);
        assert!(Rc::ptr_eq(&a1, &a2));
        assert!(Rc::ptr_eq(&p1, &p2));
        assert!(Rc::ptr_eq(&u1, &u2));
        assert_eq!(
            am.cache_stats(),
            CacheStats { hits: 3, misses: 3, invalidations: 0, updates: 0 }
        );
        assert_eq!(am.cache_stats_for(AnalysisKind::Addr).hits, 1);
    }

    #[test]
    fn edits_inside_a_transaction_are_caught_up() {
        use lslp_ir::{InstAttr, Opcode};
        let mut f = kernel();
        let mut am = AnalysisManager::new();
        let mark = f.begin_txn();
        let _ = (am.addr_info(&f), am.positions(&f), am.use_map(&f));
        let x = f.params()[1];
        let y = f.push(Opcode::Add, Type::I64, [x, x], InstAttr::None);
        let positions = am.positions(&f);
        assert!(positions.orders(f.body()));
        assert_eq!(am.use_map(&f).num_uses(x), 3, "the new add's two uses join the load's");
        let stats = am.cache_stats();
        assert_eq!((stats.misses, stats.updates, stats.invalidations), (3, 3, 0));
        assert!(positions.contains(y));
        // A rollback below the cursor leaves nothing to replay: recompute.
        f.rollback_txn(mark);
        assert!(!am.positions(&f).contains(y));
        assert_eq!(am.cache_stats().invalidations, 1);
    }

    #[test]
    fn mutation_invalidates() {
        let mut f = kernel();
        let mut am = AnalysisManager::new();
        let a1 = am.addr_info(&f);
        f.add_param("junk", Type::I64);
        let a2 = am.addr_info(&f);
        assert!(!Rc::ptr_eq(&a1, &a2), "stale analysis must not be served");
        assert_eq!(am.cache_stats().misses, 2);
        assert_eq!(am.cache_stats().invalidations, 1);
    }

    #[test]
    fn rollback_to_snapshot_keeps_cache_warm() {
        let mut f = kernel();
        let snapshot = f.clone();
        let mut am = AnalysisManager::new();
        let a1 = am.addr_info(&f);
        f.add_param("junk", Type::I64); // aborted attempt mutates...
        f = snapshot; // ...and is rolled back
        let a2 = am.addr_info(&f);
        assert!(Rc::ptr_eq(&a1, &a2), "identical content ⇒ cache hit");
        assert_eq!(am.cache_stats().hits, 1);
    }

    #[test]
    fn memdep_rides_on_addr() {
        let f = kernel();
        let mut am = AnalysisManager::new();
        let _ = am.memdep(&f);
        // memdep computed addr internally; both are now cached.
        let _ = am.addr_info(&f);
        let _ = am.memdep(&f);
        assert_eq!(am.cache_stats_for(AnalysisKind::MemDep).misses, 1);
        assert_eq!(am.cache_stats_for(AnalysisKind::MemDep).hits, 1);
        assert_eq!(am.cache_stats_for(AnalysisKind::Addr).hits, 1);
    }
}
