//! The counter registry (LLVM `-stats` style).
//!
//! Passes report named counters ("how many instructions did CSE merge",
//! "how many trees did the vectorizer commit") through the
//! [`crate::pm::PassContext`] they run under. Counters accumulate per
//! `(pass, counter)` key over one pipeline run and are surfaced through
//! [`crate::PipelineReport::stats`] and `lslpc --stats`. The `lslpd`
//! compile service keeps its monotonic counters (requests, cache hits and
//! misses, worker restarts, ...) in one shared registry of the same type.
//!
//! The registry is thread-safe: counters live behind a `Mutex`, so passes
//! report through `&PassContext` and many service threads report into one
//! registry alike. Rows render sorted by pass then counter name, so dumps
//! are deterministic modulo counter values.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

/// One reported counter row.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StatRow {
    /// The reporting pass, e.g. `"cse"`.
    pub pass: String,
    /// The counter name, e.g. `"insts-merged"`.
    pub counter: String,
    /// Accumulated value.
    pub value: u64,
}

/// An accumulating, thread-safe registry of named per-pass counters.
#[derive(Debug, Default)]
pub struct Statistics {
    /// Nested pass → counter → value so the hot [`Statistics::add`] path
    /// can look up existing cells by `&str` without allocating the owned
    /// `(String, String)` key a flat map would demand (the compile service
    /// bumps per-request counters on every served request).
    counters: Mutex<BTreeMap<String, BTreeMap<String, u64>>>,
}

impl Clone for Statistics {
    fn clone(&self) -> Statistics {
        Statistics { counters: Mutex::new(self.cells().clone()) }
    }
}

impl Statistics {
    /// An empty registry.
    pub fn new() -> Statistics {
        Statistics::default()
    }

    fn cells(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, BTreeMap<String, u64>>> {
        self.counters.lock().expect("statistics lock")
    }

    /// Add `n` to the `(pass, counter)` cell (creating it at zero).
    pub fn add(&self, pass: &str, counter: &str, n: u64) {
        if n == 0 {
            return;
        }
        let mut counters = self.cells();
        // Borrowed-key lookup first: the cell exists on every call but the
        // first, and `entry()` would force two String allocations per call.
        if let Some(cell) = counters.get_mut(pass).and_then(|c| c.get_mut(counter)) {
            *cell += n;
            return;
        }
        *counters.entry(pass.to_string()).or_default().entry(counter.to_string()).or_insert(0) += n;
    }

    /// Current value of a counter (0 when never reported).
    pub fn get(&self, pass: &str, counter: &str) -> u64 {
        self.cells().get(pass).and_then(|c| c.get(counter)).copied().unwrap_or(0)
    }

    /// Whether no counter was ever reported.
    pub fn is_empty(&self) -> bool {
        self.cells().is_empty()
    }

    /// All rows, sorted by pass then counter name.
    pub fn rows(&self) -> Vec<StatRow> {
        self.cells()
            .iter()
            .flat_map(|(pass, cells)| {
                cells.iter().map(move |(counter, &value)| StatRow {
                    pass: pass.clone(),
                    counter: counter.clone(),
                    value,
                })
            })
            .collect()
    }

    /// Fold another registry's counters into this one: `other` is copied
    /// under its own lock, which is released before this registry's lock
    /// is taken once for the whole fold (so `s.absorb(&s)` is fine, and a
    /// reader of this registry waits for one fold, not one per row).
    pub fn absorb(&self, other: &Statistics) {
        let theirs = other.cells().clone();
        let mut mine = self.cells();
        for (pass, cells) in theirs {
            let row = mine.entry(pass).or_default();
            for (counter, n) in cells {
                if n > 0 {
                    *row.entry(counter).or_insert(0) += n;
                }
            }
        }
    }
}

impl fmt::Display for Statistics {
    /// LLVM `-stats`-style rendering: `value  pass - counter` lines,
    /// deterministically ordered (sorted by pass, then counter name) so
    /// dumps diff cleanly across runs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows = self.rows();
        let width = rows.iter().map(|r| r.value.to_string().len()).max().unwrap_or(1);
        for r in rows {
            writeln!(f, "{:>width$}  {} - {}", r.value, r.pass, r.counter)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = Statistics::new();
        assert!(s.is_empty());
        s.add("cse", "insts-merged", 2);
        s.add("cse", "insts-merged", 3);
        s.add("dce", "insts-removed", 1);
        assert_eq!(s.get("cse", "insts-merged"), 5);
        assert_eq!(s.get("dce", "insts-removed"), 1);
        assert_eq!(s.get("dce", "never"), 0);
        let rows = s.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].pass, "cse", "sorted by pass");
    }

    #[test]
    fn absorbing_itself_doubles_every_counter() {
        let s = Statistics::new();
        s.add("cse", "insts-merged", 2);
        s.add("server", "cache-hits", 5);
        s.absorb(&s);
        assert_eq!(s.get("cse", "insts-merged"), 4);
        assert_eq!(s.get("server", "cache-hits"), 10);
        let other = Statistics::new();
        other.add("dce", "insts-removed", 1);
        s.absorb(&other);
        assert_eq!(s.rows().len(), 3);
    }

    #[test]
    fn zero_adds_are_not_recorded() {
        let s = Statistics::new();
        s.add("fold", "constants-folded", 0);
        assert!(s.is_empty(), "zero counters stay out of -stats output");
    }

    #[test]
    fn display_is_llvm_style() {
        let s = Statistics::new();
        s.add("vectorize", "trees-vectorized", 4);
        s.add("simplify", "rewrites", 12);
        let text = s.to_string();
        assert!(text.contains("12  simplify - rewrites"), "{text}");
        assert!(text.contains(" 4  vectorize - trees-vectorized"), "{text}");
    }

    #[test]
    fn dump_order_is_deterministic() {
        // Two registries fed in opposite insertion orders must render
        // byte-identically: service metrics and `--stats` diffs rely on it.
        let a = Statistics::new();
        let b = Statistics::new();
        let rows = [("vectorize", "trees"), ("cse", "insts-merged"), ("cse", "hits"), ("dce", "x")];
        for (pass, counter) in rows {
            a.add(pass, counter, 1);
        }
        for (pass, counter) in rows.iter().rev() {
            b.add(pass, counter, 1);
        }
        assert_eq!(a.to_string(), b.to_string());
        let names: Vec<String> =
            a.rows().into_iter().map(|r| format!("{}/{}", r.pass, r.counter)).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "rows are sorted by pass then counter");
    }

    #[test]
    fn statistics_accumulate_across_threads() {
        let s = Statistics::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        s.add("server", "requests", 1);
                    }
                });
            }
        });
        assert_eq!(s.get("server", "requests"), 400);
        assert_eq!(s.clone().get("server", "requests"), 400);
    }

    #[test]
    fn absorb_merges() {
        let a = Statistics::new();
        a.add("cse", "insts-merged", 1);
        let b = Statistics::new();
        b.add("cse", "insts-merged", 2);
        b.add("fold", "constants-folded", 7);
        a.absorb(&b);
        assert_eq!(a.get("cse", "insts-merged"), 3);
        assert_eq!(a.get("fold", "constants-folded"), 7);
    }
}
