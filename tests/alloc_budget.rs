//! Heap allocations on the compile path, counted and bounded.
//!
//! A counting global allocator tallies the blocks this thread allocates
//! while a fresh `Session` optimizes one function and the result is
//! printed: a pinned `lslp_kernels::generate` function shaped like the
//! benchmark's `gen_large` inputs, and one suite kernel (compiled to IR
//! before counting starts, so the frontend is not counted). Two counted
//! runs must agree, and each count must stay within its bound (DESIGN.md
//! §19): the allocation-lean compile path took the counts from 29,464
//! and 918 blocks to 9,036 and 327, and keeping operands and uses in
//! place took them to 4,287 and 194. The bounds are those counts with
//! about 2% headroom on top.
//!
//! Debug and release builds allocate alike. To see the counts, run
//! `cargo test --release -p lslp --test alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lslp::{CompileOptions, Session};
use lslp_ir::Module;
use lslp_kernels::{generate, GenConfig};

/// The system allocator, counting the blocks allocated on threads that
/// have counting switched on.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // `try_with`: thread-local storage may already be torn down while a
    // thread exits.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The benchmark's target.
const TARGET: &str = "skylake-avx2";

/// Blocks allocated while a fresh LSLP session optimizes `module` and
/// prints the result.
fn count(module: &Module) -> u64 {
    let opts = CompileOptions::preset("LSLP").target(TARGET).build().expect("valid options");
    let mut session = Session::new(opts);
    let module = module.clone();
    BLOCKS.with(|b| b.set(0));
    COUNTING.with(|c| c.set(true));
    let artifact = session.optimize(module).expect("compiles");
    let text = lslp_ir::print_module(&artifact.module);
    COUNTING.with(|c| c.set(false));
    assert!(text.starts_with("func @"), "{text}");
    BLOCKS.with(Cell::get)
}

/// Counts of two runs after a warm-up (which pays one-time process set-up
/// such as the hasher seed and the guard's panic hook), checked equal.
fn stable_count(module: &Module) -> u64 {
    count(module);
    let (a, b) = (count(module), count(module));
    assert_eq!(a, b, "the allocation count must not vary between identical compiles");
    a
}

fn module_of(f: lslp_ir::Function) -> Module {
    let mut m = Module::new();
    m.functions.push(f);
    m
}

/// A `gen_large`-shaped function: 20 four-lane `f64` store groups of
/// depth-4 trees, about 2,000 instructions.
fn pinned_generated() -> Module {
    module_of(
        generate(&GenConfig {
            seed: 22,
            groups: 20,
            lanes: 4,
            depth: 4,
            int: false,
            swap_prob: 0.5,
            arrays: 3,
        })
        .function,
    )
}

fn check(case: &str, blocks: u64, bound: u64) {
    println!("{case}: {blocks} heap blocks (bound {bound})");
    assert!(blocks <= bound, "{case}: {blocks} heap blocks exceed the bound of {bound}");
}

#[test]
fn generated_function_stays_within_its_allocation_budget() {
    check("generated 20x4 f64", stable_count(&pinned_generated()), 4_380);
}

#[test]
fn suite_kernel_stays_within_its_allocation_budget() {
    let kernel = lslp_kernels::suite()
        .into_iter()
        .find(|k| k.name == "motivation_multi")
        .expect("the suite holds the paper's Figure 4 kernel");
    check("suite kernel motivation_multi", stable_count(&module_of(kernel.compile())), 198);
}
