//! Differential fuzzing of the guarded vectorizer.
//!
//! For ≥100 generator seeds per configuration, a random straight-line
//! program is vectorized under every paper configuration × every guard
//! mode, executed, and its final memory compared against the scalar
//! oracle (bit-exact for integers, relative tolerance for fast-math
//! floats). Clean inputs must also raise zero guard incidents — the guard
//! must be transparent when nothing goes wrong. On a mismatch the failing
//! case is shrunk (lanes, depth, groups, swap probability) before
//! reporting, so the panic message carries a minimal reproducer.

use lslp::{try_vectorize_function, GuardMode, VectorizerConfig};
use lslp_interp::{run_function, Memory, Value};
use lslp_ir::ScalarType;
use lslp_kernels::{generate, GenConfig, GeneratedProgram};
use lslp_target::CostModel;

const SEEDS_PER_CONFIG: u64 = 100;
const PRESETS: [&str; 4] = ["O3", "SLP-NR", "SLP", "LSLP"];
const GUARDS: [GuardMode; 3] = [GuardMode::Off, GuardMode::Rollback, GuardMode::Strict];

/// Deterministically initialize memory for a generated program (same
/// scheme as the equivalence suite) and run it.
fn capture(p: &GeneratedProgram, f: &lslp_ir::Function, salt: u64) -> Memory {
    let mut mem = Memory::new();
    let mut args = Vec::new();
    for (k, &param) in f.params().iter().enumerate() {
        if f.ty(param) == lslp_ir::Type::PTR {
            let name = f.value_name(param).unwrap().to_string();
            let ptr = match p.elem {
                ScalarType::F64 => {
                    let init: Vec<f64> = (0..p.min_len)
                        .map(|j| 0.25 + ((j as u64 * 37 + k as u64 * 11 + salt) % 64) as f64 / 16.0)
                        .collect();
                    mem.alloc_f64(&name, &init)
                }
                _ => {
                    let init: Vec<i64> = (0..p.min_len)
                        .map(|j| {
                            ((j as u64 * 2654435761 + k as u64 * 97 + salt) % 1021) as i64 - 300
                        })
                        .collect();
                    mem.alloc_i64(&name, &init)
                }
            };
            args.push(ptr);
        } else {
            args.push(Value::Int(0));
        }
    }
    run_function(f, &args, &mut mem).expect("straight-line programs execute");
    mem
}

/// Run one (program, preset, guard mode) cell; `Err` describes the first
/// divergence from the scalar oracle (or a spurious incident).
fn check_one(
    gen_cfg: &GenConfig,
    preset: &str,
    guard: GuardMode,
    paranoid: bool,
) -> Result<(), String> {
    let p = generate(gen_cfg);
    let scalar = capture(&p, &p.function, gen_cfg.seed);
    let cfg = VectorizerConfig { guard, paranoid, ..VectorizerConfig::preset(preset).unwrap() };
    let mut f = p.function.clone();
    let report = try_vectorize_function(&mut f, &cfg, &CostModel::skylake_avx2())
        .map_err(|e| format!("strict abort on clean input: {e}"))?;
    if !report.incidents.is_empty() {
        return Err(format!("spurious incident on clean input: {}", report.incidents[0]));
    }
    lslp_ir::verify_function(&f).map_err(|e| format!("invalid IR: {e}"))?;
    let vec = capture(&p, &f, gen_cfg.seed);
    for name in scalar.buffer_names() {
        let a = scalar.bytes(name).unwrap();
        let b = vec.bytes(name).unwrap();
        if a == b {
            continue;
        }
        if p.elem != ScalarType::F64 {
            return Err(format!("integer buffer {name} differs"));
        }
        for (idx, (ca, cb)) in a.chunks(8).zip(b.chunks(8)).enumerate() {
            let x = f64::from_le_bytes(ca.try_into().unwrap());
            let y = f64::from_le_bytes(cb.try_into().unwrap());
            let tol = 1e-8 * x.abs().max(y.abs()).max(1.0);
            if (x - y).abs() > tol {
                return Err(format!("{name}[{idx}] = {x} vs {y}"));
            }
        }
    }
    Ok(())
}

/// Greedily shrink a failing case along each axis while the given failure
/// predicate keeps holding. Shared by the differential-execution sweep and
/// the delta-undo property test below.
fn shrink_by(mut cfg: GenConfig, fails: impl Fn(&GenConfig) -> bool) -> GenConfig {
    loop {
        let mut candidates = Vec::new();
        if cfg.groups > 1 {
            candidates.push(GenConfig { groups: cfg.groups - 1, ..cfg.clone() });
        }
        if cfg.lanes > 2 {
            candidates.push(GenConfig { lanes: cfg.lanes - 1, ..cfg.clone() });
        }
        if cfg.depth > 1 {
            candidates.push(GenConfig { depth: cfg.depth - 1, ..cfg.clone() });
        }
        if cfg.swap_prob > 0.0 {
            candidates.push(GenConfig { swap_prob: 0.0, ..cfg.clone() });
        }
        if cfg.arrays > 1 {
            candidates.push(GenConfig { arrays: cfg.arrays - 1, ..cfg.clone() });
        }
        match candidates.into_iter().find(|c| fails(c)) {
            Some(smaller) => cfg = smaller,
            None => return cfg,
        }
    }
}

/// Greedily shrink a failing oracle case while it keeps failing.
fn shrink(cfg: GenConfig, preset: &str, guard: GuardMode, paranoid: bool) -> GenConfig {
    shrink_by(cfg, |c| check_one(c, preset, guard, paranoid).is_err())
}

/// FNV-1a of a cell name. The per-cell seed mix is derived from the
/// *names* `"{preset}/{guard}"`, never from iteration position, so the
/// exact programs a cell covers are stable under any reordering or
/// extension of `PRESETS`/`GUARDS` — a failure seed from one machine or
/// revision reproduces on any other.
fn cell_hash(preset: &str, guard: GuardMode) -> u64 {
    fnv(&format!("{preset}/{guard}"))
}

/// FNV-1a over a name.
fn fnv(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The sweep grid as an explicit list, sorted by cell name — the order
/// cases run in (and therefore which failure surfaces first) is defined
/// by the data, not by array layout.
fn cells() -> Vec<(&'static str, GuardMode)> {
    let mut cells: Vec<(&'static str, GuardMode)> =
        GUARDS.iter().flat_map(|&g| PRESETS.map(|p| (p, g))).collect();
    cells.sort_by_key(|&(p, g)| (p, format!("{g}")));
    cells
}

fn fuzz(int: bool, paranoid: bool) {
    for (preset, guard) in cells() {
        let mix = cell_hash(preset, guard);
        for seed in 0..SEEDS_PER_CONFIG {
            // Derive shape parameters from the seed so the sweep covers
            // lanes × depth × swap × arrays without an RNG in the test.
            let gen_cfg = GenConfig {
                seed: seed.wrapping_mul(0x9e3779b97f4a7c15) ^ mix,
                groups: 1 + (seed % 2) as usize,
                lanes: [2, 3, 4][(seed % 3) as usize],
                depth: 1 + (seed % 4) as u32,
                int,
                swap_prob: (seed % 10) as f64 / 10.0,
                arrays: 1 + (seed % 3) as usize,
            };
            if let Err(e) = check_one(&gen_cfg, preset, guard, paranoid) {
                let min = shrink(gen_cfg.clone(), preset, guard, paranoid);
                let err = check_one(&min, preset, guard, paranoid).unwrap_err();
                // Self-contained report: the GenConfig carries the mixed
                // seed, so `check_one(&min, "{preset}", {guard}, ..)`
                // replays it without re-deriving anything.
                panic!(
                    "guard fuzz failure under {preset}/{guard}{} \
                     (cell seed {seed}, gen {gen_cfg:?}): {e}\n\
                     minimal reproducer {min:?}: {err}",
                    if paranoid { " (paranoid)" } else { "" }
                );
            }
        }
    }
}

#[test]
fn integer_programs_survive_all_guard_modes() {
    fuzz(true, false);
}

#[test]
fn float_programs_survive_all_guard_modes() {
    fuzz(false, false);
}

// ---------------------------------------------------------------------------
// Delta-undo property: rollback is a perfect inverse of any mutation mix
// ---------------------------------------------------------------------------

/// Splitmix-style step for the mutation driver — deterministic from the
/// generator seed, so every failure replays from its `GenConfig` alone.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// Apply `count` pseudo-random mutations drawn from the full `Function`
/// mutation surface: allocation (params, constants, instructions), payload
/// edits (`inst_mut`, `replace_uses`, names), and body-order changes
/// (`remove_from_body`, and moves by `remove_at` + `insert_value`).
/// Validity of the result is irrelevant — rollback must restore even from
/// invalid intermediate IR.
fn random_mutations(f: &mut lslp_ir::Function, seed: u64, count: usize) {
    use lslp_ir::{InstAttr, Opcode, Type, ValueId};
    let mut s = seed | 1;
    for _ in 0..count {
        let n = f.num_values() as u64;
        let pick = |s: &mut u64| ValueId::from_raw((next_rand(s) % n) as u32);
        match next_rand(&mut s) % 8 {
            0 => {
                f.add_param(format!("p{}", next_rand(&mut s)), Type::I64);
            }
            1 => {
                f.const_i64((next_rand(&mut s) % 7) as i64 - 3);
            }
            2 => {
                let (a, b) = (pick(&mut s), pick(&mut s));
                f.push(Opcode::Add, Type::I64, vec![a, b], InstAttr::None);
            }
            3 => {
                let v = pick(&mut s);
                let name = format!("n{}", next_rand(&mut s) % 100);
                f.set_value_name(v, name);
            }
            4 => {
                let (v, replacement) = (pick(&mut s), pick(&mut s));
                let k = next_rand(&mut s);
                if let Some(inst) = f.inst_mut(v) {
                    if !inst.args.is_empty() {
                        let idx = (k % inst.args.len() as u64) as usize;
                        inst.args[idx] = replacement;
                    }
                }
            }
            5 => {
                let (old, new) = (pick(&mut s), pick(&mut s));
                f.replace_uses(old, new);
            }
            6 => {
                if f.body_len() > 1 {
                    let victim = f.body()[(next_rand(&mut s) % f.body_len() as u64) as usize];
                    f.remove_from_body(&std::collections::HashSet::from([victim]));
                }
            }
            _ => {
                if f.body_len() > 1 {
                    let from = (next_rand(&mut s) % f.body_len() as u64) as usize;
                    let moved = f.remove_at(from);
                    let to = (next_rand(&mut s) % (f.body_len() as u64 + 1)) as usize;
                    f.insert_value(to, moved);
                }
            }
        }
    }
}

/// One delta-undo trial: generate a program, hit it with a random mutation
/// sequence inside a transaction, roll back, and demand the printed form,
/// the epoch, and the verifier verdict are all byte-identical to the
/// pre-transaction state.
fn delta_undo_check(gen_cfg: &GenConfig) -> Result<(), String> {
    let p = generate(gen_cfg);
    let mut f = p.function;
    let before_print = lslp_ir::print_function(&f);
    let before_epoch = f.epoch();
    let before_verdict = format!("{:?}", lslp_ir::verify_function(&f));
    let before_values = f.num_values();

    let mark = f.begin_txn();
    let count = 4 + (gen_cfg.seed % 13) as usize;
    random_mutations(&mut f, gen_cfg.seed ^ 0xd1b5_4a32_d192_ed03, count);
    f.rollback_txn(mark);

    if f.num_values() != before_values {
        return Err(format!("value count {} != {before_values}", f.num_values()));
    }
    let after_print = lslp_ir::print_function(&f);
    if after_print != before_print {
        return Err(format!(
            "printed form diverged:\n--- before\n{before_print}\n--- after\n{after_print}"
        ));
    }
    if f.epoch() != before_epoch {
        return Err(format!("epoch {} != pre-txn {before_epoch}", f.epoch()));
    }
    let after_verdict = format!("{:?}", lslp_ir::verify_function(&f));
    if after_verdict != before_verdict {
        return Err(format!("verifier verdict changed: {before_verdict} -> {after_verdict}"));
    }
    Ok(())
}

#[test]
fn delta_rollback_is_a_perfect_undo() {
    for int in [true, false] {
        let mix = fnv(if int { "delta-undo/int" } else { "delta-undo/float" });
        for seed in 0..SEEDS_PER_CONFIG {
            let gen_cfg = GenConfig {
                seed: seed.wrapping_mul(0x9e3779b97f4a7c15) ^ mix,
                groups: 1 + (seed % 2) as usize,
                lanes: [2, 3, 4][(seed % 3) as usize],
                depth: 1 + (seed % 4) as u32,
                int,
                swap_prob: (seed % 10) as f64 / 10.0,
                arrays: 1 + (seed % 3) as usize,
            };
            if let Err(e) = delta_undo_check(&gen_cfg) {
                let min = shrink_by(gen_cfg.clone(), |c| delta_undo_check(c).is_err());
                let err = delta_undo_check(&min).unwrap_err();
                panic!(
                    "delta-undo failure (cell seed {seed}, gen {gen_cfg:?}): {e}\n\
                     minimal reproducer {min:?}: {err}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental analyses: catching up from the delta log equals recomputing
// ---------------------------------------------------------------------------

/// Apply `count` pseudo-random edits of the kinds a vectorizer commit
/// makes, keeping every operand defined earlier in the body (so the
/// address analysis never meets a cycle): new arithmetic, loads and
/// stores spliced in, payload rewrites (address indices included), use
/// replacement, removal of unused instructions, and the creation of
/// orphans.
fn random_commit_edits(f: &mut lslp_ir::Function, seed: u64, count: usize) {
    use lslp_ir::{InstAttr, Opcode, Type, ValueId};
    let mut s = seed | 1;
    for _ in 0..count {
        let len = f.body_len();
        if len < 2 {
            return;
        }
        let at = 1 + (next_rand(&mut s) % (len as u64 - 1)) as usize;
        // An i64 value defined before body position `at`, else a param.
        let earlier = |s: &mut u64, want: Type| -> Option<ValueId> {
            let cands: Vec<ValueId> = f
                .params()
                .iter()
                .copied()
                .filter(|&v| f.ty(v) == want)
                .chain(f.body()[..at].iter().copied().filter(|&v| f.ty(v) == want))
                .collect();
            (!cands.is_empty()).then(|| cands[(next_rand(s) % cands.len() as u64) as usize])
        };
        match next_rand(&mut s) % 7 {
            0 => {
                if let (Some(a), Some(b)) = (earlier(&mut s, Type::I64), earlier(&mut s, Type::I64))
                {
                    f.insert(at, Opcode::Add, Type::I64, vec![a, b], InstAttr::None);
                }
            }
            1 => {
                if let Some(p) = earlier(&mut s, Type::PTR) {
                    let i = earlier(&mut s, Type::I64).unwrap_or_else(|| f.const_i64(1));
                    let g =
                        f.insert(at, Opcode::Gep, Type::PTR, vec![p, i], InstAttr::ElemBytes(8));
                    let l = f.create(Opcode::Load, Type::I64, vec![g], InstAttr::None);
                    f.insert_value(at + 1, l);
                    if next_rand(&mut s).is_multiple_of(2) {
                        f.insert(at + 2, Opcode::Store, Type::Void, vec![l, g], InstAttr::None);
                    }
                }
            }
            2 => {
                // Rewrite an operand of a body instruction (a gep's index
                // moves every access through it) to an earlier value.
                let v = f.body()[at];
                let k = next_rand(&mut s);
                let Some(inst) = f.inst(v) else { continue };
                if inst.args.is_empty() {
                    continue;
                }
                let idx = (k % inst.args.len() as u64) as usize;
                let want = f.ty(inst.args[idx]);
                if let Some(r) = earlier(&mut s, want) {
                    f.inst_mut(v).expect("body instruction").args[idx] = r;
                }
            }
            3 => {
                let old = f.body()[at];
                if let Some(new) = earlier(&mut s, f.ty(old)) {
                    if new != old {
                        f.replace_uses(old, new);
                    }
                }
            }
            4 => {
                // Remove an unused instruction (or a store).
                let uses = f.use_map();
                if let Some(i) = (at..len).find(|&i| uses.num_uses(f.body()[i]) == 0) {
                    f.remove_at(i);
                }
            }
            5 => {
                let uses = f.use_map();
                let dead: std::collections::HashSet<ValueId> =
                    f.body().iter().copied().filter(|&v| uses.num_uses(v) == 0).take(3).collect();
                f.remove_from_body(&dead);
            }
            _ => {
                let c = f.const_i64((next_rand(&mut s) % 5) as i64);
                f.create(Opcode::Add, Type::I64, vec![c, c], InstAttr::None);
            }
        }
    }
}

/// Compare the manager's (caught-up) positions, uses and address analysis
/// with fresh ones.
fn analyses_match(
    f: &lslp_ir::Function,
    am: &mut lslp_analysis::AnalysisManager,
) -> Result<(), String> {
    let positions = am.positions(f);
    if !positions.orders(f.body()) {
        return Err("positions do not order the body".into());
    }
    let uses = am.use_map(f);
    let fresh = f.use_map();
    for i in 0..f.num_values() {
        let v = lslp_ir::ValueId::from_raw(i as u32);
        if uses.uses(v) != fresh.uses(v) {
            return Err(format!("uses of {v}: {:?} != fresh {:?}", uses.uses(v), fresh.uses(v)));
        }
    }
    if *am.addr_info(f) != lslp_analysis::AddrInfo::analyze(f) {
        return Err("address analysis differs from a fresh one".into());
    }
    Ok(())
}

/// One trial: random commit/rollback rounds inside a pass-wide
/// transaction, checking the manager after each round. Returns the number
/// of catch-ups the manager made.
fn incremental_analyses_check(gen_cfg: &GenConfig) -> Result<u64, String> {
    let mut f = generate(gen_cfg).function;
    let mut am = lslp_analysis::AnalysisManager::new();
    let _anchor = f.begin_txn();
    analyses_match(&f, &mut am)?;
    let mut s = gen_cfg.seed | 1;
    for round in 0..12 {
        let mark = f.begin_txn();
        let count = 1 + (next_rand(&mut s) % 4) as usize;
        random_commit_edits(&mut f, next_rand(&mut s), count);
        analyses_match(&f, &mut am).map_err(|e| format!("round {round}, before close: {e}"))?;
        if next_rand(&mut s).is_multiple_of(3) {
            f.rollback_txn(mark);
        } else {
            f.commit_txn(mark);
        }
        analyses_match(&f, &mut am).map_err(|e| format!("round {round}, after close: {e}"))?;
    }
    Ok(am.cache_stats().updates)
}

#[test]
fn incrementally_maintained_analyses_equal_recomputed_ones() {
    let mut updates = 0;
    for int in [true, false] {
        let mix = fnv(if int { "incremental/int" } else { "incremental/float" });
        for seed in 0..SEEDS_PER_CONFIG {
            let gen_cfg = GenConfig {
                seed: seed.wrapping_mul(0x9e3779b97f4a7c15) ^ mix,
                groups: 3 + (seed % 3) as usize,
                lanes: 4,
                depth: 2 + (seed % 3) as u32,
                int,
                swap_prob: 0.5,
                arrays: 1 + (seed % 3) as usize,
            };
            match incremental_analyses_check(&gen_cfg) {
                Ok(n) => updates += n,
                Err(e) => panic!("incremental analyses diverged (gen {gen_cfg:?}): {e}"),
            }
        }
    }
    assert!(updates > 1000, "the log catch-up path must be exercised ({updates} updates)");
}

/// One trial: the scalar pipeline's passes run twice over `f` through one
/// pass manager and one shared analysis manager, the way the pipeline
/// runs them; after each pass the manager's entries (caught up by the
/// guard's commit check, or recomputed) must equal fresh ones. Returns the
/// number of catch-ups the manager made.
fn guarded_pass_analyses_check(mut f: lslp_ir::Function) -> Result<u64, String> {
    use lslp::{
        CsePass, DcePass, FoldPass, GuardPolicy, IfConvertPass, Pass, PassContext, PassManager,
        SimplifyPass, Statistics, UnrollLoopsPass,
    };
    let (cfg, tm, stats) = (VectorizerConfig::o3(), CostModel::default(), Statistics::new());
    let cx = PassContext { cfg: &cfg, tm: &tm, stats: &stats };
    let mut pm = PassManager::new(GuardPolicy::new(GuardMode::Strict));
    let mut am = lslp_analysis::AnalysisManager::new();
    analyses_match(&f, &mut am).map_err(|e| format!("before any pass: {e}"))?;
    for round in 0..2 {
        let passes: [&mut dyn Pass; 6] = [
            &mut IfConvertPass,
            &mut UnrollLoopsPass,
            &mut SimplifyPass,
            &mut FoldPass,
            &mut CsePass,
            &mut DcePass,
        ];
        for pass in passes {
            let name = pass.name();
            pm.run_pass(pass, &mut f, &mut am, &cx).map_err(|e| format!("{name}: {e}"))?;
            analyses_match(&f, &mut am).map_err(|e| format!("round {round}, {name}: {e}"))?;
        }
    }
    Ok(am.cache_stats().updates)
}

#[test]
fn analyses_caught_up_through_guarded_scalar_passes_equal_recomputed_ones() {
    let mut updates = 0;
    let mix = fnv("guarded-passes");
    for seed in 0..SEEDS_PER_CONFIG {
        let gen_cfg = GenConfig {
            seed: seed.wrapping_mul(0x9e3779b97f4a7c15) ^ mix,
            groups: 2 + (seed % 3) as usize,
            lanes: 4,
            depth: 2 + (seed % 3) as u32,
            int: seed % 2 == 0,
            swap_prob: 0.5,
            arrays: 1 + (seed % 3) as usize,
        };
        match guarded_pass_analyses_check(generate(&gen_cfg).function) {
            Ok(n) => updates += n,
            Err(e) => panic!("analyses diverged through the passes (gen {gen_cfg:?}): {e}"),
        }
    }
    for k in lslp_kernels::loop_kernels().into_iter().chain(lslp_kernels::suite()) {
        match guarded_pass_analyses_check(k.compile()) {
            Ok(n) => updates += n,
            Err(e) => panic!("analyses diverged through the passes ({}): {e}", k.name),
        }
    }
    assert!(updates > 300, "the guard's commit check must catch entries up ({updates} updates)");
}

// ---------------------------------------------------------------------------
// Delta-undo property over the CFG mutation surface
// ---------------------------------------------------------------------------

/// Apply `count` pseudo-random mutations drawn from the *CFG* mutation
/// surface: block allocation, block parameters, in-block instruction
/// insertion, terminator rewrites, instruction/parameter reordering,
/// use-replacement, and full CFG dissolution. As with the straight-line
/// battery, intermediate validity is irrelevant — rollback must restore
/// from any state the mutators can reach.
fn random_cfg_mutations(f: &mut lslp_ir::Function, seed: u64, count: usize) {
    use lslp_ir::{BlockId, InstAttr, Opcode, Terminator, Type, ValueId};
    let mut s = seed | 1;
    for _ in 0..count {
        let n = f.num_values() as u64;
        let pick = |s: &mut u64| ValueId::from_raw((next_rand(s) % n) as u32);
        if f.cfg().is_none() {
            // A dissolve landed earlier in the sequence; keep exercising
            // the shared surface on the straight-line remainder.
            let (old, new) = (pick(&mut s), pick(&mut s));
            f.replace_uses(old, new);
            continue;
        }
        let nb = f.num_blocks() as u64;
        let pick_block = |s: &mut u64| BlockId::from_raw((next_rand(s) % nb) as u32);
        match next_rand(&mut s) % 8 {
            0 => {
                f.add_block();
            }
            1 => {
                let b = pick_block(&mut s);
                f.add_block_param(b, None, Type::I64);
            }
            2 => {
                let b = pick_block(&mut s);
                let (x, y) = (pick(&mut s), pick(&mut s));
                f.push_in_block(b, Opcode::Add, Type::I64, vec![x, y], InstAttr::None);
            }
            3 => {
                let b = pick_block(&mut s);
                let term = match next_rand(&mut s) % 4 {
                    0 => Terminator::Ret,
                    1 => Terminator::Jump { target: pick_block(&mut s), args: vec![] },
                    2 => Terminator::Continue { args: vec![pick(&mut s)] },
                    _ => Terminator::Br {
                        cond: pick(&mut s),
                        then_to: pick_block(&mut s),
                        then_args: vec![],
                        else_to: pick_block(&mut s),
                        else_args: vec![pick(&mut s)],
                    },
                };
                f.set_term(b, term);
            }
            4 => {
                let b = pick_block(&mut s);
                let mut insts = f.cfg().unwrap().block(b).insts().to_vec();
                if !insts.is_empty() {
                    let by = (next_rand(&mut s) % insts.len() as u64) as usize;
                    insts.rotate_left(by);
                    insts.truncate((next_rand(&mut s) % (insts.len() as u64 + 1)) as usize);
                }
                f.set_block_insts(b, insts);
            }
            5 => {
                let b = pick_block(&mut s);
                let mut params = f.cfg().unwrap().block(b).params().to_vec();
                params.truncate((next_rand(&mut s) % (params.len() as u64 + 1)) as usize);
                f.set_block_params(b, params);
            }
            6 => {
                let (old, new) = (pick(&mut s), pick(&mut s));
                f.replace_uses(old, new);
            }
            _ => {
                // Flatten: adopt every block's instructions in block order,
                // exactly as the real if-conversion/unroll flatten does.
                let cfg = f.cfg().unwrap();
                let body: Vec<ValueId> =
                    cfg.block_ids().flat_map(|b| cfg.block(b).insts().to_vec()).collect();
                f.dissolve_cfg(body);
            }
        }
    }
}

/// The CFG base-function pool: every loop-study kernel (counted loops,
/// branch diamonds, loop-carried values) — real shapes, not toys.
fn cfg_base(which: u64) -> lslp_ir::Function {
    let kernels = lslp_kernels::loop_kernels();
    kernels[(which % kernels.len() as u64) as usize].compile()
}

/// One CFG delta-undo trial, mirroring [`delta_undo_check`].
fn cfg_delta_undo_check(seed: u64) -> Result<(), String> {
    let mut f = cfg_base(seed);
    let before_print = lslp_ir::print_function(&f);
    let before_epoch = f.epoch();
    let before_verdict = format!("{:?}", lslp_ir::verify_function(&f));
    let before_values = f.num_values();

    let mark = f.begin_txn();
    let count = 4 + (seed % 13) as usize;
    random_cfg_mutations(&mut f, seed ^ 0xa076_1d64_78bd_642f, count);
    f.rollback_txn(mark);

    if f.num_values() != before_values {
        return Err(format!("value count {} != {before_values}", f.num_values()));
    }
    let after_print = lslp_ir::print_function(&f);
    if after_print != before_print {
        return Err(format!(
            "printed form diverged:\n--- before\n{before_print}\n--- after\n{after_print}"
        ));
    }
    if f.epoch() != before_epoch {
        return Err(format!("epoch {} != pre-txn {before_epoch}", f.epoch()));
    }
    let after_verdict = format!("{:?}", lslp_ir::verify_function(&f));
    if after_verdict != before_verdict {
        return Err(format!("verifier verdict changed: {before_verdict} -> {after_verdict}"));
    }
    Ok(())
}

#[test]
fn delta_rollback_restores_cfg_functions_byte_for_byte() {
    let mix = fnv("delta-undo/cfg");
    for seed in 0..2 * SEEDS_PER_CONFIG {
        let mixed = seed.wrapping_mul(0x9e3779b97f4a7c15) ^ mix;
        if let Err(e) = cfg_delta_undo_check(mixed) {
            panic!("CFG delta-undo failure (cell seed {seed}, mixed {mixed:#x}): {e}");
        }
    }
}

#[test]
fn paranoid_oracle_raises_no_false_alarms() {
    // The differential oracle re-executes every committed transform; on
    // clean inputs it must agree with itself (no OracleMismatch incidents,
    // no behavioral change). A smaller sweep — each cell runs the
    // interpreter several extra times.
    let mut presets = PRESETS;
    presets.sort_unstable();
    for preset in presets {
        let mix = cell_hash(preset, GuardMode::Rollback);
        for seed in 0..32u64 {
            let gen_cfg = GenConfig {
                seed: seed.wrapping_mul(0x2545f4914f6cdd1d) ^ mix,
                groups: 1 + (seed % 2) as usize,
                lanes: [2, 4][(seed % 2) as usize],
                depth: 1 + (seed % 3) as u32,
                int: seed % 2 == 0,
                swap_prob: (seed % 4) as f64 / 4.0,
                arrays: 2,
            };
            if let Err(e) = check_one(&gen_cfg, preset, GuardMode::Rollback, true) {
                let min = shrink(gen_cfg, preset, GuardMode::Rollback, true);
                panic!("paranoid fuzz failure under {preset}: {e}\nminimal reproducer {min:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cost gate: delta rollback is cheaper than snapshot-clone
// ---------------------------------------------------------------------------

/// The bookkeeping of one guarded attempt, timed both ways on every suite
/// kernel: `begin_txn`/mutate/`rollback_txn` against clone/mutate/restore.
/// The mutation is an attempt's shape — a few new instructions spliced
/// into the middle of the body, as codegen does.
#[test]
#[ignore = "timing gate: CI runs it in release"]
fn delta_rollback_is_cheaper_than_snapshot_restore() {
    use lslp_ir::{InstAttr, Opcode};
    use std::time::Instant;

    fn attempt(f: &mut lslp_ir::Function) {
        let mid = f.body_len() / 2;
        let (a, b) = (f.body()[0], f.body()[mid]);
        for k in 0..4 {
            let v = f.create(Opcode::Add, f.ty(a), vec![a, b], InstAttr::None);
            f.insert_value(mid + 1 + k, v);
        }
    }
    /// Median nanoseconds per attempt over 30 batches of 64.
    fn median_ns(proto: &lslp_ir::Function, delta: bool) -> f64 {
        let mut f = proto.clone();
        let mut samples: Vec<f64> = (0..30)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..64 {
                    if delta {
                        let mark = f.begin_txn();
                        attempt(&mut f);
                        f.rollback_txn(mark);
                    } else {
                        let snapshot = f.clone();
                        attempt(&mut f);
                        f = snapshot;
                    }
                }
                start.elapsed().as_nanos() as f64 / 64.0
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    }

    let ratios: Vec<f64> = lslp_kernels::suite()
        .iter()
        .map(|k| {
            let proto = k.compile();
            median_ns(&proto, false) / median_ns(&proto, true)
        })
        .collect();
    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    println!("geomean attempt speedup (snapshot/delta): {geomean:.2}x");
    assert!(geomean > 1.0, "delta rollback is no cheaper than snapshot-clone ({geomean:.3}x)");
}
