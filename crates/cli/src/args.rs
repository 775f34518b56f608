//! Hand-rolled argument parsing for `lslpc` (no CLI dependency).

use std::fmt;

/// What the driver should print.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Emit {
    /// The optimized IR (default).
    #[default]
    Ir,
    /// The SLP graphs built for each seed group, with per-node costs.
    Graphs,
    /// A per-kernel vectorization report (attempts, costs, timings).
    Report,
    /// Graphviz DOT of the SLP graphs built for each seed group.
    Dot,
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Input path (`-` for stdin).
    pub input: String,
    /// Configuration preset name (`O3`, `SLP-NR`, `SLP`, `LSLP`, ...).
    pub config: String,
    /// Target machine spec (`sse4.2`, `skylake-avx2`, `avx512`, `neon128`,
    /// optionally with `+feature` suffixes); `None` = the default target.
    pub target: Option<String>,
    /// Output selection.
    pub emit: Emit,
    /// Run the full `-O3`-style pipeline (scalar passes + vectorizer)
    /// instead of the vectorizer alone.
    pub pipeline: bool,
    /// Execute each kernel after compilation and print result checksums
    /// and simulated cycles.
    pub run: bool,
    /// Iterations for `--run`.
    pub iters: usize,
    /// With `--run`: print every instruction's value for the first
    /// iteration of each kernel.
    pub trace: bool,
    /// Second configuration for `--compare` (side-by-side costs).
    pub compare: Option<String>,
    /// Output file (stdout if absent).
    pub output: Option<String>,
    /// Pass-guard mode override (`off` | `rollback` | `strict`); `None`
    /// keeps the preset default (rollback). Validated with the other
    /// compile options by `lslp::CompileOptionsBuilder::build`.
    pub guard: Option<String>,
    /// Statement-packing strategy (`greedy` | `global`); `None` keeps the
    /// preset default (greedy, the paper's per-lane-cheapest commit).
    /// Validated like [`Args::guard`].
    pub packing: Option<String>,
    /// Paranoid mode: differentially execute every committed transform
    /// against its pre-transform snapshot (slow).
    pub paranoid: bool,
    /// Print per-pass wall-clock timings after the main output.
    pub print_pass_times: bool,
    /// Print pass statistics and analysis-cache counters after the main
    /// output (LLVM `-stats` style).
    pub stats: bool,
    /// Run as the `lslpd` compile daemon instead of compiling one input
    /// (see `docs/SERVER.md`).
    pub serve: bool,
    /// Bind address for `--serve`.
    pub addr: String,
    /// Worker-thread count for `--serve` (`None` = CPU count).
    pub workers: Option<usize>,
    /// Persistent cache directory for `--serve` (`None` = memory-only).
    pub cache_dir: Option<String>,
    /// Fault-injection spec for `--serve`, validated at parse time
    /// (`None` = no injected faults).
    pub chaos: Option<String>,
    /// Run a fuzzing campaign of this many iterations instead of
    /// compiling one input (see `docs/FUZZING.md`).
    pub fuzz: Option<u64>,
    /// Campaign seed for `--fuzz`; equal seeds replay byte-identically.
    pub fuzz_seed: u64,
    /// Regression-corpus directory for `--fuzz` (seeds the corpus and
    /// receives minimized reproducers).
    pub fuzz_dir: String,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            input: String::new(),
            config: "LSLP".into(),
            target: None,
            emit: Emit::Ir,
            pipeline: false,
            run: false,
            iters: 16,
            trace: false,
            compare: None,
            output: None,
            guard: None,
            packing: None,
            paranoid: false,
            print_pass_times: false,
            stats: false,
            serve: false,
            addr: "127.0.0.1:7979".into(),
            workers: None,
            cache_dir: None,
            chaos: None,
            fuzz: None,
            fuzz_seed: 1,
            fuzz_dir: "fuzz/corpus/regressions".into(),
        }
    }
}

/// An argument-parsing failure (message for stderr).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// The usage text printed by `--help`.
pub const USAGE: &str = "\
lslpc — the LSLP auto-vectorizer driver

USAGE:
    lslpc <file.slc|-> [OPTIONS]

OPTIONS:
    --config <NAME>    O3 | SLP-NR | SLP | LSLP | LSLP-LA<n> | LSLP-Multi<n>
                       (default: LSLP)
    --target <SPEC>    sse4.2 | skylake-avx2 | avx512 | neon128, with
                       optional +feature suffixes, e.g. sse4.2+fast-div
                       (default: skylake-avx2; see docs/TARGETS.md)
    --emit <WHAT>      ir | graphs | report | dot   (default: ir)
    --pipeline         run the full scalar+vector pipeline (simplify, fold,
                       cse, dce around the vectorizer)
    --run              execute each kernel and print output checksums and
                       simulated cycles
    --iters <N>        iterations for --run (default: 16)
    --trace            with --run: print each instruction's value for the
                       first iteration
    --compare <NAME>   also compile under a second configuration and print
                       a cost comparison
    --guard <MODE>     off | rollback | strict — transactional pass guard
                       semantics (default: rollback). Every pass and seed
                       attempt runs in a transaction, panic-isolated and
                       verified; rollback restores the scalar code on any
                       incident, strict aborts compilation, off disables
                       the guard
    --packing <NAME>   greedy | global — statement-packing strategy
                       (default: greedy). greedy commits the cheapest
                       per-lane VF at each seed position (the paper's
                       algorithm); global plans whole pack sets per store
                       chain by DP + branch-and-bound and is never
                       costlier than greedy (see docs/PACKING.md)
    --paranoid         differentially execute every committed transform
                       against its pre-transform snapshot (slow)
    --print-pass-times print per-pass wall-clock timings (and total analysis
                       time) after the main output
    --stats            print pass statistics and analysis-cache hit/miss
                       counters after the main output
    -o <FILE>          write output to FILE instead of stdout
    --serve            run as the lslpd compile daemon (no input file; see
                       docs/SERVER.md for the protocol)
    --addr <H:P>       bind address for --serve (default: 127.0.0.1:7979)
    --workers <N>      worker threads for --serve (default: CPU count)
    --cache-dir <DIR>  with --serve: persist the result cache under DIR so a
                       restarted daemon starts warm (see docs/SERVER.md)
    --chaos <SPEC>     with --serve: seeded fault injection, e.g.
                       seed=7,panic=0.1,read-drop=0.05 (see docs/SERVER.md)
    --fuzz <N>         run an N-iteration fuzzing campaign (no input file;
                       differential/metamorphic oracles on every target —
                       or just --target if given; see docs/FUZZING.md).
                       Exits 1 if any oracle violation is found
    --fuzz-seed <N>    campaign seed for --fuzz; equal seeds replay
                       byte-identically (default: 1)
    --fuzz-dir <PATH>  regression-corpus directory for --fuzz: existing
                       reproducers seed the corpus, new minimized failures
                       are written back (default: fuzz/corpus/regressions)
    -h, --help         show this help

EXIT CODES:
    0  success          2  bad invocation (flags, unknown config)
    1  compiler failure 3  input error (SLC parse/type/verify)
";

/// Parse a raw argument vector (without the program name).
///
/// # Errors
///
/// Returns [`ArgError`] on unknown flags, missing values, or a missing
/// input path; the message is ready for stderr.
pub fn parse(argv: &[String]) -> Result<Args, ArgError> {
    let mut args = Args::default();
    let mut input: Option<String> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value_of = |flag: &str| {
            it.next().cloned().ok_or_else(|| ArgError(format!("{flag} requires a value")))
        };
        match a.as_str() {
            "-h" | "--help" => return Err(ArgError(USAGE.to_string())),
            "--config" => args.config = value_of("--config")?,
            "--target" => args.target = Some(value_of("--target")?),
            "--emit" => {
                args.emit = match value_of("--emit")?.as_str() {
                    "ir" => Emit::Ir,
                    "graphs" => Emit::Graphs,
                    "report" => Emit::Report,
                    "dot" => Emit::Dot,
                    other => return Err(ArgError(format!("unknown --emit mode `{other}`"))),
                }
            }
            "--pipeline" => args.pipeline = true,
            "--run" => args.run = true,
            "--trace" => args.trace = true,
            "--iters" => {
                args.iters = value_of("--iters")?
                    .parse()
                    .map_err(|e| ArgError(format!("bad --iters value: {e}")))?
            }
            "--compare" => args.compare = Some(value_of("--compare")?),
            "--guard" => args.guard = Some(value_of("--guard")?),
            "--packing" => args.packing = Some(value_of("--packing")?),
            "--paranoid" => args.paranoid = true,
            "--print-pass-times" => args.print_pass_times = true,
            "--stats" => args.stats = true,
            "--serve" => args.serve = true,
            "--addr" => args.addr = value_of("--addr")?,
            "--cache-dir" => args.cache_dir = Some(value_of("--cache-dir")?),
            "--chaos" => {
                let spec = value_of("--chaos")?;
                lslp_server::chaos::ChaosConfig::parse(&spec)
                    .map_err(|e| ArgError(format!("bad --chaos: {e}")))?;
                args.chaos = Some(spec);
            }
            "--workers" => {
                args.workers = Some(
                    value_of("--workers")?
                        .parse()
                        .map_err(|e| ArgError(format!("bad --workers value: {e}")))?,
                )
            }
            "--fuzz" => {
                args.fuzz = Some(
                    value_of("--fuzz")?
                        .parse()
                        .map_err(|e| ArgError(format!("bad --fuzz value: {e}")))?,
                )
            }
            "--fuzz-seed" => {
                args.fuzz_seed = value_of("--fuzz-seed")?
                    .parse()
                    .map_err(|e| ArgError(format!("bad --fuzz-seed value: {e}")))?
            }
            "--fuzz-dir" => args.fuzz_dir = value_of("--fuzz-dir")?,
            "-o" => args.output = Some(value_of("-o")?),
            flag if flag.starts_with('-') && flag != "-" => {
                return Err(ArgError(format!("unknown option `{flag}` (see --help)")))
            }
            path => {
                if input.replace(path.to_string()).is_some() {
                    return Err(ArgError("more than one input file given".into()));
                }
            }
        }
    }
    if args.serve || args.fuzz.is_some() {
        // Neither the daemon nor a fuzzing campaign takes an input file;
        // a stray one is a usage error.
        if let Some(extra) = input {
            let mode = if args.serve { "--serve" } else { "--fuzz" };
            return Err(ArgError(format!("{mode} takes no input file (got `{extra}`)")));
        }
    } else {
        args.input = input.ok_or_else(|| ArgError(format!("no input file\n\n{USAGE}")))?;
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &[&str]) -> Result<Args, ArgError> {
        let v: Vec<String> = s.iter().map(|x| x.to_string()).collect();
        parse(&v)
    }

    #[test]
    fn minimal_invocation() {
        let a = p(&["kernel.slc"]).unwrap();
        assert_eq!(a.input, "kernel.slc");
        assert_eq!(a.config, "LSLP");
        assert_eq!(a.emit, Emit::Ir);
        assert!(!a.run);
    }

    #[test]
    fn full_invocation() {
        let a = p(&[
            "k.slc",
            "--config",
            "SLP",
            "--emit",
            "report",
            "--pipeline",
            "--run",
            "--iters",
            "32",
            "--compare",
            "LSLP",
            "-o",
            "out.txt",
        ])
        .unwrap();
        assert_eq!(a.config, "SLP");
        assert_eq!(a.emit, Emit::Report);
        assert!(a.pipeline && a.run);
        assert_eq!(a.iters, 32);
        assert_eq!(a.compare.as_deref(), Some("LSLP"));
        assert_eq!(a.output.as_deref(), Some("out.txt"));
    }

    #[test]
    fn stdin_dash_is_an_input() {
        let a = p(&["-"]).unwrap();
        assert_eq!(a.input, "-");
    }

    #[test]
    fn target_flag_parses() {
        let a = p(&["k.slc", "--target", "avx512+hw-gather"]).unwrap();
        assert_eq!(a.target.as_deref(), Some("avx512+hw-gather"));
        let d = p(&["k.slc"]).unwrap();
        assert_eq!(d.target, None, "default target is the library's choice");
        assert!(p(&["k.slc", "--target"]).unwrap_err().0.contains("requires a value"));
    }

    /// The error a compile under `argv` fails with: spellings are
    /// validated by the options builder, not the parser.
    fn compile_error(argv: &[&str]) -> lslp::LslpError {
        const SRC: &str = "kernel k(i64* A, i64 i) { A[i] = 1; }";
        crate::driver::run_on_source(&p(argv).unwrap(), SRC).unwrap_err()
    }

    #[test]
    fn packing_flag_parses_and_validates() {
        let a = p(&["k.slc", "--packing", "global"]).unwrap();
        assert_eq!(a.packing.as_deref(), Some("global"));
        let d = p(&["k.slc"]).unwrap();
        assert_eq!(d.packing, None, "default packing is the preset's choice");
        let e = compile_error(&["-", "--packing", "exhaustive"]);
        assert_eq!(e.class(), lslp::ErrorClass::Usage);
        assert_eq!(e.exit_code(), 2);
        assert!(e.to_string().contains("greedy, global"), "{e}");
        assert!(p(&["k.slc", "--packing"]).unwrap_err().0.contains("requires a value"));
    }

    #[test]
    fn guard_flags_parse() {
        let a = p(&["k.slc", "--guard", "strict", "--paranoid"]).unwrap();
        assert_eq!(a.guard.as_deref(), Some("strict"));
        assert!(a.paranoid);
        let d = p(&["k.slc"]).unwrap();
        assert_eq!(d.guard, None);
        assert!(!d.paranoid);
        // Unknown modes, including the rollback-strategy spellings, are
        // bad invocations (exit 2).
        for mode in ["yolo", "snapshot", "differential"] {
            let e = compile_error(&["-", "--guard", mode]);
            assert_eq!(e.class(), lslp::ErrorClass::Usage, "{mode}");
            assert_eq!(e.exit_code(), 2);
            assert!(e.to_string().contains(&format!("unknown guard mode `{mode}`")), "{e}");
        }
        assert!(p(&["k.slc", "--guard"]).unwrap_err().0.contains("requires a value"));
    }

    #[test]
    fn observability_flags_parse() {
        let a = p(&["k.slc", "--print-pass-times", "--stats"]).unwrap();
        assert!(a.print_pass_times);
        assert!(a.stats);
        let d = p(&["k.slc"]).unwrap();
        assert!(!d.print_pass_times);
        assert!(!d.stats);
    }

    #[test]
    fn serve_flags_parse() {
        let a = p(&[
            "--serve",
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "8",
            "--cache-dir",
            "/tmp/lslp",
            "--chaos",
            "seed=7,panic=0.1",
        ])
        .unwrap();
        assert!(a.serve);
        assert_eq!(a.addr, "0.0.0.0:9000");
        assert_eq!(a.workers, Some(8));
        assert_eq!(a.cache_dir.as_deref(), Some("/tmp/lslp"));
        assert_eq!(a.chaos.as_deref(), Some("seed=7,panic=0.1"));
        assert!(a.input.is_empty(), "daemon mode has no input file");
        assert!(p(&["--serve", "kernel.slc"]).unwrap_err().0.contains("takes no input"));
        assert!(p(&["--serve", "--workers", "many"]).unwrap_err().0.contains("bad --workers"));
        assert!(
            p(&["--serve", "--chaos", "panic=2.0"]).unwrap_err().0.contains("bad --chaos"),
            "chaos specs are validated at parse time"
        );
        let d = p(&["k.slc"]).unwrap();
        assert!(!d.serve);
        assert_eq!(d.workers, None);
        assert_eq!(d.cache_dir, None);
        assert_eq!(d.chaos, None);
    }

    #[test]
    fn fuzz_flags_parse() {
        let a = p(&["--fuzz", "2000", "--fuzz-seed", "7", "--fuzz-dir", "corpus"]).unwrap();
        assert_eq!(a.fuzz, Some(2000));
        assert_eq!(a.fuzz_seed, 7);
        assert_eq!(a.fuzz_dir, "corpus");
        assert!(a.input.is_empty(), "fuzz mode has no input file");
        let d = p(&["k.slc"]).unwrap();
        assert_eq!(d.fuzz, None);
        assert_eq!(d.fuzz_seed, 1);
        assert_eq!(d.fuzz_dir, "fuzz/corpus/regressions");
        assert!(p(&["--fuzz", "10", "kernel.slc"]).unwrap_err().0.contains("takes no input"));
        assert!(p(&["--fuzz", "lots"]).unwrap_err().0.contains("bad --fuzz"));
        assert!(p(&["--fuzz", "10", "--fuzz-seed", "x"])
            .unwrap_err()
            .0
            .contains("bad --fuzz-seed"));
    }

    #[test]
    fn errors_are_helpful() {
        assert!(p(&[]).unwrap_err().0.contains("no input file"));
        assert!(p(&["a", "b"]).unwrap_err().0.contains("more than one"));
        assert!(p(&["a", "--emit", "svg"]).unwrap_err().0.contains("unknown --emit"));
        assert!(p(&["a", "--bogus"]).unwrap_err().0.contains("unknown option"));
        assert!(p(&["a", "--iters"]).unwrap_err().0.contains("requires a value"));
        assert!(p(&["--help"]).unwrap_err().0.contains("USAGE"));
    }
}
