//! The stable embedding API: validated [`CompileOptions`], the
//! [`Session`] facade, and the consolidated [`LslpError`] type.
//!
//! Everything a host program needs to drive the compiler lives here:
//!
//! ```
//! use lslp::api::{CompileOptions, Session};
//!
//! let opts = CompileOptions::preset("lslp")
//!     .target("avx512")
//!     .time_budget_ms(50)
//!     .build()
//!     .unwrap();
//! let mut session = Session::new(opts);
//! let artifact = session
//!     .compile("kernel k(f64* A, f64* B, i64 i) { for o in 0..4 { A[i+o] = B[i+o] * B[i+o]; } }")
//!     .unwrap();
//! assert!(artifact.ir().contains("<4 x f64>"));
//! ```
//!
//! The builder validates *combinations*, not just individual values:
//! asking for a packing strategy on a preset that never vectorizes, or
//! paranoid differential execution with the guard off, is rejected with a
//! typed [`OptionsError`] instead of being silently ignored. Vectorizer
//! tuning (look-ahead depth, multi-node size, throttling) comes with the
//! preset: `LSLP-LA{n}`, `LSLP-Multi{n}`, `LSLP-Throttle`.
//!
//! [`LslpError`] consolidates the failure taxonomy that used to be split
//! between the CLI driver and the compile daemon. Every error carries a
//! stable [`ErrorClass`] with a fixed process exit code: `Usage` → 2,
//! `Input` → 3, `Internal` → 1.

use std::fmt;

use lslp_analysis::AnalysisManager;
use lslp_ir::Module;
use lslp_target::{TargetParseError, TargetSpec};

use crate::config::{PackingStrategy, Sabotage, VectorizerConfig};
use crate::guard::GuardMode;
use crate::pipeline::{self, PipelineReport, Schedule};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// How a failure should be classified at the process boundary, so scripts
/// and the compile service can tell user error from compiler bug.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorClass {
    /// Bad invocation or inconsistent options: exit 2.
    Usage,
    /// The *input* is at fault (SLC parse/type/verify error): exit 3.
    Input,
    /// The compiler itself failed (strict-guard abort, runtime failure):
    /// exit 1.
    Internal,
}

impl ErrorClass {
    /// The stable process exit code for this class.
    pub fn exit_code(self) -> i32 {
        match self {
            ErrorClass::Usage => 2,
            ErrorClass::Input => 3,
            ErrorClass::Internal => 1,
        }
    }
}

/// Why a [`CompileOptions`] build was rejected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OptionsError {
    /// The preset name matches no known configuration.
    UnknownPreset(String),
    /// The target spec string did not parse (unknown name or feature).
    BadTarget(TargetParseError),
    /// The guard mode name matches no known mode.
    UnknownGuard(String),
    /// A value is out of its legal range.
    BadValue {
        /// The option at fault.
        option: &'static str,
        /// What was wrong with it.
        why: String,
    },
    /// Two settings contradict each other (e.g. a packing strategy on a
    /// preset that never vectorizes).
    Inconsistent {
        /// The option that cannot take effect.
        option: &'static str,
        /// Why the combination is contradictory.
        why: String,
    },
}

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptionsError::UnknownPreset(name) => {
                write!(f, "unknown configuration `{name}` (try O3, SLP-NR, SLP, LSLP)")
            }
            OptionsError::BadTarget(e) => write!(f, "{e}"),
            OptionsError::UnknownGuard(name) => {
                write!(f, "unknown guard mode `{name}` (try off, rollback, strict)")
            }
            OptionsError::BadValue { option, why } => write!(f, "bad {option} value: {why}"),
            OptionsError::Inconsistent { option, why } => {
                write!(f, "inconsistent options: {option} {why}")
            }
        }
    }
}

impl std::error::Error for OptionsError {}

/// The one error type of the public API: options, input, and compiler
/// failures, each with a stable [`ErrorClass`] and exit code.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LslpError {
    /// Rejected options ([`ErrorClass::Usage`]).
    Options(OptionsError),
    /// Other bad invocation, e.g. an unknown flag value
    /// ([`ErrorClass::Usage`]).
    Usage(String),
    /// The submitted source does not lex/parse/verify
    /// ([`ErrorClass::Input`]).
    Input(String),
    /// The compiler itself failed: strict-guard abort, runtime failure
    /// ([`ErrorClass::Internal`]).
    Internal(String),
}

impl LslpError {
    /// Classify for exit-code mapping.
    pub fn class(&self) -> ErrorClass {
        match self {
            LslpError::Options(_) | LslpError::Usage(_) => ErrorClass::Usage,
            LslpError::Input(_) => ErrorClass::Input,
            LslpError::Internal(_) => ErrorClass::Internal,
        }
    }

    /// The stable process exit code (Usage → 2, Input → 3, Internal → 1).
    pub fn exit_code(&self) -> i32 {
        self.class().exit_code()
    }
}

impl fmt::Display for LslpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LslpError::Options(e) => e.fmt(f),
            LslpError::Usage(m) | LslpError::Input(m) | LslpError::Internal(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for LslpError {}

impl From<OptionsError> for LslpError {
    fn from(e: OptionsError) -> LslpError {
        LslpError::Options(e)
    }
}

// ---------------------------------------------------------------------------
// CompileOptions
// ---------------------------------------------------------------------------

/// Validated, immutable compiler options. Construct through
/// [`CompileOptions::preset`] (the builder); the accessors expose the
/// resolved configuration.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    preset: String,
    config: VectorizerConfig,
    target: TargetSpec,
    pipeline: bool,
}

impl CompileOptions {
    /// Start building options from a named preset (`O3`, `SLP-NR`, `SLP`,
    /// `LSLP`, `LSLP-LA{n}`, `LSLP-Multi{n}`; case-insensitive).
    pub fn preset(name: &str) -> CompileOptionsBuilder {
        CompileOptionsBuilder::new(name)
    }

    /// The preset the options were built from (canonical spelling).
    pub fn preset_name(&self) -> &str {
        &self.preset
    }

    /// The resolved vectorizer configuration.
    pub fn config(&self) -> &VectorizerConfig {
        &self.config
    }

    /// The resolved target machine description.
    pub fn target(&self) -> &TargetSpec {
        &self.target
    }

    /// Whether [`Session::compile`] runs the full scalar+vector pipeline
    /// (default) or the vectorizer alone.
    pub fn pipeline(&self) -> bool {
        self.pipeline
    }
}

impl Default for CompileOptions {
    /// The paper's headline configuration on the default target.
    fn default() -> CompileOptions {
        CompileOptions::preset("LSLP").build().expect("the default preset is valid")
    }
}

/// Resolve a preset name case-insensitively to its canonical spelling,
/// keeping the numeric suffixes of `LSLP-LA{n}` / `LSLP-Multi{n}` intact.
fn canonical_preset(name: &str) -> Option<String> {
    if VectorizerConfig::preset(name).is_some() {
        return Some(name.to_string());
    }
    for fixed in ["O3", "SLP-NR", "SLP", "LSLP", "LSLP-Throttle"] {
        if name.eq_ignore_ascii_case(fixed) {
            return Some(fixed.to_string());
        }
    }
    for prefix in ["LSLP-LA", "LSLP-Multi"] {
        if name.len() > prefix.len() && name[..prefix.len()].eq_ignore_ascii_case(prefix) {
            let candidate = format!("{prefix}{}", &name[prefix.len()..]);
            if VectorizerConfig::preset(&candidate).is_some() {
                return Some(candidate);
            }
        }
    }
    None
}

/// Builder for [`CompileOptions`]; see [`CompileOptions::preset`].
///
/// Setters record intent; [`CompileOptionsBuilder::build`] resolves and
/// validates everything at once, so error reporting can consider the whole
/// combination.
#[derive(Clone, Debug)]
pub struct CompileOptionsBuilder {
    preset: String,
    target: Option<String>,
    time_budget_ms: Option<u64>,
    guard: Option<String>,
    packing: Option<String>,
    paranoid: bool,
    pipeline: bool,
    sabotage: Sabotage,
}

impl CompileOptionsBuilder {
    fn new(preset: &str) -> CompileOptionsBuilder {
        CompileOptionsBuilder {
            preset: preset.to_string(),
            target: None,
            time_budget_ms: None,
            guard: None,
            packing: None,
            paranoid: false,
            pipeline: true,
            sabotage: Sabotage::None,
        }
    }

    /// Select the target machine by spec string, e.g. `"avx512"` or
    /// `"sse4.2+fast-div"` (see `lslp_target::TargetSpec::parse`).
    pub fn target(mut self, spec: &str) -> Self {
        self.target = Some(spec.to_string());
        self
    }

    /// Wall-clock compile budget per function, in milliseconds.
    pub fn time_budget_ms(mut self, ms: u64) -> Self {
        self.time_budget_ms = Some(ms);
        self
    }

    /// Guard mode by name (`off` | `rollback` | `strict`).
    pub fn guard(mut self, mode: &str) -> Self {
        self.guard = Some(mode.to_string());
        self
    }

    /// Statement-packing strategy by name (`greedy` | `global`): greedy
    /// per-lane-cheapest commit (the paper's algorithm, the default) or
    /// goSLP-style global pack-set selection, which is never costlier
    /// than greedy on the same input (see `docs/PACKING.md`).
    pub fn packing(mut self, strategy: &str) -> Self {
        self.packing = Some(strategy.to_string());
        self
    }

    /// Differentially execute every committed transform against its
    /// pre-transform snapshot (slow; requires the guard to be on).
    pub fn paranoid(mut self, on: bool) -> Self {
        self.paranoid = on;
        self
    }

    /// Run only the vectorizer in [`Session::compile`], skipping the
    /// scalar passes (the `--pipeline`-off path of `lslpc`).
    pub fn vectorize_only(mut self) -> Self {
        self.pipeline = false;
        self
    }

    /// Test-only fault injection (see [`crate::config::Sabotage`]):
    /// deliberately miscompile so the oracle test suite can prove it
    /// would catch the bug. Not part of the supported API surface.
    #[doc(hidden)]
    pub fn sabotage(mut self, s: Sabotage) -> Self {
        self.sabotage = s;
        self
    }

    /// Resolve and validate the whole combination.
    ///
    /// # Errors
    ///
    /// Returns the first [`OptionsError`] found: unknown preset/target/
    /// guard names, out-of-range values, or contradictory combinations.
    pub fn build(self) -> Result<CompileOptions, OptionsError> {
        let preset = canonical_preset(&self.preset)
            .ok_or_else(|| OptionsError::UnknownPreset(self.preset.clone()))?;
        let mut cfg = VectorizerConfig::preset(&preset).expect("canonical names resolve");
        let target = match &self.target {
            Some(spec) => TargetSpec::parse(spec).map_err(OptionsError::BadTarget)?,
            None => TargetSpec::default(),
        };

        if let Some(ms) = self.time_budget_ms {
            if ms == 0 {
                return Err(OptionsError::BadValue {
                    option: "time_budget_ms",
                    why: "a zero budget would reject every seed".into(),
                });
            }
            cfg.time_budget_ms = Some(ms);
        }
        if let Some(mode) = &self.guard {
            cfg.guard =
                GuardMode::parse(mode).ok_or_else(|| OptionsError::UnknownGuard(mode.clone()))?;
        }
        if let Some(p) = &self.packing {
            // The knob parses like every other strategy knob
            // (`ReorderStrategy`, `TargetSpec::parse`): exact lowercase
            // spellings, typed error listing the alternatives.
            if !cfg.enabled {
                return Err(OptionsError::Inconsistent {
                    option: "packing",
                    why: format!("preset `{preset}` disables the vectorizer"),
                });
            }
            cfg.packing = p
                .parse::<PackingStrategy>()
                .map_err(|e| OptionsError::BadValue { option: "packing", why: e.to_string() })?;
        }
        if self.paranoid && cfg.guard == GuardMode::Off {
            return Err(OptionsError::Inconsistent {
                option: "paranoid",
                why: "requires the guard (paranoid checks run against guard snapshots)".into(),
            });
        }
        cfg.paranoid = self.paranoid;
        cfg.sabotage = self.sabotage;

        Ok(CompileOptions { preset, config: cfg, target, pipeline: self.pipeline })
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// The result of one [`Session::compile`]: the optimized module plus the
/// per-function pipeline reports.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// The optimized module.
    pub module: Module,
    /// One report per function, in module order.
    pub reports: Vec<PipelineReport>,
}

impl Artifact {
    /// The optimized IR as text.
    pub fn ir(&self) -> String {
        lslp_ir::print_module(&self.module)
    }

    /// Total trees vectorized across all functions.
    pub fn trees_vectorized(&self) -> usize {
        self.reports.iter().map(|r| r.vectorize.trees_vectorized).sum()
    }
}

/// A compilation session: owns the options, the analysis cache, and the
/// pass pipeline. Feed it SLC source with [`Session::compile`]. Every
/// function of every compile pulls its analyses from the session's one
/// cache, so its counters ([`Session::cache_stats`] and each
/// [`PipelineReport::analysis_cache`]) are cumulative over the session.
#[derive(Clone, Debug)]
pub struct Session {
    options: CompileOptions,
    am: AnalysisManager,
}

impl Session {
    /// A session over validated options.
    pub fn new(options: CompileOptions) -> Session {
        Session { options, am: AnalysisManager::new() }
    }

    /// The session's options.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// The session's target machine description.
    pub fn target(&self) -> &TargetSpec {
        self.options.target()
    }

    /// Cumulative analysis-cache counters across every compile so far.
    pub fn cache_stats(&self) -> lslp_analysis::CacheStats {
        self.am.cache_stats()
    }

    /// Compile SLC source to an optimized [`Artifact`].
    ///
    /// # Errors
    ///
    /// [`LslpError::Input`] when the source does not parse or verify;
    /// [`LslpError::Internal`] when a strict-mode guard aborts.
    pub fn compile(&mut self, src: &str) -> Result<Artifact, LslpError> {
        let module = lslp_frontend::compile(src).map_err(|e| LslpError::Input(e.to_string()))?;
        self.optimize(module)
    }

    /// Optimize an already-built module under the session options.
    ///
    /// # Errors
    ///
    /// [`LslpError::Internal`] when a strict-mode guard aborts; the failing
    /// function is left rolled back.
    pub fn optimize(&mut self, mut module: Module) -> Result<Artifact, LslpError> {
        let Session { options, am } = self;
        let schedule = if options.pipeline() { Schedule::Full } else { Schedule::VectorizeOnly };
        let mut reports = Vec::with_capacity(module.functions.len());
        for f in &mut module.functions {
            // The analysis cache is keyed by mutation epoch, which is
            // process-wide unique, so sharing one manager across functions
            // is safe: a different function always misses.
            let r = pipeline::run_with(f, options.config(), options.target(), am, schedule);
            reports.push(r.map_err(|e| LslpError::Internal(format!("@{}: {e}", f.name())))?);
        }
        Ok(Artifact { module, reports })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "kernel k(f64* A, f64* B, i64 i) {
                           for o in 0..4 { A[i+o] = B[i+o] * B[i+o]; }
                       }";

    #[test]
    fn builder_happy_path() {
        let opts =
            CompileOptions::preset("lslp").target("avx512").time_budget_ms(50).build().unwrap();
        assert_eq!(opts.preset_name(), "LSLP");
        assert_eq!(opts.target().name, "avx512");
        assert_eq!(opts.config().time_budget_ms, Some(50));
        assert!(opts.pipeline());
    }

    #[test]
    fn preset_names_are_case_insensitive() {
        for (given, canon) in
            [("o3", "O3"), ("slp-nr", "SLP-NR"), ("Slp", "SLP"), ("lslp-la2", "LSLP-LA2")]
        {
            let opts = CompileOptions::preset(given).build().unwrap();
            assert_eq!(opts.preset_name(), canon, "{given}");
        }
        assert!(matches!(
            CompileOptions::preset("gcc").build(),
            Err(OptionsError::UnknownPreset(_))
        ));
    }

    #[test]
    fn target_and_features_resolve() {
        let opts = CompileOptions::preset("LSLP").target("sse4.2+fast-div").build().unwrap();
        assert_eq!(opts.target().register_bits, 128);
        assert_eq!(opts.target().spec_string(), "sse4.2+fast-div");
        assert!(matches!(
            CompileOptions::preset("LSLP").target("itanium").build(),
            Err(OptionsError::BadTarget(_))
        ));
    }

    #[test]
    fn paranoid_requires_the_guard() {
        assert!(matches!(
            CompileOptions::preset("LSLP").guard("off").paranoid(true).build(),
            Err(OptionsError::Inconsistent { option: "paranoid", .. })
        ));
        assert!(CompileOptions::preset("LSLP").guard("rollback").paranoid(true).build().is_ok());
        assert!(matches!(
            CompileOptions::preset("LSLP").guard("yolo").build(),
            Err(OptionsError::UnknownGuard(_))
        ));
    }

    #[test]
    fn guard_strategy_spellings_are_rejected() {
        // The removed rollback-strategy spellings are not guard modes.
        for spelling in ["snapshot", "differential"] {
            let err = CompileOptions::preset("LSLP").guard(spelling).build().unwrap_err();
            assert_eq!(err, OptionsError::UnknownGuard(spelling.into()));
            assert!(err.to_string().contains("try off, rollback, strict"), "{err}");
        }
        for (spelling, mode) in [
            ("off", GuardMode::Off),
            ("rollback", GuardMode::Rollback),
            ("strict", GuardMode::Strict),
        ] {
            let opts = CompileOptions::preset("LSLP").guard(spelling).build().unwrap();
            assert_eq!(opts.config.guard, mode);
        }
    }

    #[test]
    fn packing_strategy_spellings_resolve() {
        let opts = CompileOptions::preset("LSLP").packing("global").build().unwrap();
        assert_eq!(opts.config.packing, PackingStrategy::Global);
        let opts = CompileOptions::preset("LSLP").packing("greedy").build().unwrap();
        assert_eq!(opts.config.packing, PackingStrategy::Greedy);
        // Unset keeps the greedy default.
        let opts = CompileOptions::preset("LSLP").build().unwrap();
        assert_eq!(opts.config.packing, PackingStrategy::Greedy);
    }

    #[test]
    fn bad_packing_spelling_is_a_typed_error() {
        let err = CompileOptions::preset("LSLP").packing("Global").build().unwrap_err();
        let Err(OptionsError::BadValue { option: "packing", why }) =
            CompileOptions::preset("LSLP").packing("exhaustive").build()
        else {
            panic!("{err:?}");
        };
        assert!(why.contains("greedy, global"), "{why}");
        // And a preset with the vectorizer off has nothing to pack.
        assert!(matches!(
            CompileOptions::preset("O3").packing("global").build(),
            Err(OptionsError::Inconsistent { option: "packing", .. })
        ));
    }

    #[test]
    fn out_of_range_values_are_typed_errors() {
        assert!(matches!(
            CompileOptions::preset("LSLP").time_budget_ms(0).build(),
            Err(OptionsError::BadValue { option: "time_budget_ms", .. })
        ));
    }

    #[test]
    fn session_compiles_and_reports() {
        let mut s = Session::new(CompileOptions::default());
        let artifact = s.compile(SRC).unwrap();
        assert!(artifact.ir().contains("<4 x f64>"), "{}", artifact.ir());
        assert_eq!(artifact.trees_vectorized(), 1);
        assert_eq!(artifact.reports.len(), 1);
    }

    #[test]
    fn session_respects_the_target() {
        // On a 128-bit target the 4×f64 store chain must split: the widest
        // legal f64 vector is <2 x f64>.
        let opts = CompileOptions::preset("LSLP").target("sse4.2").build().unwrap();
        let artifact = Session::new(opts).compile(SRC).unwrap();
        let ir = artifact.ir();
        assert!(ir.contains("<2 x f64>"), "{ir}");
        assert!(!ir.contains("<4 x f64>"), "{ir}");
    }

    #[test]
    fn session_errors_classify_and_map_to_exit_codes() {
        let mut s = Session::new(CompileOptions::default());
        let err = s.compile("kernel broken(").unwrap_err();
        assert_eq!(err.class(), ErrorClass::Input);
        assert_eq!(err.exit_code(), 3);
        let opts_err: LslpError = CompileOptions::preset("GCC").build().unwrap_err().into();
        assert_eq!(opts_err.class(), ErrorClass::Usage);
        assert_eq!(opts_err.exit_code(), 2);
        assert_eq!(LslpError::Internal("x".into()).exit_code(), 1);
    }

    #[test]
    fn vectorize_only_session_skips_scalar_passes() {
        let opts = CompileOptions::preset("LSLP").vectorize_only().build().unwrap();
        let artifact = Session::new(opts).compile(SRC).unwrap();
        assert_eq!(artifact.reports[0].simplified, 0);
        assert!(artifact.ir().contains("<4 x f64>"));
    }

    #[test]
    fn session_cache_survives_across_compiles() {
        let mut s = Session::new(CompileOptions::default());
        s.compile(SRC).unwrap();
        let after_one = s.cache_stats().hits;
        s.compile(SRC).unwrap();
        assert!(s.cache_stats().hits >= after_one, "counters are cumulative");
    }
}
