//! Vectorizer configuration and the paper's named presets.

use std::fmt;
use std::str::FromStr;

use crate::guard::{GuardMode, GuardPolicy};

/// A strategy knob was given an unknown spelling (the [`FromStr`] error of
/// [`ReorderStrategy`] and [`PackingStrategy`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseStrategyError {
    /// Which knob rejected the spelling (`"reorder"` / `"packing"`).
    pub knob: &'static str,
    /// The rejected spelling.
    pub given: String,
    /// The legal spellings, comma-separated.
    pub expected: &'static str,
}

impl fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown {} strategy `{}` (try {})", self.knob, self.given, self.expected)
    }
}

impl std::error::Error for ParseStrategyError {}

/// Operand-reordering strategy for commutative instruction groups.
///
/// Round-trips through its kebab-case spelling like
/// `lslp_target::TargetSpec::parse`/`spec_string`:
/// `ReorderStrategy::from_str(s).unwrap().name() == s`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReorderStrategy {
    /// No reordering at all — the paper's `SLP-NR` configuration.
    NoReorder,
    /// Vanilla SLP reordering: per-lane swaps driven only by the immediate
    /// operand opcodes (and load consecutiveness), as in LLVM's original
    /// `reorderInputsAccordingToOpcode`.
    Opcode,
    /// LSLP reordering: the single-pass, mode-tracking algorithm of
    /// Listing 5 with look-ahead tie-breaking (Listings 6–7).
    LookAhead,
}

impl ReorderStrategy {
    /// The canonical kebab-case spelling ([`FromStr`] inverts it).
    pub fn name(self) -> &'static str {
        match self {
            ReorderStrategy::NoReorder => "no-reorder",
            ReorderStrategy::Opcode => "opcode",
            ReorderStrategy::LookAhead => "look-ahead",
        }
    }
}

impl fmt::Display for ReorderStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ReorderStrategy {
    type Err = ParseStrategyError;

    fn from_str(s: &str) -> Result<ReorderStrategy, ParseStrategyError> {
        match s {
            "no-reorder" => Ok(ReorderStrategy::NoReorder),
            "opcode" => Ok(ReorderStrategy::Opcode),
            "look-ahead" => Ok(ReorderStrategy::LookAhead),
            _ => Err(ParseStrategyError {
                knob: "reorder",
                given: s.to_string(),
                expected: "no-reorder, opcode, look-ahead",
            }),
        }
    }
}

/// Statement-packing strategy: how costed candidate packs are selected for
/// commitment (see `lslp::packing` for the machinery).
///
/// Round-trips through its spelling like [`ReorderStrategy`]:
/// `PackingStrategy::from_str(s).unwrap().name() == s`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum PackingStrategy {
    /// The paper's greedy bottom-up commit: at each chain position, commit
    /// the cheapest-per-lane profitable VF and restart.
    #[default]
    Greedy,
    /// goSLP-style global selection: enumerate candidate packs across all
    /// seed groups and legal VFs, pick a pack *set* by dynamic programming
    /// over each seed-group chain (with a bounded branch-and-bound
    /// refinement over inter-pack permutation penalties), and keep the
    /// result only when it beats a trial greedy run on the same function —
    /// never costlier than [`PackingStrategy::Greedy`].
    Global,
}

impl PackingStrategy {
    /// The canonical spelling ([`FromStr`] inverts it).
    pub fn name(self) -> &'static str {
        match self {
            PackingStrategy::Greedy => "greedy",
            PackingStrategy::Global => "global",
        }
    }
}

impl fmt::Display for PackingStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PackingStrategy {
    type Err = ParseStrategyError;

    fn from_str(s: &str) -> Result<PackingStrategy, ParseStrategyError> {
        match s {
            "greedy" => Ok(PackingStrategy::Greedy),
            "global" => Ok(PackingStrategy::Global),
            _ => Err(ParseStrategyError {
                knob: "packing",
                given: s.to_string(),
                expected: "greedy, global",
            }),
        }
    }
}

/// How look-ahead sub-scores are aggregated (paper footnote 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScoreAgg {
    /// Sum of all operand-pair scores (the paper's choice).
    Sum,
    /// Maximum over operand-pair scores (the footnoted alternative).
    Max,
}

/// Weights for the look-ahead leaf matches (`lslp::score`).
///
/// The paper scores every trivial match as 1 (Figure 7); mainline LLVM's
/// descendant of this heuristic weights match kinds differently so that a
/// consecutive-load signal outranks a mere opcode match. Defaults are the
/// paper's flat weights.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScoreWeights {
    /// Two loads at consecutive addresses.
    pub consecutive_load: i64,
    /// Two instructions with the same opcode (non-load).
    pub same_opcode: i64,
    /// Two constants.
    pub constants: i64,
    /// The exact same value in both lanes.
    pub splat: i64,
}

impl ScoreWeights {
    /// The paper's flat scoring: every match kind counts 1.
    pub fn paper() -> ScoreWeights {
        ScoreWeights { consecutive_load: 1, same_opcode: 1, constants: 1, splat: 1 }
    }

    /// Weights approximating LLVM's `TargetTransformInfo`-era look-ahead
    /// heuristics (consecutive loads dominate, splats rank above plain
    /// opcode matches).
    pub fn llvm_like() -> ScoreWeights {
        ScoreWeights { consecutive_load: 4, same_opcode: 2, constants: 2, splat: 3 }
    }
}

impl Default for ScoreWeights {
    fn default() -> ScoreWeights {
        ScoreWeights::paper()
    }
}

/// Test-only fault injection: deliberately miscompile in a controlled way
/// so the self-checking test suite (the `lslp-fuzz` oracles) can prove it
/// would catch a real bug of the same class. Always
/// [`Sabotage::None`] outside the negative tests; hidden from docs
/// because it is not part of the supported configuration surface.
#[doc(hidden)]
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Sabotage {
    /// No fault injected (the only supported production value).
    #[default]
    None,
    /// Permute the lanes of a committed vector store through a planted
    /// lane-swapping shuffle mask: silent wrong-code, caught by
    /// differential and metamorphic execution.
    SwapShuffleMask,
    /// Reverse the VF-exploration candidate order so the *worst* priced
    /// profitable factor commits: caught by the cross-VF consistency
    /// oracle (the code stays semantically correct).
    CommitWorstVf,
    /// Skip the final dead-scalar sweep: caught by the
    /// pipeline-idempotence oracle (a clean recompile removes code the
    /// sabotaged compile left behind).
    SkipFinalDce,
    /// Make [`PackingStrategy::Global`] commit the *empty* pack set and
    /// skip its greedy-trial floor — the maximal-cost legal pack set, since
    /// every profitable pack has negative cost. The code stays correct but
    /// the artifact is costlier than greedy's on any vectorizable input:
    /// caught by the packing-quality oracle.
    CommitWorstPackSet,
    /// Swap the two arms of every if-converted diamond (the `select` picks
    /// the else-value when the condition holds): silent wrong-code on any
    /// input where the arms differ, caught by the differential
    /// scalar-vs-compiled execution oracle.
    SwapIfArms,
}

/// Full configuration of the (L)SLP pass.
///
/// Construct via the named presets ([`VectorizerConfig::slp`],
/// [`VectorizerConfig::lslp`], ...) and adjust fields as needed:
///
/// ```
/// use lslp::VectorizerConfig;
/// let cfg = VectorizerConfig { la_depth: 2, ..VectorizerConfig::lslp() };
/// assert!(cfg.enabled);
/// ```
#[derive(Clone, Debug)]
pub struct VectorizerConfig {
    /// Whether the vectorizer runs at all (`false` = the paper's `O3`
    /// baseline, which has all vectorizers disabled).
    pub enabled: bool,
    /// Operand reordering strategy.
    pub reorder: ReorderStrategy,
    /// Statement-packing strategy: greedy per-lane-cheapest commit (the
    /// paper's algorithm, the default) or goSLP-style global pack-set
    /// selection (see `lslp::packing`).
    pub packing: PackingStrategy,
    /// Maximum look-ahead depth for [`ReorderStrategy::LookAhead`]
    /// (the paper uses 8 by default and sweeps 0–4 in §5.3).
    pub la_depth: u32,
    /// Maximum number of chained commutative instructions collected into a
    /// multi-node *per lane*; `1` disables multi-node formation (vanilla
    /// behaviour), the paper's LSLP default is unbounded.
    pub max_multinode_insts: usize,
    /// Upper bound on the vector factor (lanes); the effective VF is also
    /// limited by the target register width.
    pub max_vf: u32,
    /// Allow floating-point reassociation (the paper compiles with
    /// `-ffast-math`); required for FP multi-node formation.
    pub fast_math: bool,
    /// Vectorize only when the tree cost is strictly below this threshold
    /// (paper: "usually 0").
    pub cost_threshold: i64,
    /// Look-ahead score aggregation.
    pub score_agg: ScoreAgg,
    /// Look-ahead leaf-match weights (paper: all 1).
    pub score_weights: ScoreWeights,
    /// Enable SPLAT mode detection in the reordering (Listing 5, line 23).
    pub splat_mode: bool,
    /// Recursion depth cap for graph building.
    pub max_depth: u32,
    /// Also vectorize horizontal reduction chains (the paper's second seed
    /// class, §2.2; not exercised by its evaluation, so off in the
    /// standard presets — see `lslp::reduce`).
    pub enable_reductions: bool,
    /// Throttle SLP graphs (`lslp::throttle`, after Porpodas & Jones,
    /// PACT'15 — the paper's related work \[22\]): cut cost-harmful subtrees
    /// before the profitability decision. Off in the paper presets.
    pub throttle: bool,
    /// Transactional pass guard semantics (`lslp::guard`): every pass and
    /// per-seed vectorization attempt runs in an IR transaction,
    /// panic-isolated, and is verified before committing. Default
    /// [`GuardMode::Rollback`].
    pub guard: GuardMode,
    /// Paranoid mode: additionally check every committed transform by
    /// differential execution against the pre-transform function with the
    /// `lslp_interp` oracle on synthesized inputs. Slow; off by default.
    pub paranoid: bool,
    /// Compile fuel: maximum number of SLP graph nodes per seed attempt.
    /// When the builder hits the cap the remaining bundles become gather
    /// leaves and a `FuelExhausted` incident is recorded.
    pub max_graph_nodes: usize,
    /// Compile fuel: wall-clock budget for the whole pass over one
    /// function, in milliseconds. `None` = unlimited. When the budget runs
    /// out the pass stops attempting further seeds (work already committed
    /// is kept) and records a `FuelExhausted` incident.
    pub time_budget_ms: Option<u64>,
    /// Test-only fault injection (see [`Sabotage`]); [`Sabotage::None`]
    /// everywhere outside the oracle negative tests.
    #[doc(hidden)]
    pub sabotage: Sabotage,
}

impl VectorizerConfig {
    fn base() -> VectorizerConfig {
        VectorizerConfig {
            enabled: true,
            reorder: ReorderStrategy::Opcode,
            packing: PackingStrategy::Greedy,
            la_depth: 0,
            max_multinode_insts: 1,
            max_vf: 16,
            fast_math: true,
            cost_threshold: 0,
            score_agg: ScoreAgg::Sum,
            score_weights: ScoreWeights::paper(),
            splat_mode: true,
            max_depth: 24,
            enable_reductions: false,
            throttle: false,
            guard: GuardMode::Rollback,
            paranoid: false,
            max_graph_nodes: 4096,
            time_budget_ms: None,
            sabotage: Sabotage::None,
        }
    }

    /// `O3`: all vectorizers disabled.
    pub fn o3() -> VectorizerConfig {
        VectorizerConfig { enabled: false, ..Self::base() }
    }

    /// `SLP-NR`: vanilla SLP with operand reordering disabled.
    pub fn slp_nr() -> VectorizerConfig {
        VectorizerConfig { reorder: ReorderStrategy::NoReorder, ..Self::base() }
    }

    /// `SLP`: vanilla bottom-up SLP with opcode-based reordering.
    pub fn slp() -> VectorizerConfig {
        Self::base()
    }

    /// `LSLP`: multi-node formation plus look-ahead reordering (depth 8).
    pub fn lslp() -> VectorizerConfig {
        VectorizerConfig {
            reorder: ReorderStrategy::LookAhead,
            la_depth: 8,
            max_multinode_insts: usize::MAX,
            ..Self::base()
        }
    }

    /// LSLP with a specific look-ahead depth (the `LSLP-LA{n}` bars of
    /// Figure 13; multi-node size unrestricted).
    pub fn lslp_la(depth: u32) -> VectorizerConfig {
        VectorizerConfig { la_depth: depth, ..Self::lslp() }
    }

    /// LSLP with a restricted multi-node size (the `LSLP-Multi{n}` bars of
    /// Figure 13; look-ahead depth kept at 8).
    pub fn lslp_multi(max_insts: usize) -> VectorizerConfig {
        VectorizerConfig { max_multinode_insts: max_insts, ..Self::lslp() }
    }

    /// The guard policy this configuration implies (failure semantics and
    /// paranoid oracle), bundled for the guard layer.
    pub fn guard_policy(&self) -> GuardPolicy {
        GuardPolicy { mode: self.guard, paranoid: self.paranoid }
    }

    /// Look up a preset by the paper's configuration names: `O3`, `SLP-NR`,
    /// `SLP`, `LSLP`, `LSLP-LA{n}`, `LSLP-Multi{n}`.
    pub fn preset(name: &str) -> Option<VectorizerConfig> {
        if let Some(d) = name.strip_prefix("LSLP-LA") {
            return d.parse().ok().map(Self::lslp_la);
        }
        if let Some(d) = name.strip_prefix("LSLP-Multi") {
            return d.parse().ok().map(Self::lslp_multi);
        }
        if name == "LSLP-Throttle" {
            return Some(VectorizerConfig { throttle: true, ..Self::lslp() });
        }
        match name {
            "O3" => Some(Self::o3()),
            "SLP-NR" => Some(Self::slp_nr()),
            "SLP" => Some(Self::slp()),
            "LSLP" => Some(Self::lslp()),
            _ => None,
        }
    }
}

impl Default for VectorizerConfig {
    /// The default configuration is the paper's headline algorithm, LSLP.
    fn default() -> VectorizerConfig {
        VectorizerConfig::lslp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_semantics() {
        assert!(!VectorizerConfig::o3().enabled);
        assert_eq!(VectorizerConfig::slp_nr().reorder, ReorderStrategy::NoReorder);
        let slp = VectorizerConfig::slp();
        assert_eq!(slp.reorder, ReorderStrategy::Opcode);
        assert_eq!(slp.max_multinode_insts, 1);
        let lslp = VectorizerConfig::lslp();
        assert_eq!(lslp.reorder, ReorderStrategy::LookAhead);
        assert_eq!(lslp.la_depth, 8);
        assert_eq!(lslp.max_multinode_insts, usize::MAX);
        // Every preset keeps the paper's greedy packing as the default.
        assert_eq!(lslp.packing, PackingStrategy::Greedy);
    }

    #[test]
    fn strategy_knobs_round_trip_their_spellings() {
        for r in [ReorderStrategy::NoReorder, ReorderStrategy::Opcode, ReorderStrategy::LookAhead] {
            assert_eq!(r.name().parse::<ReorderStrategy>().unwrap(), r);
            assert_eq!(r.to_string(), r.name());
        }
        for p in [PackingStrategy::Greedy, PackingStrategy::Global] {
            assert_eq!(p.name().parse::<PackingStrategy>().unwrap(), p);
            assert_eq!(p.to_string(), p.name());
        }
        let err = "lookahead".parse::<ReorderStrategy>().unwrap_err();
        assert_eq!(err.knob, "reorder");
        let err = "Global".parse::<PackingStrategy>().unwrap_err();
        assert_eq!(err.knob, "packing");
        assert!(err.to_string().contains("greedy, global"), "{err}");
    }

    #[test]
    fn preset_lookup_by_name() {
        assert!(VectorizerConfig::preset("O3").is_some_and(|c| !c.enabled));
        assert!(VectorizerConfig::preset("SLP").is_some());
        assert!(VectorizerConfig::preset("SLP-NR").is_some());
        assert_eq!(VectorizerConfig::preset("LSLP-LA2").unwrap().la_depth, 2);
        assert_eq!(VectorizerConfig::preset("LSLP-Multi3").unwrap().max_multinode_insts, 3);
        assert!(VectorizerConfig::preset("GCC").is_none());
        assert!(VectorizerConfig::preset("LSLP-LAx").is_none());
    }

    #[test]
    fn default_is_lslp() {
        let d = VectorizerConfig::default();
        assert_eq!(d.reorder, ReorderStrategy::LookAhead);
        assert_eq!(d.packing, PackingStrategy::Greedy);
    }
}
