//! # lslp-target
//!
//! TTI-style target cost models for the LSLP reproduction, standing in for
//! LLVM's `TargetTransformInfo` at the scale the paper's cost function
//! needs (§3.1): per-opcode scalar and vector costs, gather/extract
//! penalties, and the register width that bounds the vector factor.
//!
//! Costs are abstract throughput units, not cycles on any particular
//! microarchitecture; what matters for the paper's story is the *relative*
//! cost of vector versus scalar code, which these constants preserve:
//! one unit per simple ALU/memory op per register, free address
//! arithmetic (`gep` folds into addressing modes), expensive division,
//! and per-element insert/extract penalties for crossing the
//! scalar/vector boundary.
//!
//! ## The registry
//!
//! Four named targets are built in (see [`TARGET_NAMES`]):
//!
//! | name           | reg bits | regs | notes                              |
//! |----------------|---------:|-----:|------------------------------------|
//! | `sse4.2`       |      128 |   16 | baseline x86 SIMD                  |
//! | `skylake-avx2` |      256 |   16 | the paper's evaluation machine     |
//! | `avx512`       |      512 |   32 | widest x86 vectors                 |
//! | `neon128`      |      128 |   32 | AArch64-class: pricier shuffles and|
//! |                |          |      | double-precision SIMD              |
//!
//! [`TargetSpec::parse`] accepts `"name[+feature,...]"` strings (e.g.
//! `"neon128+fast-div"`); see [`FEATURE_NAMES`] and `docs/TARGETS.md`.

#![warn(missing_docs)]

use std::fmt;

use lslp_ir::{Opcode, ScalarType};

/// Canonical names of the built-in targets, in documentation order.
pub const TARGET_NAMES: &[&str] = &["sse4.2", "skylake-avx2", "avx512", "neon128"];

/// Feature strings accepted by [`TargetSpec::parse`] after the target name.
pub const FEATURE_NAMES: &[&str] = &["fast-div", "slow-insert", "hw-gather"];

/// A target specification: SIMD register geometry plus the per-opcode /
/// per-type unit costs the SLP cost function (and the performance
/// simulator) query.
///
/// Obtain one from the registry ([`TargetSpec::lookup`]) or from a spec
/// string ([`TargetSpec::parse`]); `Default` is `skylake-avx2`, the
/// paper's evaluation machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TargetSpec {
    /// Canonical registry name (for reports and cache keys).
    pub name: &'static str,
    /// SIMD register width in bits; bounds the vector factor per element
    /// type (see [`TargetSpec::max_vf`]).
    pub register_bits: u32,
    /// Number of architectural vector registers (informational; reported
    /// by `lslpc --emit report` style consumers and docs).
    pub vector_regs: u32,
    /// Cost of inserting one scalar into a vector register.
    pub insert_cost: i64,
    /// Cost of extracting one scalar from a vector register.
    pub extract_cost: i64,
    /// Cost of one vector shuffle.
    pub shuffle_cost: i64,
    /// Cost of a division or remainder (scalar, per register for vectors).
    pub div_cost: i64,
    /// Cost of a multiply (scalar, per register for vectors).
    pub mul_cost: i64,
    /// Extra per-register factor applied to vector ops over `f64` lanes
    /// (models targets whose double-precision SIMD is half-rate; `1` on
    /// the x86 targets).
    pub f64_vector_factor: i64,
    /// Whether the target has a hardware gather: mixed (non-splat)
    /// gathers pay `ceil(lanes/2)` inserts instead of one per lane.
    pub hw_gather: bool,
    /// Feature strings applied on top of the base target, in parse order.
    pub features: Vec<&'static str>,
}

/// Error returned by [`TargetSpec::parse`] for unknown names or features.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TargetParseError {
    /// The base name before any `+` is not in the registry.
    UnknownTarget(String),
    /// A `+feature` suffix is not a recognized feature string.
    UnknownFeature(String),
    /// The spec string was empty.
    Empty,
}

impl fmt::Display for TargetParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetParseError::UnknownTarget(n) => {
                write!(f, "unknown target `{n}` (known targets: {})", TARGET_NAMES.join(", "))
            }
            TargetParseError::UnknownFeature(n) => {
                write!(f, "unknown feature `{n}` (known features: {})", FEATURE_NAMES.join(", "))
            }
            TargetParseError::Empty => write!(f, "empty target spec"),
        }
    }
}

impl std::error::Error for TargetParseError {}

impl TargetSpec {
    /// The 128-bit SSE 4.2 baseline: same unit costs as `skylake-avx2`
    /// but half the register width, so wide bundles split in two.
    pub fn sse42() -> TargetSpec {
        TargetSpec { name: "sse4.2", register_bits: 128, ..TargetSpec::skylake_avx2() }
    }

    /// The 256-bit AVX2-era model approximating the paper's Skylake
    /// evaluation machine. This is the default target; its constants are
    /// load-bearing for the reproduced figure outputs.
    pub fn skylake_avx2() -> TargetSpec {
        TargetSpec {
            name: "skylake-avx2",
            register_bits: 256,
            vector_regs: 16,
            insert_cost: 1,
            extract_cost: 1,
            shuffle_cost: 1,
            div_cost: 20,
            mul_cost: 1,
            f64_vector_factor: 1,
            hw_gather: false,
            features: Vec::new(),
        }
    }

    /// The 512-bit AVX-512 model: doubles the maximum vector factor and
    /// the register file relative to `skylake-avx2`.
    pub fn avx512() -> TargetSpec {
        TargetSpec {
            name: "avx512",
            register_bits: 512,
            vector_regs: 32,
            ..TargetSpec::skylake_avx2()
        }
    }

    /// A 128-bit AArch64 NEON-class model: 32 registers, pricier
    /// permutes, half-rate double-precision SIMD, slightly cheaper
    /// division than the x86 models price it.
    pub fn neon128() -> TargetSpec {
        TargetSpec {
            name: "neon128",
            register_bits: 128,
            vector_regs: 32,
            shuffle_cost: 2,
            div_cost: 24,
            f64_vector_factor: 2,
            ..TargetSpec::skylake_avx2()
        }
    }

    /// Look up a base target by its canonical registry name.
    pub fn lookup(name: &str) -> Option<TargetSpec> {
        match name {
            "sse4.2" => Some(TargetSpec::sse42()),
            "skylake-avx2" => Some(TargetSpec::skylake_avx2()),
            "avx512" => Some(TargetSpec::avx512()),
            "neon128" => Some(TargetSpec::neon128()),
            _ => None,
        }
    }

    /// Parse a `"name[+feature,...]"` spec string: a registry name
    /// followed by zero or more `+`-separated features (commas are also
    /// accepted as separators after the first `+`).
    ///
    /// ```
    /// use lslp_target::TargetSpec;
    /// let t = TargetSpec::parse("neon128+fast-div").unwrap();
    /// assert_eq!(t.name, "neon128");
    /// assert_eq!(t.div_cost, 12);
    /// assert!(TargetSpec::parse("pentium4").is_err());
    /// ```
    pub fn parse(spec: &str) -> Result<TargetSpec, TargetParseError> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err(TargetParseError::Empty);
        }
        let mut parts = spec.split('+');
        let base = parts.next().unwrap_or_default().trim();
        let mut t = TargetSpec::lookup(base)
            .ok_or_else(|| TargetParseError::UnknownTarget(base.to_string()))?;
        for chunk in parts {
            for feat in chunk.split(',') {
                let feat = feat.trim();
                if feat.is_empty() {
                    continue;
                }
                t.apply_feature(feat)?;
            }
        }
        Ok(t)
    }

    /// Apply one feature string to the spec, mutating its cost table.
    fn apply_feature(&mut self, feat: &str) -> Result<(), TargetParseError> {
        match feat {
            // Hardware divider twice as fast as the base model prices it.
            "fast-div" => self.div_cost = (self.div_cost / 2).max(1),
            // Scalar/vector boundary crossings cost double.
            "slow-insert" => {
                self.insert_cost *= 2;
                self.extract_cost *= 2;
            }
            // Hardware gather: mixed gathers pay ceil(lanes/2) inserts.
            "hw-gather" => self.hw_gather = true,
            other => return Err(TargetParseError::UnknownFeature(other.to_string())),
        }
        let canon = FEATURE_NAMES.iter().find(|f| **f == feat).copied();
        if let Some(canon) = canon {
            if !self.features.contains(&canon) {
                self.features.push(canon);
            }
        }
        Ok(())
    }

    /// The full spec string (`name` plus any `+feature` suffixes), as
    /// accepted back by [`TargetSpec::parse`]. Used in reports and as
    /// cache-key material.
    pub fn spec_string(&self) -> String {
        let mut s = self.name.to_string();
        for feat in &self.features {
            s.push('+');
            s.push_str(feat);
        }
        s
    }

    /// The cost of one scalar instruction of the given opcode — the
    /// per-opcode cost table.
    ///
    /// Address arithmetic is free (it folds into addressing modes);
    /// division and remainder cost [`TargetSpec::div_cost`]; multiplies
    /// cost [`TargetSpec::mul_cost`]; everything else is one unit.
    pub fn scalar_cost(&self, op: Opcode) -> i64 {
        match op {
            Opcode::Gep => 0,
            Opcode::SDiv | Opcode::UDiv | Opcode::SRem | Opcode::URem | Opcode::FDiv => {
                self.div_cost
            }
            Opcode::Mul | Opcode::FMul => self.mul_cost,
            _ => 1,
        }
    }

    /// Per-type multiplier applied to vector ops — the per-type cost
    /// table. `1` everywhere except targets with half-rate `f64` SIMD.
    pub fn elem_factor(&self, elem: ScalarType) -> i64 {
        match elem {
            ScalarType::F64 => self.f64_vector_factor,
            _ => 1,
        }
    }

    /// The cost of one vector instruction of `lanes` elements of `elem`.
    ///
    /// A bundle wider than one register is legalized by splitting, so the
    /// cost scales with the number of registers it occupies, times the
    /// per-type factor.
    pub fn vector_cost(&self, op: Opcode, elem: ScalarType, lanes: u32) -> i64 {
        self.scalar_cost(op) * self.registers_for(elem, lanes) * self.elem_factor(elem)
    }

    /// The cost of materializing a vector from `lanes` scalar values
    /// (paper §3.1): all-constant bundles are folded into a literal pool
    /// load (free), a splat of one non-constant value is a single
    /// broadcast, and a mixed bundle pays one insert per lane — or
    /// `ceil(lanes/2)` on targets with a hardware gather.
    pub fn gather_cost(&self, lanes: u32, any_non_const: bool, splat: bool) -> i64 {
        if !any_non_const {
            0
        } else if splat {
            self.insert_cost
        } else if self.hw_gather {
            self.insert_cost * lanes.div_ceil(2) as i64
        } else {
            self.insert_cost * lanes as i64
        }
    }

    /// The cost charged per vectorized scalar that still has a scalar user
    /// outside the tree (one `extractelement`).
    pub fn extract_for_external_use(&self) -> i64 {
        self.extract_cost
    }

    /// Maximum vector factor for the element type: how many elements fit
    /// in one register (at least 1).
    pub fn max_vf(&self, elem: ScalarType) -> u32 {
        (self.register_bits / elem.bits()).max(1)
    }

    /// Number of registers a bundle of `lanes` elements of `elem`
    /// occupies (at least 1).
    pub fn registers_for(&self, elem: ScalarType, lanes: u32) -> i64 {
        (lanes * elem.bits()).div_ceil(self.register_bits).max(1) as i64
    }

    /// Permutation penalty charged when two *abutting* packs of the same
    /// store chain are committed at different shapes: values flowing
    /// between the packs (or a later repack of the chain) need a
    /// cross-register shuffle per register of the wider pack. Zero when
    /// the shapes agree — adjacent same-VF packs compose without any
    /// lane movement. Used by the global packing planner
    /// (`lslp::packing`) to score candidate pack *sets*; the greedy
    /// packer never consults it.
    pub fn cross_pack_shuffle_cost(&self, elem: ScalarType, a_lanes: u32, b_lanes: u32) -> i64 {
        if a_lanes == b_lanes {
            0
        } else {
            self.shuffle_cost * self.registers_for(elem, a_lanes.max(b_lanes))
        }
    }
}

impl Default for TargetSpec {
    /// The `skylake-avx2` model (the paper's evaluation target).
    fn default() -> TargetSpec {
        TargetSpec::skylake_avx2()
    }
}

impl fmt::Display for TargetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec_string())
    }
}

/// Pre-`TargetSpec` name for the target cost model, kept so existing
/// call sites keep compiling. New code should name [`TargetSpec`]
/// directly; see the migration note in DESIGN.md §11.
pub type CostModel = TargetSpec;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_costs_match_paper_constants() {
        let tm = TargetSpec::skylake_avx2();
        // One unit per simple op; a 2-lane i64 op saves `lanes - 1`.
        assert_eq!(tm.scalar_cost(Opcode::Add), 1);
        assert_eq!(tm.vector_cost(Opcode::Add, ScalarType::I64, 2), 1);
        assert_eq!(tm.vector_cost(Opcode::Store, ScalarType::I64, 4), 1);
        // Address arithmetic is free.
        assert_eq!(tm.scalar_cost(Opcode::Gep), 0);
        // Division dominates.
        assert!(tm.scalar_cost(Opcode::SDiv) > 10);
    }

    #[test]
    fn gather_costs_follow_paper() {
        let tm = TargetSpec::skylake_avx2();
        assert_eq!(tm.gather_cost(4, false, false), 0, "constants are free");
        assert_eq!(tm.gather_cost(4, true, true), 1, "splat is one broadcast");
        assert_eq!(tm.gather_cost(4, true, false), 4, "mixed pays per lane");
    }

    #[test]
    fn register_width_bounds_vf() {
        let avx = TargetSpec::skylake_avx2();
        assert_eq!(avx.max_vf(ScalarType::I64), 4);
        assert_eq!(avx.max_vf(ScalarType::F32), 8);
        let sse = TargetSpec::sse42();
        assert_eq!(sse.max_vf(ScalarType::I64), 2);
        assert_eq!(sse.max_vf(ScalarType::F64), 2);
        let avx512 = TargetSpec::avx512();
        assert_eq!(avx512.max_vf(ScalarType::I64), 8);
        assert_eq!(avx512.max_vf(ScalarType::F32), 16);
    }

    #[test]
    fn wide_bundles_split_across_registers() {
        let sse = TargetSpec::sse42();
        // 4 x i64 = 256 bits = two 128-bit registers.
        assert_eq!(sse.vector_cost(Opcode::Add, ScalarType::I64, 4), 2);
        let avx = TargetSpec::skylake_avx2();
        assert_eq!(avx.vector_cost(Opcode::Add, ScalarType::I64, 4), 1);
    }

    #[test]
    fn default_is_skylake() {
        assert_eq!(TargetSpec::default(), TargetSpec::skylake_avx2());
    }

    #[test]
    fn registry_covers_all_names() {
        for name in TARGET_NAMES {
            let t = TargetSpec::lookup(name).expect("registry name resolves");
            assert_eq!(&t.name, name, "lookup returns the canonical name");
            assert_eq!(TargetSpec::parse(name).unwrap(), t, "parse of bare name == lookup");
        }
        assert!(TargetSpec::lookup("itanium").is_none());
    }

    #[test]
    fn neon_prices_dp_simd_and_permutes_higher() {
        let neon = TargetSpec::neon128();
        let sse = TargetSpec::sse42();
        assert_eq!(neon.max_vf(ScalarType::F64), 2);
        assert!(neon.shuffle_cost > sse.shuffle_cost);
        assert!(
            neon.vector_cost(Opcode::FAdd, ScalarType::F64, 2)
                > sse.vector_cost(Opcode::FAdd, ScalarType::F64, 2)
        );
        // Single-precision SIMD is full rate.
        assert_eq!(
            neon.vector_cost(Opcode::FAdd, ScalarType::F32, 4),
            sse.vector_cost(Opcode::FAdd, ScalarType::F32, 4)
        );
    }

    #[test]
    fn parse_applies_features() {
        let t = TargetSpec::parse("skylake-avx2+fast-div").unwrap();
        assert_eq!(t.div_cost, 10);
        assert_eq!(t.spec_string(), "skylake-avx2+fast-div");
        let t = TargetSpec::parse("sse4.2+slow-insert,hw-gather").unwrap();
        assert_eq!(t.insert_cost, 2);
        assert_eq!(t.extract_cost, 2);
        assert!(t.hw_gather);
        assert_eq!(t.gather_cost(4, true, false), 4, "hw gather halves mixed cost (2 inserts x2)");
        assert_eq!(t.spec_string(), "sse4.2+slow-insert+hw-gather");
        // Round-trips through parse.
        assert_eq!(TargetSpec::parse(&t.spec_string()).unwrap(), t);
    }

    #[test]
    fn cross_pack_shuffle_cost_scales_with_shape_mismatch() {
        let t = TargetSpec::skylake_avx2();
        // Same shape: no permutation needed.
        assert_eq!(t.cross_pack_shuffle_cost(ScalarType::I64, 4, 4), 0);
        // Mismatched shapes: one shuffle per register of the wider pack,
        // symmetric in the operand order.
        let c = t.cross_pack_shuffle_cost(ScalarType::I64, 4, 2);
        assert_eq!(c, t.shuffle_cost * t.registers_for(ScalarType::I64, 4));
        assert_eq!(c, t.cross_pack_shuffle_cost(ScalarType::I64, 2, 4));
        // Wider element types span more registers and pay proportionally.
        let neon = TargetSpec::neon128();
        assert!(
            neon.cross_pack_shuffle_cost(ScalarType::I64, 8, 2)
                >= neon.cross_pack_shuffle_cost(ScalarType::I32, 8, 2)
        );
    }

    #[test]
    fn parse_rejects_unknowns() {
        assert_eq!(
            TargetSpec::parse("pentium4"),
            Err(TargetParseError::UnknownTarget("pentium4".into()))
        );
        assert_eq!(
            TargetSpec::parse("avx512+turbo"),
            Err(TargetParseError::UnknownFeature("turbo".into()))
        );
        assert_eq!(TargetSpec::parse("  "), Err(TargetParseError::Empty));
        let msg = TargetSpec::parse("pentium4").unwrap_err().to_string();
        assert!(msg.contains("skylake-avx2"), "error lists known targets: {msg}");
    }
}
