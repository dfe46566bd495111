#![warn(missing_docs)]

//! The target instruction database.
//!
//! Each instruction is *specified* by its Intel-style pseudocode (the same
//! input format the paper consumes from the Intrinsics Guide XML) plus
//! metadata (ISA extension, vector width, inverse throughput). At database
//! construction the whole offline pipeline runs per instruction —
//! pseudocode → symbolic evaluation → simplification → lifting → VIDL →
//! random-testing validation — exactly reproducing VeGen's offline phase.
//!
//! The database covers the SSE2/SSE3/SSSE3/SSE4.1/AVX/AVX2/FMA/AVX512-VNNI
//! subsets the paper's evaluation exercises: plain SIMD arithmetic,
//! saturating arithmetic, min/max/abs, the non-SIMD families (`addsub`,
//! horizontal add/sub, `pmaddwd`, `pmaddubsw`, `pmuldq`, the pack-saturate
//! family, `fmaddsub`) and the AVX512-VNNI dot products (`vpdpbusd`,
//! `vpdpwssd`).
//!
//! # Example
//!
//! ```
//! use vegen_isa::{InstDb, TargetIsa};
//!
//! let db = InstDb::for_target(&TargetIsa::avx2());
//! let pmaddwd = db.find("pmaddwd_128").expect("pmaddwd is in the AVX2 db");
//! assert_eq!(pmaddwd.sem.out_lanes(), 4);
//! assert!(!pmaddwd.sem.is_simd());
//!
//! // AVX512-VNNI adds the dot-product instructions.
//! let db512 = InstDb::for_target(&TargetIsa::avx512vnni());
//! assert!(db512.find("vpdpbusd_512").is_some());
//! ```

pub mod specs;

use std::collections::BTreeSet;
use std::sync::OnceLock;
use vegen_vidl::InstSemantics;

/// An ISA extension gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variant and field names are the documentation
pub enum Extension {
    Sse2,
    Sse3,
    Ssse3,
    Sse41,
    Avx,
    Avx2,
    Fma,
    Avx512f,
    Avx512Vnni,
}

/// A target configuration: which extensions are available and the widest
/// vector register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetIsa {
    /// Display name (used in reports: "AVX2", "AVX512-VNNI").
    pub name: String,
    /// Enabled extensions.
    pub extensions: BTreeSet<Extension>,
    /// Maximum vector register width in bits (128, 256, or 512).
    pub max_bits: u32,
}

impl TargetIsa {
    /// The AVX2 server configuration of the paper (Xeon E5-2680 v3).
    pub fn avx2() -> TargetIsa {
        use Extension::*;
        TargetIsa {
            name: "AVX2".into(),
            extensions: [Sse2, Sse3, Ssse3, Sse41, Avx, Avx2, Fma].into_iter().collect(),
            max_bits: 256,
        }
    }

    /// The AVX512-VNNI server configuration of the paper (Xeon 8275CL).
    pub fn avx512vnni() -> TargetIsa {
        use Extension::*;
        TargetIsa {
            name: "AVX512-VNNI".into(),
            extensions: [Sse2, Sse3, Ssse3, Sse41, Avx, Avx2, Fma, Avx512f, Avx512Vnni]
                .into_iter()
                .collect(),
            max_bits: 512,
        }
    }

    /// A narrow SSE4-era target (used by ablation benches).
    pub fn sse4() -> TargetIsa {
        use Extension::*;
        TargetIsa {
            name: "SSE4".into(),
            extensions: [Sse2, Sse3, Ssse3, Sse41].into_iter().collect(),
            max_bits: 128,
        }
    }

    /// The target a front end's `--target` flag or `"target"` request
    /// member names, case-insensitively; `None` for an unknown name.
    pub fn from_name(name: &str) -> Option<TargetIsa> {
        match name.to_ascii_lowercase().as_str() {
            "avx2" => Some(TargetIsa::avx2()),
            "avx512vnni" | "avx512-vnni" | "vnni" => Some(TargetIsa::avx512vnni()),
            "sse4" | "sse4.1" => Some(TargetIsa::sse4()),
            _ => None,
        }
    }

    /// True if the target has `ext` enabled.
    pub fn has(&self, ext: Extension) -> bool {
        self.extensions.contains(&ext)
    }
}

/// One target instruction: metadata plus lifted VIDL semantics.
#[derive(Debug, Clone)]
pub struct InstDef {
    /// Unique name, `<mnemonic>_<bits>` (e.g. `pmaddwd_256`).
    pub name: String,
    /// Assembly mnemonic used in listings (e.g. `vpmaddwd`).
    pub asm: String,
    /// Required extension.
    pub ext: Extension,
    /// Total output width in bits.
    pub bits: u32,
    /// Cost: twice the inverse throughput, per §6.2 of the paper.
    pub cost: f64,
    /// Lifted, validated semantics.
    pub sem: InstSemantics,
}

/// The instruction database for one target.
#[derive(Debug, Clone)]
pub struct InstDb {
    defs: Vec<InstDef>,
}

impl InstDb {
    /// Build (or fetch from the process-wide cache) the database filtered to
    /// `target`'s extensions and register width.
    ///
    /// # Panics
    ///
    /// Panics if any built-in spec fails the offline pipeline — that would
    /// be a bug in the specs, and the validation suite pins each of them.
    pub fn for_target(target: &TargetIsa) -> InstDb {
        let all = full_database();
        InstDb {
            defs: all
                .iter()
                .filter(|d| target.has(d.ext) && d.bits <= target.max_bits)
                .cloned()
                .collect(),
        }
    }

    /// Build a database from explicit definitions — how downstream users
    /// retarget VeGen to a new (or hypothetical) instruction set: write
    /// [`specs::Spec`]s, `build()` them through the offline pipeline, and
    /// hand the results here.
    pub fn from_defs(defs: Vec<InstDef>) -> InstDb {
        InstDb { defs }
    }

    /// Every instruction available on this target.
    pub fn iter(&self) -> impl Iterator<Item = &InstDef> {
        self.defs.iter()
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True if the database is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Look up an instruction by its unique name.
    pub fn find(&self, name: &str) -> Option<&InstDef> {
        self.defs.iter().find(|d| d.name == name)
    }
}

/// Build and cache the full (all-extensions) database once per process.
/// Running the 207 specs through parse → symeval → simplify → lift →
/// validate takes tens of milliseconds in release; everything downstream
/// shares this.
pub fn full_database() -> &'static [InstDef] {
    static DB: OnceLock<Vec<InstDef>> = OnceLock::new();
    DB.get_or_init(|| {
        specs::all_specs()
            .iter()
            .map(|s| s.build().unwrap_or_else(|e| panic!("spec {} failed: {e}", s.name)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn database_builds_and_validates() {
        let db = full_database();
        assert!(db.len() >= 60, "expected a substantial database, got {}", db.len());
    }

    /// A target's own name resolves back to it: the disk cache's warm
    /// start has only the stored name to go on.
    #[test]
    fn every_target_resolves_from_its_own_name() {
        for t in [TargetIsa::avx2(), TargetIsa::avx512vnni(), TargetIsa::sse4()] {
            assert_eq!(TargetIsa::from_name(&t.name), Some(t));
        }
        assert_eq!(TargetIsa::from_name("Z80"), None);
    }

    #[test]
    fn avx2_excludes_vnni_and_512() {
        let db = InstDb::for_target(&TargetIsa::avx2());
        assert!(db.find("vpdpbusd_512").is_none());
        assert!(db.find("vpdpbusd_128").is_none());
        assert!(db.iter().all(|d| d.bits <= 256));
        assert!(db.find("pmaddwd_256").is_some());
    }

    #[test]
    fn vnni_target_has_dot_products() {
        let db = InstDb::for_target(&TargetIsa::avx512vnni());
        for n in ["vpdpbusd_128", "vpdpbusd_256", "vpdpbusd_512", "vpdpwssd_512"] {
            assert!(db.find(n).is_some(), "missing {n}");
        }
    }

    #[test]
    fn sse4_has_no_avx() {
        let db = InstDb::for_target(&TargetIsa::sse4());
        assert!(db.iter().all(|d| d.bits <= 128));
        assert!(db.find("fmaddsub_pd_128").is_none(), "FMA is post-SSE4");
    }

    #[test]
    fn non_simd_instructions_are_flagged() {
        let db = InstDb::for_target(&TargetIsa::avx2());
        for n in ["pmaddwd_128", "haddpd_128", "addsubpd_128", "pmaddubsw_128"] {
            let d = db.find(n).unwrap();
            assert!(!d.sem.is_simd(), "{n} must be non-SIMD");
        }
        for n in ["paddd_128", "mulpd_128", "pminsd_128"] {
            let d = db.find(n).unwrap();
            assert!(d.sem.is_simd(), "{n} must be SIMD");
        }
    }

    #[test]
    fn pmuldq_has_dont_care_lanes() {
        let db = InstDb::for_target(&TargetIsa::avx2());
        let d = db.find("pmuldq_128").unwrap();
        assert!(d.sem.has_dont_care_lanes(0));
        assert!(d.sem.has_dont_care_lanes(1));
    }

    #[test]
    fn costs_are_positive() {
        for d in full_database() {
            assert!(d.cost > 0.0, "{} has nonpositive cost", d.name);
        }
    }

    #[test]
    fn hsub_direction_matches_x86() {
        // HSUBPD: dst[0] = a[0] - a[1].
        use vegen_ir::Constant;
        use vegen_ir::Type;
        let db = InstDb::for_target(&TargetIsa::avx2());
        let d = db.find("hsubpd_128").unwrap();
        let a = vec![Constant::f64(5.0), Constant::f64(2.0)];
        let b = vec![Constant::f64(10.0), Constant::f64(4.0)];
        let out = vegen_vidl::eval_inst(&d.sem, &[a, b]).unwrap();
        assert_eq!(out[0].as_f64(), 3.0);
        assert_eq!(out[1].as_f64(), 6.0);
        let _ = Type::F64;
    }

    #[test]
    fn hadd_order_is_lane_hi_plus_lo() {
        use vegen_ir::Constant;
        let db = InstDb::for_target(&TargetIsa::avx2());
        let d = db.find("haddpd_128").unwrap();
        let a = vec![Constant::f64(1.0), Constant::f64(2.0)];
        let b = vec![Constant::f64(10.0), Constant::f64(20.0)];
        let out = vegen_vidl::eval_inst(&d.sem, &[a, b]).unwrap();
        assert_eq!(out[0].as_f64(), 3.0);
        assert_eq!(out[1].as_f64(), 30.0);
    }

    #[test]
    fn pmovsx_reads_low_lanes_only() {
        use vegen_ir::Constant;
        use vegen_ir::Type;
        let db = InstDb::for_target(&TargetIsa::avx2());
        let d = db.find("pmovsxbd_128").unwrap();
        assert_eq!(d.sem.out_lanes(), 4);
        assert_eq!(d.sem.inputs[0].lanes, 16);
        assert!(d.sem.has_dont_care_lanes(0), "lanes 4..16 are unused");
        let mut input = vec![Constant::int(Type::I8, 0); 16];
        input[0] = Constant::int(Type::I8, -5);
        input[3] = Constant::int(Type::I8, 127);
        input[7] = Constant::int(Type::I8, 99); // must be ignored
        let out = vegen_vidl::eval_inst(&d.sem, &[input]).unwrap();
        assert_eq!(out[0].as_i64(), -5);
        assert_eq!(out[3].as_i64(), 127);
    }

    #[test]
    fn vpdpwssd_accumulates_word_pairs() {
        use vegen_ir::Constant;
        use vegen_ir::Type;
        let db = InstDb::for_target(&TargetIsa::avx512vnni());
        let d = db.find("vpdpwssd_128").unwrap();
        let src = vec![Constant::int(Type::I32, 1000); 4];
        let mut a = vec![Constant::int(Type::I16, 0); 8];
        let mut b = vec![Constant::int(Type::I16, 0); 8];
        a[0] = Constant::int(Type::I16, -3);
        b[0] = Constant::int(Type::I16, 100);
        a[1] = Constant::int(Type::I16, 7);
        b[1] = Constant::int(Type::I16, 10);
        let out = vegen_vidl::eval_inst(&d.sem, &[src, a, b]).unwrap();
        assert_eq!(out[0].as_i64(), 1000 - 300 + 70);
        assert_eq!(out[1].as_i64(), 1000);
    }

    #[test]
    fn packssdw_saturates_and_interleaves_registers() {
        use vegen_ir::Constant;
        use vegen_ir::Type;
        let db = InstDb::for_target(&TargetIsa::avx2());
        let d = db.find("packssdw_128").unwrap();
        let a: Vec<Constant> =
            [100_000, -100_000, 5, -5].iter().map(|&v| Constant::int(Type::I32, v)).collect();
        let b: Vec<Constant> = [1, 2, 3, 4].iter().map(|&v| Constant::int(Type::I32, v)).collect();
        let out = vegen_vidl::eval_inst(&d.sem, &[a, b]).unwrap();
        let vals: Vec<i64> = out.iter().map(|c| c.as_i64()).collect();
        assert_eq!(vals, vec![32767, -32768, 5, -5, 1, 2, 3, 4]);
    }

    #[test]
    fn addsub_subtracts_even_adds_odd() {
        use vegen_ir::Constant;
        let db = InstDb::for_target(&TargetIsa::avx2());
        let d = db.find("addsubpd_128").unwrap();
        let a = vec![Constant::f64(10.0), Constant::f64(10.0)];
        let b = vec![Constant::f64(3.0), Constant::f64(3.0)];
        let out = vegen_vidl::eval_inst(&d.sem, &[a, b]).unwrap();
        assert_eq!(out[0].as_f64(), 7.0);
        assert_eq!(out[1].as_f64(), 13.0);
    }

    #[test]
    fn fmaddsub_is_fms_even_fma_odd() {
        use vegen_ir::Constant;
        let db = InstDb::for_target(&TargetIsa::avx2());
        let d = db.find("fmaddsub213pd_128").unwrap();
        let a = vec![Constant::f64(2.0), Constant::f64(2.0)];
        let b = vec![Constant::f64(5.0), Constant::f64(5.0)];
        let c = vec![Constant::f64(1.0), Constant::f64(1.0)];
        let out = vegen_vidl::eval_inst(&d.sem, &[a, b, c]).unwrap();
        assert_eq!(out[0].as_f64(), 9.0); // 2*5 - 1
        assert_eq!(out[1].as_f64(), 11.0); // 2*5 + 1
    }

    #[test]
    fn saturating_unsigned_subtract_clamps_to_zero() {
        // The §6.1 psubus documentation trap, at the database level.
        use vegen_ir::Constant;
        use vegen_ir::Type;
        let db = InstDb::for_target(&TargetIsa::avx2());
        let d = db.find("psubusb_128").unwrap();
        let mut a = vec![Constant::int(Type::I8, 0); 16];
        let mut b = vec![Constant::int(Type::I8, 0); 16];
        a[0] = Constant::int(Type::I8, 3);
        b[0] = Constant::int(Type::I8, 10);
        a[1] = Constant::int(Type::I8, -1); // 255 unsigned
        b[1] = Constant::int(Type::I8, 1);
        let out = vegen_vidl::eval_inst(&d.sem, &[a, b]).unwrap();
        assert_eq!(out[0].as_u64(), 0, "3 - 10 saturates to zero");
        assert_eq!(out[1].as_u64(), 254);
    }

    #[test]
    fn names_are_unique() {
        let db = full_database();
        let mut names: Vec<&str> = db.iter().map(|d| d.name.as_str()).collect();
        names.sort();
        let n = names.len();
        names.dedup();
        assert_eq!(n, names.len());
    }
}
