//! Structural lint of lowered VM programs.
//!
//! Errors are shapes [`vegen_vm::run_program`] would reject at runtime
//! (or silently misread): uses of undefined registers, scalar/vector kind
//! confusion, lane-width mismatches against the instruction semantics,
//! out-of-range shuffle and extract indices, and out-of-bounds memory
//! accesses. Warnings flag legal but wasteful code: vector instructions
//! whose results never reach a store (a committed load pack whose
//! consumers sourced their operands elsewhere lowers to exactly that) and
//! identity shuffles.

use crate::diag::{Diagnostic, Location};
use vegen_ir::Type;
use vegen_vm::{LaneSrc, Reg, VmInst, VmProgram};

/// What a register holds, as tracked in program order.
#[derive(Clone, Copy, PartialEq)]
enum RegKind {
    Scalar,
    Vector { lanes: usize, elem: Type },
}

/// Lint `prog`; returns errors and warnings in program order (dead-code
/// warnings last).
pub fn lint_program(prog: &VmProgram) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut defined: Vec<Option<RegKind>> = vec![None; prog.n_regs];

    for (idx, inst) in prog.insts.iter().enumerate() {
        let at = Location::VmInst { index: idx, lane: None };
        lint_inst(prog, idx, inst, &mut defined, &mut diags);
        if let Some(dst) = inst.def() {
            if (dst.0 as usize) >= prog.n_regs {
                diags.push(Diagnostic::error(
                    at,
                    format!(
                        "destination r{} is outside the register file (n_regs {})",
                        dst.0, prog.n_regs
                    ),
                ));
            }
        }
    }

    mark_dead_code(prog, &mut diags);
    diags
}

fn lint_inst(
    prog: &VmProgram,
    idx: usize,
    inst: &VmInst,
    defined: &mut Vec<Option<RegKind>>,
    diags: &mut Vec<Diagnostic>,
) {
    let at = Location::VmInst { index: idx, lane: None };
    let use_scalar =
        |r: Reg, defined: &[Option<RegKind>], diags: &mut Vec<Diagnostic>| match defined
            .get(r.0 as usize)
            .copied()
            .flatten()
        {
            Some(RegKind::Scalar) => {}
            Some(RegKind::Vector { .. }) => diags.push(Diagnostic::error(
                at,
                format!("r{} used as a scalar but holds a vector", r.0),
            )),
            None => {
                diags.push(Diagnostic::error(at, format!("use of undefined register r{}", r.0)))
            }
        };
    let use_vector = |r: Reg,
                      defined: &[Option<RegKind>],
                      diags: &mut Vec<Diagnostic>|
     -> Option<(usize, Type)> {
        match defined.get(r.0 as usize).copied().flatten() {
            Some(RegKind::Vector { lanes, elem }) => Some((lanes, elem)),
            Some(RegKind::Scalar) => {
                diags.push(Diagnostic::error(
                    at,
                    format!("r{} used as a vector but holds a scalar", r.0),
                ));
                None
            }
            None => {
                diags.push(Diagnostic::error(at, format!("use of undefined register r{}", r.0)));
                None
            }
        }
    };
    let check_bounds =
        |base: usize, first: i64, count: usize, diags: &mut Vec<Diagnostic>| match prog
            .params
            .get(base)
        {
            None => diags.push(Diagnostic::error(at, format!("unknown parameter arg{base}"))),
            Some(p) if first < 0 || first as usize + count > p.len => {
                diags.push(Diagnostic::error(
                    at,
                    format!(
                        "access {}[{first}..{}) is out of bounds (len {})",
                        p.name,
                        first + count as i64,
                        p.len
                    ),
                ));
            }
            Some(_) => {}
        };
    let define =
        |r: Reg, kind: RegKind, defined: &mut Vec<Option<RegKind>>, diags: &mut Vec<Diagnostic>| {
            if let Some(slot) = defined.get_mut(r.0 as usize) {
                if slot.is_some() {
                    diags.push(Diagnostic::warning(
                        at,
                        format!("register r{} is redefined (lowering emits fresh registers)", r.0),
                    ));
                }
                *slot = Some(kind);
            }
        };

    match inst {
        VmInst::Scalar { dst, inst: scalar } => {
            if let Some(loc) = scalar.mem_loc() {
                check_bounds(loc.base, loc.offset, 1, diags);
            }
            for r in inst.uses() {
                use_scalar(r, defined, diags);
            }
            if let Some(dst) = dst.get() {
                define(dst, RegKind::Scalar, defined, diags);
            }
        }
        VmInst::VecLoad { dst, base, start, lanes, elem } => {
            if *lanes == 0 {
                diags.push(Diagnostic::error(at, "zero-lane vector load"));
            }
            check_bounds(*base, *start, *lanes, diags);
            if let Some(p) = prog.params.get(*base) {
                if p.elem_ty != *elem {
                    diags.push(Diagnostic::error(
                        at,
                        format!(
                            "vector load element {elem} differs from {}: {}",
                            p.name, p.elem_ty
                        ),
                    ));
                }
            }
            define(*dst, RegKind::Vector { lanes: *lanes, elem: *elem }, defined, diags);
        }
        VmInst::VecStore { base, start, src } => {
            if let Some((lanes, elem)) = use_vector(*src, defined, diags) {
                check_bounds(*base, *start, lanes, diags);
                if let Some(p) = prog.params.get(*base) {
                    if p.elem_ty != elem {
                        diags.push(Diagnostic::error(
                            at,
                            format!(
                                "vector store element {elem} differs from {}: {}",
                                p.name, p.elem_ty
                            ),
                        ));
                    }
                }
            }
        }
        VmInst::VecOp { dst, sem, args } => {
            let Some(semantics) = prog.sems.get(*sem) else {
                diags.push(Diagnostic::error(at, format!("unknown semantics index {sem}")));
                return;
            };
            if args.len() != semantics.inputs.len() {
                diags.push(Diagnostic::error(
                    at,
                    format!(
                        "{} takes {} inputs but {} are supplied",
                        semantics.name,
                        semantics.inputs.len(),
                        args.len()
                    ),
                ));
            }
            for (i, (&arg, shape)) in args.iter().zip(&semantics.inputs).enumerate() {
                if let Some((lanes, elem)) = use_vector(arg, defined, diags) {
                    if lanes != shape.lanes || elem != shape.elem {
                        diags.push(Diagnostic::error(
                            at,
                            format!(
                                "{} input {i} wants {}x{}, r{} holds {}x{}",
                                semantics.name, shape.lanes, shape.elem, arg.0, lanes, elem
                            ),
                        ));
                    }
                }
            }
            define(
                *dst,
                RegKind::Vector { lanes: semantics.out_lanes(), elem: semantics.out_elem },
                defined,
                diags,
            );
        }
        VmInst::Build { dst, elem, lanes } => {
            let mut identity_of: Option<Reg> = None;
            for (l, src) in lanes.iter().enumerate() {
                match src {
                    LaneSrc::FromVec { src, lane } => {
                        if let Some((src_lanes, src_elem)) = use_vector(*src, defined, diags) {
                            if *lane >= src_lanes {
                                diags.push(Diagnostic::error(
                                    Location::VmInst { index: idx, lane: Some(l) },
                                    format!(
                                        "shuffle index {lane} out of range for r{} ({src_lanes} \
                                         lanes)",
                                        src.0
                                    ),
                                ));
                            }
                            if src_elem != *elem {
                                diags.push(Diagnostic::error(
                                    Location::VmInst { index: idx, lane: Some(l) },
                                    format!(
                                        "lane {l} moves a {src_elem} element into a {elem} vector"
                                    ),
                                ));
                            }
                            // Identity tracking: lane l must be lane l of
                            // one common full-width source.
                            if *lane == l
                                && src_lanes == lanes.len()
                                && (l == 0 || identity_of == Some(*src))
                            {
                                identity_of = Some(*src);
                            } else {
                                identity_of = None;
                            }
                        }
                    }
                    LaneSrc::FromScalar(r) => {
                        use_scalar(*r, defined, diags);
                        identity_of = None;
                    }
                    LaneSrc::Const(c) => {
                        if c.ty() != *elem {
                            diags.push(Diagnostic::error(
                                Location::VmInst { index: idx, lane: Some(l) },
                                format!(
                                    "lane {l} inserts a {} constant into a {elem} vector",
                                    c.ty()
                                ),
                            ));
                        }
                        identity_of = None;
                    }
                    LaneSrc::Undef => identity_of = None,
                }
            }
            if let Some(src) = identity_of {
                diags.push(Diagnostic::warning(
                    at,
                    format!("redundant shuffle: identity of r{} (use it directly)", src.0),
                ));
            }
            define(*dst, RegKind::Vector { lanes: lanes.len(), elem: *elem }, defined, diags);
        }
        VmInst::Extract { dst, src, lane } => {
            if let Some((lanes, _)) = use_vector(*src, defined, diags) {
                if *lane >= lanes {
                    diags.push(Diagnostic::error(
                        at,
                        format!("extract lane {lane} out of range for r{} ({lanes} lanes)", src.0),
                    ));
                }
            }
            define(*dst, RegKind::Scalar, defined, diags);
        }
    }
}

/// Warn about vector instructions whose results can never reach memory.
fn mark_dead_code(prog: &VmProgram, diags: &mut Vec<Diagnostic>) {
    let mut live = vec![false; prog.n_regs];
    let mut dead = Vec::new();
    for (idx, inst) in prog.insts.iter().enumerate().rev() {
        let inst_live = match inst.def() {
            None => true, // stores are roots
            Some(dst) => live.get(dst.0 as usize).copied().unwrap_or(false),
        };
        if inst_live {
            for r in inst.uses() {
                if let Some(slot) = live.get_mut(r.0 as usize) {
                    *slot = true;
                }
            }
        } else if matches!(
            inst,
            VmInst::VecLoad { .. } | VmInst::VecOp { .. } | VmInst::Build { .. }
        ) {
            dead.push(idx);
        }
    }
    for idx in dead.into_iter().rev() {
        diags.push(Diagnostic::warning(
            Location::VmInst { index: idx, lane: None },
            "dead vector instruction: its result never reaches a store".to_string(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use vegen_ir::{Constant, Inst, InstKind, MemLoc, Param};
    use vegen_vm::Dst;

    /// `r{dst} = value` as an `i32` constant.
    fn iconst(dst: u32, value: i64) -> VmInst {
        let kind = InstKind::Const(Constant::int(Type::I32, value));
        VmInst::Scalar { dst: Dst::new(Reg(dst)).unwrap(), inst: Inst { kind, ty: Type::I32 } }
    }

    /// `arg{base}[offset] = r{src}`.
    fn store(base: usize, offset: i64, src: u32) -> VmInst {
        let kind = InstKind::Store { loc: MemLoc { base, offset }, value: Reg(src) };
        VmInst::Scalar { dst: Dst::NONE, inst: Inst { kind, ty: Type::Void } }
    }

    fn prog(params: Vec<Param>, insts: Vec<VmInst>, n_regs: usize) -> VmProgram {
        VmProgram {
            name: "t".into(),
            params,
            sems: vec![],
            sem_asm: vec![],
            sem_cost: vec![],
            insts,
            n_regs,
        }
    }

    fn p(name: &str, elem_ty: Type, len: usize) -> Param {
        Param { name: name.into(), elem_ty, len }
    }

    #[test]
    fn undefined_register_is_an_error() {
        let pr = prog(vec![p("A", Type::I32, 1)], vec![store(0, 0, 0)], 1);
        let diags = lint_program(&pr);
        assert!(
            diags
                .iter()
                .any(|d| d.severity == Severity::Error
                    && d.message.contains("undefined register r0")),
            "{diags:?}"
        );
    }

    #[test]
    fn shuffle_index_out_of_range_is_an_error() {
        let pr = prog(
            vec![p("A", Type::I32, 2)],
            vec![
                VmInst::VecLoad { dst: Reg(0), base: 0, start: 0, lanes: 2, elem: Type::I32 },
                VmInst::Build {
                    dst: Reg(1),
                    elem: Type::I32,
                    lanes: vec![
                        LaneSrc::FromVec { src: Reg(0), lane: 5 },
                        LaneSrc::FromVec { src: Reg(0), lane: 0 },
                    ],
                },
                VmInst::VecStore { base: 0, start: 0, src: Reg(1) },
            ],
            2,
        );
        let diags = lint_program(&pr);
        assert!(
            diags.iter().any(|d| d.severity == Severity::Error
                && d.message.contains("shuffle index 5 out of range")),
            "{diags:?}"
        );
    }

    #[test]
    fn dead_vector_load_is_a_warning() {
        let pr = prog(
            vec![p("A", Type::I32, 4)],
            vec![
                VmInst::VecLoad { dst: Reg(0), base: 0, start: 0, lanes: 4, elem: Type::I32 },
                iconst(1, 0),
                store(0, 0, 1),
            ],
            2,
        );
        let diags = lint_program(&pr);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("dead vector instruction"), "{}", diags[0].message);
        assert!(matches!(diags[0].location, Location::VmInst { index: 0, lane: None }));
    }

    #[test]
    fn identity_build_is_a_warning() {
        let pr = prog(
            vec![p("A", Type::I32, 2)],
            vec![
                VmInst::VecLoad { dst: Reg(0), base: 0, start: 0, lanes: 2, elem: Type::I32 },
                VmInst::Build {
                    dst: Reg(1),
                    elem: Type::I32,
                    lanes: vec![
                        LaneSrc::FromVec { src: Reg(0), lane: 0 },
                        LaneSrc::FromVec { src: Reg(0), lane: 1 },
                    ],
                },
                VmInst::VecStore { base: 0, start: 0, src: Reg(1) },
            ],
            2,
        );
        let diags = lint_program(&pr);
        assert!(
            diags.iter().any(|d| d.severity == Severity::Warning
                && d.message.contains("redundant shuffle")),
            "{diags:?}"
        );
    }

    #[test]
    fn register_redefinition_is_a_warning() {
        let pr =
            prog(vec![p("A", Type::I32, 1)], vec![iconst(0, 1), iconst(0, 2), store(0, 0, 0)], 1);
        let diags = lint_program(&pr);
        assert!(
            diags
                .iter()
                .any(|d| d.severity == Severity::Warning && d.message.contains("redefined")),
            "{diags:?}"
        );
    }

    #[test]
    fn kind_confusion_and_oob_access_are_errors() {
        let pr = prog(
            vec![p("A", Type::I32, 2)],
            vec![
                VmInst::VecLoad { dst: Reg(0), base: 0, start: 0, lanes: 2, elem: Type::I32 },
                // A vector register used as a scalar store source.
                store(0, 9, 0),
            ],
            1,
        );
        let diags = lint_program(&pr);
        assert!(diags.iter().any(|d| d.message.contains("used as a scalar")), "{diags:?}");
        assert!(diags.iter().any(|d| d.message.contains("out of bounds")), "{diags:?}");
    }
}
