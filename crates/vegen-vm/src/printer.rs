//! Assembly-flavoured listing of vector programs (for the Fig. 12 / 14
//! style code snippets in the experiment reports).

use crate::program::{classify_build, BuildKind, Reg, VmInst, VmProgram};
use std::fmt::Write as _;
use vegen_ir::{Inst, InstKind};

/// One scalar instruction's line (a store, the one without `dst`, prints
/// none).
fn scalar_line(s: &mut String, prog: &VmProgram, dst: Option<Reg>, inst: &Inst<Reg>) {
    let dst = dst.unwrap_or_default();
    let _ = match inst.kind {
        InstKind::Const(c) => writeln!(s, "  mov    {dst}, {c}"),
        InstKind::Bin { op, lhs, rhs } => writeln!(s, "  {:<6} {dst}, {lhs}, {rhs}", op.name()),
        InstKind::FNeg { arg } => writeln!(s, "  fneg   {dst}, {arg}"),
        InstKind::Cast { op, arg } => {
            writeln!(s, "  {:<6} {dst}, {arg} ; -> {}", op.name(), inst.ty)
        }
        InstKind::Cmp { pred, lhs, rhs } => {
            writeln!(s, "  cmp{:<3} {dst}, {lhs}, {rhs}", pred.name())
        }
        InstKind::Select { cond, on_true, on_false } => {
            writeln!(s, "  csel   {dst}, {cond}, {on_true}, {on_false}")
        }
        InstKind::Load { loc } => {
            writeln!(s, "  mov    {dst}, [{}+{}]", prog.params[loc.base].name, loc.offset)
        }
        InstKind::Store { loc, value } => {
            writeln!(s, "  mov    [{}+{}], {value}", prog.params[loc.base].name, loc.offset)
        }
    };
}

/// Render the program as an assembly-like listing.
pub fn listing(prog: &VmProgram) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "; {} ({} instructions)", prog.name, prog.instruction_count());
    for inst in &prog.insts {
        match inst {
            VmInst::Scalar { dst, inst } => scalar_line(&mut s, prog, *dst, inst),
            VmInst::VecLoad { dst, base, start, lanes, .. } => {
                let _ = writeln!(
                    s,
                    "  vmovdqu {dst}, [{}+{start}] ; {lanes} lanes",
                    prog.params[*base].name
                );
            }
            VmInst::VecStore { base, start, src } => {
                let _ = writeln!(s, "  vmovdqu [{}+{start}], {src}", prog.params[*base].name);
            }
            VmInst::VecOp { dst, sem, args } => {
                let mut ops = String::new();
                for a in args {
                    let _ = write!(ops, ", {a}");
                }
                let _ = writeln!(s, "  {:<6} {dst}{ops}", prog.sem_asm[*sem]);
            }
            VmInst::Build { dst, lanes, .. } => {
                let mnemonic = match classify_build(lanes) {
                    BuildKind::ConstantVector => "vconst",
                    BuildKind::Broadcast => "vpbroadcast",
                    BuildKind::Permute => "vpshuf",
                    BuildKind::TwoSourceShuffle => "vshuf2",
                    BuildKind::Insert { .. } => "vinsert",
                };
                let mut detail = String::new();
                for l in lanes {
                    match l {
                        crate::program::LaneSrc::FromVec { src, lane } => {
                            let _ = write!(detail, " {src}[{lane}]");
                        }
                        crate::program::LaneSrc::FromScalar(r) => {
                            let _ = write!(detail, " {r}");
                        }
                        crate::program::LaneSrc::Const(c) => {
                            let _ = write!(detail, " {c}");
                        }
                        crate::program::LaneSrc::Undef => {
                            let _ = write!(detail, " _");
                        }
                    }
                }
                let _ = writeln!(s, "  {mnemonic:<6} {dst},{detail}");
            }
            VmInst::Extract { dst, src, lane } => {
                let _ = writeln!(s, "  vextract {dst}, {src}[{lane}]");
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{LaneSrc, VmProgram};
    use vegen_ir::{Param, Type};

    #[test]
    fn listing_covers_instruction_kinds() {
        let mut p =
            VmProgram::new("show", vec![Param { name: "A".into(), elem_ty: Type::I32, len: 8 }]);
        let a = p.fresh_reg();
        let b = p.fresh_reg();
        let x = p.fresh_reg();
        p.push(VmInst::VecLoad { dst: a, base: 0, start: 0, lanes: 4, elem: Type::I32 });
        p.push(VmInst::Build {
            dst: b,
            elem: Type::I32,
            lanes: vec![LaneSrc::FromVec { src: a, lane: 3 }; 4],
        });
        p.push(VmInst::Extract { dst: x, src: b, lane: 0 });
        let loc = vegen_ir::MemLoc { base: 0, offset: 7 };
        p.push_scalar(Inst { kind: InstKind::Store { loc, value: x }, ty: Type::Void });
        let text = listing(&p);
        assert!(text.contains("vmovdqu v0, [A+0]"));
        assert!(text.contains("vpshuf"));
        assert!(text.contains("vextract v2, v1[0]"));
        assert!(text.contains("mov    [A+7], v2"));
    }
}
