//! Static cycle estimation for vector programs.
//!
//! The per-instruction costs mirror §6.2: vector compute instructions carry
//! twice their inverse throughput (from the database), data movement is
//! classified (broadcast / permute / two-source shuffle / insertion chain)
//! and costed like the special cases the paper adds on top of LLVM's
//! model, and scalar instructions cost what the pack-selection cost model
//! charges them — both read `vegen_ir::cost`, the one table — so the VM's
//! estimate and the vectorizer's objective agree.

use crate::program::{classify_build, BuildKind, VmInst, VmProgram};
use vegen_ir::cost::{scalar_cost, BROADCAST, EXTRACT, INSERT, PERMUTE, SHUFFLE, VECTOR_MEM};

/// Estimate the program's cost in cycles under the throughput model.
pub fn static_cycles(prog: &VmProgram) -> f64 {
    let mut total = 0.0;
    for inst in &prog.insts {
        total += match inst {
            VmInst::Scalar { inst, .. } => scalar_cost(&inst.kind),
            VmInst::VecLoad { .. } | VmInst::VecStore { .. } => VECTOR_MEM,
            VmInst::VecOp { sem, .. } => prog.sem_cost[*sem],
            VmInst::Build { lanes, .. } => match classify_build(lanes) {
                BuildKind::ConstantVector => 0.0,
                BuildKind::Broadcast => BROADCAST,
                BuildKind::Permute => PERMUTE,
                BuildKind::TwoSourceShuffle => SHUFFLE,
                BuildKind::Insert { scalar_lanes, vec_sources } => {
                    INSERT * scalar_lanes as f64 + SHUFFLE * vec_sources.saturating_sub(1) as f64
                }
            },
            VmInst::Extract { .. } => EXTRACT,
        };
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{LaneSrc, Reg, VmProgram};
    use vegen_ir::{BinOp, Constant, Inst, InstKind, Param, Type};

    #[test]
    fn costs_accumulate() {
        let mut p =
            VmProgram::new("t", vec![Param { name: "A".into(), elem_ty: Type::I32, len: 8 }]);
        let a = p.fresh_reg();
        let b = p.fresh_reg();
        p.push(VmInst::VecLoad { dst: a, base: 0, start: 0, lanes: 4, elem: Type::I32 });
        p.push(VmInst::Build {
            dst: b,
            elem: Type::I32,
            lanes: vec![LaneSrc::FromVec { src: a, lane: 1 }; 4],
        });
        p.push(VmInst::VecStore { base: 0, start: 4, src: b });
        // 1 (load) + 2 (permute) + 1 (store)
        assert_eq!(static_cycles(&p), 4.0);
    }

    #[test]
    fn constant_vectors_are_free() {
        let mut p = VmProgram::new("t", vec![]);
        let b = p.fresh_reg();
        p.push(VmInst::Build {
            dst: b,
            elem: Type::I32,
            lanes: vec![LaneSrc::Const(Constant::int(Type::I32, 7)); 4],
        });
        assert_eq!(static_cycles(&p), 0.0);
    }

    #[test]
    fn scalar_div_is_expensive() {
        let mut p = VmProgram::new("t", vec![]);
        let c = |v| Inst { kind: InstKind::Const(Constant::int(Type::I32, v)), ty: Type::I32 };
        p.push_scalar(c(8));
        p.push_scalar(c(2));
        let div = InstKind::Bin { op: BinOp::SDiv, lhs: Reg(0), rhs: Reg(1) };
        p.push_scalar(Inst { kind: div, ty: Type::I32 });
        assert_eq!(static_cycles(&p), 8.0);
    }
}
