//! `TargetDesc::try_build` derives each operation of an instruction once;
//! this test keeps the lane-by-lane derivation it replaced and requires
//! the two descriptions to agree field for field: registry operations in
//! order (name, parameters, result, pattern), then per instruction its
//! lane operation ids and binding tables — on every target, with pattern
//! canonicalization on and off.

use vegen_isa::{InstDb, TargetIsa};
use vegen_match::table::RegisteredOp;
use vegen_match::{try_pattern_of_operation, OpId, OpRegistry, TargetDesc};
use vegen_vidl::ast::LaneUse;

/// One instruction's lane operation ids and binding tables.
type Prepared = (Vec<OpId>, Vec<Vec<Vec<LaneUse>>>);

/// The reference: one pattern derivation and one registry lookup per lane.
fn per_lane(db: &InstDb, canonicalize: bool) -> (OpRegistry, Vec<Prepared>) {
    let mut ops = OpRegistry::default();
    let mut insts = Vec::new();
    for def in db.iter() {
        let mut lane_ops = Vec::new();
        for lane in &def.sem.lanes {
            let op = &def.sem.ops[lane.op];
            let pattern = try_pattern_of_operation(op, canonicalize).expect("in-tree pattern");
            lane_ops.push(ops.intern(&op.name, op.params.clone(), op.ret, pattern));
        }
        let bindings = (0..def.sem.inputs.len()).map(|i| def.sem.operand_bindings(i)).collect();
        insts.push((lane_ops, bindings));
    }
    (ops, insts)
}

fn registered(ops: &OpRegistry) -> Vec<&RegisteredOp> {
    ops.iter().map(|(_, op)| op).collect()
}

#[test]
fn per_operation_derivation_matches_the_per_lane_reference() {
    for target in [TargetIsa::sse4(), TargetIsa::avx2(), TargetIsa::avx512vnni()] {
        let db = InstDb::for_target(&target);
        for canonicalize in [true, false] {
            let what = format!("{} canonicalize={canonicalize}", target.name);
            let desc = TargetDesc::try_build(&db, canonicalize).expect("in-tree database");
            let (ops, insts) = per_lane(&db, canonicalize);
            assert_eq!(desc.ops.len(), ops.len(), "{what}: registry size");
            for (i, (got, want)) in
                registered(&desc.ops).into_iter().zip(registered(&ops)).enumerate()
            {
                assert_eq!(got.name, want.name, "{what}: op #{i} name");
                assert_eq!(got.param_tys, want.param_tys, "{what}: op #{i} parameters");
                assert_eq!(got.ret, want.ret, "{what}: op #{i} result");
                assert_eq!(got.pattern, want.pattern, "{what}: op #{i} pattern");
            }
            assert_eq!(desc.insts.len(), insts.len(), "{what}: instruction count");
            for (inst, (lane_ops, bindings)) in desc.insts.iter().zip(&insts) {
                let name = &inst.def.name;
                assert_eq!(&inst.lane_ops, lane_ops, "{what}: {name} lane operations");
                assert_eq!(&inst.bindings, bindings, "{what}: {name} bindings");
            }
        }
    }
}

/// A pattern that cannot be derived is reported at the first lane using
/// its operation, as a lane-by-lane derivation finds it.
#[test]
fn a_bad_operation_is_reported_at_its_first_lane() {
    use vegen_match::TableError;
    use vegen_vidl::Expr;
    let db = InstDb::for_target(&TargetIsa::avx2());
    let mut defs: Vec<_> = db.iter().cloned().collect();
    // An instruction whose lanes alternate between two operations; break
    // the one lane 0 does not use.
    let (at, def) = defs
        .iter_mut()
        .enumerate()
        .find(|(_, d)| d.sem.lanes.len() >= 2 && d.sem.lanes[0].op != d.sem.lanes[1].op)
        .expect("an instruction with two lane operations");
    let broken = def.sem.lanes[1].op;
    def.sem.ops[broken].expr = Expr::Param(9);
    let first = def.sem.lanes.iter().position(|l| l.op == broken).unwrap();
    let name = def.name.clone();
    let e = TargetDesc::try_build(&InstDb::from_defs(defs), true).unwrap_err();
    let TableError::BadPattern { inst, lane, .. } = e else { panic!("wrong error: {e:?}") };
    assert_eq!((inst.as_str(), lane), (name.as_str(), first), "instruction #{at}");
}
