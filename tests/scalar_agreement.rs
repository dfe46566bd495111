//! The scalar build agrees with the scalar IR it was lowered from, in cost
//! and in behaviour.
//!
//! `vegen_vm::static_cycles` promises that scalar instructions cost in the
//! VM what pack selection charges for them: over the suite and the
//! canonical corpus of seed 42 (the quality corpus, 200 kernels), the
//! cycles of `lower_scalar(f)` must equal the sum of `CostModel`'s scalar
//! cost over `f`, bit for bit. And the scalar program must leave the same
//! memory on the VM as `interp::run` leaves on four random images.

use vegen::codegen::lower_scalar;
use vegen::core::CostModel;
use vegen::ir::canon::canonicalize;
use vegen::ir::interp::{random_memory, run};
use vegen::ir::Function;
use vegen::kernels::gen;
use vegen::vm::{run_program, static_cycles};

/// The suite and corpus 42, canonicalized as `vegen::driver` does first.
fn functions() -> Vec<Function> {
    let suite = vegen::kernels::all().into_iter().map(|k| (k.build)());
    let corpus = (0..200).map(|i| gen::generate(42, i).function);
    suite.chain(corpus).map(|f| canonicalize(&f)).collect()
}

#[test]
fn scalar_programs_cost_what_selection_charges() {
    let cm = CostModel::default();
    for f in functions() {
        let mut charged = 0.0;
        for v in f.value_ids() {
            charged += cm.scalar_inst_cost(&f, v);
        }
        let cycles = static_cycles(&lower_scalar(&f));
        assert_eq!(
            cycles.to_bits(),
            charged.to_bits(),
            "{}: VM {cycles}, selection {charged}",
            f.name
        );
    }
}

#[test]
fn scalar_programs_run_as_the_interpreter_does() {
    for f in functions() {
        let prog = lower_scalar(&f);
        for seed in 0..4 {
            let mut expected = random_memory(&f, seed);
            let mut got = expected.clone();
            run(&f, &mut expected).unwrap_or_else(|e| panic!("{}: {e}", f.name));
            run_program(&prog, &mut got).unwrap_or_else(|e| panic!("{}: {e}", f.name));
            assert_eq!(got, expected, "{} on image {seed}", f.name);
        }
    }
}
