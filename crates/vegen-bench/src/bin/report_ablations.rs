//! Ablations beyond the paper's own: what each design choice buys.
//!
//! * affinity seed enumeration (Fig. 8) on/off,
//! * the `Cshuffle` parameter (§6.2 sets it to 2),
//! * beam width sweep beyond the paper's {1, 64, 128}.

use vegen::driver::target_desc;
use vegen_bench::print_table;
use vegen_core::{
    select_packs, select_packs_reusing, BeamConfig, CostModel, SelectionReuse, VectorizerCtx,
};
use vegen_ir::canon::{add_narrow_constants, canonicalize};
use vegen_isa::TargetIsa;

fn main() {
    let kernels = ["pmaddwd", "idct4", "chroma", "cmul", "int32x8", "fft4"];
    let desc = target_desc(&TargetIsa::avx2(), true);

    // --- Affinity seeds on/off -----------------------------------------
    let mut rows = Vec::new();
    for name in kernels {
        let k = vegen_kernels::find(name).unwrap();
        let f = add_narrow_constants(&canonicalize(&(k.build)()));
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        let mut cells = vec![name.to_string()];
        // The seeds decide the candidates, so each column freezes.
        for seeds in [true, false] {
            let cfg = BeamConfig { use_affinity_seeds: seeds, ..BeamConfig::with_width(64) };
            let r = select_packs(&ctx, &cfg).unwrap();
            cells.push(format!("{:.1}", r.vector_cost));
        }
        rows.push(cells);
    }
    print_table(
        "Ablation — affinity seed enumeration (estimated cost, lower is better)",
        &["kernel", "with seeds", "store chains only"],
        &rows,
    );

    // --- Cshuffle sensitivity -------------------------------------------
    let mut rows = Vec::new();
    for name in kernels {
        let k = vegen_kernels::find(name).unwrap();
        let f = add_narrow_constants(&canonicalize(&(k.build)()));
        let mut cells = vec![name.to_string()];
        // So does the cost model: a context, and a freeze, per column.
        for shuffle in [1.0, 2.0, 4.0, 8.0] {
            let cost = CostModel { c_shuffle: shuffle, ..CostModel::default() };
            let ctx = VectorizerCtx::new(&f, &desc, cost);
            let r = select_packs(&ctx, &BeamConfig::with_width(64)).unwrap();
            cells.push(format!("{:.1}", r.vector_cost));
        }
        rows.push(cells);
    }
    print_table(
        "Ablation — Cshuffle (paper: 2.0). Shuffle-hungry kernels opt out as it rises",
        &["kernel", "Cs=1", "Cs=2", "Cs=4", "Cs=8"],
        &rows,
    );

    // --- Beam width sweep -----------------------------------------------
    let mut rows = Vec::new();
    for name in kernels {
        let k = vegen_kernels::find(name).unwrap();
        let f = add_narrow_constants(&canonicalize(&(k.build)()));
        let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());
        // The candidates do not depend on the width: freeze once per kernel.
        let mut reuse = SelectionReuse::new();
        let mut cells = vec![name.to_string()];
        for width in [1usize, 4, 16, 64, 128, 256] {
            let r = select_packs_reusing(&ctx, &BeamConfig::with_width(width), &mut reuse).unwrap();
            cells.push(format!("{:.1}", r.vector_cost));
        }
        rows.push(cells);
    }
    print_table(
        "Ablation — beam width (estimated cost; the paper evaluates 1/64/128)",
        &["kernel", "k=1", "k=4", "k=16", "k=64", "k=128", "k=256"],
        &rows,
    );
}
