//! Complex multiplication (Fig. 15, §7.4) — the motivating SIMOMD
//! application.
//!
//! ```c
//! out_re = a_re*b_re - a_im*b_im;
//! out_im = a_re*b_im + a_im*b_re;
//! ```
//!
//! The even output subtracts, the odd adds: the `vfmaddsub213pd` shape.
//! LLVM's SLP vectorizer refuses this kernel because of its blend-cost
//! overestimate; VeGen vectorizes it (1.27x in the paper).

use vegen_ir::{Function, FunctionBuilder, Type};

/// Build the complex-multiplication kernel over interleaved `f64` pairs.
pub fn build() -> Function {
    let mut b = FunctionBuilder::new("cmul");
    let a = b.param("a", Type::F64, 2);
    let bb = b.param("b", Type::F64, 2);
    let o = b.param("out", Type::F64, 2);
    let ar = b.load(a, 0);
    let ai = b.load(a, 1);
    let br = b.load(bb, 0);
    let bi = b.load(bb, 1);
    // out_re = ar*br - ai*bi
    let m_rr = b.fmul(ar, br);
    let m_ii = b.fmul(ai, bi);
    let re = b.fsub(m_rr, m_ii);
    // out_im = ar*bi + ai*br
    let m_ri = b.fmul(ar, bi);
    let m_ir = b.fmul(ai, br);
    let im = b.fadd(m_ri, m_ir);
    b.store(o, 0, re);
    b.store(o, 1, im);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegen_ir::interp::{run, Memory};
    use vegen_ir::Constant;

    #[test]
    fn multiplies_complex_numbers() {
        // (1 + 2i) * (3 + 4i) = -5 + 10i
        let f = build();
        let mut mem = Memory::zeroed(&f);
        mem.write(0, 0, Constant::f64(1.0)).unwrap();
        mem.write(0, 1, Constant::f64(2.0)).unwrap();
        mem.write(1, 0, Constant::f64(3.0)).unwrap();
        mem.write(1, 1, Constant::f64(4.0)).unwrap();
        run(&f, &mut mem).unwrap();
        assert_eq!(mem.read(2, 0).unwrap().as_f64(), -5.0);
        assert_eq!(mem.read(2, 1).unwrap().as_f64(), 10.0);
    }
}
