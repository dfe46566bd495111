//! The TVM 2D-convolution micro-kernel of Fig. 2:
//! `dot_16x1x16_uint8_int8_int32`.
//!
//! ```c
//! void dot_16x1x16_uint8_int8_int32(
//!     uint8_t data[restrict 4],
//!     int8_t kernel[restrict 16][4],
//!     int32_t output[restrict 16]) {
//!   for (int i = 0; i < 16; i++)
//!     for (int k = 0; k < 4; k++)
//!       output[i] += data[k] * kernel[i][k];
//! }
//! ```
//!
//! Unsigned data bytes against signed kernel bytes, accumulated into 16
//! `i32` outputs: on AVX512-VNNI this is one `vpdpbusd` (plus the
//! broadcast of `data`) — the code in Fig. 2(e).

use vegen_ir::{Function, FunctionBuilder, Type, ValueId};

/// Build the kernel (loops fully unrolled, as `clang -O3` does).
pub fn build() -> Function {
    let mut b = FunctionBuilder::new("dot_16x1x16_uint8_int8_int32");
    let data = b.param("data", Type::I8, 4);
    let kern = b.param("kernel", Type::I8, 64); // [16][4] flattened
    let out = b.param("output", Type::I32, 16);
    // Load data once (the compiler hoists the invariant loads).
    let data_w: Vec<ValueId> = (0..4)
        .map(|k| {
            let v = b.load(data, k);
            b.zext(v, Type::I32) // uint8_t data
        })
        .collect();
    for i in 0..16i64 {
        let mut acc = b.load(out, i);
        for k in 0..4i64 {
            let kv = b.load(kern, i * 4 + k);
            let kw = b.sext(kv, Type::I32); // int8_t kernel
            let m = b.mul(data_w[k as usize], kw);
            acc = b.add(acc, m);
        }
        b.store(out, i, acc);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegen_ir::interp::{run, Memory};
    use vegen_ir::Constant;

    #[test]
    fn accumulates_unsigned_times_signed() {
        let f = build();
        let mut mem = Memory::zeroed(&f);
        // data = [200, 1, 2, 3] (200 is unsigned).
        for (k, v) in [200i64, 1, 2, 3].into_iter().enumerate() {
            mem.write(0, k as i64, Constant::int(Type::I8, v)).unwrap();
        }
        // kernel row 0 = [-1, 10, 20, 30]; row 5 = [1, 1, 1, 1].
        for (k, v) in [-1i64, 10, 20, 30].into_iter().enumerate() {
            mem.write(1, k as i64, Constant::int(Type::I8, v)).unwrap();
        }
        for k in 0..4 {
            mem.write(1, 5 * 4 + k, Constant::int(Type::I8, 1)).unwrap();
        }
        // output starts at 7 everywhere (+= semantics).
        for i in 0..16 {
            mem.write(2, i, Constant::int(Type::I32, 7)).unwrap();
        }
        run(&f, &mut mem).unwrap();
        assert_eq!(mem.read(2, 0).unwrap().as_i64(), 7 + (-200 + 10 + 40 + 90));
        assert_eq!(mem.read(2, 5).unwrap().as_i64(), 7 + (200 + 1 + 2 + 3));
        assert_eq!(mem.read(2, 9).unwrap().as_i64(), 7, "untouched kernel rows are zero");
    }
}
