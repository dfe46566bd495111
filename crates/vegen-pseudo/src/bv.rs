//! Symbolic bit-vector expressions (the z3 AST stand-in) and concrete
//! big-bit-vector evaluation.
//!
//! A [`Bv`] is a formula over named input registers. Registers can be wide
//! (up to 512 bits: only `Extract`/`Concat` operate at full register
//! width), while arithmetic is restricted to widths of at most 64 bits —
//! matching Intel's documentation language, which always narrows to an
//! element, widens it ("to avoid implicit overflow"), computes, and writes
//! an element-sized result back.

use std::fmt;
use vegen_ir::constant::{mask, sext};
use vegen_ir::CmpPred;

/// Integer binary operators available in formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant and field names are the documentation
pub enum BvBinOp {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
}

impl BvBinOp {
    /// Mnemonic for display.
    pub fn name(self) -> &'static str {
        match self {
            BvBinOp::Add => "bvadd",
            BvBinOp::Sub => "bvsub",
            BvBinOp::Mul => "bvmul",
            BvBinOp::And => "bvand",
            BvBinOp::Or => "bvor",
            BvBinOp::Xor => "bvxor",
            BvBinOp::Shl => "bvshl",
            BvBinOp::LShr => "bvlshr",
            BvBinOp::AShr => "bvashr",
        }
    }
}

/// Floating-point binary operators (width 32 or 64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant and field names are the documentation
pub enum FpBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
}

impl FpBinOp {
    /// Mnemonic for display.
    pub fn name(self) -> &'static str {
        match self {
            FpBinOp::Add => "fpadd",
            FpBinOp::Sub => "fpsub",
            FpBinOp::Mul => "fpmul",
            FpBinOp::Div => "fpdiv",
            FpBinOp::Min => "fpmin",
            FpBinOp::Max => "fpmax",
        }
    }
}

/// A symbolic bit-vector expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant and field names are the documentation
pub enum Bv {
    /// Constant of the given width; `bits` zero-extends past 64.
    Const { width: u32, bits: u64 },
    /// A slice `name[hi:lo]` (inclusive) of an input register.
    Input { name: String, hi: u32, lo: u32 },
    /// Integer binary op; both sides share the result width.
    Bin { op: BvBinOp, lhs: Box<Bv>, rhs: Box<Bv> },
    /// Floating-point binary op (width 32 or 64).
    FBin { op: FpBinOp, lhs: Box<Bv>, rhs: Box<Bv> },
    /// Floating-point negation.
    FNeg(Box<Bv>),
    /// Sign-extension to `width`.
    SExt { width: u32, arg: Box<Bv> },
    /// Zero-extension to `width`.
    ZExt { width: u32, arg: Box<Bv> },
    /// Bit slice `[hi:lo]` (inclusive) of a sub-expression.
    Extract { hi: u32, lo: u32, arg: Box<Bv> },
    /// Concatenation, least-significant part first.
    Concat(Vec<Bv>),
    /// If-then-else; `cond` has width 1.
    Ite { cond: Box<Bv>, on_true: Box<Bv>, on_false: Box<Bv> },
    /// Comparison producing a width-1 value.
    Cmp { pred: CmpPred, lhs: Box<Bv>, rhs: Box<Bv> },
}

impl Bv {
    /// Width of the expression in bits.
    pub fn width(&self) -> u32 {
        match self {
            Bv::Const { width, .. } => *width,
            Bv::Input { hi, lo, .. } => hi - lo + 1,
            Bv::Bin { lhs, .. } => lhs.width(),
            Bv::FBin { lhs, .. } => lhs.width(),
            Bv::FNeg(a) => a.width(),
            Bv::SExt { width, .. } | Bv::ZExt { width, .. } => *width,
            Bv::Extract { hi, lo, .. } => hi - lo + 1,
            Bv::Concat(parts) => parts.iter().map(|p| p.width()).sum(),
            Bv::Ite { on_true, .. } => on_true.width(),
            Bv::Cmp { .. } => 1,
        }
    }

    /// Number of nodes (used to bound simplifier work in tests).
    pub fn size(&self) -> usize {
        1 + match self {
            Bv::Const { .. } | Bv::Input { .. } => 0,
            Bv::Bin { lhs, rhs, .. } | Bv::FBin { lhs, rhs, .. } | Bv::Cmp { lhs, rhs, .. } => {
                lhs.size() + rhs.size()
            }
            Bv::FNeg(a) => a.size(),
            Bv::SExt { arg, .. } | Bv::ZExt { arg, .. } | Bv::Extract { arg, .. } => arg.size(),
            Bv::Concat(parts) => parts.iter().map(|p| p.size()).sum(),
            Bv::Ite { cond, on_true, on_false } => cond.size() + on_true.size() + on_false.size(),
        }
    }
}

impl fmt::Display for Bv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bv::Const { width, bits } => write!(f, "{bits}#{width}"),
            Bv::Input { name, hi, lo } => write!(f, "{name}[{hi}:{lo}]"),
            Bv::Bin { op, lhs, rhs } => write!(f, "({} {lhs} {rhs})", op.name()),
            Bv::FBin { op, lhs, rhs } => write!(f, "({} {lhs} {rhs})", op.name()),
            Bv::FNeg(a) => write!(f, "(fpneg {a})"),
            Bv::SExt { width, arg } => write!(f, "(sext{width} {arg})"),
            Bv::ZExt { width, arg } => write!(f, "(zext{width} {arg})"),
            Bv::Extract { hi, lo, arg } => write!(f, "(extract[{hi}:{lo}] {arg})"),
            Bv::Concat(parts) => {
                write!(f, "(concat")?;
                for p in parts {
                    write!(f, " {p}")?;
                }
                write!(f, ")")
            }
            Bv::Ite { cond, on_true, on_false } => {
                write!(f, "(ite {cond} {on_true} {on_false})")
            }
            Bv::Cmp { pred, lhs, rhs } => write!(f, "(bv{} {lhs} {rhs})", pred.name()),
        }
    }
}

/// Evaluation / construction errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BvError(pub String);

impl fmt::Display for BvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bit-vector error: {}", self.0)
    }
}

impl std::error::Error for BvError {}

/// A concrete bit-vector of up to [`BigBits::MAX_WIDTH`] bits, held inline
/// as LSB-first 64-bit words (no register in the database is wider, so
/// evaluation never touches the heap).
///
/// Bits at and above `width` are always zero, which is what lets equality
/// and hashing be derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BigBits {
    width: u32,
    words: [u64; WORDS],
}

const WORDS: usize = 8;

impl BigBits {
    /// The widest representable value, in bits (one AVX-512 register).
    pub const MAX_WIDTH: u32 = 64 * WORDS as u32;

    /// A zero value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds [`BigBits::MAX_WIDTH`].
    pub fn zero(width: u32) -> BigBits {
        assert!(width <= Self::MAX_WIDTH, "width {width} exceeds {}", Self::MAX_WIDTH);
        BigBits { width, words: [0; WORDS] }
    }

    /// Build from a `u64` (width at most 64); excess bits are masked off.
    pub fn from_u64(width: u32, bits: u64) -> BigBits {
        assert!(width <= 64 && width > 0);
        let mut out = BigBits::zero(width);
        out.words[0] = bits & mask(width);
        out
    }

    /// Width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The value as a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the width exceeds 64.
    pub fn to_u64(&self) -> u64 {
        assert!(self.width <= 64, "to_u64 on width {}", self.width);
        self.words[0]
    }

    /// Read a single bit.
    pub fn bit(&self, i: u32) -> bool {
        assert!(i < self.width);
        self.words[(i / 64) as usize] >> (i % 64) & 1 != 0
    }

    /// Set a single bit (used by builders and tests).
    pub fn set_bit(&mut self, i: u32, v: bool) {
        assert!(i < self.width);
        let w = (i / 64) as usize;
        if v {
            self.words[w] |= 1 << (i % 64);
        } else {
            self.words[w] &= !(1 << (i % 64));
        }
    }

    /// The `bits`-wide field (1 to 64 bits, inside the value) at bit `off`.
    fn field(&self, off: u32, bits: u32) -> u64 {
        let (w, sh) = ((off / 64) as usize, off % 64);
        let mut v = self.words[w] >> sh;
        if sh + bits > 64 {
            v |= self.words[w + 1] << (64 - sh);
        }
        v & mask(bits)
    }

    /// OR the `bits`-wide value `v` (no bits above that) in at bit `off`.
    fn or_field(&mut self, off: u32, bits: u32, v: u64) {
        let (w, sh) = ((off / 64) as usize, off % 64);
        self.words[w] |= v << sh;
        if sh + bits > 64 {
            self.words[w + 1] |= v >> (64 - sh);
        }
    }

    /// Extract bits `[hi:lo]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn extract(&self, hi: u32, lo: u32) -> BigBits {
        assert!(hi >= lo && hi < self.width, "extract [{hi}:{lo}] of width {}", self.width);
        let w = hi - lo + 1;
        let mut out = BigBits::zero(w);
        for (word, off) in out.words.iter_mut().zip((0..w).step_by(64)) {
            *word = self.field(lo + off, (w - off).min(64));
        }
        #[cfg(test)]
        assert_eq!(out, tests::extract_bitwise(self, hi, lo), "extract [{hi}:{lo}] of {self:?}");
        out
    }

    /// Concatenate with `high` above `self` (self stays least significant).
    ///
    /// # Panics
    ///
    /// Panics if the result would exceed [`BigBits::MAX_WIDTH`].
    pub fn concat_above(&self, high: &BigBits) -> BigBits {
        let mut out = *self;
        out.width = self.width + high.width;
        assert!(out.width <= Self::MAX_WIDTH, "concat to width {}", out.width);
        for (&word, off) in high.words.iter().zip((0..high.width).step_by(64)) {
            out.or_field(self.width + off, (high.width - off).min(64), word);
        }
        #[cfg(test)]
        assert_eq!(out, tests::concat_above_bitwise(self, high), "{self:?} below {high:?}");
        out
    }

    /// Build a register image from element values (element 0 least
    /// significant), each `elem_bits` wide.
    ///
    /// # Panics
    ///
    /// Panics if an element exceeds 64 bits or the image exceeds
    /// [`BigBits::MAX_WIDTH`].
    pub fn from_elems(elem_bits: u32, elems: &[u64]) -> BigBits {
        assert!(elem_bits <= 64);
        let width = u64::from(elem_bits) * elems.len() as u64;
        assert!(width <= u64::from(Self::MAX_WIDTH), "register image of {width} bits");
        let mut out = BigBits::zero(width as u32);
        for (i, &e) in elems.iter().enumerate() {
            out.or_field(i as u32 * elem_bits, elem_bits, e & mask(elem_bits));
        }
        #[cfg(test)]
        assert_eq!(out, tests::from_elems_bitwise(elem_bits, elems), "{elem_bits}-bit {elems:?}");
        out
    }

    /// Split into `elem_bits`-wide element values, least significant first.
    ///
    /// # Panics
    ///
    /// Panics if the width is not a multiple of `elem_bits` or an element
    /// exceeds 64 bits.
    pub fn to_elems(&self, elem_bits: u32) -> Vec<u64> {
        assert!(elem_bits <= 64 && self.width.is_multiple_of(elem_bits));
        let out: Vec<u64> =
            (0..self.width / elem_bits).map(|i| self.field(i * elem_bits, elem_bits)).collect();
        #[cfg(test)]
        assert_eq!(out, tests::to_elems_bitwise(self, elem_bits), "{elem_bits}-bit {self:?}");
        out
    }
}

/// Evaluate a formula concretely with inputs bound by name (a register
/// file has at most a handful of inputs, so the binding is a slice).
///
/// This is [`Compiled::new`] followed by one [`Compiled::eval`]; a caller
/// that evaluates one formula many times compiles it once.
///
/// # Errors
///
/// Returns [`BvError`] if a referenced input is missing, widths are
/// inconsistent or outside `1..=`[`BigBits::MAX_WIDTH`], or arithmetic is
/// attempted at width above 64 — anywhere in the formula, including an
/// `Ite` branch the inputs do not select.
pub fn eval_concrete(e: &Bv, env: &[(&str, BigBits)]) -> Result<BigBits, BvError> {
    let inputs: Vec<(&str, u32)> = env.iter().map(|(name, reg)| (*name, reg.width())).collect();
    let regs: Vec<BigBits> = env.iter().map(|(_, reg)| *reg).collect();
    Ok(Compiled::new(e, &inputs)?.eval(&regs))
}

/// One step of a [`Compiled`] program. In the variant docs `n[i]` is
/// narrow (at most 64-bit) slot `i`, `w[i]` wide slot `i` and `reg` an
/// input register; every narrow slot holds its value zero-extended.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `n[dst] = reg[off + bits - 1 : off]`.
    RegField {
        dst: u32,
        reg: u32,
        off: u32,
        bits: u32,
    },
    /// `w[dst] = reg[hi:lo]`.
    RegSlice {
        dst: u32,
        reg: u32,
        hi: u32,
        lo: u32,
    },
    /// `n[dst] = w[src][off + bits - 1 : off]`.
    WideField {
        dst: u32,
        src: u32,
        off: u32,
        bits: u32,
    },
    /// `w[dst] = w[src][hi:lo]`.
    WideSlice {
        dst: u32,
        src: u32,
        hi: u32,
        lo: u32,
    },
    /// `n[dst] = (n[src] >> off) & mask(bits)`.
    Field {
        dst: u32,
        src: u32,
        off: u32,
        bits: u32,
    },
    Bin {
        op: BvBinOp,
        width: u32,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    FBin {
        op: FpBinOp,
        width: u32,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    FNeg {
        width: u32,
        dst: u32,
        arg: u32,
    },
    SExt {
        from: u32,
        to: u32,
        dst: u32,
        arg: u32,
    },
    Cmp {
        pred: CmpPred,
        width: u32,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// `n[dst] = if n[cond] != 0 { n[on_true] } else { n[on_false] }`.
    Select {
        dst: u32,
        cond: u32,
        on_true: u32,
        on_false: u32,
    },
    /// [`Step::Select`] over wide arms.
    WideSelect {
        dst: u32,
        cond: u32,
        on_true: u32,
        on_false: u32,
    },
    /// `n[dst] = n[src]` (the first part of a narrow concat).
    Move {
        dst: u32,
        src: u32,
    },
    /// `n[dst] |= n[src] << shift`.
    OrShl {
        dst: u32,
        src: u32,
        shift: u32,
    },
    /// `w[dst] = 0` at `width` bits (the start of a wide concat).
    WideZero {
        dst: u32,
        width: u32,
    },
    /// `w[dst] |= n[src] << off`, the part being `bits` wide.
    WideOrNarrow {
        dst: u32,
        src: u32,
        off: u32,
        bits: u32,
    },
    /// `w[dst] |= w[src] << off`.
    WideOrWide {
        dst: u32,
        src: u32,
        off: u32,
    },
}

/// A formula compiled for repeated evaluation: a flat post-order program
/// over value slots, inputs resolved to register positions and every
/// width checked once, at compile time. Values of at most 64 bits — all
/// arithmetic — live in `u64` slots; only register-wide extracts, concats
/// and selects use [`BigBits`] slots. Constants are written into their slots
/// when compiling and never overwritten.
///
/// Both arms of an `Ite` are computed and one is selected, so evaluation
/// cannot fail: the formula was checked as a whole.
#[derive(Debug, Clone)]
pub struct Compiled {
    steps: Vec<Step>,
    narrow: Vec<u64>,
    wide: Vec<BigBits>,
    reg_widths: Vec<u32>,
    out: u32,
    width: u32,
}

impl Compiled {
    /// Compile `e` over the input registers `inputs` (`(name, width in
    /// bits)`, in the order [`Compiled::eval`] takes them).
    ///
    /// # Errors
    ///
    /// The [`BvError`]s of [`eval_concrete`], for any node of `e`.
    pub fn new(e: &Bv, inputs: &[(&str, u32)]) -> Result<Compiled, BvError> {
        let mut c = Compiled {
            steps: Vec::new(),
            narrow: Vec::new(),
            wide: Vec::new(),
            reg_widths: inputs.iter().map(|(_, w)| *w).collect(),
            out: 0,
            width: 0,
        };
        let (out, width) = c.node(e, inputs)?;
        (c.out, c.width) = (out, width);
        Ok(c)
    }

    /// Run the program on one register image per compiled input.
    ///
    /// # Panics
    ///
    /// Panics if the registers' count or widths differ from the inputs the
    /// formula was compiled over.
    pub fn eval(&mut self, regs: &[BigBits]) -> BigBits {
        assert!(
            regs.len() == self.reg_widths.len()
                && regs.iter().zip(&self.reg_widths).all(|(r, &w)| r.width() == w),
            "registers do not match the compiled inputs {:?}",
            self.reg_widths
        );
        let Compiled { steps, narrow: n, wide: w, .. } = self;
        for step in steps.iter() {
            match *step {
                Step::RegField { dst, reg, off, bits } => {
                    n[dst as usize] = regs[reg as usize].field(off, bits);
                }
                Step::RegSlice { dst, reg, hi, lo } => {
                    w[dst as usize] = regs[reg as usize].extract(hi, lo);
                }
                Step::WideField { dst, src, off, bits } => {
                    n[dst as usize] = w[src as usize].field(off, bits);
                }
                Step::WideSlice { dst, src, hi, lo } => {
                    w[dst as usize] = w[src as usize].extract(hi, lo);
                }
                Step::Field { dst, src, off, bits } => {
                    n[dst as usize] = n[src as usize] >> off & mask(bits);
                }
                Step::Bin { op, width, dst, lhs, rhs } => {
                    n[dst as usize] = bin(op, width, n[lhs as usize], n[rhs as usize]);
                }
                Step::FBin { op, width, dst, lhs, rhs } => {
                    n[dst as usize] = fbin(op, width, n[lhs as usize], n[rhs as usize]);
                }
                Step::FNeg { width, dst, arg } => {
                    let x = n[arg as usize];
                    n[dst as usize] = if width == 32 {
                        u64::from((-f32::from_bits(x as u32)).to_bits())
                    } else {
                        (-f64::from_bits(x)).to_bits()
                    };
                }
                Step::SExt { from, to, dst, arg } => {
                    n[dst as usize] = sext(n[arg as usize], from) as u64 & mask(to);
                }
                Step::Cmp { pred, width, dst, lhs, rhs } => {
                    n[dst as usize] = u64::from(cmp(pred, width, n[lhs as usize], n[rhs as usize]));
                }
                Step::Select { dst, cond, on_true, on_false } => {
                    let arm = if n[cond as usize] != 0 { on_true } else { on_false };
                    n[dst as usize] = n[arm as usize];
                }
                Step::WideSelect { dst, cond, on_true, on_false } => {
                    let arm = if n[cond as usize] != 0 { on_true } else { on_false };
                    w[dst as usize] = w[arm as usize];
                }
                Step::Move { dst, src } => n[dst as usize] = n[src as usize],
                Step::OrShl { dst, src, shift } => n[dst as usize] |= n[src as usize] << shift,
                Step::WideZero { dst, width } => w[dst as usize] = BigBits::zero(width),
                Step::WideOrNarrow { dst, src, off, bits } => {
                    w[dst as usize].or_field(off, bits, n[src as usize]);
                }
                Step::WideOrWide { dst, src, off } => {
                    let part = w[src as usize];
                    let out = &mut w[dst as usize];
                    for (&word, at) in part.words.iter().zip((0..part.width).step_by(64)) {
                        out.or_field(off + at, (part.width - at).min(64), word);
                    }
                }
            }
        }
        if self.width <= 64 {
            BigBits::from_u64(self.width, self.narrow[self.out as usize])
        } else {
            self.wide[self.out as usize]
        }
    }

    /// A fresh narrow slot holding `v`.
    fn narrow_slot(&mut self, v: u64) -> u32 {
        self.narrow.push(v);
        (self.narrow.len() - 1) as u32
    }

    /// A fresh wide slot holding `v`.
    fn wide_slot(&mut self, v: BigBits) -> u32 {
        self.wide.push(v);
        (self.wide.len() - 1) as u32
    }

    /// A fresh slot for a `width`-bit value.
    fn slot(&mut self, width: u32) -> u32 {
        if width <= 64 {
            self.narrow_slot(0)
        } else {
            self.wide_slot(BigBits::zero(width))
        }
    }

    /// Compile `e` and return its slot and width. Children are compiled
    /// first, in the order (and with the checks) of a left-to-right walk.
    fn node(&mut self, e: &Bv, inputs: &[(&str, u32)]) -> Result<(u32, u32), BvError> {
        Ok(match e {
            Bv::Const { width, bits } => {
                let width = *width;
                if width == 0 || width > BigBits::MAX_WIDTH {
                    return Err(BvError(format!("constant of width {width}")));
                }
                // `bits` zero-extends: a wide constant (the
                // register-zeroing idiom) only ever has its low word set.
                if width <= 64 {
                    (self.narrow_slot(bits & mask(width)), width)
                } else {
                    let mut v = BigBits::zero(width);
                    v.words[0] = *bits;
                    (self.wide_slot(v), width)
                }
            }
            Bv::Input { name, hi, lo } => {
                let (hi, lo) = (*hi, *lo);
                let (reg, &(_, reg_width)) = inputs
                    .iter()
                    .enumerate()
                    .find(|(_, (n, _))| n == name)
                    .ok_or_else(|| BvError(format!("unbound input `{name}`")))?;
                if hi >= reg_width || hi < lo {
                    return Err(BvError(format!(
                        "slice {name}[{hi}:{lo}] out of range for width {reg_width}"
                    )));
                }
                let (width, reg) = (hi - lo + 1, reg as u32);
                let dst = self.slot(width);
                self.steps.push(if width <= 64 {
                    Step::RegField { dst, reg, off: lo, bits: width }
                } else {
                    Step::RegSlice { dst, reg, hi, lo }
                });
                (dst, width)
            }
            Bv::Bin { op, lhs, rhs } => {
                let (a, w) = self.node(lhs, inputs)?;
                let (b, bw) = self.node(rhs, inputs)?;
                if bw != w {
                    return Err(BvError(format!("width mismatch {w} vs {bw}")));
                }
                if w > 64 {
                    return Err(BvError(format!("arithmetic at width {w} > 64")));
                }
                let dst = self.narrow_slot(0);
                self.steps.push(Step::Bin { op: *op, width: w, dst, lhs: a, rhs: b });
                (dst, w)
            }
            Bv::FBin { op, lhs, rhs } => {
                let (a, w) = self.node(lhs, inputs)?;
                let (b, bw) = self.node(rhs, inputs)?;
                if w != bw || (w != 32 && w != 64) {
                    return Err(BvError(format!("fp op at widths {w}/{bw}")));
                }
                let dst = self.narrow_slot(0);
                self.steps.push(Step::FBin { op: *op, width: w, dst, lhs: a, rhs: b });
                (dst, w)
            }
            Bv::FNeg(arg) => {
                let (a, w) = self.node(arg, inputs)?;
                if w != 32 && w != 64 {
                    return Err(BvError(format!("fpneg at width {w}")));
                }
                let dst = self.narrow_slot(0);
                self.steps.push(Step::FNeg { width: w, dst, arg: a });
                (dst, w)
            }
            Bv::SExt { width, arg } | Bv::ZExt { width, arg } => {
                let signed = matches!(e, Bv::SExt { .. });
                let (a, from) = self.node(arg, inputs)?;
                if from > 64 || *width > 64 || *width <= from {
                    return Err(BvError(if signed { "bad sext" } else { "bad zext" }.into()));
                }
                if !signed {
                    // Narrow slots hold their values zero-extended already.
                    return Ok((a, *width));
                }
                let dst = self.narrow_slot(0);
                self.steps.push(Step::SExt { from, to: *width, dst, arg: a });
                (dst, *width)
            }
            Bv::Extract { hi, lo, arg } => {
                let (hi, lo) = (*hi, *lo);
                let (a, w) = self.node(arg, inputs)?;
                if hi >= w || hi < lo {
                    return Err(BvError(format!("extract [{hi}:{lo}] of width {w}")));
                }
                let width = hi - lo + 1;
                let dst = self.slot(width);
                self.steps.push(match (w <= 64, width <= 64) {
                    (true, _) => Step::Field { dst, src: a, off: lo, bits: width },
                    (false, true) => Step::WideField { dst, src: a, off: lo, bits: width },
                    (false, false) => Step::WideSlice { dst, src: a, hi, lo },
                });
                (dst, width)
            }
            Bv::Concat(parts) => {
                if parts.is_empty() {
                    return Err(BvError("empty concat".into()));
                }
                let mut compiled = Vec::with_capacity(parts.len());
                let mut width = 0;
                for p in parts {
                    let (s, w) = self.node(p, inputs)?;
                    if width + w > BigBits::MAX_WIDTH {
                        return Err(BvError(format!(
                            "concat wider than {} bits",
                            BigBits::MAX_WIDTH
                        )));
                    }
                    compiled.push((s, w, width));
                    width += w;
                }
                let dst = self.slot(width);
                if width <= 64 {
                    for &(src, _, off) in &compiled {
                        self.steps.push(if off == 0 {
                            Step::Move { dst, src }
                        } else {
                            Step::OrShl { dst, src, shift: off }
                        });
                    }
                } else {
                    self.steps.push(Step::WideZero { dst, width });
                    for &(src, bits, off) in &compiled {
                        self.steps.push(if bits <= 64 {
                            Step::WideOrNarrow { dst, src, off, bits }
                        } else {
                            Step::WideOrWide { dst, src, off }
                        });
                    }
                }
                (dst, width)
            }
            Bv::Ite { cond, on_true, on_false } => {
                let (c, cw) = self.node(cond, inputs)?;
                if cw != 1 {
                    return Err(BvError("ite condition must have width 1".into()));
                }
                let (t, w) = self.node(on_true, inputs)?;
                let (f, fw) = self.node(on_false, inputs)?;
                if fw != w {
                    return Err(BvError(format!("ite arms of widths {w} and {fw}")));
                }
                let dst = self.slot(w);
                self.steps.push(if w <= 64 {
                    Step::Select { dst, cond: c, on_true: t, on_false: f }
                } else {
                    Step::WideSelect { dst, cond: c, on_true: t, on_false: f }
                });
                (dst, w)
            }
            Bv::Cmp { pred, lhs, rhs } => {
                let (a, w) = self.node(lhs, inputs)?;
                let (b, bw) = self.node(rhs, inputs)?;
                if w != bw || w > 64 {
                    return Err(BvError("bad cmp widths".into()));
                }
                let dst = self.narrow_slot(0);
                self.steps.push(Step::Cmp { pred: *pred, width: w, dst, lhs: a, rhs: b });
                (dst, 1)
            }
        })
    }
}

/// An integer operator on `width`-bit operands (zero-extended in `x`,
/// `y`); the result is masked to `width`.
fn bin(op: BvBinOp, width: u32, x: u64, y: u64) -> u64 {
    let out_of_range = y >= u64::from(width);
    let r = match op {
        BvBinOp::Add => x.wrapping_add(y),
        BvBinOp::Sub => x.wrapping_sub(y),
        BvBinOp::Mul => x.wrapping_mul(y),
        BvBinOp::And => x & y,
        BvBinOp::Or => x | y,
        BvBinOp::Xor => x ^ y,
        BvBinOp::Shl if out_of_range => 0,
        BvBinOp::Shl => x << y,
        BvBinOp::LShr if out_of_range => 0,
        BvBinOp::LShr => x >> y,
        BvBinOp::AShr => {
            let sx = sext(x, width);
            if out_of_range {
                if sx < 0 {
                    u64::MAX
                } else {
                    0
                }
            } else {
                (sx >> y) as u64
            }
        }
    };
    r & mask(width)
}

/// A floating-point operator on two `width`-bit (32 or 64) operands.
fn fbin(op: FpBinOp, width: u32, x: u64, y: u64) -> u64 {
    let compute = |x: f64, y: f64| -> f64 {
        match op {
            FpBinOp::Add => x + y,
            FpBinOp::Sub => x - y,
            FpBinOp::Mul => x * y,
            FpBinOp::Div => x / y,
            // IEEE-style: min/max as the comparison-select form used by
            // the x86 MINPD/MAXPD family (second operand returned on
            // ties/NaN is not modelled; `validate::draw_elem` only draws
            // finite floats, so validation never asks).
            FpBinOp::Min => {
                if x < y {
                    x
                } else {
                    y
                }
            }
            FpBinOp::Max => {
                if x > y {
                    x
                } else {
                    y
                }
            }
        }
    };
    if width == 32 {
        let r = compute(f32::from_bits(x as u32) as f64, f32::from_bits(y as u32) as f64) as f32;
        u64::from(r.to_bits())
    } else {
        compute(f64::from_bits(x), f64::from_bits(y)).to_bits()
    }
}

/// A comparison of two `width`-bit operands.
fn cmp(pred: CmpPred, width: u32, x: u64, y: u64) -> bool {
    use CmpPred::*;
    if pred.is_float() {
        let (fx, fy) = if width == 32 {
            (f32::from_bits(x as u32) as f64, f32::from_bits(y as u32) as f64)
        } else {
            (f64::from_bits(x), f64::from_bits(y))
        };
        match pred {
            Feq => fx == fy,
            Fne => fx != fy,
            Flt => fx < fy,
            Fle => fx <= fy,
            Fgt => fx > fy,
            Fge => fx >= fy,
            _ => unreachable!(),
        }
    } else {
        let (sx, sy) = (sext(x, width), sext(y, width));
        match pred {
            Eq => x == y,
            Ne => x != y,
            Slt => sx < sy,
            Sle => sx <= sy,
            Sgt => sx > sy,
            Sge => sx >= sy,
            Ult => x < y,
            Ule => x <= y,
            Ugt => x > y,
            Uge => x >= y,
            _ => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegen_ir::rng::XorShift;

    // The bit-at-a-time kernel the word-level one replaced, kept as the
    // reference every `extract` / `concat_above` / `from_elems` /
    // `to_elems` call is compared against in this crate's unit tests.

    pub(super) fn extract_bitwise(v: &BigBits, hi: u32, lo: u32) -> BigBits {
        let mut out = BigBits::zero(hi - lo + 1);
        for i in 0..=hi - lo {
            out.set_bit(i, v.bit(lo + i));
        }
        out
    }

    pub(super) fn concat_above_bitwise(low: &BigBits, high: &BigBits) -> BigBits {
        let mut out = BigBits::zero(low.width + high.width);
        for i in 0..low.width {
            out.set_bit(i, low.bit(i));
        }
        for i in 0..high.width {
            out.set_bit(low.width + i, high.bit(i));
        }
        out
    }

    pub(super) fn from_elems_bitwise(elem_bits: u32, elems: &[u64]) -> BigBits {
        let mut out = BigBits::zero(elem_bits * elems.len() as u32);
        for (i, &e) in elems.iter().enumerate() {
            for b in 0..elem_bits {
                out.set_bit(i as u32 * elem_bits + b, (e >> b) & 1 != 0);
            }
        }
        out
    }

    pub(super) fn to_elems_bitwise(v: &BigBits, elem_bits: u32) -> Vec<u64> {
        (0..v.width / elem_bits)
            .map(|i| {
                (0..elem_bits).fold(0, |acc, b| acc | u64::from(v.bit(i * elem_bits + b)) << b)
            })
            .collect()
    }

    fn random_bits(r: &mut XorShift, width: u32) -> BigBits {
        let mut v = BigBits::zero(width);
        for i in 0..width {
            v.set_bit(i, r.bool());
        }
        v
    }

    /// Word-level kernel against the bit-at-a-time oracle. The product
    /// functions assert the comparison themselves under `cfg(test)`; this
    /// test's job is to drive them across every width and word boundary.
    #[test]
    fn word_level_kernel_matches_bitwise_oracle() {
        const SEED: u64 = 0xB175_0024;
        let mut r = XorShift::new(SEED);
        for width in 1..=BigBits::MAX_WIDTH {
            let v = random_bits(&mut r, width);
            // Ranges that start, end on or straddle each word boundary,
            // plus the 1-bit and full-width edges and a few random ones.
            let mut ranges = vec![(width - 1, 0), (0, 0), (width - 1, width - 1)];
            for b in (64..width).step_by(64) {
                ranges.extend([(b, b), (b - 1, b - 1), (b, b - 1), (width - 1, b), (b - 1, 0)]);
                ranges.push(((b + 63).min(width - 1), b));
                ranges.push(((b + 70).min(width - 1), b - 7));
            }
            for _ in 0..4 {
                let lo = r.below(width as usize) as u32;
                ranges.push((lo + r.below((width - lo) as usize) as u32, lo));
            }
            for (hi, lo) in ranges {
                assert_eq!(
                    v.extract(hi, lo),
                    extract_bitwise(&v, hi, lo),
                    "seed {SEED:#x}: extract [{hi}:{lo}] of width {width}"
                );
            }
            // Concat at several splits of this width: offsets off the word
            // grid are the common case, multiples of 64 the edge.
            for low_w in [0, 1, width / 2, width - 1, width, r.below(width as usize + 1) as u32] {
                let (low, high) = (random_bits(&mut r, low_w), random_bits(&mut r, width - low_w));
                assert_eq!(
                    low.concat_above(&high),
                    concat_above_bitwise(&low, &high),
                    "seed {SEED:#x}: concat {low_w} below {}",
                    width - low_w
                );
            }
        }
        for elem_bits in [1, 8, 16, 32, 64, 24] {
            for lanes in [1, 2, 3, 7, BigBits::MAX_WIDTH / elem_bits] {
                let lanes = lanes.min(BigBits::MAX_WIDTH / elem_bits);
                // Unmasked draws: `from_elems` must drop the excess bits.
                let elems: Vec<u64> = (0..lanes).map(|_| r.next_u64()).collect();
                let v = BigBits::from_elems(elem_bits, &elems);
                let what = format!("seed {SEED:#x}: {lanes} x {elem_bits} bits");
                assert_eq!(v, from_elems_bitwise(elem_bits, &elems), "{what}: from_elems");
                assert_eq!(
                    v.to_elems(elem_bits),
                    to_elems_bitwise(&v, elem_bits),
                    "{what}: to_elems"
                );
                let masked: Vec<u64> = elems.iter().map(|e| e & mask(elem_bits)).collect();
                assert_eq!(v.to_elems(elem_bits), masked, "{what}: round trip");
            }
        }
    }

    #[test]
    fn wide_and_empty_constants_are_typed() {
        // The register-zeroing idiom: a constant wider than a word.
        let z = eval_concrete(&Bv::Const { width: 128, bits: 5 }, &[]).unwrap();
        assert_eq!(z.width(), 128);
        assert_eq!(z.to_elems(64), vec![5, 0]);
        let full = eval_concrete(&Bv::Const { width: 512, bits: u64::MAX }, &[]).unwrap();
        assert_eq!(full.to_elems(64), vec![u64::MAX, 0, 0, 0, 0, 0, 0, 0]);
        assert!(eval_concrete(&Bv::Const { width: 0, bits: 0 }, &[]).is_err());
        assert!(eval_concrete(&Bv::Const { width: 513, bits: 0 }, &[]).is_err());
        let too_wide = Bv::Concat(vec![Bv::Const { width: 512, bits: 0 }; 2]);
        assert!(eval_concrete(&too_wide, &[]).is_err());
    }

    #[test]
    fn compiling_checks_both_ite_arms() {
        let c = |width, bits| Box::new(Bv::Const { width, bits });
        // A malformed arm is an error even where the condition never
        // selects it: the program computes both arms.
        let bad = Bv::Bin { op: BvBinOp::Add, lhs: c(8, 1), rhs: c(16, 1) };
        let e = Bv::Ite { cond: c(1, 1), on_true: c(8, 3), on_false: Box::new(bad) };
        assert_eq!(eval_concrete(&e, &[]), Err(BvError("width mismatch 8 vs 16".into())));
        let e = Bv::Ite { cond: c(1, 0), on_true: c(8, 3), on_false: c(16, 3) };
        assert_eq!(eval_concrete(&e, &[]), Err(BvError("ite arms of widths 8 and 16".into())));
        let e = Bv::Ite { cond: c(1, 0), on_true: c(8, 3), on_false: c(8, 5) };
        assert_eq!(eval_concrete(&e, &[]).unwrap().to_u64(), 5);
    }

    #[test]
    fn compiled_inputs_resolve_by_name_and_width() {
        let e = Bv::Input { name: "b".into(), hi: 71, lo: 60 };
        let unbound = Compiled::new(&e, &[("a", 128)]).unwrap_err();
        assert_eq!(unbound, BvError("unbound input `b`".into()));
        let narrow = Compiled::new(&e, &[("a", 128), ("b", 64)]).unwrap_err();
        assert!(narrow.0.contains("out of range for width 64"), "{narrow}");
        // A field straddling a word boundary of the second register.
        let mut p = Compiled::new(&e, &[("a", 128), ("b", 128)]).unwrap();
        let b = BigBits::from_elems(64, &[0xabc0_0000_0000_0000, 0xde]);
        assert_eq!(p.eval(&[BigBits::zero(128), b]).to_u64(), 0xdea);
    }

    #[test]
    #[should_panic(expected = "registers do not match")]
    fn compiled_programs_reject_registers_of_other_widths() {
        let e = Bv::Input { name: "a".into(), hi: 7, lo: 0 };
        Compiled::new(&e, &[("a", 64)]).unwrap().eval(&[BigBits::zero(32)]);
    }

    #[test]
    fn bigbits_roundtrip() {
        let v = BigBits::from_elems(16, &[1, 2, 3, 4]);
        assert_eq!(v.width(), 64);
        assert_eq!(v.to_elems(16), vec![1, 2, 3, 4]);
    }

    #[test]
    fn bigbits_wide_extract() {
        let v = BigBits::from_elems(32, &[0xdead_beef, 0x1234_5678, 0, 0xffff_ffff]);
        assert_eq!(v.width(), 128);
        assert_eq!(v.extract(31, 0).to_u64(), 0xdead_beef);
        assert_eq!(v.extract(63, 32).to_u64(), 0x1234_5678);
        assert_eq!(v.extract(127, 96).to_u64(), 0xffff_ffff);
        assert_eq!(v.extract(39, 24).to_u64(), 0x78de);
    }

    #[test]
    fn concat_order_is_lsb_first() {
        let lo = BigBits::from_u64(8, 0xaa);
        let hi = BigBits::from_u64(8, 0xbb);
        let v = lo.concat_above(&hi);
        assert_eq!(v.to_u64(), 0xbbaa);
    }

    #[test]
    fn eval_add_wraps() {
        let e = Bv::Bin {
            op: BvBinOp::Add,
            lhs: Box::new(Bv::Const { width: 8, bits: 0xff }),
            rhs: Box::new(Bv::Const { width: 8, bits: 2 }),
        };
        let v = eval_concrete(&e, &[]).unwrap();
        assert_eq!(v.to_u64(), 1);
    }

    #[test]
    fn eval_input_slice() {
        let e = Bv::Input { name: "a".into(), hi: 15, lo: 8 };
        let v = eval_concrete(&e, &[("a", BigBits::from_u64(16, 0xab12))]).unwrap();
        assert_eq!(v.to_u64(), 0xab);
    }

    #[test]
    fn eval_sext_and_mul() {
        // SignExtend32(a[15:0]) * SignExtend32(b...) with a = -3
        let a =
            Bv::SExt { width: 32, arg: Box::new(Bv::Input { name: "a".into(), hi: 15, lo: 0 }) };
        let e = Bv::Bin {
            op: BvBinOp::Mul,
            lhs: Box::new(a),
            rhs: Box::new(Bv::Const { width: 32, bits: 100 }),
        };
        let v =
            eval_concrete(&e, &[("a", BigBits::from_u64(16, (-3i64 as u64) & 0xffff))]).unwrap();
        assert_eq!(sext(v.to_u64(), 32), -300);
    }

    #[test]
    fn eval_fp() {
        let e = Bv::FBin {
            op: FpBinOp::Mul,
            lhs: Box::new(Bv::Const { width: 64, bits: 2.5f64.to_bits() }),
            rhs: Box::new(Bv::Const { width: 64, bits: 4.0f64.to_bits() }),
        };
        let v = eval_concrete(&e, &[]).unwrap();
        assert_eq!(f64::from_bits(v.to_u64()), 10.0);
    }

    #[test]
    fn eval_ite_and_cmp() {
        let cmp = Bv::Cmp {
            pred: CmpPred::Sgt,
            lhs: Box::new(Bv::Const { width: 16, bits: (-5i64 as u64) & 0xffff }),
            rhs: Box::new(Bv::Const { width: 16, bits: 3 }),
        };
        let e = Bv::Ite {
            cond: Box::new(cmp),
            on_true: Box::new(Bv::Const { width: 8, bits: 1 }),
            on_false: Box::new(Bv::Const { width: 8, bits: 0 }),
        };
        assert_eq!(eval_concrete(&e, &[]).unwrap().to_u64(), 0);
    }

    #[test]
    fn arithmetic_above_64_bits_is_rejected() {
        let wide =
            Bv::Concat(vec![Bv::Const { width: 64, bits: 1 }, Bv::Const { width: 64, bits: 2 }]);
        let e = Bv::Bin { op: BvBinOp::Add, lhs: Box::new(wide.clone()), rhs: Box::new(wide) };
        assert!(eval_concrete(&e, &[]).is_err());
    }

    #[test]
    fn width_computation() {
        let e = Bv::Concat(vec![
            Bv::Const { width: 16, bits: 0 },
            Bv::Const { width: 16, bits: 0 },
            Bv::Const { width: 32, bits: 0 },
        ]);
        assert_eq!(e.width(), 64);
        let x = Bv::Extract { hi: 31, lo: 16, arg: Box::new(e) };
        assert_eq!(x.width(), 16);
        let c = Bv::Cmp {
            pred: CmpPred::Eq,
            lhs: Box::new(Bv::Const { width: 8, bits: 0 }),
            rhs: Box::new(Bv::Const { width: 8, bits: 0 }),
        };
        assert_eq!(c.width(), 1);
    }

    #[test]
    fn display_is_sexpr() {
        let e = Bv::Bin {
            op: BvBinOp::Add,
            lhs: Box::new(Bv::Input { name: "a".into(), hi: 7, lo: 0 }),
            rhs: Box::new(Bv::Const { width: 8, bits: 1 }),
        };
        assert_eq!(e.to_string(), "(bvadd a[7:0] 1#8)");
    }
}
