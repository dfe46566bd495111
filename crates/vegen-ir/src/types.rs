//! Scalar types.

use std::fmt;

/// A scalar IR type.
///
/// Mirrors the LLVM scalar types the paper's patterns range over: the fixed
/// integer widths used by x86 vector lanes plus the two IEEE float widths.
/// `I1` is the result type of comparisons, `Void` the "type" of stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// 1-bit boolean (comparison results).
    I1,
    /// 8-bit integer.
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// IEEE-754 single precision.
    F32,
    /// IEEE-754 double precision.
    F64,
    /// No value (stores).
    Void,
}

impl Type {
    /// Every type, in declaration order.
    pub const ALL: [Type; 8] =
        [Type::I1, Type::I8, Type::I16, Type::I32, Type::I64, Type::F32, Type::F64, Type::Void];

    /// The name the printer and every text format spell this type with.
    pub fn name(self) -> &'static str {
        match self {
            Type::I1 => "i1",
            Type::I8 => "i8",
            Type::I16 => "i16",
            Type::I32 => "i32",
            Type::I64 => "i64",
            Type::F32 => "f32",
            Type::F64 => "f64",
            Type::Void => "void",
        }
    }

    /// The type [`Type::name`] spells `name` (`void` included: a reader
    /// that must not accept it filters it out).
    pub fn from_name(name: &str) -> Option<Type> {
        Some(match name {
            "i1" => Type::I1,
            "i8" => Type::I8,
            "i16" => Type::I16,
            "i32" => Type::I32,
            "i64" => Type::I64,
            "f32" => Type::F32,
            "f64" => Type::F64,
            "void" => Type::Void,
            _ => return None,
        })
    }

    /// Bit width of the type. `Void` has width 0.
    ///
    /// ```
    /// use vegen_ir::Type;
    /// assert_eq!(Type::I16.bits(), 16);
    /// assert_eq!(Type::F64.bits(), 64);
    /// ```
    pub fn bits(self) -> u32 {
        match self {
            Type::I1 => 1,
            Type::I8 => 8,
            Type::I16 => 16,
            Type::I32 => 32,
            Type::I64 => 64,
            Type::F32 => 32,
            Type::F64 => 64,
            Type::Void => 0,
        }
    }

    /// True for the integer types (including `I1`).
    pub fn is_int(self) -> bool {
        matches!(self, Type::I1 | Type::I8 | Type::I16 | Type::I32 | Type::I64)
    }

    /// True for `F32` / `F64`.
    pub fn is_float(self) -> bool {
        matches!(self, Type::F32 | Type::F64)
    }

    /// The integer type of exactly `bits` width, if one exists.
    ///
    /// ```
    /// use vegen_ir::Type;
    /// assert_eq!(Type::int_with_bits(32), Some(Type::I32));
    /// assert_eq!(Type::int_with_bits(24), None);
    /// ```
    pub fn int_with_bits(bits: u32) -> Option<Type> {
        match bits {
            1 => Some(Type::I1),
            8 => Some(Type::I8),
            16 => Some(Type::I16),
            32 => Some(Type::I32),
            64 => Some(Type::I64),
            _ => None,
        }
    }

    /// The float type of exactly `bits` width, if one exists.
    pub fn float_with_bits(bits: u32) -> Option<Type> {
        match bits {
            32 => Some(Type::F32),
            64 => Some(Type::F64),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(Type::I1.bits(), 1);
        assert_eq!(Type::I8.bits(), 8);
        assert_eq!(Type::I16.bits(), 16);
        assert_eq!(Type::I32.bits(), 32);
        assert_eq!(Type::I64.bits(), 64);
        assert_eq!(Type::F32.bits(), 32);
        assert_eq!(Type::F64.bits(), 64);
        assert_eq!(Type::Void.bits(), 0);
    }

    #[test]
    fn classification() {
        assert!(Type::I8.is_int());
        assert!(Type::I1.is_int());
        assert!(!Type::F32.is_int());
        assert!(Type::F32.is_float());
        assert!(!Type::Void.is_float());
        assert!(!Type::Void.is_int());
    }

    #[test]
    fn lookup_by_width() {
        for t in [Type::I8, Type::I16, Type::I32, Type::I64] {
            assert_eq!(Type::int_with_bits(t.bits()), Some(t));
        }
        for t in [Type::F32, Type::F64] {
            assert_eq!(Type::float_with_bits(t.bits()), Some(t));
        }
        assert_eq!(Type::int_with_bits(128), None);
        assert_eq!(Type::float_with_bits(16), None);
    }

    #[test]
    fn display() {
        assert_eq!(Type::I32.to_string(), "i32");
        assert_eq!(Type::F64.to_string(), "f64");
        assert_eq!(Type::Void.to_string(), "void");
    }
}
