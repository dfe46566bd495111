//! Textual VIDL parser.
//!
//! The concrete syntax mirrors Fig. 5. An instruction declares its input
//! register shapes, its output element type, one result entry per output
//! lane, and the operations it references:
//!
//! ```text
//! inst pmaddwd (a: 4 x i16, b: 4 x i16) -> i32 [
//!   madd(a[0], b[0], a[1], b[1]),
//!   madd(a[2], b[2], a[3], b[3])
//! ] where
//! op madd (x1: i16, x2: i16, x3: i16, x4: i16) -> i32 =
//!   add(mul(sext_i32(x1), sext_i32(x2)), mul(sext_i32(x3), sext_i32(x4)))
//! ```
//!
//! Expression calls use the IR mnemonics (`add`, `fmul`, `ashr`, ...);
//! casts carry their destination type (`sext_i32`, `trunc_i8`, ...);
//! comparisons carry their predicate (`cmp_slt`, `cmp_fge`, ...); integer
//! literals are written `5:i16`, floats `1.5:f64`.

use crate::ast::{Expr, InstSemantics, LaneBinding, LaneRef, Operation, VecShape};
use crate::check::{check_inst_all, SourceMap};
use std::error::Error;
use std::fmt;
use vegen_ir::{BinOp, CastOp, CmpPred, Constant, Type};

/// A parse failure with a byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input.
    pub at: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VIDL parse error at byte {}: {}", self.at, self.message)
    }
}

impl Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Arrow,
    Equals,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer { src: src.as_bytes(), pos: 0 }
    }

    fn tokens(mut self) -> Result<Vec<(usize, Tok)>, ParseError> {
        let mut out = Vec::new();
        while self.pos < self.src.len() {
            let c = self.src[self.pos];
            let start = self.pos;
            match c {
                b' ' | b'\t' | b'\n' | b'\r' => {
                    self.pos += 1;
                }
                b'#' => {
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                b'(' => {
                    out.push((start, Tok::LParen));
                    self.pos += 1;
                }
                b')' => {
                    out.push((start, Tok::RParen));
                    self.pos += 1;
                }
                b'[' => {
                    out.push((start, Tok::LBracket));
                    self.pos += 1;
                }
                b']' => {
                    out.push((start, Tok::RBracket));
                    self.pos += 1;
                }
                b',' => {
                    out.push((start, Tok::Comma));
                    self.pos += 1;
                }
                b':' => {
                    out.push((start, Tok::Colon));
                    self.pos += 1;
                }
                b'=' => {
                    out.push((start, Tok::Equals));
                    self.pos += 1;
                }
                b'-' => {
                    if self.src.get(self.pos + 1) == Some(&b'>') {
                        out.push((start, Tok::Arrow));
                        self.pos += 2;
                    } else {
                        // Negative literal.
                        self.pos += 1;
                        let (tok, _) = self.number(start, true)?;
                        out.push((start, tok));
                    }
                }
                b'0'..=b'9' => {
                    let (tok, _) = self.number(start, false)?;
                    out.push((start, tok));
                }
                c if c.is_ascii_alphabetic() || c == b'_' => {
                    // `.` continues an identifier (it cannot start one, so
                    // float literals are unaffected): intrinsic-style names
                    // like `llvm.smax.v8i16` come through the baseline
                    // builder and must round-trip through the printer.
                    let mut end = self.pos;
                    while end < self.src.len()
                        && (self.src[end].is_ascii_alphanumeric()
                            || self.src[end] == b'_'
                            || self.src[end] == b'.')
                    {
                        end += 1;
                    }
                    // The span is all ASCII by construction, but a typed
                    // error beats a panic if that invariant ever breaks.
                    let word = match std::str::from_utf8(&self.src[self.pos..end]) {
                        Ok(w) => w.to_string(),
                        Err(_) => {
                            return Err(ParseError {
                                at: start,
                                message: "invalid UTF-8 in identifier".into(),
                            })
                        }
                    };
                    self.pos = end;
                    out.push((start, Tok::Ident(word)));
                }
                other => {
                    return Err(ParseError {
                        at: start,
                        message: format!("unexpected character {:?}", other as char),
                    })
                }
            }
        }
        Ok(out)
    }

    fn number(&mut self, start: usize, neg: bool) -> Result<(Tok, usize), ParseError> {
        let begin = self.pos;
        let mut is_float = false;
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'0'..=b'9' => self.pos += 1,
                b'.' if !is_float
                    && self.src.get(self.pos + 1).is_some_and(|c| c.is_ascii_digit()) =>
                {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.src[begin..self.pos])
            .map_err(|_| ParseError { at: start, message: "invalid UTF-8 in number".into() })?;
        let sign = if neg { -1.0 } else { 1.0 };
        if is_float {
            let v: f64 = text
                .parse()
                .map_err(|_| ParseError { at: start, message: "bad float literal".into() })?;
            Ok((Tok::Float(sign * v), self.pos))
        } else {
            let v: i64 = text
                .parse()
                .map_err(|_| ParseError { at: start, message: "bad integer literal".into() })?;
            Ok((Tok::Int(if neg { -v } else { v }), self.pos))
        }
    }
}

struct Parser {
    toks: Vec<(usize, Tok)>,
    idx: usize,
    /// Length of the source: the position of the end of input.
    end: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Parser, ParseError> {
        Ok(Parser { toks: Lexer::new(src).tokens()?, idx: 0, end: src.len() })
    }

    /// An error at the token about to be consumed.
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { at: self.pos(), message: message.into() })
    }

    /// Byte position of the token about to be consumed (the source length
    /// at end of input).
    fn pos(&self) -> usize {
        self.toks.get(self.idx).map_or(self.end, |t| t.0)
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.idx).map(|t| &t.1)
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        let t = self.toks.get(self.idx).cloned();
        match t {
            Some((_, tok)) => {
                self.idx += 1;
                Ok(tok)
            }
            None => self.err("unexpected end of input"),
        }
    }

    fn expect(&mut self, want: Tok) -> Result<(), ParseError> {
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            self.idx -= 1;
            self.err(format!("expected {want:?}, found {got:?}"))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => {
                self.idx -= 1;
                self.err(format!("expected identifier, found {other:?}"))
            }
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        let s = self.ident()?;
        if s == kw {
            Ok(())
        } else {
            self.idx -= 1;
            self.err(format!("expected keyword `{kw}`, found `{s}`"))
        }
    }

    fn int(&mut self) -> Result<i64, ParseError> {
        match self.next()? {
            Tok::Int(v) => Ok(v),
            other => {
                self.idx -= 1;
                self.err(format!("expected integer, found {other:?}"))
            }
        }
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        let s = self.ident()?;
        parse_type(&s).ok_or_else(|| ParseError {
            at: self.toks[self.idx - 1].0,
            message: format!("unknown type `{s}`"),
        })
    }
}

/// VIDL has no `void`: a lane is always a value.
fn parse_type(s: &str) -> Option<Type> {
    Type::from_name(s).filter(|ty| *ty != Type::Void)
}

/// `sext_i32` -> (SExt, I32), etc.
fn parse_cast_name(s: &str) -> Option<(CastOp, Type)> {
    let (op_name, ty_name) = s.split_once('_')?;
    Some((CastOp::from_name(op_name)?, parse_type(ty_name)?))
}

impl Parser {
    /// expr := call | param-name | literal
    fn expr(&mut self, params: &[(String, Type)]) -> Result<Expr, ParseError> {
        match self.next()? {
            Tok::Int(v) => {
                self.expect(Tok::Colon)?;
                let ty = self.ty()?;
                if !ty.is_int() {
                    return self.err("integer literal with non-integer type");
                }
                Ok(Expr::Const(Constant::int(ty, v)))
            }
            Tok::Float(v) => {
                self.expect(Tok::Colon)?;
                let ty = self.ty()?;
                Ok(Expr::Const(match ty {
                    Type::F32 => Constant::f32(v as f32),
                    Type::F64 => Constant::f64(v),
                    _ => return self.err("float literal with non-float type"),
                }))
            }
            Tok::Ident(name) => {
                if self.peek() == Some(&Tok::LParen) {
                    self.call(&name, self.toks[self.idx - 1].0, params)
                } else if let Some(i) = params.iter().position(|(n, _)| *n == name) {
                    Ok(Expr::Param(i))
                } else {
                    self.idx -= 1;
                    self.err(format!("unknown parameter `{name}`"))
                }
            }
            other => {
                self.idx -= 1;
                self.err(format!("expected expression, found {other:?}"))
            }
        }
    }

    /// The call of `name`, spelled at byte `at`; its errors point there.
    fn call(
        &mut self,
        name: &str,
        at: usize,
        params: &[(String, Type)],
    ) -> Result<Expr, ParseError> {
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                args.push(self.expr(params)?);
                if self.peek() == Some(&Tok::Comma) {
                    self.next()?;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        if let Some(op) = BinOp::from_name(name) {
            let [lhs, rhs] = Parser::args_n(name, at, args)?;
            return Ok(Expr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) });
        }
        if let Some((op, to)) = parse_cast_name(name) {
            let [arg] = Parser::args_n(name, at, args)?;
            return Ok(Expr::Cast { op, to, arg: Box::new(arg) });
        }
        if let Some(pred_name) = name.strip_prefix("cmp_") {
            if let Some(pred) = CmpPred::from_name(pred_name) {
                let [lhs, rhs] = Parser::args_n(name, at, args)?;
                return Ok(Expr::Cmp { pred, lhs: Box::new(lhs), rhs: Box::new(rhs) });
            }
        }
        match name {
            "select" => {
                let [cond, on_true, on_false] = Parser::args_n(name, at, args)?;
                Ok(Expr::Select {
                    cond: Box::new(cond),
                    on_true: Box::new(on_true),
                    on_false: Box::new(on_false),
                })
            }
            "fneg" => {
                let [arg] = Parser::args_n(name, at, args)?;
                Ok(Expr::FNeg(Box::new(arg)))
            }
            _ => Err(ParseError { at, message: format!("unknown function `{name}`") }),
        }
    }

    /// Enforce the arity of the call of `name` at byte `at` and move its
    /// arguments into a fixed-size array — the typed replacement for
    /// `arity(n)` checks followed by panicking `it.next().unwrap()`
    /// destructuring.
    fn args_n<const N: usize>(
        name: &str,
        at: usize,
        args: Vec<Expr>,
    ) -> Result<[Expr; N], ParseError> {
        let got = args.len();
        <[Expr; N]>::try_from(args).map_err(|_| ParseError {
            at,
            message: format!("`{name}` takes {N} arguments, got {got}"),
        })
    }

    /// op NAME ( name: ty, ... ) -> ty = expr
    fn operation(&mut self) -> Result<Operation, ParseError> {
        self.keyword("op")?;
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params: Vec<(String, Type)> = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                let pname = self.ident()?;
                self.expect(Tok::Colon)?;
                let ty = self.ty()?;
                params.push((pname, ty));
                if self.peek() == Some(&Tok::Comma) {
                    self.next()?;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::Arrow)?;
        let ret = self.ty()?;
        self.expect(Tok::Equals)?;
        let expr = self.expr(&params)?;
        Ok(Operation { name, params: params.into_iter().map(|(_, t)| t).collect(), ret, expr })
    }

    /// inst NAME ( in: N x ty, ... ) -> ty [ res, ... ] where op...
    ///
    /// Also returns a [`SourceMap`] with the byte position of each lane
    /// binding and operation declaration, so checker violations can point
    /// back into the source text.
    fn inst(&mut self) -> Result<(InstSemantics, SourceMap), ParseError> {
        let mut map = SourceMap { inst: self.pos(), ..SourceMap::default() };
        self.keyword("inst")?;
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut input_names: Vec<String> = Vec::new();
        let mut inputs: Vec<VecShape> = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                let iname = self.ident()?;
                self.expect(Tok::Colon)?;
                let lanes = self.int()?;
                self.keyword("x")?;
                let elem = self.ty()?;
                if lanes <= 0 {
                    return self.err("lane count must be positive");
                }
                input_names.push(iname);
                inputs.push(VecShape { lanes: lanes as usize, elem });
                if self.peek() == Some(&Tok::Comma) {
                    self.next()?;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::Arrow)?;
        let out_elem = self.ty()?;
        self.expect(Tok::LBracket)?;
        // Results: opname(in[lane], ...)
        let mut raw_lanes: Vec<(usize, String, Vec<LaneRef>)> = Vec::new();
        loop {
            let lane_pos = self.pos();
            let opname = self.ident()?;
            self.expect(Tok::LParen)?;
            let mut refs = Vec::new();
            if self.peek() != Some(&Tok::RParen) {
                loop {
                    let iname = self.ident()?;
                    let input = match input_names.iter().position(|n| *n == iname) {
                        Some(i) => i,
                        None => {
                            self.idx -= 1;
                            return self.err(format!("unknown input register `{iname}`"));
                        }
                    };
                    self.expect(Tok::LBracket)?;
                    let lane = self.int()?;
                    self.expect(Tok::RBracket)?;
                    if lane < 0 {
                        return self.err("negative lane index");
                    }
                    refs.push(LaneRef { input, lane: lane as usize });
                    if self.peek() == Some(&Tok::Comma) {
                        self.next()?;
                    } else {
                        break;
                    }
                }
            }
            self.expect(Tok::RParen)?;
            raw_lanes.push((lane_pos, opname, refs));
            if self.peek() == Some(&Tok::Comma) {
                self.next()?;
            } else {
                break;
            }
        }
        self.expect(Tok::RBracket)?;
        self.keyword("where")?;
        let mut ops: Vec<Operation> = Vec::new();
        while self.peek().is_some() {
            map.ops.push(self.pos());
            ops.push(self.operation()?);
        }
        let mut lanes = Vec::with_capacity(raw_lanes.len());
        for (lane_pos, opname, args) in raw_lanes {
            map.lanes.push(lane_pos);
            let Some(op) = ops.iter().position(|o| o.name == opname) else {
                return Err(ParseError {
                    at: lane_pos,
                    message: format!("instruction {name} references undeclared op `{opname}`"),
                });
            };
            lanes.push(LaneBinding { op, args });
        }
        Ok((InstSemantics { name, inputs, out_elem, ops, lanes }, map))
    }
}

/// Parse a standalone operation declaration.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input; the result is also
/// type-checked.
pub fn parse_operation(src: &str) -> Result<Operation, ParseError> {
    let mut p = Parser::new(src)?;
    let decl_pos = p.toks.first().map(|t| t.0).unwrap_or(0);
    let op = p.operation()?;
    if p.peek().is_some() {
        return p.err("trailing input after operation");
    }
    if let Some(v) = crate::check::check_operation_all(&op).into_iter().next() {
        return Err(ParseError { at: decl_pos, message: v.message });
    }
    Ok(op)
}

/// Parse (and check) a full instruction description.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or if the description fails
/// [`crate::check::check_inst`]; check failures carry the byte position of
/// the offending lane binding or operation declaration.
pub fn parse_inst(src: &str) -> Result<InstSemantics, ParseError> {
    let (inst, _) = parse_inst_with_map(src)?;
    Ok(inst)
}

/// Like [`parse_inst`], but also return the [`SourceMap`] with the byte
/// position of each lane binding and operation declaration.
///
/// # Errors
///
/// Same contract as [`parse_inst`].
pub fn parse_inst_with_map(src: &str) -> Result<(InstSemantics, SourceMap), ParseError> {
    let mut p = Parser::new(src)?;
    let (inst, map) = p.inst()?;
    if p.peek().is_some() {
        return p.err("trailing input after instruction");
    }
    if let Some(v) = check_inst_all(&inst, Some(&map)).into_iter().next() {
        return Err(ParseError { at: v.pos.unwrap_or(map.inst), message: v.message });
    }
    Ok((inst, map))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PMADDWD: &str = "inst pmaddwd (a: 4 x i16, b: 4 x i16) -> i32 [
        madd(a[0], b[0], a[1], b[1]),
        madd(a[2], b[2], a[3], b[3])
      ] where
      op madd (x1: i16, x2: i16, x3: i16, x4: i16) -> i32 =
        add(mul(sext_i32(x1), sext_i32(x2)), mul(sext_i32(x3), sext_i32(x4)))";

    #[test]
    fn parses_pmaddwd() {
        let i = parse_inst(PMADDWD).unwrap();
        assert_eq!(i.name, "pmaddwd");
        assert_eq!(i.inputs.len(), 2);
        assert_eq!(i.inputs[0].lanes, 4);
        assert_eq!(i.out_lanes(), 2);
        assert_eq!(i.ops.len(), 1);
        assert!(!i.is_simd());
    }

    #[test]
    fn parses_addsub() {
        let src = "inst addsubpd (a: 2 x f64, b: 2 x f64) -> f64 [
            sub(a[0], b[0]),
            add(a[1], b[1])
          ] where
          op sub (x: f64, y: f64) -> f64 = fsub(x, y)
          op add (x: f64, y: f64) -> f64 = fadd(x, y)";
        let i = parse_inst(src).unwrap();
        assert_eq!(i.ops.len(), 2);
        assert_eq!(i.lanes[0].op, 0);
        assert_eq!(i.lanes[1].op, 1);
        assert!(!i.is_simd());
    }

    #[test]
    fn parses_literals_and_select() {
        let src = "op sat (x: i32) -> i32 =
            select(cmp_sgt(x, 32767:i32), 32767:i32,
                   select(cmp_slt(x, -32768:i32), -32768:i32, x))";
        let op = parse_operation(src).unwrap();
        assert_eq!(op.params.len(), 1);
        let v = crate::eval::eval_operation(&op, &[Constant::int(Type::I32, 100_000)]).unwrap();
        assert_eq!(v.as_i64(), 32767);
    }

    #[test]
    fn comments_are_skipped() {
        let src = "# saturating add\nop s (x: i8) -> i8 = add(x, 1:i8) # inline\n";
        assert!(parse_operation(src).is_ok());
    }

    #[test]
    fn rejects_unknown_function() {
        let src = "op s (x: i8) -> i8 = frobnicate(x)";
        let e = parse_operation(src).unwrap_err();
        assert!(e.message.contains("unknown function"));
        // The error points at the function's name, not past its `)`.
        assert_eq!(e.at, 21);
        assert_eq!(&src[e.at..e.at + 10], "frobnicate");
    }

    #[test]
    fn errors_at_the_end_of_input_point_at_its_length() {
        for src in ["op s (x: i8) -> i8 =", "op s (x: i8) -> i8 = add(x, "] {
            let e = parse_operation(src).unwrap_err();
            assert_eq!((e.at, e.message.as_str()), (src.len(), "unexpected end of input"));
        }
        for src in ["inst t (a: 2 x i32)  ", ""] {
            let e = parse_inst(src).unwrap_err();
            assert_eq!((e.at, e.message.as_str()), (src.len(), "unexpected end of input"));
        }
    }

    #[test]
    fn rejects_void_everywhere_a_type_is_spelled() {
        // The shared name table knows `void` (stores have it); VIDL text
        // must not.
        for src in [
            "op s (x: void) -> i8 = add(x, x)",
            "op s (x: i8) -> void = add(x, x)",
            "op s (x: i8) -> i8 = add(x, 1:void)",
            "op s (x: i9) -> i8 = add(x, x)",
        ] {
            let e = parse_operation(src).unwrap_err();
            assert!(e.message.starts_with("unknown type `"), "{src}: {e}");
        }
        let e = parse_operation("op s (x: i8) -> i8 = sext_void(x)").unwrap_err();
        assert!(e.message.contains("unknown function"), "{e}");
    }

    #[test]
    fn rejects_unknown_parameter() {
        let src = "op s (x: i8) -> i8 = add(x, y)";
        assert!(parse_operation(src).is_err());
    }

    #[test]
    fn rejects_arity_mismatch() {
        let src = "op s (x: i8) -> i8 = add(x)";
        let e = parse_operation(src).unwrap_err();
        assert!(e.message.contains("takes 2 arguments"));
        assert_eq!(e.at, src.find("add").unwrap());
    }

    #[test]
    fn rejects_type_errors_via_check() {
        let src = "op s (x: i8, y: i16) -> i8 = add(x, y)";
        assert!(parse_operation(src).is_err());
    }

    #[test]
    fn rejects_bad_lane_reference() {
        let src = "inst t (a: 2 x i32) -> i32 [ id(a[5]) ] where
                   op id (x: i32) -> i32 = add(x, 0:i32)";
        assert!(parse_inst(src).is_err());
    }

    #[test]
    fn rejects_undeclared_op_in_lane() {
        let src = "inst t (a: 2 x i32) -> i32 [ nosuch(a[0]) ] where
                   op id (x: i32) -> i32 = add(x, 0:i32)";
        let e = parse_inst(src).unwrap_err();
        assert!(e.message.contains("undeclared op"));
        // The position points at the lane binding, not byte 0.
        assert_eq!(e.at, src.find("nosuch").unwrap());
    }

    #[test]
    fn check_failure_positions_point_at_lane_binding() {
        let src = "inst t (a: 2 x i32) -> i32 [ id(a[0]), id(a[5]) ] where
                   op id (x: i32) -> i32 = add(x, 0:i32)";
        let e = parse_inst(src).unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        assert_eq!(e.at, src.find("id(a[5])").unwrap());
    }

    #[test]
    fn check_failure_positions_point_at_operation() {
        // Lane bindings are fine; the op body is ill-typed.
        let src = "inst t (a: 2 x i32) -> i32 [ id(a[0]), id(a[1]) ] where
                   op id (x: i32) -> i32 = fadd(x, x)";
        let e = parse_inst(src).unwrap_err();
        assert!(e.message.contains("float/int mismatch"), "{e}");
        assert_eq!(e.at, src.find("op id").unwrap());
    }

    #[test]
    fn source_map_records_declarations() {
        let src = "inst t (a: 2 x i32) -> i32 [ id(a[0]), id(a[1]) ] where
                   op id (x: i32) -> i32 = add(x, 0:i32)";
        let (_, map) = parse_inst_with_map(src).unwrap();
        assert_eq!(map.inst, 0);
        assert_eq!(map.lanes, vec![src.find("id(a[0])").unwrap(), src.find("id(a[1])").unwrap()]);
        assert_eq!(map.ops, vec![src.find("op id").unwrap()]);
    }

    #[test]
    fn negative_literals() {
        let src = "op s (x: i16) -> i16 = add(x, -7:i16)";
        let op = parse_operation(src).unwrap();
        let v = crate::eval::eval_operation(&op, &[Constant::int(Type::I16, 10)]).unwrap();
        assert_eq!(v.as_i64(), 3);
    }

    #[test]
    fn float_ops_parse() {
        let src = "op f (x: f32, y: f32) -> f32 = fmul(fneg(x), fadd(y, 1.5:f32))";
        let op = parse_operation(src).unwrap();
        let v =
            crate::eval::eval_operation(&op, &[Constant::f32(2.0), Constant::f32(0.5)]).unwrap();
        assert_eq!(v.as_f32(), -4.0);
    }

    #[test]
    fn error_position_is_reported() {
        let e = parse_operation("op s (x: i8) -> i8 = @").unwrap_err();
        assert!(e.to_string().contains("byte 21"));
    }

    #[test]
    fn dotted_identifiers_parse() {
        // Intrinsic-style names (`llvm.smax.v8i16`) appear in printed
        // baseline semantics; the parser must accept what the printer
        // emits. A dot still cannot *start* an identifier.
        let src = "inst llvm.smax.v2i32 (a: 2 x i32, b: 2 x i32) -> i32 [
                     llvm.smax.v2i32_op(a[0], b[0]),
                     llvm.smax.v2i32_op(a[1], b[1])
                   ] where
                   op llvm.smax.v2i32_op (x: i32, y: i32) -> i32 =
                     select(cmp_sgt(x, y), x, y)";
        let inst = parse_inst(src).unwrap();
        assert_eq!(inst.name, "llvm.smax.v2i32");
        assert!(parse_operation("op s (x: i8) -> i8 = add(x, .5)").is_err());
    }
}
