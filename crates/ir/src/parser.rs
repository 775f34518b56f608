//! Parser for the textual IR format produced by [`crate::print_function`].

use std::error::Error;
use std::fmt;

use crate::cfg::{BlockId, Terminator};
use crate::function::{Function, Module};
use crate::hash::{HashMap, HashSet};
use crate::inst::{FloatPred, InstAttr, IntPred, Opcode};
use crate::types::{ScalarType, Type};
use crate::value::{Constant, ValueId};

/// A parse failure with source position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl Error for ParseError {}

#[derive(Clone, PartialEq, Debug)]
enum Tok {
    Ident(String),
    At(String),
    Percent(String),
    Int(i64),
    Float(f64),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Less,
    Greater,
    Comma,
    Colon,
    Equals,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::At(s) => write!(f, "`@{s}`"),
            Tok::Percent(s) => write!(f, "`%{s}`"),
            Tok::Int(v) => write!(f, "`{v}`"),
            Tok::Float(v) => write!(f, "`{v}`"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::LBrace => f.write_str("`{`"),
            Tok::RBrace => f.write_str("`}`"),
            Tok::LBracket => f.write_str("`[`"),
            Tok::RBracket => f.write_str("`]`"),
            Tok::Less => f.write_str("`<`"),
            Tok::Greater => f.write_str("`>`"),
            Tok::Comma => f.write_str("`,`"),
            Tok::Colon => f.write_str("`:`"),
            Tok::Equals => f.write_str("`=`"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Lexer<'s> {
        Lexer { src: src.as_bytes(), pos: 0, line: 1, col: 1 }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: self.line, col: self.col, message: message.into() }
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b';') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn ident(&mut self) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' {
                s.push(c as char);
                self.bump();
            } else {
                break;
            }
        }
        s
    }

    fn number(&mut self, neg: bool) -> Result<Tok, ParseError> {
        let mut s = String::new();
        if neg {
            s.push('-');
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {
                    s.push(c as char);
                    self.bump();
                }
                b'.' => {
                    is_float = true;
                    s.push('.');
                    self.bump();
                }
                b'e' | b'E' => {
                    is_float = true;
                    s.push('e');
                    self.bump();
                    if let Some(sign @ (b'+' | b'-')) = self.peek() {
                        s.push(sign as char);
                        self.bump();
                    }
                }
                _ => break,
            }
        }
        if is_float {
            s.parse::<f64>()
                .map(Tok::Float)
                .map_err(|e| self.err(format!("bad float literal `{s}`: {e}")))
        } else {
            s.parse::<i64>()
                .map(Tok::Int)
                .map_err(|e| self.err(format!("bad integer literal `{s}`: {e}")))
        }
    }

    fn next(&mut self) -> Result<(Tok, usize, usize), ParseError> {
        self.skip_ws();
        let (line, col) = (self.line, self.col);
        let Some(c) = self.peek() else {
            return Ok((Tok::Eof, line, col));
        };
        let tok = match c {
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b'{' => {
                self.bump();
                Tok::LBrace
            }
            b'}' => {
                self.bump();
                Tok::RBrace
            }
            b'[' => {
                self.bump();
                Tok::LBracket
            }
            b']' => {
                self.bump();
                Tok::RBracket
            }
            b'<' => {
                self.bump();
                Tok::Less
            }
            b'>' => {
                self.bump();
                Tok::Greater
            }
            b',' => {
                self.bump();
                Tok::Comma
            }
            b':' => {
                self.bump();
                Tok::Colon
            }
            b'=' => {
                self.bump();
                Tok::Equals
            }
            b'@' => {
                self.bump();
                Tok::At(self.ident())
            }
            b'%' => {
                self.bump();
                Tok::Percent(self.ident())
            }
            b'-' => {
                if self.peek2().is_some_and(|d| d.is_ascii_digit()) {
                    self.bump();
                    self.number(true)?
                } else if self.peek2() == Some(b'i') {
                    // "-inf"
                    self.bump();
                    let id = self.ident();
                    if id == "inf" {
                        Tok::Float(f64::NEG_INFINITY)
                    } else {
                        return Err(self.err(format!("unexpected `-{id}`")));
                    }
                } else {
                    return Err(self.err("unexpected `-`"));
                }
            }
            b'0'..=b'9' => self.number(false)?,
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let id = self.ident();
                match id.as_str() {
                    "inf" => Tok::Float(f64::INFINITY),
                    "NaN" => Tok::Float(f64::NAN),
                    _ => Tok::Ident(id),
                }
            }
            other => return Err(self.err(format!("unexpected character `{}`", other as char))),
        };
        Ok((tok, line, col))
    }
}

struct Parser<'s> {
    lex: Lexer<'s>,
    tok: Tok,
    line: usize,
    col: usize,
    /// Block receiving parsed instructions; `None` in straight-line bodies.
    cur_block: Option<BlockId>,
}

impl<'s> Parser<'s> {
    fn new(src: &'s str) -> Result<Parser<'s>, ParseError> {
        let mut lex = Lexer::new(src);
        let (tok, line, col) = lex.next()?;
        Ok(Parser { lex, tok, line, col, cur_block: None })
    }

    /// Append an instruction to the current block (CFG mode) or the body.
    fn emit(
        &mut self,
        f: &mut Function,
        op: Opcode,
        ty: Type,
        args: Vec<ValueId>,
        attr: InstAttr,
    ) -> ValueId {
        match self.cur_block {
            Some(b) => f.push_in_block(b, op, ty, args, attr),
            None => f.push(op, ty, args, attr),
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: self.line, col: self.col, message: message.into() }
    }

    fn advance(&mut self) -> Result<Tok, ParseError> {
        let (tok, line, col) = self.lex.next()?;
        self.line = line;
        self.col = col;
        Ok(std::mem::replace(&mut self.tok, tok))
    }

    fn expect(&mut self, want: &Tok) -> Result<(), ParseError> {
        if &self.tok == want {
            self.advance()?;
            Ok(())
        } else {
            Err(self.err(format!("expected {want}, found {}", self.tok)))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.advance()? {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn expect_int(&mut self) -> Result<i64, ParseError> {
        match self.advance()? {
            Tok::Int(v) => Ok(v),
            other => Err(self.err(format!("expected integer, found {other}"))),
        }
    }

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        match self.advance()? {
            Tok::Ident(s) => ScalarType::from_name(&s)
                .map(Type::Scalar)
                .ok_or_else(|| self.err(format!("unknown type `{s}`"))),
            Tok::Less => {
                let lanes = self.expect_int()?;
                let x = self.expect_ident()?;
                if x != "x" {
                    return Err(self.err("expected `x` in vector type"));
                }
                let elem_name = self.expect_ident()?;
                let elem = ScalarType::from_name(&elem_name)
                    .ok_or_else(|| self.err(format!("unknown element type `{elem_name}`")))?;
                self.expect(&Tok::Greater)?;
                if lanes < 1 {
                    return Err(self.err("vector lane count must be positive"));
                }
                Ok(Type::Vector(elem, lanes as u32))
            }
            other => Err(self.err(format!("expected type, found {other}"))),
        }
    }

    fn scalar_const(
        &mut self,
        f: &mut Function,
        elem: ScalarType,
        tok: Tok,
    ) -> Result<ValueId, ParseError> {
        match tok {
            Tok::Int(v) if elem.is_int() => Ok(f.const_int(elem, v)),
            Tok::Int(v) if elem.is_float() => Ok(f.const_float(elem, v as f64)),
            Tok::Float(v) if elem.is_float() => Ok(f.const_float(elem, v)),
            other => Err(self.err(format!("expected {elem} literal, found {other}"))),
        }
    }

    /// Parse one operand with an expected type (for constant literals).
    fn operand(
        &mut self,
        f: &mut Function,
        names: &HashMap<String, ValueId>,
        expected: Type,
    ) -> Result<ValueId, ParseError> {
        match self.advance()? {
            Tok::Percent(name) => names
                .get(&name)
                .copied()
                .ok_or_else(|| self.err(format!("unknown value `%{name}`"))),
            Tok::Less => {
                // Vector constant literal: `<c0, c1, ...>`.
                let Type::Vector(elem, lanes) = expected else {
                    return Err(self.err("vector literal where scalar expected"));
                };
                let mut consts = Vec::new();
                loop {
                    let tok = self.advance()?;
                    let id = self.scalar_const(f, elem, tok)?;
                    consts.push(f.as_const(id).unwrap().clone());
                    match self.advance()? {
                        Tok::Comma => continue,
                        Tok::Greater => break,
                        other => {
                            return Err(self.err(format!("expected `,` or `>`, found {other}")))
                        }
                    }
                }
                if consts.len() != lanes as usize {
                    return Err(self.err("vector literal lane count mismatch"));
                }
                Ok(f.constant(Constant::vector(consts)))
            }
            tok @ (Tok::Int(_) | Tok::Float(_)) => {
                let Some(elem) = expected.elem() else {
                    return Err(self.err("literal operand needs a typed context"));
                };
                if expected.is_vector() {
                    return Err(self.err("scalar literal where vector expected"));
                }
                self.scalar_const(f, elem, tok)
            }
            other => Err(self.err(format!("expected operand, found {other}"))),
        }
    }

    fn define(
        &mut self,
        f: &mut Function,
        names: &mut HashMap<String, ValueId>,
        name: Option<String>,
        id: ValueId,
    ) -> Result<(), ParseError> {
        if let Some(name) = name {
            if names.insert(name.clone(), id).is_some() {
                return Err(self.err(format!("value `%{name}` redefined")));
            }
            // Keep numeric auto-names out of the debug names so reprinting
            // renumbers cleanly.
            if name.parse::<usize>().is_err() {
                f.set_value_name(id, name);
            }
        }
        Ok(())
    }

    fn parse_inst(
        &mut self,
        f: &mut Function,
        names: &mut HashMap<String, ValueId>,
    ) -> Result<(), ParseError> {
        // Either `%name = <op> ...` or `store ...`.
        let result_name = if let Tok::Percent(_) = self.tok {
            let Tok::Percent(name) = self.advance()? else { unreachable!() };
            self.expect(&Tok::Equals)?;
            Some(name)
        } else {
            None
        };
        let opname = self.expect_ident()?;
        let op = Opcode::from_mnemonic(&opname)
            .ok_or_else(|| self.err(format!("unknown opcode `{opname}`")))?;

        match op {
            o if o.is_binary() => {
                let ty = self.parse_type()?;
                let a = self.operand(f, names, ty)?;
                self.expect(&Tok::Comma)?;
                let b = self.operand(f, names, ty)?;
                let id = self.emit(f, o, ty, vec![a, b], InstAttr::None);
                self.define(f, names, result_name, id)
            }
            Opcode::ICmp | Opcode::FCmp => {
                let predname = self.expect_ident()?;
                let ty = self.parse_type()?;
                let a = self.operand(f, names, ty)?;
                self.expect(&Tok::Comma)?;
                let b = self.operand(f, names, ty)?;
                let rty = match ty {
                    Type::Vector(_, n) => Type::Vector(ScalarType::I8, n),
                    _ => Type::Scalar(ScalarType::I8),
                };
                let attr = if op == Opcode::ICmp {
                    InstAttr::IntPred(
                        IntPred::from_name(&predname)
                            .ok_or_else(|| self.err(format!("unknown predicate `{predname}`")))?,
                    )
                } else {
                    InstAttr::FloatPred(
                        FloatPred::from_name(&predname)
                            .ok_or_else(|| self.err(format!("unknown predicate `{predname}`")))?,
                    )
                };
                let id = self.emit(f, op, rty, vec![a, b], attr);
                self.define(f, names, result_name, id)
            }
            Opcode::Select => {
                let ty = self.parse_type()?;
                let cond_ty = match ty {
                    Type::Vector(_, n) => Type::Vector(ScalarType::I8, n),
                    _ => Type::Scalar(ScalarType::I8),
                };
                let c = self.operand(f, names, cond_ty)?;
                self.expect(&Tok::Comma)?;
                let a = self.operand(f, names, ty)?;
                self.expect(&Tok::Comma)?;
                let b = self.operand(f, names, ty)?;
                let id = self.emit(f, op, ty, vec![c, a, b], InstAttr::None);
                self.define(f, names, result_name, id)
            }
            Opcode::Gep => {
                let base = self.operand(f, names, Type::PTR)?;
                self.expect(&Tok::Comma)?;
                let idx = self.operand(f, names, Type::I64)?;
                self.expect(&Tok::Comma)?;
                let bytes = self.expect_int()?;
                if bytes <= 0 {
                    return Err(self.err("gep stride must be positive"));
                }
                let id =
                    self.emit(f, op, Type::PTR, vec![base, idx], InstAttr::ElemBytes(bytes as u32));
                self.define(f, names, result_name, id)
            }
            Opcode::Load => {
                let ty = self.parse_type()?;
                self.expect(&Tok::Comma)?;
                let ptr = self.operand(f, names, Type::PTR)?;
                let id = self.emit(f, op, ty, vec![ptr], InstAttr::None);
                self.define(f, names, result_name, id)
            }
            Opcode::Store => {
                let ty = self.parse_type()?;
                let val = self.operand(f, names, ty)?;
                self.expect(&Tok::Comma)?;
                let ptr = self.operand(f, names, Type::PTR)?;
                self.emit(f, op, Type::Void, vec![val, ptr], InstAttr::None);
                if result_name.is_some() {
                    return Err(self.err("store does not produce a value"));
                }
                Ok(())
            }
            Opcode::InsertElement => {
                let ty = self.parse_type()?;
                let elem = ty.elem().ok_or_else(|| self.err("insertelement needs a vector"))?;
                let vec = self.operand(f, names, ty)?;
                self.expect(&Tok::Comma)?;
                let val = self.operand(f, names, Type::Scalar(elem))?;
                self.expect(&Tok::Comma)?;
                let lane = self.operand(f, names, Type::I64)?;
                let id = self.emit(f, op, ty, vec![vec, val, lane], InstAttr::None);
                self.define(f, names, result_name, id)
            }
            Opcode::ExtractElement => {
                let ty = self.parse_type()?;
                let elem = ty.elem().ok_or_else(|| self.err("extractelement needs a vector"))?;
                let vec = self.operand(f, names, ty)?;
                self.expect(&Tok::Comma)?;
                let lane = self.operand(f, names, Type::I64)?;
                let id = self.emit(f, op, Type::Scalar(elem), vec![vec, lane], InstAttr::None);
                self.define(f, names, result_name, id)
            }
            Opcode::ShuffleVector => {
                let ty = self.parse_type()?;
                let elem = ty.elem().ok_or_else(|| self.err("shufflevector needs vectors"))?;
                let a = self.operand(f, names, ty)?;
                self.expect(&Tok::Comma)?;
                let b = self.operand(f, names, ty)?;
                self.expect(&Tok::Comma)?;
                self.expect(&Tok::LBracket)?;
                let mut mask = Vec::new();
                if self.tok != Tok::RBracket {
                    loop {
                        mask.push(self.expect_int()? as u32);
                        if self.tok == Tok::Comma {
                            self.advance()?;
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBracket)?;
                let rty = Type::Vector(elem, mask.len() as u32);
                let id = self.emit(f, op, rty, vec![a, b], InstAttr::Mask(mask));
                self.define(f, names, result_name, id)
            }
            other if other.is_cast() => {
                let src = self.parse_type()?;
                let v = self.operand(f, names, src)?;
                let kw = self.expect_ident()?;
                if kw != "to" {
                    return Err(self.err(format!("expected `to` in cast, found `{kw}`")));
                }
                let dst = self.parse_type()?;
                let id = self.emit(f, other, dst, vec![v], InstAttr::None);
                self.define(f, names, result_name, id)
            }
            other => Err(self.err(format!("cannot parse opcode `{other}`"))),
        }
    }

    fn parse_function(&mut self) -> Result<Function, ParseError> {
        let kw = self.expect_ident()?;
        if kw != "func" {
            return Err(self.err(format!("expected `func`, found `{kw}`")));
        }
        let name = match self.advance()? {
            Tok::At(n) => n,
            other => return Err(self.err(format!("expected `@name`, found {other}"))),
        };
        let mut f = Function::new(name);
        let mut names: HashMap<String, ValueId> = HashMap::default();
        self.expect(&Tok::LParen)?;
        if self.tok != Tok::RParen {
            loop {
                let pname = match self.advance()? {
                    Tok::Percent(n) => n,
                    other => return Err(self.err(format!("expected parameter, found {other}"))),
                };
                self.expect(&Tok::Colon)?;
                let ty = self.parse_type()?;
                let id = f.add_param(pname.clone(), ty);
                if names.insert(pname.clone(), id).is_some() {
                    return Err(self.err(format!("parameter `%{pname}` redefined")));
                }
                if self.tok == Tok::Comma {
                    self.advance()?;
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::LBrace)?;
        let is_cfg = matches!(&self.tok, Tok::Ident(s) if Self::block_number(s).is_some());
        if is_cfg {
            self.parse_cfg_body(&mut f, &mut names)?;
        } else {
            while self.tok != Tok::RBrace {
                self.parse_inst(&mut f, &mut names)?;
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(f)
    }

    /// `bbN` → `N`; anything else → `None`.
    fn block_number(label: &str) -> Option<u32> {
        let digits = label.strip_prefix("bb")?;
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok()
    }

    /// Resolve a `bbN` label, materialising blocks up to `N` so forward
    /// references work; labels keep their printed numbering.
    fn block_id_of(&mut self, f: &mut Function, label: &str) -> Result<BlockId, ParseError> {
        let n = Self::block_number(label)
            .ok_or_else(|| self.err(format!("expected block label `bbN`, found `{label}`")))?;
        while f.num_blocks() <= n as usize {
            f.add_block();
        }
        Ok(BlockId::from_raw(n))
    }

    /// One edge argument (or loop-carried init): a `%value`, or an inline
    /// constant literal. Literal types are not recoverable from context
    /// here, so integers parse as `i64` and floats as `f64` — the only
    /// constant types the CFG layers produce.
    fn edge_arg(
        &mut self,
        f: &mut Function,
        names: &HashMap<String, ValueId>,
    ) -> Result<ValueId, ParseError> {
        match self.advance()? {
            Tok::Percent(name) => names
                .get(&name)
                .copied()
                .ok_or_else(|| self.err(format!("unknown value `%{name}`"))),
            Tok::Int(v) => Ok(f.const_i64(v)),
            Tok::Float(v) => Ok(f.const_float(ScalarType::F64, v)),
            other => Err(self.err(format!("expected edge argument, found {other}"))),
        }
    }

    /// `bbN` or `bbN(arg, ...)`.
    fn parse_edge(
        &mut self,
        f: &mut Function,
        names: &HashMap<String, ValueId>,
    ) -> Result<(BlockId, Vec<ValueId>), ParseError> {
        let label = self.expect_ident()?;
        let b = self.block_id_of(f, &label)?;
        let mut args = Vec::new();
        if self.tok == Tok::LParen {
            self.advance()?;
            if self.tok != Tok::RParen {
                loop {
                    args.push(self.edge_arg(f, names)?);
                    if self.tok == Tok::Comma {
                        self.advance()?;
                    } else {
                        break;
                    }
                }
            }
            self.expect(&Tok::RParen)?;
        }
        Ok((b, args))
    }

    fn parse_terminator(
        &mut self,
        f: &mut Function,
        names: &HashMap<String, ValueId>,
    ) -> Result<Terminator, ParseError> {
        let kw = self.expect_ident()?;
        match kw.as_str() {
            "ret" => Ok(Terminator::Ret),
            "jump" => {
                let (target, args) = self.parse_edge(f, names)?;
                Ok(Terminator::Jump { target, args })
            }
            "br" => {
                let cond = self.operand(f, names, Type::Scalar(ScalarType::I8))?;
                self.expect(&Tok::Comma)?;
                let (then_to, then_args) = self.parse_edge(f, names)?;
                self.expect(&Tok::Comma)?;
                let (else_to, else_args) = self.parse_edge(f, names)?;
                Ok(Terminator::Br { cond, then_to, then_args, else_to, else_args })
            }
            "loop" => {
                let trip = self.operand(f, names, Type::I64)?;
                self.expect(&Tok::Comma)?;
                let (body, init) = self.parse_edge(f, names)?;
                self.expect(&Tok::Comma)?;
                let label = self.expect_ident()?;
                let exit = self.block_id_of(f, &label)?;
                Ok(Terminator::Loop { trip, body, init, exit })
            }
            "continue" => {
                let mut args = Vec::new();
                if matches!(self.tok, Tok::Percent(_) | Tok::Int(_) | Tok::Float(_)) {
                    loop {
                        args.push(self.edge_arg(f, names)?);
                        if self.tok == Tok::Comma {
                            self.advance()?;
                        } else {
                            break;
                        }
                    }
                }
                Ok(Terminator::Continue { args })
            }
            other => Err(self.err(format!("unknown terminator `{other}`"))),
        }
    }

    fn parse_cfg_body(
        &mut self,
        f: &mut Function,
        names: &mut HashMap<String, ValueId>,
    ) -> Result<(), ParseError> {
        f.init_cfg();
        let mut defined: HashSet<u32> = HashSet::default();
        while self.tok != Tok::RBrace {
            let label = self.expect_ident()?;
            let b = self.block_id_of(f, &label)?;
            if !defined.insert(b.index() as u32) {
                return Err(self.err(format!("block {b} redefined")));
            }
            if self.tok == Tok::LParen {
                self.advance()?;
                if self.tok != Tok::RParen {
                    loop {
                        let pname = match self.advance()? {
                            Tok::Percent(n) => n,
                            other => {
                                return Err(
                                    self.err(format!("expected block parameter, found {other}"))
                                )
                            }
                        };
                        self.expect(&Tok::Colon)?;
                        let ty = self.parse_type()?;
                        // Numeric auto-names are positional, not debug names
                        // (mirrors `define`).
                        let dbg = if pname.parse::<usize>().is_err() {
                            Some(pname.clone())
                        } else {
                            None
                        };
                        let id = f.add_block_param(b, dbg, ty);
                        if names.insert(pname.clone(), id).is_some() {
                            return Err(self.err(format!("value `%{pname}` redefined")));
                        }
                        if self.tok == Tok::Comma {
                            self.advance()?;
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RParen)?;
            }
            self.expect(&Tok::Colon)?;
            self.cur_block = Some(b);
            loop {
                match &self.tok {
                    Tok::Ident(s)
                        if matches!(s.as_str(), "ret" | "jump" | "br" | "loop" | "continue") =>
                    {
                        break;
                    }
                    Tok::RBrace => return Err(self.err(format!("block {b} missing terminator"))),
                    _ => self.parse_inst(f, names)?,
                }
            }
            let term = self.parse_terminator(f, names)?;
            f.set_term(b, term);
            self.cur_block = None;
        }
        for n in 0..f.num_blocks() as u32 {
            if !defined.contains(&n) {
                return Err(self.err(format!("block bb{n} referenced but never defined")));
            }
        }
        Ok(())
    }
}

/// Parse a module (one or more functions).
///
/// # Errors
///
/// Returns a [`ParseError`] with line/column on malformed input. The result
/// is *not* verified; run [`crate::verify_module`] for semantic checks.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let mut p = Parser::new(src)?;
    let mut m = Module::new();
    while p.tok != Tok::Eof {
        m.functions.push(p.parse_function()?);
    }
    Ok(m)
}

/// Parse exactly one function.
///
/// # Errors
///
/// Returns a [`ParseError`] if the input is malformed or contains more than
/// one function.
pub fn parse_function(src: &str) -> Result<Function, ParseError> {
    let m = parse_module(src)?;
    match <[Function; 1]>::try_from(m.functions) {
        Ok([f]) => Ok(f),
        Err(fs) => Err(ParseError {
            line: 1,
            col: 1,
            message: format!("expected exactly one function, found {}", fs.len()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{print_function, verify_function};

    fn roundtrip(src: &str) {
        let f = parse_function(src).expect("parse");
        verify_function(&f).expect("verify");
        let printed = print_function(&f);
        let f2 = parse_function(&printed).expect("reparse");
        verify_function(&f2).expect("reverify");
        assert_eq!(printed, print_function(&f2), "print not stable");
    }

    #[test]
    fn parses_scalar_kernel() {
        roundtrip(
            "func @k(%A: ptr, %i: i64) {\n\
             \x20 %p = gep %A, %i, 8\n\
             \x20 %v = load f64, %p\n\
             \x20 %d = fmul f64 %v, 2.0\n\
             \x20 store f64 %d, %p\n\
             }\n",
        );
    }

    #[test]
    fn parses_every_shape() {
        roundtrip(
            "func @all(%A: ptr, %i: i64, %x: f64) {
               %p = gep %A, %i, 8
               %v = load f64, %p
               %s = fadd f64 %v, %x
               %c = fcmp olt f64 %s, 1.5
               %m = select f64 %c, %s, %x
               %n = add i64 %i, -3
               %ic = icmp slt i64 %n, 0
               %sel = select i64 %ic, %i, %n
               store f64 %m, %p
               %vv = load <2 x f64>, %p
               %e = extractelement <2 x f64> %vv, 0
               %iv = insertelement <2 x f64> %vv, %e, 1
               %sh = shufflevector <2 x f64> %iv, %vv, [0, 3]
               store <2 x f64> %sh, %p
             }",
        );
    }

    #[test]
    fn parses_vector_constant_operand() {
        let f = parse_function(
            "func @vc(%A: ptr) {
               %v = load <2 x i64>, %A
               %w = add <2 x i64> %v, <1, 2>
               store <2 x i64> %w, %A
             }",
        )
        .unwrap();
        verify_function(&f).unwrap();
        let text = print_function(&f);
        assert!(text.contains("<1, 2>"), "{text}");
    }

    #[test]
    fn parses_special_floats() {
        let f = parse_function(
            "func @sf(%A: ptr) {
               %v = load f64, %A
               %a = fadd f64 %v, inf
               %b = fadd f64 %a, -inf
               %c = fmul f64 %b, NaN
               store f64 %c, %A
             }",
        )
        .unwrap();
        let text = print_function(&f);
        assert!(text.contains("inf"), "{text}");
        assert!(text.contains("NaN"), "{text}");
        roundtrip(&text);
    }

    #[test]
    fn rejects_unknown_value() {
        let err = parse_function("func @b(%a: i64) { %x = add i64 %a, %nope }").unwrap_err();
        assert!(err.message.contains("unknown value"), "{err}");
    }

    #[test]
    fn rejects_redefinition() {
        let err = parse_function("func @b(%a: i64) { %x = add i64 %a, 1\n %x = add i64 %a, 2 }")
            .unwrap_err();
        assert!(err.message.contains("redefined"), "{err}");
    }

    #[test]
    fn rejects_bad_opcode_and_reports_position() {
        let err = parse_function("func @b(%a: i64) {\n  %x = frob i64 %a, 1\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown opcode"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage_in_module() {
        let err = parse_module("func @a() { } banana").unwrap_err();
        assert!(err.message.contains("expected `func`"), "{err}");
    }

    #[test]
    fn comments_are_skipped() {
        roundtrip(
            "; leading comment\nfunc @c(%a: i64) { ; inline\n  %x = add i64 %a, 1 ; trailing\n}\n",
        );
    }

    #[test]
    fn parse_function_rejects_two() {
        let err = parse_function("func @a() { }\nfunc @b() { }").unwrap_err();
        assert!(err.message.contains("exactly one"), "{err}");
    }

    #[test]
    fn parses_if_diamond_cfg() {
        roundtrip(
            "func @diamond(%A: ptr, %x: i64) {
             bb0:
               %c = icmp slt i64 %x, 0
               br %c, bb1, bb2
             bb1:
               %n = sub i64 0, %x
               jump bb3(%n)
             bb2:
               jump bb3(%x)
             bb3(%m: i64):
               store i64 %m, %A
               ret
             }",
        );
    }

    #[test]
    fn parses_counted_loop_cfg() {
        roundtrip(
            "func @loop4(%A: ptr) {
             bb0:
               loop 4, bb1(0), bb2
             bb1(%i: i64, %acc: i64):
               %next = add i64 %acc, %i
               continue %next
             bb2(%sum: i64):
               store i64 %sum, %A
               ret
             }",
        );
    }

    #[test]
    fn cfg_block_labels_keep_their_numbers() {
        // A forward reference to bb2 before bb1's header must not renumber.
        let f = parse_function(
            "func @fwd(%x: i64) {
             bb0:
               %c = icmp slt i64 %x, 0
               br %c, bb2, bb1
             bb1:
               jump bb3(%x)
             bb2:
               jump bb3(0)
             bb3(%m: i64):
               ret
             }",
        )
        .unwrap();
        verify_function(&f).unwrap();
        let text = print_function(&f);
        assert!(text.contains("br %c, bb2, bb1"), "{text}");
    }

    #[test]
    fn cfg_rejects_missing_terminator() {
        let err = parse_function(
            "func @bad(%x: i64) {
             bb0:
               %c = add i64 %x, 1
             }",
        )
        .unwrap_err();
        assert!(err.message.contains("missing terminator"), "{err}");
    }

    #[test]
    fn cfg_rejects_undefined_block() {
        let err = parse_function(
            "func @bad(%x: i64) {
             bb0:
               jump bb1
             }",
        )
        .unwrap_err();
        assert!(err.message.contains("never defined"), "{err}");
    }
}
