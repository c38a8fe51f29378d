//! Recursive-descent parser for the `C language.
//!
//! Produces an unresolved AST (names as [`ExprKind::Ident`], tick bodies
//! as [`ExprKind::TickRaw`]) plus the struct table; the semantic analyzer
//! finishes the job. Structs must be defined before use (self-referential
//! pointer fields are fine).

use crate::ast::*;
use crate::error::FrontError;
use crate::lexer::lex;
use crate::token::{Kw, Spanned, Tok, P};
use crate::types::{FuncSig, StructDef, Type};
use std::sync::Arc;

/// A parsed translation unit (pre-sema).
#[derive(Clone, Debug, Default)]
pub struct ParsedUnit {
    /// Struct definitions with computed layout.
    pub structs: Vec<StructDef>,
    /// Global declarations in order.
    pub globals: Vec<DeclItem>,
    /// Function definitions.
    pub funcs: Vec<RawFunc>,
}

/// A function definition before semantic analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct RawFunc {
    /// Name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameters.
    pub params: Vec<(String, Type)>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source line of the definition.
    pub line: u32,
}

/// Parses a translation unit.
///
/// # Errors
///
/// Returns the first lexical or syntax error.
pub fn parse(src: &str) -> Result<ParsedUnit, FrontError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        unit: ParsedUnit::default(),
    };
    p.unit()?;
    Ok(p.unit)
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    unit: ParsedUnit,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    /// Consumes the current token. An identifier's or a string's
    /// payload moves out (into the AST), leaving [`Tok::Eof`] behind:
    /// the parser backs up only over a `(`, never over a name.
    fn bump(&mut self) -> Tok {
        let slot = &mut self.toks[self.pos].tok;
        let t = match slot {
            Tok::Ident(_) | Tok::Str(_) => std::mem::replace(slot, Tok::Eof),
            t => t.clone(),
        };
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> FrontError {
        FrontError::Parse {
            line: self.line(),
            msg: msg.into(),
        }
    }

    fn expect_p(&mut self, p: P) -> Result<(), FrontError> {
        if self.peek() == &Tok::P(p) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {p:?}, found {}", self.peek())))
        }
    }

    fn eat_p(&mut self, p: P) -> bool {
        if self.peek() == &Tok::P(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, k: Kw) -> bool {
        if self.peek() == &Tok::Kw(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, FrontError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            t => Err(self.err(format!("expected identifier, found {t}"))),
        }
    }

    // ---- types -----------------------------------------------------------

    fn starts_type(&self) -> bool {
        matches!(
            self.peek(),
            Tok::Kw(
                Kw::Void
                    | Kw::Char
                    | Kw::Short
                    | Kw::Int
                    | Kw::Long
                    | Kw::Unsigned
                    | Kw::Signed
                    | Kw::Float
                    | Kw::Double
                    | Kw::Struct
            )
        )
    }

    fn base_type(&mut self) -> Result<Type, FrontError> {
        if self.eat_kw(Kw::Struct) {
            let name = self.expect_ident()?;
            if self.peek() == &Tok::P(P::LBrace) {
                return self.struct_def(name);
            }
            let idx = self
                .unit
                .structs
                .iter()
                .position(|s| s.name == name)
                .ok_or_else(|| self.err(format!("unknown struct {name}")))?;
            return Ok(Type::Struct(idx));
        }
        if self.eat_kw(Kw::Unsigned) {
            if self.eat_kw(Kw::Char) {
                return Ok(Type::UChar);
            }
            if self.eat_kw(Kw::Short) {
                return Ok(Type::UShort);
            }
            if self.eat_kw(Kw::Long) {
                return Ok(Type::ULong);
            }
            self.eat_kw(Kw::Int);
            return Ok(Type::UInt);
        }
        if self.eat_kw(Kw::Signed) {
            if self.eat_kw(Kw::Char) {
                return Ok(Type::Char);
            }
            if self.eat_kw(Kw::Short) {
                return Ok(Type::Short);
            }
            if self.eat_kw(Kw::Long) {
                return Ok(Type::Long);
            }
            self.eat_kw(Kw::Int);
            return Ok(Type::Int);
        }
        if self.eat_kw(Kw::Void) {
            return Ok(Type::Void);
        }
        if self.eat_kw(Kw::Char) {
            return Ok(Type::Char);
        }
        if self.eat_kw(Kw::Short) {
            return Ok(Type::Short);
        }
        if self.eat_kw(Kw::Int) {
            return Ok(Type::Int);
        }
        if self.eat_kw(Kw::Long) {
            return Ok(Type::Long);
        }
        if self.eat_kw(Kw::Float) || self.eat_kw(Kw::Double) {
            return Ok(Type::Double);
        }
        Err(self.err(format!("expected a type, found {}", self.peek())))
    }

    fn struct_def(&mut self, name: String) -> Result<Type, FrontError> {
        self.expect_p(P::LBrace)?;
        // Register the name first so self-referential pointers resolve.
        let idx = self.unit.structs.len();
        self.unit.structs.push(StructDef {
            name: name.clone(),
            fields: Vec::new(),
            size: 0,
            align: 1,
        });
        let mut fields = Vec::new();
        while !self.eat_p(P::RBrace) {
            let base = self.base_type()?;
            loop {
                let (fname, fty) = self.declarator(base.clone())?;
                fields.push((fname, fty));
                if !self.eat_p(P::Comma) {
                    break;
                }
            }
            self.expect_p(P::Semi)?;
        }
        let laid = StructDef::layout(name, fields, &self.unit.structs);
        self.unit.structs[idx] = laid;
        Ok(Type::Struct(idx))
    }

    /// Parses a declarator against `base`: pointer stars, optional
    /// `cspec`/`vspec`, then a name with array suffixes, or the function
    /// pointer form `(*name)(params)`.
    fn declarator(&mut self, base: Type) -> Result<(String, Type), FrontError> {
        let mut ty = base;
        while self.eat_p(P::Star) {
            ty = Type::Ptr(Arc::new(ty));
        }
        if self.eat_kw(Kw::Cspec) {
            ty = Type::Cspec(Arc::new(ty));
        } else if self.eat_kw(Kw::Vspec) {
            ty = Type::Vspec(Arc::new(ty));
        }
        // Function pointer: (*name)(params)
        if self.peek() == &Tok::P(P::LParen) && self.peek2() == &Tok::P(P::Star) {
            self.bump(); // (
            self.bump(); // *
            let name = self.expect_ident()?;
            self.expect_p(P::RParen)?;
            let params = self.param_types()?;
            let sig = FuncSig { ret: ty, params };
            return Ok((name, Type::Ptr(Arc::new(Type::Func(Arc::new(sig))))));
        }
        let name = self.expect_ident()?;
        let mut dims = Vec::new();
        while self.eat_p(P::LBracket) {
            let n = match self.bump() {
                Tok::Int(v, _) if v >= 0 => v as u64,
                t => return Err(self.err(format!("expected array size, found {t}"))),
            };
            self.expect_p(P::RBracket)?;
            dims.push(n);
        }
        for &n in dims.iter().rev() {
            ty = Type::Array(Arc::new(ty), n);
        }
        Ok((name, ty))
    }

    /// Parses a parenthesized parameter type list (types only).
    fn param_types(&mut self) -> Result<Vec<Type>, FrontError> {
        Ok(self.params()?.into_iter().map(|(_, t)| t).collect())
    }

    /// Parses `(T name, …)`, allowing `(void)` and abstract names.
    fn params(&mut self) -> Result<Vec<(String, Type)>, FrontError> {
        self.expect_p(P::LParen)?;
        let mut out = Vec::new();
        if self.eat_p(P::RParen) {
            return Ok(out);
        }
        if self.peek() == &Tok::Kw(Kw::Void) && self.peek2() == &Tok::P(P::RParen) {
            self.bump();
            self.bump();
            return Ok(out);
        }
        loop {
            let base = self.base_type()?;
            let (name, ty) = self.param_declarator(base)?;
            out.push((name, ty.decay()));
            if !self.eat_p(P::Comma) {
                break;
            }
        }
        self.expect_p(P::RParen)?;
        Ok(out)
    }

    /// Parameter declarator: like [`Parser::declarator`] but the name is
    /// optional (abstract declarators in prototypes).
    fn param_declarator(&mut self, base: Type) -> Result<(String, Type), FrontError> {
        let mut ty = base;
        while self.eat_p(P::Star) {
            ty = Type::Ptr(Arc::new(ty));
        }
        if self.eat_kw(Kw::Cspec) {
            ty = Type::Cspec(Arc::new(ty));
        } else if self.eat_kw(Kw::Vspec) {
            ty = Type::Vspec(Arc::new(ty));
        }
        if self.peek() == &Tok::P(P::LParen) {
            // (*name)(params) or (*)(params)
            self.bump();
            self.expect_p(P::Star)?;
            let name = match self.peek() {
                Tok::Ident(_) => self.expect_ident()?,
                _ => String::new(),
            };
            self.expect_p(P::RParen)?;
            let params = self.param_types()?;
            let sig = FuncSig { ret: ty, params };
            return Ok((name, Type::Ptr(Arc::new(Type::Func(Arc::new(sig))))));
        }
        let name = match self.peek() {
            Tok::Ident(_) => self.expect_ident()?,
            _ => String::new(),
        };
        let mut dims = 0;
        while self.eat_p(P::LBracket) {
            if let Tok::Int(_, _) = self.peek() {
                self.bump();
            }
            self.expect_p(P::RBracket)?;
            dims += 1;
        }
        for _ in 0..dims {
            ty = Type::Ptr(Arc::new(ty));
        }
        Ok((name, ty))
    }

    /// A full (possibly abstract) type, for casts, `sizeof`, `compile`,
    /// `local`, `param`.
    fn type_name(&mut self) -> Result<Type, FrontError> {
        let base = self.base_type()?;
        let mut ty = base;
        while self.eat_p(P::Star) {
            ty = Type::Ptr(Arc::new(ty));
        }
        if self.eat_kw(Kw::Cspec) {
            ty = Type::Cspec(Arc::new(ty));
        } else if self.eat_kw(Kw::Vspec) {
            ty = Type::Vspec(Arc::new(ty));
        }
        if self.peek() == &Tok::P(P::LParen) && self.peek2() == &Tok::P(P::Star) {
            self.bump();
            self.bump();
            self.expect_p(P::RParen)?;
            let params = self.param_types()?;
            ty = Type::Ptr(Arc::new(Type::Func(Arc::new(FuncSig { ret: ty, params }))));
        }
        Ok(ty)
    }

    // ---- top level -------------------------------------------------------

    fn unit(&mut self) -> Result<(), FrontError> {
        while self.peek() != &Tok::Eof {
            let line = self.line();
            let base = self.base_type()?;
            // Bare struct definition: `struct S { ... };`
            if matches!(base, Type::Struct(_)) && self.eat_p(P::Semi) {
                continue;
            }
            let (name, ty) = self.declarator(base.clone())?;
            if self.peek() == &Tok::P(P::LParen) && !matches!(ty, Type::Ptr(_)) {
                // Function definition or prototype.
                let params = self.params()?;
                if self.eat_p(P::Semi) {
                    continue; // prototype: ignored (defs carry the truth)
                }
                let body = self.block()?;
                self.unit.funcs.push(RawFunc {
                    name,
                    ret: ty,
                    params,
                    body,
                    line,
                });
                continue;
            }
            // Global declaration list.
            let mut items = Vec::new();
            let init = if self.eat_p(P::Assign) {
                Some(self.initializer()?)
            } else {
                None
            };
            items.push(DeclItem {
                name,
                ty,
                init,
                local_id: usize::MAX,
            });
            while self.eat_p(P::Comma) {
                let (n, t) = self.declarator(base.clone())?;
                let init = if self.eat_p(P::Assign) {
                    Some(self.initializer()?)
                } else {
                    None
                };
                items.push(DeclItem {
                    name: n,
                    ty: t,
                    init,
                    local_id: usize::MAX,
                });
            }
            self.expect_p(P::Semi)?;
            self.unit.globals.extend(items);
        }
        Ok(())
    }

    fn initializer(&mut self) -> Result<Init, FrontError> {
        if self.eat_p(P::LBrace) {
            let mut list = Vec::new();
            if !self.eat_p(P::RBrace) {
                loop {
                    list.push(self.initializer()?);
                    if !self.eat_p(P::Comma) {
                        break;
                    }
                    if self.peek() == &Tok::P(P::RBrace) {
                        break; // trailing comma
                    }
                }
                self.expect_p(P::RBrace)?;
            }
            Ok(Init::List(list))
        } else {
            Ok(Init::Expr(self.assign_expr()?))
        }
    }

    // ---- statements ------------------------------------------------------

    fn block(&mut self) -> Result<Vec<Stmt>, FrontError> {
        self.expect_p(P::LBrace)?;
        let mut out = Vec::new();
        while !self.eat_p(P::RBrace) {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn decl_stmt(&mut self) -> Result<Stmt, FrontError> {
        let base = self.base_type()?;
        let mut items = Vec::new();
        loop {
            let (name, ty) = self.declarator(base.clone())?;
            let init = if self.eat_p(P::Assign) {
                Some(self.initializer()?)
            } else {
                None
            };
            items.push(DeclItem {
                name,
                ty,
                init,
                local_id: usize::MAX,
            });
            if !self.eat_p(P::Comma) {
                break;
            }
        }
        self.expect_p(P::Semi)?;
        Ok(Stmt::Decl(items))
    }

    fn stmt(&mut self) -> Result<Stmt, FrontError> {
        if self.starts_type() {
            return self.decl_stmt();
        }
        match self.peek() {
            Tok::P(P::LBrace) => Ok(Stmt::Block(self.block()?)),
            Tok::P(P::Semi) => {
                self.bump();
                Ok(Stmt::Empty)
            }
            Tok::Kw(Kw::If) => {
                self.bump();
                self.expect_p(P::LParen)?;
                let c = self.expr()?;
                self.expect_p(P::RParen)?;
                let t = Box::new(self.stmt()?);
                let e = if self.eat_kw(Kw::Else) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If(c, t, e))
            }
            Tok::Kw(Kw::While) => {
                self.bump();
                self.expect_p(P::LParen)?;
                let c = self.expr()?;
                self.expect_p(P::RParen)?;
                Ok(Stmt::While(c, Box::new(self.stmt()?)))
            }
            Tok::Kw(Kw::Do) => {
                self.bump();
                let b = Box::new(self.stmt()?);
                if !self.eat_kw(Kw::While) {
                    return Err(self.err("expected while after do body"));
                }
                self.expect_p(P::LParen)?;
                let c = self.expr()?;
                self.expect_p(P::RParen)?;
                self.expect_p(P::Semi)?;
                Ok(Stmt::DoWhile(b, c))
            }
            Tok::Kw(Kw::For) => {
                self.bump();
                self.expect_p(P::LParen)?;
                let init = if self.eat_p(P::Semi) {
                    None
                } else if self.starts_type() {
                    Some(Box::new(self.decl_stmt()?))
                } else {
                    let e = self.expr()?;
                    self.expect_p(P::Semi)?;
                    Some(Box::new(Stmt::Expr(e)))
                };
                let cond = if self.peek() == &Tok::P(P::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_p(P::Semi)?;
                let step = if self.peek() == &Tok::P(P::RParen) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_p(P::RParen)?;
                Ok(Stmt::For(init, cond, step, Box::new(self.stmt()?)))
            }
            Tok::Kw(Kw::Return) => {
                self.bump();
                if self.eat_p(P::Semi) {
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.expr()?;
                    self.expect_p(P::Semi)?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            Tok::Kw(Kw::Break) => {
                self.bump();
                self.expect_p(P::Semi)?;
                Ok(Stmt::Break)
            }
            Tok::Kw(Kw::Continue) => {
                self.bump();
                self.expect_p(P::Semi)?;
                Ok(Stmt::Continue)
            }
            Tok::Kw(Kw::Goto) => {
                self.bump();
                let l = self.expect_ident()?;
                self.expect_p(P::Semi)?;
                Ok(Stmt::Goto(l))
            }
            Tok::Kw(Kw::Switch) => {
                self.bump();
                self.expect_p(P::LParen)?;
                let scrut = self.expr()?;
                self.expect_p(P::RParen)?;
                self.expect_p(P::LBrace)?;
                let mut items = Vec::new();
                while !self.eat_p(P::RBrace) {
                    if self.eat_kw(Kw::Case) {
                        let v = match self.bump() {
                            Tok::Int(v, _) => v,
                            Tok::Char(c) => c as i64,
                            Tok::P(P::Minus) => match self.bump() {
                                Tok::Int(v, _) => -v,
                                t => return Err(self.err(format!("bad case value {t}"))),
                            },
                            t => return Err(self.err(format!("bad case value {t}"))),
                        };
                        self.expect_p(P::Colon)?;
                        items.push(SwitchItem::Case(v));
                    } else if self.eat_kw(Kw::Default) {
                        self.expect_p(P::Colon)?;
                        items.push(SwitchItem::Default);
                    } else {
                        items.push(SwitchItem::Stmt(self.stmt()?));
                    }
                }
                Ok(Stmt::Switch(scrut, items))
            }
            Tok::Ident(_) if self.peek2() == &Tok::P(P::Colon) => {
                let name = self.expect_ident()?;
                self.bump();
                Ok(Stmt::Labeled(name, Box::new(self.stmt()?)))
            }
            _ => {
                let e = self.expr()?;
                self.expect_p(P::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, FrontError> {
        let line = self.line();
        let mut e = self.assign_expr()?;
        while self.eat_p(P::Comma) {
            let rhs = self.assign_expr()?;
            e = Expr::new(ExprKind::Comma(Box::new(e), Box::new(rhs)), line);
        }
        Ok(e)
    }

    fn assign_expr(&mut self) -> Result<Expr, FrontError> {
        let line = self.line();
        let lhs = self.cond_expr()?;
        let op = match self.peek() {
            Tok::P(P::Assign) => None,
            Tok::P(P::PlusEq) => Some(BinaryOp::Add),
            Tok::P(P::MinusEq) => Some(BinaryOp::Sub),
            Tok::P(P::StarEq) => Some(BinaryOp::Mul),
            Tok::P(P::SlashEq) => Some(BinaryOp::Div),
            Tok::P(P::PercentEq) => Some(BinaryOp::Rem),
            Tok::P(P::ShlEq) => Some(BinaryOp::Shl),
            Tok::P(P::ShrEq) => Some(BinaryOp::Shr),
            Tok::P(P::AmpEq) => Some(BinaryOp::BitAnd),
            Tok::P(P::PipeEq) => Some(BinaryOp::BitOr),
            Tok::P(P::CaretEq) => Some(BinaryOp::BitXor),
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.assign_expr()?;
        Ok(Expr::new(
            ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)),
            line,
        ))
    }

    fn cond_expr(&mut self) -> Result<Expr, FrontError> {
        let line = self.line();
        let c = self.binary_expr(0)?;
        if self.eat_p(P::Question) {
            let t = self.expr()?;
            self.expect_p(P::Colon)?;
            let e = self.cond_expr()?;
            return Ok(Expr::new(
                ExprKind::Cond(Box::new(c), Box::new(t), Box::new(e)),
                line,
            ));
        }
        Ok(c)
    }

    fn bin_op_prec(&self) -> Option<(BinaryOp, u8)> {
        Some(match self.peek() {
            Tok::P(P::PipePipe) => (BinaryOp::LogOr, 1),
            Tok::P(P::AmpAmp) => (BinaryOp::LogAnd, 2),
            Tok::P(P::Pipe) => (BinaryOp::BitOr, 3),
            Tok::P(P::Caret) => (BinaryOp::BitXor, 4),
            Tok::P(P::Amp) => (BinaryOp::BitAnd, 5),
            Tok::P(P::EqEq) => (BinaryOp::Eq, 6),
            Tok::P(P::Ne) => (BinaryOp::Ne, 6),
            Tok::P(P::Lt) => (BinaryOp::Lt, 7),
            Tok::P(P::Gt) => (BinaryOp::Gt, 7),
            Tok::P(P::Le) => (BinaryOp::Le, 7),
            Tok::P(P::Ge) => (BinaryOp::Ge, 7),
            Tok::P(P::Shl) => (BinaryOp::Shl, 8),
            Tok::P(P::Shr) => (BinaryOp::Shr, 8),
            Tok::P(P::Plus) => (BinaryOp::Add, 9),
            Tok::P(P::Minus) => (BinaryOp::Sub, 9),
            Tok::P(P::Star) => (BinaryOp::Mul, 10),
            Tok::P(P::Slash) => (BinaryOp::Div, 10),
            Tok::P(P::Percent) => (BinaryOp::Rem, 10),
            _ => return None,
        })
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, FrontError> {
        let mut lhs = self.unary_expr()?;
        while let Some((op, prec)) = self.bin_op_prec() {
            if prec < min_prec {
                break;
            }
            let line = self.line();
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            lhs = Expr::new(ExprKind::Bin(op, Box::new(lhs), Box::new(rhs)), line);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, FrontError> {
        let line = self.line();
        match self.peek() {
            Tok::P(P::Inc) => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::new(ExprKind::PreIncDec(Box::new(e), true), line))
            }
            Tok::P(P::Dec) => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::new(ExprKind::PreIncDec(Box::new(e), false), line))
            }
            Tok::P(P::Plus) => {
                self.bump();
                self.unary_expr()
            }
            Tok::P(P::Minus) => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::new(ExprKind::Un(UnaryOp::Neg, Box::new(e)), line))
            }
            Tok::P(P::Tilde) => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::new(ExprKind::Un(UnaryOp::BitNot, Box::new(e)), line))
            }
            Tok::P(P::Bang) => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::new(ExprKind::Un(UnaryOp::LogNot, Box::new(e)), line))
            }
            Tok::P(P::Star) => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::new(ExprKind::Un(UnaryOp::Deref, Box::new(e)), line))
            }
            Tok::P(P::Amp) => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::new(ExprKind::Un(UnaryOp::Addr, Box::new(e)), line))
            }
            Tok::P(P::Backquote) => {
                self.bump();
                if self.peek() == &Tok::P(P::LBrace) {
                    let b = self.block()?;
                    Ok(Expr::new(
                        ExprKind::TickRaw(Box::new(TickBody::Block(b))),
                        line,
                    ))
                } else {
                    let e = self.unary_expr()?;
                    Ok(Expr::new(
                        ExprKind::TickRaw(Box::new(TickBody::Expr(e))),
                        line,
                    ))
                }
            }
            Tok::P(P::Dollar) => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::new(ExprKind::Dollar(Box::new(e)), line))
            }
            Tok::P(P::At) => {
                // `@expr` is accepted as an explicit splice marker but is
                // semantically identical to mentioning the cspec.
                self.bump();
                self.unary_expr()
            }
            Tok::Kw(Kw::Sizeof) => {
                self.bump();
                if self.peek() == &Tok::P(P::LParen) && matches!(self.peek2(), Tok::Kw(_)) && {
                    // sizeof(type)
                    let save = self.pos;
                    self.bump();
                    let is_ty = self.starts_type();
                    self.pos = save;
                    is_ty
                } {
                    self.bump();
                    let ty = self.type_name()?;
                    self.expect_p(P::RParen)?;
                    Ok(Expr::new(ExprKind::SizeofT(ty), line))
                } else {
                    let e = self.unary_expr()?;
                    Ok(Expr::new(ExprKind::SizeofE(Box::new(e)), line))
                }
            }
            Tok::P(P::LParen) => {
                // Cast or parenthesized expression.
                let save = self.pos;
                self.bump();
                if self.starts_type() {
                    let ty = self.type_name()?;
                    self.expect_p(P::RParen)?;
                    let e = self.unary_expr()?;
                    return Ok(Expr::new(ExprKind::Cast(ty, Box::new(e)), line));
                }
                self.pos = save;
                self.postfix_expr()
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, FrontError> {
        let mut e = self.primary_expr()?;
        loop {
            let line = self.line();
            match self.peek() {
                Tok::P(P::LParen) => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat_p(P::RParen) {
                        loop {
                            args.push(self.assign_expr()?);
                            if !self.eat_p(P::Comma) {
                                break;
                            }
                        }
                        self.expect_p(P::RParen)?;
                    }
                    e = Expr::new(ExprKind::Call(Box::new(e), args), line);
                }
                Tok::P(P::LBracket) => {
                    self.bump();
                    let i = self.expr()?;
                    self.expect_p(P::RBracket)?;
                    e = Expr::new(ExprKind::Index(Box::new(e), Box::new(i)), line);
                }
                Tok::P(P::Dot) => {
                    self.bump();
                    let f = self.expect_ident()?;
                    e = Expr::new(ExprKind::Member(Box::new(e), f, false, 0), line);
                }
                Tok::P(P::Arrow) => {
                    self.bump();
                    let f = self.expect_ident()?;
                    e = Expr::new(ExprKind::Member(Box::new(e), f, true, 0), line);
                }
                Tok::P(P::Inc) => {
                    self.bump();
                    e = Expr::new(ExprKind::PostIncDec(Box::new(e), true), line);
                }
                Tok::P(P::Dec) => {
                    self.bump();
                    e = Expr::new(ExprKind::PostIncDec(Box::new(e), false), line);
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, FrontError> {
        let line = self.line();
        match self.bump() {
            Tok::Int(v, long) => {
                let mut e = Expr::new(ExprKind::IntLit(v), line);
                if long {
                    e = Expr::new(ExprKind::Cast(Type::Long, Box::new(e)), line);
                }
                Ok(e)
            }
            Tok::Float(v) => Ok(Expr::new(ExprKind::FloatLit(v), line)),
            Tok::Char(c) => Ok(Expr::new(ExprKind::IntLit(c as i64), line)),
            Tok::Str(s) => Ok(Expr::new(ExprKind::StrLit(s), line)),
            Tok::Ident(name) => Ok(Expr::new(ExprKind::Ident(name), line)),
            Tok::P(P::LParen) => {
                let e = self.expr()?;
                self.expect_p(P::RParen)?;
                Ok(e)
            }
            Tok::Kw(Kw::Compile) => {
                self.expect_p(P::LParen)?;
                let c = self.assign_expr()?;
                self.expect_p(P::Comma)?;
                let ty = self.type_name()?;
                self.expect_p(P::RParen)?;
                Ok(Expr::new(ExprKind::CompileExpr(Box::new(c), ty), line))
            }
            Tok::Kw(Kw::Local) => {
                self.expect_p(P::LParen)?;
                let ty = self.type_name()?;
                self.expect_p(P::RParen)?;
                Ok(Expr::new(ExprKind::LocalForm(ty), line))
            }
            Tok::Kw(Kw::Param) => {
                self.expect_p(P::LParen)?;
                let ty = self.type_name()?;
                self.expect_p(P::Comma)?;
                let idx = self.assign_expr()?;
                self.expect_p(P::RParen)?;
                Ok(Expr::new(ExprKind::ParamForm(ty, Box::new(idx)), line))
            }
            t => Err(FrontError::Parse {
                line,
                msg: format!("expected an expression, found {t}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_hello_world_tick() {
        let src = r#"
            void f(void) {
                void cspec hello = `{ printf("hello world\n"); };
                (*compile(hello, void))();
            }
        "#;
        let u = parse(src).unwrap();
        assert_eq!(u.funcs.len(), 1);
        assert_eq!(u.funcs[0].name, "f");
    }

    #[test]
    fn parses_cspec_composition() {
        let src = r#"
            int f(void) {
                int cspec c1 = `4, cspec c2 = `5;
                int cspec c = `($c1 + $c2);
                return 0;
            }
        "#;
        // NOTE: composition without $ also parses:
        let src2 = r#"
            int f(void) {
                int cspec c1 = `4, cspec c2 = `5;
                int cspec c = `(c1 + c2);
                return 0;
            }
        "#;
        parse(src).unwrap();
        parse(src2).unwrap();
    }

    #[test]
    fn parses_structs_arrays_funcptrs() {
        let src = r#"
            struct rec { int key; int a; int b; };
            struct rec table[100];
            int apply(int (*f)(int, int), int x, int y) { return f(x, y); }
            int deref_apply(int (*f)(int, int), int x) { return (*f)(x, x); }
        "#;
        let u = parse(src).unwrap();
        assert_eq!(u.structs.len(), 1);
        assert_eq!(u.structs[0].size, 12);
        assert_eq!(u.globals.len(), 1);
        assert_eq!(u.funcs.len(), 2);
        assert_eq!(u.funcs[0].params.len(), 3);
    }

    #[test]
    fn parses_control_flow_and_switch() {
        let src = r#"
            int f(int x) {
                int s = 0;
                for (s = 0; x > 0; x--) s += x;
                while (x < 10) { x++; if (x == 5) continue; }
                do { x--; } while (x);
                switch (s) {
                    case 1: s = 10; break;
                    case 2:
                    case 3: s = 20; break;
                    default: s = 30;
                }
                goto out;
                out: return s;
            }
        "#;
        parse(src).unwrap();
    }

    #[test]
    fn parses_dollar_binding_tightly_over_postfix() {
        let src = "int f(int k) { int cspec c = `($row[k] + 1); return 0; } int row[4];";
        let u = parse(src).unwrap();
        // $ applies to row[k] (postfix binds into the unary operand)
        let _ = u;
    }

    #[test]
    fn parses_special_forms() {
        let src = r#"
            void f(void) {
                int vspec v = local(int);
                int vspec p = param(int, 0);
                void cspec c = `{ v = p + 1; };
                compile(c, void);
            }
        "#;
        parse(src).unwrap();
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("int f( {").is_err());
        assert!(parse("int 3x;").is_err());
        assert!(parse("void f(void) { return 1 }").is_err());
    }

    #[test]
    fn parses_initializer_lists() {
        let src = "int a[4] = {1, 2, 3, 4}; double d = 1.5; char *s = \"hi\";";
        let u = parse(src).unwrap();
        assert_eq!(u.globals.len(), 3);
        assert!(matches!(u.globals[0].init, Some(Init::List(_))));
    }
}
