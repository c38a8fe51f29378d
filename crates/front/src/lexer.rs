//! The `C lexer.

use crate::error::FrontError;
use crate::token::{keyword, Spanned, Tok, P};

/// Tokenizes `src`.
///
/// # Errors
///
/// Returns [`FrontError`] on malformed literals or stray characters.
pub fn lex(src: &str) -> Result<Vec<Spanned>, FrontError> {
    Lexer {
        src,
        b: src.as_bytes(),
        pos: 0,
        line: 1,
    }
    .run(Vec::with_capacity(src.len() / BYTES_PER_TOKEN + 1))
}

/// Fewest source bytes per token in typical `C, for sizing the token
/// vector once, up front (the suite's programs run 2.9 to 3.8).
const BYTES_PER_TOKEN: usize = 2;

struct Lexer<'a> {
    src: &'a str,
    b: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    fn run(mut self, mut out: Vec<Spanned>) -> Result<Vec<Spanned>, FrontError> {
        loop {
            self.skip_ws_and_comments()?;
            let line = self.line;
            if self.pos >= self.b.len() {
                out.push(Spanned {
                    tok: Tok::Eof,
                    line,
                });
                return Ok(out);
            }
            let tok = self.next_token()?;
            out.push(Spanned { tok, line });
        }
    }

    fn err(&self, msg: impl Into<String>) -> FrontError {
        FrontError::Lex {
            line: self.line,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> u8 {
        *self.b.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.b.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        c
    }

    fn skip_ws_and_comments(&mut self) -> Result<(), FrontError> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek2() == b'*' => {
                    self.bump();
                    self.bump();
                    loop {
                        if self.pos >= self.b.len() {
                            return Err(self.err("unterminated comment"));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.bump();
                            self.bump();
                            break;
                        }
                        self.bump();
                    }
                }
                b'/' if self.peek2() == b'/' => {
                    while self.pos < self.b.len() && self.peek() != b'\n' {
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Tok, FrontError> {
        let c = self.peek();
        if c.is_ascii_alphabetic() || c == b'_' {
            return Ok(self.ident_or_kw());
        }
        if c.is_ascii_digit() || (c == b'.' && self.peek2().is_ascii_digit()) {
            return self.number();
        }
        match c {
            b'"' => return self.string(),
            b'\'' => return self.char_lit(),
            _ => {}
        }
        self.bump();
        let two = |l: &mut Lexer<'_>, p: P| {
            l.bump();
            Tok::P(p)
        };
        let tok = match c {
            b'{' => Tok::P(P::LBrace),
            b'}' => Tok::P(P::RBrace),
            b'(' => Tok::P(P::LParen),
            b')' => Tok::P(P::RParen),
            b'[' => Tok::P(P::LBracket),
            b']' => Tok::P(P::RBracket),
            b';' => Tok::P(P::Semi),
            b',' => Tok::P(P::Comma),
            b'?' => Tok::P(P::Question),
            b':' => Tok::P(P::Colon),
            b'~' => Tok::P(P::Tilde),
            b'`' => Tok::P(P::Backquote),
            b'$' => Tok::P(P::Dollar),
            b'@' => Tok::P(P::At),
            b'.' => Tok::P(P::Dot),
            b'+' => match self.peek() {
                b'+' => two(self, P::Inc),
                b'=' => two(self, P::PlusEq),
                _ => Tok::P(P::Plus),
            },
            b'-' => match self.peek() {
                b'-' => two(self, P::Dec),
                b'=' => two(self, P::MinusEq),
                b'>' => two(self, P::Arrow),
                _ => Tok::P(P::Minus),
            },
            b'*' => match self.peek() {
                b'=' => two(self, P::StarEq),
                _ => Tok::P(P::Star),
            },
            b'/' => match self.peek() {
                b'=' => two(self, P::SlashEq),
                _ => Tok::P(P::Slash),
            },
            b'%' => match self.peek() {
                b'=' => two(self, P::PercentEq),
                _ => Tok::P(P::Percent),
            },
            b'&' => match self.peek() {
                b'&' => two(self, P::AmpAmp),
                b'=' => two(self, P::AmpEq),
                _ => Tok::P(P::Amp),
            },
            b'|' => match self.peek() {
                b'|' => two(self, P::PipePipe),
                b'=' => two(self, P::PipeEq),
                _ => Tok::P(P::Pipe),
            },
            b'^' => match self.peek() {
                b'=' => two(self, P::CaretEq),
                _ => Tok::P(P::Caret),
            },
            b'!' => match self.peek() {
                b'=' => two(self, P::Ne),
                _ => Tok::P(P::Bang),
            },
            b'=' => match self.peek() {
                b'=' => two(self, P::EqEq),
                _ => Tok::P(P::Assign),
            },
            b'<' => match self.peek() {
                b'<' => {
                    self.bump();
                    if self.peek() == b'=' {
                        two(self, P::ShlEq)
                    } else {
                        Tok::P(P::Shl)
                    }
                }
                b'=' => two(self, P::Le),
                _ => Tok::P(P::Lt),
            },
            b'>' => match self.peek() {
                b'>' => {
                    self.bump();
                    if self.peek() == b'=' {
                        two(self, P::ShrEq)
                    } else {
                        Tok::P(P::Shr)
                    }
                }
                b'=' => two(self, P::Ge),
                _ => Tok::P(P::Gt),
            },
            _ => return Err(self.err(format!("stray character {:?}", c as char))),
        };
        Ok(tok)
    }

    fn ident_or_kw(&mut self) -> Tok {
        let start = self.pos;
        while self.peek().is_ascii_alphanumeric() || self.peek() == b'_' {
            self.bump();
        }
        let s = &self.src[start..self.pos];
        match keyword(s) {
            Some(k) => Tok::Kw(k),
            None => Tok::Ident(s.to_string()),
        }
    }

    fn number(&mut self) -> Result<Tok, FrontError> {
        let start = self.pos;
        if self.peek() == b'0' && (self.peek2() == b'x' || self.peek2() == b'X') {
            self.bump();
            self.bump();
            let hs = self.pos;
            while self.peek().is_ascii_hexdigit() {
                self.bump();
            }
            let s = &self.src[hs..self.pos];
            let v = i64::from_str_radix(s, 16).map_err(|_| self.err("hex literal out of range"))?;
            let long = self.eat_long_suffix();
            return Ok(Tok::Int(v, long));
        }
        while self.peek().is_ascii_digit() {
            self.bump();
        }
        let is_float = self.peek() == b'.' || self.peek() == b'e' || self.peek() == b'E';
        if is_float {
            if self.peek() == b'.' {
                self.bump();
                while self.peek().is_ascii_digit() {
                    self.bump();
                }
            }
            if self.peek() == b'e' || self.peek() == b'E' {
                self.bump();
                if self.peek() == b'+' || self.peek() == b'-' {
                    self.bump();
                }
                while self.peek().is_ascii_digit() {
                    self.bump();
                }
            }
            let s = &self.src[start..self.pos];
            let v: f64 = s.parse().map_err(|_| self.err("bad float literal"))?;
            return Ok(Tok::Float(v));
        }
        let s = &self.src[start..self.pos];
        // Octal per C if it starts with 0, otherwise decimal.
        let v = if s.len() > 1 && s.starts_with('0') {
            i64::from_str_radix(&s[1..], 8).map_err(|_| self.err("bad octal literal"))?
        } else {
            s.parse()
                .map_err(|_| self.err("integer literal out of range"))?
        };
        let long = self.eat_long_suffix();
        Ok(Tok::Int(v, long))
    }

    fn eat_long_suffix(&mut self) -> bool {
        if self.peek() == b'l' || self.peek() == b'L' {
            self.bump();
            true
        } else {
            if self.peek() == b'u' || self.peek() == b'U' {
                self.bump();
            }
            false
        }
    }

    fn escape(&mut self) -> Result<u8, FrontError> {
        let e = self.bump();
        Ok(match e {
            b'n' => b'\n',
            b't' => b'\t',
            b'r' => b'\r',
            b'0' => 0,
            b'\\' => b'\\',
            b'\'' => b'\'',
            b'"' => b'"',
            _ => return Err(self.err(format!("unknown escape \\{}", e as char))),
        })
    }

    fn string(&mut self) -> Result<Tok, FrontError> {
        self.bump(); // opening quote
        let mut out = Vec::new();
        loop {
            if self.pos >= self.b.len() {
                return Err(self.err("unterminated string literal"));
            }
            match self.bump() {
                b'"' => break,
                b'\\' => out.push(self.escape()?),
                c => out.push(c),
            }
        }
        Ok(Tok::Str(out))
    }

    fn char_lit(&mut self) -> Result<Tok, FrontError> {
        self.bump(); // opening quote
        let c = match self.bump() {
            b'\\' => self.escape()?,
            c => c,
        };
        if self.bump() != b'\'' {
            return Err(self.err("unterminated char literal"));
        }
        Ok(Tok::Char(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Kw;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_idents_and_numbers() {
        assert_eq!(
            toks("int x = 42;"),
            vec![
                Tok::Kw(Kw::Int),
                Tok::Ident("x".into()),
                Tok::P(P::Assign),
                Tok::Int(42, false),
                Tok::P(P::Semi),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn tick_extensions() {
        assert_eq!(
            toks("`4 + $x cspec vspec compile"),
            vec![
                Tok::P(P::Backquote),
                Tok::Int(4, false),
                Tok::P(P::Plus),
                Tok::P(P::Dollar),
                Tok::Ident("x".into()),
                Tok::Kw(Kw::Cspec),
                Tok::Kw(Kw::Vspec),
                Tok::Kw(Kw::Compile),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(
            toks("a <<= b >> c <= d < e"),
            vec![
                Tok::Ident("a".into()),
                Tok::P(P::ShlEq),
                Tok::Ident("b".into()),
                Tok::P(P::Shr),
                Tok::Ident("c".into()),
                Tok::P(P::Le),
                Tok::Ident("d".into()),
                Tok::P(P::Lt),
                Tok::Ident("e".into()),
                Tok::Eof
            ]
        );
        assert_eq!(
            toks("p->f ++x --y"),
            vec![
                Tok::Ident("p".into()),
                Tok::P(P::Arrow),
                Tok::Ident("f".into()),
                Tok::P(P::Inc),
                Tok::Ident("x".into()),
                Tok::P(P::Dec),
                Tok::Ident("y".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn literals() {
        assert_eq!(
            toks("0x10 010 1L 3.5 1e3 'a' '\\n'")[..7].to_vec(),
            vec![
                Tok::Int(16, false),
                Tok::Int(8, false),
                Tok::Int(1, true),
                Tok::Float(3.5),
                Tok::Float(1000.0),
                Tok::Char(b'a'),
                Tok::Char(b'\n'),
            ]
        );
        assert_eq!(toks(r#""hi\n""#)[0], Tok::Str(b"hi\n".to_vec()));
    }

    #[test]
    fn comments_and_lines() {
        let ts = lex("int /* c */ x; // tail\nint y;").unwrap();
        assert_eq!(ts[0].line, 1);
        let y_decl_line = ts
            .iter()
            .find(|s| s.tok == Tok::Ident("y".into()))
            .unwrap()
            .line;
        assert_eq!(y_decl_line, 2);
    }

    #[test]
    fn errors_are_reported_with_lines() {
        let e = lex("int x;\n#").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("line 2"), "{msg}");
    }
}
