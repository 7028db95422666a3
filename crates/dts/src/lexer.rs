//! The DTS lexer: hands the parser one token at a time.
//!
//! Payloads borrow from the source text; only a string with escapes is
//! copied. Positions come from the offset of the current line's first
//! byte, so `column` is the byte offset into the line plus one (a tab or
//! a multibyte character's continuation bytes each count as a column).

use std::borrow::Cow;

use crate::error::{DtsError, Position};

/// A lexical token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token<'s> {
    pub(crate) kind: TokenKind<'s>,
    pub(crate) at: Position,
}

impl Token<'_> {
    /// The token with its payload copied out of the source text.
    pub(crate) fn into_owned(self) -> Token<'static> {
        let own = |s: Cow<'_, str>| Cow::Owned(s.into_owned());
        let kind = match self.kind {
            TokenKind::Ident(s) => TokenKind::Ident(own(s)),
            TokenKind::Ref(s) => TokenKind::Ref(own(s)),
            TokenKind::Str(s) => TokenKind::Str(own(s)),
            TokenKind::HexRun(s) => TokenKind::HexRun(own(s)),
            TokenKind::Label(s) => TokenKind::Label(own(s)),
            TokenKind::DtsV1 => TokenKind::DtsV1,
            TokenKind::Include => TokenKind::Include,
            TokenKind::DeleteNode => TokenKind::DeleteNode,
            TokenKind::DeleteProperty => TokenKind::DeleteProperty,
            TokenKind::MemReserve => TokenKind::MemReserve,
            TokenKind::Num(n) => TokenKind::Num(n),
            TokenKind::LBrace => TokenKind::LBrace,
            TokenKind::RBrace => TokenKind::RBrace,
            TokenKind::Lt => TokenKind::Lt,
            TokenKind::Gt => TokenKind::Gt,
            TokenKind::LBracket => TokenKind::LBracket,
            TokenKind::RBracket => TokenKind::RBracket,
            TokenKind::Semi => TokenKind::Semi,
            TokenKind::Comma => TokenKind::Comma,
            TokenKind::Eq => TokenKind::Eq,
            TokenKind::Slash => TokenKind::Slash,
            TokenKind::Eof => TokenKind::Eof,
        };
        Token { kind, at: self.at }
    }
}

/// Token kinds of the DTS grammar subset used by the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TokenKind<'s> {
    /// `/dts-v1/` version tag.
    DtsV1,
    /// `/include/` directive keyword.
    Include,
    /// `/delete-node/` directive keyword.
    DeleteNode,
    /// `/delete-property/` directive keyword.
    DeleteProperty,
    /// `/memreserve/` directive keyword.
    MemReserve,
    /// A name: node names (possibly with `@unit`), property names
    /// (possibly with `#`, `-`, `,`, `.`), label names.
    Ident(Cow<'s, str>),
    /// `&label` reference.
    Ref(Cow<'s, str>),
    /// A quoted string literal (unescaped contents).
    Str(Cow<'s, str>),
    /// An integer literal inside a cell list.
    Num(u64),
    /// A bare run of hex digits inside `[ … ]`, kept verbatim so the
    /// parser sees the full lexeme width (`[ 0011 ]` is two bytes, not
    /// the number 0x11).
    HexRun(Cow<'s, str>),
    /// `label:` — the ident plus the colon.
    Label(Cow<'s, str>),
    LBrace,
    RBrace,
    Lt,
    Gt,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Eq,
    /// `/` — the root node name.
    Slash,
    Eof,
}

impl TokenKind<'_> {
    pub(crate) fn describe(&self) -> String {
        match self {
            TokenKind::DtsV1 => "'/dts-v1/'".into(),
            TokenKind::Include => "'/include/'".into(),
            TokenKind::DeleteNode => "'/delete-node/'".into(),
            TokenKind::DeleteProperty => "'/delete-property/'".into(),
            TokenKind::MemReserve => "'/memreserve/'".into(),
            TokenKind::Ident(s) => format!("identifier {s:?}"),
            TokenKind::Ref(s) => format!("reference &{s}"),
            TokenKind::Str(s) => format!("string {s:?}"),
            TokenKind::Num(n) => format!("number {n:#x}"),
            TokenKind::HexRun(s) => format!("byte string run {s:?}"),
            TokenKind::Label(s) => format!("label {s}:"),
            TokenKind::LBrace => "'{'".into(),
            TokenKind::RBrace => "'}'".into(),
            TokenKind::Lt => "'<'".into(),
            TokenKind::Gt => "'>'".into(),
            TokenKind::LBracket => "'['".into(),
            TokenKind::RBracket => "']'".into(),
            TokenKind::Semi => "';'".into(),
            TokenKind::Comma => "','".into(),
            TokenKind::Eq => "'='".into(),
            TokenKind::Slash => "'/'".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

/// Where a [`Lexer`] stands in its source, so lexing of a source that
/// the lexer cannot borrow for long (an included file) can stop and
/// resume.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LexState {
    pos: usize,
    line: u32,
    /// Byte offset of the current line's first byte.
    line_start: usize,
    /// Inside `[ … ]` byte strings, bare tokens are hex bytes.
    hex_mode: bool,
}

impl LexState {
    /// The state at the start of a source.
    pub(crate) const START: LexState = LexState {
        pos: 0,
        line: 1,
        line_start: 0,
        hex_mode: false,
    };
}

pub(crate) struct Lexer<'s> {
    src: &'s str,
    state: LexState,
}

/// Characters permitted inside node/property names. The DeviceTree spec
/// allows `a-zA-Z0-9,._+-` for property names and additionally `@` (unit
/// address separator) and `#` in common practice.
fn is_name_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b',' | b'.' | b'_' | b'+' | b'-' | b'@' | b'#' | b'?')
}

impl<'s> Lexer<'s> {
    pub(crate) fn new(src: &'s str) -> Lexer<'s> {
        Lexer::resume(src, LexState::START)
    }

    /// A lexer over `src` continuing from `state`.
    pub(crate) fn resume(src: &'s str, state: LexState) -> Lexer<'s> {
        Lexer { src, state }
    }

    /// Where this lexer stands, for [`Lexer::resume`].
    pub(crate) fn state(&self) -> LexState {
        self.state
    }

    fn here(&self) -> Position {
        let s = &self.state;
        Position::new(s.line, (s.pos - s.line_start + 1) as u32)
    }

    fn byte(&self, at: usize) -> Option<u8> {
        self.src.as_bytes().get(at).copied()
    }

    fn peek(&self) -> Option<u8> {
        self.byte(self.state.pos)
    }

    /// Moves to byte offset `end`, counting the newlines passed.
    fn advance_to(&mut self, end: usize) {
        let s = &mut self.state;
        for (i, &b) in self.src.as_bytes()[s.pos..end].iter().enumerate() {
            if b == b'\n' {
                s.line += 1;
                s.line_start = s.pos + i + 1;
            }
        }
        s.pos = end;
    }

    /// The end of the run of name characters starting at the cursor.
    fn name_end(&self) -> usize {
        let start = self.state.pos;
        start
            + self.src.as_bytes()[start..]
                .iter()
                .take_while(|&&c| is_name_char(c))
                .count()
    }

    fn skip_trivia(&mut self) -> Result<(), DtsError> {
        let bytes = self.src.as_bytes();
        loop {
            let pos = self.state.pos;
            match self.peek() {
                Some(b'\n') => {
                    let s = &mut self.state;
                    s.pos += 1;
                    s.line += 1;
                    s.line_start = s.pos;
                }
                Some(c) if c.is_ascii_whitespace() => self.state.pos += 1,
                Some(b'/') if self.byte(pos + 1) == Some(b'/') => {
                    // The newline itself is left for the next round.
                    self.state.pos = bytes[pos..]
                        .iter()
                        .position(|&c| c == b'\n')
                        .map_or(bytes.len(), |i| pos + i);
                }
                Some(b'/') if self.byte(pos + 1) == Some(b'*') => {
                    let at = self.here();
                    let body = pos + 2;
                    let Some(i) = bytes[body..].windows(2).position(|w| w == b"*/") else {
                        return Err(DtsError::Unterminated {
                            at,
                            what: "comment",
                        });
                    };
                    self.advance_to(body + i + 2);
                }
                _ => return Ok(()),
            }
        }
    }

    /// A string literal: borrowed up to the closing quote, copied only
    /// when it holds an escape.
    fn lex_string(&mut self) -> Result<TokenKind<'s>, DtsError> {
        let at = self.here();
        let unterminated = DtsError::Unterminated { at, what: "string" };
        let src = self.src;
        let body = self.state.pos + 1;
        let Some(stop) = src.as_bytes()[body..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .map(|i| body + i)
        else {
            return Err(unterminated);
        };
        if src.as_bytes()[stop] == b'"' {
            self.advance_to(stop + 1);
            return Ok(TokenKind::Str(Cow::Borrowed(&src[body..stop])));
        }
        let mut out = String::from(&src[body..stop]);
        let mut chars = src[stop..].char_indices();
        loop {
            match chars.next() {
                None => return Err(unterminated),
                Some((i, '"')) => {
                    self.advance_to(stop + i + 1);
                    return Ok(TokenKind::Str(Cow::Owned(out)));
                }
                Some((_, '\\')) => match chars.next() {
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, '0')) => out.push('\0'),
                    Some((_, c)) => out.push(c),
                    None => return Err(unterminated),
                },
                Some((_, c)) => out.push(c),
            }
        }
    }

    fn lex_number_or_name(&mut self) -> Result<TokenKind<'s>, DtsError> {
        let at = self.here();
        let src = self.src;
        let start = self.state.pos;
        self.state.pos = self.name_end();
        // Name characters are ASCII, so the slice is on char boundaries.
        let text = &src[start..self.state.pos];
        let bad = |text: &str| DtsError::BadNumber {
            at,
            text: text.to_string(),
        };
        // Inside byte strings every bare token is a raw hex-digit run;
        // keep the lexeme verbatim so leading zero bytes survive.
        if self.state.hex_mode {
            if !text.is_empty() && text.bytes().all(|c| c.is_ascii_hexdigit()) {
                return Ok(TokenKind::HexRun(Cow::Borrowed(text)));
            }
            return Err(bad(text));
        }
        // A label is a plain identifier immediately followed by ':'.
        if self.peek() == Some(b':') && !text.is_empty() && !text.contains('@') {
            self.state.pos += 1;
            return Ok(TokenKind::Label(Cow::Borrowed(text)));
        }
        // Numbers: 0x…, or all-decimal digits.
        if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
            return u64::from_str_radix(hex, 16)
                .map(TokenKind::Num)
                .map_err(|_| bad(text));
        }
        if !text.is_empty() && text.bytes().all(|c| c.is_ascii_digit()) {
            return text
                .parse::<u64>()
                .map(TokenKind::Num)
                .map_err(|_| bad(text));
        }
        Ok(TokenKind::Ident(Cow::Borrowed(text)))
    }

    pub(crate) fn next_token(&mut self) -> Result<Token<'s>, DtsError> {
        self.skip_trivia()?;
        let at = self.here();
        let Some(c) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                at,
            });
        };
        let single = match c {
            b'{' => Some(TokenKind::LBrace),
            b'}' => Some(TokenKind::RBrace),
            b'<' => Some(TokenKind::Lt),
            b'>' => Some(TokenKind::Gt),
            b'[' => Some(TokenKind::LBracket),
            b']' => Some(TokenKind::RBracket),
            b';' => Some(TokenKind::Semi),
            b',' => Some(TokenKind::Comma),
            b'=' => Some(TokenKind::Eq),
            _ => None,
        };
        if let Some(kind) = single {
            self.state.pos += 1;
            match kind {
                TokenKind::LBracket => self.state.hex_mode = true,
                TokenKind::RBracket => self.state.hex_mode = false,
                _ => {}
            }
            return Ok(Token { kind, at });
        }
        let kind = match c {
            b'"' => self.lex_string()?,
            b'&' => {
                self.state.pos += 1;
                let start = self.state.pos;
                self.state.pos = self.name_end();
                if self.state.pos == start {
                    return Err(DtsError::Lex { at, found: '&' });
                }
                TokenKind::Ref(Cow::Borrowed(&self.src[start..self.state.pos]))
            }
            b'/' => {
                // Either a directive /word/ or the bare root name '/'.
                let rest = &self.src.as_bytes()[self.state.pos + 1..];
                let directive = |word: &[u8]| -> bool {
                    rest.len() > word.len() && rest.starts_with(word) && rest[word.len()] == b'/'
                };
                let (kind, len) = if directive(b"dts-v1") {
                    (TokenKind::DtsV1, "/dts-v1/".len())
                } else if directive(b"include") {
                    (TokenKind::Include, "/include/".len())
                } else if directive(b"delete-node") {
                    (TokenKind::DeleteNode, "/delete-node/".len())
                } else if directive(b"delete-property") {
                    (TokenKind::DeleteProperty, "/delete-property/".len())
                } else if directive(b"memreserve") {
                    (TokenKind::MemReserve, "/memreserve/".len())
                } else {
                    (TokenKind::Slash, 1)
                };
                self.state.pos += len;
                kind
            }
            c if is_name_char(c) => self.lex_number_or_name()?,
            c => {
                return Err(DtsError::Lex {
                    at,
                    found: c as char,
                })
            }
        };
        Ok(Token { kind, at })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token of `src` up to and including `Eof`.
    fn tokenize(src: &str) -> Result<Vec<Token<'_>>, DtsError> {
        let mut lexer = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let t = lexer.next_token()?;
            let done = t.kind == TokenKind::Eof;
            out.push(t);
            if done {
                return Ok(out);
            }
        }
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        use TokenKind::*;
        assert_eq!(
            kinds("/dts-v1/; / { };"),
            vec![DtsV1, Semi, Slash, LBrace, RBrace, Semi, Eof]
        );
    }

    #[test]
    fn node_with_unit_address() {
        let k = kinds("memory@40000000 { };");
        assert_eq!(k[0], TokenKind::Ident("memory@40000000".into()));
    }

    #[test]
    fn property_names_with_hash() {
        let k = kinds("#address-cells = <2>;");
        assert_eq!(k[0], TokenKind::Ident("#address-cells".into()));
        assert_eq!(k[1], TokenKind::Eq);
        assert_eq!(k[2], TokenKind::Lt);
        assert_eq!(k[3], TokenKind::Num(2));
        assert_eq!(k[4], TokenKind::Gt);
    }

    #[test]
    fn numbers_hex_and_dec() {
        assert_eq!(kinds("<0x40000000 12>")[1], TokenKind::Num(0x4000_0000));
        assert_eq!(kinds("<0x40000000 12>")[2], TokenKind::Num(12));
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds(r#""arm,cortex-a53""#)[0],
            TokenKind::Str("arm,cortex-a53".into())
        );
        assert_eq!(kinds(r#""a\nb""#)[0], TokenKind::Str("a\nb".into()));
    }

    #[test]
    fn labels_and_refs() {
        let k = kinds("uart0: uart@20000000 { }; &uart0 { };");
        assert_eq!(k[0], TokenKind::Label("uart0".into()));
        assert_eq!(k[1], TokenKind::Ident("uart@20000000".into()));
        assert!(k.contains(&TokenKind::Ref("uart0".into())));
    }

    #[test]
    fn comments_are_skipped() {
        let k = kinds("// line\n/* block\n comment */ foo");
        assert_eq!(k[0], TokenKind::Ident("foo".into()));
    }

    #[test]
    fn directives() {
        use TokenKind::*;
        assert_eq!(
            kinds("/include/ \"cpus.dtsi\""),
            vec![Include, Str("cpus.dtsi".into()), Eof]
        );
        assert_eq!(kinds("/delete-node/ foo;")[0], DeleteNode);
        assert_eq!(kinds("/delete-property/ reg;")[0], DeleteProperty);
    }

    #[test]
    fn unterminated_string_errors() {
        let r = tokenize("\"abc");
        assert!(matches!(
            r,
            Err(DtsError::Unterminated { what: "string", .. })
        ));
    }

    #[test]
    fn unterminated_comment_errors() {
        let r = tokenize("/* abc");
        assert!(matches!(
            r,
            Err(DtsError::Unterminated {
                what: "comment",
                ..
            })
        ));
    }

    #[test]
    fn bad_number_errors() {
        let r = tokenize("0xzz");
        assert!(matches!(r, Err(DtsError::BadNumber { .. })));
    }

    #[test]
    fn positions_track_lines() {
        let toks = tokenize("a\n  b").unwrap();
        assert_eq!(toks[0].at, Position::new(1, 1));
        assert_eq!(toks[1].at, Position::new(2, 3));
    }

    #[test]
    fn byte_string_brackets() {
        use TokenKind::*;
        let k = kinds("[ 12 34 ]");
        assert_eq!(k[0], LBracket);
        assert_eq!(k[1], HexRun("12".into()));
        assert_eq!(k[2], HexRun("34".into()));
        assert_eq!(k[3], RBracket);
    }

    #[test]
    fn hex_runs_keep_lexeme_width() {
        // `[ 0011 ]` is the two bytes 0x00 0x11 — the leading zeros are
        // significant and must survive lexing.
        let k = kinds("[ 0011 ]");
        assert_eq!(k[1], TokenKind::HexRun("0011".into()));
    }

    #[test]
    fn non_hex_in_byte_string_errors() {
        let r = tokenize("[ 0xzz ]");
        assert!(matches!(r, Err(DtsError::BadNumber { .. })));
    }

    #[test]
    fn multibyte_strings_survive() {
        assert_eq!(kinds("\"µ-ctrl\"")[0], TokenKind::Str("µ-ctrl".into()));
    }
}
