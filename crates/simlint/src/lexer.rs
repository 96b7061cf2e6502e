//! A lightweight Rust lexer: just enough tokenization for the lint
//! rules to pattern-match on identifiers, literals and operators without
//! being fooled by comments, strings, char literals or lifetimes.
//!
//! The lexer is deliberately lossy — it does not preserve whitespace or
//! distinguish keywords from identifiers — but it is exact about *what
//! is code*: text inside `//`/`/* */` comments and string/char literals
//! never produces `Ident`/`Op` tokens, so a doc comment mentioning
//! `HashMap` cannot trip a rule. Comments are still scanned, separately,
//! for `simlint: allow(...)` suppressions.

/// The kind of a lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`HashMap`, `fn`, `unwrap`, ...).
    Ident(String),
    /// A numeric literal, integer or floating-point (`42`, `0xFF`,
    /// `1_000u64`, `2.5E-3`, `3f64`).
    Num,
    /// A string, byte-string, raw-string or char literal, carrying its
    /// raw inner text (escapes unprocessed) so rules that care about
    /// literal values — `rng-stream-hygiene` collects `DetRng` stream
    /// labels — can compare them across call sites.
    Str(String),
    /// A lifetime (`'a`) or loop label.
    Lifetime,
    /// An operator or punctuation, longest-match (`==`, `::`, `{`, ...).
    Op(&'static str),
}

/// One token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// An inline suppression parsed from a `// simlint: allow(rule, ...)`
/// comment: the rule name and the line the comment sits on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineAllow {
    pub rule: String,
    pub line: u32,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub allows: Vec<InlineAllow>,
}

/// Multi-character operators, longest first so greedy matching is
/// correct (`<<=` must win over `<<` over `<`).
const OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "::",
    "..", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Lexes `src`, returning the token stream and any inline suppressions.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, tok: Tok, line: u32) {
        self.out.tokens.push(Token { tok, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(line),
                'r' | 'b' if self.raw_or_byte_string(line) => {}
                '\'' => self.char_or_lifetime(line),
                _ if c.is_ascii_digit() => self.number(line),
                _ if c == '_' || c.is_alphanumeric() => self.ident(line),
                _ => self.operator(line),
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.scan_comment_for_allows(&text, line);
    }

    fn block_comment(&mut self) {
        // `/*` already peeked; consume it, then track nesting. Allow
        // directives are attributed to the line the directive text is on.
        self.bump();
        self.bump();
        let mut depth = 1usize;
        let mut text = String::new();
        let mut text_line = self.line;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some('\n'), _) => {
                    self.scan_comment_for_allows(&text, text_line);
                    text.clear();
                    self.bump();
                    text_line = self.line;
                }
                (Some(c), _) => {
                    text.push(c);
                    self.bump();
                }
                (None, _) => break,
            }
        }
        self.scan_comment_for_allows(&text, text_line);
    }

    /// Recognizes `simlint: allow(rule-a, rule-b)` inside comment text.
    fn scan_comment_for_allows(&mut self, text: &str, line: u32) {
        let Some(at) = text.find("simlint:") else {
            return;
        };
        let rest = text[at + "simlint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            return;
        };
        let Some(close) = rest.find(')') else {
            return;
        };
        for rule in rest[..close].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                self.out.allows.push(InlineAllow {
                    rule: rule.to_owned(),
                    line,
                });
            }
        }
    }

    fn string(&mut self, line: u32) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    text.push(c);
                    if let Some(e) = self.bump() {
                        text.push(e);
                    }
                }
                '"' => break,
                _ => text.push(c),
            }
        }
        self.push(Tok::Str(text), line);
    }

    /// Handles `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#` and `b'x'`.
    /// Returns false when the leading `r`/`b` starts a plain identifier.
    fn raw_or_byte_string(&mut self, line: u32) -> bool {
        let mut ahead = 1; // past the leading r or b
        if self.peek(0) == Some('b') && self.peek(1) == Some('r') {
            ahead = 2;
        }
        if self.peek(0) == Some('b') && self.peek(ahead) == Some('\'') {
            // Byte char literal b'x'.
            self.bump();
            self.char_literal(line);
            return true;
        }
        let mut hashes = 0usize;
        while self.peek(ahead) == Some('#') {
            ahead += 1;
            hashes += 1;
        }
        if self.peek(ahead) != Some('"') {
            return false;
        }
        let raw = self.peek(if self.peek(0) == Some('b') { 1 } else { 0 }) == Some('r')
            || self.peek(0) == Some('r');
        for _ in 0..=ahead {
            self.bump(); // prefix, hashes and opening quote
        }
        let mut text = String::new();
        if raw {
            // Raw string: ends at `"` followed by `hashes` hash marks.
            'outer: while let Some(c) = self.bump() {
                if c == '"' {
                    for i in 0..hashes {
                        if self.peek(i) != Some('#') {
                            text.push(c);
                            continue 'outer;
                        }
                    }
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
                text.push(c);
            }
        } else {
            // Byte string with escapes.
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        text.push(c);
                        if let Some(e) = self.bump() {
                            text.push(e);
                        }
                    }
                    '"' => break,
                    _ => text.push(c),
                }
            }
        }
        self.push(Tok::Str(text), line);
        true
    }

    /// `'` is ambiguous: `'a` (lifetime) vs `'a'` (char literal).
    fn char_or_lifetime(&mut self, line: u32) {
        let next = self.peek(1);
        let is_lifetime =
            matches!(next, Some(c) if c == '_' || c.is_alphabetic()) && next != Some('\\') && {
                // Scan the identifier run after the quote; a closing
                // quote right after makes it a char literal like 'a'.
                let mut i = 2;
                while matches!(self.peek(i), Some(c) if c == '_' || c.is_alphanumeric()) {
                    i += 1;
                }
                self.peek(i) != Some('\'')
            };
        if is_lifetime {
            self.bump();
            while matches!(self.peek(0), Some(c) if c == '_' || c.is_alphanumeric()) {
                self.bump();
            }
            self.push(Tok::Lifetime, line);
        } else {
            self.char_literal(line);
        }
    }

    fn char_literal(&mut self, line: u32) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    text.push(c);
                    if let Some(e) = self.bump() {
                        text.push(e);
                    }
                }
                '\'' => break,
                _ => text.push(c),
            }
        }
        self.push(Tok::Str(text), line);
    }

    fn number(&mut self, line: u32) {
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x' | 'o' | 'b')) {
            // Radix literal: always an integer.
            self.bump();
            self.bump();
            while matches!(self.peek(0), Some(c) if c.is_ascii_hexdigit() || c == '_') {
                self.bump();
            }
        } else {
            while matches!(self.peek(0), Some(c) if c.is_ascii_digit() || c == '_') {
                self.bump();
            }
            // A fractional part: `1.5`, or trailing `1.` — but not the
            // range `1..2` and not a method call `1.max(2)`.
            if self.peek(0) == Some('.') {
                let after = self.peek(1);
                let fractional = matches!(after, Some(c) if c.is_ascii_digit())
                    || !matches!(after, Some(c) if c == '.' || c == '_' || c.is_alphabetic());
                if fractional {
                    self.bump();
                    while matches!(self.peek(0), Some(c) if c.is_ascii_digit() || c == '_') {
                        self.bump();
                    }
                }
            }
            // An exponent: `1e6`, `2.5E-3`.
            if matches!(self.peek(0), Some('e' | 'E')) {
                let (a, b) = (self.peek(1), self.peek(2));
                let exp = matches!(a, Some(c) if c.is_ascii_digit())
                    || (matches!(a, Some('+' | '-')) && matches!(b, Some(c) if c.is_ascii_digit()));
                if exp {
                    self.bump();
                    self.bump();
                    while matches!(self.peek(0), Some(c) if c.is_ascii_digit() || c == '_') {
                        self.bump();
                    }
                }
            }
        }
        // Type suffix (`u64`, `f64`, ...).
        while matches!(self.peek(0), Some(c) if c == '_' || c.is_alphanumeric()) {
            self.bump();
        }
        self.push(Tok::Num, line);
    }

    fn ident(&mut self, line: u32) {
        let mut s = String::new();
        while matches!(self.peek(0), Some(c) if c == '_' || c.is_alphanumeric()) {
            s.push(self.bump().expect("peeked char must exist"));
        }
        self.push(Tok::Ident(s), line);
    }

    fn operator(&mut self, line: u32) {
        for op in OPS {
            if self
                .chars
                .get(self.pos..self.pos + op.len())
                .is_some_and(|w| w.iter().collect::<String>() == **op)
            {
                for _ in 0..op.len() {
                    self.bump();
                }
                self.push(Tok::Op(op), line);
                return;
            }
        }
        let c = self.bump().expect("operator char must exist");
        // Single-char punctuation; leak-free static lookup.
        const SINGLES: &[(char, &str)] = &[
            ('{', "{"),
            ('}', "}"),
            ('(', "("),
            (')', ")"),
            ('[', "["),
            (']', "]"),
            ('<', "<"),
            ('>', ">"),
            (',', ","),
            (';', ";"),
            (':', ":"),
            ('.', "."),
            ('#', "#"),
            ('=', "="),
            ('!', "!"),
            ('&', "&"),
            ('|', "|"),
            ('+', "+"),
            ('-', "-"),
            ('*', "*"),
            ('/', "/"),
            ('%', "%"),
            ('^', "^"),
            ('?', "?"),
            ('@', "@"),
            ('$', "$"),
            ('~', "~"),
        ];
        if let Some(&(_, s)) = SINGLES.iter().find(|&&(ch, _)| ch == c) {
            self.push(Tok::Op(s), line);
        }
        // Unknown characters (stray unicode) are skipped: the rules only
        // match on known tokens, so dropping them is safe.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_identifiers() {
        let src = r##"
            // HashMap in a comment
            /* HashMap in a block /* nested HashMap */ still comment */
            let s = "HashMap in a string";
            let r = r#"raw HashMap"#;
            let c = 'H';
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_owned()), "ids: {ids:?}");
        assert!(ids.contains(&"let".to_owned()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> &'a str { 'x'; x }");
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.tok == Tok::Lifetime)
            .count();
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Str(_)))
            .count();
        assert_eq!(lifetimes, 3);
        assert_eq!(chars, 1);
    }

    #[test]
    fn each_number_is_one_token() {
        let kinds: Vec<Tok> = lex("0 1.5 1e6 2.5E-3 0xFF 1_000u64 3f64 7.")
            .tokens
            .into_iter()
            .map(|t| t.tok)
            .collect();
        assert_eq!(kinds, vec![Tok::Num; 8]);
    }

    #[test]
    fn ranges_are_not_floats() {
        let kinds: Vec<Tok> = lex("1..2").tokens.into_iter().map(|t| t.tok).collect();
        assert_eq!(kinds, vec![Tok::Num, Tok::Op(".."), Tok::Num]);
    }

    #[test]
    fn operators_longest_match() {
        let kinds: Vec<Tok> = lex("a == b != c <= d :: e")
            .tokens
            .into_iter()
            .filter(|t| matches!(t.tok, Tok::Op(_)))
            .map(|t| t.tok)
            .collect();
        assert_eq!(
            kinds,
            vec![Tok::Op("=="), Tok::Op("!="), Tok::Op("<="), Tok::Op("::")]
        );
    }

    #[test]
    fn inline_allow_is_parsed_with_line() {
        let src = "let a = 1;\n// simlint: allow(hot-alloc, unit-safety) reason\nlet b = 2;";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 2);
        assert_eq!(lexed.allows[0].rule, "hot-alloc");
        assert_eq!(lexed.allows[0].line, 2);
        assert_eq!(lexed.allows[1].rule, "unit-safety");
    }

    #[test]
    fn string_literals_carry_their_text() {
        let strs: Vec<String> = lex(r##"let a = "plain"; let b = r#"raw "txt""#;"##)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Str(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec!["plain".to_owned(), "raw \"txt\"".to_owned()]);
    }

    #[test]
    fn token_lines_are_tracked() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }
}
