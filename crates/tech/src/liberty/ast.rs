//! Liberty group/attribute AST.
//!
//! The grammar (the real Liberty grammar, minus vendor pragmas):
//!
//! ```text
//! group   := IDENT '(' args? ')' '{' (attr | group)* '}'
//! attr    := IDENT ':' value ';'          (simple attribute)
//!          | IDENT '(' args? ')' ';'      (complex attribute)
//! args    := value (',' value)*
//! value   := WORD | QUOTED
//! ```
//!
//! Statement kind is decided by lookahead after the argument list: `{`
//! opens a sub-group, `;` (or a following statement, which some writers
//! emit without the semicolon) ends a complex attribute.

use super::error::{LibertyError, LibertyErrorKind};
use super::lexer::{lex, Token, TokenKind};

/// Deepest group nesting accepted. Real libraries nest about five deep
/// (`library` › `cell` › `pin` › `timing` › table).
const MAX_DEPTH: usize = 64;

/// A `name (args) { ... }` group node.
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// Group keyword (`library`, `cell`, `pin`, ...).
    pub name: String,
    /// Parenthesized arguments (cell name, template name, ...).
    pub args: Vec<String>,
    /// Simple and complex attributes, in source order.
    pub attrs: Vec<Attr>,
    /// Nested sub-groups, in source order.
    pub groups: Vec<Group>,
    /// 1-based line of the group keyword.
    pub line: u32,
    /// 1-based column of the group keyword.
    pub column: u32,
}

impl Group {
    /// The value of the first simple attribute with this key, if any.
    pub fn simple(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find_map(|a| match &a.value {
            AttrValue::Simple(v) if a.key == key => Some(v.as_str()),
            _ => None,
        })
    }

    /// The arguments of the first complex attribute with this key, if any.
    pub fn complex(&self, key: &str) -> Option<&[String]> {
        self.attrs.iter().find_map(|a| match &a.value {
            AttrValue::Complex(v) if a.key == key => Some(v.as_slice()),
            _ => None,
        })
    }

    /// All nested groups with the given name.
    pub fn groups_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Group> + 'a {
        self.groups.iter().filter(move |g| g.name == name)
    }
}

/// One attribute inside a group.
#[derive(Debug, Clone, PartialEq)]
pub struct Attr {
    /// Attribute key.
    pub key: String,
    /// Simple (`key : value ;`) or complex (`key (a, b) ;`) payload.
    pub value: AttrValue,
    /// 1-based line of the key.
    pub line: u32,
    /// 1-based column of the key.
    pub column: u32,
}

/// Attribute payload.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// `key : value ;`
    Simple(String),
    /// `key (a, b, ...) ;`
    Complex(Vec<String>),
}

/// Parses Liberty text into its top-level groups (usually exactly one
/// `library`).
///
/// # Errors
///
/// Returns the first lex or grammar error with its source position.
pub fn parse_groups(src: &str) -> Result<Vec<Group>, LibertyError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut groups = Vec::new();
    while !p.at_end() {
        groups.push(p.group()?);
    }
    Ok(groups)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn last_pos(&self) -> (u32, u32) {
        self.tokens
            .last()
            .map(|t| (t.line, t.column))
            .unwrap_or((1, 1))
    }

    fn expect(&mut self, kind: &TokenKind, expected: &'static str) -> Result<Token, LibertyError> {
        match self.next() {
            Some(t) if &t.kind == kind => Ok(t),
            Some(t) => Err(LibertyError::new(
                LibertyErrorKind::Expected {
                    expected,
                    found: t.kind.describe(),
                },
                t.line,
                t.column,
            )),
            None => {
                let (l, c) = self.last_pos();
                Err(LibertyError::new(
                    LibertyErrorKind::Expected {
                        expected,
                        found: "end of input".into(),
                    },
                    l,
                    c,
                ))
            }
        }
    }

    fn word(&mut self, expected: &'static str) -> Result<(String, u32, u32), LibertyError> {
        match self.next() {
            Some(Token {
                kind: TokenKind::Word(w),
                line,
                column,
            }) => Ok((w, line, column)),
            Some(t) => Err(LibertyError::new(
                LibertyErrorKind::Expected {
                    expected,
                    found: t.kind.describe(),
                },
                t.line,
                t.column,
            )),
            None => {
                let (l, c) = self.last_pos();
                Err(LibertyError::new(
                    LibertyErrorKind::Expected {
                        expected,
                        found: "end of input".into(),
                    },
                    l,
                    c,
                ))
            }
        }
    }

    /// Parses `( value, value, ... )`; the opening paren is already
    /// consumed by the caller's lookahead decision.
    fn args(&mut self) -> Result<Vec<String>, LibertyError> {
        self.expect(&TokenKind::LParen, "`(`")?;
        let mut out = Vec::new();
        loop {
            match self.peek().map(|t| t.kind.clone()) {
                Some(TokenKind::RParen) => {
                    self.next();
                    return Ok(out);
                }
                Some(TokenKind::Comma) => {
                    self.next();
                }
                Some(TokenKind::Word(w)) => {
                    self.next();
                    out.push(w);
                }
                Some(TokenKind::Quoted(s)) => {
                    self.next();
                    out.push(s);
                }
                Some(other) => {
                    let t = self.next().unwrap();
                    return Err(LibertyError::new(
                        LibertyErrorKind::Expected {
                            expected: "argument or `)`",
                            found: other.describe(),
                        },
                        t.line,
                        t.column,
                    ));
                }
                None => {
                    let (l, c) = self.last_pos();
                    return Err(LibertyError::new(
                        LibertyErrorKind::Expected {
                            expected: "`)`",
                            found: "end of input".into(),
                        },
                        l,
                        c,
                    ));
                }
            }
        }
    }

    /// Parses one full top-level group; the caller guarantees the next
    /// token is the group keyword.
    fn group(&mut self) -> Result<Group, LibertyError> {
        let (name, line, column) = self.word("group keyword")?;
        let args = self.args()?;
        self.expect(&TokenKind::LBrace, "`{`")?;
        self.body(
            Group {
                name,
                args,
                attrs: Vec::new(),
                groups: Vec::new(),
                line,
                column,
            },
            1,
        )
    }

    /// Parses a group's body, after its `{` through the closing `}`, into
    /// `group`; `depth` is the group's nesting level (1 = top level).
    /// Refuses groups nested deeper than [`MAX_DEPTH`], so neither parsing
    /// nor dropping the tree can overflow the stack.
    fn body(&mut self, mut group: Group, depth: usize) -> Result<Group, LibertyError> {
        if depth > MAX_DEPTH {
            return Err(LibertyError::new(
                LibertyErrorKind::NestingTooDeep { limit: MAX_DEPTH },
                group.line,
                group.column,
            ));
        }
        loop {
            match self.peek().map(|t| t.kind.clone()) {
                Some(TokenKind::RBrace) => {
                    self.next();
                    return Ok(group);
                }
                Some(TokenKind::Semi) => {
                    // Stray semicolon between statements: tolerated.
                    self.next();
                }
                Some(TokenKind::Word(_)) => {
                    self.statement(&mut group, depth)?;
                }
                Some(other) => {
                    let t = self.next().unwrap();
                    return Err(LibertyError::new(
                        LibertyErrorKind::Expected {
                            expected: "attribute, sub-group, or `}`",
                            found: other.describe(),
                        },
                        t.line,
                        t.column,
                    ));
                }
                None => {
                    return Err(LibertyError::new(
                        LibertyErrorKind::UnterminatedGroup { name: group.name },
                        group.line,
                        group.column,
                    ));
                }
            }
        }
    }

    /// One statement inside the body of `parent` (at nesting level
    /// `depth`): simple attribute, complex attribute, or sub-group.
    fn statement(&mut self, parent: &mut Group, depth: usize) -> Result<(), LibertyError> {
        let (key, line, column) = self.word("attribute or group keyword")?;
        match self.peek().map(|t| t.kind.clone()) {
            Some(TokenKind::Colon) => {
                self.next();
                let value = match self.next() {
                    Some(Token {
                        kind: TokenKind::Word(w),
                        ..
                    }) => w,
                    Some(Token {
                        kind: TokenKind::Quoted(s),
                        ..
                    }) => s,
                    Some(t) => {
                        return Err(LibertyError::new(
                            LibertyErrorKind::Expected {
                                expected: "attribute value",
                                found: t.kind.describe(),
                            },
                            t.line,
                            t.column,
                        ));
                    }
                    None => {
                        let (l, c) = self.last_pos();
                        return Err(LibertyError::new(
                            LibertyErrorKind::Expected {
                                expected: "attribute value",
                                found: "end of input".into(),
                            },
                            l,
                            c,
                        ));
                    }
                };
                self.expect(&TokenKind::Semi, "`;`")?;
                parent.attrs.push(Attr {
                    key,
                    value: AttrValue::Simple(value),
                    line,
                    column,
                });
                Ok(())
            }
            Some(TokenKind::LParen) => {
                // Complex attribute or sub-group: decided by what follows
                // the closing paren.
                let args = self.args()?;
                match self.peek().map(|t| t.kind.clone()) {
                    Some(TokenKind::LBrace) => {
                        self.next();
                        let group = Group {
                            name: key,
                            args,
                            attrs: Vec::new(),
                            groups: Vec::new(),
                            line,
                            column,
                        };
                        parent.groups.push(self.body(group, depth + 1)?);
                        Ok(())
                    }
                    _ => {
                        // Complex attribute; the semicolon is optional in
                        // the wild, so accept it if present.
                        if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::Semi)) {
                            self.next();
                        }
                        parent.attrs.push(Attr {
                            key,
                            value: AttrValue::Complex(args),
                            line,
                            column,
                        });
                        Ok(())
                    }
                }
            }
            Some(other) => {
                let t = self.next().unwrap();
                Err(LibertyError::new(
                    LibertyErrorKind::Expected {
                        expected: "`:` or `(`",
                        found: other.describe(),
                    },
                    t.line,
                    t.column,
                ))
            }
            None => Err(LibertyError::new(
                LibertyErrorKind::Expected {
                    expected: "`:` or `(`",
                    found: "end of input".into(),
                },
                line,
                column,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_groups_and_attrs() {
        let src = r#"
library (demo) {
  time_unit : "1ps";
  capacitive_load_unit (1, ff);
  cell (INV_X1_LVT) {
    cell_leakage_power : 0.5;
    pin (Y) {
      direction : output;
    }
  }
}
"#;
        let groups = parse_groups(src).unwrap();
        assert_eq!(groups.len(), 1);
        let lib = &groups[0];
        assert_eq!(lib.name, "library");
        assert_eq!(lib.args, ["demo"]);
        assert_eq!(lib.simple("time_unit"), Some("1ps"));
        assert_eq!(
            lib.complex("capacitive_load_unit"),
            Some(&["1".to_string(), "ff".to_string()][..])
        );
        let cell = lib.groups_named("cell").next().unwrap();
        assert_eq!(cell.args, ["INV_X1_LVT"]);
        assert_eq!(cell.simple("cell_leakage_power"), Some("0.5"));
        let pin = cell.groups_named("pin").next().unwrap();
        assert_eq!(pin.simple("direction"), Some("output"));
    }

    #[test]
    fn unterminated_group_points_at_opening() {
        let src = "library (demo) {\n  cell (X) {\n    a : 1;\n";
        let err = parse_groups(src).unwrap_err();
        assert_eq!(
            err.kind,
            LibertyErrorKind::UnterminatedGroup {
                name: "cell".into()
            }
        );
        assert_eq!((err.line, err.column), (2, 3));
    }

    #[test]
    fn expected_errors_carry_position() {
        let err = parse_groups("library (demo) {\n  key 5;\n}").unwrap_err();
        assert!(matches!(err.kind, LibertyErrorKind::Expected { .. }));
        assert_eq!(err.line, 2);
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize| "cell (a) {\n".repeat(depth) + &"}\n".repeat(depth);
        let groups = parse_groups(&nested(MAX_DEPTH)).unwrap();
        let mut depth = 1;
        let mut g = &groups[0];
        while let Some(inner) = g.groups.first() {
            g = inner;
            depth += 1;
        }
        assert_eq!(depth, MAX_DEPTH);

        // Far deeper than the cap: a typed error at the first group past
        // it, not a stack overflow.
        let err = parse_groups(&nested(20_000)).unwrap_err();
        assert_eq!(
            err.kind,
            LibertyErrorKind::NestingTooDeep { limit: MAX_DEPTH }
        );
        assert_eq!(err.line, MAX_DEPTH as u32 + 1);
    }
}
