//! Position-carrying Liberty errors.
//!
//! Every failure from the lexer, AST parser, or typed decoder carries the
//! 1-based line and column where it was detected, so `statleak analyze
//! --liberty broken.lib` can point at the offending character. The CLI
//! maps [`LibertyError`] onto the stable *parse* exit code (4), exactly
//! like malformed netlists.

use std::fmt;
use std::path::PathBuf;

/// A Liberty parse/decode failure at a known source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibertyError {
    /// What went wrong.
    pub kind: LibertyErrorKind,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub column: u32,
}

impl LibertyError {
    pub(crate) fn new(kind: LibertyErrorKind, line: u32, column: u32) -> Self {
        Self { kind, line, column }
    }
}

/// The failure classes of the Liberty front-end.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LibertyErrorKind {
    /// A group (`name (...) { ... `) was never closed before end of input;
    /// the position points at the group's opening.
    UnterminatedGroup {
        /// The group's name (e.g. `cell`).
        name: String,
    },
    /// A quoted string ran to end of line/input without a closing quote.
    UnterminatedString,
    /// An unsupported backslash escape inside a quoted string.
    BadEscape {
        /// The escaped character.
        escape: char,
    },
    /// A block comment `/* ... ` was never closed.
    UnterminatedComment,
    /// The parser expected one token and found another.
    Expected {
        /// What the grammar required.
        expected: &'static str,
        /// What was actually found.
        found: String,
    },
    /// The top-level `library (...) { ... }` group is missing.
    MissingLibrary,
    /// A numeric attribute failed to parse.
    BadNumber {
        /// Attribute key.
        key: String,
        /// The unparsable text.
        text: String,
    },
    /// A lookup table references an undeclared `lu_table_template`.
    UnknownTemplate {
        /// The referenced template name.
        name: String,
    },
    /// A cell declared the same pin twice.
    DuplicatePin {
        /// The cell.
        cell: String,
        /// The repeated pin name.
        pin: String,
    },
    /// A table's `values` shape disagrees with its index axes.
    BadTableShape {
        /// The table's template name.
        template: String,
    },
    /// Groups nest deeper than the parser accepts; the position points at
    /// the first group past the limit.
    NestingTooDeep {
        /// The deepest nesting accepted.
        limit: usize,
    },
}

impl fmt::Display for LibertyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}: ", self.line, self.column)?;
        match &self.kind {
            LibertyErrorKind::UnterminatedGroup { name } => {
                write!(f, "group `{name}` is never closed")
            }
            LibertyErrorKind::UnterminatedString => write!(f, "unterminated quoted string"),
            LibertyErrorKind::BadEscape { escape } => {
                write!(f, "unsupported escape `\\{escape}` in quoted string")
            }
            LibertyErrorKind::UnterminatedComment => write!(f, "unterminated block comment"),
            LibertyErrorKind::Expected { expected, found } => {
                write!(f, "expected {expected}, found `{found}`")
            }
            LibertyErrorKind::MissingLibrary => write!(f, "no `library (...)` group found"),
            LibertyErrorKind::BadNumber { key, text } => {
                write!(f, "bad numeric value for `{key}`: `{text}`")
            }
            LibertyErrorKind::UnknownTemplate { name } => {
                write!(f, "unknown table template `{name}`")
            }
            LibertyErrorKind::DuplicatePin { cell, pin } => {
                write!(f, "cell `{cell}` declares pin `{pin}` twice")
            }
            LibertyErrorKind::BadTableShape { template } => {
                write!(f, "table values do not match template `{template}` axes")
            }
            LibertyErrorKind::NestingTooDeep { limit } => {
                write!(f, "groups nest deeper than the limit of {limit} levels")
            }
        }
    }
}

impl std::error::Error for LibertyError {}

/// A failure loading a Liberty library from disk into a
/// [`crate::LibertyLibrary`] (I/O, parse, or corner resolution).
#[derive(Debug)]
pub enum LibertyLoadError {
    /// The file could not be read.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file's content failed to parse/decode.
    Parse {
        /// The path involved.
        path: PathBuf,
        /// The position-carrying parse error.
        source: LibertyError,
    },
    /// The requested corner has no matching library file.
    UnknownCorner {
        /// The corner the caller asked for.
        requested: String,
        /// The corner names that were discovered.
        available: Vec<String>,
    },
    /// The library parsed but contains no usable cells.
    NoUsableCells {
        /// The path involved.
        path: PathBuf,
    },
}

impl fmt::Display for LibertyLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibertyLoadError::Io { path, source } => {
                write!(f, "cannot read `{}`: {source}", path.display())
            }
            LibertyLoadError::Parse { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            LibertyLoadError::UnknownCorner {
                requested,
                available,
            } => write!(
                f,
                "unknown corner `{requested}` (available: {})",
                if available.is_empty() {
                    "none".to_string()
                } else {
                    available.join(", ")
                }
            ),
            LibertyLoadError::NoUsableCells { path } => {
                write!(f, "`{}` contains no usable cells", path.display())
            }
        }
    }
}

impl std::error::Error for LibertyLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LibertyLoadError::Io { source, .. } => Some(source),
            LibertyLoadError::Parse { source, .. } => Some(source),
            _ => None,
        }
    }
}
