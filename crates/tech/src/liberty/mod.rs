//! Liberty (`.lib`) front-end: lexer, AST, typed decode, writer, and the
//! [`LibertyLibrary`] adapter.
//!
//! Downstream tools (synthesis, sign-off) consume characterized libraries
//! in Synopsys Liberty format; users bring their own characterized
//! libraries the same way. The pipeline:
//!
//! ```text
//! .lib text ─lex→ tokens ─parse→ Group AST ─decode→ Library (typed)
//!                                                   │
//!                     CellLibrary trait ←── LibertyLibrary (+ corners)
//! ```
//!
//! * [`lexer`] — position-tagged tokens (line/column on every token);
//! * [`ast`] — the `name (args) { ... }` group grammar;
//! * [`decode`] — typed [`Library`]/[`Cell`]/[`Pin`]/[`LeakagePower`]/
//!   [`NldmTable`] with strict checking of what is read (templates must
//!   exist, table shapes must match, pins must be unique);
//! * [`export`] — renders the closed-form models as Liberty text with
//!   `when`-conditioned per-state leakage and NLDM tables;
//! * [`LibertyLibrary`] — presents a parsed library through the
//!   [`crate::CellLibrary`] trait, with SS/TT/FF-style corner loading
//!   ([`CornerSet`]).
//!
//! [`parse_library`] is the one parser. Its errors carry line/column
//! ([`LibertyError`]) and map onto the CLI's stable *parse* exit code.

pub mod ast;
pub mod decode;
pub mod error;
pub mod export;
pub mod lexer;
mod liberty_lib;

pub use decode::{
    parse_library, Cell, LeakagePower, Library, NldmTable, Pin, TableTemplate, Timing,
};
pub use error::{LibertyError, LibertyErrorKind, LibertyLoadError};
pub use export::{characterize, export, LibertyCell};
pub use liberty_lib::{CornerSet, LibertyLibrary};
