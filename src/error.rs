//! The typed error hierarchy of the `statleak` front end.
//!
//! Every user-input-reachable failure — bad CLI usage, unreadable files,
//! netlist/library parse errors, correlation-model breakdowns, infeasible
//! optimization targets — is funnelled into [`StatleakError`], which maps
//! each class onto a **stable process exit code** so scripts and CI can
//! dispatch on the failure kind without scraping stderr:
//!
//! | code | class        | meaning                                        |
//! |------|--------------|------------------------------------------------|
//! | 0    | —            | success                                        |
//! | 1    | `internal`   | unexpected/internal error                      |
//! | 2    | `usage`      | bad command line (unknown command/flag, missing or invalid value, unknown benchmark) |
//! | 3    | `io`         | file could not be read or written              |
//! | 4    | `parse`      | netlist or Liberty input failed to parse, or the input format could not be inferred |
//! | 5    | `model`      | statistical model construction failed (correlation matrix not positive definite) |
//! | 6    | `infeasible` | the optimization target cannot be met          |
//! | 7    | `busy`       | a `statleak serve` daemon shed the request at its queue high-water mark |
//!
//! The mapping is part of the CLI contract (see the README) and must not
//! change between releases; new classes may be appended with new codes.

use statleak_core::{FlowError, LibraryErrorClass};
use statleak_netlist::bench::ParseBenchError;
use statleak_netlist::verilog::ParseVerilogError;
use statleak_opt::SizeError;
use statleak_stats::CholeskyError;
use std::fmt;

/// All failures the `statleak` CLI and facade surface to callers.
#[derive(Debug)]
#[non_exhaustive]
pub enum StatleakError {
    /// Bad command-line usage: unknown command or flag, a flag missing its
    /// value, an invalid value, or an unknown built-in benchmark name.
    Usage(String),
    /// A file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The input file's format could not be inferred from its extension.
    UnknownFormat {
        /// The offending path.
        path: String,
    },
    /// A `.bench` netlist failed to parse.
    ParseBench(ParseBenchError),
    /// A structural-Verilog netlist failed to parse.
    ParseVerilog(ParseVerilogError),
    /// The spatial-correlation matrix failed to factor.
    Correlation(CholeskyError),
    /// A sizing/optimization target cannot be met.
    Infeasible(SizeError),
    /// An experiment-flow error (wraps [`FlowError`] for facade users).
    Flow(FlowError),
    /// A `statleak serve` daemon rejected the request at its queue
    /// high-water mark; the caller should back off and retry.
    Busy(String),
    /// An error response received from a `statleak serve` daemon, carrying
    /// the protocol's machine-readable error class (see
    /// `statleak_engine::proto`). The class maps back onto the local exit
    /// codes so `statleak call` behaves like the one-shot commands.
    Remote {
        /// Protocol error class (`usage`, `infeasible`, `busy`, ...).
        class: String,
        /// Human-readable message from the server.
        message: String,
    },
}

impl StatleakError {
    /// The stable process exit code for this error class (see the module
    /// docs for the table).
    pub fn exit_code(&self) -> u8 {
        match self {
            StatleakError::Usage(_) => 2,
            StatleakError::Io { .. } => 3,
            StatleakError::UnknownFormat { .. }
            | StatleakError::ParseBench(_)
            | StatleakError::ParseVerilog(_) => 4,
            StatleakError::Correlation(_) => 5,
            StatleakError::Infeasible(_) => 6,
            StatleakError::Flow(e) => match e {
                FlowError::UnknownBenchmark(_) | FlowError::Config(_) => 2,
                FlowError::Correlation(_) => 5,
                FlowError::Sizing(_) => 6,
                FlowError::Library { class, .. } => match class {
                    LibraryErrorClass::Io => 3,
                    LibraryErrorClass::Parse => 4,
                    LibraryErrorClass::UnknownCorner => 2,
                },
                // `FlowError` is non-exhaustive; unknown future variants
                // fall back to the internal-error code.
                _ => 1,
            },
            StatleakError::Busy(_) => 7,
            StatleakError::Remote { class, .. } => match class.as_str() {
                "usage" | "config" | "unknown-benchmark" | "library-corner" | "too-large" => 2,
                "io" | "library-io" => 3,
                "parse" | "library-parse" => 4,
                "model" | "correlation" => 5,
                "infeasible" => 6,
                "busy" => 7,
                _ => 1,
            },
        }
    }

    /// A stable machine-readable class name matching the exit-code table.
    pub fn class(&self) -> &'static str {
        match self.exit_code() {
            2 => "usage",
            3 => "io",
            4 => "parse",
            5 => "model",
            6 => "infeasible",
            7 => "busy",
            _ => "internal",
        }
    }
}

impl fmt::Display for StatleakError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatleakError::Usage(msg) => write!(f, "{msg}"),
            StatleakError::Io { path, source } => write!(f, "cannot access `{path}`: {source}"),
            StatleakError::UnknownFormat { path } => write!(
                f,
                "`{path}` is neither a built-in benchmark nor a recognized \
                 netlist file (expected a .bench or .v extension)"
            ),
            StatleakError::ParseBench(e) => write!(f, "bench netlist: {e}"),
            StatleakError::ParseVerilog(e) => write!(f, "verilog netlist: {e}"),
            StatleakError::Correlation(e) => write!(f, "correlation model: {e}"),
            StatleakError::Infeasible(e) => write!(f, "{e}"),
            StatleakError::Flow(e) => write!(f, "{e}"),
            StatleakError::Busy(msg) => write!(f, "server busy: {msg}"),
            StatleakError::Remote { class, message } => {
                write!(f, "server error ({class}): {message}")
            }
        }
    }
}

impl std::error::Error for StatleakError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StatleakError::Io { source, .. } => Some(source),
            StatleakError::ParseBench(e) => Some(e),
            StatleakError::ParseVerilog(e) => Some(e),
            StatleakError::Correlation(e) => Some(e),
            StatleakError::Infeasible(e) => Some(e),
            StatleakError::Flow(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseBenchError> for StatleakError {
    fn from(e: ParseBenchError) -> Self {
        StatleakError::ParseBench(e)
    }
}

impl From<ParseVerilogError> for StatleakError {
    fn from(e: ParseVerilogError) -> Self {
        StatleakError::ParseVerilog(e)
    }
}

impl From<CholeskyError> for StatleakError {
    fn from(e: CholeskyError) -> Self {
        StatleakError::Correlation(e)
    }
}

impl From<SizeError> for StatleakError {
    fn from(e: SizeError) -> Self {
        StatleakError::Infeasible(e)
    }
}

impl From<FlowError> for StatleakError {
    fn from(e: FlowError) -> Self {
        StatleakError::Flow(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_stable() {
        assert_eq!(StatleakError::Usage("x".into()).exit_code(), 2);
        assert_eq!(
            StatleakError::Io {
                path: "f".into(),
                source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
            }
            .exit_code(),
            3
        );
        assert_eq!(
            StatleakError::UnknownFormat { path: "f".into() }.exit_code(),
            4
        );
        assert_eq!(
            StatleakError::Infeasible(SizeError {
                achieved: 2.0,
                target: 1.0,
            })
            .exit_code(),
            6
        );
    }

    #[test]
    fn flow_errors_map_through() {
        let e = StatleakError::from(FlowError::UnknownBenchmark("c9999".into()));
        assert_eq!(e.exit_code(), 2);
        assert_eq!(e.class(), "usage");
        let e = StatleakError::from(FlowError::Sizing(SizeError {
            achieved: 2.0,
            target: 1.0,
        }));
        assert_eq!(e.exit_code(), 6);
        assert_eq!(e.class(), "infeasible");
        let e = StatleakError::from(FlowError::Config(statleak_core::ConfigError {
            field: "eta",
            message: "out of range".into(),
        }));
        assert_eq!(e.exit_code(), 2);
        assert_eq!(e.class(), "usage");
    }

    #[test]
    fn library_errors_map_onto_io_parse_usage() {
        let lib = |class: LibraryErrorClass| {
            StatleakError::from(FlowError::Library {
                class,
                message: "m".into(),
            })
        };
        assert_eq!(lib(LibraryErrorClass::Io).exit_code(), 3);
        assert_eq!(lib(LibraryErrorClass::Parse).exit_code(), 4);
        assert_eq!(lib(LibraryErrorClass::UnknownCorner).exit_code(), 2);
        assert_eq!(
            StatleakError::Remote {
                class: "library-parse".into(),
                message: "m".into(),
            }
            .exit_code(),
            4
        );
    }

    #[test]
    fn busy_gets_its_own_exit_code() {
        let e = StatleakError::Busy("queue full".into());
        assert_eq!(e.exit_code(), 7);
        assert_eq!(e.class(), "busy");
        assert!(e.to_string().contains("queue full"));
    }

    #[test]
    fn remote_classes_map_onto_local_exit_codes() {
        let remote = |class: &str| StatleakError::Remote {
            class: class.into(),
            message: "m".into(),
        };
        assert_eq!(remote("usage").exit_code(), 2);
        assert_eq!(remote("unknown-benchmark").exit_code(), 2);
        assert_eq!(remote("too-large").exit_code(), 2);
        assert_eq!(remote("correlation").exit_code(), 5);
        assert_eq!(remote("infeasible").exit_code(), 6);
        assert_eq!(remote("busy").exit_code(), 7);
        assert_eq!(remote("deadline").exit_code(), 1);
    }

    #[test]
    fn display_names_the_offender() {
        let e = StatleakError::UnknownFormat {
            path: "design.txt".into(),
        };
        assert!(e.to_string().contains("design.txt"));
        assert!(e.to_string().contains(".bench"));
    }
}
