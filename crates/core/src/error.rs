//! Structured extraction and front-end errors.
//!
//! Every fallible step of configuring and driving an extraction — parsing
//! an algorithm/engine/variant name, reading a graph, validating a claimed
//! subgraph — reports a typed [`ExtractError`] instead of a bare string.
//! Front ends map the error category to a distinct process exit code via
//! [`ExtractError::exit_code`], so scripts can tell a usage mistake from an
//! I/O failure from a failed verification.

use std::fmt;

/// A typed error raised while configuring or running an extraction.
#[derive(Debug)]
pub enum ExtractError {
    /// The requested algorithm name is not in the [`crate::Algorithm`]
    /// registry.
    UnknownAlgorithm(String),
    /// The requested execution engine name is not recognised.
    UnknownEngine(String),
    /// The requested adjacency variant ("opt"/"unopt") is not recognised.
    UnknownVariant(String),
    /// The requested iteration semantics ("async"/"sync") is not recognised.
    UnknownSemantics(String),
    /// A front-end command is not recognised.
    UnknownCommand(String),
    /// A required option was not supplied.
    MissingOption(String),
    /// An option carried a value that does not parse.
    InvalidOption {
        /// Name of the offending option (without leading dashes).
        option: String,
        /// The value as given.
        given: String,
    },
    /// A positional argument was not expected.
    UnexpectedArgument(String),
    /// An I/O operation failed.
    Io {
        /// What was being read or written (usually a path).
        context: String,
        /// The underlying error.
        source: Box<dyn std::error::Error + Send + Sync>,
    },
    /// A verification of extraction output failed (not a subgraph, not
    /// chordal, mismatched vertex counts, ...).
    Verification(String),
}

impl ExtractError {
    /// Wraps an I/O (or I/O-adjacent) error with the path or action it
    /// concerns.
    pub fn io(
        context: impl Into<String>,
        source: impl Into<Box<dyn std::error::Error + Send + Sync>>,
    ) -> Self {
        ExtractError::Io {
            context: context.into(),
            source: source.into(),
        }
    }

    /// Builds an [`ExtractError::InvalidOption`].
    pub fn invalid_option(option: impl Into<String>, given: impl Into<String>) -> Self {
        ExtractError::InvalidOption {
            option: option.into(),
            given: given.into(),
        }
    }

    /// Process exit code for this error category. Usage and parse errors
    /// exit with 2, I/O failures with 3, verification failures with 4 —
    /// distinct codes so shell callers can branch without scraping stderr.
    pub fn exit_code(&self) -> u8 {
        match self {
            ExtractError::UnknownAlgorithm(_)
            | ExtractError::UnknownEngine(_)
            | ExtractError::UnknownVariant(_)
            | ExtractError::UnknownSemantics(_)
            | ExtractError::UnknownCommand(_)
            | ExtractError::MissingOption(_)
            | ExtractError::InvalidOption { .. }
            | ExtractError::UnexpectedArgument(_) => 2,
            ExtractError::Io { .. } => 3,
            ExtractError::Verification(_) => 4,
        }
    }
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::UnknownAlgorithm(name) => write!(
                f,
                "unknown algorithm `{name}` (expected alg1, reference, dearing or partitioned)"
            ),
            ExtractError::UnknownEngine(name) => {
                write!(f, "unknown engine `{name}` (expected serial or pool)")
            }
            ExtractError::UnknownVariant(name) => {
                write!(f, "unknown variant `{name}` (expected opt or unopt)")
            }
            ExtractError::UnknownSemantics(name) => {
                write!(f, "unknown semantics `{name}` (expected async or sync)")
            }
            ExtractError::UnknownCommand(name) => write!(f, "unknown command `{name}`"),
            ExtractError::MissingOption(option) => {
                write!(f, "missing required option --{option}")
            }
            ExtractError::InvalidOption { option, given } => {
                write!(f, "invalid value `{given}` for --{option}")
            }
            ExtractError::UnexpectedArgument(arg) => write!(f, "unexpected argument `{arg}`"),
            ExtractError::Io { context, source } => write!(f, "{context}: {source}"),
            ExtractError::Verification(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for ExtractError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExtractError::Io { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_per_category() {
        assert_eq!(ExtractError::UnknownAlgorithm("x".into()).exit_code(), 2);
        assert_eq!(ExtractError::MissingOption("in".into()).exit_code(), 2);
        assert_eq!(
            ExtractError::io("f", std::io::Error::other("boom")).exit_code(),
            3
        );
        assert_eq!(ExtractError::Verification("bad".into()).exit_code(), 4);
    }

    #[test]
    fn display_mentions_the_offending_input() {
        let e = ExtractError::invalid_option("scale", "huge");
        assert_eq!(e.to_string(), "invalid value `huge` for --scale");
        let e = ExtractError::UnknownEngine("gpu".into());
        assert!(e.to_string().contains("gpu"));
        assert!(e.to_string().contains("serial"));
    }

    #[test]
    fn io_errors_expose_their_source() {
        use std::error::Error;
        let e = ExtractError::io("reading graph.txt", std::io::Error::other("nope"));
        assert!(e.source().is_some());
        assert!(e.to_string().starts_with("reading graph.txt"));
    }
}
