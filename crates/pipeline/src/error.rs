//! Typed pipeline failures.

use charfree_core::BuildError;
use std::fmt;
use std::io;

/// Any failure along the pipeline, tagged with enough context to print a
/// one-line diagnostic.
#[derive(Debug)]
pub enum PipelineError {
    /// A netlist, library or artifact file could not be read or written.
    Io {
        /// The path involved.
        context: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A netlist, library or artifact file failed to parse or validate.
    Parse {
        /// The offending file.
        context: String,
        /// Parser diagnostic.
        message: String,
    },
    /// The operand names neither a file nor a known benchmark.
    UnknownInput(String),
    /// Model construction failed (invalid netlist, or a strict-mode
    /// budget trip).
    Build(BuildError),
    /// The requested operation is not defined for this input kind (e.g.
    /// a compiled kernel where an arena model is needed).
    Unsupported(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Io { context, source } => write!(f, "{context}: {source}"),
            PipelineError::Parse { context, message } => write!(f, "{context}: {message}"),
            PipelineError::UnknownInput(operand) => {
                write!(f, "`{operand}` is neither a file nor a known benchmark")
            }
            PipelineError::Build(e) => write!(f, "{e}"),
            PipelineError::Unsupported(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Io { source, .. } => Some(source),
            PipelineError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildError> for PipelineError {
    fn from(e: BuildError) -> Self {
        PipelineError::Build(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_context() {
        let e = PipelineError::Io {
            context: "x.blif".to_owned(),
            source: io::Error::new(io::ErrorKind::NotFound, "gone"),
        };
        assert!(e.to_string().contains("x.blif"));
        let e = PipelineError::UnknownInput("frob".to_owned());
        assert!(e.to_string().contains("frob"));
        let e = PipelineError::Parse {
            context: "y.v".to_owned(),
            message: "bad token".to_owned(),
        };
        assert!(e.to_string().contains("bad token"));
    }
}
