//! Typed errors of the service layer. Nothing on the request path
//! unwraps: spec validation, pool shutdown and store I/O all surface as
//! [`ServeError`] values, and corrupt store entries inherit the
//! recompute-and-overwrite recovery of [`crate::store::StoreReadError`].

use crate::store::StoreReadError;
use std::fmt;

/// Why a campaign request could not be served.
#[derive(Debug)]
pub enum ServeError {
    /// The spec fails validation (infeasible grid, panel, memory or
    /// fault-plan bounds); the reason says which rule.
    InvalidSpec {
        /// The violated rule, human-readable.
        reason: String,
    },
    /// The service's worker pool has shut down (or died); no new work
    /// can be executed.
    PoolShutdown,
    /// Reading the persistent result store failed. Corrupt entries are
    /// recovered transparently on the request path and never surface
    /// here; this is for hard I/O failures on explicit store accesses
    /// (e.g. loading a [`crate::ResultTable`]).
    Store(StoreReadError),
}

impl ServeError {
    /// Shorthand for an [`ServeError::InvalidSpec`].
    pub(crate) fn invalid(reason: impl Into<String>) -> Self {
        ServeError::InvalidSpec {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidSpec { reason } => write!(f, "invalid campaign spec: {reason}"),
            ServeError::PoolShutdown => write!(f, "campaign service worker pool is shut down"),
            ServeError::Store(e) => write!(f, "campaign store: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreReadError> for ServeError {
    fn from(e: StoreReadError) -> Self {
        ServeError::Store(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Store(StoreReadError::Io(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_failure() {
        let e = ServeError::invalid("grid 0x3 has no ranks");
        assert!(e.to_string().contains("grid 0x3"));
        assert!(ServeError::PoolShutdown.to_string().contains("shut down"));
        let io = ServeError::from(std::io::Error::other("disk gone"));
        assert!(io.to_string().contains("disk gone"));
        assert!(std::error::Error::source(&io).is_some());
    }
}
