//! Fallible construction and rendering: the error type of the
//! [`crate::RenderEngine`] API.
//!
//! Invalid configurations and cameras are reported as values, never
//! asserts or silent clamps, so callers (servers, batch drivers) can
//! degrade gracefully instead of crashing a process that may be serving
//! other sessions.

use std::fmt;

/// Convenience alias for results of engine construction and rendering.
pub type NeoResult<T> = Result<T, NeoError>;

/// Everything that can go wrong building a [`crate::RenderEngine`] or
/// rendering through a [`crate::RenderSession`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NeoError {
    /// A configuration parameter is out of range (zero tile size, DPS
    /// chunk below 2, zero periodic interval, …). The payload describes
    /// the offending parameter.
    InvalidConfig(String),
    /// The engine was built without a scene, or with a scene containing
    /// no Gaussians — there is nothing to render and per-tile tables
    /// would never populate.
    EmptyCloud,
    /// The camera cannot produce a well-defined projection: zero
    /// resolution, non-finite pose, or a non-positive / non-finite field
    /// of view. The payload describes the offending parameter.
    DegenerateCamera(String),
}

impl NeoError {
    /// Builds an [`NeoError::InvalidConfig`] from anything printable —
    /// the adapter for validation errors bubbling up from `neo-sort`.
    pub fn invalid_config(msg: impl Into<String>) -> Self {
        NeoError::InvalidConfig(msg.into())
    }
}

impl fmt::Display for NeoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NeoError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            NeoError::EmptyCloud => write!(f, "scene contains no Gaussians"),
            NeoError::DegenerateCamera(msg) => write!(f, "degenerate camera: {msg}"),
        }
    }
}

impl std::error::Error for NeoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = NeoError::invalid_config("tile size must be positive");
        assert!(e.to_string().contains("tile size"));
        assert!(NeoError::EmptyCloud.to_string().contains("no Gaussians"));
        let c = NeoError::DegenerateCamera("zero width".into());
        assert!(c.to_string().contains("zero width"));
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(NeoError::EmptyCloud);
        assert!(!e.to_string().is_empty());
    }
}
