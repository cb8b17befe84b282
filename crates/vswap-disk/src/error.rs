//! Typed I/O errors: every way a submitted request can fail.

use sim_core::SimDuration;

/// Why a request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoErrorKind {
    /// The request touched a permanently bad sector; retrying the same
    /// sectors can never succeed.
    Latent,
    /// A transient failure; the same request may succeed on retry.
    Transient,
    /// The request exceeded its service deadline and was aborted.
    Timeout,
    /// A multi-sector write tore: `written` sectors reached the medium,
    /// the rest did not. Rewriting the whole range is safe (writes are
    /// idempotent at this layer).
    Torn {
        /// Sectors persisted before the tear.
        written: u64,
    },
}

impl IoErrorKind {
    /// True if retrying the same request can succeed.
    pub fn is_retryable(self) -> bool {
        matches!(self, IoErrorKind::Transient | IoErrorKind::Timeout | IoErrorKind::Torn { .. })
    }
}

/// A failed disk request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoError {
    /// How the request failed.
    pub kind: IoErrorKind,
    /// The first faulting sector.
    pub sector: u64,
    /// Simulated time the failed attempt occupied the device.
    pub wasted: SimDuration,
}

impl IoError {
    /// True if retrying the same request can succeed.
    pub fn is_retryable(&self) -> bool {
        self.kind.is_retryable()
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            IoErrorKind::Latent => write!(f, "latent media error at sector {}", self.sector),
            IoErrorKind::Transient => write!(f, "transient I/O error at sector {}", self.sector),
            IoErrorKind::Timeout => write!(f, "request timed out at sector {}", self.sector),
            IoErrorKind::Torn { written } => {
                write!(f, "torn write at sector {} ({written} sectors persisted)", self.sector)
            }
        }
    }
}

impl std::error::Error for IoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability_follows_the_kind() {
        assert!(!IoErrorKind::Latent.is_retryable());
        assert!(IoErrorKind::Transient.is_retryable());
        assert!(IoErrorKind::Timeout.is_retryable());
        assert!(IoErrorKind::Torn { written: 3 }.is_retryable());
    }

    #[test]
    fn errors_render_their_sector() {
        let e = IoError { kind: IoErrorKind::Latent, sector: 42, wasted: SimDuration::ZERO };
        assert!(e.to_string().contains("sector 42"));
        let torn = IoError {
            kind: IoErrorKind::Torn { written: 5 },
            sector: 9,
            wasted: SimDuration::ZERO,
        };
        assert!(torn.to_string().contains("5 sectors persisted"));
    }
}
