//! Errors and stable wire error codes.
//!
//! Every failure a remote tenant can observe is identified by an
//! [`ErrorCode`] — a small, **stable** `u16` that both codec
//! directions share: the server encodes the code when it rejects or
//! errors, the client decodes the same number back into the same
//! variant, and the numbers never change meaning across protocol
//! revisions (new codes may be added; existing ones are frozen).
//! Codes 1–19 mirror the service's [`AdmissionError`] variants
//! one-to-one, so a remote rejection carries exactly the information
//! an in-process caller would get.
//!
//! [`NetError`] is the one error type the crate's fallible operations
//! return, folding together transport I/O, protocol violations,
//! admission rejections, and server-reported failures.

use std::fmt;
use std::io;

use dpack_service::wal::codec::CodecError;
use dpack_service::AdmissionError;

/// A stable, wire-encoded failure identifier. The discriminants are
/// the protocol: they are written as `u16` on the wire and must never
/// be renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u16)]
pub enum ErrorCode {
    /// [`AdmissionError::QueueFull`] — backpressure; retry later.
    QueueFull = 1,
    /// [`AdmissionError::QuotaExceeded`].
    QuotaExceeded = 2,
    /// [`AdmissionError::UnknownBlock`].
    UnknownBlock = 3,
    /// [`AdmissionError::GridMismatch`] (also: a wire demand curve
    /// whose length does not fit the service's alpha grid).
    GridMismatch = 4,
    /// [`AdmissionError::InvalidTask`].
    InvalidTask = 5,
    /// [`AdmissionError::DuplicateTask`].
    DuplicateTask = 6,
    /// Block registration refused (duplicate id, malformed capacity).
    BlockRejected = 20,
    /// The peer violated the wire protocol (bad frame, bad message).
    Protocol = 30,
    /// Transport I/O failed.
    Io = 31,
    /// The connection or server was shut down before the reply.
    Closed = 32,
    /// The connection exceeded its per-connection buffer or in-flight
    /// bound; the server flushes this and closes. Reconnect (less
    /// aggressively) rather than retrying on the same connection.
    Overloaded = 33,
    /// A client-side deadline expired (a bounded failover dial, a
    /// ship-ack wait) before the operation completed.
    Timeout = 34,
    /// The node is a replica: it accepts only `Replicate` traffic.
    /// Failover clients treat this as "probe the next candidate".
    NotPrimary = 40,
    /// A `Replicate` batch left a sequence gap on its stream; the
    /// replica refused it (applying out of order would diverge from
    /// the primary's append order).
    ReplicationGap = 41,
    /// The sender's term is older than the receiver's: a deposed
    /// primary (or a stale resync) tried to write. The sender must
    /// stop acknowledging and rejoin as a replica.
    StaleTerm = 42,
    /// The handshake's shared-secret token was missing or wrong, or a
    /// request arrived before a successful handshake on a secured
    /// node.
    Unauthorized = 43,
}

impl ErrorCode {
    /// The wire representation.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Decodes a wire code; unknown numbers (from a newer peer) map to
    /// `None` and should be surfaced as a protocol-level failure.
    pub fn from_u16(code: u16) -> Option<Self> {
        Some(match code {
            1 => Self::QueueFull,
            2 => Self::QuotaExceeded,
            3 => Self::UnknownBlock,
            4 => Self::GridMismatch,
            5 => Self::InvalidTask,
            6 => Self::DuplicateTask,
            20 => Self::BlockRejected,
            30 => Self::Protocol,
            31 => Self::Io,
            32 => Self::Closed,
            33 => Self::Overloaded,
            34 => Self::Timeout,
            40 => Self::NotPrimary,
            41 => Self::ReplicationGap,
            42 => Self::StaleTerm,
            43 => Self::Unauthorized,
            _ => return None,
        })
    }

    /// A short stable name (for logs and the README table).
    pub fn name(self) -> &'static str {
        match self {
            Self::QueueFull => "queue-full",
            Self::QuotaExceeded => "quota-exceeded",
            Self::UnknownBlock => "unknown-block",
            Self::GridMismatch => "grid-mismatch",
            Self::InvalidTask => "invalid-task",
            Self::DuplicateTask => "duplicate-task",
            Self::BlockRejected => "block-rejected",
            Self::Protocol => "protocol",
            Self::Io => "io",
            Self::Closed => "closed",
            Self::Overloaded => "overloaded",
            Self::Timeout => "timeout",
            Self::NotPrimary => "not-primary",
            Self::ReplicationGap => "replication-gap",
            Self::StaleTerm => "stale-term",
            Self::Unauthorized => "unauthorized",
        }
    }

    /// Whether the failure is worth retrying unchanged (backpressure),
    /// as opposed to a request the service will keep refusing.
    pub fn is_retryable(self) -> bool {
        matches!(self, Self::QueueFull)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name(), self.as_u16())
    }
}

/// The stable code for an admission rejection — the mapping both codec
/// directions share.
pub fn admission_code(error: &AdmissionError) -> ErrorCode {
    match error {
        AdmissionError::QueueFull { .. } => ErrorCode::QueueFull,
        AdmissionError::QuotaExceeded { .. } => ErrorCode::QuotaExceeded,
        AdmissionError::UnknownBlock { .. } => ErrorCode::UnknownBlock,
        AdmissionError::GridMismatch { .. } => ErrorCode::GridMismatch,
        AdmissionError::InvalidTask { .. } => ErrorCode::InvalidTask,
        AdmissionError::DuplicateTask { .. } => ErrorCode::DuplicateTask,
    }
}

/// Any failure of a `dpack-net` operation.
#[derive(Debug)]
pub enum NetError {
    /// The transport failed (socket error, unexpected EOF mid-frame).
    Io(io::Error),
    /// The peer sent bytes that violate the wire protocol; the
    /// connection is no longer trustworthy and should be closed.
    Protocol(String),
    /// A local admission rejection (loopback transports surface the
    /// service's error directly).
    Admission(AdmissionError),
    /// The server reported a failure with a stable code.
    Remote {
        /// The stable failure code.
        code: ErrorCode,
        /// Human-readable detail (never required for dispatch).
        message: String,
    },
    /// The connection or server shut down before the reply arrived.
    Closed,
    /// A client-side deadline expired before the operation completed
    /// (bounded failover dials, read-timeout ship waits).
    Timeout,
}

impl NetError {
    /// The stable code describing this error — the same number the
    /// wire would carry for it, so client- and server-side reporting
    /// agree.
    pub fn code(&self) -> ErrorCode {
        match self {
            Self::Io(_) => ErrorCode::Io,
            Self::Protocol(_) => ErrorCode::Protocol,
            Self::Admission(e) => admission_code(e),
            Self::Remote { code, .. } => *code,
            Self::Closed => ErrorCode::Closed,
            Self::Timeout => ErrorCode::Timeout,
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport i/o error: {e}"),
            Self::Protocol(what) => write!(f, "wire protocol violation: {what}"),
            Self::Admission(e) => write!(f, "admission rejected: {e}"),
            Self::Remote { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
            Self::Closed => write!(f, "connection closed before the reply"),
            Self::Timeout => write!(f, "deadline expired before the operation completed"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Admission(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        Self::Protocol(e.0)
    }
}

impl From<AdmissionError> for NetError {
    fn from(e: AdmissionError) -> Self {
        Self::Admission(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_stay_stable() {
        let all = [
            (ErrorCode::QueueFull, 1),
            (ErrorCode::QuotaExceeded, 2),
            (ErrorCode::UnknownBlock, 3),
            (ErrorCode::GridMismatch, 4),
            (ErrorCode::InvalidTask, 5),
            (ErrorCode::DuplicateTask, 6),
            (ErrorCode::BlockRejected, 20),
            (ErrorCode::Protocol, 30),
            (ErrorCode::Io, 31),
            (ErrorCode::Closed, 32),
            (ErrorCode::Overloaded, 33),
            (ErrorCode::Timeout, 34),
            (ErrorCode::NotPrimary, 40),
            (ErrorCode::ReplicationGap, 41),
            (ErrorCode::StaleTerm, 42),
            (ErrorCode::Unauthorized, 43),
        ];
        for (code, number) in all {
            assert_eq!(code.as_u16(), number, "{code:?} renumbered");
            assert_eq!(ErrorCode::from_u16(number), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(9999), None);
        assert!(ErrorCode::QueueFull.is_retryable());
        assert!(!ErrorCode::DuplicateTask.is_retryable());
    }

    #[test]
    fn every_admission_variant_has_a_distinct_code() {
        let variants = [
            AdmissionError::QueueFull { capacity: 1 },
            AdmissionError::QuotaExceeded {
                tenant: 0,
                quota: 1,
            },
            AdmissionError::UnknownBlock { task: 0, block: 0 },
            AdmissionError::GridMismatch { task: 0 },
            AdmissionError::InvalidTask {
                task: 0,
                reason: "x",
            },
            AdmissionError::DuplicateTask { task: 0 },
        ];
        let codes: std::collections::BTreeSet<u16> = variants
            .iter()
            .map(|e| admission_code(e).as_u16())
            .collect();
        assert_eq!(codes.len(), variants.len());
    }

    #[test]
    fn errors_render_and_chain() {
        use std::error::Error as _;
        let e = NetError::from(io::Error::new(io::ErrorKind::BrokenPipe, "pipe"));
        assert_eq!(e.code(), ErrorCode::Io);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("pipe"));
        let e = NetError::from(AdmissionError::DuplicateTask { task: 4 });
        assert_eq!(e.code(), ErrorCode::DuplicateTask);
        assert!(e.source().is_some());
        let e = NetError::Remote {
            code: ErrorCode::BlockRejected,
            message: "duplicate block id 3".into(),
        };
        assert!(e.to_string().contains("block-rejected (20)"));
        assert!(NetError::Closed.to_string().contains("closed"));
        assert_eq!(NetError::Protocol("x".into()).code(), ErrorCode::Protocol);
        assert_eq!(NetError::Timeout.code(), ErrorCode::Timeout);
        assert!(NetError::Timeout.to_string().contains("deadline"));
    }
}
