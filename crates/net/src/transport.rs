//! Client-side transports: how framed bytes reach a server.
//!
//! The [`Transport`] trait is the seam that lets every protocol test
//! run without a socket: [`TcpTransport`] carries frames over a real
//! `TcpStream`, [`LoopbackTransport`] hands them straight to an
//! in-process [`ServiceCore`] — same codecs, same request semantics,
//! no reactor, no ports. The client is written against the trait and
//! cannot tell the difference.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;

use dpack_service::BudgetService;

use crate::error::NetError;
use crate::server::{ServiceCore, Step};
use crate::wire::{frame_into, FrameDecoder};

/// A bidirectional, ordered frame pipe to a server.
///
/// `send_frame` takes the *message payload* (unframed); the transport
/// adds the frame header. A transport may hold sent frames back to
/// write several at once, but a frame reaches the peer no later than
/// the next `recv_frame` that has to wait, the next `flush`, or the
/// transport's drop. `recv_frame` returns the next inbound payload,
/// blocking until one is available.
pub trait Transport: Send {
    /// Sends one message payload.
    ///
    /// # Errors
    ///
    /// Transport failures ([`NetError::Io`], [`NetError::Closed`]).
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), NetError>;

    /// Receives the next message payload, blocking until it arrives.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] when the inbound
    /// stream is corrupt.
    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError>;

    /// Writes out every frame sent so far. The default does nothing,
    /// for transports that deliver each frame as it is sent.
    ///
    /// # Errors
    ///
    /// Transport failures.
    fn flush(&mut self) -> Result<(), NetError> {
        Ok(())
    }

    /// Bounds how long `recv_frame` blocks; an expired bound surfaces
    /// as [`NetError::Timeout`]. `None` restores indefinite blocking.
    /// The default implementation ignores the bound (in-process
    /// transports answer synchronously and never block meaningfully).
    ///
    /// # Errors
    ///
    /// Socket configuration failures.
    fn set_read_timeout(&mut self, timeout: Option<std::time::Duration>) -> Result<(), NetError> {
        let _ = timeout;
        Ok(())
    }
}

/// Frames queued past this many bytes are written at once, so a deep
/// pipeline neither grows the buffer without bound nor waits for its
/// first receive.
const WRITE_COALESCE: usize = 64 * 1024;

/// Frames over a blocking `TcpStream`. Sent frames collect in a buffer
/// and go out in one `write` when a receive has to wait, the buffer
/// passes [`WRITE_COALESCE`] bytes, on [`Transport::flush`], or on
/// drop: a burst of pipelined requests costs one system call.
pub struct TcpTransport {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Framed, not yet written requests.
    wbuf: Vec<u8>,
}

impl TcpTransport {
    /// Connects to a [`crate::NetServer`] (or anything speaking the
    /// protocol).
    ///
    /// # Errors
    ///
    /// Socket connect/configuration failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(),
            wbuf: Vec::new(),
        })
    }
}

impl Transport for TcpTransport {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), NetError> {
        frame_into(&mut self.wbuf, payload);
        if self.wbuf.len() >= WRITE_COALESCE {
            self.flush()?;
        }
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        loop {
            if let Some(payload) = self.decoder.next_frame()? {
                return Ok(payload);
            }
            // About to block: the reply may answer a queued request.
            self.flush()?;
            let mut chunk = [0u8; 8192];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(NetError::Closed),
                Ok(n) => self.decoder.extend(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // SO_RCVTIMEO surfaces as WouldBlock or TimedOut
                // depending on the platform.
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(NetError::Timeout)
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    fn flush(&mut self) -> Result<(), NetError> {
        if !self.wbuf.is_empty() {
            // Cleared even on failure: a partly written buffer leaves
            // the stream desynced, and the caller must drop it.
            let wrote = self.stream.write_all(&self.wbuf);
            self.wbuf.clear();
            wrote?;
        }
        Ok(())
    }

    fn set_read_timeout(&mut self, timeout: Option<std::time::Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Nobody is left to hear a failure.
        let _ = self.flush();
    }
}

/// An in-memory transport wired directly to a [`ServiceCore`] — the
/// protocol without the sockets. `send_frame` runs the request
/// synchronously; `recv_frame` serves buffered immediate replies
/// first, then parks on the oldest pending decision (so something must
/// drive [`BudgetService::run_cycle`] — a background
/// [`dpack_service::ServiceHandle`] or the test itself — before or
/// while receiving).
pub struct LoopbackTransport {
    core: ServiceCore,
    ready: VecDeque<Vec<u8>>,
    pending: VecDeque<crate::server::PendingReply>,
    /// Per-connection handshake state, exactly as a socket connection
    /// tracks it — a secured core refuses everything until a
    /// successful `Hello`.
    authed: bool,
}

impl LoopbackTransport {
    /// Attaches to a shared service.
    pub fn new(service: Arc<BudgetService>) -> Self {
        Self::with_core(ServiceCore::new(service))
    }

    /// Attaches to an arbitrary core — a replica role, or a test
    /// harness core.
    pub fn with_core(core: ServiceCore) -> Self {
        Self {
            core,
            ready: VecDeque::new(),
            pending: VecDeque::new(),
            authed: false,
        }
    }
}

impl Transport for LoopbackTransport {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), NetError> {
        match self.core.handle_with(payload, &mut self.authed)? {
            Step::Reply(reply) => self.ready.push_back(reply),
            Step::Pending(p) => self.pending.push_back(p),
        }
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        if let Some(reply) = self.ready.pop_front() {
            return Ok(reply);
        }
        match self.pending.pop_front() {
            Some(p) => Ok(p.wait()),
            None => Err(NetError::Closed),
        }
    }
}
