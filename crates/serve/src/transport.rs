//! The one transport both ends use: a stream over TCP (`host:port`) or a
//! Unix socket (`unix:<path>`), the listener the daemon accepts on, and
//! the line writer every request, response and event goes out through.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

use crate::error::ServeError;

/// One connection, TCP or Unix.
pub(crate) enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    /// Connects to `host:port` or `unix:<path>`, with `timeout` applied to
    /// the connect (TCP), and to every read and write.
    pub(crate) fn connect(addr: &str, timeout: Option<Duration>) -> Result<Self, ServeError> {
        let conn = match addr.strip_prefix("unix:") {
            Some(path) => Self::Unix(UnixStream::connect(path)?),
            None => Self::Tcp(match timeout {
                None => TcpStream::connect(addr)?,
                Some(t) => {
                    let mut last: Option<std::io::Error> = None;
                    let mut connected = None;
                    for sa in addr.to_socket_addrs()? {
                        match TcpStream::connect_timeout(&sa, t) {
                            Ok(s) => {
                                connected = Some(s);
                                break;
                            }
                            Err(e) => last = Some(e),
                        }
                    }
                    match connected {
                        Some(s) => s,
                        None => {
                            return Err(last
                                .map(ServeError::from)
                                .unwrap_or(ServeError::Disconnected))
                        }
                    }
                }
            }),
        };
        match &conn {
            Self::Tcp(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)?;
            }
            Self::Unix(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)?;
            }
        }
        Ok(conn)
    }

    pub(crate) fn try_clone(&self) -> std::io::Result<Self> {
        Ok(match self {
            Self::Tcp(s) => Self::Tcp(s.try_clone()?),
            Self::Unix(s) => Self::Unix(s.try_clone()?),
        })
    }

    /// Ends the connection from the server's side: the handler's next
    /// read sees end-of-stream and it exits, closing the socket. Only the
    /// read half is shut, so a response or watch event already on its way
    /// out (the `draining` acknowledgement itself, a final `job_done`)
    /// still reaches the client.
    pub(crate) fn hang_up(&self) {
        let _ = match self {
            Self::Tcp(s) => s.shutdown(Shutdown::Read),
            Self::Unix(s) => s.shutdown(Shutdown::Read),
        };
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Self::Tcp(s) => s.read(buf),
            Self::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Self::Tcp(s) => s.write(buf),
            Self::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Self::Tcp(s) => s.flush(),
            Self::Unix(s) => s.flush(),
        }
    }
}

/// Writes one protocol line: the text, its newline, then a flush.
pub(crate) fn write_line(writer: &mut impl Write, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// The daemon's listening socket.
pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Binds `host:port` (port 0 picks an ephemeral one) or `unix:<path>`
    /// (replacing a stale socket file). Returns the listener and the
    /// address clients connect to: the real port for TCP, `listen` itself
    /// for a Unix socket.
    pub(crate) fn bind(listen: &str) -> std::io::Result<(Self, String)> {
        Ok(match listen.strip_prefix("unix:") {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                (Self::Unix(UnixListener::bind(path)?), listen.to_string())
            }
            None => {
                let l = TcpListener::bind(listen)?;
                let addr = l.local_addr()?.to_string();
                (Self::Tcp(l), addr)
            }
        })
    }

    pub(crate) fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Self::Tcp(l) => l.set_nonblocking(true),
            Self::Unix(l) => l.set_nonblocking(true),
        }
    }

    pub(crate) fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Self::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Self::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}
