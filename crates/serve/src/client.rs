//! A blocking client for the wn-serve protocol — used by the CLI, the
//! integration tests, and anything else that wants a fleet run without
//! owning the machine it executes on.

use std::fmt;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::protocol::{write_line, Event, JobState, LineReader, ProtoError, Request, Response};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing problems.
    Proto(ProtoError),
    /// The server answered, but with an error or an unexpected
    /// response kind.
    Server(String),
    /// The server closed the connection mid-exchange.
    Disconnected,
    /// `wait_report` ran out of time. The connection is left inside
    /// the watch stream; drop the client.
    Timeout { fingerprint: u64 },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Timeout { fingerprint } => {
                write!(f, "timed out waiting for report {fingerprint:016x}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        ClientError::Proto(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Proto(ProtoError::from(e))
    }
}

/// One connection to a wn-serve daemon.
pub struct Client {
    stream: TcpStream,
    reader: LineReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7171`). Requests go out as
    /// soon as they are written (`TCP_NODELAY`).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = LineReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sends one request and reads one response.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ClientError::Disconnected`] if the
    /// server hangs up instead of answering.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_line(&mut self.stream, &req.to_line())?;
        match self.reader.next_line()? {
            Some(line) => Ok(Response::parse(&line)?),
            None => Err(ClientError::Disconnected),
        }
    }

    /// Submits scenario text; returns `(fingerprint, state)`.
    /// Resubmitting a known scenario is idempotent.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] carries scenario parse errors and
    /// queue-full refusals.
    pub fn submit(&mut self, scenario_text: &str) -> Result<(u64, JobState), ClientError> {
        match self.request(&Request::Submit {
            scenario: scenario_text.to_string(),
        })? {
            Response::Submitted { fingerprint, state } => Ok((fingerprint, state)),
            Response::Error { error } => Err(ClientError::Server(error)),
            other => Err(ClientError::Server(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Fetches a finished report's bytes; `Ok(None)` while the job is
    /// still queued or running.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for unknown fingerprints and failed
    /// jobs.
    pub fn report(&mut self, fingerprint: u64) -> Result<Option<String>, ClientError> {
        match self.request(&Request::Report { fingerprint })? {
            Response::Report { report, .. } => Ok(Some(report)),
            Response::Pending { .. } => Ok(None),
            Response::Error { error } => Err(ClientError::Server(error)),
            other => Err(ClientError::Server(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Watches `fingerprint` until its `done` event, then fetches the
    /// report, all within `timeout`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] after `timeout`; otherwise as
    /// [`Client::watch`] and [`Client::report`].
    pub fn wait_report(
        &mut self,
        fingerprint: u64,
        timeout: Duration,
    ) -> Result<String, ClientError> {
        let deadline = Instant::now() + timeout;
        let fetched = self
            .watch_by(fingerprint, Some(deadline), |_| {})
            .and_then(|()| {
                self.read_by(deadline)?;
                self.report(fingerprint)
            });
        self.stream.set_read_timeout(None)?;
        match fetched {
            Ok(Some(report)) => Ok(report),
            Ok(None) => Err(ClientError::Server(format!(
                "job {fingerprint:016x} is done but has no report"
            ))),
            Err(_) if Instant::now() >= deadline => Err(ClientError::Timeout { fingerprint }),
            Err(e) => Err(e),
        }
    }

    /// Bounds the stream's next reads by `deadline`.
    fn read_by(&mut self, deadline: Instant) -> Result<(), ClientError> {
        // A zero read timeout is refused, so an elapsed deadline gets
        // the shortest one instead and the read fails at once.
        let left = deadline.saturating_duration_since(Instant::now());
        self.stream
            .set_read_timeout(Some(left.max(Duration::from_micros(1))))?;
        Ok(())
    }

    /// Subscribes to progress events for `fingerprint`, invoking
    /// `on_event` per event until the job's `done` event arrives (the
    /// final `Done` is passed to the callback too).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for unknown fingerprints and failed
    /// jobs; [`ClientError::Disconnected`] if the server closes the
    /// stream before `done` (it is shutting down, or the job failed);
    /// transport errors.
    pub fn watch(
        &mut self,
        fingerprint: u64,
        on_event: impl FnMut(&Event),
    ) -> Result<(), ClientError> {
        self.watch_by(fingerprint, None, on_event)
    }

    /// [`Client::watch`], with every read bounded by `deadline` if set.
    fn watch_by(
        &mut self,
        fingerprint: u64,
        deadline: Option<Instant>,
        mut on_event: impl FnMut(&Event),
    ) -> Result<(), ClientError> {
        if let Some(deadline) = deadline {
            self.read_by(deadline)?;
        }
        match self.request(&Request::Watch { fingerprint })? {
            Response::Watching { .. } => {}
            Response::Error { error } => return Err(ClientError::Server(error)),
            other => {
                return Err(ClientError::Server(format!(
                    "unexpected response {other:?}"
                )))
            }
        }
        loop {
            if let Some(deadline) = deadline {
                self.read_by(deadline)?;
            }
            let line = self.reader.next_line()?.ok_or(ClientError::Disconnected)?;
            let event = Event::parse(&line)?;
            let done = matches!(event, Event::Done { .. });
            on_event(&event);
            if done {
                return Ok(());
            }
        }
    }

    /// Daemon statistics.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        match self.request(&Request::Stats)? {
            r @ Response::Stats { .. } => Ok(r),
            Response::Error { error } => Err(ClientError::Server(error)),
            other => Err(ClientError::Server(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Server(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Asks the daemon to stop gracefully.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(ClientError::Server(format!(
                "unexpected response {other:?}"
            ))),
        }
    }
}
