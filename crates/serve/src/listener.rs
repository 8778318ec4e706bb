//! The connection front end both service tiers run on: accept,
//! per-connection keep-alive request loops, load shedding, and orderly
//! shutdown.
//!
//! A tier binds its socket, starts the threads behind its queue, and
//! hands [`serve`] two things: its request handler — a plain
//! `Fn(&Request) -> Response`, called by static dispatch on every
//! request — and a `drain` closure that closes the queue and joins
//! those threads. The returned [`Service`] owns the rest.

use std::fmt;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use fq_faults::{FaultKind, FaultPlan, FaultSite};
use frozenqubits::FqError;

use crate::error::error_response;
use crate::http::{self, ReadError, Request, Response};

/// Per-connection limits, copied from the tier's own configuration
/// (`ServerConfig` documents each one).
#[derive(Clone, Debug)]
pub struct ListenerConfig {
    /// Most concurrent connections; beyond it → immediate `503`.
    pub max_connections: usize,
    /// Socket read timeout (single-read bound).
    pub read_timeout: Duration,
    /// Wall-clock budget for receiving one complete request (→ `400`).
    pub request_deadline: Duration,
    /// Largest accepted request body, in bytes (→ `413`).
    pub max_body_bytes: usize,
    /// Chaos-test fault injection: when set, every accepted connection
    /// rolls [`FaultSite::Accept`] before its first read.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

/// Starts accepting on `listener` (thread `{name}-accept`, connections
/// on `{name}-conn`) and returns the running service. `drain` runs once,
/// after accepting has stopped: it closes the tier's queue, lets
/// already-queued work finish, and joins the threads behind it.
///
/// # Errors
///
/// [`FqError::Io`] when the accept thread cannot be started; `drain`
/// runs first, so no thread the tier started is left blocked on a queue
/// nobody will close.
pub fn serve<H>(
    listener: TcpListener,
    name: &str,
    config: ListenerConfig,
    handler: H,
    drain: impl FnOnce() + Send + Sync + 'static,
) -> Result<Service, FqError>
where
    H: Fn(&Request) -> Response + Send + Sync + 'static,
{
    let stop = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        config,
        handler,
        conn_name: format!("{name}-conn"),
    });
    let started = listener.local_addr().and_then(|addr| {
        let stop = Arc::clone(&stop);
        thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || accept_loop(&listener, &shared, &stop))
            .map(|accept| (addr, accept))
    });
    match started {
        Ok((addr, accept)) => Ok(Service {
            addr,
            stop,
            accept: Some(accept),
            drain: Some(Box::new(drain)),
        }),
        Err(e) => {
            drain();
            Err(FqError::Io(format!("starting the accept thread: {e}")))
        }
    }
}

/// A running service: address discovery plus orderly shutdown.
///
/// Dropping it shuts the service down (stops accepting, drains the
/// queue through the tier's threads and joins them), so a test that
/// panics still releases its port and threads.
pub struct Service {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    drain: Option<Box<dyn FnOnce() + Send + Sync>>,
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// The actual bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, lets already-queued work finish, and joins every
    /// thread.
    pub fn shutdown(mut self) {
        self.stop_internal();
    }

    /// Blocks the calling thread for the service's lifetime (a binary's
    /// main loop). Returns only if the accept loop exits, then performs
    /// the same cleanup as [`Service::shutdown`].
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.stop_internal();
    }

    fn stop_internal(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            // Wake the accept loop: `TcpListener::accept` has no timeout,
            // so poke it with a throwaway connection. A `0.0.0.0`/`[::]`
            // bind is not connectable on every platform — poke loopback
            // instead.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(wake);
            let _ = accept.join();
        }
        if let Some(drain) = self.drain.take() {
            drain();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_internal();
    }
}

/// Checks a static bearer token gating an admin endpoint. Without a
/// configured token everything passes; with one, only an exact
/// `authorization: Bearer <token>` match does.
#[must_use]
pub fn authorized(request: &Request, token: Option<&str>) -> bool {
    match token {
        None => true,
        Some(token) => request
            .header("authorization")
            .and_then(|value| value.strip_prefix("Bearer "))
            .is_some_and(|presented| presented == token),
    }
}

/// What every connection thread shares.
struct Shared<H> {
    config: ListenerConfig,
    handler: H,
    conn_name: String,
}

/// Decrements the live-connection count even if a handler panics.
struct ConnectionSlot(Arc<AtomicUsize>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Refuses an over-cap connection with `503`, then drains the client's
/// already-sent request bytes before closing. Closing with unread data
/// in the receive queue makes the kernel RST the connection and discard
/// the queued response — the client would see "connection reset"
/// instead of the 503 (a race the connection-cap test hits under load).
/// The drain is bounded by a short read timeout so a hostile peer can
/// only hold the accept thread briefly.
fn shed_connection(mut stream: TcpStream) {
    let _ = error_response(503, "overloaded", "connection limit reached")
        .write(&mut stream, false)
        .and_then(|()| stream.shutdown(std::net::Shutdown::Write));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut scratch = [0u8; 4096];
    while matches!(std::io::Read::read(&mut stream, &mut scratch), Ok(n) if n > 0) {}
}

fn accept_loop<H>(listener: &TcpListener, shared: &Arc<Shared<H>>, stop: &Arc<AtomicBool>)
where
    H: Fn(&Request) -> Response + Send + Sync + 'static,
{
    let active = Arc::new(AtomicUsize::new(0));
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(stream) => stream,
            Err(_) => {
                // Persistent accept errors (e.g. fd exhaustion) would
                // otherwise busy-spin this thread at 100% CPU; back off
                // briefly so in-flight connections can release fds.
                thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        // Connection cap: beyond it, shed load with an immediate 503
        // instead of spawning an unbounded number of threads.
        if active.load(Ordering::SeqCst) >= shared.config.max_connections {
            shed_connection(stream);
            continue;
        }
        active.fetch_add(1, Ordering::SeqCst);
        let slot = ConnectionSlot(Arc::clone(&active));
        let shared = Arc::clone(shared);
        let stop = Arc::clone(stop);
        // Connection threads are detached: each is bounded by the
        // per-request deadline + read timeout, counted against
        // `max_connections`, and closed (`connection: close`) once
        // `stop` is set.
        let spawned = thread::Builder::new()
            .name(shared.conn_name.clone())
            .spawn(move || {
                let _slot = slot;
                handle_connection(stream, &shared, &stop);
            });
        // Spawn failure: `slot` moved into the closure that never ran —
        // it is dropped with the error, releasing the count.
        drop(spawned);
    }
}

/// Serves one connection: a keep-alive loop of read → handle → respond.
/// Framing errors answer with the mapped status (when one applies) and
/// close; the loop also closes once shutdown has begun.
fn handle_connection<H>(mut stream: TcpStream, shared: &Shared<H>, stop: &AtomicBool)
where
    H: Fn(&Request) -> Response,
{
    let config = &shared.config;
    if let Some(plan) = &config.fault_plan {
        match plan.roll(FaultSite::Accept) {
            // Drop the accepted connection before reading a byte — the
            // client sees a reset/EOF, the transport shape of a process
            // dying between `connect` and its first response.
            Some(FaultKind::Refuse) => return,
            // Sit on the connection (paused-process / slow-loris shape):
            // the client's read blocks until its own timeout fires.
            Some(FaultKind::Stall(ms)) => thread::sleep(Duration::from_millis(ms)),
            _ => {}
        }
    }
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(http::DeadlineReader::new(read_half));
    loop {
        // Arm the slow-drip guard: this whole request must arrive within
        // `request_deadline` (reads already in flight add at most one
        // `read_timeout`).
        reader.get_mut().arm(config.request_deadline);
        match http::read_request(&mut reader, config.max_body_bytes) {
            Ok(request) => {
                let keep_alive = request.keep_alive && !stop.load(Ordering::SeqCst);
                let response = (shared.handler)(&request);
                if response.write(&mut stream, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Err(error) => {
                if let Some(status) = error.status() {
                    let kind = match &error {
                        ReadError::PayloadTooLarge { .. } => "payload_too_large",
                        ReadError::NotImplemented(_) => "not_implemented",
                        ReadError::VersionNotSupported(_) => "http_version",
                        _ => "bad_request",
                    };
                    let _ =
                        error_response(status, kind, &error.message()).write(&mut stream, false);
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_requests_then_drains_on_shutdown() {
        let drained = Arc::new(AtomicBool::new(false));
        let config = ListenerConfig {
            max_connections: 4,
            read_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(5),
            max_body_bytes: 1024,
            fault_plan: None,
        };
        let service = serve(
            TcpListener::bind("127.0.0.1:0").unwrap(),
            "fq-test",
            config,
            |_: &Request| Response::json(200, "{}"),
            {
                let drained = Arc::clone(&drained);
                move || drained.store(true, Ordering::SeqCst)
            },
        )
        .unwrap();
        let addr = service.addr().to_string();
        let response = crate::client::request(&addr, "GET", "/", None).unwrap();
        assert_eq!((response.status, response.body.as_str()), (200, "{}"));
        assert!(!drained.load(Ordering::SeqCst));
        service.shutdown();
        assert!(drained.load(Ordering::SeqCst));
    }
}
