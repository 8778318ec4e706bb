//! The open-loop load generator: constant-rate arrivals over keep-alive
//! connections, timed from each request's intended send time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fq_serve::client::ShardConn;

use crate::stats::Stamp;

/// Read timeout of every generator connection: a stalled peer turns
/// into a failed (+∞) request instead of a hung run.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// One request's outcome as the generator saw it.
#[derive(Clone, Debug)]
pub enum Reply {
    /// An HTTP response with its status and body.
    Http(u16, String),
    /// A transport error or timeout.
    Transport(String),
}

/// Everything one open-loop phase observed, indexed like its requests.
pub struct Phase {
    /// Clock readings per request, relative to the phase origin.
    pub stamps: Vec<Stamp>,
    /// What came back per request.
    pub replies: Vec<Reply>,
    /// Nanoseconds from the origin to the last reply.
    pub wall_ns: u64,
}

/// Intended send offset of request `i` at `rate` requests per second.
#[must_use]
pub fn intended_ns(i: usize, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate).round() as u64
}

/// Sends `bodies[i]` as `POST /v1/jobs` to `addr` at its scheduled time
/// `intended_ns(i, rate)`, from `threads` threads that each hold one
/// keep-alive connection and claim the next due request in turn.
/// `expected[i]` decides whether a `200` counts as correct; the check
/// runs after the phase, outside the timed loop.
pub fn run(addr: &str, bodies: &[String], expected: &[String], rate: f64, threads: usize) -> Phase {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, u64, u64, Reply)>> =
        Mutex::new(Vec::with_capacity(bodies.len()));
    let origin = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut conn = ShardConn::new(addr);
                conn.set_read_timeout(REQUEST_TIMEOUT);
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= bodies.len() {
                        break;
                    }
                    let due = origin + Duration::from_nanos(intended_ns(i, rate));
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let sent = origin.elapsed().as_nanos() as u64;
                    let reply = match conn.request("POST", "/v1/jobs", Some(&bodies[i])) {
                        Ok(response) => Reply::Http(response.status, response.body),
                        Err(error) => Reply::Transport(error.to_string()),
                    };
                    let done = origin.elapsed().as_nanos() as u64;
                    local.push((i, sent, done, reply));
                }
                results
                    .lock()
                    .expect("no generator thread panics while holding the results")
                    .extend(local);
            });
        }
    });
    let mut results = results.into_inner().expect("generator threads joined");
    results.sort_by_key(|r| r.0);
    let wall_ns = results.iter().map(|r| r.2).max().unwrap_or(0);
    let mut stamps = Vec::with_capacity(results.len());
    let mut replies = Vec::with_capacity(results.len());
    for (i, sent_ns, done_ns, reply) in results {
        let ok = matches!(&reply, Reply::Http(200, body) if *body == expected[i]);
        stamps.push(Stamp {
            intended_ns: intended_ns(i, rate),
            sent_ns,
            done_ns,
            ok,
        });
        replies.push(reply);
    }
    Phase {
        stamps,
        replies,
        wall_ns,
    }
}

impl Phase {
    /// Requests that came back `200` with bytes other than the reference.
    #[must_use]
    pub fn mismatches(&self) -> usize {
        self.replies
            .iter()
            .zip(&self.stamps)
            .filter(|(reply, stamp)| matches!(reply, Reply::Http(200, _)) && !stamp.ok)
            .count()
    }

    /// Requests that failed for any reason (transport, timeout, non-200,
    /// wrong bytes).
    #[must_use]
    pub fn failures(&self) -> usize {
        self.stamps.iter().filter(|s| !s.ok).count()
    }

    /// The first failure, described, for diagnostics.
    #[must_use]
    pub fn first_failure(&self) -> Option<String> {
        let i = self.stamps.iter().position(|s| !s.ok)?;
        Some(match &self.replies[i] {
            Reply::Http(200, _) => {
                format!("request {i}: 200 with bytes differing from the reference")
            }
            Reply::Http(status, body) => format!("request {i}: HTTP {status}: {body}"),
            Reply::Transport(error) => format!("request {i}: {error}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_schedule() {
        assert_eq!(intended_ns(0, 300.0), 0);
        assert_eq!(intended_ns(3, 300.0), 10_000_000);
        assert_eq!(intended_ns(600, 600.0), 1_000_000_000);
    }
}
