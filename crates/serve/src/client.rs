//! A minimal blocking HTTP client for the job service — enough for the
//! examples, the e2e tests and CI smoke steps, with no dependencies
//! beyond `std::net` (the same offline constraint as the server).
//!
//! Two tiers, by traffic shape:
//!
//! * [`request`] and the typed helpers ([`submit_sync`],
//!   [`submit_async`], [`poll`]) open one connection per call
//!   (`connection: close`) — fine for smoke tests and scripts;
//! * [`ShardConn`] holds a keep-alive `TcpStream` across requests and
//!   frames responses by `content-length` — what `fq-dispatch` uses to
//!   forward thousands of jobs without a TCP handshake per job.
//!
//! # Examples
//!
//! ```no_run
//! use fq_serve::client;
//! use frozenqubits::api::{DeviceSpec, JobBuilder};
//!
//! let spec = JobBuilder::new()
//!     .barabasi_albert(12, 1, 7)
//!     .device(DeviceSpec::IbmMontreal)
//!     .compare()
//!     .build()?;
//! let report = client::submit_sync("127.0.0.1:8077", &spec)?.into_compare()?;
//! println!("improvement: {:.2}x", report.improvement);
//! # Ok::<(), frozenqubits::FqError>(())
//! ```

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use fq_faults::{FaultKind, FaultPlan, FaultSite};
use frozenqubits::{FqError, JobId, JobResult, JobSpec, TemplateArtifact, TemplateCache};
use serde::json::Value;

/// How long the client waits for a response before giving up.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(300);

/// Upper bound on a response body the client will buffer. A shard's
/// largest legitimate answer is a template artifact (well under a
/// megabyte); anything claiming more is a broken or hostile peer, and
/// honoring it would let one response OOM the dispatcher.
const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// A parsed HTTP response.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// The status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The response body (the service always answers JSON).
    pub body: String,
}

impl HttpResponse {
    /// First value of header `name` (lower-case), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses the body as a JSON document.
    ///
    /// # Errors
    ///
    /// [`FqError::Serde`] when the body is not valid JSON.
    pub fn json(&self) -> Result<Value, FqError> {
        Ok(Value::parse(&self.body)?)
    }
}

/// Performs one HTTP request against `addr` and reads the full response.
///
/// # Errors
///
/// [`FqError::Io`] for connection problems and [`FqError::Serde`] for an
/// unparsable response.
pub fn request(
    addr: &str,
    method: &str,
    target: &str,
    body: Option<&str>,
) -> Result<HttpResponse, FqError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;

    let mut out = format!("{method} {target} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n");
    if let Some(body) = body {
        out.push_str(&format!(
            "content-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        ));
    }
    out.push_str("\r\n");
    if let Some(body) = body {
        out.push_str(body);
    }
    stream.write_all(out.as_bytes())?;

    // `connection: close` means the response ends at EOF.
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse_response(&raw)
}

fn parse_response(raw: &str) -> Result<HttpResponse, FqError> {
    let bad = |msg: &str| FqError::Serde(format!("malformed HTTP response: {msg}"));
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("no header/body separator"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(&format!("unparsable status line `{status_line}`")))?;
    let headers = lines
        .map(|line| {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| bad(&format!("malformed header `{line}`")))?;
            Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect::<Result<_, FqError>>()?;
    Ok(HttpResponse {
        status,
        headers,
        body: body.to_string(),
    })
}

/// Turns a non-2xx service response into an [`FqError::Io`] carrying the
/// status and the error envelope.
fn service_error(response: &HttpResponse) -> FqError {
    FqError::Io(format!("HTTP {}: {}", response.status, response.body))
}

/// A keep-alive client connection to one shard.
///
/// Unlike [`request`], which opens a fresh TCP connection per call,
/// `ShardConn` holds the `TcpStream` across requests and frames each
/// response by its `content-length` header, so a dispatcher forwarding
/// thousands of jobs to the same shard pays one TCP handshake, not one
/// per job. The connection is (re-)established lazily: on first use,
/// after any transport error, and after a server-initiated
/// `connection: close`. [`connects`](Self::connects) counts dials, which
/// is what the reuse regression test pins.
#[derive(Debug)]
pub struct ShardConn {
    addr: String,
    auth_token: Option<String>,
    stream: Option<BufReader<TcpStream>>,
    connects: u64,
    read_timeout: Duration,
    fault_plan: Option<Arc<FaultPlan>>,
}

impl ShardConn {
    /// Creates a (not yet connected) handle to the shard at `addr`.
    #[must_use]
    pub fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_string(),
            auth_token: None,
            stream: None,
            connects: 0,
            read_timeout: RESPONSE_TIMEOUT,
            fault_plan: None,
        }
    }

    /// Sets the bearer token sent as `authorization: Bearer <token>` on
    /// every request (the shard gates `POST /v1/templates` behind it).
    pub fn set_token(&mut self, token: &str) {
        self.auth_token = Some(token.to_string());
    }

    /// Overrides the per-request read timeout (default 300 s). Takes
    /// effect on the next dial, so call it before the first request.
    /// The dispatcher's sentinel uses a short timeout here so one
    /// stalled shard cannot wedge a whole probe cycle.
    pub fn set_read_timeout(&mut self, timeout: Duration) {
        self.read_timeout = timeout;
        // Drop any cached connection still carrying the old timeout.
        self.stream = None;
    }

    /// Arms chaos-test fault injection on this connection: the plan's
    /// [`FaultSite::Dial`] and [`FaultSite::Response`] schedules are
    /// consulted on every dial and response read. Never set in
    /// production paths — with no plan the hooks are skipped branches.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault_plan = Some(plan);
    }

    /// The shard address this connection dials.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// How many times this handle has dialed the shard. Two sequential
    /// requests on a healthy connection leave this at 1.
    #[must_use]
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Performs one HTTP request over the held connection, dialing first
    /// if necessary, and reads the `content-length`-framed response.
    ///
    /// Any transport error drops the cached connection so the next call
    /// redials; the error itself is surfaced to the caller (the
    /// dispatcher's retry policy decides whether to try again — this
    /// layer never re-sends a request by itself, which keeps
    /// non-idempotent submissions single-shot).
    ///
    /// # Errors
    ///
    /// [`FqError::Io`] for connect/read/write failures, truncated or
    /// oversized responses; [`FqError::Serde`] for an unparsable status
    /// line or header.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> Result<HttpResponse, FqError> {
        match self.request_inner(method, target, body) {
            Ok(response) => Ok(response),
            Err(error) => {
                self.stream = None;
                Err(error)
            }
        }
    }

    fn request_inner(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> Result<HttpResponse, FqError> {
        if self.stream.is_none() {
            if let Some(plan) = &self.fault_plan {
                match plan.roll(FaultSite::Dial) {
                    Some(FaultKind::Refuse) => {
                        return Err(FqError::Io(format!(
                            "injected fault: connection to {} refused",
                            self.addr
                        )));
                    }
                    Some(FaultKind::Stall(ms)) => {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    _ => {}
                }
            }
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(self.read_timeout))?;
            stream.set_nodelay(true)?;
            self.stream = Some(BufReader::new(stream));
            self.connects += 1;
        }

        let mut out = format!(
            "{method} {target} HTTP/1.1\r\nhost: {}\r\nconnection: keep-alive\r\n",
            self.addr
        );
        if let Some(token) = &self.auth_token {
            out.push_str(&format!("authorization: Bearer {token}\r\n"));
        }
        if let Some(body) = body {
            out.push_str(&format!(
                "content-type: application/json\r\ncontent-length: {}\r\n",
                body.len()
            ));
        }
        out.push_str("\r\n");
        if let Some(body) = body {
            out.push_str(body);
        }

        let reader = self.stream.as_mut().expect("connection established above");
        reader.get_mut().write_all(out.as_bytes())?;

        let (response, close) = read_framed_response(reader)?;
        if let Some(plan) = &self.fault_plan {
            match plan.roll(FaultSite::Response) {
                // The request reached the shard and *executed* — only
                // the response is lost. This is the nastiest transport
                // fault for a forwarder: retrying may run the job twice
                // (safe here because execution is deterministic), and
                // the caller cannot tell it from a pre-execution cut.
                Some(FaultKind::Truncate) => {
                    return Err(FqError::Io(
                        "injected fault: response truncated mid-body".to_string(),
                    ));
                }
                Some(FaultKind::Stall(ms)) => {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                _ => {}
            }
        }
        if close {
            self.stream = None;
        }
        Ok(response)
    }
}

/// Reads one `content-length`-framed response from a keep-alive stream.
/// Returns the response and whether the server asked to close.
fn read_framed_response(
    reader: &mut BufReader<TcpStream>,
) -> Result<(HttpResponse, bool), FqError> {
    let truncated =
        |at: &str| FqError::Io(format!("truncated HTTP response: connection closed {at}"));
    let bad = |msg: &str| FqError::Serde(format!("malformed HTTP response: {msg}"));
    // A stalled peer is not a truncated one: a read that hit the socket
    // timeout says so, and only a closed or reset connection reads as
    // truncation.
    let head_read = |at: &str, e: std::io::Error| match e.kind() {
        ErrorKind::TimedOut | ErrorKind::WouldBlock => {
            FqError::Io(format!("HTTP response timed out {at}: {e}"))
        }
        _ => FqError::from(e),
    };

    let mut status_line = String::new();
    let read = reader
        .read_line(&mut status_line)
        .map_err(|e| head_read("before the status line", e))?;
    if read == 0 {
        return Err(truncated("before the status line"));
    }
    let status_line = status_line.trim_end();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(&format!("unparsable status line `{status_line}`")))?;

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let mut line = String::new();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| head_read("mid-headers", e))?;
        if read == 0 {
            return Err(truncated("mid-headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(&format!("malformed header `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let length = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| bad(&format!("unparsable content-length `{v}`")))?,
        None => 0,
    };
    if length > MAX_RESPONSE_BYTES {
        return Err(FqError::Io(format!(
            "oversized HTTP response: content-length {length} exceeds the {MAX_RESPONSE_BYTES}-byte cap"
        )));
    }

    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).map_err(|e| match e.kind() {
        ErrorKind::TimedOut | ErrorKind::WouldBlock => FqError::Io(format!(
            "HTTP response timed out mid-body ({length}-byte body announced): {e}"
        )),
        _ => truncated("mid-body"),
    })?;
    let body =
        String::from_utf8(body).map_err(|_| FqError::Io("non-UTF-8 response body".to_string()))?;

    let close = headers
        .iter()
        .any(|(n, v)| n == "connection" && v.eq_ignore_ascii_case("close"));
    Ok((
        HttpResponse {
            status,
            headers,
            body,
        },
        close,
    ))
}

/// Submits `spec` synchronously; the `200` body is the byte-canonical
/// `JobResult` document, parsed and returned.
///
/// # Errors
///
/// [`FqError::Io`] carrying the status and error envelope for any
/// non-`200` response (including job failures), plus transport errors.
pub fn submit_sync(addr: &str, spec: &JobSpec) -> Result<JobResult, FqError> {
    let response = request(addr, "POST", "/v1/jobs", Some(&spec.to_json()))?;
    if response.status != 200 {
        return Err(service_error(&response));
    }
    JobResult::from_json(&response.body)
}

/// Submits `spec` asynchronously; returns the id to poll.
///
/// # Errors
///
/// [`FqError::Io`] for any non-`202` response, plus transport errors.
pub fn submit_async(addr: &str, spec: &JobSpec) -> Result<JobId, FqError> {
    let response = request(addr, "POST", "/v1/jobs?mode=async", Some(&spec.to_json()))?;
    if response.status != 202 {
        return Err(service_error(&response));
    }
    response.json()?.field("id")?.as_str()?.parse()
}

/// Polls `GET /v1/jobs/{id}`: returns the status string (`queued`,
/// `running`, `done`, `failed`) and, for `done`, the decoded result.
///
/// # Errors
///
/// [`FqError::Io`] for non-`200` responses (e.g. an unknown id), plus
/// transport and decode errors.
pub fn poll(addr: &str, id: JobId) -> Result<(String, Option<JobResult>), FqError> {
    let response = request(addr, "GET", &format!("/v1/jobs/{id}"), None)?;
    if response.status != 200 {
        return Err(service_error(&response));
    }
    let status = response.json()?.field("status")?.as_str()?.to_string();
    let result = (status == "done")
        .then(|| crate::wire::result_from_envelope(&response.body))
        .transpose()?;
    Ok((status, result))
}

/// Fetches a peer shard's resident-template index: `(fingerprint,
/// last_used)` rows, hottest first (the peer's ordering).
///
/// # Errors
///
/// [`FqError::Io`] for non-`200` responses, plus transport and decode
/// errors.
pub fn template_index(addr: &str) -> Result<Vec<(String, u64)>, FqError> {
    let response = request(addr, "GET", "/v1/templates", None)?;
    if response.status != 200 {
        return Err(service_error(&response));
    }
    response
        .json()?
        .field("templates")?
        .as_array()?
        .iter()
        .map(|entry| {
            Ok((
                entry.field("fingerprint")?.as_str()?.to_string(),
                entry.field("last_used")?.as_u64()?,
            ))
        })
        .collect()
}

/// Fetches one template artifact from a peer shard by fingerprint.
///
/// # Errors
///
/// [`FqError::Io`] for non-`200` responses (e.g. the peer evicted it),
/// plus transport and artifact-decode errors.
pub fn fetch_template(addr: &str, fingerprint: &str) -> Result<TemplateArtifact, FqError> {
    let response = request(addr, "GET", &format!("/v1/templates/{fingerprint}"), None)?;
    if response.status != 200 {
        return Err(service_error(&response));
    }
    TemplateArtifact::from_json(&response.body)
}

/// Pushes one template artifact into a peer shard's store (`POST
/// /v1/templates`).
///
/// # Errors
///
/// [`FqError::Io`] for non-`200` responses, plus transport errors.
pub fn push_template(addr: &str, artifact: &TemplateArtifact) -> Result<(), FqError> {
    push_template_with_token(addr, artifact, None)
}

/// [`push_template`] with an optional bearer token for shards running
/// with `--auth-token` (which gates `POST /v1/templates` behind it).
///
/// # Errors
///
/// [`FqError::Io`] for non-`200` responses (including `401` when the
/// token is missing or wrong), plus transport errors.
pub fn push_template_with_token(
    addr: &str,
    artifact: &TemplateArtifact,
    token: Option<&str>,
) -> Result<(), FqError> {
    let mut conn = ShardConn::new(addr);
    if let Some(token) = token {
        conn.set_token(token);
    }
    let response = conn.request("POST", "/v1/templates", Some(&artifact.to_json()))?;
    if response.status != 200 {
        return Err(service_error(&response));
    }
    Ok(())
}

/// Warms `cache` from a peer shard: pulls the peer's template index and
/// fetches up to `limit` of its hottest artifacts into the cache, so a
/// freshly started shard serves its first jobs without paying compiles
/// the fleet already paid. Returns how many templates were installed.
///
/// Individual artifacts that vanish or fail integrity checks mid-pull
/// are skipped (the peer keeps serving; its cache keeps evolving) —
/// only an unreachable peer or an unreadable index is an error.
///
/// # Errors
///
/// [`FqError::Io`] when the peer's index cannot be fetched.
pub fn warm_from(addr: &str, cache: &TemplateCache, limit: usize) -> Result<usize, FqError> {
    let mut installed = 0usize;
    for (fingerprint, _) in template_index(addr)?.into_iter().take(limit) {
        if let Ok(artifact) = fetch_template(addr, &fingerprint) {
            cache.insert_artifact(&artifact);
            installed += 1;
        }
    }
    Ok(installed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_responses() {
        let raw = "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\nRetry-After: 1\r\n\r\n{}";
        let response = parse_response(raw).unwrap();
        assert_eq!(response.status, 503);
        assert_eq!(response.header("retry-after"), Some("1"));
        assert_eq!(response.body, "{}");
        assert!(parse_response("garbage").is_err());
    }
}
