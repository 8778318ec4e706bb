//! Client-side edge cases: keep-alive connection reuse and the failure
//! paths a dispatcher meets when a shard misbehaves. Every broken-peer
//! shape must surface as a typed [`FqError`], never a panic — the
//! dispatcher's retry policy is built on matching these errors.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use fq_serve::client::ShardConn;
use frozenqubits::FqError;

/// Reads one request head (through the blank line) off a fake-shard
/// connection, returning the request line.
fn read_request_head(reader: &mut BufReader<TcpStream>) -> String {
    let mut request_line = String::new();
    reader.read_line(&mut request_line).unwrap();
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line == "\r\n" || line.is_empty() {
            break;
        }
    }
    request_line.trim_end().to_string()
}

/// Spawns a fake shard that accepts exactly one connection and answers
/// each request on it with `responses` in order, then closes.
fn fake_shard(responses: Vec<String>) -> (String, thread::JoinHandle<Vec<String>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut seen = Vec::new();
        for response in responses {
            seen.push(read_request_head(&mut reader));
            stream.write_all(response.as_bytes()).unwrap();
        }
        seen
    });
    (addr, handle)
}

fn ok_response(body: &str) -> String {
    format!(
        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

// ---------------------------------------------------------------------
// Satellite: keep-alive reuse regression
// ---------------------------------------------------------------------

/// Two sequential requests on a `ShardConn` ride one TCP connection:
/// the fake shard accepts exactly once, and `connects()` stays at 1.
#[test]
fn shard_conn_reuses_one_connection_across_requests() {
    let (addr, shard) = fake_shard(vec![ok_response("{\"a\":1}"), ok_response("{\"b\":2}")]);
    let mut conn = ShardConn::new(&addr);

    let first = conn.request("GET", "/v1/stats", None).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.body, "{\"a\":1}");
    let second = conn.request("GET", "/v1/healthz", None).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.body, "{\"b\":2}");

    assert_eq!(conn.connects(), 1, "second request must reuse the stream");
    let seen = shard.join().unwrap();
    assert_eq!(
        seen,
        vec!["GET /v1/stats HTTP/1.1", "GET /v1/healthz HTTP/1.1"]
    );
}

/// A server-initiated `connection: close` drops the cached stream; the
/// next request redials instead of writing into a dead socket.
#[test]
fn shard_conn_redials_after_server_close() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shard = thread::spawn(move || {
        for _ in 0..2 {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            read_request_head(&mut reader);
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nconnection: close\r\ncontent-length: 2\r\n\r\nok")
                .unwrap();
        }
    });

    let mut conn = ShardConn::new(&addr);
    for _ in 0..2 {
        let response = conn.request("GET", "/v1/healthz", None).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "ok");
    }
    assert_eq!(conn.connects(), 2, "close must force a redial");
    shard.join().unwrap();
}

/// The bearer token set on the connection rides every request.
#[test]
fn shard_conn_sends_bearer_token() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shard = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut request_line = String::new();
        reader.read_line(&mut request_line).unwrap();
        let mut auth = None;
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some(value) = trimmed.strip_prefix("authorization:") {
                auth = Some(value.trim().to_string());
            }
        }
        stream
            .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n")
            .unwrap();
        auth
    });

    let mut conn = ShardConn::new(&addr);
    conn.set_token("hunter2");
    conn.request("GET", "/v1/stats", None).unwrap();
    assert_eq!(shard.join().unwrap().as_deref(), Some("Bearer hunter2"));
}

// ---------------------------------------------------------------------
// Satellite: broken-peer error paths map to typed errors, not panics
// ---------------------------------------------------------------------

/// Dialing a port nothing listens on is a typed transport error.
#[test]
fn connection_refused_is_typed_io_error() {
    // Bind-then-drop reserves an address that is guaranteed dead.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let mut conn = ShardConn::new(&addr);
    let error = conn.request("GET", "/v1/healthz", None).unwrap_err();
    assert!(matches!(error, FqError::Io(_)), "got {error:?}");
    assert_eq!(conn.connects(), 0, "a failed dial is not a connect");
}

/// A peer that closes mid-body (announced length longer than what it
/// sends) yields a truncation error, and the poisoned stream is dropped
/// so the next request redials.
#[test]
fn truncated_response_is_typed_io_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shard = thread::spawn(move || {
        // First connection: lie about the length, then hang up.
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        read_request_head(&mut reader);
        stream
            .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\nonly-a-few-bytes")
            .unwrap();
        // Both handles share one socket: it closes only once the cloned
        // reader is gone too.
        drop(reader);
        drop(stream);
        // Second connection: behave.
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        read_request_head(&mut reader);
        stream
            .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok")
            .unwrap();
    });

    let mut conn = ShardConn::new(&addr);
    let error = conn.request("GET", "/v1/stats", None).unwrap_err();
    match error {
        FqError::Io(message) => assert!(message.contains("truncated"), "got `{message}`"),
        other => panic!("expected Io, got {other:?}"),
    }

    // The poisoned stream must not be reused: the next call dials again
    // and succeeds.
    let response = conn.request("GET", "/v1/stats", None).unwrap();
    assert_eq!(response.body, "ok");
    assert_eq!(conn.connects(), 2);
    shard.join().unwrap();
}

/// A peer that sends half a body and then holds the socket open is a
/// stall, not a truncation: the read timeout fires and the error says
/// it timed out.
#[test]
fn stalled_body_is_a_timeout_not_a_truncation() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (release, held) = std::sync::mpsc::channel::<()>();
    let shard = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        read_request_head(&mut reader);
        stream
            .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\nhalf-a-body")
            .unwrap();
        // Keep the socket open until the client has given up.
        let _ = held.recv();
    });

    let mut conn = ShardConn::new(&addr);
    conn.set_read_timeout(Duration::from_millis(200));
    let started = Instant::now();
    let error = conn.request("GET", "/v1/stats", None).unwrap_err();
    match error {
        FqError::Io(message) => {
            assert!(message.contains("timed out"), "got `{message}`");
            assert!(!message.contains("truncated"), "got `{message}`");
        }
        other => panic!("expected Io, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the short timeout applies"
    );
    release.send(()).unwrap();
    shard.join().unwrap();
}

/// A peer that closes before finishing the header block is the same
/// truncation class.
#[test]
fn truncated_headers_are_typed_io_error() {
    let (addr, shard) = fake_shard(vec!["HTTP/1.1 200 OK\r\ncontent-type: applica".to_string()]);
    let mut conn = ShardConn::new(&addr);
    let error = conn.request("GET", "/v1/stats", None).unwrap_err();
    assert!(matches!(error, FqError::Io(_)), "got {error:?}");
    shard.join().unwrap();
}

/// A 200 whose body is not JSON fails at decode time with a typed
/// serde error — the transport layer itself accepts any bytes.
#[test]
fn non_json_body_is_typed_serde_error() {
    let (addr, shard) = fake_shard(vec![ok_response("<html>not json</html>")]);
    let mut conn = ShardConn::new(&addr);
    let response = conn.request("GET", "/v1/stats", None).unwrap();
    assert_eq!(response.status, 200);
    let error = response.json().unwrap_err();
    assert!(matches!(error, FqError::Serde(_)), "got {error:?}");
    shard.join().unwrap();
}

/// A peer claiming a multi-gigabyte body is rejected up front instead
/// of being buffered: the `content-length` cap is checked before any
/// allocation.
#[test]
fn oversized_content_length_is_typed_io_error() {
    let (addr, shard) = fake_shard(vec![
        "HTTP/1.1 200 OK\r\ncontent-length: 99999999999\r\n\r\n".to_string(),
    ]);
    let mut conn = ShardConn::new(&addr);
    let error = conn.request("GET", "/v1/templates", None).unwrap_err();
    match error {
        FqError::Io(message) => assert!(message.contains("oversized"), "got `{message}`"),
        other => panic!("expected Io, got {other:?}"),
    }
    shard.join().unwrap();
}

/// An unparsable `content-length` is a malformed-response error, not a
/// zero-length assumption that would desync the framing.
#[test]
fn garbage_content_length_is_typed_serde_error() {
    let (addr, shard) = fake_shard(vec![
        "HTTP/1.1 200 OK\r\ncontent-length: banana\r\n\r\n".to_string()
    ]);
    let mut conn = ShardConn::new(&addr);
    let error = conn.request("GET", "/v1/stats", None).unwrap_err();
    assert!(matches!(error, FqError::Serde(_)), "got {error:?}");
    shard.join().unwrap();
}
