//! The dispatcher's front door: the listener cases of `fq-serve`'s
//! `http_edges.rs`, run against a [`Dispatcher`]. Both tiers accept
//! connections through the same `fq_serve::listener`, so a regression
//! there must show up here as well as on a shard.
//!
//! No shard needs to be alive: every case is answered by the front door
//! itself, the last one by its shed path once the one dead shard has
//! refused the forward.

#[path = "../../serve/tests/common/mod.rs"]
mod common;

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use common::{error_kind, raw_roundtrip, small_spec, status_of};
use fq_dispatch::{DispatchConfig, DispatchHandle, Dispatcher};
use fq_serve::client;

/// An address nothing listens on (bind, then release the port).
fn dead_shard() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().to_string()
}

/// The default configuration over one dead shard.
fn config() -> DispatchConfig {
    DispatchConfig {
        shards: vec![dead_shard()],
        ..DispatchConfig::default()
    }
}

fn spawn(config: DispatchConfig) -> (DispatchHandle, String) {
    let handle = Dispatcher::spawn(config).unwrap();
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn body_kind(response: &client::HttpResponse) -> String {
    error_kind(&format!("x\r\n\r\n{}", response.body))
}

#[test]
fn dispatcher_connection_cap_sheds_with_503_overloaded() {
    let (handle, addr) = spawn(DispatchConfig {
        max_connections: 1,
        ..config()
    });
    // Occupy the single slot with a keep-alive connection that has
    // completed a request (so its thread is definitely counted).
    let mut holder = TcpStream::connect(&addr).unwrap();
    holder
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    holder
        .write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
        .unwrap();
    let mut first = [0u8; 64];
    let n = holder.read(&mut first).unwrap();
    assert!(String::from_utf8_lossy(&first[..n]).starts_with("HTTP/1.1 200"));

    let response = client::request(&addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(response.status, 503);
    assert_eq!(body_kind(&response), "overloaded");

    // Releasing the holder frees the slot.
    drop(holder);
    let ok = (0..50).any(|_| {
        std::thread::sleep(Duration::from_millis(20));
        client::request(&addr, "GET", "/v1/healthz", None)
            .map(|r| r.status == 200)
            .unwrap_or(false)
    });
    assert!(ok, "slot must free after the holder disconnects");
    handle.shutdown();
}

#[test]
fn dispatcher_slow_drip_hits_the_request_deadline() {
    let (handle, addr) = spawn(DispatchConfig {
        request_deadline: Duration::from_millis(200),
        ..config()
    });
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(b"GET /v1").unwrap();
    std::thread::sleep(Duration::from_millis(400));
    stream.write_all(b"/he").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert_eq!(status_of(&response), 400);
    assert!(
        response.contains("timed out"),
        "deadline errors say so: {response}"
    );
    handle.shutdown();
}

#[test]
fn dispatcher_framing_errors_are_structured() {
    let (handle, addr) = spawn(DispatchConfig {
        max_body_bytes: 1024,
        read_timeout: Duration::from_secs(5),
        ..config()
    });

    // Oversized body, announced: rejected before reading it.
    let response = raw_roundtrip(
        &addr,
        b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 4096\r\n\r\n",
        false,
    );
    assert_eq!(status_of(&response), 413);
    assert_eq!(error_kind(&response), "payload_too_large");

    // Chunked transfer encoding is not implemented at either tier.
    let response = raw_roundtrip(
        &addr,
        b"POST /v1/batch HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        false,
    );
    assert_eq!(status_of(&response), 501);
    assert_eq!(error_kind(&response), "not_implemented");

    handle.shutdown();
}

#[test]
fn dispatcher_wrong_methods_get_405_with_allow() {
    let (handle, addr) = spawn(config());
    for (method, target, allow) in [
        ("DELETE", "/v1/jobs", "POST"),
        ("POST", "/v1/healthz", "GET"),
        ("GET", "/v1/batch", "POST"),
        ("PUT", "/v1/shards", "GET, POST"),
        ("POST", "/v1/jobs/job-0000000000000001", "GET"),
    ] {
        let response = client::request(&addr, method, target, None).unwrap();
        assert_eq!(response.status, 405, "{method} {target}");
        assert_eq!(response.header("allow"), Some(allow), "{method} {target}");
        assert_eq!(body_kind(&response), "method_not_allowed");
    }
    handle.shutdown();
}

#[test]
fn dispatcher_queue_backpressure_returns_503_with_retry_after() {
    // Zero forwarders: nothing drains, so the queue fills
    // deterministically.
    let (handle, addr) = spawn(DispatchConfig {
        forwarders: 0,
        queue_capacity: 2,
        ..config()
    });
    let spec = small_spec().to_json();
    for _ in 0..2 {
        let response = client::request(&addr, "POST", "/v1/jobs?mode=async", Some(&spec)).unwrap();
        assert_eq!(response.status, 202, "{}", response.body);
    }
    let response = client::request(&addr, "POST", "/v1/jobs?mode=async", Some(&spec)).unwrap();
    assert_eq!(response.status, 503);
    assert_eq!(response.header("retry-after"), Some("1"));
    assert_eq!(body_kind(&response), "queue_full");

    let stats = client::request(&addr, "GET", "/v1/stats", None)
        .unwrap()
        .json()
        .unwrap();
    let queue = stats.field("queue").unwrap();
    assert_eq!(queue.field("depth").unwrap().as_u64().unwrap(), 2);
    assert_eq!(queue.field("capacity").unwrap().as_u64().unwrap(), 2);
    handle.shutdown();
}

#[test]
fn dispatcher_shard_join_needs_the_bearer_token() {
    let (handle, addr) = spawn(DispatchConfig {
        auth_token: Some("sesame".into()),
        ..config()
    });
    let join = format!("{{\"addr\":\"{}\"}}", dead_shard());

    let refused = client::request(&addr, "POST", "/v1/shards", Some(&join)).unwrap();
    assert_eq!(refused.status, 401, "{}", refused.body);
    assert_eq!(body_kind(&refused), "unauthorized");

    let mut conn = client::ShardConn::new(&addr);
    conn.set_token("sesame");
    let joined = conn.request("POST", "/v1/shards", Some(&join)).unwrap();
    assert_eq!(joined.status, 200, "{}", joined.body);
    assert!(joined.body.contains("\"joined\""), "{}", joined.body);

    // Reading the roster needs no token.
    let roster = client::request(&addr, "GET", "/v1/shards", None).unwrap();
    assert_eq!(roster.status, 200);
    handle.shutdown();
}

/// A job whose every candidate shard is down completes with the shed
/// `503` outcome, and the shared registry reports that outcome as
/// `failed` — not `done` — with the cluster's error object.
#[test]
fn dispatcher_exhausted_job_polls_as_failed() {
    let (handle, addr) = spawn(config());
    let spec = small_spec().to_json();
    let ack = client::request(&addr, "POST", "/v1/jobs?mode=async", Some(&spec)).unwrap();
    assert_eq!(ack.status, 202, "{}", ack.body);
    let location = ack.header("location").unwrap().to_string();
    let envelope = (0..250)
        .find_map(|_| {
            let polled = client::request(&addr, "GET", &location, None).unwrap();
            assert_eq!(polled.status, 200, "{}", polled.body);
            let envelope = polled.json().unwrap();
            let status = envelope.field("status").unwrap().as_str().unwrap();
            if status == "queued" || status == "running" {
                std::thread::sleep(Duration::from_millis(20));
                return None;
            }
            Some(envelope)
        })
        .expect("the job reaches a terminal state");
    assert_eq!(
        envelope.field("status").unwrap().as_str().unwrap(),
        "failed"
    );
    assert_eq!(
        envelope
            .field("error")
            .unwrap()
            .field("kind")
            .unwrap()
            .as_str()
            .unwrap(),
        "cluster_saturated"
    );
    handle.shutdown();
}
