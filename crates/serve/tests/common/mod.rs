//! Raw-socket helpers shared by the front-door edge tests of both
//! service tiers: this crate's `http_edges.rs` and the dispatcher's
//! `front_door_edges.rs` (which includes this file by path).

// Each including test binary uses a different subset.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use frozenqubits::api::{DeviceSpec, JobBuilder, JobSpec};
use serde::json::Value;

pub fn small_spec() -> JobSpec {
    JobBuilder::new()
        .barabasi_albert(8, 1, 1)
        .device(DeviceSpec::IbmMontreal)
        .baseline()
        .build()
        .unwrap()
}

/// Writes raw bytes, optionally half-closes the write side, and reads
/// the full response (the server closes after an error).
pub fn raw_roundtrip(addr: &str, request: &[u8], half_close: bool) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request).unwrap();
    if half_close {
        stream.shutdown(Shutdown::Write).unwrap();
    }
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

pub fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {response:?}"))
}

pub fn error_kind(response: &str) -> String {
    let body = response.split("\r\n\r\n").nth(1).expect("a body");
    Value::parse(body)
        .unwrap_or_else(|e| panic!("error bodies are JSON ({e:?}): {body:?}"))
        .field("error")
        .unwrap()
        .field("kind")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string()
}
