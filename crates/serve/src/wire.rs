//! The service's JSON envelopes, built on the same canonical document
//! model (`serde::json::Value`) as the core wire format.
//!
//! Two layers of format apply to every exchange:
//!
//! * **Payloads** — `JobSpec` request bodies and `JobResult` results —
//!   use the core wire format verbatim (`frozenqubits::api`, version
//!   tag `"v"`, golden-pinned in `tests/api_serde.rs`). The service
//!   never re-encodes a result: embedded results are
//!   `Value::parse(result.to_json())`, which round-trips byte-for-byte
//!   because the writer is canonical.
//! * **Envelopes** — submission acknowledgements, poll responses, error
//!   bodies, stats — carry their own `"v"` tag ([`WIRE_V`]) so the
//!   service surface can evolve independently of the job format.

use frozenqubits::{FqError, JobId, JobResult};
use serde::json::Value;

use crate::error::kind_name;
use crate::registry::JobPhase;
use crate::store::JobOutcome;

/// Version tag of the service envelopes (independent of the job-spec
/// wire version).
pub const WIRE_V: u64 = 1;

/// The `{"v":1,"id":...,"status":...}` submission acknowledgement.
pub fn submit_ack(id: JobId) -> String {
    Value::object(vec![
        ("v", Value::UInt(WIRE_V)),
        ("id", Value::string(id.to_string())),
        ("status", Value::string("queued")),
    ])
    .to_json()
}

/// The poll envelope for `GET /v1/jobs/{id}`: status plus, when
/// finished, either the embedded result document or the error object.
pub(crate) fn job_envelope(id: JobId, state: &JobPhase<JobOutcome>) -> String {
    let mut pairs = vec![
        ("v", Value::UInt(WIRE_V)),
        ("id", Value::string(id.to_string())),
        ("status", Value::string(state.status_name())),
    ];
    match state {
        JobPhase::Done(result) => match result.as_ref() {
            Ok(result) => pairs.push(("result", embed_result(result))),
            Err(error) => pairs.push((
                "error",
                Value::object(vec![
                    ("kind", Value::string(kind_name(error))),
                    ("message", Value::string(error.to_string())),
                ]),
            )),
        },
        JobPhase::Queued | JobPhase::Running => {}
    }
    Value::object(pairs).to_json()
}

/// Embeds a result's canonical JSON as a document node. Parsing our own
/// canonical output is infallible; the error arm exists only to keep
/// this panic-free on a future format skew.
fn embed_result(result: &JobResult) -> Value {
    Value::parse(&result.to_json()).unwrap_or(Value::Null)
}

/// Extracts the embedded result from a poll envelope — the inverse of
/// [`job_envelope`] for finished jobs, used by clients (and the e2e
/// tests) to recover the byte-exact `JobResult` document.
///
/// # Errors
///
/// [`FqError::Serde`] when the envelope is malformed or the job is not
/// in the `done` state.
pub(crate) fn result_from_envelope(envelope: &str) -> Result<JobResult, FqError> {
    let v = Value::parse(envelope)?;
    let status = v.field("status")?.as_str()?;
    if status != "done" {
        return Err(FqError::Serde(format!(
            "job is `{status}`, not `done`; no result to extract"
        )));
    }
    JobResult::from_json(&v.field("result")?.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use frozenqubits::api::{DeviceSpec, JobBuilder};

    #[test]
    fn submit_ack_is_canonical() {
        assert_eq!(
            submit_ack(JobId::new(7)),
            r#"{"v":1,"id":"job-0000000000000007","status":"queued"}"#
        );
    }

    #[test]
    fn envelopes_embed_results_byte_exactly() {
        let result = JobBuilder::new()
            .barabasi_albert(8, 1, 5)
            .device(DeviceSpec::IbmMontreal)
            .baseline()
            .build()
            .unwrap()
            .run()
            .unwrap();
        let envelope = job_envelope(
            JobId::new(1),
            &JobPhase::Done(std::sync::Arc::new(Ok(result.clone()))),
        );
        let parsed = Value::parse(&envelope).unwrap();
        assert_eq!(parsed.field("status").unwrap().as_str().unwrap(), "done");
        // The embedded document re-serializes to the pinned wire bytes.
        assert_eq!(
            parsed.field("result").unwrap().to_json(),
            result.to_json(),
            "embedding must preserve the canonical result bytes"
        );
        assert_eq!(result_from_envelope(&envelope).unwrap(), result);
    }

    #[test]
    fn envelopes_carry_errors_and_progress_states() {
        let failed = job_envelope(
            JobId::new(2),
            &JobPhase::Done(std::sync::Arc::new(Err(FqError::InvalidConfig(
                "boom".into(),
            )))),
        );
        let v = Value::parse(&failed).unwrap();
        assert_eq!(v.field("status").unwrap().as_str().unwrap(), "failed");
        assert_eq!(
            v.field("error")
                .unwrap()
                .field("kind")
                .unwrap()
                .as_str()
                .unwrap(),
            "invalid_config"
        );
        assert!(result_from_envelope(&failed).is_err());

        let queued = job_envelope(JobId::new(3), &JobPhase::Queued);
        assert!(Value::parse(&queued).unwrap().field("result").is_err());
    }
}
