//! The payload the dispatcher's job registry stores: *outcomes* — raw
//! `(status, body)` pairs as the owning shard produced them.
//!
//! The dispatcher deliberately does not re-model job results: a shard's
//! response bytes are the product the cluster sells, and storing them
//! verbatim is what lets the sync path relay byte-identically. The
//! registry itself is the shards' own ([`fq_serve::registry`]), so
//! clients see one polling contract — queued → running → done, TTL and
//! count bounds, `410` for expired ids — whether they talk to a shard
//! or the front door.

use fq_serve::registry::Finished;

/// A shard's final answer for one job, verbatim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Outcome {
    /// The HTTP status the shard (or the forwarder's shed path) chose.
    pub(crate) status: u16,
    /// The response body, byte-for-byte.
    pub(crate) body: String,
}

impl Finished for Outcome {
    /// Only a `200` carries a result document.
    fn succeeded(&self) -> bool {
        self.status == 200
    }
}
