//! The shard's job store: the generic [`Registry`] holding the engine's
//! own outcomes.
//!
//! A shard records each finished job as the engine returned it — a
//! `JobResult` or the `FqError` that stopped it — so a poll can embed
//! the canonical result or the structured error. Lifecycle, retention
//! and the `410`/`404` mapping are the registry's; the tests here pin
//! them for this concrete payload.

use frozenqubits::{FqError, JobResult};

use crate::registry::Registry;

/// What a shard's registry records for a finished job.
pub(crate) type JobOutcome = Result<JobResult, FqError>;

/// The shard's registry of submitted jobs.
pub(crate) type JobStore = Registry<JobOutcome>;

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use frozenqubits::{JobId, RunSummary};

    use super::*;
    use crate::registry::{JobCounts, JobPhase, Lookup};

    /// Retention generous enough that nothing expires mid-test.
    fn retentive() -> JobStore {
        JobStore::new(Duration::from_secs(3600), 4096)
    }

    fn status(store: &JobStore, id: JobId) -> &'static str {
        match store.lookup(id) {
            Lookup::Active(phase) => phase.status_name(),
            other => panic!("{id} should be live, got {other:?}"),
        }
    }

    fn dummy_result() -> JobResult {
        JobResult::Baseline(RunSummary {
            label: "baseline".into(),
            circuit_qubits: 1,
            circuits_executed: 1,
            metrics: frozenqubits::CircuitMetrics::default(),
            ev_ideal: 0.0,
            ev_noisy: 0.0,
            arg: 0.0,
            log_eps: 0.0,
            params: (0.0, 0.0),
        })
    }

    #[test]
    fn lifecycle_and_counters() {
        let store = retentive();
        let a = store.register();
        let b = store.register();
        assert_ne!(a, b);
        assert_eq!(status(&store, a), "queued");
        store.mark_running(a);
        assert_eq!(status(&store, a), "running");
        store.complete(a, Ok(dummy_result()));
        assert_eq!(status(&store, a), "done");
        store.complete(b, Err(FqError::InvalidConfig("x".into())));
        assert_eq!(status(&store, b), "failed");
        assert_eq!(
            store.counts(),
            JobCounts {
                submitted: 2,
                completed: 1,
                failed: 1,
                expired: 0
            }
        );
        assert!(matches!(store.lookup(JobId::new(999)), Lookup::Unknown));
    }

    #[test]
    fn discard_undoes_a_bounced_registration() {
        let store = retentive();
        let id = store.register();
        store.discard(id);
        assert!(matches!(store.lookup(id), Lookup::Unknown));
        assert_eq!(store.counts().submitted, 0);
    }

    #[test]
    fn await_done_times_out_with_last_state() {
        let store = retentive();
        let id = store.register();
        let phase = store.await_done(id, Duration::from_millis(10)).unwrap();
        assert!(matches!(phase, JobPhase::Queued));
        assert!(store.await_done(JobId::new(999), Duration::ZERO).is_none());
    }

    #[test]
    fn await_done_wakes_on_completion() {
        let store = Arc::new(retentive());
        let id = store.register();
        let waiter = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.await_done(id, Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(20));
        store.complete(id, Ok(dummy_result()));
        let phase = waiter.join().unwrap().unwrap();
        assert_eq!(phase.status_name(), "done");
    }

    #[test]
    fn ttl_expires_done_entries_into_tombstones() {
        let store = JobStore::new(Duration::from_millis(20), 4096);
        let id = store.register();
        store.complete(id, Ok(dummy_result()));
        assert!(matches!(store.lookup(id), Lookup::Active(_)));
        std::thread::sleep(Duration::from_millis(30));
        assert!(matches!(store.lookup(id), Lookup::Expired));
        assert!(matches!(store.lookup(id), Lookup::Expired), "stays gone");
        assert_eq!(store.counts().expired, 1);
        // Queued/running entries never expire — only done ones do.
        let live = store.register();
        std::thread::sleep(Duration::from_millis(30));
        assert!(matches!(store.lookup(live), Lookup::Active(_)));
    }

    #[test]
    fn count_bound_expires_oldest_completed_first() {
        let store = JobStore::new(Duration::from_secs(3600), 2);
        let ids: Vec<JobId> = (0..3).map(|_| store.register()).collect();
        for &id in &ids {
            store.complete(id, Ok(dummy_result()));
        }
        assert!(matches!(store.lookup(ids[0]), Lookup::Expired));
        assert!(matches!(store.lookup(ids[1]), Lookup::Active(_)));
        assert!(matches!(store.lookup(ids[2]), Lookup::Active(_)));
        assert_eq!(store.counts().expired, 1);
    }
}
