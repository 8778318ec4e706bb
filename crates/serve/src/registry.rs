//! The in-memory job registry: id allocation, lifecycle tracking,
//! completion wake-ups for synchronous submitters, and bounded retention
//! of finished jobs.
//!
//! Generic over the finished payload `T`: a shard stores the engine's
//! `Result<JobResult, FqError>`, a dispatcher the shard's raw
//! `(status, body)` answer. The payload only has to say whether it
//! succeeded ([`Finished`]), which decides the completed/failed
//! counters and the `done`/`failed` status name, so both tiers present
//! one polling contract.
//!
//! Every submission gets a monotonically increasing [`JobId`] and a
//! state that only moves forward: `Queued → Running → Done`. Finished
//! results are retained for polling, but not forever: a TTL and a count
//! bound expire the oldest completed entries (in completion order), so a
//! long-running server's registry cannot grow without bound. Expired ids
//! stay distinguishable from never-issued ids — polling one yields a
//! structured `410 Gone`, not a `404` — via a compact tombstone set.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use frozenqubits::JobId;

use crate::error::error_response;
use crate::http::Response;

/// A finished job's payload: all the registry needs to know is whether
/// it is a success.
pub trait Finished {
    /// Whether the job succeeded (`done`) rather than failed (`failed`).
    fn succeeded(&self) -> bool;
}

impl<T, E> Finished for Result<T, E> {
    fn succeeded(&self) -> bool {
        self.is_ok()
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Debug)]
pub enum JobPhase<T> {
    /// Accepted and waiting in the queue.
    Queued,
    /// Claimed by a worker (or forwarder) and executing.
    Running,
    /// Finished, successfully or not. (`Arc`: polls snapshot the state
    /// under the registry mutex, and a deep copy of a large result per
    /// `GET /v1/jobs/{id}` would serialize every poller and worker
    /// behind an O(result-size) critical section.)
    Done(Arc<T>),
}

impl<T: Finished> JobPhase<T> {
    /// The wire name of this phase (a failed `Done` reads as `failed`).
    pub fn status_name(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done(outcome) if outcome.succeeded() => "done",
            JobPhase::Done(_) => "failed",
        }
    }
}

/// What the registry knows about an id.
#[derive(Debug)]
pub enum Lookup<T> {
    /// The job is live (queued, running, or retained done).
    Active(JobPhase<T>),
    /// The job finished but its result was expired by the TTL or count
    /// bound. → `410 Gone`.
    Expired,
    /// The id was never issued (or bounced before queueing). → `404`.
    Unknown,
}

/// Aggregate submission counters for `/v1/stats`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobCounts {
    /// Jobs ever accepted (queued), including finished ones.
    pub submitted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs finished with an error.
    pub failed: u64,
    /// Finished jobs whose retained results were expired.
    pub expired: u64,
}

/// Most tombstones retained: enough to answer `410` for every id a
/// client could plausibly still hold, without reintroducing the
/// unbounded growth the expiry exists to prevent. Beyond it the oldest
/// (smallest) ids degrade to `404`.
const MAX_TOMBSTONES: usize = 65_536;

#[derive(Debug)]
struct Inner<T> {
    jobs: HashMap<u64, JobPhase<T>>,
    /// Completed ids in completion order, with their completion times —
    /// the expiry scan order.
    done_order: VecDeque<(u64, Instant)>,
    /// Ids whose done entries were expired (ordered, so capping evicts
    /// the oldest).
    tombstones: BTreeSet<u64>,
}

/// The shared registry.
#[derive(Debug)]
pub struct Registry<T> {
    inner: Mutex<Inner<T>>,
    finished: Condvar,
    next_id: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    expired: AtomicU64,
    /// How long a finished result is retained.
    ttl: Duration,
    /// Most finished results retained at once.
    max_done: usize,
}

impl<T: Finished + Clone> Registry<T> {
    /// An empty registry; ids start at 1. Finished results are retained
    /// for at most `ttl`, and at most `max_done` of them at once
    /// (oldest-completed first out).
    #[must_use]
    pub fn new(ttl: Duration, max_done: usize) -> Registry<T> {
        Registry {
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                done_order: VecDeque::new(),
                tombstones: BTreeSet::new(),
            }),
            finished: Condvar::new(),
            next_id: AtomicU64::new(1),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            ttl,
            max_done: max_done.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().expect("registry lock poisoned")
    }

    /// Expires finished entries that are over the TTL or beyond the
    /// count bound. Called under the registry lock from every mutation
    /// and lookup, so expiry needs no background thread.
    fn prune(&self, inner: &mut Inner<T>, now: Instant) {
        while let Some(&(id, done_at)) = inner.done_order.front() {
            let over_count = inner.done_order.len() > self.max_done;
            let over_ttl = now.duration_since(done_at) >= self.ttl;
            if !over_count && !over_ttl {
                break;
            }
            inner.done_order.pop_front();
            if inner.jobs.remove(&id).is_some() {
                inner.tombstones.insert(id);
                self.expired.fetch_add(1, Ordering::Relaxed);
            }
        }
        while inner.tombstones.len() > MAX_TOMBSTONES {
            let oldest = *inner.tombstones.iter().next().expect("non-empty set");
            inner.tombstones.remove(&oldest);
        }
    }

    /// Mints a fresh id and registers it as queued.
    pub fn register(&self) -> JobId {
        let id = JobId::new(self.next_id.fetch_add(1, Ordering::Relaxed));
        let mut inner = self.lock();
        self.prune(&mut inner, Instant::now());
        inner.jobs.insert(id.value(), JobPhase::Queued);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Removes a registration that never made it into the queue (the
    /// push bounced); undoes the `submitted` count.
    pub fn discard(&self, id: JobId) {
        self.lock().jobs.remove(&id.value());
        self.submitted.fetch_sub(1, Ordering::Relaxed);
    }

    /// Marks `id` as claimed by a worker.
    pub fn mark_running(&self, id: JobId) {
        self.lock().jobs.insert(id.value(), JobPhase::Running);
    }

    /// Records `id`'s final outcome and wakes synchronous waiters.
    pub fn complete(&self, id: JobId, outcome: T) {
        match outcome.succeeded() {
            true => self.completed.fetch_add(1, Ordering::Relaxed),
            false => self.failed.fetch_add(1, Ordering::Relaxed),
        };
        let now = Instant::now();
        let mut inner = self.lock();
        inner
            .jobs
            .insert(id.value(), JobPhase::Done(Arc::new(outcome)));
        inner.done_order.push_back((id.value(), now));
        self.prune(&mut inner, now);
        drop(inner);
        self.finished.notify_all();
    }

    /// What the registry knows about `id`, expiring stale results on the
    /// way.
    pub fn lookup(&self, id: JobId) -> Lookup<T> {
        let mut inner = self.lock();
        self.prune(&mut inner, Instant::now());
        match inner.jobs.get(&id.value()) {
            Some(phase) => Lookup::Active(phase.clone()),
            None if inner.tombstones.contains(&id.value()) => Lookup::Expired,
            None => Lookup::Unknown,
        }
    }

    /// `GET /v1/jobs/{id}`: `200` with the tier's `envelope` for a live
    /// job, a structured `410` (kind `expired`) for an expired one, and
    /// `404` for an id never issued.
    pub fn poll(
        &self,
        id: JobId,
        envelope: impl FnOnce(JobId, &JobPhase<T>) -> String,
    ) -> Response {
        match self.lookup(id) {
            Lookup::Active(phase) => Response::json(200, envelope(id, &phase)),
            Lookup::Expired => error_response(
                410,
                "expired",
                &format!("job `{id}` finished, but its result passed the retention bound (TTL/count) and was expired"),
            ),
            Lookup::Unknown => error_response(404, "not_found", &format!("no such job `{id}`")),
        }
    }

    /// Blocks until `id` finishes or `timeout` elapses; returns the
    /// last observed phase (`Done(..)` unless the wait timed out), or
    /// `None` for an unknown (or already-expired) id.
    pub fn await_done(&self, id: JobId, timeout: Duration) -> Option<JobPhase<T>> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            let phase = inner.jobs.get(&id.value())?.clone();
            if matches!(phase, JobPhase::Done(_)) {
                return Some(phase);
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(phase);
            }
            let (guard, _) = self
                .finished
                .wait_timeout(inner, deadline - now)
                .expect("registry lock poisoned");
            inner = guard;
        }
    }

    /// Aggregate counters.
    pub fn counts(&self) -> JobCounts {
        JobCounts {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Payloads are `Ok(())` / `Err(())`: only success matters here.
    type Outcome = Result<(), ()>;

    /// Retention generous enough that nothing expires mid-test.
    fn retentive() -> Registry<Outcome> {
        Registry::new(Duration::from_secs(3600), 4096)
    }

    fn status(registry: &Registry<Outcome>, id: JobId) -> &'static str {
        match registry.lookup(id) {
            Lookup::Active(phase) => phase.status_name(),
            other => panic!("{id} should be live, got {other:?}"),
        }
    }

    #[test]
    fn lifecycle_counts_and_status_names() {
        let registry = retentive();
        let a = registry.register();
        let b = registry.register();
        assert_ne!(a, b);
        assert_eq!(status(&registry, a), "queued");
        registry.mark_running(a);
        assert_eq!(status(&registry, a), "running");
        registry.complete(a, Ok(()));
        assert_eq!(status(&registry, a), "done");
        registry.complete(b, Err(()));
        assert_eq!(status(&registry, b), "failed");
        assert_eq!(
            registry.counts(),
            JobCounts {
                submitted: 2,
                completed: 1,
                failed: 1,
                expired: 0
            }
        );
        assert!(matches!(registry.lookup(JobId::new(999)), Lookup::Unknown));
    }

    #[test]
    fn discard_undoes_a_bounced_registration() {
        let registry = retentive();
        let id = registry.register();
        registry.discard(id);
        assert!(matches!(registry.lookup(id), Lookup::Unknown));
        assert_eq!(registry.counts().submitted, 0);
    }

    #[test]
    fn await_done_times_out_with_last_state() {
        let registry = retentive();
        let id = registry.register();
        let phase = registry.await_done(id, Duration::from_millis(10)).unwrap();
        assert!(matches!(phase, JobPhase::Queued));
        assert!(registry
            .await_done(JobId::new(999), Duration::ZERO)
            .is_none());
    }

    #[test]
    fn await_done_wakes_on_completion() {
        let registry = Arc::new(retentive());
        let id = registry.register();
        let waiter = {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || registry.await_done(id, Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(20));
        registry.complete(id, Ok(()));
        assert_eq!(waiter.join().unwrap().unwrap().status_name(), "done");
    }

    #[test]
    fn ttl_expiry_tombstones_like_the_shard_registry() {
        let registry = Registry::<Outcome>::new(Duration::from_millis(20), 4096);
        let id = registry.register();
        registry.complete(id, Ok(()));
        assert!(matches!(registry.lookup(id), Lookup::Active(_)));
        std::thread::sleep(Duration::from_millis(30));
        assert!(matches!(registry.lookup(id), Lookup::Expired));
        assert!(matches!(registry.lookup(id), Lookup::Expired), "stays gone");
        assert_eq!(registry.counts().expired, 1);
        // Queued/running entries never expire — only done ones do.
        let live = registry.register();
        std::thread::sleep(Duration::from_millis(30));
        assert!(matches!(registry.lookup(live), Lookup::Active(_)));
    }

    #[test]
    fn fault_interrupted_failure_expires_instead_of_leaking() {
        // A job whose execution was cut short by faults completes with
        // a *failure* outcome (shed 503, upstream 502, a contained
        // panic, ...). Failures must ride the same retention train as
        // successes: expired by TTL, tombstoned, counted — never
        // retained forever.
        let registry = Registry::<Outcome>::new(Duration::from_millis(20), 4096);
        let id = registry.register();
        registry.mark_running(id);
        registry.complete(id, Err(()));
        assert!(matches!(registry.lookup(id), Lookup::Active(_)));
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            matches!(registry.lookup(id), Lookup::Expired),
            "a failed outcome must expire like a successful one"
        );
        assert_eq!(registry.counts().expired, 1);
        assert_eq!(registry.counts().failed, 1);
    }

    #[test]
    fn count_bound_expires_oldest_done_first() {
        // The count bound alone (generous TTL) must expire the oldest
        // finished job and answer Expired for it, while the newer ones
        // stay pollable — the poll-after-expiry half of the 410
        // contract without waiting on wall-clock TTLs.
        let registry = Registry::<Outcome>::new(Duration::from_secs(3600), 2);
        let ids: Vec<JobId> = (0..3).map(|_| registry.register()).collect();
        for &id in &ids {
            registry.complete(id, Ok(()));
        }
        // Completing the third pruned the first (max_done = 2).
        assert!(matches!(registry.lookup(ids[0]), Lookup::Expired));
        assert!(matches!(registry.lookup(ids[1]), Lookup::Active(_)));
        assert!(matches!(registry.lookup(ids[2]), Lookup::Active(_)));
        assert_eq!(registry.counts().expired, 1);
        // An id never issued still answers Unknown, not Expired.
        assert!(matches!(registry.lookup(JobId::new(999)), Lookup::Unknown));
    }

    #[test]
    fn poll_maps_live_expired_and_unknown_ids() {
        let registry = Registry::<Outcome>::new(Duration::from_secs(3600), 1);
        let first = registry.register();
        let second = registry.register();
        registry.complete(first, Ok(()));
        registry.complete(second, Ok(()));
        let envelope =
            |id: JobId, phase: &JobPhase<Outcome>| format!("{id}:{}", phase.status_name());
        let live = registry.poll(second, envelope);
        assert_eq!((live.status, live.body), (200, format!("{second}:done")));
        let expired = registry.poll(first, envelope);
        assert_eq!(expired.status, 410);
        assert!(
            expired.body.contains("\"kind\":\"expired\""),
            "{}",
            expired.body
        );
        let unknown = registry.poll(JobId::new(999), envelope);
        assert_eq!(unknown.status, 404);
        assert!(
            unknown.body.contains("\"kind\":\"not_found\""),
            "{}",
            unknown.body
        );
    }
}
