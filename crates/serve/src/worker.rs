//! The worker pool that drains the submission queue through a shared
//! [`BatchRunner`].
//!
//! Every worker owns nothing: the queue, the registry and the runner are
//! all shared (`BatchRunner::run` takes `&self`; its `TemplateCache` is
//! concurrent), so concurrent clients warm each other's templates — the
//! first submitter of a (shape, device, layers, options) combination
//! pays the compile, everyone after it hits the cache, whichever worker
//! picks their job up.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use fq_faults::{FaultKind, FaultPlan, FaultSite};
use frozenqubits::{BatchRunner, FqError, JobId, JobSpec};

use crate::queue::BoundedQueue;
use crate::store::JobStore;

/// One queued submission.
#[derive(Debug)]
pub(crate) struct QueuedJob {
    /// The id the registry minted for this submission.
    pub(crate) id: JobId,
    /// The validated-on-parse job spec.
    pub(crate) spec: JobSpec,
}

/// A fixed-size pool of job-executing threads.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `count` workers (zero is legal: jobs then queue without
    /// draining, which is what backpressure tests use). `busy` counts
    /// workers mid-job — held high for exactly the execution span, even
    /// across a panicking spec — so `/v1/stats` can report in-flight
    /// load to the dispatcher's sentinel.
    pub(crate) fn spawn(
        count: usize,
        queue: Arc<BoundedQueue<QueuedJob>>,
        store: Arc<JobStore>,
        runner: Arc<BatchRunner>,
        busy: Arc<AtomicUsize>,
        fault_plan: Option<Arc<FaultPlan>>,
    ) -> WorkerPool {
        let handles = (0..count)
            .map(|index| {
                let queue = Arc::clone(&queue);
                let store = Arc::clone(&store);
                let runner = Arc::clone(&runner);
                let busy = Arc::clone(&busy);
                let fault_plan = fault_plan.clone();
                thread::Builder::new()
                    .name(format!("fq-serve-worker-{index}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            store.mark_running(job.id);
                            let in_flight = BusyGuard::arm(&busy);
                            // A panicking spec must not kill the worker
                            // (shrinking the pool) or strand the job in
                            // `running` forever — record it as failed
                            // and keep draining.
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    // Chaos hook: a scheduled panic here
                                    // takes the same containment path a
                                    // panicking spec would; a stall
                                    // holds the busy count high like a
                                    // genuinely slow job.
                                    if let Some(plan) = &fault_plan {
                                        match plan.roll(FaultSite::Worker) {
                                            Some(FaultKind::Panic) => {
                                                panic!("injected fault: worker panic")
                                            }
                                            Some(FaultKind::Stall(ms)) => {
                                                thread::sleep(std::time::Duration::from_millis(ms))
                                            }
                                            _ => {}
                                        }
                                    }
                                    runner
                                        .run(std::slice::from_ref(&job.spec))
                                        .pop()
                                        .expect("one result per submitted spec")
                                }))
                                .unwrap_or_else(|panic| {
                                    let what = panic
                                        .downcast_ref::<&str>()
                                        .map(|s| (*s).to_string())
                                        .or_else(|| panic.downcast_ref::<String>().cloned())
                                        .unwrap_or_else(|| "non-string panic payload".into());
                                    Err(FqError::Io(format!("job execution panicked: {what}")))
                                });
                            // Drop the guard *before* publishing: completion
                            // wakes synchronous waiters, and a stats read
                            // issued the moment a sync submit returns must
                            // not still see this worker counted busy.
                            drop(in_flight);
                            store.complete(job.id, result);
                        }
                    })
                    .expect("spawning a worker thread")
            })
            .collect();
        WorkerPool { handles }
    }

    /// Waits for every worker to exit (call after closing the queue).
    pub(crate) fn join(self) {
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// Holds the in-flight count high for one job's execution span; the
/// drop impl keeps the count honest even when `catch_unwind` trips.
struct BusyGuard<'a>(&'a AtomicUsize);

impl<'a> BusyGuard<'a> {
    fn arm(counter: &'a AtomicUsize) -> Self {
        counter.fetch_add(1, Ordering::SeqCst);
        BusyGuard(counter)
    }
}

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::JobPhase;
    use frozenqubits::api::{DeviceSpec, JobBuilder};
    use std::time::Duration;

    #[test]
    fn workers_drain_the_queue_and_record_results() {
        let queue = Arc::new(BoundedQueue::new(8));
        let store = Arc::new(JobStore::new(Duration::from_secs(3600), 4096));
        let runner = Arc::new(BatchRunner::new().with_threads(1));
        let busy = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::spawn(
            2,
            queue.clone(),
            store.clone(),
            runner.clone(),
            busy.clone(),
            None,
        );

        let spec = JobBuilder::new()
            .barabasi_albert(10, 1, 3)
            .device(DeviceSpec::IbmMontreal)
            .frozen()
            .build()
            .unwrap();
        let ids: Vec<JobId> = (0..4)
            .map(|_| {
                let id = store.register();
                queue
                    .push(QueuedJob {
                        id,
                        spec: spec.clone(),
                    })
                    .unwrap();
                id
            })
            .collect();

        let expected = spec.run().unwrap();
        for id in ids {
            let state = store.await_done(id, Duration::from_secs(60)).unwrap();
            let JobPhase::Done(result) = state else {
                panic!("job should have finished");
            };
            assert_eq!(result.as_ref().as_ref().unwrap(), &expected);
        }
        // All four jobs share one shape: exactly one compile.
        assert_eq!(runner.templates_compiled(), 1);

        queue.close();
        pool.join();
        assert_eq!(busy.load(Ordering::SeqCst), 0, "guards must balance");
    }

    #[test]
    fn injected_panic_is_contained_and_the_worker_keeps_draining() {
        let queue = Arc::new(BoundedQueue::new(8));
        let store = Arc::new(JobStore::new(Duration::from_secs(3600), 4096));
        let runner = Arc::new(BatchRunner::new().with_threads(1));
        let busy = Arc::new(AtomicUsize::new(0));
        // Exactly the first job panics; the second must still execute
        // on the same (surviving) worker thread.
        let plan = Arc::new(fq_faults::FaultPlan::new(1).with_rule(
            FaultSite::Worker,
            FaultKind::Panic,
            1,
            Some(1),
        ));
        let pool = WorkerPool::spawn(
            1,
            queue.clone(),
            store.clone(),
            runner.clone(),
            busy.clone(),
            Some(plan),
        );

        let spec = JobBuilder::new()
            .barabasi_albert(10, 1, 3)
            .device(DeviceSpec::IbmMontreal)
            .frozen()
            .build()
            .unwrap();
        let ids: Vec<JobId> = (0..2)
            .map(|_| {
                let id = store.register();
                queue
                    .push(QueuedJob {
                        id,
                        spec: spec.clone(),
                    })
                    .unwrap();
                id
            })
            .collect();

        let first = store.await_done(ids[0], Duration::from_secs(60)).unwrap();
        let JobPhase::Done(result) = first else {
            panic!("panicked job must still reach a terminal state");
        };
        let error = result.as_ref().as_ref().unwrap_err().to_string();
        assert!(error.contains("injected fault: worker panic"), "{error}");

        let second = store.await_done(ids[1], Duration::from_secs(60)).unwrap();
        let JobPhase::Done(result) = second else {
            panic!("job after the panic should have finished");
        };
        assert_eq!(result.as_ref().as_ref().unwrap(), &spec.run().unwrap());

        queue.close();
        pool.join();
        assert_eq!(
            busy.load(Ordering::SeqCst),
            0,
            "guards balance across panics"
        );
    }
}
