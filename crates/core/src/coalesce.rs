//! A queued, coalescing front-end for [`PredictorService`].
//!
//! Many independent callers each holding one tuple is the worst traffic
//! shape for a batch-oriented service: every call pays the full batch setup
//! (snapshot load, builder construction, worker fan-out) for a single
//! example. The [`Coalescer`] turns that shape back into batches: callers
//! enqueue requests on a bounded MPSC queue and block on a private reply
//! channel; a dedicated batcher thread drains up to
//! [`CoalesceConfig::max_coalesce`] requests (lingering at most
//! [`CoalesceConfig::max_wait`] for stragglers), groups them by [`Budget`],
//! issues one [`PredictorService::predict_batch_with`] call per group, and
//! fans the index-aligned results back to each caller.
//!
//! **Determinism contract:** serving is a pure function of
//! `(tuple, model snapshot, budget)` — grounding derives its RNG from the
//! session seed alone, and the service dedups repeated tuples within a
//! batch. Coalescing therefore never changes a verdict: every caller
//! receives a result bit-identical to what a solo
//! [`PredictorService::predict_batch_with`] call with its own tuple and
//! budget would return against the same epoch. `tests/swap_stress.rs` pins
//! this coalesced-vs-sequential parity at 1/2/8 concurrent callers, with
//! and without hot swaps in flight.
//!
//! Requests in one coalesced batch may carry different budgets; budget
//! groups are served as separate batches (still under one drained queue
//! slice), so a zero deadline or a zeroed step cap degrades only the
//! requests that asked for it.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dlearn_relstore::Tuple;

use crate::error::DlearnError;
use crate::fault;
use crate::service::{Budget, PredictorService, ServeResult};

/// Configuration of a [`Coalescer`].
#[derive(Debug, Clone)]
pub struct CoalesceConfig {
    /// Maximum requests coalesced into one drained batch.
    pub max_coalesce: usize,
    /// How long the batcher lingers for more requests once it holds at
    /// least one (the added latency ceiling a request can pay for batching).
    /// A linger too long to represent as an [`Instant`] (such as
    /// [`Duration::MAX`]) has no limit: a batch then drains only when
    /// `max_coalesce` requests are queued or the coalescer is dropped.
    pub max_wait: Duration,
    /// Bound on queued (not yet drained) requests; submitters block when
    /// the queue is full.
    pub queue_capacity: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            max_coalesce: 32,
            max_wait: Duration::from_millis(2),
            queue_capacity: 1024,
        }
    }
}

counter_table! {
    /// A point-in-time snapshot of a coalescer's counters.
    pub struct CoalesceMetrics counted by Counters {
        /// Requests accepted into the queue.
        submitted,
        /// Drained batches handed to the service (before budget grouping).
        batches,
        /// Total requests across all drained batches.
        coalesced_tuples,
        /// Size of the largest single drained batch.
        largest_batch,
        /// Drains triggered by a full batch (`max_coalesce` reached).
        full_drains,
        /// Drains triggered by the linger timer (`max_wait` elapsed).
        timer_drains,
    }
}

/// One queued request: the tuple, the caller's budget (`None` = the
/// service's default), and the channel its result goes back on.
struct Request {
    tuple: Tuple,
    budget: Option<Budget>,
    reply: mpsc::Sender<ServeResult>,
}

struct Queue {
    items: VecDeque<Request>,
    closed: bool,
}

struct Inner {
    service: Arc<PredictorService>,
    config: CoalesceConfig,
    queue: Mutex<Queue>,
    not_empty: Condvar,
    not_full: Condvar,
    counters: Counters,
}

impl Inner {
    /// Enqueue pre-built requests, blocking while the queue is over
    /// capacity. All of `requests` goes in under one lock acquisition, so a
    /// multi-request submission is drained as contiguously as `max_coalesce`
    /// allows.
    fn enqueue(&self, requests: Vec<Request>) -> Result<(), DlearnError> {
        let n = requests.len() as u64;
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        while !q.closed && q.items.len() >= self.config.queue_capacity {
            q = self.not_full.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        if q.closed {
            return Err(DlearnError::CoalescerClosed);
        }
        q.items.extend(requests);
        drop(q);
        self.counters.submitted.fetch_add(n, Ordering::Relaxed);
        self.not_empty.notify_one();
        Ok(())
    }

    /// The batcher loop: wait for work, drain a batch, serve it, fan out.
    ///
    /// However the loop ends, a panic included, the queue closes and every
    /// request still queued is dropped with its reply channel: each waiting
    /// caller gets [`DlearnError::CoalescerClosed`], and later submits fail
    /// with it too. (A batch being served is dropped by the unwind itself.)
    fn run(&self) {
        struct CloseOnExit<'a>(&'a Inner);
        impl Drop for CloseOnExit<'_> {
            fn drop(&mut self) {
                self.0.close();
                // Nothing can join the queue once it is closed.
                let queue = &self.0.queue;
                let unserved =
                    std::mem::take(&mut queue.lock().unwrap_or_else(|e| e.into_inner()).items);
                drop(unserved);
            }
        }
        let _close = CloseOnExit(self);
        while let Some(batch) = self.next_batch() {
            self.serve(batch);
        }
    }

    /// Block until at least one request is queued (or the queue closes and
    /// drains empty), then collect up to `max_coalesce` requests, lingering
    /// at most `max_wait` past the first one.
    fn next_batch(&self) -> Option<Vec<Request>> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !q.items.is_empty() {
                break;
            }
            if q.closed {
                return None;
            }
            q = self.not_empty.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        let mut batch = Vec::new();
        // A linger too long to represent as an `Instant` has no deadline:
        // the batch drains when full or when the queue closes.
        let deadline = Instant::now().checked_add(self.config.max_wait);
        let mut full = true;
        loop {
            while batch.len() < self.config.max_coalesce {
                match q.items.pop_front() {
                    Some(r) => batch.push(r),
                    None => break,
                }
            }
            if batch.len() >= self.config.max_coalesce {
                break;
            }
            // Linger for stragglers: a request arriving within `max_wait`
            // rides this batch instead of paying its own service call.
            let now = Instant::now();
            if q.closed || deadline.is_some_and(|d| now >= d) {
                full = false;
                break;
            }
            q = match deadline {
                Some(d) => {
                    self.not_empty
                        .wait_timeout(q, d - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
                None => self.not_empty.wait(q).unwrap_or_else(|e| e.into_inner()),
            };
        }
        drop(q);
        self.not_full.notify_all();
        if full {
            self.counters.full_drains.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters.timer_drains.fetch_add(1, Ordering::Relaxed);
        }
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .coalesced_tuples
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.counters
            .largest_batch
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        Some(batch)
    }

    /// Serve one drained batch: group requests by budget (first-occurrence
    /// order), one `predict_batch_with` call per group, results fanned back
    /// per request. A caller that gave up waiting just drops its receiver;
    /// the failed send is ignored.
    fn serve(&self, batch: Vec<Request>) {
        // Injected panics here model a batcher that dies mid-batch.
        let _ = fault::checkpoint(fault::Site::Coalesce, &batch[0].tuple);
        let mut groups: Vec<(Option<Budget>, Vec<usize>)> = Vec::new();
        for (i, r) in batch.iter().enumerate() {
            match groups.iter_mut().find(|(b, _)| *b == r.budget) {
                Some((_, members)) => members.push(i),
                None => groups.push((r.budget, vec![i])),
            }
        }
        for (budget, members) in groups {
            let tuples: Vec<Tuple> = members.iter().map(|&i| batch[i].tuple.clone()).collect();
            let results = match budget {
                Some(b) => self.service.predict_batch_with(&tuples, &b),
                None => self.service.predict_batch(&tuples),
            };
            for (&i, result) in members.iter().zip(results) {
                let _ = batch[i].reply.send(result);
            }
        }
    }

    fn close(&self) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.closed = true;
        drop(q);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// A coalescing batch front-end over a shared [`PredictorService`]: see the
/// [module docs](crate::coalesce) for the batching and determinism contract.
///
/// `Coalescer` is `Send + Sync`; callers on any thread submit through a
/// shared reference and block until their result arrives. Dropping the
/// coalescer closes the queue, serves every already-queued request, and
/// joins the batcher thread.
pub struct Coalescer {
    inner: Arc<Inner>,
    batcher: Option<JoinHandle<()>>,
}

impl Coalescer {
    /// Start a coalescer (and its batcher thread) over a shared service.
    pub fn new(service: Arc<PredictorService>, config: CoalesceConfig) -> Coalescer {
        let inner = Arc::new(Inner {
            service,
            config: CoalesceConfig {
                max_coalesce: config.max_coalesce.max(1),
                queue_capacity: config.queue_capacity.max(1),
                ..config
            },
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            counters: Counters::default(),
        });
        let worker = inner.clone();
        let batcher = std::thread::Builder::new()
            .name("dlearn-coalescer".into())
            .spawn(move || worker.run())
            .expect("spawn coalescer batcher");
        Coalescer {
            inner,
            batcher: Some(batcher),
        }
    }

    /// Submit one tuple under the service's default budget and block until
    /// its verdict arrives.
    pub fn submit(&self, tuple: Tuple) -> ServeResult {
        self.submit_inner(tuple, None)
    }

    /// Submit one tuple under an explicit budget and block until its
    /// verdict arrives.
    pub fn submit_with(&self, tuple: Tuple, budget: Budget) -> ServeResult {
        self.submit_inner(tuple, Some(budget))
    }

    /// Submit several (tuple, budget) requests in one queue transaction and
    /// block until all verdicts arrive, index-aligned with `items`. The
    /// requests enter the queue contiguously, so up to
    /// [`CoalesceConfig::max_coalesce`] of them coalesce into one batch
    /// even with no concurrent callers.
    pub fn submit_many_with(&self, items: &[(Tuple, Budget)]) -> Vec<ServeResult> {
        let mut receivers = Vec::with_capacity(items.len());
        let mut requests = Vec::with_capacity(items.len());
        for (tuple, budget) in items {
            let (tx, rx) = mpsc::channel();
            receivers.push(rx);
            requests.push(Request {
                tuple: tuple.clone(),
                budget: Some(*budget),
                reply: tx,
            });
        }
        if let Err(e) = self.inner.enqueue(requests) {
            return items.iter().map(|_| Err(e.clone())).collect();
        }
        receivers
            .into_iter()
            .map(|rx| rx.recv().unwrap_or(Err(DlearnError::CoalescerClosed)))
            .collect()
    }

    fn submit_inner(&self, tuple: Tuple, budget: Option<Budget>) -> ServeResult {
        let (tx, rx) = mpsc::channel();
        self.inner.enqueue(vec![Request {
            tuple,
            budget,
            reply: tx,
        }])?;
        rx.recv().unwrap_or(Err(DlearnError::CoalescerClosed))
    }

    /// A snapshot of the coalescer's counters.
    pub fn metrics(&self) -> CoalesceMetrics {
        self.inner.counters.snapshot()
    }

    /// The service this coalescer batches for.
    pub fn service(&self) -> &Arc<PredictorService> {
        &self.inner.service
    }
}

impl std::fmt::Debug for Coalescer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coalescer")
            .field("config", &self.inner.config)
            .field("metrics", &self.metrics())
            .finish()
    }
}

impl Drop for Coalescer {
    fn drop(&mut self) {
        self.inner.close();
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
    }
}
