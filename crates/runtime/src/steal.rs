//! Work-stealing task queues for the multi-matrix drivers.
//!
//! The paper's Alg. 3 scatters matrices over ranks *statically* (a block
//! distribution fixed at submit time). That is the right shape when every
//! matrix costs the same, but a service mixing tenants with different
//! `(N, L, c)` shapes — or jobs that degrade mid-flight and redo work —
//! leaves ranks idle under a static scatter. [`StealQueues`] provides the
//! classic alternative: one deque per worker, owners pop oldest-first
//! from the front, and an idle worker *steals half* of the most-loaded
//! victim's deque from the back. Stealing half (rather than one task)
//! amortizes the synchronization cost over the haul, which is the
//! standard Cilk-style argument.
//!
//! The implementation favors simplicity over lock-freedom: each deque is
//! a `Mutex<VecDeque<T>>` and blocking acquisition uses one `Condvar`.
//! The tasks scheduled here are whole selected inversions (milliseconds
//! to seconds each), so queue overhead is noise; a Chase–Lev deque would
//! buy nothing measurable.
//!
//! Three always-on counters feed the metrics registry:
//! `runtime.steal.attempts` (calls that looked for a victim),
//! `runtime.steal.hits` (attempts that found work), and
//! `runtime.steal.tasks_moved` (total tasks migrated between deques).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::metrics::LazyCounter;

static STEAL_ATTEMPTS: LazyCounter = LazyCounter::new("runtime.steal.attempts");
static STEAL_HITS: LazyCounter = LazyCounter::new("runtime.steal.hits");
static STEAL_MOVED: LazyCounter = LazyCounter::new("runtime.steal.tasks_moved");

/// Per-worker task deques with steal-half load balancing.
///
/// `W` workers each own one deque. Producers push to any worker's deque
/// ([`StealQueues::push`]); worker `w` drains its own deque FIFO via
/// `pop` and falls back to stealing half of the fullest other deque
/// (`steal_into`). [`StealQueues::acquire`]
/// bundles both with blocking: it parks the worker until a task arrives
/// anywhere or the queues are [closed](StealQueues::close).
pub struct StealQueues<T> {
    deques: Vec<Mutex<VecDeque<T>>>,
    /// Tasks currently resident in any deque.
    pending: AtomicUsize,
    closed: AtomicBool,
    gate: Mutex<()>,
    cv: Condvar,
}

impl<T> StealQueues<T> {
    /// Creates one empty deque per worker. `workers` must be positive.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "StealQueues needs at least one worker");
        StealQueues {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Tasks currently queued across all deques (racy snapshot).
    pub(crate) fn len(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// Whether every deque is empty (racy snapshot).
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes `task` onto the back of `worker`'s deque and wakes one
    /// parked worker.
    pub fn push(&self, worker: usize, task: T) {
        self.deques[worker].lock().unwrap().push_back(task);
        self.pending.fetch_add(1, Ordering::AcqRel);
        // Notify under the gate: `acquire` checks `pending` and parks while
        // holding it, so a push cannot fall between its check and its wait.
        let _gate = self.gate.lock().unwrap();
        self.cv.notify_one();
    }

    /// Pushes a batch onto the back of `worker`'s deque under one lock
    /// acquisition and wakes all parked workers.
    pub fn push_batch(&self, worker: usize, tasks: impl IntoIterator<Item = T>) {
        let mut dq = self.deques[worker].lock().unwrap();
        let before = dq.len();
        dq.extend(tasks);
        let added = dq.len() - before;
        drop(dq);
        if added > 0 {
            self.pending.fetch_add(added, Ordering::AcqRel);
            let _gate = self.gate.lock().unwrap(); // as in `push`
            self.cv.notify_all();
        }
    }

    /// Pops the oldest task from `worker`'s own deque (FIFO), if any.
    pub(crate) fn pop(&self, worker: usize) -> Option<T> {
        let task = self.deques[worker].lock().unwrap().pop_front();
        if task.is_some() {
            self.pending.fetch_sub(1, Ordering::AcqRel);
        }
        task
    }

    /// Steals roughly half of the fullest other deque into `thief`'s
    /// deque and returns one of the stolen tasks.
    ///
    /// Tasks are taken from the *back* of the victim (the youngest work,
    /// least likely to be cache-warm for the owner). Returns `None` when
    /// no victim has work.
    pub(crate) fn steal_into(&self, thief: usize) -> Option<T> {
        STEAL_ATTEMPTS.inc();
        // Pick the fullest victim by a racy scan; contention re-checks
        // under the victim's lock below.
        let victim = self
            .deques
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != thief)
            .max_by_key(|(_, dq)| dq.lock().unwrap().len())
            .map(|(i, _)| i)?;
        let mut haul: VecDeque<T> = {
            let mut dq = self.deques[victim].lock().unwrap();
            let take = dq.len().div_ceil(2);
            if take == 0 {
                return None;
            }
            let keep = dq.len() - take;
            dq.split_off(keep)
        };
        STEAL_HITS.inc();
        STEAL_MOVED.add(haul.len() as u64);
        // Hand one task straight to the thief; park the rest (in their
        // original order) on the thief's deque. `pending` is unchanged
        // for parked tasks and decremented for the returned one.
        let first = haul.pop_front().expect("haul is non-empty");
        self.pending.fetch_sub(1, Ordering::AcqRel);
        if !haul.is_empty() {
            let mut dq = self.deques[thief].lock().unwrap();
            dq.extend(haul);
            drop(dq);
            self.cv.notify_all();
        }
        Some(first)
    }

    /// Blocks until a task is available for `worker` (own deque first,
    /// then stealing) or the queues are closed and drained.
    ///
    /// Returns `None` only after [`StealQueues::close`] once every deque
    /// is empty — the worker-loop termination signal.
    pub fn acquire(&self, worker: usize) -> Option<T> {
        loop {
            if let Some(t) = self.pop(worker) {
                return Some(t);
            }
            if let Some(t) = self.steal_into(worker) {
                return Some(t);
            }
            let guard = self.gate.lock().unwrap();
            // Re-check with the gate held: a push between our scan and
            // the lock would otherwise be missed until the next notify.
            if !self.is_empty() {
                continue;
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            let _guard = self.cv.wait(guard).unwrap();
        }
    }

    /// Marks the queues closed and wakes every parked worker. Already
    /// queued tasks are still drained; [`StealQueues::acquire`] returns
    /// `None` only once the deques are empty.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let _gate = self.gate.lock().unwrap();
        self.cv.notify_all();
    }

    /// Whether [`StealQueues::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn local_pop_is_fifo() {
        let q = StealQueues::new(2);
        q.push(0, 1);
        q.push(0, 2);
        q.push(0, 3);
        assert_eq!(q.pop(0), Some(1));
        assert_eq!(q.pop(0), Some(2));
        assert_eq!(q.pop(0), Some(3));
        assert_eq!(q.pop(0), None);
    }

    #[test]
    fn steal_takes_half_from_fullest_victim() {
        let q = StealQueues::new(3);
        q.push_batch(0, 0..8);
        q.push(1, 100);
        // Worker 2 steals: victim must be 0 (8 tasks), haul = 4.
        let got = q.steal_into(2).expect("victim has work");
        assert!((0..8).contains(&got));
        // Victim keeps the front half.
        assert_eq!(q.pop(0), Some(0));
        // The rest of the haul is on the thief's deque.
        let mut thief_tasks = Vec::new();
        while let Some(t) = q.pop(2) {
            thief_tasks.push(t);
        }
        assert_eq!(thief_tasks.len(), 3);
        assert_eq!(q.len(), 3 + 1); // [1,2,3] left on 0, [100] on 1
    }

    #[test]
    fn steal_returns_none_when_only_thief_has_work() {
        let q = StealQueues::new(2);
        q.push(0, 7u32);
        assert_eq!(q.steal_into(0), None);
        assert_eq!(q.pop(0), Some(7));
    }

    #[test]
    fn acquire_blocks_until_pushed_and_drains_after_close() {
        let q = Arc::new(StealQueues::new(2));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(t) = q2.acquire(1) {
                got.push(t);
            }
            got
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(0, 11u32); // consumer must steal it from worker 0
        q.push(1, 22);
        q.close();
        let mut got = consumer.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![11, 22]);
    }

    #[test]
    fn close_wakes_all_idle_workers() {
        let q = Arc::new(StealQueues::<u32>::new(4));
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.acquire(w))
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None);
        }
    }

    #[test]
    fn a_push_to_a_parking_worker_is_never_lost() {
        // One worker forwards each task to a channel and the producer pushes
        // the next only once the last came back, so every push meets the
        // worker on its way to park. A push that notified between the
        // worker's `pending` check and its wait would leave the task queued
        // with nobody awake. 5 s of round trips over both push paths: with
        // the notify outside the gate a debug build loses one within the
        // first ~15 000, a release build within the first million.
        use std::time::{Duration, Instant};
        let q = Arc::new(StealQueues::new(1));
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                while let Some(t) = q.acquire(0) {
                    tx.send(t).unwrap();
                }
            })
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut i = 0u64;
        while Instant::now() < deadline {
            if i.is_multiple_of(2) {
                q.push(0, i);
            } else {
                q.push_batch(0, [i]);
            }
            let got = rx.recv_timeout(Duration::from_secs(2));
            if got.is_err() {
                q.close(); // wakes the worker so the join below returns
                worker.join().unwrap();
                panic!("push {i} woke nobody");
            }
            assert_eq!(got, Ok(i));
            i += 1;
        }
        q.close();
        worker.join().unwrap();
    }

    #[test]
    fn every_task_is_consumed_exactly_once_under_contention() {
        let workers = 4;
        let total = 2000u32;
        let q = Arc::new(StealQueues::new(workers));
        // Deliberately imbalanced: everything lands on worker 0.
        q.push_batch(0, 0..total);
        q.close();
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(t) = q.acquire(w) {
                        got.push(t);
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<u32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..total).collect::<Vec<_>>());
        assert_eq!(q.len(), 0);
    }
}
