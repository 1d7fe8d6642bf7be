//! Bounded admission queue: the server's single backpressure point.
//!
//! `try_push` never blocks — when the queue is full the *accept thread*
//! learns instantly and sheds the connection with a 503, which is the
//! whole design: under overload the cheap path (reject) must stay
//! cheap, and latency for admitted requests must stay bounded by
//! `capacity × service_time` instead of growing without limit.
//!
//! `pop` blocks workers until an item, or until [`BoundedQueue::close`]
//! — after which remaining items are still drained (graceful shutdown
//! finishes admitted work) and only then does `pop` return `None`.

use std::collections::VecDeque;
use std::sync::Condvar;

use gp_obs::sync::{Mutex, Rank};

/// Rejection reason from [`BoundedQueue::try_push`]; carries the item
/// back so the caller can respond on the connection it failed to admit.
#[derive(Debug)]
pub enum PushError<T> {
    /// At capacity — shed with `503 + Retry-After`.
    Full(T),
    /// Draining — shed with `503`; no new work after shutdown begins.
    Closed(T),
}

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Fixed-capacity MPMC queue over `Mutex` + `Condvar`.
pub struct BoundedQueue<T> {
    /// Recovered after a panic (`gp_obs::sync`): the `VecDeque` and the
    /// flag are mutated atomically under the lock, so a panicking holder
    /// cannot leave them torn, and the accept loop must keep admitting
    /// after one worker dies.
    inner: Mutex<QueueInner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(
                Rank::AdmissionQueue,
                QueueInner {
                    items: VecDeque::with_capacity(capacity),
                    closed: false,
                },
            ),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Non-blocking admit. Errors return the item to the caller.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut q = self.inner.lock();
        if q.closed {
            return Err(PushError::Closed(item));
        }
        if q.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        q.items.push_back(item);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking take. `None` only after `close()` **and** the queue has
    /// fully drained — admitted requests always reach a worker.
    pub fn pop(&self) -> Option<T> {
        let mut q = self.inner.lock();
        loop {
            if let Some(item) = q.items.pop_front() {
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = q.wait(&self.ready);
        }
    }

    /// Begin drain: wake every waiting worker; future pushes fail.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.ready.notify_all();
    }

    /// Current depth (snapshot; races with push/pop by design).
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "raw client/producer threads drive the code under test from outside any pool"
)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).expect("has room");
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn full_queue_rejects_and_returns_item() {
        let q = BoundedQueue::new(2);
        q.try_push(1).expect("room");
        q.try_push(2).expect("room");
        match q.try_push(3) {
            Err(PushError::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        // Shedding frees no slot; popping does.
        q.pop();
        q.try_push(3).expect("room after pop");
    }

    #[test]
    fn close_drains_then_returns_none() {
        let q = BoundedQueue::new(4);
        q.try_push("a").expect("room");
        q.try_push("b").expect("room");
        q.close();
        match q.try_push("c") {
            Err(PushError::Closed(item)) => assert_eq!(item, "c"),
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        // Give the workers a moment to block, then drain them out.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().expect("popper exits"), None);
        }
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = Arc::new(BoundedQueue::new(8));
        let total = 200u32;
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut shed = 0u32;
                for i in 0..total {
                    let mut item = i;
                    loop {
                        match q.try_push(item) {
                            Ok(()) => break,
                            Err(PushError::Full(back)) => {
                                item = back;
                                shed += 1;
                                std::thread::yield_now();
                            }
                            Err(PushError::Closed(_)) => panic!("closed early"),
                        }
                    }
                }
                shed
            })
        };
        producer.join().expect("producer");
        q.close();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|h| h.join().expect("consumer"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..total).collect::<Vec<_>>());
    }
}
