//! A bounded MPMC queue with non-blocking admission — the load-shedding
//! primitive under every worker shard.
//!
//! The queue never blocks a producer: [`BoundedQueue::try_push`] either
//! admits the item or reports [`PushError::Full`] immediately, so the
//! connection thread can answer `overloaded` (with a `retry_after_ms`
//! hint) instead of stacking requests into unbounded memory. Consumers
//! block with a timeout so a draining shard can notice closure promptly.
//!
//! Capacity is a hard invariant: at no point does the queue hold more
//! than `capacity` items (property-tested in `tests/server_queue.rs`).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; shed the item (returned unchanged).
    Full(T),
    /// The queue is closed for new work (shutdown drain in progress).
    Closed(T),
}

/// What a pop produced.
#[derive(Debug)]
pub enum Popped<T> {
    /// An item.
    Item(T),
    /// Nothing arrived within the timeout; the queue is still open.
    TimedOut,
    /// The queue is closed *and* empty — the consumer can exit.
    Drained,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded multi-producer/multi-consumer queue (mutex + condvar).
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue bounded to `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            capacity: capacity.max(1),
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
        }
    }

    /// The hard bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Whether the queue holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits `item` if there is room; never blocks.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`] — both return the item to the caller.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        let depth = state.items.len();
        drop(state);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Takes the oldest item, waiting up to `timeout` for one to arrive.
    pub fn pop(&self, timeout: Duration) -> Popped<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Popped::Item(item);
            }
            if state.closed {
                return Popped::Drained;
            }
            let (next, wait) = self
                .not_empty
                .wait_timeout(state, timeout)
                .expect("queue lock");
            state = next;
            if wait.timed_out() {
                return match state.items.pop_front() {
                    Some(item) => Popped::Item(item),
                    None if state.closed => Popped::Drained,
                    None => Popped::TimedOut,
                };
            }
        }
    }

    /// Closes the queue: future pushes fail, queued items remain poppable,
    /// and consumers see [`Popped::Drained`] once empty.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.not_empty.notify_all();
    }

    /// Empties the queue without handing items to a consumer, returning
    /// what was shed (used by non-draining shutdown).
    pub fn drain_now(&self) -> Vec<T> {
        let mut state = self.state.lock().expect("queue lock");
        state.items.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_in_fifo_order() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert!(matches!(q.pop(Duration::from_millis(1)), Popped::Item(1)));
        assert!(matches!(q.pop(Duration::from_millis(1)), Popped::Item(2)));
        assert!(matches!(q.pop(Duration::from_millis(1)), Popped::TimedOut));
    }

    #[test]
    fn full_queue_sheds() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_rejects_but_drains() {
        let q = BoundedQueue::new(2);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(PushError::Closed(8)));
        assert!(matches!(q.pop(Duration::from_millis(1)), Popped::Item(7)));
        assert!(matches!(q.pop(Duration::from_millis(1)), Popped::Drained));
    }

    #[test]
    fn blocked_pop_wakes_on_push() {
        use std::sync::Arc;
        let q = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || match q2.pop(Duration::from_secs(5)) {
            Popped::Item(v) => v,
            other => panic!("expected item, got {other:?}"),
        });
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(42usize).unwrap();
        assert_eq!(h.join().unwrap(), 42);
    }
}
