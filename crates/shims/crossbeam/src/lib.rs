//! Minimal stand-in for the `crossbeam` crate.
//!
//! Provides `crossbeam::channel::{unbounded, bounded, Sender, Receiver}` —
//! the only pieces this workspace uses — as a multi-producer/multi-consumer
//! channel built on `Mutex<VecDeque>` + two `Condvar`s. Semantics match
//! crossbeam for the operations exposed: cloneable endpoints, `recv` blocks
//! until a message arrives or every sender is dropped, `send` fails once
//! every receiver is dropped (and messages still queued then are dropped,
//! not kept alive by the remaining senders), and on a
//! [`bounded`](channel::bounded) channel
//! `send` **blocks** while the queue is at capacity — the backpressure
//! primitive the sharded ingest path builds on. The non-blocking /
//! time-bounded variants ([`Sender::try_send`](channel::Sender::try_send),
//! [`Receiver::recv_timeout`](channel::Receiver::recv_timeout)) mirror real
//! crossbeam's signatures; the serving front-end's admission loop is built
//! on them. Lock-based rather than lock-free, which is irrelevant at the
//! message rates here (one command per routed batch or submission).

/// Multi-producer multi-consumer FIFO channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// `Some(n)` bounds the queue at `n` messages (blocking sends);
        /// `None` is unbounded.
        capacity: Option<usize>,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        /// Signalled when a message is enqueued (wakes blocked receivers) or
        /// the last sender leaves.
        ready: Condvar,
        /// Signalled when a message is dequeued (wakes senders blocked on a
        /// full bounded queue) or the last receiver leaves.
        space: Condvar,
    }

    fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                capacity,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
        });
        (Sender(chan.clone()), Receiver(chan))
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    /// Creates a bounded MPMC channel holding at most `capacity` messages:
    /// once full, [`Sender::send`] blocks until a receiver makes room (or
    /// every receiver is gone, which fails the send).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero. Real crossbeam gives `bounded(0)`
    /// rendezvous semantics; nothing in this workspace uses them, and a
    /// zero-capacity queue here would simply deadlock, so it is rejected.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        assert!(capacity >= 1, "bounded channel capacity must be at least 1");
        channel(Some(capacity))
    }

    /// The sending half of a channel.
    pub struct Sender<T>(Arc<Chan<T>>);

    /// The receiving half of a channel.
    pub struct Receiver<T>(Arc<Chan<T>>);

    /// Error returned by [`Sender::send`] when every receiver is gone; the
    /// unsent message is handed back.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message is currently queued.
        Empty,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// Error returned by [`Sender::try_send`]; the unsent message is handed
    /// back in either case, matching real crossbeam.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The bounded queue is at capacity right now.
        Full(T),
        /// Every receiver has been dropped.
        Disconnected(T),
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, failing only if every receiver has been dropped.
        /// On a [`bounded`] channel this blocks while the queue is full, so a
        /// producer outrunning the consumer experiences backpressure instead
        /// of unbounded queue growth.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.0.state.lock().expect("channel poisoned");
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                match state.capacity {
                    Some(cap) if state.queue.len() >= cap => {
                        state = self.0.space.wait(state).expect("channel poisoned");
                    }
                    _ => break,
                }
            }
            state.queue.push_back(value);
            drop(state);
            self.0.ready.notify_one();
            Ok(())
        }

        /// Enqueues `value` without blocking: a full bounded queue hands the
        /// message back as [`TrySendError::Full`] instead of waiting for
        /// room, and a channel with no receivers hands it back as
        /// [`TrySendError::Disconnected`]. On an unbounded channel this never
        /// reports `Full`.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut state = self.0.state.lock().expect("channel poisoned");
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if let Some(cap) = state.capacity {
                if state.queue.len() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            state.queue.push_back(value);
            drop(state);
            self.0.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.0.state.lock().expect("channel poisoned");
            loop {
                if let Some(value) = state.queue.pop_front() {
                    drop(state);
                    self.0.space.notify_one();
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.0.ready.wait(state).expect("channel poisoned");
            }
        }

        /// Blocks until a message arrives, every sender is dropped, or
        /// `timeout` elapses — whichever happens first. Spurious condvar
        /// wakeups re-check the remaining budget, so the total wait never
        /// exceeds `timeout` by more than scheduling noise.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut state = self.0.state.lock().expect("channel poisoned");
            loop {
                if let Some(value) = state.queue.pop_front() {
                    drop(state);
                    self.0.space.notify_one();
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let Some(remaining) = deadline.checked_duration_since(std::time::Instant::now())
                else {
                    return Err(RecvTimeoutError::Timeout);
                };
                let (guard, result) = self
                    .0
                    .ready
                    .wait_timeout(state, remaining)
                    .expect("channel poisoned");
                state = guard;
                if result.timed_out() && state.queue.is_empty() {
                    if state.senders == 0 {
                        return Err(RecvTimeoutError::Disconnected);
                    }
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Pops a queued message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.0.state.lock().expect("channel poisoned");
            match state.queue.pop_front() {
                Some(value) => {
                    drop(state);
                    self.0.space.notify_one();
                    Ok(value)
                }
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().expect("channel poisoned").senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().expect("channel poisoned").receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.0.state.lock().expect("channel poisoned");
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                // Wake blocked receivers so they observe the disconnect.
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.0.state.lock().expect("channel poisoned");
            state.receivers -= 1;
            if state.receivers == 0 {
                // Nothing can receive the queued messages any more. Drop
                // them, as crossbeam does on disconnect, so what they own
                // (a reply sender a caller is waiting on, say) is released
                // now rather than when the last sender goes. Sends fail from
                // here on, so the queue stays empty.
                let orphaned = std::mem::take(&mut state.queue);
                drop(state);
                // Wake senders blocked on a full bounded queue so they
                // observe the disconnect instead of waiting forever.
                self.0.space.notify_all();
                // Outside the lock: a message may own an endpoint of this
                // very channel, whose drop takes the lock again.
                drop(orphaned);
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvError, TryRecvError};

    #[test]
    fn fifo_order_single_thread() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn recv_unblocks_on_sender_drop() {
        let (tx, rx) = unbounded::<u32>();
        let handle = std::thread::spawn(move || rx.recv());
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(tx);
        assert_eq!(handle.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn mpmc_all_messages_delivered_once() {
        let (tx, rx) = unbounded::<u64>();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        tx.send(p * 1_000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..4)
            .flat_map(|p| (0..1_000).map(move |i| p * 1_000 + i))
            .collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn messages_queued_when_the_last_receiver_drops_are_dropped() {
        // A queued message owning a reply sender: once nobody can receive
        // it, the reply channel must disconnect even though a sender of the
        // request channel is still alive.
        let (tx, rx) = unbounded::<super::channel::Sender<u32>>();
        let (reply_tx, reply_rx) = unbounded::<u32>();
        tx.send(reply_tx).unwrap();
        drop(rx);
        assert_eq!(
            reply_rx.recv_timeout(std::time::Duration::from_secs(5)),
            Err(super::channel::RecvTimeoutError::Disconnected)
        );
        // A message owning an endpoint of its own channel drops cleanly.
        let (tx, rx) = unbounded::<super::channel::Sender<u32>>();
        let (inner_tx, inner_rx) = unbounded::<u32>();
        tx.send(inner_tx).unwrap();
        drop(inner_rx);
        drop(rx);
        assert!(tx.send(unbounded().0).is_err());
    }

    #[test]
    fn bounded_send_blocks_until_capacity_frees() {
        let (tx, rx) = super::channel::bounded::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let blocked = std::thread::spawn(move || {
            tx.send(3).unwrap(); // queue is full: must block here
            tx
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(
            !blocked.is_finished(),
            "send on a full bounded channel must block"
        );
        assert_eq!(rx.recv(), Ok(1)); // frees a slot, unblocking the sender
        let tx = blocked.join().unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn bounded_blocked_send_fails_when_receivers_vanish() {
        let (tx, rx) = super::channel::bounded::<u32>(1);
        tx.send(1).unwrap();
        let blocked = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(std::time::Duration::from_millis(30));
        drop(rx); // must wake the blocked sender with an error
        assert!(blocked.join().unwrap().is_err());
    }

    #[test]
    fn bounded_mpmc_delivers_everything_under_backpressure() {
        let (tx, rx) = super::channel::bounded::<u64>(4);
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        tx.send(p * 500 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut all: Vec<u64> = Vec::new();
        while let Ok(v) = rx.recv() {
            all.push(v);
        }
        for p in producers {
            p.join().unwrap();
        }
        all.sort_unstable();
        assert_eq!(all, (0..1_500).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_is_rejected() {
        let _ = super::channel::bounded::<u32>(0);
    }

    #[test]
    fn try_send_reports_full_and_recovers() {
        let (tx, rx) = super::channel::bounded::<u32>(2);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Ok(()));
        assert_eq!(tx.try_send(3), Err(super::channel::TrySendError::Full(3)));
        assert_eq!(rx.recv(), Ok(1)); // frees a slot
        assert_eq!(tx.try_send(3), Ok(()));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn try_send_reports_disconnected_and_returns_the_value() {
        let (tx, rx) = super::channel::unbounded::<String>();
        drop(rx);
        assert_eq!(
            tx.try_send("orphan".to_string()),
            Err(super::channel::TrySendError::Disconnected(
                "orphan".to_string()
            ))
        );
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = super::channel::unbounded::<u32>();
        let t0 = std::time::Instant::now();
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_millis(20)),
            Err(super::channel::RecvTimeoutError::Timeout)
        );
        assert!(t0.elapsed() >= std::time::Duration::from_millis(20));
        tx.send(7).unwrap();
        assert_eq!(rx.recv_timeout(std::time::Duration::from_millis(20)), Ok(7));
    }

    #[test]
    fn recv_timeout_wakes_on_late_arrival_and_disconnect() {
        let (tx, rx) = super::channel::unbounded::<u32>();
        let feeder = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(15));
            tx.send(42).unwrap();
            // dropping tx here disconnects the channel
        });
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(5)), Ok(42));
        feeder.join().unwrap();
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(5)),
            Err(super::channel::RecvTimeoutError::Disconnected)
        );
    }
}
