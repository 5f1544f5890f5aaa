//! Offline shim of the `crossbeam` API surface used by this workspace
//! (see `shims/README.md`): bounded MPMC-ish channels over
//! `std::sync::mpsc::sync_channel`, with exactly the calls the
//! workspace makes — `bounded`, `Sender::try_send`, `Receiver::recv`
//! and `clone` on both halves. It is genuinely concurrent: the
//! service's worker pool and the rayon shim's thread pool both run on
//! its channels.

pub mod channel {
    //! Bounded channels with crossbeam's `bounded` constructor.
    //!
    //! Crossbeam channels are MPMC: both halves clone. std's
    //! `sync_channel` is MPSC, so the receiving half here serialises
    //! cloned consumers through a mutex — exactly one consumer blocks
    //! in `recv` at a time and the rest queue on the lock, which
    //! preserves crossbeam's semantics (every message delivered to
    //! exactly one receiver) at some fairness cost. That design is
    //! also why `try_recv`/`recv_timeout` are deliberately *absent*:
    //! with a consumer parked inside `recv` holding the lock, a
    //! "non-blocking" probe would block on the mutex — a hang real
    //! crossbeam can never produce. They can be added alongside a
    //! lock-free receiver if something ever needs them.

    use std::sync::mpsc::{Receiver as StdReceiver, SyncSender};
    pub use std::sync::mpsc::{RecvError, TrySendError};
    use std::sync::{Arc, Mutex};

    /// Sending half of a bounded channel.
    pub struct Sender<T>(SyncSender<T>);

    /// Receiving half of a bounded channel.
    pub struct Receiver<T>(Arc<Mutex<StdReceiver<T>>>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Sender<T> {
        /// Enqueue without blocking: `Err(Full)` when the channel is
        /// at capacity — the backpressure probe a bounded worker queue
        /// rejects on — and `Err(Disconnected)` when no receiver is
        /// left.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            self.0.try_send(value)
        }
    }

    impl<T> Receiver<T> {
        fn inner(&self) -> std::sync::MutexGuard<'_, StdReceiver<T>> {
            // The std receiver never panics mid-`recv`, so a poisoned
            // lock only follows a panic elsewhere; recover the guard.
            self.0.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Block for the next value; `Err` when empty and disconnected.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner().recv()
        }
    }

    /// A channel holding at most `cap` in-flight values.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = std::sync::mpsc::sync_channel(cap);
        (Sender(tx), Receiver(Arc::new(Mutex::new(rx))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_send_reports_full_and_cloned_receivers_share_work() {
        let (tx, rx) = channel::bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(
            tx.try_send(3),
            Err(channel::TrySendError::Full(3))
        ));
        let rx2 = rx.clone();
        let a = rx.recv().unwrap();
        let b = rx2.recv().unwrap();
        // Each message is delivered to exactly one consumer.
        assert_eq!([a, b], [1, 2]);
        drop(tx);
        assert!(rx.recv().is_err());
        assert!(rx2.recv().is_err());
    }
}
