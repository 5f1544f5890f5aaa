//! Offline shim of the `crossbeam` API surface used by this workspace
//! (see `shims/README.md`): bounded MPMC-ish channels over
//! `std::sync::mpsc::sync_channel` and scoped threads over
//! `std::thread::scope`. It is genuinely concurrent: the service's
//! worker pool and the rayon shim's thread pool both run on its
//! channels.

use std::any::Any;

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
    pub use std::sync::mpsc::{RecvError, SendError, TryRecvError, TrySendError};
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
        /// Block until the value is enqueued; `Err` when disconnected.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }

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

        /// Iterate until every sender is dropped.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    /// Blocking iterator over received values (see [`Receiver::iter`]).
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    /// Owning blocking iterator over received values.
    pub struct IntoIter<T> {
        rx: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> Self::IntoIter {
            IntoIter { rx: self }
        }
    }

    /// A channel holding at most `cap` in-flight values.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = std::sync::mpsc::sync_channel(cap);
        (Sender(tx), Receiver(Arc::new(Mutex::new(rx))))
    }
}

/// Handle for spawning threads inside a [`scope`] call. Mirrors
/// crossbeam's scope type, whose spawn closures receive the scope
/// again for nested spawning.
pub struct Scope<'scope, 'env: 'scope>(&'scope std::thread::Scope<'scope, 'env>);

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a scoped thread; it is joined when the scope ends.
    pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let inner = self.0;
        self.0.spawn(move || f(&Scope(inner)))
    }
}

/// Create a scope in which borrowing, auto-joined threads can be
/// spawned. Returns `Ok` with the closure's value; a child-thread
/// panic propagates as a panic at the end of the scope (crossbeam
/// would return `Err` instead — every call site here unwraps, so the
/// observable behaviour matches).
pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    Ok(std::thread::scope(|s| f(&Scope(s))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn producer_consumer_roundtrip() {
        let (tx, rx) = channel::bounded(4);
        let sum = scope(|s| {
            s.spawn(move |_| {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            rx.iter().sum::<i64>()
        })
        .unwrap();
        assert_eq!(sum, 4950);
    }

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

    #[test]
    fn nested_spawn_compiles() {
        let done = scope(|s| {
            let h = s.spawn(|inner| inner.spawn(|_| 7).join().unwrap());
            h.join().unwrap()
        })
        .unwrap();
        assert_eq!(done, 7);
    }
}
