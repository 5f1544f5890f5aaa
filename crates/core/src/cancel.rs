//! Cooperative cancellation for solver runs.
//!
//! A [`CancelToken`] is the engine's stop signal: solvers receive one
//! through [`SolveCtx`](crate::SolveCtx) and poll it at round
//! boundaries (the improvement family checks between improvement
//! rounds; one-shot solvers and the portfolio check on entry). It is
//! a shared flag that trips only on an explicit
//! [`cancel`](CancelToken::cancel). The one caller that trips it is
//! the portfolio's race board, which retires racers that can no longer
//! win once an earlier racer reaches the instance's score bound.
//!
//! The default token is [`CancelToken::never`]: a zero-allocation
//! no-op, so uncancellable call paths pay nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cloneable, thread-safe stop signal (see module docs). Clones
/// share state: cancelling one cancels them all.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Option<Arc<AtomicBool>>,
}

impl CancelToken {
    /// The inert token: never cancelled, free to clone and poll.
    /// [`cancel`](CancelToken::cancel) on it is a no-op.
    pub fn never() -> CancelToken {
        CancelToken { flag: None }
    }

    /// A live token that trips on [`cancel`](CancelToken::cancel).
    pub fn new() -> CancelToken {
        CancelToken {
            flag: Some(Arc::new(AtomicBool::new(false))),
        }
    }

    /// Trip the token and every clone of it. No-op on a `never` token.
    pub fn cancel(&self) {
        // Relaxed: the flag publishes no other data.
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the token has tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_token_never_trips() {
        let t = CancelToken::never();
        t.cancel();
        assert!(!t.is_cancelled());
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled());
    }
}
