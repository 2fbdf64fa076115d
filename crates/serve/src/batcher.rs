//! Request coalescing for the inference engine.
//!
//! The engine thread owns a single model; running one rollout per forecast
//! request would serialize concurrent clients behind full forward passes.
//! Instead, when a forecast request arrives the engine sweeps whatever is
//! already queued behind it ([`drain_backlog`]) and answers every forecast
//! collected with **one** rollout to the largest requested horizon. It never
//! waits for more: forecasts that arrive while a rollout runs queue up and
//! form the next batch. Ingests swept in the same pass are applied first, so
//! all coalesced forecasts observe the same, freshest window state.

use std::sync::mpsc::Receiver;

/// The messages already queued on `rx`, at most `cap` of them, without
/// blocking.
pub fn drain_backlog<T>(rx: &Receiver<T>, cap: usize) -> impl Iterator<Item = T> + '_ {
    rx.try_iter().take(cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn sweeps_only_the_backlog() {
        let (tx, rx) = mpsc::channel();
        for i in 0..3 {
            tx.send(i).unwrap();
        }
        assert_eq!(drain_backlog(&rx, 64).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(drain_backlog(&rx, 64).count(), 0);
    }

    #[test]
    fn cap_bounds_the_batch() {
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        assert_eq!(drain_backlog(&rx, 4).count(), 4);
        assert_eq!(drain_backlog(&rx, 64).count(), 6);
    }
}
