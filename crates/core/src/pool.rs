//! The workspace's one multi-core path: the worker **team**.
//!
//! Particle kernels, dataset generation and training are single-threaded.
//! Everything that uses a second core goes through the one persistent,
//! parked team of `dlpic_nn::team` (its docs cover the helpers' lifecycle,
//! panics and the inline fallback). This module is the team's front door
//! for the layers above `nn`: [`team`] (with [`Team::for_each`], "do this
//! to every item of a list, one part each", and [`Team::for_each_run`],
//! the same over consecutive runs of the list) for the engine's waves,
//! and [`with_limit`] to cap how many members a caller's dispatches may
//! use.
//!
//! ## Determinism
//!
//! Which member runs which part is a race, so nothing may depend on it.
//! Everything that goes through the team is **per-item work**: an item
//! is touched by exactly one member, which does to it what a serial loop
//! would, and a run is a fixed stretch of the list. The engine's
//! ensemble wave hands out a DL cohort this way, as **row panels**: runs
//! of at least eight consecutive members, each prepared, inferred as one
//! batch and applied by the member that claimed it. A session's own
//! arithmetic never learns who ran it or what ran beside it — and not how
//! the cohort was cut either, because the inference kernels are
//! row-stable: every output element is one sequential multiply-add chain
//! over ascending `k` from `+0.0` whatever batch its row is computed in,
//! so the partition decides who computes a row, never how.

pub use dlpic_nn::team::{available_threads, with_limit, Team};

/// The process-wide team ([`available_threads`] members; helpers are
/// spawned by the first dispatch that uses more than one).
pub fn team() -> &'static Team {
    dlpic_nn::team::global()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
        assert_eq!(team().size(), available_threads());
    }
}
