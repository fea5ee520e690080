//! The workspace's one multi-core path: the worker **team**.
//!
//! Dataset generation and the phase-space binning are single-threaded.
//! Everything that uses a second core — the ensemble wave, the serve
//! scheduler, a solo DL solve's one-row inference (each member a window
//! of a large layer's output columns), a large particle push and charge
//! deposit while a caller holds the team (two parts: `dlpic_pic`'s
//! `split`) and `nn`'s training step — goes through the one persistent,
//! parked team of `dlpic_team` (its docs cover the helpers' lifecycle,
//! panics and the inline fallback). This module is the team's front door
//! for the layers above `nn`: [`team`] (with [`Team::for_each_item`], "do
//! this to every item of a list, each item to one member" — the engine's
//! wave hands it one consecutive run of the session list per panel) for
//! the engine's waves, and [`with_limit`] to cap how many members a
//! caller's dispatches may use.
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
//! so the partition decides who computes a row, never how. The column
//! windows of a one-row pass hold to the same rule: the live mask is per
//! row tile, so a window keeps every element's chain. So do the two parts
//! of a split particle push and deposit: the push's diagnostic sums stay
//! one chain in particle order, which the later part continues from the
//! earlier part's hand-over, and each deposit part owns the nodes of one
//! parity, adding their terms in particle order.

pub use dlpic_team::{available_threads, with_limit, Team};

/// The process-wide team ([`available_threads`] members; helpers are
/// spawned by the first dispatch that uses more than one).
pub fn team() -> &'static Team {
    dlpic_team::global()
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
