//! The message fabric: rank-to-rank mailboxes with exact byte accounting.
//!
//! The decomposed simulation runs its ranks in a bulk-synchronous loop
//! inside one process, but *every* inter-rank data transfer is routed
//! through this fabric as an explicit message — nothing is shared behind
//! the scenes — so the recorded traffic is exactly what an MPI
//! implementation of the same scheme would put on the wire. Payloads are
//! `f64` words; a message of `n` words is accounted as `8·n` bytes
//! (headers/envelopes are transport-specific and excluded, which favours
//! neither strategy since both send few, large messages).
//!
//! Messages from a rank to itself are delivered but *not* counted: local
//! copies are free on a real machine too.

use std::collections::VecDeque;

/// Accumulated traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Number of inter-rank messages.
    pub messages: u64,
    /// Total payload bytes (8 per `f64` word).
    pub bytes: u64,
}

impl CommStats {
    /// Adds another counter into this one.
    fn merge(&mut self, other: CommStats) {
        self.messages += other.messages;
        self.bytes += other.bytes;
    }
}

/// A named traffic class (deposition halo, field gather/scatter, particle
/// migration, histogram reduction); keys of the per-phase breakdown.
pub type Phase = &'static str;

/// The mailbox fabric connecting `n_ranks` ranks.
#[derive(Debug)]
pub struct Fabric {
    n_ranks: usize,
    /// `mailboxes[to * n_ranks + from]` — FIFO per ordered pair.
    mailboxes: Vec<VecDeque<Vec<f64>>>,
    total: CommStats,
    phases: Vec<(Phase, CommStats)>,
}

impl Fabric {
    /// Creates a fabric for `n_ranks` ranks.
    ///
    /// # Panics
    /// Panics for zero ranks.
    pub fn new(n_ranks: usize) -> Self {
        assert!(n_ranks > 0, "need at least one rank");
        Self {
            n_ranks,
            mailboxes: (0..n_ranks * n_ranks).map(|_| VecDeque::new()).collect(),
            total: CommStats::default(),
            phases: Vec::new(),
        }
    }

    /// Number of ranks the fabric connects.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Sends `payload` from rank `from` to rank `to` under the given
    /// traffic class. Self-sends are delivered but not counted.
    ///
    /// # Panics
    /// Panics for out-of-range rank ids.
    pub fn send(&mut self, from: usize, to: usize, phase: Phase, payload: Vec<f64>) {
        assert!(from < self.n_ranks, "bad sender {from}");
        assert!(to < self.n_ranks, "bad receiver {to}");
        if from != to {
            let delta = CommStats {
                messages: 1,
                bytes: 8 * payload.len() as u64,
            };
            self.total.merge(delta);
            match self.phases.iter_mut().find(|(p, _)| *p == phase) {
                Some((_, stats)) => stats.merge(delta),
                None => self.phases.push((phase, delta)),
            }
        }
        self.mailboxes[to * self.n_ranks + from].push_back(payload);
    }

    /// Receives the oldest pending message from `from` at `to`, if any.
    pub fn recv(&mut self, to: usize, from: usize) -> Option<Vec<f64>> {
        assert!(from < self.n_ranks, "bad sender {from}");
        assert!(to < self.n_ranks, "bad receiver {to}");
        self.mailboxes[to * self.n_ranks + from].pop_front()
    }

    /// Receives a pending message for `to` from any rank, round-robin by
    /// sender id.
    pub fn recv_any(&mut self, to: usize) -> Option<(usize, Vec<f64>)> {
        for from in 0..self.n_ranks {
            if let Some(msg) = self.mailboxes[to * self.n_ranks + from].pop_front() {
                return Some((from, msg));
            }
        }
        None
    }

    /// Total messages currently queued (all pairs).
    pub fn pending(&self) -> usize {
        self.mailboxes.iter().map(|m| m.len()).sum()
    }

    /// Aggregate traffic counters since construction.
    pub fn stats(&self) -> CommStats {
        self.total
    }

    /// Traffic of one class.
    #[cfg(test)]
    pub(crate) fn phase_stats(&self, phase: Phase) -> CommStats {
        self.phases
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// All traffic classes seen so far, in first-seen order.
    pub fn phases(&self) -> impl Iterator<Item = (Phase, CommStats)> + '_ {
        self.phases.iter().copied()
    }

    /// Clears the counters (not the queued messages).
    #[cfg(test)]
    fn reset_stats(&mut self) {
        self.total = CommStats::default();
        self.phases.clear();
    }

    /// Replaces the aggregate counters *and* the per-phase breakdown with
    /// a checkpointed snapshot, so a restored run continues both (the
    /// phase list keeps the snapshot's order as its first-seen order).
    pub fn restore_stats(&mut self, total: CommStats, phases: &[(Phase, CommStats)]) {
        self.total = total;
        self.phases.clear();
        self.phases.extend_from_slice(phases);
    }
}

/// Deposition halo exchange (gather/scatter strategy).
pub const PHASE_DEPOSIT_HALO: Phase = "deposit-halo";
/// Charge-density gather to rank 0 (gather/scatter strategy).
pub const PHASE_RHO_GATHER: Phase = "rho-gather";
/// Solved-field scatter from rank 0 (gather/scatter strategy).
pub const PHASE_E_SCATTER: Phase = "e-scatter";
/// Cross-rank particle migration (both strategies).
pub const PHASE_MIGRATION: Phase = "migration";
/// Phase-space-histogram reduction to rank 0 (DL strategy).
pub const PHASE_HIST_REDUCE: Phase = "hist-reduce";
/// Summed-histogram broadcast from rank 0 (DL strategy).
pub const PHASE_HIST_BCAST: Phase = "hist-bcast";

/// Every traffic class the distributed simulation emits — the closed set
/// checkpoint restores intern against (phase keys are `&'static str`).
/// Emission sites use the `PHASE_*` constants above, so a new class
/// added through them is one line away from being restorable; sending
/// under an ad-hoc string still works but will not survive a
/// checkpoint round-trip.
const KNOWN_PHASES: [Phase; 6] = [
    PHASE_DEPOSIT_HALO,
    PHASE_RHO_GATHER,
    PHASE_E_SCATTER,
    PHASE_MIGRATION,
    PHASE_HIST_REDUCE,
    PHASE_HIST_BCAST,
];

/// Maps a phase name read from a checkpoint back to its `&'static`
/// spelling; `None` for names no strategy emits.
pub fn intern_phase(name: &str) -> Option<Phase> {
    KNOWN_PHASES.iter().copied().find(|&p| p == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_fifo_per_pair() {
        let mut f = Fabric::new(2);
        f.send(0, 1, "test", vec![1.0]);
        f.send(0, 1, "test", vec![2.0]);
        assert_eq!(f.recv(1, 0), Some(vec![1.0]));
        assert_eq!(f.recv(1, 0), Some(vec![2.0]));
        assert_eq!(f.recv(1, 0), None);
    }

    #[test]
    fn bytes_counted_for_cross_rank_traffic() {
        let mut f = Fabric::new(3);
        f.send(0, 1, "halo", vec![0.0; 10]);
        f.send(2, 0, "halo", vec![0.0; 6]);
        let s = f.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 8 * 16);
    }

    #[test]
    fn self_sends_are_free_but_delivered() {
        let mut f = Fabric::new(2);
        f.send(1, 1, "local", vec![42.0; 100]);
        assert_eq!(f.stats(), CommStats::default());
        assert_eq!(f.recv(1, 1), Some(vec![42.0; 100]));
    }

    #[test]
    fn per_phase_breakdown() {
        let mut f = Fabric::new(2);
        f.send(0, 1, "halo", vec![0.0; 2]);
        f.send(1, 0, "migrate", vec![0.0; 4]);
        f.send(0, 1, "halo", vec![0.0; 2]);
        assert_eq!(
            f.phase_stats("halo"),
            CommStats {
                messages: 2,
                bytes: 32
            }
        );
        assert_eq!(
            f.phase_stats("migrate"),
            CommStats {
                messages: 1,
                bytes: 32
            }
        );
        assert_eq!(f.phase_stats("nope"), CommStats::default());
        assert_eq!(f.phases().count(), 2);
    }

    #[test]
    fn recv_any_scans_senders() {
        let mut f = Fabric::new(3);
        f.send(2, 0, "m", vec![2.0]);
        f.send(1, 0, "m", vec![1.0]);
        let (from_a, a) = f.recv_any(0).unwrap();
        let (from_b, b) = f.recv_any(0).unwrap();
        // Round-robin order: sender 1 first.
        assert_eq!((from_a, a), (1, vec![1.0]));
        assert_eq!((from_b, b), (2, vec![2.0]));
        assert!(f.recv_any(0).is_none());
    }

    #[test]
    fn reset_clears_counters_not_queues() {
        let mut f = Fabric::new(2);
        f.send(0, 1, "x", vec![1.0]);
        f.reset_stats();
        assert_eq!(f.stats(), CommStats::default());
        assert_eq!(f.pending(), 1);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under any interleaving of sends, (a) per-pair delivery is FIFO
        /// and lossless, (b) counted bytes equal exactly 8× the payload
        /// words of cross-rank messages.
        #[test]
        fn fabric_is_lossless_fifo_with_exact_accounting(
            script in proptest::collection::vec(
                (0usize..4, 0usize..4, 1usize..12), 0..40),
        ) {
            let mut fabric = Fabric::new(4);
            let mut expected_bytes = 0u64;
            let mut expected_msgs = 0u64;
            // Tag each message with a sequence number for FIFO checking.
            for (i, &(from, to, len)) in script.iter().enumerate() {
                let mut payload = vec![i as f64];
                payload.resize(len, 0.0);
                fabric.send(from, to, "t", payload);
                if from != to {
                    expected_bytes += 8 * len as u64;
                    expected_msgs += 1;
                }
            }
            prop_assert_eq!(fabric.stats().bytes, expected_bytes);
            prop_assert_eq!(fabric.stats().messages, expected_msgs);
            prop_assert_eq!(fabric.pending(), script.len());

            // Drain every pair; sequence numbers must arrive ascending.
            for to in 0..4 {
                for from in 0..4 {
                    let mut last = -1.0f64;
                    while let Some(msg) = fabric.recv(to, from) {
                        prop_assert!(msg[0] > last,
                            "pair {from}->{to}: out of order");
                        last = msg[0];
                    }
                }
            }
            prop_assert_eq!(fabric.pending(), 0);
        }
    }
}
