//! One persistent worker **team** for every multi-core path in the
//! workspace.
//!
//! A [`Team`] of size `T` is the dispatching thread plus `T − 1` helper
//! threads. [`Team::run`] hands the team a job of `parts` parts; every
//! member — the dispatcher included — claims part indices from one
//! atomic counter until none are left, so a member the host has
//! descheduled costs the job the one part it holds, never a fixed share.
//! The process-wide team ([`global`]) has `T =` [`available_threads`];
//! through `dlpic_core::pool` the ensemble wave and the serve scheduler
//! run on it, so no layer spawns threads per call and no two layers ever
//! oversubscribe the machine. It is a leaf crate, below every kernel
//! crate, so that the kernels can be handed to it as well: a wave gives
//! each member whole rows of the cohort to take through `dlpic_nn`'s
//! frozen model on its own, a one-row inference gives each member a
//! window of every large layer's output columns, `dlpic_nn`'s trainer
//! hands the team runs of each training GEMM's output rows, of Adam's
//! parameters and of the He init's Box–Muller transforms
//! ([`Team::for_each_item`]), and `dlpic_pic` splits a large push and
//! charge deposit, 1-D or 2-D, and `dlpic_core` a large NGP phase-space
//! binning, into two parts while the team is held
//! ([`Team::held_members`]).
//!
//! # Lifecycle of a helper
//!
//! Helpers are spawned lazily by the first dispatch that wants more than
//! one member — a process that never dispatches to two members never has
//! a second thread. Between dispatches a helper **parks** on a condition
//! variable: a finished job with nothing announced behind it sends it
//! straight back to sleep. Polling happens only where the partner is
//! known to be running, and always under a bound with the parked wait
//! as fallback:
//!
//! * the dispatcher, out of parts, polls for the helpers still inside
//!   their last part (`POLL_ROUNDS` `spin_loop` rounds, microseconds);
//! * a helper, out of parts while a caller has announced more dispatches
//!   ([`Team::hold`] — the waves of one fleet run, the steps of one
//!   session), polls for the next one (`HELD_POLL_ROUNDS`, about a
//!   millisecond, longer than a whole DL step: its push, binning and
//!   inference dispatch back to back, with only serial stretches of
//!   microseconds — the merge, the normalization, the field write —
//!   between them; a traditional step's push and deposit follow each
//!   other), and stops the moment the last hold drops;
//! * a part that waits on an earlier part of its job ([`Handoff::take`])
//!   polls `POLL_ROUNDS` rounds, then parks until the value is given.
//!
//! Parking a thread here means halting a vCPU, and getting it back costs
//! the waker ≈ 35 µs and the sleeper ≈ 100 µs on the dev VM — a tenth of
//! a whole wave — which is why the barriers poll at all. Nothing polls
//! without a bound, so a withheld vCPU costs a wake-up, not a stall.
//!
//! # Who runs what, and why results cannot depend on it
//!
//! Which member runs which part is not deterministic and must not matter:
//! callers hand out parts that write disjoint outputs and whose
//! arithmetic does not depend on the partition (see `dlpic_core::pool`).
//! A part may wait on an **earlier** part of the same job, never on a
//! later one: parts are claimed in index order (and the items of
//! [`Team::for_each_item`] in list order), so an earlier part is always
//! already running on some member — or, inline, already done. The value
//! passes through a [`Handoff`].
//!
//! A dispatch that cannot have the team — it is already running a job
//! (nested or concurrent dispatch), the calling thread is limited to one
//! member ([`with_limit`]), or no helper could be spawned — runs every
//! part inline on the caller, in order: same parts, same bits.
//!
//! # Panics
//!
//! A panic inside a part is caught on the member that ran it; the job
//! stops handing out parts, every member leaves, and the first payload is
//! re-raised on the dispatching thread — exactly where it would have
//! surfaced had the job run inline.

mod team;

pub use team::{available_threads, global, with_limit, Handoff, Hold, Team};
