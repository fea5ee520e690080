//! The team itself; see the crate docs.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, TryLockError};
use std::thread::JoinHandle;

/// `spin_loop` rounds a member polls at an inner barrier before it
/// parks: at ≈ 11 ns a round on the dev machine, about 45 µs — the
/// imbalance two members of one wave typically finish with.
const POLL_ROUNDS: usize = 4096;

/// `spin_loop` rounds a helper polls for the next job while a caller
/// holds the team ([`Team::hold`]): 0.7–1.6 ms at the 11–24 ns a round
/// the dev machines take, longer than one paper-scale DL step (≈ 0.65 ms
/// on two members), so a step whose split push, binning and inference
/// are apart by serial stretches of microseconds (the binning's merge,
/// the normalization, the field write and diagnostics) never parks the
/// helper, nor does a caller's own work between two steps. With
/// [`POLL_ROUNDS`] here the helper parked once a step while the
/// phase-space binning was still serial.
const HELD_POLL_ROUNDS: usize = 1 << 16;

/// Number of threads the machine can usefully run —
/// `std::thread::available_parallelism`, with a serial fallback when the
/// runtime cannot tell. The size of the [`global`] team.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process-wide team, [`available_threads`] members strong. Its
/// helpers are spawned by the first dispatch that uses more than one
/// member and live, parked, for the rest of the process.
pub fn global() -> &'static Team {
    static TEAM: OnceLock<Team> = OnceLock::new();
    TEAM.get_or_init(|| Team::new(available_threads()))
}

thread_local! {
    /// Upper bound on the members a dispatch from this thread may use.
    static LIMIT: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Whether this thread is running a part of a job shared with
    /// helpers (whose nested dispatches run inline).
    static IN_PART: Cell<bool> = const { Cell::new(false) };
}

/// Marks the thread as inside a part of a shared job
/// ([`Team::held_members`]) until dropped, then restores the old mark.
struct InPart(bool);

impl InPart {
    fn enter() -> Self {
        Self(IN_PART.with(|p| p.replace(true)))
    }
}

impl Drop for InPart {
    fn drop(&mut self) {
        IN_PART.with(|p| p.set(self.0));
    }
}

/// Runs `f` with dispatches from this thread limited to `limit` team
/// members (at least one: the caller). Limits nest by taking the
/// minimum, and the previous limit is restored when `f` returns or
/// unwinds. `with_limit(1, …)` is "run everything on this thread".
pub fn with_limit<R>(limit: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LIMIT.with(|l| l.set(self.0));
        }
    }
    let _restore = Restore(LIMIT.with(|l| l.replace(l.get().min(limit.max(1)))));
    f()
}

/// Locks tolerating poisoning: nothing in this module panics while it
/// holds a lock, and the guarded state is valid at every step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// One dispatched job: the part function, the claim counter and the
/// first panic. Lives on the dispatcher's stack for the length of
/// [`Team::run_shared`].
struct Job<'a> {
    work: &'a (dyn Fn(usize) + Sync),
    parts: usize,
    next: AtomicUsize,
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Claims and runs parts until none are left or one has panicked.
    fn drain(&self) {
        let _in_part = InPart::enter();
        loop {
            let part = self.next.fetch_add(1, Ordering::Relaxed);
            if part >= self.parts || self.poisoned.load(Ordering::Relaxed) {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.work)(part))) {
                self.poisoned.store(true, Ordering::Relaxed);
                lock(&self.panic).get_or_insert(payload);
                return;
            }
        }
    }
}

/// A published [`Job`], lifetime erased so helper threads can hold it.
#[derive(Clone, Copy)]
struct JobRef(*const Job<'static>);

// SAFETY: a `Job` is shared state built for concurrent use — its part
// function is `Sync`, the rest is atomics and a mutex — and the pointer
// is only dereferenced while the dispatcher keeps the job alive (see
// `Team::run_shared`).
unsafe impl Send for JobRef {}

/// What the helpers and the dispatcher agree on, under one lock.
struct Slot {
    /// The job on offer, if any.
    job: Option<JobRef>,
    /// Bumped with every publication, so a helper joins a job once.
    epoch: u64,
    /// Helpers the current job still wants.
    seats: usize,
    /// Helpers waiting on `Shared::work`.
    parked: usize,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Helpers park here between dispatches.
    work: Condvar,
    /// The dispatcher parks here until the last helper has left its job.
    idle: Condvar,
    /// Mirror of `Slot::epoch` a polling helper can read without the lock.
    epoch: AtomicU64,
    /// Helpers inside the current job. Raised under the slot lock (a
    /// helper joins only a published job), lowered without it.
    busy: AtomicUsize,
    /// Live [`Hold`]s: callers that have announced further dispatches.
    holds: AtomicUsize,
}

/// A dispatcher plus `size − 1` lazily spawned, parked helper threads.
/// See the module docs; most callers want [`global`].
pub struct Team {
    size: usize,
    shared: Arc<Shared>,
    /// The helper handles. Held for the whole of a dispatch, which makes
    /// it the "one job at a time" lock as well: a second dispatcher fails
    /// `try_lock` and runs inline.
    helpers: Mutex<Vec<JoinHandle<()>>>,
}

impl Team {
    /// A team of `size` members (at least one, the dispatcher). No thread
    /// is spawned until a dispatch needs it.
    pub fn new(size: usize) -> Self {
        Self {
            size: size.max(1),
            shared: Arc::new(Shared {
                slot: Mutex::new(Slot {
                    job: None,
                    epoch: 0,
                    seats: 0,
                    parked: 0,
                    shutdown: false,
                }),
                work: Condvar::new(),
                idle: Condvar::new(),
                epoch: AtomicU64::new(0),
                busy: AtomicUsize::new(0),
                holds: AtomicUsize::new(0),
            }),
            helpers: Mutex::new(Vec::new()),
        }
    }

    /// Members including the dispatcher.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Members a dispatch from the calling thread would use at most: the
    /// team size under the thread's [`with_limit`].
    pub fn members(&self) -> usize {
        self.size.min(LIMIT.with(Cell::get))
    }

    /// Members a short dispatch from the calling thread gets without
    /// waking a parked helper: [`Self::members`] while a [`Hold`] is live
    /// (its helpers poll between dispatches) and the thread is not inside
    /// a part of a job shared with helpers (whose nested dispatch runs
    /// inline), 1 otherwise.
    /// A kernel of a few hundred microseconds splits only when this is
    /// above 1: a parked helper costs more to wake than it would save.
    pub fn held_members(&self) -> usize {
        let held = self.shared.holds.load(Ordering::Relaxed) > 0;
        if held && !IN_PART.with(Cell::get) {
            self.members()
        } else {
            1
        }
    }

    /// Announces that the caller is about to dispatch several jobs back to
    /// back (the waves of one fleet run, the steps of one DL session):
    /// until
    /// the returned guard drops, a helper that runs out of parts polls
    /// briefly for the next job instead of parking at once. Purely a
    /// latency hint — results never depend on it — and free when no helper
    /// exists. Holds nest.
    pub fn hold(&self) -> Hold<'_> {
        // Relaxed: a hint read by polling helpers, it publishes nothing.
        self.shared.holds.fetch_add(1, Ordering::Relaxed);
        Hold { team: self }
    }

    /// Runs `work(part)` once for every `part < parts` and returns when
    /// all have finished. Parts must be independent: they run
    /// concurrently on up to [`Self::members`] threads, in no particular
    /// order — or all inline on the caller when the team is not to be
    /// had (module docs). A panic in any part is re-raised here.
    pub fn run(&self, parts: usize, work: impl Fn(usize) + Sync) {
        let members = self.members().min(parts);
        if members > 1 {
            let helpers = match self.helpers.try_lock() {
                Ok(guard) => Some(guard),
                Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
                Err(TryLockError::WouldBlock) => None,
            };
            if let Some(mut helpers) = helpers {
                self.spawn_helpers(&mut helpers, members - 1);
                if !helpers.is_empty() {
                    let panic = self.run_shared(parts, helpers.len().min(members - 1), &work);
                    drop(helpers);
                    if let Some(payload) = panic {
                        resume_unwind(payload);
                    }
                    return;
                }
            }
        }
        for part in 0..parts {
            work(part);
        }
    }

    /// [`Self::run`] over a work list: every member takes the next item
    /// under a lock and runs `work` on it until none are left, so each
    /// item goes to exactly one member, in no particular order. Items
    /// that write disjoint outputs — the runs of a `chunks_mut`, say —
    /// share an output out without any unsafe code at the call site.
    pub fn for_each_item<I>(&self, items: I, work: impl Fn(I::Item) + Sync)
    where
        I: ExactSizeIterator + Send,
        I::Item: Send,
    {
        let parts = items.len();
        let queue = Mutex::new(items);
        self.run(parts, |_| loop {
            let next = lock(&queue).next();
            match next {
                Some(item) => work(item),
                None => return,
            }
        });
    }

    /// The run length that cuts `len` items into one run of whole
    /// `unit`s per member ([`Self::members`]), as evenly as whole units
    /// allow: the chunk size for [`Self::for_each_item`] over a list
    /// whose runs re-read a shared operand, so that more runs than
    /// members would cost a read each. At least one unit.
    pub fn share(&self, len: usize, unit: usize) -> usize {
        len.div_ceil(unit).div_ceil(self.members()).max(1) * unit
    }

    /// Tops the helper list up to `wanted` threads; a failed spawn leaves
    /// the team smaller, never broken.
    fn spawn_helpers(&self, helpers: &mut Vec<JoinHandle<()>>, wanted: usize) {
        while helpers.len() < wanted {
            let shared = Arc::clone(&self.shared);
            match std::thread::Builder::new()
                .name(format!("dlpic-team-{}", helpers.len() + 1))
                .spawn(move || helper_loop(&shared))
            {
                Ok(handle) => helpers.push(handle),
                Err(_) => return,
            }
        }
    }

    /// Publishes the job to `seats` helpers, drains it alongside them and
    /// retires it; returns the first panic payload, if any. The caller
    /// holds the `helpers` lock.
    fn run_shared(
        &self,
        parts: usize,
        seats: usize,
        work: &(dyn Fn(usize) + Sync),
    ) -> Option<Box<dyn Any + Send>> {
        let shared = &*self.shared;
        let job = Job {
            work,
            parts,
            next: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
        };
        // Only the lifetime is erased, so helper threads can hold the
        // pointer. A helper reaches the job through the slot alone, joins
        // it under the slot lock and counts itself in `busy` until its
        // last access; below, the slot is cleared under that lock and
        // this frame does not end before `busy` is back to zero — and
        // nothing in between can unwind (parts run under `catch_unwind`).
        let published = JobRef((&job as *const Job<'_>).cast::<Job<'static>>());
        let parked = {
            let mut slot = lock(&shared.slot);
            slot.job = Some(published);
            slot.seats = seats;
            slot.epoch += 1;
            // Release: a helper that polls the new epoch then takes the
            // lock, which orders the slot's contents anyway; the mirror
            // only has to be seen eventually.
            shared.epoch.store(slot.epoch, Ordering::Release);
            slot.parked
        };
        for _ in 0..seats.min(parked) {
            shared.work.notify_one();
        }
        job.drain();
        // Retire: no new joiners, then wait for those inside.
        {
            let mut slot = lock(&shared.slot);
            slot.job = None;
            slot.seats = 0;
        }
        // Whoever is still inside is running its last part, so poll
        // briefly before paying for a parked wait. Acquire pairs with the
        // helpers' Release decrement: their parts' writes are visible
        // once `busy` reads 0.
        for _ in 0..POLL_ROUNDS {
            if shared.busy.load(Ordering::Acquire) == 0 {
                break;
            }
            std::hint::spin_loop();
        }
        if shared.busy.load(Ordering::Acquire) != 0 {
            let mut slot = lock(&shared.slot);
            while shared.busy.load(Ordering::Acquire) != 0 {
                slot = shared.idle.wait(slot).unwrap_or_else(|p| p.into_inner());
            }
        }
        let payload = lock(&job.panic).take();
        payload
    }
}

/// The guard of [`Team::hold`].
pub struct Hold<'a> {
    team: &'a Team,
}

impl Drop for Hold<'_> {
    fn drop(&mut self) {
        self.team.shared.holds.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        lock(&self.shared.slot).shutdown = true;
        self.shared.work.notify_all();
        let helpers = self.helpers.get_mut().unwrap_or_else(|p| p.into_inner());
        for handle in helpers.drain(..) {
            // A helper only runs caught parts; it has no panic to report.
            let _ = handle.join();
        }
    }
}

/// A value one part of a job hands to a **later** part of the same job
/// (module docs): the earlier part gives it with [`Handoff::give_with`],
/// the later one waits for it with [`Handoff::take`]. The wait is
/// bounded like the team's own barriers — `POLL_ROUNDS` rounds of
/// polling, then a parked wait — and cannot deadlock, because the
/// earlier part was claimed first and so is already running, or done.
pub struct Handoff<T> {
    /// Set once the slot is filled: the lock-free fast path of
    /// [`Self::is_given`] and the poll in [`Self::take`].
    given: AtomicBool,
    /// `None` until given; then `Some(None)` if the giving part unwound
    /// (or the value was taken), else `Some(Some(value))`.
    slot: Mutex<Option<Option<T>>>,
    /// Where [`Self::take`] parks.
    filled: Condvar,
}

impl<T> Default for Handoff<T> {
    fn default() -> Self {
        Self {
            given: AtomicBool::new(false),
            slot: Mutex::new(None),
            filled: Condvar::new(),
        }
    }
}

impl<T> Handoff<T> {
    /// Runs `make` and hands its value over. If `make` unwinds, the
    /// handoff is abandoned instead: [`Self::take`] returns `None`, and
    /// the panic reaches the dispatcher as every part's does.
    pub fn give_with(&self, make: impl FnOnce() -> T) {
        struct Abandon<'a, T>(&'a Handoff<T>);
        impl<T> Drop for Abandon<'_, T> {
            fn drop(&mut self) {
                self.0.fill(None);
            }
        }
        let abandon = Abandon(self);
        let value = make();
        std::mem::forget(abandon);
        self.fill(Some(value));
    }

    /// Fills the slot once and wakes a parked taker.
    fn fill(&self, value: Option<T>) {
        let mut slot = lock(&self.slot);
        if slot.is_none() {
            *slot = Some(value);
            // Release: pairs with the Acquire loads of `is_given` and
            // `take`'s poll; the slot itself is read under the lock.
            self.given.store(true, Ordering::Release);
            self.filled.notify_all();
        }
    }

    /// Whether the value has been given (or abandoned): a [`Self::take`]
    /// now returns at once.
    pub fn is_given(&self) -> bool {
        self.given.load(Ordering::Acquire)
    }

    /// Waits for the value and takes it; `None` if the giving part unwound
    /// or the value was already taken.
    pub fn take(&self) -> Option<T> {
        for _ in 0..POLL_ROUNDS {
            if self.is_given() {
                break;
            }
            std::hint::spin_loop();
        }
        let mut slot = lock(&self.slot);
        loop {
            if let Some(value) = slot.as_mut() {
                return value.take();
            }
            slot = self.filled.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// A helper's life: park until a job has a seat, drain it, poll for the
/// next if one was announced, park again.
fn helper_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = lock(&shared.slot);
            loop {
                if slot.shutdown {
                    return;
                }
                match slot.job {
                    Some(job) if slot.seats > 0 && slot.epoch != seen => {
                        slot.seats -= 1;
                        seen = slot.epoch;
                        shared.busy.fetch_add(1, Ordering::Relaxed);
                        break job;
                    }
                    _ => {
                        // Nothing to join; remember what was on offer so
                        // the poll below waits for something newer.
                        seen = slot.epoch;
                        slot.parked += 1;
                        slot = shared.work.wait(slot).unwrap_or_else(|p| p.into_inner());
                        slot.parked -= 1;
                    }
                }
            }
        };
        // SAFETY: joined under the slot lock while the job was published
        // and counted in `busy`, so the dispatcher keeps it alive until
        // the decrement below (see `Team::run_shared`).
        unsafe { (*job.0).drain() };
        // Release: publishes this member's part outputs to the
        // dispatcher's Acquire load. The job is not touched after this.
        if shared.busy.fetch_sub(1, Ordering::Release) == 1 {
            // Taking the lock orders this notify after the dispatcher's
            // check-then-wait, so the wake-up cannot be lost.
            let _slot = lock(&shared.slot);
            shared.idle.notify_one();
        }
        // More work announced: the dispatcher is on its way here, poll
        // for it; otherwise (or past the bound) park at the top.
        for _ in 0..HELD_POLL_ROUNDS {
            if shared.holds.load(Ordering::Relaxed) == 0
                || shared.epoch.load(Ordering::Acquire) != seen
            {
                break;
            }
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn every_part_runs_exactly_once_at_any_team_size() {
        for size in [1usize, 2, 3, 5] {
            let team = Team::new(size);
            for parts in [0usize, 1, 2, 7, 64] {
                let hits: Vec<AtomicUsize> = (0..parts).map(|_| AtomicUsize::new(0)).collect();
                team.run(parts, |p| {
                    hits[p].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "size {size}, parts {parts}"
                );
            }
        }
    }

    #[test]
    fn for_each_item_hands_every_item_to_one_member() {
        for size in [1usize, 2, 3] {
            let team = Team::new(size);
            for len in [0usize, 1, 2, 37] {
                let mut items = vec![0u32; len];
                team.for_each_item(items.chunks_mut(5).enumerate(), |(p, run)| {
                    run.iter_mut().for_each(|v| *v += 1 + p as u32);
                });
                let want: Vec<u32> = (0..len).map(|i| 1 + (i / 5) as u32).collect();
                assert_eq!(items, want, "size {size}, len {len}");
            }
        }
    }

    #[test]
    fn share_cuts_one_run_of_whole_units_per_member() {
        let team = Team::new(2);
        assert_eq!(team.share(64, 8), 32);
        assert_eq!(team.share(19, 8), 16);
        assert_eq!(team.share(5, 8), 8);
        assert_eq!(team.share(0, 8), 8);
        with_limit(1, || assert_eq!(team.share(64, 8), 64));
        assert_eq!(Team::new(3).share(64, 8), 24);
    }

    #[test]
    fn a_one_member_team_never_spawns_a_thread() {
        let team = Team::new(1);
        let caller = std::thread::current().id();
        team.run(8, |_| assert_eq!(std::thread::current().id(), caller));
        assert!(lock(&team.helpers).is_empty());
        // Neither does a bigger team under a limit of one.
        let team = Team::new(3);
        with_limit(1, || {
            team.run(8, |_| assert_eq!(std::thread::current().id(), caller));
        });
        assert!(lock(&team.helpers).is_empty());
    }

    /// Two parts that can only finish together prove two threads ran
    /// them; the barrier forces the interleaving instead of hoping for it.
    #[test]
    fn parts_really_run_on_different_threads() {
        let team = Team::new(2);
        let barrier = Barrier::new(2);
        let ids = Mutex::new(Vec::new());
        team.run(2, |_| {
            barrier.wait();
            lock(&ids).push(std::thread::current().id());
        });
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn limits_nest_by_minimum_and_are_restored() {
        let team = Team::new(4);
        assert_eq!(team.members(), 4);
        with_limit(3, || {
            assert_eq!(team.members(), 3);
            with_limit(8, || assert_eq!(team.members(), 3));
            with_limit(0, || assert_eq!(team.members(), 1));
            assert_eq!(team.members(), 3);
        });
        let unwound = catch_unwind(|| with_limit(2, || panic!("boom")));
        assert!(unwound.is_err());
        assert_eq!(team.members(), 4);
    }

    #[test]
    fn a_nested_dispatch_runs_inline_with_the_same_parts() {
        let team = Team::new(2);
        let total = AtomicUsize::new(0);
        team.run(4, |_| {
            team.run(3, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 12);
    }

    /// The helper is made to take the panicking part (the dispatcher's
    /// part waits until someone else has claimed the other one), and the
    /// payload still surfaces on the dispatching thread; the team works
    /// afterwards.
    #[test]
    fn a_panic_on_a_helper_is_reraised_on_the_dispatcher() {
        let team = Team::new(2);
        let dispatcher = std::thread::current().id();
        let barrier = Barrier::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            team.run(2, |_| {
                barrier.wait();
                if std::thread::current().id() != dispatcher {
                    panic!("helper part failed");
                }
            });
        }));
        let payload = caught.expect_err("the panic must reach the dispatcher");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("helper part failed")
        );
        let count = AtomicUsize::new(0);
        team.run(16, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn concurrent_dispatchers_share_one_team_without_losing_parts() {
        let team = Team::new(2);
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        team.run(5, |_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 3 * 200 * 5);
    }

    #[test]
    fn held_members_counts_a_hold_outside_parts_only() {
        let team = Team::new(2);
        assert_eq!(team.held_members(), 1, "no hold");
        let hold = team.hold();
        assert_eq!(team.held_members(), 2);
        with_limit(1, || assert_eq!(team.held_members(), 1));
        let inside = Mutex::new(Vec::new());
        team.run(2, |_| lock(&inside).push(team.held_members()));
        assert_eq!(inside.into_inner().unwrap(), [1, 1], "nested dispatch");
        drop(hold);
        assert_eq!(team.held_members(), 1);
    }

    /// A later part waits for an earlier one whichever members claim
    /// them: inline the value is there already, on the team the taker
    /// polls or parks until it is given.
    #[test]
    fn a_handoff_reaches_the_later_part_in_every_claim_order() {
        for size in [1usize, 2, 3] {
            let team = Team::new(size);
            for _ in 0..50 {
                let handoff = Handoff::default();
                let got = Mutex::new(None);
                team.run(2, |part| match part {
                    0 => handoff.give_with(|| 42u64),
                    _ => *lock(&got) = handoff.take(),
                });
                assert_eq!(got.into_inner().unwrap(), Some(42), "size {size}");
            }
        }
        // The taker first, and long enough to park.
        let handoff = Handoff::default();
        std::thread::scope(|scope| {
            let taker = scope.spawn(|| handoff.take());
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!handoff.is_given());
            handoff.give_with(|| 7u8);
            assert_eq!(taker.join().unwrap(), Some(7));
        });
        assert!(handoff.is_given());
        assert_eq!(handoff.take(), None, "taken once");
    }

    #[test]
    fn a_giving_part_that_panics_abandons_the_handoff() {
        let team = Team::new(2);
        let handoff = Handoff::<u32>::default();
        let got = Mutex::new(Some(0));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            team.run(2, |part| match part {
                0 => handoff.give_with(|| panic!("earlier part failed")),
                _ => *lock(&got) = handoff.take(),
            });
        }));
        assert!(caught.is_err());
        // The later part saw the abandonment, or was never run.
        assert!(matches!(*lock(&got), None | Some(0)));
        assert!(handoff.is_given());
        assert_eq!(handoff.take(), None);
    }
}
