//! A large push or charge deposit, 1-D or 2-D, as two parts on the
//! worker team, bit for bit the serial kernel.
//!
//! Both kernels are order-bound: the push's two diagnostic sums are
//! in-order `f64` chains over the particles, and a deposit's node value
//! is the in-order chain of the terms that land on it. Neither is
//! re-associated here; each chain stays one chain.
//!
//! * **The push** ([`push`]) cuts the particles in two runs. The first
//!   part pushes the earlier run with its sums chained inline from zero
//!   and hands them over ([`dlpic_team::Handoff`]). The later part pushes
//!   the rest, recording each particle's kinetic term ([`Terms`]) until
//!   the first part's sums arrive; it then replays the record onto them
//!   and chains the remaining particles inline — the additions of the
//!   serial kernel, in its order, on the later part's core.
//! * **The deposit** ([`deposit`]) gives each part the nodes of one
//!   parity of their flat index. Each part runs over every particle and
//!   adds only the terms that land on its nodes, in particle order, into
//!   its own copy of `rho` on its own cache lines; the copies are merged
//!   by node. With an even row length (1-D: node count) a node's parity
//!   is its column's, and a CIC stencil spans one column of each, so a
//!   part adds one term per particle and row. Ownership is per term, so
//!   NGP, TSC and odd row lengths are exact too; production splits only
//!   CIC on an even row length ([`deposit_splits`]), the others keep the
//!   serial kernel.
//!
//! A part waits only on an earlier part, as the team allows, so the
//! result does not depend on which member claims which part, or on the
//! team running both inline. Runs of fewer than [`SPLIT_PARTICLES`]
//! particles, and calls while no caller holds the team (so its helper
//! would have to be woken: [`dlpic_team::Team::held_members`]), run the
//! serial kernel.

// analyze:hot — the parts run the particle kernels' loops; loop bodies
// here must stay allocation-free.

use crate::fused::{PushRun, Sums, Terms};
use crate::lanes::LANES;
use dlpic_team::{Handoff, Team};
use std::cell::RefCell;
use std::sync::{Mutex, PoisonError};

/// Particles from which a push or deposit splits: paper-scale runs
/// (64 000 in 1-D, 65 536 on the scaled 2-D grid) split, small runs such
/// as the benchmark fleets' members (3 200 and 3 840) keep the serial
/// kernel, whose few tens of microseconds a hand-over would eat.
pub(crate) const SPLIT_PARTICLES: usize = 16_384;

/// The first part's share of a split push, in percent: the later part
/// also replays its record, so it takes the smaller run of pushes.
const FIRST_PERCENT: usize = 45;

/// Particles the later part of a push pushes between two looks for the
/// first part's sums.
const BLOCK: usize = 4096;

thread_local! {
    /// The later part's record of kinetic terms, reused from call to
    /// call by the dispatching thread and lent to whichever member runs
    /// that part. Its pages are touched only as far as a record reaches.
    static TERMS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// The two parts' accumulators of a split deposit.
    static ACCUMULATORS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// The team to split a kernel over `particles` on: the global team when
/// the run is large enough and a split would find a polling helper.
pub(crate) fn team(particles: usize) -> Option<&'static Team> {
    let team = dlpic_team::global();
    (particles >= SPLIT_PARTICLES && team.held_members() > 1).then_some(team)
}

/// Bytes of split scratch a run of `particles` on `nodes` grid nodes makes
/// its stepping thread hold at most: the later push part's record of
/// kinetic terms and the deposit's two padded accumulators. Zero below
/// the 16 384 particles from which a push or deposit splits.
pub fn split_scratch_bytes(particles: usize, nodes: usize) -> usize {
    if particles < SPLIT_PARTICLES {
        return 0;
    }
    let per_pair = PAIR / std::mem::size_of::<f64>();
    let accumulators = nodes
        .saturating_add(per_pair)
        .saturating_mul(2)
        .saturating_add(3 * per_pair);
    (particles - cut(particles))
        .saturating_add(accumulators)
        .saturating_mul(std::mem::size_of::<f64>())
}

/// Where a split push of `len` particles cuts: [`FIRST_PERCENT`] of them,
/// down to whole chunks of [`LANES`].
fn cut(len: usize) -> usize {
    let first = len / 100 * FIRST_PERCENT + len % 100 * FIRST_PERCENT / 100;
    first / LANES * LANES
}

/// Whether the deposit of support `support` on rows of `row_nodes` nodes
/// (1-D: the node count) splits: CIC on an even row length, whose parts
/// add one term per particle and row each. Any other stencil leaves each
/// part most of the serial work.
pub(crate) fn deposit_splits(support: usize, row_nodes: usize) -> bool {
    support == 2 && row_nodes.is_multiple_of(2)
}

/// Runs `kernel` over the particles `x`, `v` and returns their sums: on
/// `team` in two parts (module docs), or serially without one.
pub(crate) fn push<const D: usize, K: PushRun<D>>(
    team: Option<&Team>,
    kernel: &K,
    x: [&mut [f64]; D],
    v: [&mut [f64]; D],
) -> Sums<D> {
    let Some(team) = team else {
        let mut sums = Sums::new();
        kernel.run(x, v, &mut sums);
        return sums;
    };
    TERMS.with_borrow_mut(|terms| {
        let job = PushJob::new(kernel);
        team.for_each_item(parts(x, v, terms).into_iter(), |part| job.run(part));
        job.sums()
    })
}

/// One part of a split push.
pub(crate) enum PushPart<'a, const D: usize> {
    /// The earlier run: pushed with its sums chained inline, then handed
    /// to the later part.
    First([&'a mut [f64]; D], [&'a mut [f64]; D]),
    /// The later run, and the record it keeps while the first part's sums
    /// are not there yet.
    Rest([&'a mut [f64]; D], [&'a mut [f64]; D], &'a mut Vec<f64>),
}

/// The two parts of a split push over `x`, `v`, cut after whole chunks of
/// [`LANES`]; `terms` is the later part's record.
pub(crate) fn parts<'a, const D: usize>(
    mut x: [&'a mut [f64]; D],
    mut v: [&'a mut [f64]; D],
    terms: &'a mut Vec<f64>,
) -> [PushPart<'a, D>; 2] {
    let at = cut(x[0].len());
    let x_rest = split_columns(&mut x, at);
    let v_rest = split_columns(&mut v, at);
    [PushPart::First(x, v), PushPart::Rest(x_rest, v_rest, terms)]
}

/// Cuts every column at `at`: keeps the heads in `columns`, returns the
/// tails.
fn split_columns<'a, const D: usize>(
    columns: &mut [&'a mut [f64]; D],
    at: usize,
) -> [&'a mut [f64]; D] {
    columns.each_mut().map(|column| {
        let (head, tail) = std::mem::take(column).split_at_mut(at);
        *column = head;
        tail
    })
}

/// The state the two parts of a split push share: the kernel, the first
/// part's hand-over and the later part's result.
pub(crate) struct PushJob<'k, K, const D: usize> {
    kernel: &'k K,
    handoff: Handoff<Sums<D>>,
    sums: Mutex<Option<Sums<D>>>,
}

impl<'k, K: PushRun<D>, const D: usize> PushJob<'k, K, D> {
    pub(crate) fn new(kernel: &'k K) -> Self {
        Self {
            kernel,
            handoff: Handoff::default(),
            sums: Mutex::new(None),
        }
    }

    /// Runs one part; each of [`parts`] exactly once, in any order or
    /// concurrently, provided the first is not made to wait on the later.
    pub(crate) fn run(&self, part: PushPart<'_, D>) {
        match part {
            PushPart::First(x, v) => self.handoff.give_with(|| {
                let mut sums = Sums::new();
                self.kernel.run(x, v, &mut sums);
                sums
            }),
            PushPart::Rest(x, v, terms) => {
                let sums = self.rest(x, v, terms);
                *self.sums.lock().unwrap_or_else(PoisonError::into_inner) = sums;
            }
        }
    }

    /// The later part: push block by block, recording the terms until the
    /// first part's sums are there, then replay the record onto them and
    /// chain the remaining blocks inline. `None` if the first part
    /// unwound (its panic then reaches the dispatcher).
    fn rest(
        &self,
        mut x: [&mut [f64]; D],
        mut v: [&mut [f64]; D],
        terms: &mut Vec<f64>,
    ) -> Option<Sums<D>> {
        let len = x[0].len();
        terms.clear();
        terms.reserve(len);
        let mut chain = None;
        let mut done = 0;
        while done < len {
            if chain.is_none() && self.handoff.is_given() {
                let mut sums = self.handoff.take()?;
                sums.replay(terms, v.each_ref().map(|v| &v[..done]));
                chain = Some(sums);
            }
            let end = (done + BLOCK).min(len);
            let xs = x.each_mut().map(|x| &mut x[done..end]);
            let vs = v.each_mut().map(|v| &mut v[done..end]);
            match &mut chain {
                Some(sums) => self.kernel.run(xs, vs, sums),
                None => self.kernel.run(xs, vs, &mut Terms(terms)),
            }
            done = end;
        }
        match chain {
            Some(sums) => Some(sums),
            None => {
                let mut sums = self.handoff.take()?;
                sums.replay(terms, v.each_ref().map(|v| &**v));
                Some(sums)
            }
        }
    }

    /// The sums of the whole push, once both parts have run.
    pub(crate) fn sums(self) -> Sums<D> {
        self.sums
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .expect("both parts of the push ran")
    }
}

/// Runs a split deposit into `rho`: `part(owner, accumulator)` must add,
/// in particle order, exactly the terms that land on the nodes of parity
/// `owner` into `accumulator` (a copy of `rho`); the copies are then
/// merged by node. On `team` the two parts run concurrently, each on its
/// own cache line pairs.
pub(crate) fn deposit(team: &Team, rho: &mut [f64], part: impl Fn(usize, &mut [f64]) + Sync) {
    ACCUMULATORS.with_borrow_mut(|buffer| {
        let [even, odd] = accumulators(buffer, rho.len());
        even.copy_from_slice(rho);
        odd.copy_from_slice(rho);
        let owners = [&mut *even, &mut *odd];
        team.for_each_item(owners.into_iter().enumerate(), |(owner, acc)| {
            part(owner, acc)
        });
        for (j, r) in rho.iter_mut().enumerate() {
            *r = if j % 2 == 0 { even[j] } else { odd[j] };
        }
    });
}

/// Bytes the L2 spatial prefetcher moves as one unit: an aligned pair of
/// 64-byte cache lines.
const PAIR: usize = 128;

/// Two accumulators of `nodes` values carved from `buffer`, each starting
/// on a line pair of its own and followed by a free pair, so the members
/// filling them never touch one pair: copies side by side let the
/// prefetcher bounce the pair at their border between the two cores, and
/// lose most of the split.
fn accumulators(buffer: &mut Vec<f64>, nodes: usize) -> [&mut [f64]; 2] {
    let per_pair = PAIR / std::mem::size_of::<f64>();
    let stride = nodes.next_multiple_of(per_pair) + per_pair;
    buffer.resize(2 * stride + per_pair, 0.0);
    let start = buffer.as_ptr().align_offset(PAIR).min(per_pair);
    let (even, odd) = buffer[start..start + 2 * stride].split_at_mut(stride);
    [&mut even[..nodes], &mut odd[..nodes]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::{StepMoments, Tally};
    use crate::grid::{Grid, Grid1D, Grid2D};
    use crate::lanes::tests::{load, DT};
    use crate::lanes::{avx512, Body};
    use crate::particles::Particles;
    use crate::shape::Shape;
    use crate::{deposit, deposit2d, fused, fused2d};

    fn bodies() -> Vec<Body> {
        if avx512() {
            vec![Body::Portable, Body::Avx512]
        } else {
            eprintln!("no avx512f + avx512dq on this machine: portable body only");
            vec![Body::Portable]
        }
    }

    /// `len` particles of `lanes::tests::load` (positions at the box
    /// edges and on nodes), every 997th of them also crossing 3.5 periods
    /// a step, so both parts of a long push meet chunks the lanes decline.
    fn particles<const D: usize>(grid: &Grid<D>, len: usize) -> Particles<D> {
        let mut p = load(grid, len);
        for i in (12..len).step_by(997) {
            p.vel[0][i] = 3.5 * grid.lengths()[0] / DT;
        }
        p
    }

    type PushFn<const D: usize> =
        fn(Body, Option<&Team>, &mut Particles<D>, &Grid<D>, Shape, &[f64], f64) -> StepMoments;
    type DepositFn<const D: usize> =
        fn(Body, Option<&Team>, &Particles<D>, &Grid<D>, Shape, &mut [f64]);

    /// Three pushes then a deposit on `body`, split over `team` if given:
    /// the bits of every moment, coordinate and density.
    fn step_bits<const D: usize>(
        (push, deposit): (PushFn<D>, DepositFn<D>),
        body: Body,
        team: Option<&Team>,
        grid: &Grid<D>,
        shape: Shape,
        len: usize,
    ) -> Vec<u64> {
        let e: Vec<f64> = (0..D * grid.nodes())
            .map(|j| 0.1 * (j as f64 * 0.37).sin())
            .collect();
        let mut p = particles(grid, len);
        let mut out = Vec::new();
        for _ in 0..3 {
            let m = push(body, team, &mut p, grid, shape, &e, DT);
            let y = m.momentum_y.unwrap_or(0.0);
            out.extend([m.centred_kinetic, m.momentum, y].map(f64::to_bits));
        }
        let mut rho: Vec<f64> = (0..grid.nodes()).map(|j| j as f64 * 0.25).collect();
        deposit(body, team, &p, grid, shape, &mut rho);
        let columns = p.pos.iter().chain(&p.vel).flatten();
        out.extend(columns.chain(&rho).map(|v| v.to_bits()));
        out
    }

    /// The split push and deposit against the serial kernels on every
    /// shape, lengths that are not whole chunks below and above
    /// [`SPLIT_PARTICLES`] (a split is forced here whatever the length),
    /// both bodies and teams of one (both parts inline, in order), two and
    /// three members.
    fn split_matches_serial<const D: usize>(kernels: (PushFn<D>, DepositFn<D>), grids: &[Grid<D>]) {
        let teams = [1, 2, 3].map(Team::new);
        for grid in grids {
            for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
                for len in [1, 9, 4_101, SPLIT_PARTICLES + 3] {
                    for body in bodies() {
                        let serial = step_bits(kernels, body, None, grid, shape, len);
                        for team in &teams {
                            let split = step_bits(kernels, body, Some(team), grid, shape, len);
                            assert!(
                                split == serial,
                                "{D}-D {shape:?}, {len} particles, {body:?}, team of {}, {grid:?}",
                                team.size()
                            );
                        }
                    }
                }
            }
        }
    }

    /// An even, an odd and the paper's node count.
    #[test]
    fn split_1d_kernels_match_the_serial_ones_at_any_team_size() {
        let grids = [Grid1D::new(16, 2.0), Grid1D::new(15, 2.0), Grid1D::paper()];
        split_matches_serial((fused::push, deposit::deposit), &grids);
    }

    /// Even and odd row lengths: a node's parity is its column's only in
    /// the first.
    #[test]
    fn split_2d_kernels_match_the_serial_ones_at_any_team_size() {
        let grids = [
            Grid2D::new(16, 8, 2.0, 1.0),
            Grid2D::new(15, 6, 2.0532, 1.0),
        ];
        split_matches_serial((fused2d::push, deposit2d::deposit), &grids);
    }

    /// A stand-in push for the driver alone: rounding-sensitive terms, so
    /// a chain restarted or re-associated anywhere changes the sums.
    struct Drift;

    impl PushRun<1> for Drift {
        fn run<T: Tally<1>>(&self, [x]: [&mut [f64]; 1], [v]: [&mut [f64]; 1], tally: &mut T) {
            for (x, v) in x.iter_mut().zip(v.iter_mut()) {
                let v_new = *v + 0.1 * x.sin();
                tally.add(*v * v_new, [v_new]);
                *v = v_new;
                *x += v_new;
            }
        }
    }

    fn columns(len: usize) -> (Vec<f64>, Vec<f64>) {
        let x = (0..len).map(|i| (i as f64 * 0.618_034).fract() * 7.0);
        let v = (0..len).map(|i| ((i * 7919) % 1013) as f64 / 1013.0 - 0.49);
        (x.collect(), v.collect())
    }

    /// The push sums and columns of `columns(len)` with the two parts run
    /// by `drive`.
    fn driven(len: usize, drive: impl FnOnce(&PushJob<Drift, 1>, [PushPart<1>; 2])) -> Vec<u64> {
        let (mut x, mut v) = columns(len);
        let mut terms = Vec::new();
        let job = PushJob::new(&Drift);
        drive(&job, parts([&mut x], [&mut v], &mut terms));
        let m = job.sums().moments(1.0);
        let sums = [m.centred_kinetic, m.momentum].map(f64::to_bits);
        sums.into_iter()
            .chain(x.iter().chain(&v).map(|v| v.to_bits()))
            .collect()
    }

    /// Whichever member claims which part and whenever it gets there, the
    /// later part continues the first part's chain: inline in order, the
    /// later part first (it records every term and parks until the sums
    /// come), and both at once.
    #[test]
    fn the_push_chain_does_not_depend_on_who_runs_which_part_when() {
        for len in [0, 5, 8, 3 * BLOCK + 13] {
            let (mut x, mut v) = columns(len);
            let mut want = Sums::new();
            Drift.run([&mut x], [&mut v], &mut want);
            let m = want.moments(1.0);
            let want: Vec<u64> = [m.centred_kinetic, m.momentum]
                .map(f64::to_bits)
                .into_iter()
                .chain(x.iter().chain(&v).map(|v| v.to_bits()))
                .collect();

            let inline = driven(len, |job, parts| parts.into_iter().for_each(|p| job.run(p)));
            assert_eq!(inline, want, "inline, {len} particles");

            let later_first = driven(len, |job, [first, rest]| {
                std::thread::scope(|scope| {
                    scope.spawn(|| job.run(rest));
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    job.run(first);
                });
            });
            assert_eq!(later_first, want, "later part first, {len} particles");

            let together = driven(len, |job, [first, rest]| {
                let start = std::sync::Barrier::new(2);
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        start.wait();
                        job.run(rest);
                    });
                    start.wait();
                    job.run(first);
                });
            });
            assert_eq!(together, want, "both at once, {len} particles");
        }
    }

    #[test]
    fn accumulators_sit_on_line_pairs_of_their_own() {
        let mut buffer = Vec::new();
        for nodes in [1, 8, 15, 16, 64] {
            let [even, odd] = accumulators(&mut buffer, nodes);
            assert_eq!((even.len(), odd.len()), (nodes, nodes));
            let (a, b) = (even.as_ptr() as usize, odd.as_ptr() as usize);
            assert_eq!((a % PAIR, b % PAIR), (0, 0), "{nodes} nodes");
            let last_pair_of_even = (a + nodes * 8 - 1) / PAIR;
            assert!(
                b / PAIR > last_pair_of_even + 1,
                "{nodes} nodes: no free pair"
            );
        }
    }
}
