//! Particle migration: after the position push, particles whose new
//! position lies outside their rank's slab move to the owning rank.
//!
//! With the paper's parameters a particle can cross several cells per step
//! (`v·Δt ≈ 3·dx` at `v = 0.5`), so destinations are not restricted to
//! neighbours: leavers are routed directly to their owner, packed as
//! `(x, v)` pairs — 16 bytes per migrated particle.

use crate::comm::Fabric;
use crate::topology::Topology;
use dlpic_pic::grid::Grid1D;
use dlpic_pic::particles::Particles;

/// Extracts every particle that no longer belongs to `rank` and sends it
/// to its new owner (one message per destination rank that receives at
/// least one particle). Returns the number of particles that left.
///
/// Uses `swap_remove`, so the surviving particles' order changes; PIC
/// results are permutation-invariant up to floating-point summation order.
pub fn send_leavers(
    rank: usize,
    particles: &mut Particles,
    grid: &Grid1D,
    topo: &Topology,
    fabric: &mut Fabric,
) -> usize {
    let n_ranks = topo.n_ranks();
    if n_ranks == 1 {
        return 0;
    }
    // Pack per destination: [x0, v0, x1, v1, ...].
    let mut outbound: Vec<Vec<f64>> = vec![Vec::new(); n_ranks];
    let mut i = 0;
    let mut moved = 0;
    let ([x], [v]) = (&mut particles.pos, &mut particles.vel);
    while i < x.len() {
        let dest = topo.rank_of_position(x[i], grid);
        if dest == rank {
            i += 1;
        } else {
            outbound[dest].push(x[i]);
            outbound[dest].push(v[i]);
            x.swap_remove(i);
            v.swap_remove(i);
            moved += 1;
        }
    }
    for (dest, payload) in outbound.into_iter().enumerate() {
        if !payload.is_empty() {
            fabric.send(rank, dest, crate::comm::PHASE_MIGRATION, payload);
        }
    }
    moved
}

/// Receives every pending migration message addressed to `rank` and
/// appends the arriving particles. Returns the number received.
///
/// Call after *all* ranks have run [`send_leavers`] for the step.
pub fn recv_arrivals(rank: usize, particles: &mut Particles, fabric: &mut Fabric) -> usize {
    let mut received = 0;
    let ([x], [v]) = (&mut particles.pos, &mut particles.vel);
    while let Some((_from, payload)) = fabric.recv_any(rank) {
        assert!(
            payload.len() % 2 == 0,
            "migration payload must be (x, v) pairs"
        );
        for pair in payload.chunks_exact(2) {
            x.push(pair[0]);
            v.push(pair[1]);
            received += 1;
        }
    }
    received
}

#[cfg(test)]
mod tests {
    use super::*;

    fn local(xs: Vec<f64>, vs: Vec<f64>) -> Particles {
        Particles::new([xs], [vs], -0.1, 0.1)
    }

    #[test]
    fn stayers_stay_and_leavers_arrive() {
        let grid = Grid1D::new(64, 2.0532);
        let topo = Topology::new(4, 64);
        let mut fabric = Fabric::new(4);
        let dx = grid.dx();
        // Rank 0 owns cells [0, 16): one stayer, one bound for rank 1,
        // one that wrapped around to the last rank's slab.
        let mut p0 = local(vec![5.0 * dx, 20.0 * dx, 62.0 * dx], vec![1.0, 2.0, 3.0]);
        let moved = send_leavers(0, &mut p0, &grid, &topo, &mut fabric);
        assert_eq!(moved, 2);
        assert_eq!(p0.len(), 1);
        assert!((p0.vel[0][0] - 1.0).abs() < 1e-15);

        let mut p1 = local(vec![], vec![]);
        assert_eq!(recv_arrivals(1, &mut p1, &mut fabric), 1);
        assert!((p1.vel[0][0] - 2.0).abs() < 1e-15);

        let mut p3 = local(vec![], vec![]);
        assert_eq!(recv_arrivals(3, &mut p3, &mut fabric), 1);
        assert!((p3.vel[0][0] - 3.0).abs() < 1e-15);
    }

    #[test]
    fn single_rank_never_migrates() {
        let grid = Grid1D::new(64, 2.0532);
        let topo = Topology::new(1, 64);
        let mut fabric = Fabric::new(1);
        let mut p = local(vec![0.1, 1.0, 2.0], vec![0.0; 3]);
        assert_eq!(send_leavers(0, &mut p, &grid, &topo, &mut fabric), 0);
        assert_eq!(p.len(), 3);
        assert_eq!(fabric.stats().messages, 0);
    }

    #[test]
    fn migration_conserves_particles_and_phase_space() {
        let grid = Grid1D::new(64, 2.0532);
        let topo = Topology::new(8, 64);
        let mut fabric = Fabric::new(8);
        // Scatter particles everywhere and hand them all to rank 3.
        let xs: Vec<f64> = (0..500)
            .map(|i| (i as f64 + 0.5) / 500.0 * grid.lx())
            .collect();
        let vs: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let mut holders: Vec<Particles> = (0..8).map(|_| local(vec![], vec![])).collect();
        holders[3] = local(xs.clone(), vs.clone());

        for rank in topo.ranks() {
            send_leavers(rank, &mut holders[rank], &grid, &topo, &mut fabric);
        }
        for rank in topo.ranks() {
            recv_arrivals(rank, &mut holders[rank], &mut fabric);
        }

        let total: usize = holders.iter().map(|p| p.len()).sum();
        assert_eq!(total, 500);
        // Every particle sits on its owner, with its (x, v) pair intact.
        let mut seen: Vec<(u64, u64)> = Vec::new();
        for rank in topo.ranks() {
            for (x, v) in holders[rank].pos[0].iter().zip(&holders[rank].vel[0]) {
                assert_eq!(topo.rank_of_position(*x, &grid), rank);
                seen.push((x.to_bits(), v.to_bits()));
            }
        }
        seen.sort_unstable();
        let mut expect: Vec<(u64, u64)> = xs
            .iter()
            .zip(&vs)
            .map(|(x, v)| (x.to_bits(), v.to_bits()))
            .collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn migration_bytes_scale_with_leavers() {
        let grid = Grid1D::new(64, 2.0532);
        let topo = Topology::new(2, 64);
        let mut fabric = Fabric::new(2);
        // 10 particles on rank 0, all belonging to rank 1.
        let xs = vec![grid.lx() * 0.75; 10];
        let mut p = local(xs, vec![0.0; 10]);
        send_leavers(0, &mut p, &grid, &topo, &mut fabric);
        let stats = fabric.phase_stats("migration");
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.bytes, 10 * 16);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any in-box particle set split across any valid rank count is
        /// conserved exactly through a send/recv round, and every
        /// particle ends on its owner.
        #[test]
        fn migration_is_a_permutation_to_owners(
            xs in proptest::collection::vec(0.0f64..2.0532, 0..80),
            n_ranks in prop::sample::select(vec![1usize, 2, 4, 8, 16]),
            holder in 0usize..16,
        ) {
            let grid = Grid1D::new(64, 2.0532);
            let topo = Topology::new(n_ranks, 64);
            let holder = holder % n_ranks;
            let mut fabric = Fabric::new(n_ranks);
            let n = xs.len();
            let vs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let mut ranks: Vec<Particles> = (0..n_ranks)
                .map(|_| Particles::new([vec![]], [vec![]], -0.1, 0.1))
                .collect();
            ranks[holder] = Particles::new([xs.clone()], [vs], -0.1, 0.1);

            for r in topo.ranks() {
                send_leavers(r, &mut ranks[r], &grid, &topo, &mut fabric);
            }
            for r in topo.ranks() {
                recv_arrivals(r, &mut ranks[r], &mut fabric);
            }

            let total: usize = ranks.iter().map(|p| p.len()).sum();
            prop_assert_eq!(total, n);
            prop_assert_eq!(fabric.pending(), 0);
            for r in topo.ranks() {
                for &x in &ranks[r].pos[0] {
                    prop_assert_eq!(topo.rank_of_position(x, &grid), r);
                }
            }
        }
    }
}
