//! Local charge deposition and the halo reduction that completes it.
//!
//! Each rank deposits its particles into an *extended* slab buffer with
//! [`HALO`] extra nodes on each side; contributions landing in the halo
//! belong to the neighbouring ranks and are shipped there and added — the
//! standard PIC guard-cell reduction, organized as two periodic shifts
//! (the `MPI_Sendrecv` pattern):
//!
//! * **round A** — every rank sends its *right* halo to its right
//!   neighbour and receives, from its left neighbour, the contribution to
//!   its own *head* nodes;
//! * **round B** — the mirror shift for the *left* halos / *tail* nodes.
//!
//! Two messages of `HALO` words per rank per step, independent of both
//! particle count and grid size. The shift structure is what keeps the
//! exchange unambiguous even when a rank's two neighbours are the same
//! rank (2 ranks) or itself (1 rank).

use crate::comm::Fabric;
use crate::topology::Topology;
use dlpic_pic::grid::Grid1D;
use dlpic_pic::particles::Particles;
use dlpic_pic::shape::Shape;

/// Guard nodes on each side of a slab. Two covers the full support of
/// every [`Shape`] in the hierarchy (TSC touches `j−1..=j+1` with `j`
/// possibly one past the slab edge).
pub const HALO: usize = 2;

/// Length of an extended slab buffer.
pub fn ext_len(topo: &Topology) -> usize {
    topo.cells_per_rank() + 2 * HALO
}

/// Deposits `particles` (all owned by `rank`) into the extended buffer
/// `rho_ext`, whose index 0 is global node `slab_start − HALO`.
/// The buffer is overwritten.
///
/// # Panics
/// Panics if the buffer length is wrong; debug-asserts that every
/// particle deposits inside the extended slab (i.e. is actually owned).
pub fn deposit_local(
    particles: &Particles,
    grid: &Grid1D,
    topo: &Topology,
    rank: usize,
    shape: Shape,
    rho_ext: &mut [f64],
) {
    assert_eq!(
        rho_ext.len(),
        ext_len(topo),
        "extended buffer length mismatch"
    );
    rho_ext.fill(0.0);
    let inv_dx = 1.0 / grid.dx();
    let q_over_dx = particles.charge() * inv_dx;
    let start = topo.slab_start(rank) as i64;
    let support = shape.support();
    let cpr = topo.cells_per_rank() as i64;

    for &x in &particles.x {
        let a = shape.assign(x * inv_dx);
        // Local index of the leftmost support node.
        let local = a.leftmost - start + HALO as i64;
        debug_assert!(
            local >= 0 && local + support as i64 <= cpr + 2 * HALO as i64,
            "particle at x = {x} deposits outside rank {rank}'s extended slab"
        );
        for (k, &w) in a.w[..support].iter().enumerate() {
            rho_ext[(local + k as i64) as usize] += q_over_dx * w;
        }
    }
}

/// Round A send: ships this rank's right halo to its right neighbour.
pub fn send_halo_right(rank: usize, topo: &Topology, fabric: &mut Fabric, rho_ext: &[f64]) {
    let cpr = topo.cells_per_rank();
    fabric.send(
        rank,
        topo.right(rank),
        crate::comm::PHASE_DEPOSIT_HALO,
        rho_ext[HALO + cpr..].to_vec(),
    );
}

/// Round A receive: adds the left neighbour's right-halo contribution onto
/// this rank's head nodes. Call after every rank's [`send_halo_right`].
///
/// # Panics
/// Panics if the message is missing (driver bug).
pub fn recv_halo_from_left(rank: usize, topo: &Topology, fabric: &mut Fabric, rho_ext: &mut [f64]) {
    let msg = fabric
        .recv(rank, topo.left(rank))
        .expect("missing right-halo message from left neighbour");
    assert_eq!(msg.len(), HALO, "bad halo width from left");
    for (k, v) in msg.iter().enumerate() {
        rho_ext[HALO + k] += v;
    }
}

/// Round B send: ships this rank's left halo to its left neighbour.
pub fn send_halo_left(rank: usize, topo: &Topology, fabric: &mut Fabric, rho_ext: &[f64]) {
    fabric.send(
        rank,
        topo.left(rank),
        crate::comm::PHASE_DEPOSIT_HALO,
        rho_ext[..HALO].to_vec(),
    );
}

/// Round B receive: adds the right neighbour's left-halo contribution onto
/// this rank's tail nodes. After this the owned region
/// `rho_ext[HALO .. HALO + cells_per_rank]` is complete.
///
/// # Panics
/// Panics if the message is missing (driver bug).
pub fn recv_halo_from_right(
    rank: usize,
    topo: &Topology,
    fabric: &mut Fabric,
    rho_ext: &mut [f64],
) {
    let cpr = topo.cells_per_rank();
    let msg = fabric
        .recv(rank, topo.right(rank))
        .expect("missing left-halo message from right neighbour");
    assert_eq!(msg.len(), HALO, "bad halo width from right");
    for (k, v) in msg.iter().enumerate() {
        rho_ext[HALO + cpr - HALO + k] += v;
    }
}

/// Runs the complete two-round reduction over all ranks' buffers (the
/// BSP driver's halo phase).
#[cfg(test)]
fn reduce_halos(topo: &Topology, fabric: &mut Fabric, buffers: &mut [Vec<f64>]) {
    assert_eq!(buffers.len(), topo.n_ranks(), "one buffer per rank");
    for rank in topo.ranks() {
        send_halo_right(rank, topo, fabric, &buffers[rank]);
    }
    for rank in topo.ranks() {
        recv_halo_from_left(rank, topo, fabric, &mut buffers[rank]);
    }
    for rank in topo.ranks() {
        send_halo_left(rank, topo, fabric, &buffers[rank]);
    }
    for rank in topo.ranks() {
        recv_halo_from_right(rank, topo, fabric, &mut buffers[rank]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlpic_pic::deposit::deposit_charge;

    /// Splits positions by owner and runs the full local-deposit + halo
    /// pipeline; returns the assembled global density.
    fn distributed_density(xs: &[f64], grid: &Grid1D, topo: &Topology, shape: Shape) -> Vec<f64> {
        let mut fabric = Fabric::new(topo.n_ranks());
        let w = grid.length() / xs.len() as f64;
        let mut buffers: Vec<Vec<f64>> = Vec::new();
        for rank in topo.ranks() {
            let local: Vec<f64> = xs
                .iter()
                .copied()
                .filter(|&x| topo.rank_of_position(x, grid) == rank)
                .collect();
            let n = local.len();
            let p = Particles::new(local, vec![0.0; n], -w, w);
            let mut ext = vec![0.0; ext_len(topo)];
            deposit_local(&p, grid, topo, rank, shape, &mut ext);
            buffers.push(ext);
        }
        reduce_halos(topo, &mut fabric, &mut buffers);
        let mut global = vec![0.0; grid.ncells()];
        for rank in topo.ranks() {
            let start = topo.slab_start(rank);
            global[start..start + topo.cells_per_rank()]
                .copy_from_slice(&buffers[rank][HALO..HALO + topo.cells_per_rank()]);
        }
        global
    }

    fn scrambled_positions(n: usize, length: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i.wrapping_mul(2654435761) % 100_000) as f64 / 100_000.0 * length)
            .collect()
    }

    #[test]
    fn distributed_deposit_matches_global_deposit() {
        let grid = Grid1D::new(64, 2.0532);
        let xs = scrambled_positions(4096, grid.length());
        let w = grid.length() / xs.len() as f64;
        let reference_particles = Particles::new(xs.clone(), vec![0.0; xs.len()], -w, w);
        for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
            let mut reference = grid.zeros();
            deposit_charge(&reference_particles, &grid, shape, &mut reference);
            for n_ranks in [1, 2, 4, 8] {
                let topo = Topology::new(n_ranks, 64);
                let dist = distributed_density(&xs, &grid, &topo, shape);
                for (j, (d, r)) in dist.iter().zip(&reference).enumerate() {
                    assert!(
                        (d - r).abs() < 1e-12,
                        "{shape:?} R={n_ranks} node {j}: {d} vs {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn halo_traffic_is_constant_per_rank() {
        let topo = Topology::new(4, 64);
        let mut fabric = Fabric::new(4);
        let mut buffers: Vec<Vec<f64>> = (0..4).map(|_| vec![0.0; ext_len(&topo)]).collect();
        reduce_halos(&topo, &mut fabric, &mut buffers);
        let stats = fabric.phase_stats("deposit-halo");
        assert_eq!(stats.messages, 8); // 2 per rank
        assert_eq!(stats.bytes, 8 * 8 * HALO as u64);
    }

    #[test]
    fn single_rank_wraps_onto_itself() {
        let grid = Grid1D::new(8, 2.0);
        let topo = Topology::new(1, 8);
        // One particle near the right edge: CIC spills onto wrapped node 0.
        let xs = vec![grid.length() - 0.25 * grid.dx()];
        let dist = distributed_density(&xs, &grid, &topo, Shape::Cic);
        let p = Particles::new(xs, vec![0.0], -grid.length(), grid.length());
        let mut reference = grid.zeros();
        deposit_charge(&p, &grid, Shape::Cic, &mut reference);
        for (j, (d, r)) in dist.iter().zip(&reference).enumerate() {
            assert!((d - r).abs() < 1e-12, "node {j}: {d} vs {r}");
        }
    }

    #[test]
    fn two_rank_case_routes_both_halos_correctly() {
        // Both neighbours of a rank are the *same* rank when R = 2; the
        // shift rounds must still route head/tail contributions to the
        // right edges. A particle at each slab boundary probes exactly
        // that.
        let grid = Grid1D::new(8, 2.0);
        let topo = Topology::new(2, 8);
        let boundary = topo.slab_start(1) as f64 * grid.dx();
        let xs = vec![boundary - 0.3 * grid.dx(), grid.length() - 0.3 * grid.dx()];
        let dist = distributed_density(&xs, &grid, &topo, Shape::Tsc);
        let w = grid.length() / 2.0;
        let p = Particles::new(xs, vec![0.0; 2], -w, w);
        let mut reference = grid.zeros();
        deposit_charge(&p, &grid, Shape::Tsc, &mut reference);
        for (j, (d, r)) in dist.iter().zip(&reference).enumerate() {
            assert!((d - r).abs() < 1e-12, "node {j}: {d} vs {r}");
        }
    }
}
