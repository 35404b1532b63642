//! Random geometric conflict graphs (unit square, hard radius).
//!
//! `n` points are dropped uniformly in `[0, 1)²` and two vertices conflict
//! iff their Euclidean distance is at most `radius` — the standard model
//! of radio-interference conflict graphs. The resulting specs are
//! *spatially clustered*: triangles abound, degrees concentrate around
//! `n π r²`, and the cluster layouts of [`crate::realize`] then stretch
//! them over multi-machine topologies.
//!
//! Edge detection buckets the points into a grid of `radius`-sized cells
//! and scans each vertex's 3×3 cell neighborhood — `O(n · E[deg])` — with
//! the rows sharded across threads through the
//! [`crate::pipeline::ShardedEdgeSource`] scaffolding. Point positions are
//! drawn sequentially from one seeded stream before the sharded phase, so
//! the spec is a pure function of `(n, radius, seed)`, independent of the
//! thread count.

use crate::layouts::HSpec;
use crate::pipeline::ShardedEdgeSource;
use cgc_net::{ParallelConfig, SeedStream};
use rand::RngExt;

/// Samples a random geometric spec sequentially; deterministic in
/// `(n, radius, seed)`.
///
/// # Panics
///
/// Panics if `n == 0` or `radius` is not in `(0, 1]`.
pub fn geometric_spec(n: usize, radius: f64, seed: u64) -> HSpec {
    let par = ParallelConfig::serial();
    geometric_runs(n, radius, seed, &par).into_hspec(&par)
}

/// The raw per-shard edge runs of a geometric sample — the generation
/// half of [`geometric_spec`], before canonicalization; independent of
/// the thread count in `par`.
///
/// # Panics
///
/// As [`geometric_spec`].
pub(crate) fn geometric_runs(
    n: usize,
    radius: f64,
    seed: u64,
    par: &ParallelConfig,
) -> ShardedEdgeSource {
    assert!(n > 0, "empty spec");
    assert!(
        radius > 0.0 && radius <= 1.0,
        "radius must be in (0, 1], got {radius}"
    );
    let mut rng = SeedStream::new(seed).rng_for(0x5247_4730, 0);
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
        .collect();

    // Grid of radius-sized cells; cell(v) = (x / r, y / r) clamped.
    let cells_per_side = (1.0 / radius).ceil() as usize;
    let cell_of = |p: (f64, f64)| -> (usize, usize) {
        let cx = ((p.0 / radius) as usize).min(cells_per_side - 1);
        let cy = ((p.1 / radius) as usize).min(cells_per_side - 1);
        (cx, cy)
    };
    // Counting-sort the vertex ids into a CSR over cells (stable: within a
    // cell, ids ascend).
    let n_cells = cells_per_side * cells_per_side;
    let mut counts = vec![0usize; n_cells + 1];
    for &p in &points {
        let (cx, cy) = cell_of(p);
        counts[cy * cells_per_side + cx + 1] += 1;
    }
    for i in 0..n_cells {
        counts[i + 1] += counts[i];
    }
    let mut bucket = vec![0usize; n];
    let mut cursor = counts.clone();
    for (v, &p) in points.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        let c = cy * cells_per_side + cx;
        bucket[cursor[c]] = v;
        cursor[c] += 1;
    }

    let r2 = radius * radius;
    let points = &points;
    let counts = &counts;
    let bucket = &bucket;
    ShardedEdgeSource::from_rows(n, par, move |u, out| {
        let pu = points[u];
        let (cx, cy) = cell_of(pu);
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let nx = cx as i64 + dx;
                let ny = cy as i64 + dy;
                if nx < 0 || ny < 0 || nx >= cells_per_side as i64 || ny >= cells_per_side as i64 {
                    continue;
                }
                let c = ny as usize * cells_per_side + nx as usize;
                for &v in &bucket[counts[c]..counts[c + 1]] {
                    if v <= u {
                        continue;
                    }
                    let (ddx, ddy) = (points[v].0 - pu.0, points[v].1 - pu.1);
                    if ddx * ddx + ddy * ddy <= r2 {
                        out.push((u, v));
                    }
                }
            }
        }
    })
}

/// The radius giving expected average degree `target` at size `n`
/// (`n π r² = target`), clamped to `(0, 1]`.
pub fn radius_for_avg_degree(n: usize, target: f64) -> f64 {
    assert!(n > 0 && target > 0.0, "need positive n and target degree");
    (target / (n as f64 * std::f64::consts::PI)).sqrt().min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrees_concentrate_around_n_pi_r_squared() {
        let n = 3000;
        let r = radius_for_avg_degree(n, 9.0);
        let h = geometric_spec(n, r, 5);
        let avg = 2.0 * h.edges.len() as f64 / n as f64;
        // Boundary effects depress the average a little below 9.
        assert!((5.0..11.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn grid_scan_matches_brute_force() {
        let n = 250;
        let r = 0.13;
        let h = geometric_spec(n, r, 9);
        // Re-derive the points exactly as the generator does.
        let mut rng = SeedStream::new(9).rng_for(0x5247_4730, 0);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
            .collect();
        let mut brute = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                let (dx, dy) = (pts[v].0 - pts[u].0, pts[v].1 - pts[u].1);
                if dx * dx + dy * dy <= r * r {
                    brute.push((u, v));
                }
            }
        }
        assert_eq!(h.edges, brute);
    }

    #[test]
    fn thread_count_does_not_change_the_graph() {
        let reference = geometric_spec(900, 0.06, 13);
        for threads in [2, 4, 8] {
            let par = ParallelConfig::with_threads(threads);
            let got = geometric_runs(900, 0.06, 13, &par).into_hspec(&par);
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn deterministic_in_seed_and_sensitive_to_it() {
        assert_eq!(geometric_spec(300, 0.1, 2), geometric_spec(300, 0.1, 2));
        assert_ne!(geometric_spec(300, 0.1, 2), geometric_spec(300, 0.1, 3));
    }

    #[test]
    fn radius_one_is_near_complete() {
        let h = geometric_spec(40, 1.0, 1);
        // Unit square diameter is sqrt(2) > 1, so not complete, but dense.
        assert!(h.edges.len() > 40 * 39 / 4, "edges {}", h.edges.len());
    }

    #[test]
    #[should_panic(expected = "radius must be in")]
    fn zero_radius_rejected() {
        geometric_spec(10, 0.0, 1);
    }
}
