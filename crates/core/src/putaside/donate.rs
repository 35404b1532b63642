//! Coloring put-aside sets by color donation (§7, Algorithms 8–10).
//!
//! Rather than searching for a free color (a set-intersection instance —
//! Figure 2), each uncolored put-aside vertex `u_i` receives a color from
//! an already-colored *donor*, which recolors itself with a *replacement*
//! from the clique palette: a three-way matching (Figure 4).
//!
//! Pipeline per cabal (Algorithm 8):
//!
//! 1. if the clique palette has `≥ ℓ_s` free colors, `TryFreeColors`
//!    assigns them directly;
//! 2. otherwise `FindCandidateDonors` (Algorithm 9) selects colored
//!    inliers with **unique** colors and no edges to other cabals'
//!    put-aside or candidate sets — making cabals recolorable
//!    independently;
//! 3. `FindSafeDonors` (Algorithm 10) samples one replacement color per
//!    candidate from the clique palette, keeps those in the candidate's
//!    own palette, groups donors by (replacement color, *block* of their
//!    current color) and picks distinct replacements `c_i` with large
//!    groups `S_i`;
//! 4. `DonateColors` lets each `u_i` sample donors from `S_i` — all in
//!    one block, so `k` donations fit one `O(log n)`-bit message (block
//!    index + offsets, Equation 11) — and accept one whose color no
//!    external neighbor uses; the donor takes `c_i`.
//!
//! Every acceptance rule mirrors the §7.1 properness argument; a charged
//! sequential fallback guarantees termination and is reported separately.

use crate::coloring::{Color, Coloring};
use crate::palette_query::CliquePalette;
use crate::params::Params;
use crate::trycolor::first_fit_finish;
use cgc_cluster::{ClusterNet, VertexId};
use cgc_net::SeedStream;
use rand::RngExt;
use std::collections::BTreeMap;

/// One cabal's context for put-aside coloring.
#[derive(Debug, Clone)]
pub struct CabalCtx {
    /// The cabal's members (sorted).
    pub clique: Vec<VertexId>,
    /// Its put-aside set `P_K` (uncolored).
    pub putaside: Vec<VertexId>,
}

/// Outcome counters for the put-aside stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DonationOutcome {
    /// Vertices colored through free palette colors (Step 2).
    pub free_colored: usize,
    /// Vertices colored through donations (Steps 4–6).
    pub donated: usize,
    /// Vertices colored by the charged sequential fallback.
    pub fallback: usize,
}

/// Colors every put-aside vertex (Proposition 4.19): donation first, then
/// a charged fallback so the stage always completes with a proper
/// coloring.
pub fn color_putaside_sets(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    salt: u64,
    params: &Params,
    cabals: &[CabalCtx],
) -> DonationOutcome {
    net.set_phase("putaside-color");
    let mut out = DonationOutcome::default();
    let n = net.g.n_vertices();

    // Membership maps.
    let mut cabal_of: Vec<Option<usize>> = vec![None; n];
    let mut in_putaside: Vec<Option<usize>> = vec![None; n];
    for (i, c) in cabals.iter().enumerate() {
        for &v in &c.clique {
            cabal_of[v] = Some(i);
        }
        for &v in &c.putaside {
            in_putaside[v] = Some(i);
        }
    }

    let palettes = CliquePalette::build_all(
        net,
        coloring,
        &cabals.iter().map(|c| c.clique.clone()).collect::<Vec<_>>(),
    );

    // Split cabals into the free-color and donation regimes. Cabals are
    // vertex-disjoint, so each regime runs in parallel with one set of
    // round charges for the whole family.
    let ls = params.ls.max(1);
    let free_idx: Vec<usize> = (0..cabals.len())
        .filter(|&i| palettes[i].n_free() >= ls)
        .collect();
    let don_idx: Vec<usize> = (0..cabals.len())
        .filter(|&i| palettes[i].n_free() < ls)
        .collect();
    out.free_colored += try_free_colors_all(net, coloring, seeds, salt ^ 0xF00D, cabals, &free_idx);
    if !don_idx.is_empty() {
        // Shared charges for the donation pipeline (Algorithms 9–10 and
        // the Equation-11 donation messages).
        let delta = net.g.max_degree();
        let b = params.effective_block_size(delta);
        net.charge_full_rounds(2, net.id_bits()); // Alg. 9 activation + filter
        CliquePalette::charge_query_batch(net); // Alg. 10 palette samples
        net.charge_full_rounds(1, net.color_bits() + 1); // c(v) ∈ L(v) test
        let k_samples = 8u64;
        let msg_bits =
            ClusterNet::bits_for((coloring.q() / b).max(1)) + k_samples * ClusterNet::bits_for(b);
        net.charge_full_rounds(2, msg_bits); // donation offers + bitmaps
        for &i in &don_idx {
            out.donated += donate(
                net,
                coloring,
                seeds,
                salt ^ 0xD0_4A7E,
                params,
                cabals,
                &in_putaside,
                i,
            );
        }
    }

    // Fallback: strictly sequential, one charged round per vertex.
    out.fallback = first_fit_finish(
        net,
        coloring,
        cabals.iter().flat_map(|c| c.putaside.iter().copied()),
    );
    out
}

/// Step 2 (`TryFreeColors`): put-aside vertices take distinct free colors
/// of their clique palette, checking external conflicts; conflicts among
/// simultaneous tries resolve by id. `O(1)` rounds, shared by all listed
/// cabals (vertex-disjoint parallel execution).
fn try_free_colors_all(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    salt: u64,
    cabals: &[CabalCtx],
    idx: &[usize],
) -> usize {
    let mut colored = 0usize;
    if idx.is_empty() {
        return 0;
    }
    for round in 0..4u64 {
        let all_pending: usize = idx
            .iter()
            .flat_map(|&i| cabals[i].putaside.iter())
            .filter(|&&v| !coloring.is_colored(v))
            .count();
        if all_pending == 0 {
            break;
        }
        // One palette rebuild, one query batch and one conflict round for
        // the whole family per iteration.
        let cliques: Vec<Vec<VertexId>> = idx.iter().map(|&i| cabals[i].clique.clone()).collect();
        let pals = CliquePalette::build_all(net, coloring, &cliques);
        CliquePalette::charge_query_batch(net);
        net.charge_full_rounds(1, net.color_bits() + net.id_bits());
        for (j, &i) in idx.iter().enumerate() {
            let cabal = &cabals[i];
            let pal = &pals[j];
            let pending: Vec<VertexId> = cabal
                .putaside
                .iter()
                .copied()
                .filter(|&v| !coloring.is_colored(v))
                .collect();
            if pending.is_empty() || pal.n_free() == 0 {
                continue;
            }
            // Each pending vertex samples a palette index; distinct
            // indices give distinct in-clique colors; id priority breaks
            // index ties.
            let mut taken: BTreeMap<usize, VertexId> = BTreeMap::new();
            for &u in &pending {
                let mut rng = seeds.rng_for(u as u64, salt ^ (round << 32) ^ i as u64);
                let pidx = rng.random_range(0..pal.n_free());
                if let Some(&winner) = taken.get(&pidx) {
                    if winner < u {
                        continue;
                    }
                }
                taken.insert(pidx, u);
            }
            for (pidx, u) in taken {
                let Some(c) = pal.nth_free_in(pidx, 0, coloring.q()) else {
                    continue;
                };
                // External conflict check (the hash-probe of §7.1 Step 2,
                // realized as an exact membership test on the links).
                let ok = net
                    .g
                    .neighbors(u)
                    .iter()
                    .all(|&w| coloring.get(w) != Some(c));
                if ok {
                    coloring.set(u, c);
                    colored += 1;
                }
            }
        }
    }
    colored
}

/// Steps 4–6: the donation scheme for one cabal.
#[allow(clippy::too_many_arguments)]
fn donate(
    net: &mut ClusterNet<'_>,
    coloring: &mut Coloring,
    seeds: &SeedStream,
    salt: u64,
    params: &Params,
    cabals: &[CabalCtx],
    in_putaside: &[Option<usize>],
    i: usize,
) -> usize {
    let cabal = &cabals[i];
    let q = coloring.q();
    let delta = net.g.max_degree();
    let b = params.effective_block_size(delta);

    // ---- FindCandidateDonors (Algorithm 9) ----
    // Color multiplicities inside K.
    let mut mult: BTreeMap<Color, usize> = BTreeMap::new();
    for &v in &cabal.clique {
        if let Some(c) = coloring.get(v) {
            *mult.entry(c).or_insert(0) += 1;
        }
    }
    // Q_pre: colored members with unique color and no neighbor in other
    // cabals' put-aside sets.
    let q_pre: Vec<VertexId> = cabal
        .clique
        .iter()
        .copied()
        .filter(|&v| {
            let Some(c) = coloring.get(v) else {
                return false;
            };
            if mult[&c] != 1 {
                return false;
            }
            net.g
                .neighbors(v)
                .iter()
                .all(|&u| !matches!(in_putaside[u], Some(j) if j != i))
        })
        .collect();
    // Activation with p = min(1, 50 ℓ_s³ / b) (Equation 11 scaling),
    // floored so laptop-scale cabals keep enough candidates. (Rounds for
    // the whole donation family are charged once by the caller.)
    let p_act = (50.0 * (params.ls as f64).powi(3) / b as f64).clamp(0.3, 1.0);
    let mut active = vec![false; net.g.n_vertices()];
    let mut q_active: Vec<VertexId> = Vec::new();
    for &v in &q_pre {
        let mut rng = seeds.rng_for(v as u64, salt ^ 0xAC71);
        if rng.random::<f64>() < p_act {
            active[v] = true;
            q_active.push(v);
        }
    }
    // Keep only candidates with no *active external* candidate neighbor
    // (cross-cabal independence of donors).
    let q_k: Vec<VertexId> = q_active
        .iter()
        .copied()
        .filter(|&v| {
            net.g
                .neighbors(v)
                .iter()
                .all(|&u| !active[u] || cabal_index(cabals, u) == Some(i))
        })
        .collect();

    // ---- FindSafeDonors (Algorithm 10) ----
    let pal = CliquePalette::snapshot_uncharged(coloring, &cabal.clique);
    if pal.n_free() == 0 {
        return 0;
    }
    // (replacement color, block) -> donors.
    let mut groups: BTreeMap<(Color, usize), Vec<VertexId>> = BTreeMap::new();
    for &v in &q_k {
        let mut rng = seeds.rng_for(v as u64, salt ^ 0x5AFE);
        let idx = rng.random_range(0..pal.n_free());
        let Some(c) = pal.nth_free_in(idx, 0, q) else {
            continue;
        };
        // c must be in L(v): no neighbor of v holds c.
        if net
            .g
            .neighbors(v)
            .iter()
            .any(|&u| coloring.get(u) == Some(c))
        {
            continue;
        }
        let block = coloring.get(v).expect("donors are colored") / b;
        groups.entry((c, block)).or_default().push(v);
    }
    // Pick distinct replacement colors with the largest groups.
    let mut best_per_color: BTreeMap<Color, (usize, usize)> = BTreeMap::new(); // c -> (block, size)
    for (&(c, block), members) in &groups {
        let e = best_per_color.entry(c).or_insert((block, 0));
        if members.len() > e.1 {
            *e = (block, members.len());
        }
    }
    let mut choices: Vec<(Color, usize, usize)> = best_per_color
        .into_iter()
        .map(|(c, (blk, sz))| (c, blk, sz))
        .collect();
    choices.sort_by_key(|&(_, _, sz)| std::cmp::Reverse(sz));

    // ---- DonateColors (§7.1 Step 6) ----
    let pending: Vec<VertexId> = cabal
        .putaside
        .iter()
        .copied()
        .filter(|&v| !coloring.is_colored(v))
        .collect();
    // k samples per vertex; the Equation-11 messages (block index + k
    // offsets) were charged once for the family by the caller.
    let k_samples = 8usize;

    let mut donated = 0usize;
    for (u, &(c_repl, _blk, _)) in pending.iter().zip(choices.iter()) {
        let donors = {
            // All donors sharing this replacement across blocks would also
            // be safe; we follow the paper and stay within the best block.
            let key = groups
                .keys()
                .copied()
                .find(|&(c, blk)| c == c_repl && blk == _blk)
                .expect("chosen group exists");
            groups[&key].clone()
        };
        let mut rng = seeds.rng_for(*u as u64, salt ^ 0xD0);
        let mut accepted: Option<VertexId> = None;
        for _ in 0..k_samples.max(donors.len().min(16)) {
            let v = donors[rng.random_range(0..donors.len())];
            let c_don = coloring.get(v).expect("donor colored");
            // Accept iff no neighbor of u (outside the donor) uses c_don.
            let ok = net
                .g
                .neighbors(*u)
                .iter()
                .all(|&w| w == v || coloring.get(w) != Some(c_don));
            if ok {
                accepted = Some(v);
                break;
            }
        }
        if let Some(v) = accepted {
            let c_don = coloring.get(v).expect("donor colored");
            coloring.recolor(v, c_repl);
            coloring.set(*u, c_don);
            donated += 1;
        }
    }
    donated
}

fn cabal_index(cabals: &[CabalCtx], v: VertexId) -> Option<usize> {
    cabals
        .iter()
        .position(|c| c.clique.binary_search(&v).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_cluster::ClusterGraph;
    use cgc_graphs::{cabal_spec, realize, Layout};

    /// A near-complete cabal instance: blocks of size k with one planted
    /// anti-pair, put-aside = 2 members, everything else pre-colored
    /// with the colorful matching on the anti-pair.
    fn setup(k: usize, seed: u64) -> (ClusterGraph, Vec<CabalCtx>, Coloring) {
        let (spec, info) = cabal_spec(2, k, 1, 2, seed);
        let g = realize(&spec, Layout::Singleton, 1, seed);
        let delta = g.max_degree();
        let mut coloring = Coloring::new(g.n_vertices(), delta + 1);
        let n_blocks = info.cliques.len();
        let mut cabals = Vec::new();
        for (ci, clique) in info.cliques.iter().enumerate() {
            // Put-aside: the last two members with no external edges —
            // Lemma 4.18 property 2 (independence), which the real
            // pipeline guarantees via compute_putaside_sets.
            let putaside: Vec<usize> = clique
                .iter()
                .rev()
                .copied()
                .filter(|&v| g.neighbors(v).iter().all(|&u| clique.contains(&u)))
                .take(2)
                .collect();
            assert_eq!(putaside.len(), 2, "need 2 isolated members");
            // Anti-pair (first two members) share a color — the colorful
            // matching — picked conflict-free against anything already
            // colored (cross-block edges included).
            let mut pair_color = ci;
            while net_conflict(&g, &coloring, clique[0], pair_color)
                || net_conflict(&g, &coloring, clique[1], pair_color)
            {
                pair_color += 1;
            }
            coloring.set(clique[0], pair_color);
            coloring.set(clique[1], pair_color);
            let mut next = n_blocks;
            for &v in &clique[2..] {
                if putaside.contains(&v) {
                    continue;
                }
                // Skip colors used by (external) neighbors to stay proper.
                while net_conflict(&g, &coloring, v, next) {
                    next += 1;
                }
                coloring.set(v, next);
                next += 1;
            }
            cabals.push(CabalCtx {
                clique: clique.clone(),
                putaside,
            });
        }
        (g, cabals, coloring)
    }

    fn net_conflict(g: &ClusterGraph, c: &Coloring, v: usize, col: usize) -> bool {
        g.neighbors(v).iter().any(|&u| c.get(u) == Some(col))
    }

    #[test]
    fn completes_to_total_proper_coloring() {
        let (g, cabals, mut coloring) = setup(14, 5);
        assert!(coloring.is_proper(&g), "setup must be proper");
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(90);
        let params = Params::laptop(g.n_vertices());
        let out = color_putaside_sets(&mut net, &mut coloring, &seeds, 0, &params, &cabals);
        assert!(coloring.is_total(), "uncolored: {:?}", coloring.uncolored());
        assert!(
            coloring.is_proper(&g),
            "conflicts: {:?}",
            coloring.conflicts(&g)
        );
        let total = out.free_colored + out.donated + out.fallback;
        assert_eq!(total, 4, "outcome {out:?}");
    }

    #[test]
    fn free_color_path_used_when_palette_is_wide() {
        // Leave many free colors: only color a few members.
        let (spec, info) = cabal_spec(1, 12, 0, 0, 6);
        let g = realize(&spec, Layout::Singleton, 1, 6);
        let mut coloring = Coloring::new(g.n_vertices(), g.max_degree() + 1);
        for (j, &v) in info.cliques[0][..4].iter().enumerate() {
            coloring.set(v, j);
        }
        let cabals = vec![CabalCtx {
            clique: info.cliques[0].clone(),
            putaside: info.cliques[0][4..].to_vec(),
        }];
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(91);
        let params = Params::laptop(g.n_vertices());
        let out = color_putaside_sets(&mut net, &mut coloring, &seeds, 0, &params, &cabals);
        assert!(coloring.is_total());
        assert!(coloring.is_proper(&g));
        assert!(out.free_colored >= 6, "outcome {out:?}");
    }

    #[test]
    fn donation_path_swaps_colors_properly() {
        // Force the donation path: palette nearly empty (k-1 colors used
        // for k-2 colored vertices + anti-pair reuse).
        let (g, cabals, mut coloring) = setup(16, 7);
        // Shrink ls so the free path is skipped only when palette < ls.
        let mut params = Params::laptop(g.n_vertices());
        params.ls = 1_000; // force donation path regardless of palette
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(92);
        let out = color_putaside_sets(&mut net, &mut coloring, &seeds, 0, &params, &cabals);
        assert!(coloring.is_total());
        assert!(
            coloring.is_proper(&g),
            "conflicts: {:?}",
            coloring.conflicts(&g)
        );
        assert!(out.donated + out.fallback >= 4, "outcome {out:?}");
    }

    #[test]
    fn fallback_alone_terminates() {
        // Adversarial: zero candidate donors (every color repeated) — the
        // stage must still terminate through the fallback.
        let (spec, info) = cabal_spec(1, 8, 2, 0, 8);
        let g = realize(&spec, Layout::Singleton, 1, 8);
        let mut coloring = Coloring::new(g.n_vertices(), g.max_degree() + 1);
        // Color the two anti-pairs with repeated colors only.
        let k = &info.cliques[0];
        coloring.set(k[0], 0);
        coloring.set(k[1], 0);
        coloring.set(k[2], 1);
        coloring.set(k[3], 1);
        let cabals = vec![CabalCtx {
            clique: k.clone(),
            putaside: k[4..].to_vec(),
        }];
        let mut params = Params::laptop(g.n_vertices());
        params.ls = 1_000;
        let mut net = ClusterNet::with_log_budget(&g, 32);
        let seeds = SeedStream::new(93);
        let out = color_putaside_sets(&mut net, &mut coloring, &seeds, 0, &params, &cabals);
        assert!(coloring.is_total());
        assert!(coloring.is_proper(&g));
        assert!(out.fallback > 0 || out.donated > 0);
    }
}
