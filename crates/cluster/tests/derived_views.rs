//! `ClusterGraph` stores each adjacency once and derives the rest: links
//! from the communication CSR, `H`-edges from the upper halves of `H`'s
//! CSR rows, support trees from one flat layout. This property suite
//! checks the CSR rows themselves (`neighbors(v)`, sorted) and every
//! derived view — `links()`, `h_edges()`, `h_edge_multiplicities()`,
//! `link_multiplicity`, `edge_index`, `incident_links`, `support(v)` and
//! `comm().edges()` — against a reference built from
//! scratch from the machine edge list and the assignment, on gnp and
//! power-law instances (singleton, star and path clusters, one to three
//! links per `H`-edge) and contraction instances, before and after random
//! delta batches.

use cgc_cluster::{ClusterGraph, ParallelConfig};
use cgc_graphs::{ChurnSpec, Layout, WorkloadSpec};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

type Edge = (usize, usize);
type Link = (usize, usize, usize, usize);

/// One cluster's tree: machines, parents (the leader its own), height.
type Tree = (Vec<usize>, Vec<usize>, usize);

/// Everything the views should show, computed from `(edges, assignment)`
/// alone.
struct Reference {
    edges: Vec<Edge>,
    links: Vec<Link>,
    h_edges: Vec<Edge>,
    mult: Vec<u32>,
    incident: Vec<usize>,
    /// Each cluster's distinct neighbor clusters, ascending.
    neighbors: Vec<Vec<usize>>,
    trees: Vec<Tree>,
}

impl Reference {
    fn new(n_machines: usize, edges: &BTreeSet<Edge>, assignment: &[usize]) -> Self {
        let k = assignment.iter().max().map_or(0, |&c| c + 1);
        let links: Vec<Link> = edges
            .iter()
            .filter(|&&(a, b)| assignment[a] != assignment[b])
            .map(|&(a, b)| {
                let (ca, cb) = (assignment[a], assignment[b]);
                if ca < cb {
                    (a, b, ca, cb)
                } else {
                    (b, a, cb, ca)
                }
            })
            .collect();
        let mut counts: BTreeMap<Edge, u32> = BTreeMap::new();
        let mut incident = vec![0usize; k];
        for &(_, _, cu, cv) in &links {
            *counts.entry((cu, cv)).or_default() += 1;
            incident[cu] += 1;
            incident[cv] += 1;
        }
        let mut neighbors = vec![Vec::new(); k];
        for &(cu, cv) in counts.keys() {
            neighbors[cu].push(cv);
            neighbors[cv].push(cu);
        }
        for row in &mut neighbors {
            row.sort_unstable();
        }
        let mut adj = vec![Vec::new(); n_machines];
        for &(a, b) in edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        for row in &mut adj {
            row.sort_unstable();
        }
        let trees = (0..k)
            .map(|c| {
                let machines: Vec<usize> =
                    (0..n_machines).filter(|&m| assignment[m] == c).collect();
                // BFS from the smallest machine, neighbors in ascending
                // order, inside the cluster.
                let mut parent = BTreeMap::from([(machines[0], (machines[0], 0usize))]);
                let mut queue = VecDeque::from([machines[0]]);
                while let Some(u) = queue.pop_front() {
                    let du = parent[&u].1;
                    for &w in &adj[u] {
                        if assignment[w] == c && !parent.contains_key(&w) {
                            parent.insert(w, (u, du + 1));
                            queue.push_back(w);
                        }
                    }
                }
                let parents = machines.iter().map(|m| parent[m].0).collect();
                let height = parent.values().map(|&(_, d)| d).max().unwrap_or(0);
                (machines, parents, height)
            })
            .collect();
        Reference {
            edges: edges.iter().copied().collect(),
            links,
            h_edges: counts.keys().copied().collect(),
            mult: counts.values().copied().collect(),
            incident,
            neighbors,
            trees,
        }
    }
}

fn check_views(g: &ClusterGraph, edges: &BTreeSet<Edge>, ctx: &str) -> Result<(), TestCaseError> {
    let r = Reference::new(g.n_machines(), edges, g.assignment());
    let k = g.n_vertices();
    prop_assert!(
        g.comm().edges().eq(r.edges.iter().copied()),
        "{}: comm edges",
        ctx
    );
    prop_assert!(g.links().eq(r.links.iter().copied()), "{}: links", ctx);
    prop_assert_eq!(g.n_links(), r.links.len());
    prop_assert!(
        g.h_edges().eq(r.h_edges.iter().copied()),
        "{}: h_edges",
        ctx
    );
    prop_assert_eq!(g.n_h_edges(), r.h_edges.len());
    prop_assert!(
        g.h_edge_multiplicities() == &r.mult[..],
        "{}: multiplicities",
        ctx
    );
    for (i, &(u, v)) in r.h_edges.iter().enumerate() {
        prop_assert!(g.h_edges_in(i..i + 1).eq([(u, v)]), "{}: edge {}", ctx, i);
    }
    let numbered: BTreeMap<Edge, (usize, u32)> = r
        .h_edges
        .iter()
        .copied()
        .zip(r.mult.iter().copied().enumerate())
        .collect();
    for u in 0..=k {
        for v in 0..=k {
            let want = numbered.get(&(u.min(v), u.max(v)));
            prop_assert!(
                g.link_multiplicity(u, v) == want.map_or(0, |&(_, m)| m as usize),
                "{}: link_multiplicity({}, {})",
                ctx,
                u,
                v
            );
            prop_assert!(
                g.edge_index(u, v) == want.map(|&(i, _)| i),
                "{}: edge_index({}, {})",
                ctx,
                u,
                v
            );
        }
    }
    for v in 0..k {
        prop_assert!(
            g.neighbors(v) == &r.neighbors[v][..],
            "{}: neighbors({})",
            ctx,
            v
        );
        prop_assert!(
            g.incident_links(v) == r.incident[v],
            "{}: incident_links({})",
            ctx,
            v
        );
        let t = g.support(v);
        let (machines, parents, height) = &r.trees[v];
        prop_assert!(
            t.machines == &machines[..] && t.parents == &parents[..] && t.height == *height,
            "{}: support({})",
            ctx,
            v
        );
        prop_assert_eq!(t.leader(), machines[0]);
    }
    prop_assert_eq!(
        g.dilation(),
        r.trees.iter().map(|t| t.2).max().unwrap_or(0).max(1)
    );
    Ok(())
}

/// Clusters of one machine, stars of three, or paths of four, joined by
/// up to `links` parallel links per `H`-edge.
fn laid_out(spec: WorkloadSpec, layout: usize, links: usize) -> WorkloadSpec {
    let layout = [Layout::Singleton, Layout::Star(3), Layout::Path(4)][layout];
    spec.with_layout(layout).with_links(links)
}

/// Builds `spec`, checks the views, then applies a churn schedule batch by
/// batch, tracking the machine edge set beside the graph and checking the
/// views after each batch.
fn check_instance(
    spec: WorkloadSpec,
    batches: usize,
    batch_size: usize,
    churn_seed: u64,
    threads: usize,
) -> Result<(), TestCaseError> {
    let mut g = spec.build();
    let comm = g.comm();
    let mut edges: BTreeSet<Edge> = (0..comm.n_machines())
        .flat_map(|a| {
            comm.neighbors(a)
                .iter()
                .filter(move |&&b| a < b)
                .map(move |&b| (a, b))
        })
        .collect();
    check_views(&g, &edges, &format!("{spec}"))?;
    let schedule = ChurnSpec::balanced(spec, batches, batch_size, churn_seed).schedule(&g);
    let par = ParallelConfig::with_threads(threads);
    for (i, batch) in schedule.iter().enumerate() {
        g.apply_delta_with(batch, &par)
            .expect("churn schedules apply cleanly");
        edges.extend(batch.inserts());
        for e in batch.deletes() {
            edges.remove(e);
        }
        check_views(&g, &edges, &format!("{spec} after batch {i}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn gnp_views_match_reference(
        n in 20usize..90,
        p in 0.03f64..0.15,
        seed in 0u64..1 << 32,
        layout in 0usize..3,
        links in 1usize..4,
        batches in 1usize..4,
        batch_size in 4usize..30,
        churn_seed in 0u64..1 << 32,
        threads in 1usize..5,
    ) {
        let spec = laid_out(WorkloadSpec::gnp(n, p, seed), layout, links);
        check_instance(spec, batches, batch_size, churn_seed, threads)?;
    }

    #[test]
    fn power_law_views_match_reference(
        n in 20usize..90,
        beta in 2.1f64..3.0,
        seed in 0u64..1 << 32,
        layout in 0usize..3,
        links in 1usize..4,
        batches in 1usize..4,
        batch_size in 4usize..30,
        churn_seed in 0u64..1 << 32,
        threads in 1usize..5,
    ) {
        let spec = laid_out(WorkloadSpec::power_law(n, beta, 6.0, seed), layout, links);
        check_instance(spec, batches, batch_size, churn_seed, threads)?;
    }

    #[test]
    fn contraction_views_match_reference(
        side in 6usize..14,
        seed in 0u64..1 << 32,
        batches in 1usize..4,
        batch_size in 4usize..30,
        churn_seed in 0u64..1 << 32,
        threads in 1usize..5,
    ) {
        let spec = WorkloadSpec::contraction(side, 2, 6, seed);
        check_instance(spec, batches, batch_size, churn_seed, threads)?;
    }
}
