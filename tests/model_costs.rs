//! Cost-model invariants: the meter's accounting must be internally
//! consistent and reflect the §3.2 round structure for any run.

use cluster_coloring::prelude::*;

fn run(h: &ClusterGraph, seed: u64, beta: u64) -> RunResult {
    let mut net = ClusterNet::with_log_budget_parallel(h, beta, ParallelConfig::from_env());
    color_cluster_graph_with(
        &mut net,
        &Params::laptop(h.n_vertices()),
        seed,
        DriverOptions::default(),
    )
}

#[test]
fn phase_costs_sum_to_totals() {
    let (spec, _) = cabal_spec(2, 20, 2, 3, 51);
    let h = realize(&spec, Layout::Star(3), 1, 51);
    let r = run(&h, 1, 32).report;
    let h_sum: u64 = r.phases.values().map(|p| p.h_rounds).sum();
    let g_sum: u64 = r.phases.values().map(|p| p.g_rounds).sum();
    let bits_sum: u128 = r.phases.values().map(|p| p.bits).sum();
    assert_eq!(h_sum, r.h_rounds);
    assert_eq!(g_sum, r.g_rounds);
    assert_eq!(bits_sum, r.bits);
    let max_phase = r.phases.values().map(|p| p.max_msg_bits).max().unwrap();
    assert_eq!(max_phase, r.max_msg_bits);
}

#[test]
fn g_rounds_dominate_h_rounds() {
    for layout in [Layout::Singleton, Layout::Path(5), Layout::BinaryTree(7)] {
        let spec = gnp_spec(50, 0.1, 52);
        let h = realize(&spec, layout, 1, 52);
        let r = run(&h, 2, 32).report;
        assert!(
            r.g_rounds >= r.h_rounds,
            "G-rounds {} < H-rounds {} under {layout:?}",
            r.g_rounds,
            r.h_rounds
        );
        if h.dilation() == 1 {
            assert_eq!(r.g_rounds, r.h_rounds, "dilation 1 means G = H");
        }
    }
}

#[test]
fn smaller_budget_never_reduces_rounds() {
    let (spec, _) = cabal_spec(2, 18, 1, 2, 53);
    let h = realize(&spec, Layout::Singleton, 1, 53);
    let wide = run(&h, 3, 128).report;
    let tight = run(&h, 3, 2).report;
    assert!(
        tight.h_rounds >= wide.h_rounds,
        "tight budget {} rounds < wide budget {} rounds",
        tight.h_rounds,
        tight.h_rounds
    );
    // Identical logical work: same total bits moved.
    assert_eq!(tight.bits, wide.bits);
}

#[test]
fn budget_is_beta_times_log_n() {
    let spec = gnp_spec(30, 0.1, 54);
    let h = realize(&spec, Layout::Singleton, 1, 54);
    let net = ClusterNet::with_log_budget(&h, 16);
    let logn = (usize::BITS - h.n_machines().leading_zeros()) as u64;
    assert_eq!(net.meter.budget_bits(), 16 * logn);
}

#[test]
fn report_is_deterministic() {
    let (spec, _) = cabal_spec(2, 16, 1, 2, 55);
    let h = realize(&spec, Layout::Path(3), 2, 55);
    let a = run(&h, 9, 32).report;
    let b = run(&h, 9, 32).report;
    assert_eq!(a, b);
}

#[test]
fn greedy_costs_scale_with_n() {
    for n in [20usize, 40, 80] {
        let h = realize(&gnp_spec(n, 0.2, 56), Layout::Singleton, 1, 56);
        let mut net = ClusterNet::with_log_budget(&h, 32);
        let _ = greedy_coloring(&mut net);
        assert_eq!(net.meter.h_rounds(), 3 * n as u64, "n = {n}");
    }
}
