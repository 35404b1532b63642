//! E2 — Theorem 1.1 shape: low-degree rounds grow ~polyloglog in `n`;
//! shattering leaves `O(Δ² log_Δ n)`-sized components (§9.1).
//!
//! One shatter round (the default rounds color every vertex of these
//! instances) leaves components for the §9.4 list-coloring finisher;
//! every row asserts that it ran.

use cgc_bench::{f3, Table};
use cgc_core::SessionBuilder;
use cgc_graphs::WorkloadSpec;

fn main() {
    let mut t = Table::new(
        "E2: low-degree path — rounds & shattering vs n (average degree 8)",
        &[
            "n",
            "delta",
            "H_rounds",
            "shatter_col",
            "n_comp",
            "max_comp",
            "finish_rounds",
            "fallback",
        ],
    );
    for n in [128usize, 256, 512, 1024, 2048, 4096] {
        let spec = WorkloadSpec::gnp(n, 8.0 / n as f64, 2000 + n as u64);
        let mut session = SessionBuilder::new(spec).build();
        // A huge Δ_low forces the §9 path for the whole sweep.
        session.params_mut().delta_low = 1 << 20;
        session.params_mut().shatter_rounds = 1;
        let mut h_rounds = 0.0;
        let mut sc = 0usize;
        let mut nc = 0usize;
        let mut mc = 0usize;
        let mut fr = 0usize;
        let mut fb = 0usize;
        let reps = 3;
        for rep in 0..reps {
            let out = session.run(40 + rep);
            h_rounds += out.run.report.h_rounds as f64;
            let ld = out.run.stats.lowdeg.expect("low-degree path");
            sc += ld.shatter_colored;
            nc += ld.n_components;
            mc = mc.max(ld.max_component);
            fr += ld.finish_rounds;
            fb += ld.fallback + out.run.stats.fallback_colored;
            assert!(
                ld.n_components > 0 && ld.finish_rounds > 0,
                "{spec} seed {}: the list-coloring finisher did not run: {ld:?}",
                40 + rep
            );
        }
        let r = reps as f64;
        t.row_for(
            &spec,
            vec![
                n.to_string(),
                session.graph().max_degree().to_string(),
                f3(h_rounds / r),
                f3(sc as f64 / r),
                f3(nc as f64 / r),
                mc.to_string(),
                f3(fr as f64 / r),
                fb.to_string(),
            ],
        );
    }
    t.print();
}
