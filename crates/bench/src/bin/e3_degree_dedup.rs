//! E3 — Figure 1 / §1.1: link-counting "degrees" overestimate true cluster
//! degrees by up to the link multiplicity; the deduplicated aggregation
//! computes them exactly in O(1) rounds.

use cgc_bench::{f3, Table};
use cgc_core::Session;
use cgc_graphs::{Layout, WorkloadSpec};

fn main() {
    let mut t = Table::new(
        "E3: exact vs naive link-count degree (multi-link layouts)",
        &[
            "links_per_edge",
            "layout",
            "max_exact",
            "max_naive",
            "avg_overcount",
            "rounds_exact",
        ],
    );
    for links in [1usize, 2, 4, 8] {
        for (name, layout) in [("star4", Layout::Star(4)), ("path4", Layout::Path(4))] {
            let spec = WorkloadSpec::gnp(80, 0.1, 5 + links as u64)
                .with_layout(layout)
                .with_links(links);
            let session = Session::builder(spec).build();
            let mut net = session.make_net();
            let h0 = net.meter.h_rounds();
            let mut exact = Vec::new();
            net.exact_degrees_into(&mut exact);
            let rounds = net.meter.h_rounds() - h0;
            let naive = net.naive_link_degrees();
            let max_exact = *exact.iter().max().unwrap();
            let max_naive = *naive.iter().max().unwrap();
            let over: f64 = exact
                .iter()
                .zip(&naive)
                .map(|(&e, &nv)| nv as f64 / e.max(1) as f64)
                .sum::<f64>()
                / exact.len() as f64;
            t.row_for(
                &spec,
                vec![
                    links.to_string(),
                    name.to_owned(),
                    max_exact.to_string(),
                    max_naive.to_string(),
                    f3(over),
                    rounds.to_string(),
                ],
            );
        }
    }
    t.print();
}
