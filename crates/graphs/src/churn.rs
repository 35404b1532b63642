//! Seeded churn schedules: streams of edge delta batches over any
//! workload family.
//!
//! A [`ChurnSpec`] pairs a base [`WorkloadSpec`] with a deterministic
//! insert/delete schedule and is spec-addressable like everything else:
//! `churn:batches=8,size=64,ins=0.5,seed=5@gnp:n=400,p=0.02,seed=1`
//! round-trips through `Display`/`FromStr` exactly, so any churn
//! experiment row can be replayed from one string.
//!
//! Schedules are *safe by construction*: deletions draw only from
//! **inter-cluster** edges of the evolving graph (removing one can never
//! disconnect a cluster's induced subgraph, so every batch is guaranteed
//! to apply), while insertions draw uniformly from absent machine pairs —
//! intra-cluster inserts dirty their cluster's support tree, and inserted
//! inter-cluster edges join the future deletion pool. All randomness
//! flows from [`SeedStream`], one substream per batch.

use crate::workload::{Fields, WorkloadParseError, WorkloadSpec};
use cgc_cluster::ClusterGraph;
use cgc_net::{DeltaBatch, MachineId, SeedStream};
use rand::RngExt;
use std::collections::HashSet;
use std::fmt;
use std::str::FromStr;

/// Stage tag separating churn-schedule streams from every other consumer
/// of the master seed.
const CHURN_SALT: u64 = 0x6368_7572_6E00; // "churn"

/// A deterministic insert/delete schedule over a base workload.
///
/// # Example
///
/// ```
/// use cgc_graphs::ChurnSpec;
/// let spec: ChurnSpec = "churn:batches=4,size=16,ins=0.5,seed=7@gnp:n=120,p=0.05,seed=1"
///     .parse()
///     .unwrap();
/// assert_eq!(spec.batches, 4);
/// assert_eq!(
///     spec.to_string(),
///     "churn:batches=4,size=16,ins=0.5,seed=7@gnp:n=120,p=0.05,seed=1"
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// The workload the schedule mutates.
    pub base: WorkloadSpec,
    /// Number of delta batches in the schedule.
    pub batches: usize,
    /// Edges named per batch (inserts + deletes; a batch may fall short
    /// when the candidate pools run dry).
    pub batch_size: usize,
    /// Fraction of each batch that is insertions, in `[0, 1]`.
    pub insert_frac: f64,
    /// Master seed of the schedule (independent of the base's seed).
    pub seed: u64,
}

impl ChurnSpec {
    /// A schedule with an even insert/delete split.
    pub fn balanced(base: WorkloadSpec, batches: usize, batch_size: usize, seed: u64) -> Self {
        ChurnSpec {
            base,
            batches,
            batch_size,
            insert_frac: 0.5,
            seed,
        }
    }

    /// Generates the delta batches against a **built instance of the base
    /// workload**. The schedule tracks the evolving edge set, so batch
    /// `i + 1`'s candidates reflect batches `0..=i`; applying the batches
    /// in order to `g` (or any equal graph) always succeeds and never
    /// disconnects a cluster. Deterministic in `(spec, g)`.
    pub fn schedule(&self, g: &ClusterGraph) -> Vec<DeltaBatch> {
        let comm = g.comm();
        let n = comm.n_machines();
        let seeds = SeedStream::new(self.seed).child(CHURN_SALT);
        let mut present: HashSet<(MachineId, MachineId)> = comm.edges().collect();
        // Deletion pool: present inter-cluster edges, in a deterministic
        // order mutated only by index sampling and swap_remove.
        let mut inter: Vec<(MachineId, MachineId)> = comm
            .edges()
            .filter(|&(a, b)| g.cluster_of(a) != g.cluster_of(b))
            .collect();
        let n_ins = ((self.batch_size as f64) * self.insert_frac).round() as usize;
        let n_ins = n_ins.min(self.batch_size);
        let n_del = self.batch_size - n_ins;
        let mut out = Vec::with_capacity(self.batches);
        for b in 0..self.batches {
            let mut rng = seeds.rng_for(b as u64, 0);
            let mut inserts = Vec::with_capacity(n_ins);
            if n >= 2 {
                // Rejection-sample absent pairs; the cap bounds the walk
                // on dense graphs without breaking determinism.
                let mut tries = 0usize;
                while inserts.len() < n_ins && tries < 32 * self.batch_size + 64 {
                    tries += 1;
                    let a = rng.random_range(0..n);
                    let b2 = rng.random_range(0..n);
                    if a == b2 {
                        continue;
                    }
                    let e = (a.min(b2), a.max(b2));
                    if present.contains(&e) {
                        continue;
                    }
                    present.insert(e);
                    inserts.push(e);
                }
            }
            let mut deletes = Vec::with_capacity(n_del);
            while deletes.len() < n_del && !inter.is_empty() {
                let i = rng.random_range(0..inter.len());
                let e = inter.swap_remove(i);
                present.remove(&e);
                deletes.push(e);
            }
            // Inserted inter-cluster edges become deletion candidates for
            // later batches.
            for &(a, b2) in &inserts {
                if g.cluster_of(a) != g.cluster_of(b2) {
                    inter.push((a, b2));
                }
            }
            out.push(
                DeltaBatch::new(n, &inserts, &deletes)
                    .expect("schedule candidates are valid and disjoint by construction"),
            );
        }
        out
    }
}

impl fmt::Display for ChurnSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "churn:batches={},size={},ins={},seed={}@{}",
            self.batches,
            self.batch_size,
            crate::workload::fmt_f64(self.insert_frac),
            self.seed,
            self.base
        )
    }
}

impl FromStr for ChurnSpec {
    type Err = WorkloadParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let body = s.strip_prefix("churn:").ok_or_else(|| {
            WorkloadParseError(format!("expected `churn:key=value,...@base-spec`: `{s}`"))
        })?;
        let (own, base) = body.split_once('@').ok_or_else(|| {
            WorkloadParseError(format!("missing `@base-spec` in churn spec: `{s}`"))
        })?;
        let mut fields = Fields::parse(own)?;
        let batches = fields.take("batches")?;
        let batch_size = fields.take("size")?;
        let insert_frac: f64 = fields.take("ins")?;
        let seed = fields.take("seed")?;
        fields.finish()?;
        if !(0.0..=1.0).contains(&insert_frac) {
            return Err(WorkloadParseError(format!(
                "ins must be in [0, 1], got {insert_frac}"
            )));
        }
        let base: WorkloadSpec = base.parse()?;
        Ok(ChurnSpec {
            base,
            batches,
            batch_size,
            insert_frac,
            seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_string_round_trips() {
        let s = "churn:batches=6,size=32,ins=0.25,seed=9@powerlaw:n=200,beta=2.5,avg=6,seed=3";
        let spec: ChurnSpec = s.parse().unwrap();
        assert_eq!(spec.to_string(), s);
        assert_eq!(spec.batches, 6);
        assert_eq!(spec.insert_frac, 0.25);
        assert_eq!(
            spec.base.to_string(),
            "powerlaw:n=200,beta=2.5,avg=6,seed=3"
        );
    }

    #[test]
    fn bad_specs_rejected() {
        for bad in [
            "churn:batches=2,size=8,ins=0.5,seed=1", // no base
            "gnp:n=10,p=0.1,seed=1",                 // not churn
            "churn:batches=2,size=8,ins=1.5,seed=1@gnp:n=10,p=0.1,seed=1", // frac
            "churn:batches=2,size=8,ins=0.5,seed=1,extra=1@gnp:n=10,p=0.1,seed=1",
        ] {
            assert!(bad.parse::<ChurnSpec>().is_err(), "{bad}");
        }
    }

    #[test]
    fn schedule_is_deterministic_and_applies_cleanly() {
        let spec = ChurnSpec::balanced(WorkloadSpec::gnp(150, 0.04, 5), 5, 24, 77);
        let g0 = spec.base.build();
        let batches_a = spec.schedule(&g0);
        let batches_b = spec.schedule(&g0);
        assert_eq!(batches_a, batches_b);
        assert_eq!(batches_a.len(), 5);
        let mut g = g0.clone();
        for (i, batch) in batches_a.iter().enumerate() {
            assert!(!batch.is_empty(), "batch {i} empty");
            g.apply_delta(batch)
                .unwrap_or_else(|e| panic!("batch {i} failed: {e}"));
        }
        assert!(g.comm().edges().ne(g0.comm().edges()));
    }

    #[test]
    fn different_seeds_differ() {
        let base = WorkloadSpec::gnp(120, 0.05, 5);
        let g = base.build();
        let a = ChurnSpec::balanced(base, 3, 16, 1).schedule(&g);
        let b = ChurnSpec::balanced(base, 3, 16, 2).schedule(&g);
        assert_ne!(a, b);
    }

    #[test]
    fn deletes_only_inter_cluster_edges() {
        // Star(3) layout: clusters of several machines, so intra edges
        // exist and must never be deleted.
        let mut base = WorkloadSpec::gnp(80, 0.08, 9);
        base.layout = crate::Layout::Star(3);
        let g = base.build();
        let spec = ChurnSpec {
            base,
            batches: 4,
            batch_size: 30,
            insert_frac: 0.0,
            seed: 13,
        };
        for batch in spec.schedule(&g) {
            for &(a, b) in batch.deletes() {
                assert_ne!(g.cluster_of(a), g.cluster_of(b), "intra delete ({a},{b})");
            }
        }
    }
}
