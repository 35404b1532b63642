//! Edge delta batches: validated, canonicalized insert/delete sets.
//!
//! A [`DeltaBatch`] is the mutation analogue of the bulk edge runs that
//! [`crate::CommGraph::from_edge_runs_with`] ingests: both lists pass
//! through the same sharded validate → canonicalize → sort/dedup →
//! k-way-merge pipeline ([`crate::canonical_edges`]), so a batch is a pair of canonical (`u < v`,
//! sorted, duplicate-free) edge sets with deterministic, earliest-in-input
//! error reporting at any thread count. Applying a batch replaces the edge
//! set `E` by `(E \ deletes) ∪ inserts`; inserting an edge that already
//! exists or deleting one that does not is a no-op, but listing the same
//! edge on both sides is rejected at construction
//! ([`NetError::ConflictingDelta`]) because the result would depend on
//! application order.

use crate::error::NetError;
use crate::graph::{canonical_edges, MachineId};
use crate::par::ParallelConfig;

/// A validated batch of edge insertions and deletions over `n` machines.
///
/// Both lists are canonical: `u < v`, sorted ascending, duplicate-free,
/// and disjoint from each other. Construct with [`DeltaBatch::new`] /
/// [`DeltaBatch::new_with`]; apply with
/// [`crate::CommGraph::apply_delta`].
///
/// # Example
///
/// ```
/// use cgc_net::{CommGraph, DeltaBatch};
/// let mut g = CommGraph::path(4); // 0-1-2-3
/// let batch = DeltaBatch::new(4, &[(3, 0)], &[(1, 2)]).unwrap();
/// let effect = g.apply_delta(&batch).unwrap();
/// assert_eq!(effect.inserted, vec![(0, 3)]);
/// assert_eq!(effect.deleted, vec![(1, 2)]);
/// assert!(g.has_link(0, 3) && !g.has_link(1, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaBatch {
    n: usize,
    inserts: Vec<(MachineId, MachineId)>,
    deletes: Vec<(MachineId, MachineId)>,
}

impl DeltaBatch {
    /// Builds a batch from raw (unordered, possibly duplicated) insert and
    /// delete edge lists, serially.
    ///
    /// # Errors
    ///
    /// [`NetError::EmptyGraph`] when `n == 0`;
    /// [`NetError::MachineOutOfRange`] / [`NetError::SelfLoop`] for the
    /// earliest invalid edge (inserts are checked before deletes);
    /// [`NetError::ConflictingDelta`] for the smallest canonical edge
    /// listed on both sides.
    pub fn new(
        n: usize,
        inserts: &[(MachineId, MachineId)],
        deletes: &[(MachineId, MachineId)],
    ) -> Result<Self, NetError> {
        Self::new_with(n, inserts, deletes, &ParallelConfig::serial())
    }

    /// [`Self::new`] with validation, canonicalization and sort/dedup
    /// sharded over `par`'s threads — the result (and, on invalid input,
    /// the reported error) is identical to the serial path at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// As [`Self::new`].
    pub fn new_with(
        n: usize,
        inserts: &[(MachineId, MachineId)],
        deletes: &[(MachineId, MachineId)],
        par: &ParallelConfig,
    ) -> Result<Self, NetError> {
        if n == 0 {
            return Err(NetError::EmptyGraph);
        }
        let inserts = canonical_edges(n, &[inserts], par)?;
        let deletes = canonical_edges(n, &[deletes], par)?;
        // Both lists are sorted, so the intersection check is one linear
        // two-pointer walk; the smallest common edge is reported.
        let (mut i, mut d) = (0usize, 0usize);
        while i < inserts.len() && d < deletes.len() {
            match inserts[i].cmp(&deletes[d]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => d += 1,
                std::cmp::Ordering::Equal => {
                    let (u, v) = inserts[i];
                    return Err(NetError::ConflictingDelta { u, v });
                }
            }
        }
        Ok(DeltaBatch {
            n,
            inserts,
            deletes,
        })
    }

    /// The machine count the batch was validated against.
    #[inline]
    pub fn n_machines(&self) -> usize {
        self.n
    }

    /// Canonical (`u < v`, sorted, deduplicated) insert list.
    #[inline]
    pub fn inserts(&self) -> &[(MachineId, MachineId)] {
        &self.inserts
    }

    /// Canonical (`u < v`, sorted, deduplicated) delete list.
    #[inline]
    pub fn deletes(&self) -> &[(MachineId, MachineId)] {
        &self.deletes
    }

    /// Total number of edges named by the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether the batch names no edges at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Approximate heap footprint in bytes (element counts × element
    /// sizes, like [`crate::CommGraph::approx_heap_bytes`]). Used by the
    /// serve-layer delta history accounting.
    pub fn approx_heap_bytes(&self) -> usize {
        std::mem::size_of_val(&self.inserts[..]) + std::mem::size_of_val(&self.deletes[..])
    }
}

/// The *effective* mutation an applied batch performed: the canonical
/// edges actually added (listed inserts that were absent) and actually
/// removed (listed deletes that were present). No-op entries are filtered
/// out, so higher layers can propagate exactly the real change.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeltaEffect {
    /// Canonical edges newly present after the batch.
    pub inserted: Vec<(MachineId, MachineId)>,
    /// Canonical edges removed by the batch.
    pub deleted: Vec<(MachineId, MachineId)>,
}

impl DeltaEffect {
    /// Whether the batch changed the edge set at all.
    #[inline]
    pub fn is_noop(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }

    /// Number of edges actually changed (inserted + deleted).
    #[inline]
    pub fn len(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }

    /// Whether nothing changed — alias of [`Self::is_noop`] for the
    /// conventional pairing with [`Self::len`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.is_noop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalizes_and_dedups_both_lists() {
        let b = DeltaBatch::new(5, &[(3, 1), (1, 3), (0, 4)], &[(2, 0), (0, 2)]).unwrap();
        assert_eq!(b.inserts(), &[(0, 4), (1, 3)]);
        assert_eq!(b.deletes(), &[(0, 2)]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
    }

    #[test]
    fn rejects_invalid_edges_inserts_first() {
        assert!(matches!(
            DeltaBatch::new(3, &[(0, 5)], &[(1, 1)]),
            Err(NetError::MachineOutOfRange { machine: 5, n: 3 })
        ));
        assert!(matches!(
            DeltaBatch::new(3, &[(0, 1)], &[(2, 2)]),
            Err(NetError::SelfLoop { machine: 2 })
        ));
        assert!(matches!(
            DeltaBatch::new(0, &[], &[]),
            Err(NetError::EmptyGraph)
        ));
    }

    #[test]
    fn rejects_conflicting_edge_in_both_lists() {
        // (2, 1) inserts vs (1, 2) deletes: same canonical edge.
        let err = DeltaBatch::new(4, &[(0, 3), (2, 1)], &[(1, 2)]).unwrap_err();
        assert_eq!(err, NetError::ConflictingDelta { u: 1, v: 2 });
    }

    #[test]
    fn sharded_construction_matches_serial() {
        let _serial = crate::par::pool_test_lock();
        let ins: Vec<_> = (0..200).map(|i| (i % 40, (i * 7 + 1) % 40)).collect();
        let del: Vec<_> = (0..100).map(|i| (i % 37, (i * 11 + 2) % 37)).collect();
        let ins: Vec<_> = ins.into_iter().filter(|(u, v)| u != v).collect();
        let del: Vec<_> = del.into_iter().filter(|(u, v)| u != v).collect();
        // Delete list shifted out of the insert range so the two stay
        // disjoint after canonicalization.
        let del: Vec<_> = del.iter().map(|&(u, v)| (u + 40, v + 40)).collect();
        let reference = DeltaBatch::new(100, &ins, &del).unwrap();
        for threads in [2, 4, 8] {
            let got = DeltaBatch::new_with(100, &ins, &del, &ParallelConfig::with_threads(threads))
                .unwrap();
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn sharded_error_is_earliest_in_input_order() {
        let _serial = crate::par::pool_test_lock();
        let mut ins: Vec<_> = (0..300).map(|i| (i % 50, (i * 3 + 1) % 50)).collect();
        ins.retain(|(u, v)| u != v);
        ins[20] = (7, 7); // earliest bad edge
        ins[250] = (0, 999); // later bad edge
        for threads in [1, 2, 4, 8] {
            let err = DeltaBatch::new_with(50, &ins, &[], &ParallelConfig::with_threads(threads))
                .unwrap_err();
            assert!(
                matches!(err, NetError::SelfLoop { machine: 7 }),
                "threads={threads}: {err:?}"
            );
        }
    }
}
