//! Round and bandwidth accounting.
//!
//! The paper's cost model (§3.2) counts synchronous rounds in which every
//! link of the communication network carries at most `O(log n)` bits. A
//! cluster-level round ("H-round") consists of a broadcast on each support
//! tree, computation on inter-cluster links, and a converge-cast back — at
//! most `O(d)` network rounds ("G-rounds") where `d` is the dilation.
//!
//! [`CostMeter`] tracks both axes plus bit traffic, and charges *pipelining
//! penalties* automatically: a message of `b` bits occupies
//! `ceil(b / budget)` consecutive sub-rounds of its link. Algorithms that
//! exceed the `O(log n)` budget therefore pay for it in rounds instead of
//! silently cheating — this is how the harness verifies Theorem 1.2's
//! bandwidth claim empirically.

use std::collections::BTreeMap;

/// Per-phase accumulated cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCost {
    /// Cluster-level rounds charged in this phase.
    pub h_rounds: u64,
    /// Network-level rounds charged in this phase.
    pub g_rounds: u64,
    /// Total bits sent across all links in this phase.
    pub bits: u128,
    /// Largest single message observed in this phase.
    pub max_msg_bits: u64,
}

/// A snapshot of everything the meter has seen.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostReport {
    /// Total cluster-level rounds.
    pub h_rounds: u64,
    /// Total network-level rounds.
    pub g_rounds: u64,
    /// Total bits sent across all links.
    pub bits: u128,
    /// Largest single message ever sent.
    pub max_msg_bits: u64,
    /// The per-link per-round bit budget the run was configured with.
    pub budget_bits: u64,
    /// Number of messages that exceeded the budget (each was pipelined).
    pub oversized_msgs: u64,
    /// Cost broken down by phase label.
    pub phases: BTreeMap<String, PhaseCost>,
}

impl CostReport {
    /// Whether every message fit the single-round budget.
    pub fn within_budget(&self) -> bool {
        self.oversized_msgs == 0
    }
}

/// Accumulates rounds and bandwidth for one algorithm execution.
///
/// # Example
///
/// ```
/// use cgc_net::CostMeter;
/// let mut m = CostMeter::new(32);
/// m.set_phase("demo");
/// let sub = m.charge_messages(80, 1); // 80 bits on a 32-bit budget
/// assert_eq!(sub, 3);                 // pipelined over ceil(80/32) = 3 sub-rounds
/// m.charge_rounds(sub, sub * 4);
/// assert_eq!(m.report().h_rounds, 3);
/// ```
#[derive(Debug, Clone)]
pub struct CostMeter {
    budget_bits: u64,
    h_rounds: u64,
    g_rounds: u64,
    bits: u128,
    max_msg_bits: u64,
    oversized_msgs: u64,
    /// Flushed per-phase tallies; the active phase lives in `current`.
    phases: BTreeMap<String, PhaseCost>,
    current_phase: String,
    /// Accumulator for the active phase — charges are plain arithmetic on
    /// this struct, with no map lookup or string traffic per charge.
    current: PhaseCost,
}

impl CostMeter {
    /// Creates a meter with the given per-link per-round bit budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget_bits == 0`.
    pub fn new(budget_bits: u64) -> Self {
        assert!(budget_bits > 0, "bandwidth budget must be positive");
        CostMeter {
            budget_bits,
            h_rounds: 0,
            g_rounds: 0,
            bits: 0,
            max_msg_bits: 0,
            oversized_msgs: 0,
            phases: BTreeMap::new(),
            current_phase: "init".to_owned(),
            current: PhaseCost::default(),
        }
    }

    /// The configured per-link per-round budget in bits.
    #[inline]
    pub fn budget_bits(&self) -> u64 {
        self.budget_bits
    }

    /// Sets the label under which subsequent costs are recorded. Reentering
    /// a phase resumes its tally. Only this switch touches the phase map —
    /// individual charges are constant-time arithmetic.
    pub fn set_phase(&mut self, phase: &str) {
        if phase == self.current_phase {
            return;
        }
        self.flush_current();
        self.current = self.phases.get(phase).copied().unwrap_or_default();
        self.current_phase.clear();
        self.current_phase.push_str(phase);
    }

    /// Currently active phase label.
    pub fn phase(&self) -> &str {
        &self.current_phase
    }

    /// Writes the active accumulator back into the phase map.
    fn flush_current(&mut self) {
        if self.current != PhaseCost::default() {
            self.phases.insert(self.current_phase.clone(), self.current);
        }
    }

    /// Records `count` messages of `bits_each` bits and returns the
    /// sub-rounds one of them occupies (`ceil(bits_each / budget)`,
    /// minimum 1). Repeated batches charge as one batch of their total
    /// count.
    pub fn charge_messages(&mut self, bits_each: u64, count: u64) -> u64 {
        if count == 0 {
            return 1;
        }
        self.bits += u128::from(bits_each) * u128::from(count);
        if bits_each > self.max_msg_bits {
            self.max_msg_bits = bits_each;
        }
        let budget = self.budget_bits;
        self.current.bits += u128::from(bits_each) * u128::from(count);
        if bits_each > self.current.max_msg_bits {
            self.current.max_msg_bits = bits_each;
        }
        let sub = bits_each.div_ceil(budget).max(1);
        if sub > 1 {
            self.oversized_msgs += count;
        }
        sub
    }

    /// Adds `h` cluster-level rounds and `g` network-level rounds.
    pub fn charge_rounds(&mut self, h: u64, g: u64) {
        self.h_rounds += h;
        self.g_rounds += g;
        self.current.h_rounds += h;
        self.current.g_rounds += g;
    }

    /// Total cluster-level rounds so far.
    #[inline]
    pub fn h_rounds(&self) -> u64 {
        self.h_rounds
    }

    /// Total network-level rounds so far.
    #[inline]
    pub fn g_rounds(&self) -> u64 {
        self.g_rounds
    }

    /// Takes a snapshot of all counters.
    pub fn report(&self) -> CostReport {
        let mut phases = self.phases.clone();
        if self.current != PhaseCost::default() {
            phases.insert(self.current_phase.clone(), self.current);
        }
        CostReport {
            h_rounds: self.h_rounds,
            g_rounds: self.g_rounds,
            bits: self.bits,
            max_msg_bits: self.max_msg_bits,
            budget_bits: self.budget_bits,
            oversized_msgs: self.oversized_msgs,
            phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_within_budget_is_one_subround() {
        let mut m = CostMeter::new(64);
        assert_eq!(m.charge_messages(64, 1), 1);
        assert_eq!(m.charge_messages(1, 1), 1);
        assert_eq!(m.charge_messages(0, 1), 1);
        assert_eq!(m.report().oversized_msgs, 0);
    }

    #[test]
    fn oversized_message_is_pipelined() {
        let mut m = CostMeter::new(10);
        assert_eq!(m.charge_messages(25, 1), 3);
        let r = m.report();
        assert_eq!(r.oversized_msgs, 1);
        assert_eq!(r.max_msg_bits, 25);
        assert!(!r.within_budget());
    }

    #[test]
    fn phases_accumulate_independently() {
        let mut m = CostMeter::new(8);
        m.set_phase("a");
        m.charge_messages(8, 1);
        m.charge_rounds(1, 3);
        m.set_phase("b");
        m.charge_messages(4, 10);
        m.charge_rounds(2, 6);
        let r = m.report();
        assert_eq!(r.phases["a"].h_rounds, 1);
        assert_eq!(r.phases["a"].bits, 8);
        assert_eq!(r.phases["b"].bits, 40);
        assert_eq!(r.phases["b"].g_rounds, 6);
        assert_eq!(r.h_rounds, 3);
        assert_eq!(r.g_rounds, 9);
        assert_eq!(r.bits, 48);
    }

    #[test]
    fn repeated_batches_match_a_loop_of_batches() {
        for (bits, count, repeats) in [(4u64, 3u64, 5u64), (25, 2, 7), (0, 4, 2)] {
            let mut bulk = CostMeter::new(8);
            let sub_bulk = bulk.charge_messages(bits, count * repeats);
            let mut looped = CostMeter::new(8);
            let mut sub_loop = 1;
            for _ in 0..repeats {
                sub_loop = looped.charge_messages(bits, count);
            }
            assert_eq!(sub_bulk, sub_loop);
            assert_eq!(bulk.report().bits, looped.report().bits);
            assert_eq!(bulk.report().oversized_msgs, looped.report().oversized_msgs);
            assert_eq!(bulk.report().max_msg_bits, looped.report().max_msg_bits);
        }
    }

    #[test]
    fn charge_messages_zero_count_is_noop_round() {
        let mut m = CostMeter::new(8);
        assert_eq!(m.charge_messages(100, 0), 1);
        assert_eq!(m.report().bits, 0);
        assert_eq!(m.report().oversized_msgs, 0);
    }

    #[test]
    #[should_panic(expected = "bandwidth budget must be positive")]
    fn zero_budget_panics() {
        let _ = CostMeter::new(0);
    }
}
