//! Indexed binary max-heap ordered by variable activity (VSIDS).
//!
//! The heap stores variable indices and supports `decrease`/`increase` key
//! updates in `O(log n)` via a position index, which a plain
//! `std::collections::BinaryHeap` cannot do.

/// A binary max-heap over `usize` keys with an external score array.
#[derive(Debug, Default, Clone)]
pub(crate) struct ActivityHeap {
    heap: Vec<usize>,
    /// `pos[k]` is the index of key `k` in `heap`, or `usize::MAX` if absent.
    pos: Vec<usize>,
}

const ABSENT: usize = usize::MAX;

impl ActivityHeap {
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        ActivityHeap::default()
    }

    /// Grows the position index to accommodate keys `< n`.
    pub(crate) fn reserve_keys(&mut self, n: usize) {
        if self.pos.len() < n {
            self.pos.resize(n, ABSENT);
        }
    }

    pub(crate) fn contains(&self, key: usize) -> bool {
        self.pos.get(key).copied().unwrap_or(ABSENT) != ABSENT
    }

    /// Inserts `key`; no-op if already present.
    pub(crate) fn insert(&mut self, key: usize, score: &[f64]) {
        self.reserve_keys(key + 1);
        if self.contains(key) {
            return;
        }
        self.pos[key] = self.heap.len();
        self.heap.push(key);
        self.sift_up(self.heap.len() - 1, score);
    }

    /// Removes and returns the key with the highest score.
    pub(crate) fn pop_max(&mut self, score: &[f64]) -> Option<usize> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last] = 0;
            self.sift_down(0, score);
        }
        Some(top)
    }

    /// Restores heap order after `key`'s score increased.
    pub(crate) fn increased(&mut self, key: usize, score: &[f64]) {
        if let Some(&p) = self.pos.get(key) {
            if p != ABSENT {
                self.sift_up(p, score);
            }
        }
    }

    /// Rebuilds the heap after all scores were rescaled uniformly.
    /// Uniform rescaling preserves order, so this is a no-op; provided for
    /// symmetry with solvers that use non-uniform decay.
    pub(crate) fn rescaled(&mut self) {}

    fn sift_up(&mut self, mut i: usize, score: &[f64]) {
        let key = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if score[self.heap[parent]] >= score[key] {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.pos[self.heap[i]] = i;
            i = parent;
        }
        self.heap[i] = key;
        self.pos[key] = i;
    }

    fn sift_down(&mut self, mut i: usize, score: &[f64]) {
        let key = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && score[self.heap[right]] > score[self.heap[left]] {
                right
            } else {
                left
            };
            if score[self.heap[child]] <= score[key] {
                break;
            }
            self.heap[i] = self.heap[child];
            self.pos[self.heap[i]] = i;
            i = child;
        }
        self.heap[i] = key;
        self.pos[key] = i;
    }

    #[cfg(test)]
    fn check_invariants(&self, score: &[f64]) {
        for (i, &k) in self.heap.iter().enumerate() {
            assert_eq!(self.pos[k], i);
            if i > 0 {
                assert!(score[self.heap[(i - 1) / 2]] >= score[k]);
            }
        }
    }
}

/// The *local* level of a two-level decision domain (gipsat-style): a
/// generation-stamped membership mark over the variables plus a private
/// activity heap holding the marked-and-unassigned ones.
///
/// The solver rebuilds the mark once per query (at
/// [`declare_roots`](crate::Solver::declare_roots), O(roots)) and then
/// enables/disables it per solve in O(1) — disabling is a flag flip in the
/// solver, re-enabling reuses the surviving heap, and replacing the domain
/// is a generation bump that invalidates every old stamp at once without
/// clearing the array. While enabled, branching pops the local heap first
/// and falls back to the global VSIDS heap only when no marked variable is
/// left unassigned, so the restriction can never make a query *less*
/// complete — it only reorders decisions (see DESIGN §3a).
#[derive(Debug, Default, Clone)]
pub(crate) struct DecisionDomain {
    /// `stamp[v] == gen` ⇔ `v` is in the current local domain.
    stamp: Vec<u32>,
    gen: u32,
    /// Members of the current generation (fixed at rebuild time).
    members: usize,
    /// Marked variables currently eligible for a local decision.
    heap: ActivityHeap,
}

impl DecisionDomain {
    /// Discards the current domain: bumps the generation (constant time —
    /// old stamps become stale rather than being cleared) and empties the
    /// local heap. On the (astronomically rare) generation wrap the stamp
    /// array is cleared outright, so a stamp from 2³² resets ago can never
    /// alias the fresh generation.
    pub(crate) fn reset(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.stamp.fill(0);
            self.gen = 1;
        }
        self.members = 0;
        self.heap = ActivityHeap::default();
    }

    /// Grows the stamp array to accommodate keys `< n`. New keys carry
    /// stamp 0, which `reset` guarantees is never a live generation.
    pub(crate) fn reserve_keys(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
    }

    /// Marks `key` as a member of the current domain. Returns `true` if it
    /// was not already marked this generation.
    pub(crate) fn add(&mut self, key: usize) -> bool {
        self.reserve_keys(key + 1);
        if self.stamp[key] == self.gen {
            return false;
        }
        self.stamp[key] = self.gen;
        self.members += 1;
        true
    }

    /// `true` iff `key` is marked in the current domain. An empty domain
    /// (never built, or reset and not repopulated) contains nothing — the
    /// guard also keeps the default stamp value from matching the default
    /// generation before the first `reset`.
    pub(crate) fn contains(&self, key: usize) -> bool {
        self.members != 0 && self.stamp.get(key).copied() == Some(self.gen)
    }

    /// Number of marked variables this generation.
    pub(crate) fn len(&self) -> usize {
        self.members
    }

    /// Makes `key` eligible for a local decision if (and only if) it is a
    /// member; no-op otherwise, so callers can offer every unassigned
    /// variable without checking membership first.
    pub(crate) fn enqueue(&mut self, key: usize, score: &[f64]) {
        if self.contains(key) {
            self.heap.insert(key, score);
        }
    }

    /// Pops the highest-activity member still queued locally, or `None`
    /// when the local level is exhausted (global fallback).
    pub(crate) fn pop(&mut self, score: &[f64]) -> Option<usize> {
        self.heap.pop_max(score)
    }

    /// Restores local-heap order after `key`'s score increased (no-op for
    /// non-members and members not currently queued).
    pub(crate) fn increased(&mut self, key: usize, score: &[f64]) {
        self.heap.increased(key, score);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_order_is_descending_by_score() {
        let score = vec![0.5, 3.0, 1.0, 2.0, 0.0];
        let mut h = ActivityHeap::new();
        for k in 0..score.len() {
            h.insert(k, &score);
            h.check_invariants(&score);
        }
        let mut out = Vec::new();
        while let Some(k) = h.pop_max(&score) {
            out.push(k);
        }
        assert_eq!(out, vec![1, 3, 2, 0, 4]);
    }

    #[test]
    fn reinsert_after_pop() {
        let score = vec![1.0, 2.0];
        let mut h = ActivityHeap::new();
        h.insert(0, &score);
        h.insert(1, &score);
        assert_eq!(h.pop_max(&score), Some(1));
        assert!(!h.contains(1));
        h.insert(1, &score);
        assert!(h.contains(1));
        assert_eq!(h.pop_max(&score), Some(1));
    }

    #[test]
    fn duplicate_insert_ignored() {
        let score = vec![1.0];
        let mut h = ActivityHeap::new();
        h.insert(0, &score);
        h.insert(0, &score);
        assert_eq!(h.pop_max(&score), Some(0));
        assert_eq!(h.pop_max(&score), None);
    }

    #[test]
    fn increased_restores_order() {
        let mut score = vec![1.0, 2.0, 3.0];
        let mut h = ActivityHeap::new();
        for k in 0..3 {
            h.insert(k, &score);
        }
        score[0] = 10.0;
        h.increased(0, &score);
        h.check_invariants(&score);
        assert_eq!(h.pop_max(&score), Some(0));
    }

    #[test]
    fn decision_domain_marks_and_pops_members_only() {
        let score = vec![1.0, 4.0, 2.0, 3.0];
        let mut d = DecisionDomain::default();
        // Untouched domain: nothing is a member, nothing enqueues.
        assert!(!d.contains(0));
        d.enqueue(0, &score);
        assert_eq!(d.pop(&score), None);
        d.reset();
        assert!(d.add(1));
        assert!(d.add(3));
        assert!(!d.add(3), "re-marking is idempotent");
        assert_eq!(d.len(), 2);
        assert!(d.contains(1) && d.contains(3));
        assert!(!d.contains(0) && !d.contains(2));
        for k in 0..4 {
            d.enqueue(k, &score); // non-members silently skipped
        }
        assert_eq!(d.pop(&score), Some(1));
        assert_eq!(d.pop(&score), Some(3));
        assert_eq!(d.pop(&score), None, "local level exhausted");
        // Members re-enter the local queue (backtracking), strangers don't.
        d.enqueue(3, &score);
        d.enqueue(2, &score);
        assert_eq!(d.pop(&score), Some(3));
        assert_eq!(d.pop(&score), None);
    }

    #[test]
    fn decision_domain_reset_invalidates_old_generation() {
        let score = vec![1.0, 2.0];
        let mut d = DecisionDomain::default();
        d.reset();
        d.add(0);
        d.enqueue(0, &score);
        d.reset();
        assert!(!d.contains(0), "stamps from the old generation are stale");
        assert_eq!(d.pop(&score), None, "the local heap empties on reset");
        d.add(1);
        assert!(d.contains(1) && !d.contains(0));
    }
}
