//! Resolving wavelength-level schedules to concrete requests.
//!
//! The matching algorithms decide *how many* requests per input wavelength
//! are granted on each output fiber and which output channels they get —
//! requests on the same wavelength are interchangeable for throughput. This
//! module picks *which* requests win, with per-(output fiber, wavelength)
//! round-robin pointers over the source fibers for long-run fairness
//! (paper §III, following iSLIP \[7\]\[8\]).

use wdm_core::algorithms::Assignment;

use crate::connection::{ConnectionRequest, Grant};

/// Round-robin resolver for one output fiber.
///
/// The bucket/cursor scratch lives in the resolver so steady-state
/// resolution allocates nothing — this runs once per fiber per slot.
#[derive(Debug, Clone)]
pub struct GrantResolver {
    n: usize,
    /// One rotating pointer per input wavelength.
    pointers: Vec<usize>,
    /// Per-wavelength candidate buckets, reused across slots.
    buckets: Vec<Vec<usize>>,
    /// Next unserved entry of each bucket, reused across slots.
    next_in_bucket: Vec<usize>,
    /// Which candidates were granted, reused across slots.
    taken: Vec<bool>,
}

impl GrantResolver {
    /// A resolver over `n` source fibers and `k` wavelengths, pointers at
    /// fiber 0.
    pub fn new(n: usize, k: usize) -> GrantResolver {
        GrantResolver {
            n,
            pointers: vec![0; k],
            buckets: vec![Vec::new(); k],
            next_in_bucket: vec![0; k],
            taken: Vec::new(),
        }
    }

    /// The current pointer for `wavelength`.
    pub fn pointer(&self, wavelength: usize) -> usize {
        self.pointers[wavelength]
    }

    /// Resolves the wavelength-level `assignments` for this output fiber to
    /// concrete requests drawn from `candidates` (all destined to this
    /// fiber). Returns the grants and the indices of `candidates` left
    /// ungranted.
    ///
    /// Candidates are matched to assignments of their wavelength in
    /// round-robin order by source fiber, starting at the wavelength's
    /// pointer.
    pub fn resolve(
        &mut self,
        assignments: &[Assignment],
        candidates: &[ConnectionRequest],
    ) -> (Vec<Grant>, Vec<usize>) {
        let mut grants = Vec::with_capacity(assignments.len());
        let mut contention = Vec::new();
        self.resolve_into(assignments, candidates, &mut grants, &mut contention);
        let leftovers = (0..candidates.len()).filter(|&i| !self.taken[i]).collect();
        (grants, leftovers)
    }

    /// [`Self::resolve`] writing into caller-provided buffers: `grants` and
    /// `contention` are cleared and refilled (`contention` receives the
    /// ungranted candidates themselves, in candidate order). Allocation-free
    /// at steady state — this is the per-slot production path.
    pub fn resolve_into(
        &mut self,
        assignments: &[Assignment],
        candidates: &[ConnectionRequest],
        grants: &mut Vec<Grant>,
        contention: &mut Vec<ConnectionRequest>,
    ) {
        grants.clear();
        contention.clear();
        // Bucket candidates by wavelength once and sort each bucket in
        // round-robin order from the wavelength's current pointer. Because
        // the pointer always advances to (winner + 1), successive grants on
        // one wavelength take successive bucket entries, so serving each
        // bucket front-to-back reproduces the per-grant
        // min-(fiber − pointer) rule in O(C log C + A) instead of O(A·C).
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        for (i, c) in candidates.iter().enumerate() {
            self.buckets[c.src_wavelength].push(i);
        }
        for (w, bucket) in self.buckets.iter_mut().enumerate() {
            let ptr = self.pointers[w];
            bucket.sort_by_key(|&i| (candidates[i].src_fiber + self.n - ptr) % self.n);
        }
        self.next_in_bucket.fill(0);
        self.taken.clear();
        self.taken.resize(candidates.len(), false);
        for a in assignments {
            let cursor = &mut self.next_in_bucket[a.input];
            let Some(&idx) = self.buckets[a.input].get(*cursor) else {
                debug_assert!(false, "schedule granted more than requested on λ{}", a.input);
                continue;
            };
            *cursor += 1;
            self.taken[idx] = true;
            self.pointers[a.input] = (candidates[idx].src_fiber + 1) % self.n;
            grants.push(Grant { request: candidates[idx], output_wavelength: a.output });
        }
        contention.extend(
            candidates.iter().enumerate().filter(|&(i, _)| !self.taken[i]).map(|(_, c)| *c),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asg(input: usize, output: usize) -> Assignment {
        Assignment { input, output }
    }

    #[test]
    fn resolves_matching_wavelengths() {
        let mut r = GrantResolver::new(4, 4);
        let candidates = vec![
            ConnectionRequest::packet(2, 1, 0),
            ConnectionRequest::packet(0, 1, 0),
            ConnectionRequest::packet(1, 3, 0),
        ];
        let (grants, leftovers) = r.resolve(&[asg(1, 0), asg(3, 3)], &candidates);
        assert_eq!(grants.len(), 2);
        // Pointer at 0: fiber 0 wins λ1.
        assert_eq!(grants[0].request.src_fiber, 0);
        assert_eq!(grants[0].output_wavelength, 0);
        assert_eq!(grants[1].request.src_fiber, 1);
        assert_eq!(leftovers, vec![0], "fiber 2's λ1 request lost");
    }

    #[test]
    fn round_robin_across_calls() {
        let mut r = GrantResolver::new(3, 1);
        let candidates = vec![
            ConnectionRequest::packet(0, 0, 0),
            ConnectionRequest::packet(1, 0, 0),
            ConnectionRequest::packet(2, 0, 0),
        ];
        // One grant per slot, persistent contention: winners rotate.
        let mut winners = Vec::new();
        for _ in 0..6 {
            let (grants, _) = r.resolve(&[asg(0, 0)], &candidates);
            winners.push(grants[0].request.src_fiber);
        }
        assert_eq!(winners, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn two_grants_same_wavelength_take_distinct_fibers() {
        let mut r = GrantResolver::new(3, 1);
        let candidates = vec![
            ConnectionRequest::packet(0, 0, 0),
            ConnectionRequest::packet(1, 0, 0),
            ConnectionRequest::packet(2, 0, 0),
        ];
        let (grants, leftovers) = r.resolve(&[asg(0, 0), asg(0, 1)], &candidates);
        let fibers: Vec<usize> = grants.iter().map(|g| g.request.src_fiber).collect();
        assert_eq!(fibers, vec![0, 1]);
        assert_eq!(leftovers, vec![2]);
    }

    #[test]
    fn empty_assignments_leave_all_candidates() {
        let mut r = GrantResolver::new(2, 2);
        let candidates = vec![ConnectionRequest::packet(0, 0, 0)];
        let (grants, leftovers) = r.resolve(&[], &candidates);
        assert!(grants.is_empty());
        assert_eq!(leftovers, vec![0]);
    }
}
