//! Round-robin arbitration for same-wavelength fairness (paper §III).
//!
//! "If there are more than one packets on this input wavelength, to ensure
//! fairness, a random selecting or a round-robin scheduling procedure should
//! be adopted as suggested in \[7\]\[8\]" — the iSLIP-style rotating-priority
//! arbiter. One arbiter per input wavelength selects which *fiber*'s packet
//! takes a granted wavelength slot; the pointer advances past the grantee so
//! repeated contention is served in rotation.

use crate::register::BitRegister;

/// A bank of rotating-priority (round-robin) arbiters, one per input
/// wavelength, each arbitrating over `n` input fibers.
#[derive(Debug, Clone)]
pub struct RoundRobinArbiter {
    n: usize,
    pointers: Vec<usize>,
}

impl RoundRobinArbiter {
    /// A bank of `k` arbiters over `n` fibers, pointers at fiber 0.
    pub fn new(n: usize, k: usize) -> RoundRobinArbiter {
        RoundRobinArbiter { n, pointers: vec![0; k] }
    }

    /// Number of fibers arbitrated over.
    pub fn fibers(&self) -> usize {
        self.n
    }

    /// The current pointer of wavelength `w`'s arbiter.
    pub fn pointer(&self, w: usize) -> usize {
        self.pointers[w]
    }

    /// Grants one requester for wavelength `w`: the first set bit in
    /// `requesters` at or after the pointer, wrapping around. Advances the
    /// pointer one past the grantee (iSLIP update rule).
    ///
    /// Returns the granted fiber, or `None` if no bit is set.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range or `requesters` is not `n` bits wide.
    pub fn grant(&mut self, w: usize, requesters: &BitRegister) -> Option<usize> {
        assert_eq!(requesters.width(), self.n, "requester register must be n bits");
        let ptr = self.pointers[w];
        let fiber = requesters.first_set_from(ptr).or_else(|| requesters.first_set())?;
        self.pointers[w] = (fiber + 1) % self.n;
        Some(fiber)
    }

    /// Resets every pointer to fiber 0.
    pub fn reset(&mut self) {
        self.pointers.iter_mut().for_each(|p| *p = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requesters(n: usize, bits: &[usize]) -> BitRegister {
        let mut r = BitRegister::new(n);
        for &b in bits {
            r.set(b);
        }
        r
    }

    #[test]
    fn rotates_among_persistent_requesters() {
        let mut arb = RoundRobinArbiter::new(4, 1);
        let reqs = requesters(4, &[0, 2, 3]);
        let grants: Vec<usize> = (0..6).map(|_| arb.grant(0, &reqs).unwrap()).collect();
        // Rotation: 0 → 2 → 3 → wrap 0 → 2 → 3.
        assert_eq!(grants, vec![0, 2, 3, 0, 2, 3]);
    }

    #[test]
    fn wraps_past_pointer() {
        let mut arb = RoundRobinArbiter::new(4, 1);
        let reqs = requesters(4, &[1]);
        assert_eq!(arb.grant(0, &reqs), Some(1));
        assert_eq!(arb.pointer(0), 2);
        // Only fiber 1 requests again; pointer is past it, must wrap.
        assert_eq!(arb.grant(0, &reqs), Some(1));
    }

    #[test]
    fn empty_requesters_yield_none() {
        let mut arb = RoundRobinArbiter::new(4, 2);
        assert_eq!(arb.grant(1, &BitRegister::new(4)), None);
        // Pointer unchanged on no grant.
        assert_eq!(arb.pointer(1), 0);
    }

    #[test]
    fn per_wavelength_pointers_are_independent() {
        let mut arb = RoundRobinArbiter::new(3, 2);
        let reqs = requesters(3, &[0, 1, 2]);
        assert_eq!(arb.grant(0, &reqs), Some(0));
        assert_eq!(arb.grant(0, &reqs), Some(1));
        // Wavelength 1's arbiter still starts at fiber 0.
        assert_eq!(arb.grant(1, &reqs), Some(0));
    }

    #[test]
    fn fairness_over_many_slots() {
        // Under persistent full load every fiber receives the same number of
        // grants (±1).
        let n = 5;
        let mut arb = RoundRobinArbiter::new(n, 1);
        let reqs = requesters(n, &[0, 1, 2, 3, 4]);
        let mut tally = vec![0usize; n];
        for _ in 0..5 * 100 {
            tally[arb.grant(0, &reqs).unwrap()] += 1;
        }
        assert!(tally.iter().all(|&t| t == 100), "tally: {tally:?}");
    }

    #[test]
    fn reset_restores_pointers() {
        let mut arb = RoundRobinArbiter::new(3, 1);
        let reqs = requesters(3, &[0, 1, 2]);
        let _ = arb.grant(0, &reqs);
        arb.reset();
        assert_eq!(arb.pointer(0), 0);
    }

    #[test]
    #[should_panic(expected = "n bits")]
    fn wrong_width_panics() {
        let mut arb = RoundRobinArbiter::new(3, 1);
        let _ = arb.grant(0, &BitRegister::new(4));
    }
}
