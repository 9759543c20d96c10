//! Absorbing continuous-time Markov chains and mean time to absorption.
//!
//! A reliability model is a CTMC whose absorbing state is *data loss*; the
//! MTTDL from a start state is the expected time to absorption. By
//! first-step analysis the vector `T` of expected absorption times from
//! each transient state solves the linear system
//!
//! ```text
//! r(s)·T(s) − Σ_{s'≠s} rate(s→s')·T(s') = 1        (r = total outflow)
//! ```
//!
//! which we solve by Gaussian elimination on a *banded* matrix: reliability
//! chains are lattices, and with a sensible state numbering every
//! transition stays within a few indices, so even chains with tens of
//! thousands of states solve in linear time.

use std::collections::BTreeMap;

/// Builder and solver for an absorbing CTMC.
///
/// States are dense indices `0..n_states`; absorbing states simply have no
/// outgoing transitions.
#[derive(Debug, Clone)]
pub struct Ctmc {
    n_states: usize,
    /// (from, to, rate)
    transitions: Vec<(usize, usize, f64)>,
}

impl Ctmc {
    /// A chain with `n_states` states and no transitions yet.
    #[must_use]
    pub fn new(n_states: usize) -> Self {
        Ctmc {
            n_states,
            transitions: Vec::new(),
        }
    }

    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Add a transition with the given rate (per hour).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds, `from == to`, or the rate is
    /// not a positive finite number.
    pub fn transition(&mut self, from: usize, to: usize, rate: f64) {
        assert!(from < self.n_states && to < self.n_states, "state index");
        assert_ne!(from, to, "self-loops are meaningless in a CTMC");
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        self.transitions.push((from, to, rate));
    }

    /// Total outflow rate per state.
    fn outflow(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.n_states];
        for &(from, _, rate) in &self.transitions {
            out[from] += rate;
        }
        out
    }

    /// Expected time to absorption from `start`, in the rate's time unit.
    ///
    /// Returns `f64::INFINITY` if `start` cannot reach any absorbing
    /// state... more precisely, the linear solve will produce a huge or
    /// non-finite value; callers should validate chain connectivity.
    ///
    /// # Panics
    ///
    /// Panics if `start` is absorbing (no outgoing transitions) — the
    /// answer would trivially be infinite — or out of bounds.
    #[must_use]
    pub fn mean_time_to_absorption(&self, start: usize) -> f64 {
        assert!(start < self.n_states, "state index");
        let outflow = self.outflow();
        assert!(
            outflow[start] > 0.0,
            "start state is absorbing; expected time is infinite"
        );

        // Transient states get solver rows; absorbing states contribute 0.
        let transient: Vec<usize> = (0..self.n_states).filter(|&s| outflow[s] > 0.0).collect();
        let row_of: BTreeMap<usize, usize> =
            transient.iter().enumerate().map(|(r, &s)| (s, r)).collect();
        let n = transient.len();

        // Bandwidth of the system under the caller's state numbering.
        let mut bandwidth = 0usize;
        for &(from, to, _) in &self.transitions {
            if let (Some(&rf), Some(&rt)) = (row_of.get(&from), row_of.get(&to)) {
                bandwidth = bandwidth.max(rf.abs_diff(rt));
            }
        }

        // Banded storage: row r holds columns r-bandwidth ..= r+bandwidth.
        let width = 2 * bandwidth + 1;
        let mut band = vec![0.0f64; n * width];
        let mut rhs = vec![1.0f64; n];
        let idx = |r: usize, c: usize| -> usize { r * width + (c + bandwidth - r) };
        for (r, &s) in transient.iter().enumerate() {
            band[idx(r, r)] = outflow[s];
        }
        for &(from, to, rate) in &self.transitions {
            if let (Some(&rf), Some(&rt)) = (row_of.get(&from), row_of.get(&to)) {
                band[idx(rf, rt)] -= rate;
            }
        }

        // Gaussian elimination without pivoting: the matrix is a weakly
        // chained diagonally dominant M-matrix (diag = total outflow,
        // off-diag = negative individual rates), for which elimination
        // without pivoting is well defined.
        for k in 0..n {
            let pivot = band[idx(k, k)];
            assert!(
                pivot.abs() > f64::MIN_POSITIVE,
                "singular reliability chain (state {k} has no path to absorption?)"
            );
            let hi = (k + bandwidth + 1).min(n);
            for r in (k + 1)..hi {
                let factor = band[idx(r, k)] / pivot;
                if factor == 0.0 {
                    continue;
                }
                let c_hi = (k + bandwidth + 1).min(n);
                for c in k..c_hi {
                    let v = band[idx(k, c)];
                    if v != 0.0 {
                        band[idx(r, c)] -= factor * v;
                    }
                }
                rhs[r] -= factor * rhs[k];
            }
        }
        // Back substitution.
        let mut t = vec![0.0f64; n];
        for k in (0..n).rev() {
            let mut acc = rhs[k];
            let c_hi = (k + bandwidth + 1).min(n);
            for c in (k + 1)..c_hi {
                acc -= band[idx(k, c)] * t[c];
            }
            t[k] = acc / band[idx(k, k)];
        }
        t[row_of[&start]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_exponential_stage() {
        // 0 --(rate 2)--> 1(absorbing): expected time 1/2.
        let mut c = Ctmc::new(2);
        c.transition(0, 1, 2.0);
        assert!((c.mean_time_to_absorption(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn two_sequential_stages() {
        // 0 -> 1 -> 2: expected 1/a + 1/b.
        let mut c = Ctmc::new(3);
        c.transition(0, 1, 4.0);
        c.transition(1, 2, 0.5);
        assert!((c.mean_time_to_absorption(0) - (0.25 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn repair_loop_matches_closed_form() {
        // Birth-death: 0 ⇄ 1 -> 2. T0 = 1/λ0 + T1; T1 = 1/(λ1+μ) + μ/(λ1+μ)·T0.
        let (l0, l1, mu) = (0.01, 0.02, 5.0);
        let mut c = Ctmc::new(3);
        c.transition(0, 1, l0);
        c.transition(1, 0, mu);
        c.transition(1, 2, l1);
        // Solving T0 = 1/l0 + T1 and T1 = 1/(l1+mu) + (mu/(l1+mu))*T0 gives
        // T0 = (1/l0 + 1/(l1+mu)) / (1 - mu/(l1+mu)).
        let t1_coeff = mu / (l1 + mu);
        let expected = ((1.0 / l0) + 1.0 / (l1 + mu)) / (1.0 - t1_coeff);
        let got = c.mean_time_to_absorption(0);
        assert!(
            (got - expected).abs() / expected < 1e-12,
            "{got} vs {expected}"
        );
    }

    #[test]
    fn absorbing_start_panics() {
        let mut c = Ctmc::new(2);
        c.transition(0, 1, 1.0);
        let result = std::panic::catch_unwind(|| c.mean_time_to_absorption(1));
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn rejects_bad_rate() {
        let mut c = Ctmc::new(2);
        c.transition(0, 1, -1.0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut c = Ctmc::new(2);
        c.transition(0, 0, 1.0);
    }

    #[test]
    fn large_band_chain_is_exact() {
        // A long birth-death chain with known answer: pure birth chain of
        // k stages, each rate 1: expected time = k.
        let k = 5000;
        let mut c = Ctmc::new(k + 1);
        for i in 0..k {
            c.transition(i, i + 1, 1.0);
        }
        let got = c.mean_time_to_absorption(0);
        assert!((got - k as f64).abs() < 1e-6 * k as f64);
    }

    #[test]
    fn mttdl_scales_inversely_with_failure_rate() {
        let build = |lambda: f64| {
            let mut c = Ctmc::new(3);
            c.transition(0, 1, lambda);
            c.transition(1, 0, 1.0);
            c.transition(1, 2, lambda);
            c.mean_time_to_absorption(0)
        };
        let slow = build(1e-6);
        let fast = build(1e-5);
        assert!(slow > fast * 50.0, "slow {slow} fast {fast}");
    }
}
