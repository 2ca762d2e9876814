//! The super-optimal allocation and bound (paper Definition V.1).
//!
//! Pool all `m·C` resources as if they sat on one giant server, cap each
//! thread at `C` (its per-server reach), and allocate optimally. The
//! resulting total utility `F̂` dominates every feasible assignment's
//! utility (Lemma V.2) — it ignores the bin-packing constraint — so it is
//! the upper bound the approximation guarantee and all experiments are
//! measured against. The allocation `ĉ` itself seeds the linearization
//! (Equation 1) and both approximation algorithms.

use aa_allocator::bisection;

use crate::budget::Budget;
use crate::problem::Problem;
use crate::solver::SolveError;

/// The super-optimal allocation `ĉ` and its utility `F̂`.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperOptimal {
    /// `ĉ_i` per thread; `Σ ĉ_i = min(mC, Σ min(cap_i, C))` (Lemma V.3).
    pub amounts: Vec<f64>,
    /// `F̂ = Σ f_i(ĉ_i) ≥ F*` (Lemma V.2).
    pub utility: f64,
}

/// Compute the super-optimal allocation by running the Galil-style
/// price-search allocator with budget `mC` and per-thread cap
/// `min(cap_i, C)`: a few dozen `O(n)` demand sweeps, fanned out over
/// the pool once `n ≥ `[`PAR_THRESHOLD`](aa_allocator::PAR_THRESHOLD).
/// [`super_optimal_with`] without a budget: the same bits at every pool
/// width.
///
/// # Example
///
/// ```
/// use aa_core::{superopt, Problem};
/// use aa_utility::Power;
/// use std::sync::Arc;
///
/// // 2 servers × 6 units, four identical threads: the pooled optimum
/// // gives each thread 3 units (Lemma V.3: the full 12 units are used).
/// let p = Problem::builder(2, 6.0)
///     .threads((0..4).map(|_| Arc::new(Power::new(1.0, 0.5, 6.0)) as _))
///     .build()
///     .unwrap();
/// let so = superopt::super_optimal(&p);
/// assert!((so.amounts.iter().sum::<f64>() - 12.0).abs() < 1e-6);
/// assert!(so.amounts.iter().all(|&c| (c - 3.0).abs() < 1e-6));
/// ```
pub fn super_optimal(problem: &Problem) -> SuperOptimal {
    match super_optimal_with(problem, None) {
        Ok(so) => so,
        Err(_) => unreachable!("an unbudgeted super-optimal allocation cannot fail"),
    }
}

/// [`super_optimal`] under the name the benchmark harness links.
#[doc(hidden)]
pub fn super_optimal_par(problem: &Problem) -> SuperOptimal {
    super_optimal(problem)
}

/// [`super_optimal`] under an optional solve [`Budget`]: the search
/// checks the budget once per demand sweep, and fanned-out demand maps
/// watch the budget's cancel token, abandoning unclaimed chunks the
/// moment it fires. `None` skips every check. While the budget holds,
/// the result is **bit-identical** to [`super_optimal`] at every pool
/// width.
pub fn super_optimal_with(
    problem: &Problem,
    budget: Option<&Budget>,
) -> Result<SuperOptimal, SolveError> {
    let _span = aa_obs::span!("superopt");
    let views = problem.capped_threads();
    let pool = problem.servers() as f64 * problem.capacity();
    let alloc = bisection::allocate_checked(
        &views,
        pool,
        budget.map(Budget::cancel_token),
        &mut || budget.map_or(Ok(()), Budget::check),
    )?;
    Ok(SuperOptimal {
        amounts: alloc.amounts,
        utility: alloc.utility,
    })
}

/// The delta path of [`super_optimal`]: re-run the price search through
/// a persistent [`bisection::WarmCache`], starting at the previous
/// solve's price and writing `ĉ` into the caller's `amounts` buffer.
/// When the water level has not moved this costs two demand maps; slow
/// drift costs a few secant steps. **Bit-identical** to
/// [`super_optimal`]'s amounts: both searches collapse onto the same
/// unique adjacent-float pair. `views` is scratch the caller retains
/// across solves so the steady state allocates nothing below the
/// parallel threshold.
///
/// With a solve [`Budget`] the search checks it once per demand sweep
/// and fanned-out sweeps watch its token; expiry leaves the cache cold
/// and surfaces as the budget's typed error.
///
/// The utility sum `F̂` is *not* computed — the assignment phase only
/// consumes `ĉ` — which is part of the warm path's speedup. Use
/// [`super_optimal`] when the bound itself is needed.
pub fn super_optimal_warm_into(
    problem: &Problem,
    solve_budget: Option<&Budget>,
    cache: &mut bisection::WarmCache,
    views: &mut Vec<crate::problem::CappedView>,
    amounts: &mut Vec<f64>,
) -> Result<bisection::WarmStats, SolveError> {
    let _span = aa_obs::span!("warm_bisection");
    views.clear();
    views.extend((0..problem.len()).map(|i| problem.capped_thread(i)));
    let pool = problem.servers() as f64 * problem.capacity();
    bisection::allocate_warm_into(
        views,
        pool,
        cache,
        amounts,
        solve_budget.map(Budget::cancel_token),
        &mut || solve_budget.map_or(Ok(()), Budget::check),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_utility::{CappedLinear, LogUtility, Power};

    fn arc<U: aa_utility::Utility + 'static>(u: U) -> aa_utility::DynUtility {
        Arc::new(u)
    }

    #[test]
    fn single_server_equals_plain_allocation() {
        let p = Problem::builder(1, 10.0)
            .thread(arc(Power::new(1.0, 0.5, 10.0)))
            .thread(arc(LogUtility::new(2.0, 1.0, 10.0)))
            .build()
            .unwrap();
        let so = super_optimal(&p);
        assert!((so.amounts.iter().sum::<f64>() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn budget_is_m_times_c() {
        let p = Problem::builder(4, 5.0)
            .threads((0..8).map(|_| arc(Power::new(1.0, 0.5, 5.0))))
            .build()
            .unwrap();
        let so = super_optimal(&p);
        // 8 identical threads, budget 20, per-thread cap 5 ⇒ 2.5 each.
        assert!((so.amounts.iter().sum::<f64>() - 20.0).abs() < 1e-6);
        for &c in &so.amounts {
            assert!((c - 2.5).abs() < 1e-6);
        }
    }

    #[test]
    fn per_thread_cap_is_server_capacity() {
        // One extremely valuable thread cannot hog more than C even though
        // the pooled budget is mC.
        let p = Problem::builder(3, 4.0)
            .thread(arc(Power::new(1000.0, 0.99, 100.0)))
            .thread(arc(Power::new(0.001, 0.5, 4.0)))
            .build()
            .unwrap();
        let so = super_optimal(&p);
        assert!(so.amounts[0] <= 4.0 + 1e-9, "ĉ_0 = {} > C", so.amounts[0]);
    }

    #[test]
    fn dominates_any_feasible_assignment() {
        // Lemma V.2 on a concrete instance: try several feasible
        // assignments by hand; none beats F̂.
        let p = Problem::builder(2, 6.0)
            .thread(arc(CappedLinear::new(2.0, 3.0, 6.0)))
            .thread(arc(CappedLinear::new(1.0, 4.0, 6.0)))
            .thread(arc(Power::new(1.0, 0.5, 6.0)))
            .build()
            .unwrap();
        let so = super_optimal(&p);
        use crate::problem::Assignment;
        let candidates = [
            Assignment { server: vec![0, 1, 1], amount: vec![3.0, 4.0, 2.0] },
            Assignment { server: vec![0, 0, 1], amount: vec![3.0, 3.0, 6.0] },
            Assignment { server: vec![0, 1, 0], amount: vec![6.0, 6.0, 0.0] },
        ];
        for a in &candidates {
            a.validate(&p).unwrap();
            assert!(a.total_utility(&p) <= so.utility + 1e-9);
        }
    }

    #[test]
    fn par_path_is_bit_identical() {
        let p = Problem::builder(3, 7.0)
            .threads((0..aa_allocator::PAR_THRESHOLD + 64).map(|i| {
                arc(Power::new(1.0 + (i % 9) as f64, 0.6, 7.0))
            }))
            .build()
            .unwrap();
        let seq = rayon::with_threads(1, || super_optimal(&p));
        for threads in [2, 8] {
            let par = rayon::with_threads(threads, || super_optimal(&p));
            assert_eq!(seq, par, "{threads} threads");
        }
    }

    #[test]
    fn budgeted_with_room_is_bit_identical_and_expiry_is_typed() {
        let p = Problem::builder(3, 7.0)
            .threads((0..40).map(|i| arc(Power::new(1.0 + (i % 9) as f64, 0.6, 7.0))))
            .build()
            .unwrap();
        let plain = super_optimal(&p);
        let roomy = super_optimal_with(&p, Some(&crate::Budget::unlimited())).unwrap();
        assert_eq!(plain, roomy);
        let starved = super_optimal_with(&p, Some(&crate::Budget::with_fuel(2)));
        assert_eq!(starved, Err(crate::SolveError::DeadlineExceeded));
    }

    #[test]
    fn saturated_when_caps_bind() {
        // Σ min(cap_i, C) < mC: every thread saturates instead.
        let p = Problem::builder(2, 10.0)
            .thread(arc(Power::new(1.0, 0.5, 3.0)))
            .thread(arc(Power::new(1.0, 0.5, 4.0)))
            .build()
            .unwrap();
        let so = super_optimal(&p);
        assert_eq!(so.amounts, vec![3.0, 4.0]);
    }
}
