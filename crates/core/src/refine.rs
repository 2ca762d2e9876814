//! Allocation refinement: a cheap post-pass that Algorithm 1/2's
//! guarantee leaves on the table (ours, not the paper's).
//!
//! Both algorithms allocate each thread `min(ĉ_i, remaining)` — driven by
//! the *linearized* utilities and the super-optimal demands. Once the
//! placement is fixed, however, the per-server allocation subproblem is
//! just single-pool concave allocation again, solvable *exactly* with the
//! λ-bisection allocator against the original concave `f_i`. Re-splitting
//! every server:
//!
//! * never decreases total utility (the greedy allocation is one feasible
//!   point of each server's subproblem);
//! * preserves the α guarantee (utility only goes up);
//! * costs one `O(k (log C)²)` allocation per server — asymptotically
//!   free next to the super-optimal allocation already computed.
//!
//! The experiments' ablation output quantifies the (typically small but
//! nonzero) gain; the tightness instance is a case where it provably
//! cannot help, which the tests pin down.

use crate::budget::Budget;
use crate::problem::{Assignment, CappedView, Problem};
use crate::solver::SolveError;

/// Exactly re-split every server's resource among its assigned threads
/// using the original concave utilities. Placement is untouched.
/// [`refine_allocation_with`] without a budget.
pub fn refine_allocation(problem: &Problem, assignment: &Assignment) -> Assignment {
    match refine_allocation_with(problem, assignment, None) {
        Ok(a) => a,
        Err(_) => unreachable!("an unbudgeted re-split cannot fail"),
    }
}

/// [`refine_allocation`] under an optional solve [`Budget`], checked per
/// server and per bisection iteration inside each re-split. Bit-identical
/// to [`refine_allocation`] while the budget holds; expiry is typed,
/// never a half-refined allocation.
pub fn refine_allocation_with(
    problem: &Problem,
    assignment: &Assignment,
    budget: Option<&Budget>,
) -> Result<Assignment, SolveError> {
    let _span = aa_obs::span!("refine");
    let views: Vec<CappedView> = problem.capped_threads();
    let amount = crate::exact::allocate_groups(problem, &views, &assignment.server, budget)?;
    Ok(Assignment {
        server: assignment.server.clone(),
        amount,
    })
}

/// Algorithm 2 followed by exact per-server re-splitting:
/// [`solve_refined_with`] without a budget.
pub fn solve_refined(problem: &Problem) -> Assignment {
    match solve_refined_with(problem, None) {
        Ok(a) => a,
        Err(_) => unreachable!("an unbudgeted refined solve cannot fail"),
    }
}

/// [`solve_refined`] under an optional solve [`Budget`]: budgeted
/// Algorithm 2 followed by the budgeted re-split. While the budget holds
/// the result is **bit-identical** to [`solve_refined`] — both stages
/// run one body with or without a budget.
pub fn solve_refined_with(
    problem: &Problem,
    budget: Option<&Budget>,
) -> Result<Assignment, SolveError> {
    let a = crate::algo2::solve_with(problem, budget)?;
    refine_allocation_with(problem, &a, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_utility::{CappedLinear, DynUtility, LogUtility, Power, Utility};

    use crate::{algo2, superopt, tightness, ALPHA};

    fn arc<U: Utility + 'static>(u: U) -> DynUtility {
        Arc::new(u)
    }

    fn mixed_problem(seed: u64) -> Problem {
        Problem::builder(3, 12.0)
            .threads((0..11).map(|i| {
                let s = 1.0 + ((i as u64 * 5 + seed * 3) % 7) as f64;
                match i % 3 {
                    0 => arc(Power::new(s, 0.5, 12.0)),
                    1 => arc(LogUtility::new(s, 0.8, 12.0)),
                    _ => arc(CappedLinear::new(s, 4.0, 12.0)),
                }
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn refinement_never_decreases_utility() {
        for seed in 0..8 {
            let p = mixed_problem(seed);
            let raw = algo2::solve(&p);
            let refined = refine_allocation(&p, &raw);
            refined.validate(&p).unwrap();
            assert!(
                refined.total_utility(&p) >= raw.total_utility(&p) - 1e-9,
                "seed {seed}"
            );
            assert_eq!(refined.server, raw.server, "placement must not change");
        }
    }

    #[test]
    fn refinement_preserves_guarantee_and_bound() {
        for seed in 0..4 {
            let p = mixed_problem(seed);
            let refined = solve_refined(&p);
            let bound = superopt::super_optimal(&p).utility;
            let u = refined.total_utility(&p);
            assert!(u >= ALPHA * bound - 1e-9);
            assert!(u <= bound + 1e-9);
        }
    }

    #[test]
    fn refinement_strictly_helps_sometimes() {
        // A thread with allocation above its useful knee on the same
        // server as a starved thread: re-splitting shifts the excess.
        let p = Problem::builder(1, 10.0)
            .thread(arc(CappedLinear::new(2.0, 3.0, 10.0)))
            .thread(arc(Power::new(1.0, 0.5, 10.0)))
            .build()
            .unwrap();
        // Hand-build a feasible but sloppy assignment.
        let sloppy = Assignment {
            server: vec![0, 0],
            amount: vec![8.0, 2.0],
        };
        let refined = refine_allocation(&p, &sloppy);
        assert!(refined.total_utility(&p) > sloppy.total_utility(&p) + 0.1);
        // The capped thread needs only its knee.
        assert!((refined.amount[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn cannot_fix_the_tightness_instance() {
        // Theorem V.17's gap is a *placement* mistake; per-server
        // re-splitting cannot recover it.
        let p = tightness::instance();
        let refined = solve_refined(&p);
        assert!(
            (refined.total_utility(&p) - tightness::GREEDY_UTILITY).abs() < 1e-9,
            "refinement should not change the tight instance's outcome"
        );
    }

    #[test]
    fn budgeted_refined_solve_is_bit_identical_with_room() {
        for seed in 0..4 {
            let p = mixed_problem(seed);
            let plain = solve_refined(&p);
            let roomy = solve_refined_with(&p, Some(&crate::Budget::unlimited())).unwrap();
            assert_eq!(plain, roomy, "seed {seed}");
        }
    }

    #[test]
    fn budgeted_refined_solve_types_expiry_at_every_fuel_level() {
        let p = mixed_problem(2);
        let plain = solve_refined(&p);
        for fuel in (0..400).step_by(23) {
            match solve_refined_with(&p, Some(&crate::Budget::with_fuel(fuel))) {
                Ok(a) => assert_eq!(a, plain, "fuel {fuel}"),
                Err(e) => {
                    assert_eq!(e, crate::SolveError::DeadlineExceeded, "fuel {fuel}");
                }
            }
        }
    }

    #[test]
    fn idempotent() {
        let p = mixed_problem(1);
        let once = solve_refined(&p);
        let twice = refine_allocation(&p, &once);
        assert!((once.total_utility(&p) - twice.total_utility(&p)).abs() < 1e-9);
    }
}
