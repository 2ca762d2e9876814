//! Extension (paper §VIII future work): drifting utilities and local
//! repair.
//!
//! In practice a thread's utility curve changes as its phase behavior
//! changes. Rerunning Algorithm 2 from scratch is cheap (`O(n (log mC)²)`)
//! but moves threads arbitrarily; migrations are the expensive part in
//! real systems (cache warm-up, VM live-migration). This module offers a
//! middle ground:
//!
//! * [`reallocate_in_place`] — keep every thread where it is, re-split
//!   each server's resource optimally for the *new* utilities. Zero
//!   migrations, never decreases utility relative to keeping the stale
//!   allocation.
//! * [`improve_with_migrations`] — after in-place reallocation, greedily
//!   migrate up to `k` threads: each step moves the thread with the
//!   largest gain between its current marginal utility and what it could
//!   earn on the most underused server, then re-splits both servers.
//!   Utility is re-evaluated after every step; a step that does not
//!   improve is rolled back and the loop stops, so the result is
//!   monotonically at least as good as [`reallocate_in_place`].

use crate::problem::{Assignment, CappedView, Problem};

/// Re-split every server's resource optimally among its current threads
/// (no migrations). Returns the improved assignment. The same re-split
/// as [`refine_allocation`](crate::refine::refine_allocation), applied to
/// drift recovery rather than as a solve-time polish.
pub fn reallocate_in_place(problem: &Problem, current: &Assignment) -> Assignment {
    crate::refine::refine_allocation(problem, current)
}

/// In-place reallocation plus up to `max_migrations` greedy migrations.
///
/// Each migration moves one thread to the server with the most unused
/// *utility headroom* for it and re-splits the two affected servers. Stops
/// early when no migration improves total utility.
pub fn improve_with_migrations(
    problem: &Problem,
    current: &Assignment,
    max_migrations: usize,
) -> Assignment {
    let views: Vec<CappedView> = problem.capped_threads();
    let mut best = reallocate_in_place(problem, current);
    let mut best_utility = best.total_utility(problem);

    for _ in 0..max_migrations {
        // Candidate move: for each thread, consider only the move to the
        // currently lightest-loaded server (one destination instead of
        // m−1 keeps each round at n re-split evaluations).
        let loads = best.server_loads(problem);
        let Some((dest, _)) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1).then_with(|| a.0.cmp(&b.0)))
        else {
            // Unreachable for a built problem (m ≥ 1), but total anyway:
            // nowhere to migrate means nothing left to improve.
            break;
        };

        let mut improved: Option<(Assignment, f64)> = None;
        for i in 0..problem.len() {
            if best.server[i] == dest {
                continue;
            }
            let mut trial_server = best.server.clone();
            trial_server[i] = dest;
            let amount = crate::exact::allocate_groups(problem, &views, &trial_server, None)
                .expect("an unbudgeted re-split cannot fail");
            let trial = Assignment {
                server: trial_server,
                amount,
            };
            let u = trial.total_utility(problem);
            if u > best_utility + 1e-12
                && improved.as_ref().is_none_or(|&(_, bu)| u > bu)
            {
                improved = Some((trial, u));
            }
        }

        match improved {
            Some((assignment, utility)) => {
                best = assignment;
                best_utility = utility;
            }
            None => break,
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_utility::{DynUtility, LogUtility, Power, Utility};

    use crate::{algo2, superopt};

    fn arc<U: Utility + 'static>(u: U) -> DynUtility {
        Arc::new(u)
    }

    /// A problem, and a "drifted" version with different utilities but the
    /// same shape.
    fn drifted_pair() -> (Problem, Problem) {
        let before = Problem::builder(3, 9.0)
            .threads((0..9).map(|i| arc(Power::new(1.0 + i as f64, 0.5, 9.0))))
            .build()
            .unwrap();
        let after = Problem::builder(3, 9.0)
            .threads((0..9).map(|i| {
                // Reverse the importance ranking: previously-cheap threads
                // become valuable.
                arc(LogUtility::new(9.0 - i as f64, 1.0, 9.0))
            }))
            .build()
            .unwrap();
        (before, after)
    }

    #[test]
    fn in_place_never_decreases_utility() {
        let (before, after) = drifted_pair();
        let stale = algo2::solve(&before);
        let kept = stale.total_utility(&after);
        let fixed = reallocate_in_place(&after, &stale);
        fixed.validate(&after).unwrap();
        assert!(fixed.total_utility(&after) >= kept - 1e-9);
    }

    #[test]
    fn in_place_keeps_placement() {
        let (before, after) = drifted_pair();
        let stale = algo2::solve(&before);
        let fixed = reallocate_in_place(&after, &stale);
        assert_eq!(fixed.server, stale.server);
    }

    #[test]
    fn migrations_monotonically_improve() {
        let (before, after) = drifted_pair();
        let stale = algo2::solve(&before);
        let u0 = reallocate_in_place(&after, &stale).total_utility(&after);
        let mut prev = u0;
        for k in [1, 2, 4, 8] {
            let a = improve_with_migrations(&after, &stale, k);
            a.validate(&after).unwrap();
            let u = a.total_utility(&after);
            assert!(u >= prev - 1e-9, "k = {k}: {u} < {prev}");
            prev = u;
        }
    }

    #[test]
    fn repaired_solution_respects_bound() {
        let (before, after) = drifted_pair();
        let stale = algo2::solve(&before);
        let repaired = improve_with_migrations(&after, &stale, 8);
        let bound = superopt::super_optimal(&after).utility;
        assert!(repaired.total_utility(&after) <= bound + 1e-9);
    }

    #[test]
    fn zero_migrations_is_in_place() {
        let (before, after) = drifted_pair();
        let stale = algo2::solve(&before);
        let a = improve_with_migrations(&after, &stale, 0);
        let b = reallocate_in_place(&after, &stale);
        assert_eq!(a, b);
    }

    #[test]
    fn full_resolve_at_least_as_good_as_repair_on_this_family() {
        // Not a theorem, but expected on smooth instances: from-scratch
        // Algorithm 2 should be no worse than limited local repair.
        let (before, after) = drifted_pair();
        let stale = algo2::solve(&before);
        let repaired = improve_with_migrations(&after, &stale, 3).total_utility(&after);
        let fresh = algo2::solve(&after).total_utility(&after);
        assert!(fresh >= repaired * 0.95, "fresh {fresh} vs repaired {repaired}");
    }
}
