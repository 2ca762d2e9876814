//! Property tests for the simulation substrate: the Mattson profiler and
//! the direct LRU simulator are two independent implementations of the
//! same semantics and must agree on arbitrary traces.

use aa_core::{Budget, SolveError, TieredSolver};
use aa_sim::cache::{simulate_lru, simulate_partitioned};
use aa_sim::mrc::stack_distances;
use aa_sim::trace::Trace;
use aa_sim::Multicore;
use proptest::prelude::*;

/// Arbitrary short traces over a small line universe (maximizes reuse,
/// the interesting case).
fn any_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(0u64..24, 0..400).prop_map(|accesses| Trace { accesses })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Stack-distance miss ratios equal direct LRU simulation at every
    /// cache size (Mattson's theorem, checked implementation-to-
    /// implementation).
    #[test]
    fn mattson_equals_direct_lru(trace in any_trace(), size in 0usize..30) {
        let mrc = stack_distances(&trace);
        let direct = simulate_lru(&trace, size);
        let expect = if trace.is_empty() {
            0.0
        } else {
            direct as f64 / trace.len() as f64
        };
        prop_assert!((mrc.miss_ratio(size) - expect).abs() < 1e-12);
    }

    /// LRU inclusion: more lines never means more misses.
    #[test]
    fn lru_misses_monotone_in_size(trace in any_trace()) {
        let mut prev = u64::MAX;
        for size in 0..=24 {
            let m = simulate_lru(&trace, size);
            prop_assert!(m <= prev, "misses rose at size {size}");
            prev = m;
        }
    }

    /// Cold misses: with the whole universe cached, misses = distinct
    /// lines.
    #[test]
    fn full_cache_only_cold_misses(trace in any_trace()) {
        let misses = simulate_lru(&trace, 24);
        prop_assert_eq!(misses as usize, trace.distinct_lines());
    }

    /// Partition isolation: simulating threads together under a
    /// partition equals simulating each privately.
    #[test]
    fn partition_equals_private(
        t1 in any_trace(),
        t2 in any_trace(),
        w1 in 0usize..4,
        w2 in 0usize..4,
    ) {
        let sims = simulate_partitioned(&[&t1, &t2], &[w1, w2], 4);
        prop_assert_eq!(sims[0].misses, simulate_lru(&t1, w1 * 4));
        prop_assert_eq!(sims[1].misses, simulate_lru(&t2, w2 * 4));
    }

    /// The hit histogram sums to total hits at the largest size.
    #[test]
    fn histogram_accounting(trace in any_trace()) {
        let mrc = stack_distances(&trace);
        let hits: u64 = mrc.hit_histogram.iter().sum();
        let cold = trace.distinct_lines() as u64;
        prop_assert_eq!(hits + cold, trace.len() as u64);
    }

    /// Cancellation safety on sim-built problems: a tiered solve over a
    /// cache-partitioning problem (utilities from real Mattson profiles,
    /// envelope cliffs and all) under an arbitrary deterministic fuel
    /// level — and possibly an external cancel — never panics and never
    /// returns an infeasible assignment. The only error it may surface
    /// is the typed `Cancelled`.
    #[test]
    fn tiered_solve_on_profiled_problems_is_cancellation_safe(
        traces in prop::collection::vec(any_trace(), 2usize..5),
        fuel in 0u64..400,
        cancel_flag in 0u8..2,
    ) {
        let cancelled = cancel_flag == 1;
        let machine = Multicore { cores: 2, ways_per_cache: 4, lines_per_way: 4 };
        let problem = machine.build_problem(&traces);
        let budget = Budget::with_fuel(fuel);
        if cancelled {
            budget.cancel_token().cancel();
        }
        let solver = TieredSolver::new();
        match solver.try_solve_within_caught(&problem, &budget, None) {
            Ok(solved) => {
                prop_assert!(!cancelled, "a pre-cancelled budget must not solve");
                prop_assert!(solved.assignment.validate(&problem).is_ok());
                prop_assert!(solved.utility.is_finite());
            }
            Err(e) => {
                prop_assert!(
                    matches!(e, SolveError::Cancelled),
                    "only external cancellation may fail a tiered solve, got {e:?}"
                );
                prop_assert!(cancelled);
            }
        }
    }
}
