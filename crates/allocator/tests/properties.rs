//! Property-based cross-validation of the single-pool allocators.
//!
//! The λ root-finder allocator (production) must agree with:
//! * the exact segment greedy on random piecewise-linear instances,
//! * the discrete DP / unit greedy on random mixed smooth instances
//!   (up to discretization error),
//! * the former plain halving search, bit for bit,
//!
//! and always produce feasible, budget-exhausting allocations.

use std::sync::Arc;

use aa_allocator::bisection::{allocate, allocate_generic, allocate_warm_into, Interrupted};
use aa_allocator::{bisection, exact_dp, greedy, segment, WarmCache};
use aa_utility::{
    CappedLinear, DemandTable, DynUtility, LogUtility, Pchip, PiecewiseLinear, Power, Utility,
};
use proptest::prelude::*;

/// Random concave piecewise-linear utility from (width, slope) pairs with
/// slopes sorted descending.
fn pwl_from(raw: &[(f64, f64)]) -> PiecewiseLinear {
    let mut slopes: Vec<f64> = raw.iter().map(|r| r.1).collect();
    slopes.sort_by(|a, b| b.total_cmp(a));
    let mut pts = vec![(0.0, 0.0)];
    let (mut x, mut y) = (0.0, 0.0);
    for (i, r) in raw.iter().enumerate() {
        x += r.0;
        y += slopes[i] * r.0;
        pts.push((x, y));
    }
    PiecewiseLinear::new(&pts).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bisection_feasible_and_exhausts_budget(
        params in prop::collection::vec((0.1..20.0f64, 0.05..0.95f64, 1.0..50.0f64), 1..10),
        budget_frac in 0.0..1.5f64,
    ) {
        let utils: Vec<Power> = params.iter()
            .map(|&(s, b, c)| Power::new(s, b, c))
            .collect();
        let total_cap: f64 = utils.iter().map(|u| u.cap()).sum();
        let budget = budget_frac * total_cap;
        let a = bisection::allocate(&utils, budget);

        // Feasibility.
        for (x, u) in a.amounts.iter().zip(&utils) {
            prop_assert!(*x >= -1e-9 && *x <= u.cap() + 1e-9);
        }
        prop_assert!(a.total_allocated() <= budget + 1e-6 * budget.max(1.0));

        // Exhaustion (Lemma V.3): min(budget, Σcaps) is fully used.
        let should_use = budget.min(total_cap);
        prop_assert!(
            (a.total_allocated() - should_use).abs() <= 1e-6 * should_use.max(1.0),
            "allocated {} of {}", a.total_allocated(), should_use
        );

        // Honest utility.
        prop_assert!((a.utility - a.recompute_utility(&utils)).abs() <= 1e-9 * a.utility.abs().max(1.0));
    }

    #[test]
    fn bisection_matches_exact_on_piecewise_linear(
        raws in prop::collection::vec(
            prop::collection::vec((0.5..5.0f64, 0.0..4.0f64), 1..5),
            1..6,
        ),
        budget in 0.0..40.0f64,
    ) {
        let utils: Vec<PiecewiseLinear> = raws.iter().map(|r| pwl_from(r)).collect();
        let fast = bisection::allocate(&utils, budget);
        let exact = segment::allocate_piecewise(&utils, budget);
        prop_assert!(
            fast.utility >= exact.utility - 1e-6 * exact.utility.max(1.0),
            "bisection {} below exact {}", fast.utility, exact.utility
        );
        // And never above (exact is optimal).
        prop_assert!(
            fast.utility <= exact.utility + 1e-6 * exact.utility.max(1.0),
            "bisection {} above exact {} — impossible", fast.utility, exact.utility
        );
    }

    #[test]
    fn greedy_matches_dp_on_small_instances(
        params in prop::collection::vec((0.1..10.0f64, 0.1..1.0f64, 1.0..8.0f64), 1..5),
        units in 0usize..12,
    ) {
        let utils: Vec<Power> = params.iter()
            .map(|&(s, b, c)| Power::new(s, b, c.floor()))
            .collect();
        let g = greedy::allocate_units(&utils, units, 1.0);
        let e = exact_dp::allocate_exact(&utils, units, 1.0);
        prop_assert!(
            (g.utility - e.utility).abs() <= 1e-9 * e.utility.max(1.0),
            "greedy {} vs dp {}", g.utility, e.utility
        );
    }

    #[test]
    fn bisection_upper_bounds_unit_greedy(
        params in prop::collection::vec((0.1..10.0f64, 0.2..3.0f64, 2.0..20.0f64), 1..6),
        units in 1usize..15,
    ) {
        // Continuous relaxation is always ≥ the discrete optimum.
        let utils: Vec<LogUtility> = params.iter()
            .map(|&(s, r, c)| LogUtility::new(s, r, c))
            .collect();
        let g = greedy::allocate_units(&utils, units, 1.0);
        let b = bisection::allocate(&utils, units as f64);
        prop_assert!(
            b.utility >= g.utility - 1e-6 * g.utility.max(1.0),
            "continuous {} below discrete {}", b.utility, g.utility
        );
    }
}

// ---- the root-finder against plain halving ----
//
// Before the allocator's one root-finder, a cold allocation grew the
// bracket `[0, 1]` by doubling until demand fit the budget, then halved
// it up to 128 times. That search is kept below, verbatim down to the
// leftover spread, as a test-only reference: slow (~63 sweeps) but
// obviously correct. Demand is exactly nonincreasing in λ, so both
// searches collapse onto the same adjacent-float pair and must return
// the same bits — on PCHIP (the paper's §VII shape), power, log and
// staircase utilities, sequentially and through the pool.

/// The halving search and its epilogue: base demands at the bracket's
/// high price, the leftover spread proportionally over the slack between
/// the two ends, then crumbs poured in index order.
fn halving_reference<U: Utility>(utils: &[U], budget: f64) -> Vec<f64> {
    let caps: Vec<f64> = utils.iter().map(|f| f.cap()).collect();
    if budget >= caps.iter().sum::<f64>() {
        return caps;
    }
    let mut table = DemandTable::new();
    table.compile(utils);
    let demands = |lambda: f64| {
        let mut out = vec![0.0; utils.len()];
        table.batch_inverse_derivative(utils, lambda, &mut out);
        let total: f64 = out.iter().sum();
        (out, total)
    };
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
    while demands(hi).1 > budget {
        lo = hi;
        hi *= 2.0;
    }
    for _ in 0..128 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if demands(mid).1 > budget {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let (mut amounts, spent) = demands(hi);
    let mut leftover = budget - spent;
    if leftover > 0.0 {
        let (lo_amounts, _) = demands(lo);
        let mut slack = 0.0;
        for (&a, &b) in lo_amounts.iter().zip(&amounts) {
            slack += (a - b).max(0.0);
        }
        if slack > 0.0 {
            let frac = (leftover / slack).min(1.0);
            for (x, &a) in amounts.iter_mut().zip(&lo_amounts) {
                *x += frac * (a - *x).max(0.0);
            }
            leftover -= frac * slack;
        }
        for (x, &cap) in amounts.iter_mut().zip(&caps) {
            if leftover <= 0.0 {
                break;
            }
            let add = (cap - *x).max(0.0).min(leftover);
            *x += add;
            leftover -= add;
        }
    }
    amounts
}

/// The paper's §VII PCHIP shape: `(0,0)`, `(C/2,v)`, `(C,v+w)`, `w ≤ v`.
fn paper_pchip(cap: f64, v: f64, w_frac: f64) -> DynUtility {
    Arc::new(Pchip::new(&[(0.0, 0.0), (cap / 2.0, v), (cap, v + w_frac * v)]).unwrap())
}

fn any_utility() -> impl Strategy<Value = DynUtility> {
    prop_oneof![
        (10.0..1000.0f64, 0.1..100.0f64, 0.0..1.0f64)
            .prop_map(|(cap, v, w)| paper_pchip(cap, v, w)),
        (0.1..10.0f64, 0.1..0.95f64, 1.0..100.0f64)
            .prop_map(|(s, b, cap)| Arc::new(Power::new(s, b, cap)) as DynUtility),
        (0.1..10.0f64, 0.05..4.0f64, 1.0..100.0f64)
            .prop_map(|(s, r, cap)| Arc::new(LogUtility::new(s, r, cap)) as DynUtility),
        (0.1..10.0f64, 0.5..20.0f64, 0.0..10.0f64).prop_map(|(s, knee, extra)| {
            Arc::new(CappedLinear::new(s, knee, knee + extra)) as DynUtility
        }),
        prop::collection::vec((0.5..5.0f64, 0.01..4.0f64), 1..5)
            .prop_map(|raw| Arc::new(pwl_from(&raw)) as DynUtility),
    ]
}

fn assert_bits(got: &[f64], want: &[f64], tag: &str) -> Result<(), String> {
    prop_assert_eq!(got.len(), want.len(), "{}: length", tag);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{}: amounts[{}] {} vs {}",
            tag,
            i,
            g,
            w
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every allocator entry point returns the halving search's bits.
    #[test]
    fn root_finder_matches_halving_bit_for_bit(
        utils in prop::collection::vec(any_utility(), 1..24),
        budget_frac in 0.02..0.95f64,
    ) {
        let total_cap: f64 = utils.iter().map(|u| u.cap()).sum();
        let budget = budget_frac * total_cap;
        let reference = halving_reference(&utils, budget);
        assert_bits(&allocate(&utils, budget).amounts, &reference, "allocate")?;
        assert_bits(&allocate_generic(&utils, budget).amounts, &reference, "generic")?;
        let mut cache = WarmCache::new();
        let mut warm = Vec::new();
        allocate_warm_into(&utils, budget, &mut cache, &mut warm, None, &mut || {
            Ok::<(), Interrupted>(())
        })
        .unwrap();
        assert_bits(&warm, &reference, "warm")?;
    }
}

/// Above the pool threshold the parallel sweeps run; a PCHIP-heavy mix
/// must match the halving search at pool width 1, and widths 2 and 8
/// must match width 1.
#[test]
fn parallel_root_finder_matches_halving_on_paper_pchip() {
    let n = aa_allocator::PAR_THRESHOLD + 123;
    let utils: Vec<DynUtility> = (0..n)
        .map(|i| {
            let v = 1.0 + (i % 97) as f64 * 0.37;
            match i % 4 {
                0 | 1 => paper_pchip(1000.0, v, (i % 11) as f64 / 11.0),
                2 => Arc::new(Power::new(v, 0.5, 1000.0)),
                _ => Arc::new(LogUtility::new(v, 0.01, 1000.0)),
            }
        })
        .collect();
    let budget = 0.3 * 1000.0 * n as f64;
    let reference = halving_reference(&utils, budget);
    let width1 = rayon::with_threads(1, || allocate(&utils, budget));
    for (i, (g, w)) in width1.amounts.iter().zip(&reference).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "width 1 vs halving: amounts[{i}]");
    }
    for threads in [2, 8] {
        let got = rayon::with_threads(threads, || allocate(&utils, budget));
        assert_eq!(width1.utility.to_bits(), got.utility.to_bits(), "{threads} threads");
        for (i, (g, w)) in got.amounts.iter().zip(&width1.amounts).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{threads} threads: amounts[{i}]");
        }
    }
}
