//! Regression tests for the all-discrete integer ladder fast path.
//!
//! When every utility compiles to a unit-scale staircase, the allocator's
//! root-finder probes the merged marginal-gain ladder instead of taking
//! secant steps: an `O(log k)` binary search over its knots. The contract
//! under test: the ladder path is **bit-identical** to the generic
//! secant search (`allocate_generic`) on every instance — engaged or
//! not — across the sequential, parallel (1/2/8 threads), and
//! warm-cache entry points, and its tie-breaking between threads at the
//! marginal price is pinned to proportional spread plus an index-order
//! crumb pour.

use aa_allocator::bisection::{
    allocate, allocate_generic, allocate_warm_into, discrete_ladder_bracket, Interrupted,
};
use aa_allocator::WarmCache;
use aa_utility::{CappedLinear, DynUtility, Linearized, PiecewiseLinear, Power, Scaled, Utility};
use proptest::prelude::*;
use std::sync::Arc;

fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// Concave piecewise-linear utility from (width, slope) pairs, slopes
/// sorted descending.
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

/// A random utility from the families that compile to staircase demand
/// (the discrete ladder's domain).
fn discrete_family() -> impl Strategy<Value = DynUtility> {
    prop_oneof![
        (0.1..20.0f64, 0.5..10.0f64, 0.0..10.0f64).prop_map(|(s, knee, extra)| {
            Arc::new(CappedLinear::new(s, knee, knee + extra)) as DynUtility
        }),
        prop::collection::vec((0.5..5.0f64, 0.0..4.0f64), 1..5)
            .prop_map(|raw| Arc::new(pwl_from(&raw)) as DynUtility),
        (0.0..10.0f64, 0.0..20.0f64, 0.1..10.0f64).prop_map(|(c_hat, v_hat, extra)| {
            Arc::new(Linearized::new(c_hat, v_hat, c_hat + extra, 0.5)) as DynUtility
        }),
        // Weight-zero scaling short-circuits to a constant staircase.
        (0.1..20.0f64, 0.5..10.0f64).prop_map(|(s, knee)| {
            Arc::new(Scaled::new(CappedLinear::new(s, knee, knee + 1.0), 0.0)) as DynUtility
        }),
    ]
}

/// Assert two allocations are equal down to the last bit.
fn assert_bit_identical(a: &aa_allocator::Allocation, b: &aa_allocator::Allocation, tag: &str) {
    assert_eq!(a.amounts.len(), b.amounts.len(), "{tag}: length diverged");
    for (i, (x, y)) in a.amounts.iter().zip(&b.amounts).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{tag}: amounts[{i}] diverged: {x} vs {y}"
        );
    }
    assert_eq!(a.utility.to_bits(), b.utility.to_bits(), "{tag}: utility diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All-discrete instances: ladder vs generic vs parallel vs warm,
    /// all four bit-identical at every thread count.
    #[test]
    fn ladder_is_bit_identical_on_all_discrete_instances(
        utils in prop::collection::vec(discrete_family(), 1..12),
        budget_frac in 0.0..1.3f64,
    ) {
        let total_cap: f64 = utils.iter().map(|u| u.cap()).sum();
        let budget = budget_frac * total_cap;
        let fast = rayon::with_threads(1, || allocate(&utils, budget));
        let generic = allocate_generic(&utils, budget);
        assert_bit_identical(&fast, &generic, "ladder vs generic");

        for &threads in &[2usize, 8] {
            let par = rayon::with_threads(threads, || allocate(&utils, budget));
            assert_bit_identical(&fast, &par, &format!("width 1 vs width {threads}"));
        }

        let mut cache = WarmCache::new();
        let mut warm_amounts = Vec::new();
        allocate_warm_into(&utils, budget, &mut cache, &mut warm_amounts, None, &mut || {
            Ok::<(), Interrupted>(())
        })
        .unwrap();
        for (i, (x, y)) in fast.amounts.iter().zip(&warm_amounts).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "warm amounts[{}] diverged", i);
        }
        // And again through the now-primed cache (the warm path proper).
        allocate_warm_into(&utils, budget, &mut cache, &mut warm_amounts, None, &mut || {
            Ok::<(), Interrupted>(())
        })
        .unwrap();
        for (i, (x, y)) in fast.amounts.iter().zip(&warm_amounts).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "re-warm amounts[{}] diverged", i);
        }
    }

    /// Mixed instances (a smooth utility in the mix): the ladder must
    /// disengage, and the default path must still match the generic arm.
    #[test]
    fn mixed_instances_disengage_but_stay_identical(
        discrete in prop::collection::vec(discrete_family(), 1..6),
        smooth_params in (0.1..10.0f64, 0.05..0.95f64, 1.0..30.0f64),
        budget_frac in 0.0..1.3f64,
    ) {
        let mut utils = discrete;
        let (s, b, c) = smooth_params;
        utils.push(Arc::new(Power::new(s, b, c)) as DynUtility);
        let total_cap: f64 = utils.iter().map(|u| u.cap()).sum();
        let budget = budget_frac * total_cap;

        prop_assert_eq!(discrete_ladder_bracket(&utils, budget), None);
        let fast = allocate(&utils, budget);
        let generic = allocate_generic(&utils, budget);
        assert_bit_identical(&fast, &generic, "mixed");
    }
}

/// A concrete two-knot instance where the ladder provably engages: the
/// bracket it reports is the adjacent-float pair at the highest
/// over-budget knot, and the final allocation matches the generic arm.
#[test]
fn ladder_engages_on_two_knot_instance() {
    let utils = vec![
        CappedLinear::new(2.0, 3.0, 4.0),
        CappedLinear::new(1.0, 5.0, 6.0),
    ];
    // Demand staircase: D(λ≤0) = 10, D(0<λ≤1) = 8, D(1<λ≤2) = 3, D(λ>2) = 0.
    // Budget 4 flips between the knots at 1 and 2: t = 1.
    let (lo, hi) = discrete_ladder_bracket(&utils, 4.0).expect("all-discrete, must engage");
    assert_eq!(lo, 1.0);
    assert_eq!(hi, next_up(1.0));
    assert_bit_identical(&allocate(&utils, 4.0), &allocate_generic(&utils, 4.0), "two-knot");

    // Above the top knee sum the budget saturates the knees and the flip
    // happens at the smallest knot.
    let (lo, _) = discrete_ladder_bracket(&utils, 7.9).expect("still under D(0+) = 8");
    assert_eq!(lo, 1.0);
    // At-or-over total demand at every positive price: no flip to find.
    assert_eq!(discrete_ladder_bracket(&utils, 8.0), None);
    // Saturating budget: answered before any bracket search.
    assert_eq!(discrete_ladder_bracket(&utils, 10.0), None);
}

/// Pin the tie-break at the marginal price: threads sharing the flipped
/// knot receive *proportional* slack, and the float-rounding residue is
/// poured as a crumb in index order — lower indices first.
#[test]
fn ladder_tie_break_order_is_pinned() {
    let utils = vec![
        CappedLinear::new(1.0, 0.3, 10.0),
        CappedLinear::new(1.0, 0.3, 10.0),
    ];
    // Chosen so the proportional spread's rounding residue is strictly
    // positive in f64 (≈5.6e-17), forcing the crumb pour to run.
    let budget = 0.4829268292682927_f64;
    // D(0<λ≤1) = 0.6 > budget ≥ D(λ>1) = 0: the bracket is (1, nextafter(1)).
    let (lo, hi) = discrete_ladder_bracket(&utils, budget).expect("engages");
    assert_eq!(lo, 1.0);
    assert_eq!(hi, next_up(1.0));

    let alloc = allocate(&utils, budget);
    // The epilogue's exact arithmetic: base demand 0 at the high price,
    // slack 0.3 per thread at the low price, proportional fill, then the
    // rounding residue goes to thread 0.
    let frac: f64 = (budget / 0.6_f64).min(1.0);
    let base = frac * 0.3;
    let crumb = budget - frac * 0.6;
    assert!(crumb > 0.0, "this instance is chosen to leave a crumb");
    let expected = [base + crumb, base];
    for (i, (got, want)) in alloc.amounts.iter().zip(&expected).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "amounts[{i}]: got {got}, pinned {want}"
        );
    }
    // Identical threads, but the crumb breaks the tie toward index 0.
    assert!(alloc.amounts[0] > alloc.amounts[1]);
    assert_bit_identical(&alloc, &allocate_generic(&utils, budget), "tie-break");
}

/// The ladder respects budget exhaustion exactly like the generic path
/// on a degenerate single-thread instance.
#[test]
fn single_thread_discrete_instance() {
    let utils = vec![CappedLinear::new(5.0, 2.0, 9.0)];
    for budget in [0.0, 0.5, 1.9999, 2.0, 5.0, 8.9, 9.0, 12.0] {
        let fast = allocate(&utils, budget);
        let generic = allocate_generic(&utils, budget);
        assert_bit_identical(&fast, &generic, &format!("budget {budget}"));
        assert!(fast.total_allocated() <= budget + 1e-12);
    }
}
