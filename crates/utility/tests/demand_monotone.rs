//! Property test: a compiled [`DemandTable`] sweep is element-wise
//! non-increasing in λ.
//!
//! Demand `x(λ) = sup{x : f'(x) ≥ λ}` is non-increasing in λ for *any*
//! concave utility, so every column of `batch_inverse_derivative` must
//! be too — across all compiled kinds (power, log, staircase, PCHIP,
//! opaque fallback), including λ = 0, λ = ∞, and values one ulp either
//! side of staircase knots, where the closed forms switch branches.

use std::sync::Arc;

use aa_utility::demand::DemandTable;
use aa_utility::{
    CappedLinear, DynUtility, LogUtility, Pchip, PiecewiseLinear, Power, Utility,
};
use proptest::prelude::*;

/// Wrapper hiding `LogUtility`'s demand description so the table falls
/// back to the opaque (virtual-dispatch) column.
#[derive(Debug)]
struct Opaque(LogUtility);

impl Utility for Opaque {
    fn value(&self, x: f64) -> f64 {
        self.0.value(x)
    }
    fn derivative(&self, x: f64) -> f64 {
        self.0.derivative(x)
    }
    fn inverse_derivative(&self, lambda: f64) -> f64 {
        self.0.inverse_derivative(lambda)
    }
    fn cap(&self) -> f64 {
        self.0.cap()
    }
}

fn ulp_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::MIN_POSITIVE
    } else {
        f64::from_bits(x.to_bits() + 1)
    }
}

fn ulp_down(x: f64) -> f64 {
    if x <= f64::MIN_POSITIVE {
        0.0
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// Concave piecewise breakpoints from (width, slope) pairs, slopes
/// sorted descending so construction always succeeds.
fn concave_points(raw: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut slopes: Vec<f64> = raw.iter().map(|r| r.1).collect();
    slopes.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let mut pts = vec![(0.0, 0.0)];
    let (mut x, mut y) = (0.0, 0.0);
    for (i, r) in raw.iter().enumerate() {
        x += r.0;
        y += slopes[i] * r.0;
        pts.push((x, y));
    }
    pts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batch_demand_is_elementwise_nonincreasing_in_lambda(
        power_p in (0.01..20.0f64, 0.05..0.99f64),
        log_p in (0.01..20.0f64, 0.01..10.0f64),
        cap_p in (0.5..500.0f64, 0.01..1.0f64),
        pw_raw in prop::collection::vec((0.01..10.0f64, 0.0..5.0f64), 2..8),
        pchip_p in (0.01..50.0f64, 0.0..1.0f64),
        lambdas in prop::collection::vec(0.0..100.0f64, 4..16),
    ) {
        let (p_scale, p_beta) = power_p;
        let (l_scale, l_rate) = log_p;
        let (cap, knee_frac) = cap_p;
        let (pchip_v, pchip_w_frac) = pchip_p;
        let pw = PiecewiseLinear::new(&concave_points(&pw_raw)).unwrap();
        let pchip = Pchip::new(&[
            (0.0, 0.0),
            (cap / 2.0, pchip_v),
            (cap, pchip_v + pchip_w_frac * pchip_v),
        ])
        .unwrap();
        let capped = CappedLinear::new(l_rate, knee_frac * cap, cap);

        // Knots where the staircase columns switch branches; probe one
        // ulp either side of each as well as the knot itself.
        let mut knots: Vec<f64> = pw_raw.iter().map(|r| r.1).collect();
        knots.push(l_rate); // CappedLinear's single step price
        for x in [0.0, cap / 2.0, cap] {
            knots.push(pchip.derivative(x));
        }

        let utils: Vec<DynUtility> = vec![
            Arc::new(Power::new(p_scale, p_beta, cap)),
            Arc::new(LogUtility::new(l_scale, l_rate, cap)),
            Arc::new(capped),
            Arc::new(pw),
            Arc::new(pchip),
            Arc::new(Opaque(LogUtility::new(l_scale, l_rate, cap))),
        ];
        let mut table = DemandTable::new();
        table.compile(&utils);

        let mut grid: Vec<f64> = lambdas;
        grid.push(0.0);
        grid.push(f64::MIN_POSITIVE);
        grid.push(f64::INFINITY);
        for k in knots {
            if k.is_finite() && k >= 0.0 {
                grid.extend([ulp_down(k), k, ulp_up(k)]);
            }
        }
        grid.sort_by(|a, b| a.partial_cmp(b).unwrap());
        grid.dedup();

        let mut prev = vec![0.0f64; utils.len()];
        let mut out = vec![0.0f64; utils.len()];
        table.batch_inverse_derivative(&utils, grid[0], &mut prev);
        for &l in &grid[1..] {
            table.batch_inverse_derivative(&utils, l, &mut out);
            for (i, (&a, &b)) in prev.iter().zip(&out).enumerate() {
                // Tiny slack: powf/closed-form inversions are not
                // correctly rounded, so adjacent λ can wobble an ulp.
                prop_assert!(
                    b <= a + 1e-9 * cap,
                    "element {i} ({:?}): demand rose {a} -> {b} as λ reached {l}",
                    utils[i]
                );
            }
            std::mem::swap(&mut prev, &mut out);
        }
    }
}

/// Consecutive floats walked up from each sampled price.
const ULP_WALK: usize = 64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exact monotonicity, one float at a time and with no slack: the
    /// allocator's root-finder relies on `D(λ) > budget` flipping at a
    /// single pair of adjacent floats, which holds only if no column
    /// ever rises as λ steps up by one ulp. The PCHIP curves have the
    /// paper's §VII shape — `(0,0)`, `(C/2,v)`, `(C,v+w)` with `w ≤ v`
    /// — and the walks start inside their slope ranges, where the
    /// closed-form quadratic roots are evaluated.
    #[test]
    fn every_column_is_nonincreasing_across_adjacent_floats(
        pchips in prop::collection::vec((1.0..2000.0f64, 0.01..100.0f64, 0.0..1.0f64), 4..8),
        power_p in (0.01..20.0f64, 0.05..0.99f64),
        log_p in (0.01..20.0f64, 0.01..10.0f64),
        picks in prop::collection::vec(0.0..1.0f64, 8),
    ) {
        let mut utils: Vec<DynUtility> = Vec::new();
        let mut lambdas = Vec::new();
        for &(cap, v, w_frac) in &pchips {
            let p = Pchip::new(&[(0.0, 0.0), (cap / 2.0, v), (cap, v + w_frac * v)]).unwrap();
            let (steep, flat) = (p.derivative(0.0), p.derivative(cap));
            lambdas.extend(picks.iter().map(|f| flat + f * (steep - flat)));
            lambdas.push(p.derivative(cap / 2.0));
            utils.push(Arc::new(p));
        }
        let cap = pchips[0].0;
        let (p_scale, p_beta) = power_p;
        let (l_scale, l_rate) = log_p;
        utils.push(Arc::new(Power::new(p_scale, p_beta, cap)));
        utils.push(Arc::new(LogUtility::new(l_scale, l_rate, cap)));
        utils.push(Arc::new(CappedLinear::new(l_rate, cap / 3.0, cap)));
        let mut table = DemandTable::new();
        table.compile(&utils);

        let mut prev = vec![0.0f64; utils.len()];
        let mut out = vec![0.0f64; utils.len()];
        for &start in lambdas.iter().filter(|l| **l > 0.0) {
            let mut l = start;
            table.batch_inverse_derivative(&utils, l, &mut prev);
            for _ in 0..ULP_WALK {
                l = ulp_up(l);
                table.batch_inverse_derivative(&utils, l, &mut out);
                for (i, (&a, &b)) in prev.iter().zip(&out).enumerate() {
                    prop_assert!(
                        b <= a,
                        "element {i} ({:?}): demand rose {a:e} -> {b:e} at λ = {l:e}",
                        utils[i]
                    );
                }
                std::mem::swap(&mut prev, &mut out);
            }
        }
    }
}
