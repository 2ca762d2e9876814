//! Price-discovery solver backend (Agrawal–Boyd style).
//!
//! Algo2 re-walks the full superopt → linearize → assign pipeline every
//! solve; it tops out around the paper's 16×8192 matrix. This module
//! solves by **price discovery** instead: post a price, let every thread
//! respond with its demand-at-price, and move the price toward market
//! clearing. Each probe is one cache-friendly, pool-parallel sweep over
//! all `n` threads through the batched SoA demand kernel
//! ([`aa_utility::demand::DemandTable`]) — the parallelism lands on the
//! *sweep*, not the outer loop, which is what opens the `n = 10⁶`
//! regime.
//!
//! # Protocol (three phases)
//!
//! 1. **Global discovery** — clear the pooled market (supply `m·C`,
//!    demand `D(λ) = Σ xᵢ(λ)` over capped views) with the allocator's
//!    root-finder ([`aa_allocator::bisection::find_root`]), accepting
//!    the first price whose demand lies strictly within
//!    [`PRICE_TOL`]`·mC` of supply.
//! 2. **Placement** — threads are placed on the server with the most
//!    remaining capacity (deterministic argmax), clipping `cᵢ` to what
//!    remains; feasibility is exact by construction.
//! 3. **Per-server refinement** — each server independently re-clears
//!    its own market over its residents (supply `C`, same finder,
//!    started at the global price), then spreads any leftover. The
//!    refined allocation is kept only when it does not lose utility
//!    versus the clipped placement, so phase 3 can only help. Servers
//!    refine in parallel.
//!
//! Prices are the natural warm state: a [`PriceWarmState`] carries the
//! accepted global price and the per-server prices, so a drifted
//! re-solve starts its searches where the last solve converged and
//! typically accepts within a couple of sweeps.
//!
//! # Determinism
//!
//! Demand sweeps write `out[i]` by index (disjoint chunks of one
//! buffer). [`par_sweep`] totals the demand in the same pass: each fixed
//! [`SUM_BLOCK`](aa_allocator::bisection::SUM_BLOCK)-slot block in index
//! order, then the block totals in index order. The pool's chunks cover
//! whole blocks, so the summation order depends on `n` alone and results
//! are bit-identical at any pool width; up to one block it is the plain
//! index-order sum. A fixed summation tree of nonincreasing demands is
//! itself nonincreasing in λ, which is all the root-finder needs.
//!
//! # Tolerance
//!
//! [`PRICE_TOL`] (`1e-3`) applies **two-sided**: a price is accepted when
//! demand is within `PRICE_TOL·supply` of supply on *either* side.
//! Undershoot leaves at most `PRICE_TOL·mC` of the pooled supply unsold
//! (recovered by leftover spreading); overshoot is clipped by placement
//! and proportionally rescaled during per-server refinement, so
//! feasibility is always exact. A market whose clearing price sits in a
//! demand jump no price can bring within tolerance takes the collapsed
//! bracket's high price. The resulting total utility lands within a few
//! percent of Algo2's on the paper distributions (the differential suite
//! pins 5% relative); the gap versus the superopt *bound* is recorded
//! per-instance by `aa bench --mode scale`.

use rayon::prelude::*;

use aa_allocator::bisection::{find_root, Root, Search};
use aa_utility::demand::DemandTable;
use aa_utility::Utility;

use crate::budget::Budget;
use crate::problem::{Assignment, CappedView, Problem};
use crate::solver::SolveError;

pub use aa_allocator::bisection::par_sweep;

/// Relative clearing tolerance: a market clears at the first probe with
/// `|D(λ) − supply| < PRICE_TOL·supply` (two-sided; overshoot is clipped
/// at placement and rescaled during refinement).
pub const PRICE_TOL: f64 = 1e-3;

/// Largest instance whose phase-2 placement visits threads in
/// nonincreasing demand order; larger ones place in index order. An
/// algorithm choice, not a scheduling one: it is independent of
/// [`PAR_THRESHOLD`](aa_allocator::PAR_THRESHOLD), which only decides
/// whether sweeps fan out.
const SORTED_PLACEMENT_MAX: usize = 4096;

/// Observability snapshot of one price-discovery solve.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PriceStats {
    /// Global price probes (phase 1 demand sweeps).
    pub iterations: u64,
    /// Per-server refinement probes summed over servers (phase 3).
    pub refine_iterations: u64,
    /// Total demand sweeps (global full-width sweeps plus per-server
    /// resident sweeps).
    pub sweeps: u64,
    /// Whether a finite price cleared the global market: demand within
    /// tolerance, or a collapsed bracket around a demand jump. `false`
    /// only when demand exceeds supply at every price (placement clips).
    pub converged: bool,
    /// Whether the solve started from a carried [`PriceWarmState`].
    pub warm: bool,
}

/// Converged prices carried between solves: the warm state of the
/// price backend. Embedded in [`crate::incremental::WarmState`] so the
/// serve layer's per-stream warm maps carry prices with no extra
/// plumbing.
#[derive(Debug, Clone, Default)]
pub struct PriceWarmState {
    valid: bool,
    lambda: f64,
    server_prices: Vec<f64>,
    prev_servers: usize,
    prev_capacity: f64,
    /// Compiled demand table carried between solves, so a drifted
    /// re-solve recompiles only the rows whose utility changed instead
    /// of the whole instance (the single largest fixed cost at scale).
    table: DemandTable,
    /// The capped views the last solve swept, one per table row, moved
    /// in at its end. Each view holds its utility's `Arc`, which keeps
    /// that allocation alive and so makes the pointer-identity row check
    /// sound: a live address cannot be reused by a new utility. A state
    /// usable on a problem has the same capacity, so a view of the same
    /// utility has the same effective cap.
    views: Vec<CappedView>,
    stats: PriceStats,
}

impl PriceWarmState {
    /// Fresh, invalid state: the next solve runs cold.
    pub fn new() -> Self {
        PriceWarmState::default()
    }

    /// Drop the carried prices; the next solve runs cold.
    pub fn invalidate(&mut self) {
        self.valid = false;
        self.server_prices.clear();
        self.table = DemandTable::new();
        self.views.clear();
    }

    /// Whether the state currently carries usable prices.
    pub fn is_warm(&self) -> bool {
        self.valid
    }

    /// Stats of the most recent solve through this state.
    pub fn last_stats(&self) -> PriceStats {
        self.stats
    }

    /// The carried global clearing price, if warm.
    pub fn lambda(&self) -> Option<f64> {
        self.valid.then_some(self.lambda)
    }

    fn usable_for(&self, problem: &Problem) -> bool {
        self.valid
            && self.prev_servers == problem.servers()
            && self.prev_capacity == problem.capacity()
            && self.server_prices.len() == problem.servers()
    }
}

/// Registry handles for the price counters, cached so the hot loop
/// touches only atomics (same idiom as the incremental mode counters).
fn price_counters() -> &'static [aa_obs::Counter; 2] {
    static HANDLES: std::sync::OnceLock<[aa_obs::Counter; 2]> = std::sync::OnceLock::new();
    HANDLES.get_or_init(|| {
        let r = aa_obs::global();
        [
            r.counter("aa_price_iterations_total"),
            r.counter("aa_price_sweeps_total"),
        ]
    })
}

fn record_stats(stats: &PriceStats) {
    if aa_obs::record_enabled() {
        let c = price_counters();
        c[0].add(stats.iterations + stats.refine_iterations);
        c[1].add(stats.sweeps);
    }
}

/// Clear one market with the shared root-finder, starting at `start`:
/// returns the accepted price and whether a finite price cleared it.
/// `demand(λ)` must be non-increasing in λ. An unsaturated market (caps
/// within supply) clears at price zero without a probe.
fn clearing_price(
    supply: f64,
    sum_caps: f64,
    start: f64,
    demand: impl FnMut(f64) -> Result<f64, SolveError>,
) -> Result<(f64, bool), SolveError> {
    if sum_caps <= supply * (1.0 + 1e-12) {
        return Ok((0.0, true));
    }
    let search = Search {
        start,
        tol: PRICE_TOL,
        ladder: &[],
    };
    Ok(match find_root(search, supply, sum_caps, demand)? {
        Root::Within { lambda } => (lambda, true),
        Root::Collapsed { hi, .. } => (hi, true),
        Root::Unbracketed => (f64::MAX, false),
    })
}

/// Deterministic max-remaining placement: thread `i` (in `order`) goes
/// to the server with the most remaining capacity (ties to the lowest
/// server index), clipped to fit. A hand-rolled binary max-heap on
/// `(remaining, index)` makes each pick O(log m) instead of O(m) — the
/// sequential scan dominated placement once `n·m` reached 10⁵·16.
fn place(
    problem: &Problem,
    amounts: &[f64],
    order: &[usize],
) -> (Vec<usize>, Vec<f64>) {
    let _span = aa_obs::span!("price_place");
    let m = problem.servers();
    let mut server = vec![0usize; problem.len()];
    let mut out = vec![0.0f64; problem.len()];
    // Heap of (remaining, server) ordered by remaining desc, then
    // server asc — the root is always the argmax the linear scan found.
    let ahead = |a: (f64, usize), b: (f64, usize)| a.0 > b.0 || (a.0 == b.0 && a.1 < b.1);
    let mut heap: Vec<(f64, usize)> =
        (0..m).map(|j| (problem.capacity(), j)).collect();
    // All entries start equal, so the identity layout is already a
    // valid heap (parent ties child ⇒ parent index < child index).
    for &i in order {
        let (rem, best) = heap[0];
        let c = amounts[i].min(rem).max(0.0);
        server[i] = best;
        out[i] = c;
        // Sift the shrunken root back down.
        let mut k = 0usize;
        heap[0].0 = rem - c;
        loop {
            let l = 2 * k + 1;
            if l >= m {
                break;
            }
            let r = l + 1;
            let child = if r < m && ahead(heap[r], heap[l]) { r } else { l };
            if ahead(heap[child], heap[k]) {
                heap.swap(child, k);
                k = child;
            } else {
                break;
            }
        }
    }
    (server, out)
}

/// Per-server refinement: re-clear server `j`'s market over its
/// residents, spread leftovers, and keep the refined allocation only
/// if it does not lose utility against the clipped placement. Returns
/// the refined per-resident amounts, the accepted server price, and the
/// number of probes.
#[allow(clippy::too_many_arguments)]
fn refine_server(
    table: &DemandTable,
    utils: &[CappedView],
    residents: &[usize],
    clipped: &[f64],
    capacity: f64,
    global_lambda: f64,
    lambda0: f64,
    budget: Option<&Budget>,
) -> Result<(Vec<f64>, f64, u64), SolveError> {
    let sum_caps: f64 = residents.iter().map(|&i| utils[i].cap()).sum();
    // The closure keeps the per-resident demands of its latest
    // evaluation so the accepting probe's work is reused below.
    let mut vals = vec![0.0f64; residents.len()];
    let mut last_l = f64::NAN;
    let mut iters = 0u64;
    let (price, _) = clearing_price(capacity, sum_caps, lambda0, |l| {
        if let Some(b) = budget {
            b.check()?;
        }
        iters += 1;
        let mut d = 0.0;
        for (k, &i) in residents.iter().enumerate() {
            let v = table.eval(utils, i, l);
            vals[k] = v;
            d += v;
        }
        last_l = l;
        Ok(d)
    })?;
    let mut refined: Vec<f64> = if last_l == price {
        vals
    } else {
        residents
            .iter()
            .map(|&i| table.eval(utils, i, price))
            .collect()
    };
    let mut used: f64 = refined.iter().sum();
    let mut rescaled = false;
    if used > capacity {
        // The two-sided accept lets demand overshoot supply by up to
        // tol·C; scale proportionally back onto the budget. The
        // better-of comparison below still protects quality.
        let f = capacity / used;
        for v in &mut refined {
            *v *= f;
        }
        used = capacity;
        rescaled = true;
    }
    // Spread leftover supply to residents below their cap, in index
    // order — utilities are non-decreasing on [0, cap], so this never
    // hurts.
    let mut leftover = capacity - used;
    for (k, &i) in residents.iter().enumerate() {
        if leftover <= 0.0 {
            break;
        }
        let room = (utils[i].cap() - refined[k]).max(0.0);
        let give = room.min(leftover);
        refined[k] += give;
        leftover -= give;
    }
    used = refined.iter().sum();
    debug_assert!(used <= capacity * (1.0 + 1e-9));
    // When the server cleared at or below the global price with no
    // overshoot rescale, `refined` dominates `clipped` pointwise:
    // demand is non-increasing in λ, placement clipping only reduces,
    // and leftover spreading only adds — with `value` nondecreasing
    // (trait contract) the refined allocation provably scores at least
    // as high, so the two value sweeps below are skipped.
    if !rescaled && price <= global_lambda {
        return Ok((refined, price, iters));
    }
    // Keep whichever allocation scores higher on this server, so
    // refinement can only help.
    let util_old: f64 = residents
        .iter()
        .zip(clipped)
        .map(|(&i, &c)| utils[i].value(c))
        .sum();
    let util_new: f64 = residents
        .iter()
        .zip(&refined)
        .map(|(&i, &c)| utils[i].value(c))
        .sum();
    if util_new >= util_old {
        Ok((refined, price, iters))
    } else {
        Ok((clipped.to_vec(), price, iters))
    }
}

/// Full price-discovery solve with an optional budget and optional
/// warm state. Returns the assignment and the solve's [`PriceStats`].
/// A budget is checked once per price probe, global and per-server
/// alike; `None` skips every check.
pub fn solve_with(
    problem: &Problem,
    budget: Option<&Budget>,
    warm: Option<&mut PriceWarmState>,
) -> Result<(Assignment, PriceStats), SolveError> {
    let _span = aa_obs::span!("price");
    let n = problem.len();
    let m = problem.servers();
    let capacity = problem.capacity();
    let supply = m as f64 * capacity;

    let threads = problem.threads();
    let mut stats = PriceStats::default();
    let mut warm = warm;
    let warm_usable = warm.as_ref().is_some_and(|w| w.usable_for(problem));
    stats.warm = warm_usable;

    // Views and table: a warm state carries the previous solve's capped
    // views and compiled table, so only rows whose utility object
    // changed are rebuilt — at 1% drift that turns the largest O(n)
    // fixed cost into an O(n) pointer scan.
    let (utils, table) = match warm.as_deref_mut().filter(|w| {
        warm_usable && w.views.len() == n && w.table.len() == n
    }) {
        Some(w) => {
            let mut utils = std::mem::take(&mut w.views);
            let mut t = std::mem::take(&mut w.table);
            let mut patched = false;
            for (i, view) in utils.iter_mut().enumerate() {
                if !view.wraps(&threads[i]) {
                    *view = problem.capped_thread(i);
                    t.patch(i, view);
                    patched = true;
                }
            }
            if patched {
                t.refresh_global();
            }
            (utils, t)
        }
        None => {
            let utils = problem.capped_threads();
            let mut t = DemandTable::new();
            t.compile(&utils);
            (utils, t)
        }
    };
    let sum_caps: f64 = utils.iter().map(|u| u.cap()).sum();
    let warm_prices = warm
        .as_ref()
        .filter(|_| warm_usable)
        .map(|w| (w.lambda, &w.server_prices[..]));
    let lambda0 = warm_prices.map_or(1.0, |(l, _)| l);

    // Phase 1: global price discovery — one parallel sweep per probe,
    // which also returns the probe's block-ordered demand total.
    let mut buf = vec![0.0f64; n];
    let mut last_swept = f64::NAN;
    let (lambda, converged) = {
        let _d = aa_obs::span!("price_discovery");
        clearing_price(supply, sum_caps, lambda0, |l| {
            if let Some(b) = budget {
                b.check()?;
            }
            stats.iterations += 1;
            last_swept = l;
            Ok(par_sweep(&table, &utils, l, &mut buf))
        })?
    };
    stats.converged = converged;
    let mut sweeps = stats.iterations;
    // Demand at the accepted price: the accepting probe usually was the
    // last sweep, in which case `buf` already holds it.
    if last_swept != lambda {
        par_sweep(&table, &utils, lambda, &mut buf);
        sweeps += 1;
    }

    // Phase 2: placement. Sorting by demand improves first-fit quality
    // but costs O(n log n); past `SORTED_PLACEMENT_MAX` the per-server
    // refinement recovers the quality instead.
    let order: Vec<usize> = if n <= SORTED_PLACEMENT_MAX {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| {
            buf[b].partial_cmp(&buf[a]).unwrap().then(a.cmp(&b))
        });
        idx
    } else {
        (0..n).collect()
    };
    let (server, clipped) = place(problem, &buf, &order);

    // Phase 3: per-server refinement, parallel over servers.
    let groups = {
        let mut g: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (i, &j) in server.iter().enumerate() {
            g[j].push(i);
        }
        g
    };
    let refine_span = aa_obs::span!("price_refine");
    type Refined = Result<(Vec<f64>, f64, u64), SolveError>;
    let refined: Vec<Refined> = groups
        .par_iter()
        .map(|residents| {
            let j = match residents.first() {
                Some(&i) => server[i],
                None => return Ok((Vec::new(), lambda, 0)),
            };
            let start = warm_prices.map_or(lambda, |(_, p)| p[j]);
            let local: Vec<f64> = residents.iter().map(|&i| clipped[i]).collect();
            refine_server(
                &table, &utils, residents, &local, capacity, lambda, start, budget,
            )
        })
        .collect();
    drop(refine_span);

    let mut amount = clipped;
    let mut server_prices = vec![lambda; m];
    for (j, res) in refined.into_iter().enumerate() {
        let (vals, price, r_iters) = res?;
        stats.refine_iterations += r_iters;
        sweeps += r_iters;
        server_prices[j] = price;
        for (k, &i) in groups[j].iter().enumerate() {
            amount[i] = vals[k];
        }
    }
    stats.sweeps = sweeps;
    record_stats(&stats);

    if let Some(w) = warm {
        w.valid = true;
        w.lambda = lambda;
        w.server_prices = server_prices;
        w.prev_servers = m;
        w.prev_capacity = capacity;
        w.table = table;
        w.views = utils;
        w.stats = stats;
    }

    Ok((Assignment { server, amount }, stats))
}

/// Cold price-discovery solve; never fails.
pub fn solve(problem: &Problem) -> Assignment {
    match solve_with(problem, None, None) {
        Ok((a, _)) => a,
        Err(_) => unreachable!("unbudgeted price solve cannot fail"),
    }
}

/// Warm solve through a carried [`PriceWarmState`]: searches start at
/// the previous solve's converged prices, and the state is updated with
/// this solve's accepted prices on success.
pub fn solve_warm(
    problem: &Problem,
    state: &mut PriceWarmState,
) -> Result<Assignment, SolveError> {
    solve_with(problem, None, Some(state)).map(|(a, _)| a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_allocator::bisection::SUM_BLOCK;
    use aa_utility::{DynUtility, LogUtility, Power};

    /// Three full demand-total blocks and a ragged tail: sweeps fan out
    /// and the total folds several blocks.
    const MULTI_BLOCK: usize = 3 * SUM_BLOCK + 17;

    fn mixed_problem(n: usize, m: usize, capacity: f64) -> Problem {
        Problem::builder(m, capacity)
            .threads((0..n).map(|i| match i % 3 {
                0 => Arc::new(Power::new(1.0 + (i % 7) as f64, 0.5, capacity * 2.0)) as _,
                1 => Arc::new(LogUtility::new(1.0 + (i % 5) as f64, 1.0, capacity * 2.0)) as _,
                _ => Arc::new(Power::new(0.5 + (i % 4) as f64, 0.8, capacity)) as _,
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn solve_is_feasible_and_positive() {
        let p = mixed_problem(40, 4, 10.0);
        let a = solve(&p);
        a.validate(&p).unwrap();
        assert!(a.total_utility(&p) > 0.0);
    }

    #[test]
    fn unsaturated_instance_gets_caps() {
        // 3 threads capped at 2.0 against 4×10 supply: price 0.
        let p = Problem::builder(4, 10.0)
            .threads((0..3).map(|_| Arc::new(Power::new(1.0, 0.5, 2.0)) as _))
            .build()
            .unwrap();
        let (a, stats) = solve_with(&p, None, None).unwrap();
        assert!(stats.converged);
        for &c in &a.amount {
            assert!((c - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn near_algo2_utility() {
        let p = mixed_problem(120, 4, 10.0);
        let price = solve(&p).total_utility(&p);
        let algo2 = crate::algo2::solve(&p).total_utility(&p);
        assert!(
            price >= algo2 * 0.95,
            "price {price} too far below algo2 {algo2}"
        );
    }

    #[test]
    fn warm_resolve_matches_and_reports_warm() {
        let p = mixed_problem(60, 4, 10.0);
        let mut state = PriceWarmState::new();
        let cold = solve_warm(&p, &mut state).unwrap();
        assert!(state.is_warm());
        assert!(!state.last_stats().warm);
        let warm = solve_warm(&p, &mut state).unwrap();
        assert!(state.last_stats().warm);
        assert!(state.last_stats().iterations <= 2, "{:?}", state.last_stats());
        warm.validate(&p).unwrap();
        // Same problem, warm prices: utilities agree tightly.
        let (cu, wu) = (cold.total_utility(&p), warm.total_utility(&p));
        assert!((cu - wu).abs() <= 1e-6 * cu.max(1.0));
    }

    #[test]
    fn warm_after_drift_patches_cache_and_stays_close() {
        for n in [96, MULTI_BLOCK] {
            let p = mixed_problem(n, 6, 10.0);
            // Replace ~1% of the threads; the warm solve must patch its
            // carried views and table rows for exactly these and stay
            // correct.
            let mut threads: Vec<DynUtility> = p.threads().to_vec();
            for i in (3..n).step_by(n / (n / 100 + 2)) {
                threads[i] = if i % 2 == 1 {
                    Arc::new(Power::new(9.0, 0.5, 20.0))
                } else {
                    Arc::new(LogUtility::new(4.0, 2.0, 20.0))
                };
            }
            let drifted = Problem::new(6, 10.0, threads).unwrap();
            let drift = || {
                let mut state = PriceWarmState::new();
                let _ = solve_warm(&p, &mut state).unwrap();
                // The same carried prices without the views and table:
                // that solve rebuilds them from the drifted problem, and
                // the patched ones must sweep exactly like them.
                let mut rebuilt = state.clone();
                rebuilt.views.clear();
                let warm = solve_warm(&drifted, &mut state).unwrap();
                let reference = solve_warm(&drifted, &mut rebuilt).unwrap();
                assert_eq!(warm.server, reference.server, "n={n}");
                assert_eq!(warm.amount, reference.amount, "n={n}");
                (warm, state.last_stats())
            };
            let (warm, stats) = rayon::with_threads(1, drift);
            warm.validate(&drifted).unwrap();
            assert!(stats.warm, "n={n}");
            for width in [2, 8] {
                let (other, _) = rayon::with_threads(width, drift);
                assert_eq!(warm.server, other.server, "n={n}, {width} threads");
                assert_eq!(warm.amount, other.amount, "n={n}, {width} threads");
            }
            let cold = solve(&drifted);
            cold.validate(&drifted).unwrap();
            let (wu, cu) = (warm.total_utility(&drifted), cold.total_utility(&drifted));
            assert!(wu >= 0.95 * cu, "n={n}: warm utility {wu} too far below cold {cu}");
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let p = mixed_problem(MULTI_BLOCK, 8, 50.0);
        let base = rayon::with_threads(1, || solve(&p));
        for threads in [2, 8] {
            let other = rayon::with_threads(threads, || solve(&p));
            assert_eq!(base.server, other.server, "{threads} threads");
            assert_eq!(base.amount, other.amount, "{threads} threads");
        }
    }

    #[test]
    fn budget_expiry_surfaces() {
        let p = mixed_problem(40, 4, 10.0);
        let budget = Budget::with_fuel(1);
        match solve_with(&p, Some(&budget), None) {
            Err(SolveError::DeadlineExceeded) => {}
            other => panic!("expected deadline expiry, got {other:?}"),
        }
    }

    #[test]
    fn invalidate_forces_cold() {
        let p = mixed_problem(30, 2, 8.0);
        let mut state = PriceWarmState::new();
        solve_warm(&p, &mut state).unwrap();
        state.invalidate();
        assert!(!state.is_warm());
        solve_warm(&p, &mut state).unwrap();
        assert!(!state.last_stats().warm);
    }
}
