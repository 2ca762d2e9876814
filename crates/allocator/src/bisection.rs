//! Galil-style allocation on the marginal value λ, and the one λ
//! root-finder the workspace shares.
//!
//! For concave utilities, the optimal single-pool allocation equalizes
//! marginal utilities: there is a "price" `λ*` such that every thread takes
//! `x_i(λ*) = sup { x ≤ cap_i : f_i′(x) ≥ λ* }` and the demands sum to the
//! budget. Total demand `D(λ) = Σ x_i(λ)` is nonincreasing in λ, so `λ*`
//! is a monotone root — found by search, the approach of the paper's
//! reference \[16\] (Galil).
//!
//! [`find_root`] is the only such search in the workspace. The allocator
//! here — [`allocate`], its checked form [`allocate_checked`] and the
//! warm [`allocate_warm_into`] — and the price-discovery backend in
//! `aa-core` (global clearing and per-server refinement) all call it.
//! It probes a start price (`1.0` cold, the previous answer warm), walks
//! geometrically until the root is bracketed, and refines with a
//! safeguarded secant step and a midpoint every sixth probe. It stops when the bracket collapses to adjacent
//! floats, or — price discovery only — when demand lies within a
//! tolerance of supply.
//!
//! **Bit-identity.** Every compiled demand kernel is exactly
//! nonincreasing in λ (pinned one ulp at a time by `aa-utility`'s
//! `demand_monotone` test), and every sweep sums in index order, so the
//! predicate `D(λ) > budget` flips at one unique pair of adjacent floats.
//! A search that collapses lands on that pair whatever its start price
//! and steps. The allocation is a function of the pair alone — the
//! demands at its high price, plus the leftover spread over the threads
//! whose demand jumps across it — so cold, warm and budgeted allocations
//! agree bit for bit.
//!
//! **Fan-out.** Every entry spreads its sweeps over the thread pool once
//! the slice holds [`PAR_THRESHOLD`] elements, and only then; which
//! entry a caller picks never decides it. Slots are written by index
//! and summed in index order, so the answer is the same bits at every
//! pool width, and `rayon::with_threads(1, …)` is the sequential
//! reference. The price backend's [`par_sweep`] instead totals fixed
//! [`SUM_BLOCK`]-slot blocks inside the sweep; that order too is fixed
//! by the size alone, never by the pool.

use aa_utility::{DemandTable, Utility};
use rayon::prelude::*;
use rayon::CancelToken;

use crate::{Allocation, PAR_THRESHOLD};

/// Cached handles into the global metrics registry, created on the first
/// *recorded* call so the zero-allocation steady state never sees the
/// registry lock (the arena test's warmup epochs create them).
fn obs_counters() -> &'static (aa_obs::Counter, aa_obs::Counter, aa_obs::Counter) {
    static HANDLES: std::sync::OnceLock<(aa_obs::Counter, aa_obs::Counter, aa_obs::Counter)> =
        std::sync::OnceLock::new();
    HANDLES.get_or_init(|| {
        let r = aa_obs::global();
        (
            r.counter("aa_bisection_cold_total"),
            r.counter("aa_bisection_warm_total"),
            r.counter("aa_bisection_demand_maps_total"),
        )
    })
}

/// Marker error: an interruptible allocation was abandoned because its
/// cancel token fired *between* two check-closure calls (the pool
/// observed the token mid-map). Callers with richer error enums convert
/// it via their `From<Interrupted>` impl.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted;

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("allocation interrupted by its cancel token")
    }
}

impl std::error::Error for Interrupted {}

/// Slots per fan-out chunk of an `n`-slot sweep: about four chunks per
/// pool thread.
fn chunk_len(n: usize) -> usize {
    n.div_ceil(rayon::current_num_threads().max(1) * 4).max(1)
}

/// Run `fill(start, chunk)` over `out` split into chunks, where
/// `chunk[k]` is slot `start + k`: a plain loop below
/// [`PAR_THRESHOLD`] slots, disjoint contiguous chunks over the pool
/// from it on. With a token, the pool abandons unclaimed chunks when it
/// fires and the call returns `None`. Every slot gets the same value
/// either way, and callers fold the slice sequentially in index order,
/// so results are bit-identical at every size and pool width.
fn fill(
    token: Option<&CancelToken>,
    out: &mut [f64],
    fill: impl Fn(usize, &mut [f64]) + Sync,
) -> Option<()> {
    let n = out.len();
    if n < PAR_THRESHOLD {
        fill(0, out);
        return Some(());
    }
    let chunk = chunk_len(n);
    let chunks = out
        .chunks_mut(chunk)
        .enumerate()
        .collect::<Vec<_>>()
        .into_par_iter();
    let run = |(k, slot): (usize, &mut [f64])| fill(k * chunk, slot);
    match token {
        Some(token) => chunks.for_each_cancellable(token, run).ok(),
        None => {
            chunks.for_each(run);
            Some(())
        }
    }
}

/// One demand sweep `out[i] = x_i(λ)` through the compiled kernel;
/// returns the index-order sum. The table's bit-identity contract
/// makes each slot equal `utils[i].inverse_derivative(lambda)`.
fn sweep<U: Utility>(
    token: Option<&CancelToken>,
    table: &DemandTable,
    utils: &[U],
    lambda: f64,
    out: &mut [f64],
) -> Option<f64> {
    fill(token, out, |start, chunk| {
        table.batch_range(utils, lambda, start, chunk)
    })?;
    Some(out.iter().sum())
}

/// Slots per block of [`par_sweep`]'s total. Part of the answer, like a
/// sort cutoff: the total is a function of this block size alone, never
/// of the pool width or of [`PAR_THRESHOLD`].
pub const SUM_BLOCK: usize = 4096;

/// One demand sweep `out[i] = x_i(λ)`, fanned out once `n` reaches
/// [`PAR_THRESHOLD`], returning the total demand: the price backend's
/// sweep. Each [`SUM_BLOCK`]-slot block is summed in index order as the
/// chunk that owns it writes it (chunks cover whole blocks), so the add
/// chain overlaps the kernel instead of following it on one core; the
/// block totals are then added in index order. Both folds start at
/// `-0.0`, as `Iterator::sum` does, so up to `SUM_BLOCK` slots the total
/// is `out.iter().sum()` bit for bit. Any fixed summation tree of
/// nonincreasing terms is nonincreasing in λ, and this tree does not
/// depend on the pool, so the total is monotone and the same bits at
/// every pool width.
pub fn par_sweep<U: Utility>(
    table: &DemandTable,
    utils: &[U],
    lambda: f64,
    out: &mut [f64],
) -> f64 {
    let n = out.len();
    let mut totals = vec![0.0; n.div_ceil(SUM_BLOCK)];
    // One chunk below the threshold (the pool runs it inline), and
    // whole blocks per chunk from it on.
    let chunk = if n < PAR_THRESHOLD { n } else { chunk_len(n) }
        .max(1)
        .next_multiple_of(SUM_BLOCK);
    let run = |(k, (slots, sums)): (usize, (&mut [f64], &mut [f64]))| {
        let blocks = slots.chunks_mut(SUM_BLOCK).zip(sums);
        for (b, (block, sum)) in blocks.enumerate() {
            let start = k * chunk + b * SUM_BLOCK;
            let mut acc = -0.0;
            for (i, slot) in block.iter_mut().enumerate() {
                *slot = table.eval(utils, start + i, lambda);
                acc += *slot;
            }
            *sum = acc;
        }
    };
    out.chunks_mut(chunk)
        .zip(totals.chunks_mut(chunk / SUM_BLOCK))
        .enumerate()
        .collect::<Vec<_>>()
        .into_par_iter()
        .for_each(run);
    totals.iter().sum()
}

/// The next float above a non-negative `x` (`+∞` stays put).
fn next_up(x: f64) -> f64 {
    if x == f64::INFINITY {
        x
    } else {
        f64::from_bits(x.to_bits() + 1)
    }
}

/// The next float below a positive `x` (`+∞` steps to `f64::MAX`).
fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// Every this many probes the search takes a midpoint instead of a
/// secant step, which keeps the worst case within a constant factor of
/// plain bisection.
const MIDPOINT_EVERY: u32 = 6;

/// Where a root search starts and when it may stop early.
#[derive(Debug, Clone, Copy)]
pub struct Search<'a> {
    /// The first probe: `1.0` cold, the previous answer warm. A start
    /// that is not positive and finite probes `1.0`.
    pub start: f64,
    /// Stop at the first probe with `|D(λ) − supply| < tol·supply`. At
    /// `0.0` the search always collapses the bracket.
    pub tol: f64,
    /// Ascending positive prices outside which `D` is constant — an
    /// all-discrete table's [`ladder`](DemandTable::ladder). When
    /// non-empty, every probe is the middle ladder price left inside the
    /// bracket (`start` is ignored), and a bracket holding no ladder
    /// price inside is collapsed without another probe.
    pub ladder: &'a [f64],
}

/// How a root search ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Root {
    /// Adjacent floats `lo < hi` with `D(lo) > supply ≥ D(hi) = d_hi`:
    /// the unique pair where the predicate flips. `lo` may be `0`,
    /// which is never probed.
    Collapsed {
        /// The last price whose demand exceeds supply.
        lo: f64,
        /// The first price whose demand fits supply.
        hi: f64,
        /// `D(hi)`.
        d_hi: f64,
    },
    /// A probe whose demand lies strictly within `tol·supply` of supply.
    Within {
        /// The accepted price.
        lambda: f64,
    },
    /// Demand exceeds supply at every price up to `f64::MAX`.
    Unbracketed,
}

/// Find the price where the nonincreasing demand `D(λ)` meets `supply`.
///
/// `demand(λ)` sweeps every element at `λ > 0` and returns the total; an
/// `Err` aborts the search and is returned verbatim. `d_zero = D(0)`
/// must exceed `supply` (callers answer the saturated case without a
/// search), so `λ = 0` is the bracket's known low end and is never
/// probed.
///
/// Each step probes strictly inside the current bracket `(lo, hi)`:
///
/// * a secant step through the last two probes (the first step uses the
///   point at `λ = 0`), kept when it falls inside the bracket — clamped
///   one float in from either end, and to `8·lo` while `hi` is still
///   unknown. While the bracket spans more than 1% the secant runs in
///   log–log coordinates, where demand curves of power-law shape are
///   straight lines, so it crosses decades of price in a step or two;
///   inside it, where the curve is locally linear, it runs in `(λ, D)`;
/// * otherwise, and on every sixth probe, a midpoint:
///   with `hi` unknown (or `lo` still `0`) a geometric walk up (down)
///   whose stride squares at each use — `2, 4, 16, 256, …` — then the
///   geometric mean while `hi > 4·lo`, then the arithmetic mean.
///
/// Every probe lies strictly inside the bracket, so the search ends.
pub fn find_root<E>(
    search: Search<'_>,
    supply: f64,
    d_zero: f64,
    mut demand: impl FnMut(f64) -> Result<f64, E>,
) -> Result<Root, E> {
    debug_assert!(d_zero > supply, "D(0) must exceed supply");
    let ladder = search.ladder;
    let (mut lo, mut hi, mut d_hi) = (0.0_f64, f64::INFINITY, f64::NAN);
    // The previous probe and its demand, for the secant step.
    let (mut last, mut last_d) = (0.0_f64, d_zero);
    let mut stride = 2.0_f64;
    let mut x = if search.start > 0.0 && search.start.is_finite() {
        search.start
    } else {
        1.0
    };
    for probe in 1_u32.. {
        if !ladder.is_empty() {
            let first = ladder.partition_point(|&t| t <= lo);
            let end = ladder.partition_point(|&t| t < hi);
            x = if first < end {
                ladder[first + (end - first) / 2]
            } else if hi < f64::INFINITY {
                // `D` is constant on `(lo, hi]`: the flip is at `lo`.
                return Ok(Root::Collapsed {
                    lo,
                    hi: next_up(lo),
                    d_hi,
                });
            } else if lo == ladder[ladder.len() - 1] {
                next_up(lo)
            } else {
                return Ok(Root::Unbracketed);
            };
        }
        let d = demand(x)?;
        let g = d - supply;
        if g.abs() < search.tol * supply {
            return Ok(Root::Within { lambda: x });
        }
        if g > 0.0 {
            lo = x;
        } else {
            (hi, d_hi) = (x, d);
        }
        if next_up(lo) >= hi {
            return Ok(Root::Collapsed { lo, hi, d_hi });
        }
        if lo == f64::MAX {
            return Ok(Root::Unbracketed);
        }
        let secant = if hi > 1.01 * lo && last > 0.0 && d > 0.0 && last_d > 0.0 {
            // A positive float's bit pattern is 2⁵²·log₂ of it plus a
            // constant, to within 0.09 in the logarithm: the secant on
            // bit patterns is a log–log secant without calling libm, and
            // stepping the pattern by whole ulps keeps small steps exact.
            let diff = |a: f64, b: f64| (a.to_bits() as i64 - b.to_bits() as i64) as f64;
            let shift = diff(d, supply) * diff(x, last) / diff(d, last_d);
            if shift.is_finite() {
                let t = (x.to_bits() as i64).saturating_sub(shift as i64);
                f64::from_bits(t.max(0) as u64)
            } else {
                f64::NAN
            }
        } else {
            x - g * (x - last) / (d - last_d)
        };
        (last, last_d) = (x, d);
        x = if probe % MIDPOINT_EVERY != 0 && lo <= secant && secant <= hi {
            if hi < f64::INFINITY {
                secant
            } else {
                secant.min(8.0 * lo)
            }
        } else if hi == f64::INFINITY || lo == 0.0 {
            let step = if lo == 0.0 { hi / stride } else { lo * stride };
            stride *= stride;
            step
        } else if hi > 4.0 * lo {
            lo.sqrt() * hi.sqrt()
        } else {
            lo + 0.5 * (hi - lo)
        };
        x = x.clamp(next_up(lo), next_down(hi));
    }
    unreachable!("the bracket shrinks by at least one float per probe")
}

/// How a warm allocation went: the benchmark's cold-vs-warm comparison
/// reports `demand_maps`, the whole-slice evaluations that dominate the
/// allocator's running time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmStats {
    /// Whole-slice demand maps evaluated (each is `O(n)`); `0` when the
    /// budget saturates every cap.
    pub demand_maps: u32,
}

/// Warm-start state for [`allocate_warm_into`]: the previous answer's
/// price plus every buffer the search needs, so a steady-state call
/// below [`PAR_THRESHOLD`] elements performs no heap allocation at all
/// (buffers are resized within their retained capacity).
#[derive(Debug, Clone, Default)]
pub struct WarmCache {
    /// The high end of the previous collapsed bracket, where the next
    /// search starts; `None` starts cold at `1.0`.
    price: Option<f64>,
    caps: Vec<f64>,
    /// Per-element demands at the latest probe whose total exceeded the
    /// budget, at the latest one that fit, and at the probe in flight.
    d_lo: Vec<f64>,
    d_hi: Vec<f64>,
    d_probe: Vec<f64>,
    /// The compiled demand kernel, recompiled per call (utilities drift
    /// between epochs); its buffers retain capacity, so steady-state
    /// recompiles allocate nothing.
    table: DemandTable,
    stats: WarmStats,
}

impl WarmCache {
    /// An empty cache: the first allocation through it starts cold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget the previous price: the next call starts cold. Called
    /// automatically when an interruptible warm allocation aborts.
    pub fn invalidate(&mut self) {
        self.price = None;
    }

    /// Telemetry of the most recent call through this cache.
    pub fn last_stats(&self) -> WarmStats {
        self.stats
    }

    /// The price the next search starts from, if a completed solve
    /// pinned one.
    pub fn price(&self) -> Option<f64> {
        self.price
    }
}

/// Converts a cancelled sweep into the caller's error: prefer the
/// check's own diagnosis (it knows *why* the token fired), fall back to
/// the bare marker.
fn interrupted<E: From<Interrupted>>(check: &mut dyn FnMut() -> Result<(), E>) -> E {
    match check() {
        Err(e) => e,
        Ok(()) => Interrupted.into(),
    }
}

/// The allocator behind every entry point. Searches from `start` for the
/// collapsed bracket (through the all-discrete ladder when `use_ladder`
/// and the table allows), then writes the demands at its high price plus
/// the spread leftover into `amounts`. Returns the high price, or `None`
/// when the budget saturates every cap. `check` runs once up front, once
/// per demand sweep and once before the spread, so a firing deadline
/// overshoots by at most one sweep.
#[allow(clippy::too_many_arguments)]
fn allocate_into<U, E>(
    utils: &[U],
    budget: f64,
    start: f64,
    use_ladder: bool,
    token: Option<&CancelToken>,
    cache: &mut WarmCache,
    amounts: &mut Vec<f64>,
    check: &mut dyn FnMut() -> Result<(), E>,
) -> Result<Option<f64>, E>
where
    U: Utility,
    E: From<Interrupted>,
{
    assert!(
        budget >= 0.0 && budget.is_finite(),
        "budget must be finite and ≥ 0"
    );
    check()?;
    let WarmCache {
        caps,
        d_lo,
        d_hi,
        d_probe,
        table,
        stats,
        ..
    } = cache;
    *stats = WarmStats::default();
    caps.clear();
    caps.extend(utils.iter().map(|f| f.cap()));
    let total_cap: f64 = caps.iter().sum();
    amounts.clear();
    if budget >= total_cap {
        amounts.extend_from_slice(caps);
        return Ok(None);
    }

    table.compile(utils);
    for buf in [&mut *d_lo, &mut *d_hi, &mut *d_probe] {
        buf.resize(utils.len(), 0.0);
    }
    let ladder = if use_ladder && table.all_discrete() {
        table.ladder()
    } else {
        &[]
    };
    let root = find_root(
        Search {
            start,
            tol: 0.0,
            ladder,
        },
        budget,
        total_cap,
        |lambda| {
            check()?;
            stats.demand_maps += 1;
            let d = match sweep(token, table, utils, lambda, d_probe) {
                Some(d) => d,
                None => return Err(interrupted(check)),
            };
            // Each probe becomes the bracket's new low or high end, so the
            // latest sweep on each side holds the final ends' demands.
            std::mem::swap(d_probe, if d > budget { &mut *d_lo } else { &mut *d_hi });
            Ok(d)
        },
    )?;
    if aa_obs::record_enabled() {
        obs_counters().2.add(u64::from(stats.demand_maps));
    }
    let Root::Collapsed {
        lo,
        hi,
        d_hi: spent,
    } = root
    else {
        panic!("could not bracket the marginal price; utility derivatives do not decay");
    };

    check()?;
    amounts.extend_from_slice(d_hi);
    let leftover = budget - spent;
    if leftover > 0.0 {
        // Every kernel demands its cap at λ = 0.
        spread_leftover(amounts, if lo == 0.0 { caps } else { d_lo }, caps, leftover);
    }
    Ok(Some(hi))
}

/// Spread `leftover` over the threads whose demand is elastic across the
/// final bracket (proportionally to their slack `lo_amounts − amounts`),
/// then pour numerical crumbs into any remaining cap in index order.
fn spread_leftover(amounts: &mut [f64], lo_amounts: &[f64], caps: &[f64], mut leftover: f64) {
    let mut total_slack = 0.0;
    for (&a, &b) in lo_amounts.iter().zip(amounts.iter()) {
        total_slack += (a - b).max(0.0);
    }
    if total_slack > 0.0 {
        let frac = (leftover / total_slack).min(1.0);
        for (amt, &a) in amounts.iter_mut().zip(lo_amounts) {
            let s = (a - *amt).max(0.0);
            *amt += frac * s;
        }
        leftover -= frac * total_slack;
    }
    if leftover > 0.0 {
        for (amt, &cap) in amounts.iter_mut().zip(caps) {
            let room = cap - *amt;
            if room > 0.0 {
                let add = room.min(leftover);
                *amt += add;
                leftover -= add;
                if leftover <= 0.0 {
                    break;
                }
            }
        }
    }
}

/// A cold allocation with its utility `Σ f_i(x_i)` (index-order sum).
fn allocate_impl<U, E>(
    utils: &[U],
    budget: f64,
    use_ladder: bool,
    token: Option<&CancelToken>,
    check: &mut dyn FnMut() -> Result<(), E>,
) -> Result<Allocation, E>
where
    U: Utility,
    E: From<Interrupted>,
{
    let _span = aa_obs::span!("bisection");
    if aa_obs::record_enabled() {
        obs_counters().0.inc();
    }
    let mut amounts = Vec::new();
    allocate_into(
        utils,
        budget,
        1.0,
        use_ladder,
        token,
        &mut WarmCache::new(),
        &mut amounts,
        check,
    )?;
    let mut values = vec![0.0; utils.len()];
    let filled = fill(token, &mut values, |start, chunk| {
        for (k, v) in chunk.iter_mut().enumerate() {
            *v = utils[start + k].value(amounts[start + k]);
        }
    });
    if filled.is_none() {
        return Err(interrupted(check));
    }
    Ok(Allocation {
        utility: values.iter().sum(),
        amounts,
    })
}

/// The check of an unbudgeted call: never fires.
fn unchecked() -> Result<(), Interrupted> {
    Ok(())
}

/// Unwrap an allocation whose token and check are both absent.
fn expect_complete<T>(result: Result<T, Interrupted>) -> T {
    match result {
        Ok(a) => a,
        Err(Interrupted) => unreachable!("an unchecked allocation cannot be interrupted"),
    }
}

/// Allocate `budget` among `utils` maximizing total utility, each thread
/// additionally capped at its own [`Utility::cap`]. Returns the allocation
/// and the achieved utility.
///
/// Guarantees (up to floating point):
///
/// * feasibility: `amounts[i] ∈ [0, utils[i].cap()]` and
///   `Σ amounts ≤ budget`;
/// * exhaustion (the paper's Lemma V.3): if `budget ≤ Σ caps`, then
///   `Σ amounts = budget` — nondecreasing utilities never benefit from
///   leaving resource on the table;
/// * optimality: utilities' marginal values are equalized at the returned
///   price; validated against [`segment`](crate::segment) (exact for
///   piecewise-linear) and [`exact_dp`](crate::exact_dp) in tests.
///
/// [`allocate_checked`] without a token or check: the same body, so the
/// same bits.
///
/// # Example
///
/// ```
/// use aa_allocator::bisection::allocate;
/// use aa_utility::Power;
///
/// // Two identical √x threads share 8 units: the optimum is the even split.
/// let threads = vec![Power::new(1.0, 0.5, 10.0), Power::new(1.0, 0.5, 10.0)];
/// let alloc = allocate(&threads, 8.0);
/// assert!((alloc.amounts[0] - 4.0).abs() < 1e-6);
/// assert!((alloc.amounts[1] - 4.0).abs() < 1e-6);
/// ```
pub fn allocate<U: Utility>(utils: &[U], budget: f64) -> Allocation {
    expect_complete(allocate_impl(utils, budget, true, None, &mut unchecked))
}

/// [`allocate`] with the all-discrete ladder switched off: the search
/// probes by secant and midpoint even on staircase demand.
/// **Bit-identical** to [`allocate`] on every input (both collapse onto
/// the same unique pair); exists as the reference arm for differential
/// tests and benchmarks of the discrete path.
pub fn allocate_generic<U: Utility>(utils: &[U], budget: f64) -> Allocation {
    expect_complete(allocate_impl(utils, budget, false, None, &mut unchecked))
}

/// Diagnostic: the adjacent-float bracket the all-discrete ladder lands
/// on for this instance, or `None` when the ladder disengages
/// (mixed/non-staircase utilities, saturating budget) or the flip sits at
/// price `0` (no positive ladder price over budget). `Some` means
/// [`allocate`] answers this instance with `O(log k)` demand sweeps.
pub fn discrete_ladder_bracket<U: Utility>(utils: &[U], budget: f64) -> Option<(f64, f64)> {
    if !(budget >= 0.0 && budget.is_finite()) {
        return None;
    }
    let mut table = DemandTable::new();
    table.compile(utils);
    let total_cap: f64 = utils.iter().map(|f| f.cap()).sum();
    if !table.all_discrete() || budget >= total_cap {
        return None;
    }
    let mut out = vec![0.0; utils.len()];
    let search = Search {
        start: 1.0,
        tol: 0.0,
        ladder: table.ladder(),
    };
    let root = find_root(search, budget, total_cap, |lambda| {
        sweep(None, &table, utils, lambda, &mut out).ok_or(Interrupted)
    });
    match root {
        Ok(Root::Collapsed { lo, hi, .. }) if lo > 0.0 => Some((lo, hi)),
        _ => None,
    }
}

/// [`allocate`] with a cooperative interruption check and an optional
/// pool-level [`CancelToken`], the building block for budgeted solving.
/// `check` is called once up front, once per demand sweep, and before
/// the leftover spread; its first `Err` aborts the allocation and is
/// returned verbatim. Sweeps and the utility map fan out over the pool
/// once `utils.len() ≥ `[`PAR_THRESHOLD`]; there they watch `token` and
/// abandon unclaimed chunks when it fires (reported through `check`'s
/// diagnosis, or [`Interrupted`] if `check` still says `Ok`). While
/// neither fires the result is **bit-identical** to [`allocate`] at
/// every pool width: one code path, and the checks do not touch the
/// numerics.
pub fn allocate_checked<U, E>(
    utils: &[U],
    budget: f64,
    token: Option<&CancelToken>,
    check: &mut dyn FnMut() -> Result<(), E>,
) -> Result<Allocation, E>
where
    U: Utility,
    E: From<Interrupted>,
{
    allocate_impl(utils, budget, true, token, check)
}

// ---- warm-started allocation ----
//
// The online settings (serve loops, epoch controllers, churn repair)
// re-solve instances that drift slowly, so the marginal price barely
// moves. A warm allocation starts the search at the previous answer's
// price instead of 1.0: an unchanged instance collapses in two sweeps
// (the old high price, then the float below it), a drifted one in a few
// secant steps. Cold and warm collapse onto the same unique pair, so
// the answers are the same bits.

/// [`allocate_checked`], warm-started from `cache` and writing the
/// amounts into a caller-owned buffer: **bit-identical** to [`allocate`]
/// on the same slice and budget (see the module notes on the unique
/// boundary pair), few demand maps when successive instances drift
/// slowly, and — below [`PAR_THRESHOLD`] elements, where sweeps run on
/// the calling thread — zero heap allocation once the buffers have grown
/// to the instance size. `token` and `check` act as in
/// [`allocate_checked`]; an abort leaves the cache cold, so the next
/// call through it starts the search at `1.0`. The utility sum is *not*
/// computed — callers on the assignment hot path only consume the
/// amounts; use [`allocate`] when the pooled utility value itself is
/// needed.
pub fn allocate_warm_into<U, E>(
    utils: &[U],
    budget: f64,
    cache: &mut WarmCache,
    amounts: &mut Vec<f64>,
    token: Option<&CancelToken>,
    check: &mut dyn FnMut() -> Result<(), E>,
) -> Result<WarmStats, E>
where
    U: Utility,
    E: From<Interrupted>,
{
    let _span = aa_obs::span!("bisection_warm");
    if aa_obs::record_enabled() {
        obs_counters().1.inc();
    }
    // Taken, not read: an aborted search leaves the cache cold.
    let start = cache.price.take().unwrap_or(1.0);
    cache.price = allocate_into(utils, budget, start, true, token, cache, amounts, check)?;
    Ok(cache.stats)
}

/// [`allocate`], but writing into caller-owned buffers: the amounts land
/// in `amounts`, the search scratch lives in `cache`, and only the
/// utility sum is returned. **Bit-identical** to [`allocate`] — the cache
/// is invalidated first, so the search starts cold — with no per-call
/// heap allocation below [`PAR_THRESHOLD`] once the buffers have grown
/// to the working size. This is the arena building block for repeated
/// independent solves (e.g. the churn repair's per-server re-splits),
/// where a warm price would rarely help but the allocation churn still
/// matters.
pub fn allocate_utility_into<U: Utility>(
    utils: &[U],
    budget: f64,
    cache: &mut WarmCache,
    amounts: &mut Vec<f64>,
) -> f64 {
    cache.invalidate();
    expect_complete(allocate_warm_into(utils, budget, cache, amounts, None, &mut unchecked));
    // Index-order sum of f_i(x_i): the same additions, in the same order,
    // as the utility map behind `allocate`.
    utils
        .iter()
        .zip(amounts.iter())
        .map(|(f, &x)| f.value(x))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_utility::{CappedLinear, LogUtility, PiecewiseLinear, Power, Utility};

    #[test]
    fn empty_input() {
        let utils: Vec<Power> = vec![];
        let a = allocate(&utils, 5.0);
        assert!(a.amounts.is_empty());
        assert_eq!(a.utility, 0.0);
    }

    #[test]
    fn ample_budget_saturates_all_caps() {
        let utils: Vec<Box<dyn Utility>> = vec![
            Box::new(Power::new(1.0, 0.5, 4.0)),
            Box::new(LogUtility::new(2.0, 1.0, 6.0)),
        ];
        let a = allocate(&utils, 100.0);
        assert_eq!(a.amounts, vec![4.0, 6.0]);
    }

    #[test]
    fn identical_threads_split_evenly() {
        // Strictly concave identical utilities ⇒ optimal is the even split.
        let utils: Vec<Power> = (0..4).map(|_| Power::new(1.0, 0.5, 10.0)).collect();
        let a = allocate(&utils, 8.0);
        for &x in &a.amounts {
            assert!((x - 2.0).abs() < 1e-6, "expected even split, got {:?}", a.amounts);
        }
        assert!((a.total_allocated() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn budget_fully_used() {
        // Lemma V.3: nondecreasing utilities use the entire budget.
        let utils: Vec<Box<dyn Utility>> = vec![
            Box::new(Power::new(1.0, 0.5, 10.0)),
            Box::new(LogUtility::new(2.0, 1.0, 10.0)),
            Box::new(Power::new(3.0, 0.25, 10.0)),
        ];
        for budget in [0.5, 3.0, 12.0, 29.9] {
            let a = allocate(&utils, budget);
            assert!(
                (a.total_allocated() - budget).abs() < 1e-6,
                "budget {budget}: allocated {}",
                a.total_allocated()
            );
        }
    }

    #[test]
    fn respects_individual_caps() {
        let utils = vec![Power::new(100.0, 0.5, 1.0), Power::new(0.1, 0.5, 10.0)];
        let a = allocate(&utils, 5.0);
        assert!(a.amounts[0] <= 1.0 + 1e-9);
        // First thread is far more valuable: it saturates its cap.
        assert!((a.amounts[0] - 1.0).abs() < 1e-6);
        assert!((a.amounts[1] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn equalizes_marginals_on_smooth_utilities() {
        let utils = vec![
            LogUtility::new(2.0, 1.0, 100.0),
            LogUtility::new(3.0, 0.5, 100.0),
            LogUtility::new(1.0, 2.0, 100.0),
        ];
        let a = allocate(&utils, 30.0);
        // Interior optimum: derivatives equal across threads with x > 0.
        let d: Vec<f64> = utils
            .iter()
            .zip(&a.amounts)
            .map(|(f, &x)| f.derivative(x))
            .collect();
        for w in d.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-4, "marginals not equal: {d:?}");
        }
    }

    #[test]
    fn linear_tie_goes_somewhere_valid() {
        // Two identical linear threads: any split of the budget is
        // optimal; the allocator must use all of it and stay in caps.
        let utils = vec![
            CappedLinear::new(1.0, 5.0, 5.0),
            CappedLinear::new(1.0, 5.0, 5.0),
        ];
        let a = allocate(&utils, 6.0);
        assert!((a.total_allocated() - 6.0).abs() < 1e-9);
        assert!(a.amounts.iter().all(|&x| (0.0..=5.0 + 1e-9).contains(&x)));
        assert!((a.utility - 6.0).abs() < 1e-9);
    }

    #[test]
    fn prefers_steeper_capped_linear() {
        // NP-hardness-style instance: capped linear with different knees.
        let utils = vec![
            CappedLinear::new(2.0, 3.0, 10.0),
            CappedLinear::new(1.0, 4.0, 10.0),
            CappedLinear::new(0.5, 6.0, 10.0),
        ];
        let a = allocate(&utils, 7.0);
        // Optimal: fill thread 0 to 3 (slope 2), thread 1 to 4 (slope 1).
        assert!((a.amounts[0] - 3.0).abs() < 1e-6);
        assert!((a.amounts[1] - 4.0).abs() < 1e-6);
        assert!(a.amounts[2] < 1e-6);
        assert!((a.utility - 10.0).abs() < 1e-6);
    }

    #[test]
    fn piecewise_linear_matches_exact_segment_greedy() {
        let utils = vec![
            PiecewiseLinear::new(&[(0.0, 0.0), (2.0, 6.0), (5.0, 9.0), (10.0, 10.0)]).unwrap(),
            PiecewiseLinear::new(&[(0.0, 0.0), (1.0, 4.0), (4.0, 7.0), (10.0, 8.5)]).unwrap(),
            PiecewiseLinear::new(&[(0.0, 0.0), (3.0, 3.0), (10.0, 4.0)]).unwrap(),
        ];
        for budget in [1.0, 4.5, 9.0, 15.0, 25.0] {
            let a = allocate(&utils, budget);
            let exact = crate::segment::allocate_piecewise(&utils, budget);
            assert!(
                (a.utility - exact.utility).abs() < 1e-6 * exact.utility.max(1.0),
                "budget {budget}: bisection {} vs exact {}",
                a.utility,
                exact.utility
            );
        }
    }

    #[test]
    fn zero_budget_allocates_nothing() {
        let utils = vec![Power::new(1.0, 0.5, 10.0)];
        let a = allocate(&utils, 0.0);
        assert_eq!(a.amounts, vec![0.0]);
        assert_eq!(a.utility, 0.0);
    }

    #[test]
    fn infinite_derivative_at_zero_is_handled() {
        // Power with β < 1 has f'(0) = ∞; every thread must still get a
        // positive share for positive budget (optimal for such utilities).
        let utils: Vec<Power> = (0..5).map(|i| Power::new(1.0 + i as f64, 0.5, 10.0)).collect();
        let a = allocate(&utils, 10.0);
        assert!(a.amounts.iter().all(|&x| x > 0.0), "{:?}", a.amounts);
        assert!((a.total_allocated() - 10.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "budget must be finite")]
    fn rejects_negative_budget() {
        allocate(&[Power::new(1.0, 0.5, 1.0)], -1.0);
    }

    #[test]
    fn interruptible_with_quiet_check_is_bit_identical_to_allocate() {
        let utils: Vec<Box<dyn Utility>> = vec![
            Box::new(Power::new(1.0, 0.5, 10.0)),
            Box::new(LogUtility::new(2.0, 1.0, 10.0)),
            Box::new(Power::new(3.0, 0.25, 10.0)),
        ];
        for budget in [0.0, 0.5, 3.0, 12.0, 29.9, 100.0] {
            let plain = allocate(&utils, budget);
            let interruptible =
                allocate_checked(&utils, budget, None, &mut || Ok::<(), Interrupted>(()))
                    .expect("quiet check never aborts");
            assert_eq!(plain.utility.to_bits(), interruptible.utility.to_bits());
            for (a, b) in plain.amounts.iter().zip(&interruptible.amounts) {
                assert_eq!(a.to_bits(), b.to_bits(), "budget {budget}");
            }
        }
    }

    #[test]
    fn counting_check_aborts_mid_bisection_with_the_callers_error() {
        #[derive(Debug, PartialEq)]
        enum E {
            Deadline,
            Marker,
        }
        impl From<Interrupted> for E {
            fn from(_: Interrupted) -> Self {
                E::Marker
            }
        }
        let utils: Vec<Power> = (0..16).map(|i| Power::new(1.0 + i as f64, 0.5, 10.0)).collect();
        // Exhaust "fuel" after a handful of checks: the search runs a
        // few dozen sweeps, so this fires mid-search.
        let mut fuel = 5_u32;
        let result = allocate_checked(&utils, 40.0, None, &mut || {
            if fuel == 0 {
                Err(E::Deadline)
            } else {
                fuel -= 1;
                Ok(())
            }
        });
        assert_eq!(result, Err(E::Deadline));
    }

    #[test]
    fn immediately_failing_check_aborts_before_any_work() {
        let utils = vec![Power::new(1.0, 0.5, 10.0)];
        let result = allocate_checked(&utils, 5.0, None, &mut || Err(Interrupted));
        assert_eq!(result, Err(Interrupted));
    }
}

#[cfg(test)]
mod par_tests {
    use super::*;
    use aa_utility::{LogUtility, Power, Utility};

    fn mixed_pool(n: usize) -> Vec<Box<dyn Utility + Send + Sync>> {
        (0..n)
            .map(|i| {
                let s = 0.5 + (i % 17) as f64 * 0.3;
                if i % 2 == 0 {
                    Box::new(Power::new(s, 0.6, 100.0)) as Box<dyn Utility + Send + Sync>
                } else {
                    Box::new(LogUtility::new(s, 0.4, 100.0))
                }
            })
            .collect()
    }

    #[test]
    fn parallel_is_bit_identical_across_thread_counts() {
        // Above the threshold the pool fan-out actually runs; the
        // determinism contract promises *exact* equality, not closeness.
        let utils = mixed_pool(PAR_THRESHOLD + 37);
        let budget = 0.2 * 100.0 * utils.len() as f64;
        let reference = rayon::with_threads(1, || allocate(&utils, budget));
        for threads in [2, 4, 8] {
            let got = rayon::with_threads(threads, || allocate(&utils, budget));
            assert_eq!(reference.utility.to_bits(), got.utility.to_bits(), "{threads} threads");
            for (a, b) in reference.amounts.iter().zip(&got.amounts) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads: {a} vs {b}");
            }
        }
    }

    #[test]
    fn parallel_exhausts_budget() {
        let utils: Vec<Power> = (0..PAR_THRESHOLD + 1)
            .map(|i| Power::new(1.0 + (i % 5) as f64, 0.5, 50.0))
            .collect();
        let budget = 10_000.0;
        let a = allocate(&utils, budget);
        assert!((a.total_allocated() - budget).abs() < 1e-3);
    }

    #[test]
    fn parallel_saturation_fast_path_matches() {
        // budget ≥ Σ caps takes the early-return branch at every width.
        let utils = mixed_pool(PAR_THRESHOLD + 3);
        let budget = 101.0 * utils.len() as f64;
        let seq = rayon::with_threads(1, || allocate(&utils, budget));
        let par = rayon::with_threads(8, || allocate(&utils, budget));
        assert_eq!(seq, par);
    }

    #[test]
    fn checked_with_clear_token_is_bit_identical() {
        let utils = mixed_pool(PAR_THRESHOLD + 51);
        let budget = 0.25 * 100.0 * utils.len() as f64;
        let plain = allocate(&utils, budget);
        let token = rayon::CancelToken::new();
        for threads in [1, 4] {
            let got = rayon::with_threads(threads, || {
                allocate_checked(&utils, budget, Some(&token), &mut || {
                    Ok::<(), Interrupted>(())
                })
            })
            .expect("clear token never aborts");
            assert_eq!(plain.utility.to_bits(), got.utility.to_bits(), "{threads} threads");
            for (a, b) in plain.amounts.iter().zip(&got.amounts) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
    }

    fn swept(utils: &[Box<dyn Utility + Send + Sync>], lambda: f64) -> (f64, Vec<f64>) {
        let mut table = DemandTable::new();
        table.compile(utils);
        let mut out = vec![0.0; utils.len()];
        let total = par_sweep(&table, utils, lambda, &mut out);
        (total, out)
    }

    #[test]
    fn par_sweep_total_is_the_index_order_sum_up_to_one_block() {
        for n in [1, 7, 1000, SUM_BLOCK] {
            let utils = mixed_pool(n);
            for lambda in [0.05, 0.3, 2.0] {
                let (total, out) = swept(&utils, lambda);
                let sum: f64 = out.iter().sum();
                assert_eq!(total.to_bits(), sum.to_bits(), "n={n} λ={lambda}");
            }
        }
    }

    #[test]
    fn par_sweep_total_folds_fixed_blocks_at_every_width() {
        // Full blocks and a ragged tail, so the fan-out runs and chunks
        // must still cover whole blocks. At 3 blocks every chunk is one
        // block; at 40 a chunk spans 11, 6 or 2 blocks at widths 1, 2
        // and 8, so a total that followed the chunks would differ.
        for blocks in [3, 40] {
            let utils = mixed_pool(blocks * SUM_BLOCK + 17);
            for lambda in [0.05, 0.3, 2.0] {
                let reference = rayon::with_threads(1, || swept(&utils, lambda));
                let folded: f64 = reference
                    .1
                    .chunks(SUM_BLOCK)
                    .map(|b| b.iter().sum::<f64>())
                    .sum();
                let tag = format!("{blocks} blocks, λ={lambda}");
                assert_eq!(reference.0.to_bits(), folded.to_bits(), "{tag}");
                for threads in [2, 8] {
                    let (total, out) = rayon::with_threads(threads, || swept(&utils, lambda));
                    assert_eq!(total.to_bits(), folded.to_bits(), "{threads} threads, {tag}");
                    assert_eq!(out, reference.1, "{threads} threads, {tag}");
                }
            }
        }
    }

    #[test]
    fn checked_pre_cancelled_token_reports_interrupted() {
        // A token fired externally (no check of our own erring) surfaces
        // as the Interrupted marker, not a panic or a bogus allocation.
        let utils = mixed_pool(PAR_THRESHOLD + 8);
        let token = rayon::CancelToken::new();
        token.cancel();
        let result = rayon::with_threads(4, || {
            allocate_checked(&utils, 500.0, Some(&token), &mut || {
                Ok::<(), Interrupted>(())
            })
        });
        assert_eq!(result, Err(Interrupted));
    }
}

#[cfg(test)]
mod warm_tests {
    use super::*;
    use aa_utility::{CappedLinear, LogUtility, Power, Utility};

    fn pool(n: usize, scale_shift: f64) -> Vec<Box<dyn Utility>> {
        (0..n)
            .map(|i| {
                let s = 0.5 + (i % 13) as f64 * 0.4 + scale_shift;
                match i % 3 {
                    0 => Box::new(Power::new(s, 0.55, 80.0)) as Box<dyn Utility>,
                    1 => Box::new(LogUtility::new(s, 0.3, 80.0)),
                    _ => Box::new(CappedLinear::new(s, 30.0 + (i % 5) as f64, 80.0)),
                }
            })
            .collect()
    }

    /// An unchecked warm allocation.
    fn warm<U: Utility>(
        utils: &[U],
        budget: f64,
        cache: &mut WarmCache,
        amounts: &mut Vec<f64>,
    ) -> WarmStats {
        expect_complete(allocate_warm_into(utils, budget, cache, amounts, None, &mut unchecked))
    }

    fn assert_bits_eq(cold: &Allocation, warm: &[f64], ctx: &str) {
        assert_eq!(cold.amounts.len(), warm.len(), "{ctx}");
        for (i, (a, b)) in cold.amounts.iter().zip(warm).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: thread {i}: {a} vs {b}");
        }
    }

    #[test]
    fn first_call_is_cold_and_bit_identical() {
        let utils = pool(40, 0.0);
        for budget in [0.0, 1.0, 37.5, 400.0, 1999.0] {
            let mut cache = WarmCache::new();
            let mut amounts = Vec::new();
            warm(&utils, budget, &mut cache, &mut amounts);
            assert_bits_eq(&allocate(&utils, budget), &amounts, &format!("budget {budget}"));
            assert!(cache.price().is_some(), "budget {budget}: no price pinned");
        }
    }

    #[test]
    fn ample_budget_saturates_without_searching() {
        let utils = pool(12, 0.0);
        let total_cap = 12.0 * 80.0;
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        let stats = warm(&utils, total_cap + 1.0, &mut cache, &mut amounts);
        assert_eq!(stats.demand_maps, 0);
        assert_bits_eq(&allocate(&utils, total_cap + 1.0), &amounts, "saturated");
        assert!(cache.price().is_none(), "saturation must not pin a price");
    }

    #[test]
    fn repeat_solve_collapses_in_two_maps() {
        // The previous high price fits, the float below it does not.
        let utils = pool(64, 0.0);
        let budget = 900.0;
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        warm(&utils, budget, &mut cache, &mut amounts);
        let stats = warm(&utils, budget, &mut cache, &mut amounts);
        assert_eq!(stats.demand_maps, 2);
        assert_bits_eq(&allocate(&utils, budget), &amounts, "repeat");
    }

    #[test]
    fn drifting_utilities_refine_cheaply_and_match_cold() {
        // Kink-heavy pool (1/3 CappedLinear): the demand curve is a
        // staircase near the boundary, the adversarial case for the
        // secant. Warm must still beat cold per epoch and by ≥ 1.5×
        // cumulatively — and stay bit-identical throughout.
        let budget = 700.0;
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        let cold_maps = {
            let utils = pool(48, 0.0);
            warm(&utils, budget, &mut cache, &mut amounts).demand_maps
        };
        let mut warm_total = 0;
        let epochs = 11;
        for epoch in 1..=epochs {
            // Small multiplicative drift in the utility scales each epoch.
            let utils = pool(48, 0.003 * epoch as f64);
            let stats = warm(&utils, budget, &mut cache, &mut amounts);
            assert_bits_eq(&allocate(&utils, budget), &amounts, &format!("epoch {epoch}"));
            assert!(
                stats.demand_maps < cold_maps,
                "epoch {epoch}: warm used {} maps vs {} cold",
                stats.demand_maps,
                cold_maps
            );
            warm_total += stats.demand_maps;
        }
        assert!(
            warm_total * 3 < cold_maps * epochs * 2,
            "warm total {warm_total} vs cold {cold_maps}/epoch over {epochs} epochs"
        );
    }

    #[test]
    fn smooth_drift_is_near_constant_cost() {
        // Strictly concave smooth utilities: the secant closes in on the
        // boundary in a handful of probes; the residual cost is bisecting
        // the window where the demand *sum* is flat to fp (per-thread
        // drifts are sub-ulp of the sum), which is bounded by the sum's
        // ulp structure — the sweep count stays flat as the instance
        // drifts, and below the cold search's.
        let smooth = |shift: f64| -> Vec<Box<dyn Utility>> {
            (0..48)
                .map(|i| {
                    let s = 0.5 + (i % 13) as f64 * 0.4 + shift;
                    if i % 2 == 0 {
                        Box::new(Power::new(s, 0.55, 80.0)) as Box<dyn Utility>
                    } else {
                        Box::new(LogUtility::new(s, 0.3, 80.0))
                    }
                })
                .collect()
        };
        let budget = 700.0;
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        let cold_maps = warm(&smooth(0.0), budget, &mut cache, &mut amounts).demand_maps;
        for epoch in 1..12 {
            let utils = smooth(0.003 * epoch as f64);
            let stats = warm(&utils, budget, &mut cache, &mut amounts);
            assert_bits_eq(&allocate(&utils, budget), &amounts, &format!("epoch {epoch}"));
            assert!(
                stats.demand_maps <= 12 && stats.demand_maps < cold_maps,
                "epoch {epoch}: {} maps vs {cold_maps} cold is not near-constant",
                stats.demand_maps
            );
        }
    }

    #[test]
    fn budget_drift_in_both_directions_matches_cold() {
        let utils = pool(32, 0.0);
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        warm(&utils, 500.0, &mut cache, &mut amounts);
        for budget in [520.0, 480.0, 600.0, 300.0, 550.0] {
            warm(&utils, budget, &mut cache, &mut amounts);
            assert_bits_eq(&allocate(&utils, budget), &amounts, &format!("budget {budget}"));
        }
    }

    #[test]
    fn thread_churn_keeps_identity() {
        // Add/remove threads between solves: the carried price stays a
        // valid start because every probe sweeps the *new* slice, never
        // cached per-thread data.
        let budget = 420.0;
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        warm(&pool(40, 0.0), budget, &mut cache, &mut amounts);
        for n in [41, 39, 44, 36, 40] {
            let utils = pool(n, 0.001);
            warm(&utils, budget, &mut cache, &mut amounts);
            assert_bits_eq(&allocate(&utils, budget), &amounts, &format!("n {n}"));
        }
    }

    #[test]
    fn interruption_invalidates_and_next_call_recovers() {
        let utils = pool(24, 0.0);
        let budget = 300.0;
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        warm(&utils, budget, &mut cache, &mut amounts);
        assert!(cache.price().is_some());

        let mut fuel = 1_u32;
        let result = allocate_warm_into(&utils, budget, &mut cache, &mut amounts, None, &mut || {
            if fuel == 0 {
                Err(Interrupted)
            } else {
                fuel -= 1;
                Ok(())
            }
        });
        assert_eq!(result, Err(Interrupted));
        assert!(cache.price().is_none(), "abort must leave the cache cold");

        // Recovery: a quiet call starts cold and is still exact.
        warm(&utils, budget, &mut cache, &mut amounts);
        assert_bits_eq(&allocate(&utils, budget), &amounts, "recovery");
    }

    #[test]
    fn saturated_epoch_between_tight_epochs_stays_exact() {
        let utils = pool(16, 0.0);
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        for budget in [200.0, 16.0 * 80.0 + 5.0, 210.0, 205.0] {
            warm(&utils, budget, &mut cache, &mut amounts);
            assert_bits_eq(&allocate(&utils, budget), &amounts, &format!("budget {budget}"));
        }
    }

    #[test]
    fn steady_state_is_allocation_free_in_buffer_growth() {
        // Capacity proxy for the zero-allocation contract (the real
        // counting hook lives in the core arena test): after one warm-up
        // call, buffer capacities never change again.
        let utils = pool(50, 0.0);
        let mut cache = WarmCache::new();
        let mut amounts = Vec::new();
        warm(&utils, 444.0, &mut cache, &mut amounts);
        let caps_before = (
            amounts.capacity(),
            cache.caps.capacity(),
            cache.d_lo.capacity(),
            cache.d_hi.capacity(),
            cache.d_probe.capacity(),
        );
        for budget in [444.0, 450.0, 440.0, 444.0] {
            warm(&utils, budget, &mut cache, &mut amounts);
        }
        let caps_after = (
            amounts.capacity(),
            cache.caps.capacity(),
            cache.d_lo.capacity(),
            cache.d_hi.capacity(),
            cache.d_probe.capacity(),
        );
        assert_eq!(caps_before, caps_after);
    }
}
