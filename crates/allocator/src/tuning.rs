//! Workspace-wide performance tunables.
//!
//! [`PAR_THRESHOLD`] is the one sequential→parallel crossover: every
//! stage that fans per-element work out over the pool (bisection demand
//! sweeps and utility maps, linearization, the price-discovery demand
//! sweeps) gates on `n ≥ PAR_THRESHOLD`, whichever entry the caller
//! used.
//!
//! The threshold only gates *scheduling* (whether a sweep fans out).
//! Every fanned-out map writes its slots by index and is summed in
//! index order, so results are bit-identical on both sides of the
//! crossover and at every pool width; no algorithm choice may key on
//! it. It is a plain `const` with no environment override, so every
//! stage of every solve agrees on one value.

/// Element count at which per-element sweeps fan out over the thread
/// pool. Below it the sequential loop is faster (fork-join overhead
/// exceeds the work).
///
/// Re-audited with the batched demand kernel (bench schema v4): the
/// struct-of-arrays sweep cuts per-element cost — most sharply for
/// PCHIP, whose closed-form inverse replaced an inner per-element
/// bisection — which *raises* the relative weight of fork-join overhead
/// and pushes the true crossover up, not down. 4096 therefore remains a
/// safe floor; the per-sweep `kernel_sweep_micros` bench field exists
/// to re-measure it on real multi-core hosts.
pub const PAR_THRESHOLD: usize = 4096;
