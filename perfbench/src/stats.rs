//! Pure arithmetic: percentiles, the tail rule and the residual.

/// Nearest-rank value at rank `r` (1-based) of sorted `xs`.
fn at_rank(sorted: &[f64], r: usize) -> f64 {
    sorted[r.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank) of unsorted samples; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    Some(at_rank(&s, s.len().div_ceil(2)))
}

/// A tail percentile together with the sample that supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in percent (99 when the sample allows).
    pub percentile: f64,
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank (always ≥ 10).
    pub beyond: usize,
}

/// Samples a tail percentile must leave beyond its rank.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile, at most 99, with at least [`TAIL_BEYOND`]
/// samples beyond it (nearest rank). `None` when there are not enough
/// samples for any such percentile.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let p99_rank = (n * 99).div_ceil(100);
    let rank = p99_rank.min(n - TAIL_BEYOND);
    let percentile = if rank == p99_rank { 99.0 } else { 100.0 * rank as f64 / n as f64 };
    Some(Tail { percentile, value: at_rank(&s, rank), samples: n, beyond: n - rank })
}

/// [`tail`], or — when the sample is too small for any tail — the
/// slowest sample, reported as percentile 100 with nothing beyond it
/// (the report marks such a tail unsupported).
pub fn tail_or_max(xs: &[f64]) -> Option<Tail> {
    tail(xs).or_else(|| {
        xs.iter().copied().reduce(f64::max).map(|value| Tail { percentile: 100.0, value, samples: xs.len(), beyond: 0 })
    })
}

/// Blocks a run's measured samples are split into; rates and tails are
/// reported as the median over blocks, so a burst of interference from
/// outside that hits a few blocks does not move them.
pub const BLOCKS: usize = 10;

/// Split `xs` (taken at times `at`) into `blocks` spans of equal length
/// covering `[t0, t1]`.
pub fn by_time(at: &[f64], xs: &[f64], t0: f64, t1: f64, blocks: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); blocks];
    let span = (t1 - t0) / blocks as f64;
    for (&t, &x) in at.iter().zip(xs) {
        let b = (((t - t0) / span).floor().max(0.0) as usize).min(blocks - 1);
        out[b].push(x);
    }
    out
}

/// The tail of a run from its blocks: the median of the blocks' tails
/// (each the highest percentile with ten samples beyond it, at most 99),
/// reported at the lowest of their percentiles; the run's
/// [`tail_or_max`] when some block is too small to have a tail.
pub fn blocked_tail(blocks: &[Vec<f64>]) -> Option<Tail> {
    let tails: Vec<Tail> = blocks.iter().filter_map(|b| tail(b)).collect();
    if tails.len() < blocks.len() || tails.is_empty() {
        return tail_or_max(&blocks.concat());
    }
    Some(Tail {
        percentile: tails.iter().map(|t| t.percentile).fold(f64::INFINITY, f64::min),
        value: median(&tails.iter().map(|t| t.value).collect::<Vec<_>>())?,
        samples: tails.iter().map(|t| t.samples).sum(),
        beyond: tails.iter().map(|t| t.beyond).min()?,
    })
}

/// The part of a client-measured latency that the request-path layers do
/// not explain: `client − Σ layers`, and that as a share of `client`.
pub fn residual(client: f64, layers: &[(&str, f64)]) -> (f64, f64) {
    let covered: f64 = layers.iter().map(|(_, v)| v).sum();
    let unattributed = client - covered;
    let share = if client > 0.0 { unattributed / client } else { 0.0 };
    (unattributed, share)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n so the helper has to sort.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn tail_is_p99_once_a_thousand_samples_exist() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples, t.beyond), (99.0, 990.0, 1000, 10));
        let t = tail(&ramp(5000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 4950.0, 50));
    }

    #[test]
    fn tail_backs_off_to_leave_ten_samples_beyond() {
        let t = tail(&ramp(200)).unwrap();
        assert_eq!((t.value, t.samples, t.beyond), (190.0, 200, 10));
        assert!((t.percentile - 95.0).abs() < 1e-12);
        let t = tail(&ramp(11)).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
        assert!(tail(&ramp(10)).is_none());
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn tiny_samples_fall_back_to_the_maximum() {
        let t = tail_or_max(&ramp(10)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples, t.beyond), (100.0, 10.0, 10, 0));
        assert_eq!(tail_or_max(&ramp(21)), tail(&ramp(21)));
        assert_eq!(tail_or_max(&[]), None);
    }

    #[test]
    fn blocks_split_by_time_and_tails_take_the_median_block() {
        let at: Vec<f64> = (0..5000).map(|i| f64::from(i) / 1000.0).collect();
        // One block (the third second) suffers a burst of slow samples.
        let xs: Vec<f64> = at.iter().map(|&t| if (2.0..3.0).contains(&t) { 50.0 } else { t.fract() * 10.0 }).collect();
        let blocks = by_time(&at, &xs, 0.0, 5.0, 5);
        assert!(blocks.iter().all(|b| b.len() == 1000));
        let t = blocked_tail(&blocks).unwrap();
        assert_eq!((t.percentile, t.samples, t.beyond), (99.0, 5000, 10));
        assert!(t.value < 10.0, "the burst block must not set the tail: {t:?}");
        // Smaller blocks report a lower percentile, still ten beyond.
        let t = blocked_tail(&by_time(&at[..2500], &xs[..2500], 0.0, 2.5, 5)).unwrap();
        assert_eq!((t.percentile, t.beyond), (98.0, 10));
        // A block too small for any tail: the whole run's rule.
        let tiny = by_time(&at[..50], &xs[..50], 0.0, 0.05, 5);
        assert_eq!(blocked_tail(&tiny), tail_or_max(&xs[..50]));
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&ramp(4)), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn residual_is_client_minus_the_layers() {
        let (u, share) = residual(1000.0, &[("parse", 400.0), ("solve", 350.0), ("respond", 50.0)]);
        assert!((u - 200.0).abs() < 1e-12);
        assert!((share - 0.2).abs() < 1e-12);
        // Layers can over-explain (in-process layers measured apart from
        // the server): the residual goes negative rather than clamping.
        let (u, share) = residual(100.0, &[("a", 150.0)]);
        assert_eq!((u, share), (-50.0, -0.5));
        assert_eq!(residual(0.0, &[]), (0.0, 0.0));
    }
}
