//! Seeded input generation: the benchmark's own RNG, the paper's four
//! value distributions, PCHIP thread specs, drift edits and LDJSON
//! request lines.
//!
//! Everything here is a pure function of the seed, and none of it calls
//! into the program: the inputs stay the same when the program's own
//! generators change, so two commits are always measured on identical
//! bytes.

use std::fmt::Write as _;

/// SplitMix64: small, fast and fully specified, so a seed means the same
/// stream on every platform and every commit.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for sub-purpose `tag` of `seed`.
    pub fn derive(seed: u64, tag: u64) -> Rng {
        let mut r = Rng::new(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The paper's base value distributions, with the parameters the
/// repository's own bench matrix uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    Uniform,
    Normal,
    PowerLaw,
    Discrete,
}

pub const DISTS: [Dist; 4] = [Dist::Uniform, Dist::Normal, Dist::PowerLaw, Dist::Discrete];

impl Dist {
    /// One positive draw.
    pub fn sample(self, rng: &mut Rng) -> f64 {
        match self {
            Dist::Uniform => loop {
                let u = rng.unit();
                if u > 0.0 {
                    return u;
                }
            },
            // N(1, 1) truncated to positive values (Box–Muller).
            Dist::Normal => loop {
                let u1 = rng.unit().max(f64::MIN_POSITIVE);
                let u2 = rng.unit();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                if 1.0 + z > 0.0 {
                    return 1.0 + z;
                }
            },
            // Pareto α = 2 truncated to [1, 1000] (inverse CDF).
            Dist::PowerLaw => {
                let tail = 1.0 - 1000f64.powf(-1.0);
                (1.0 - rng.unit() * tail).powf(-1.0)
            }
            // Two-point γ = 0.85, θ = 5.
            Dist::Discrete => {
                if rng.unit() < 0.85 {
                    1.0
                } else {
                    5.0
                }
            }
        }
    }
}

/// One thread's utility: monotone PCHIP through `(0, 0)`, `(C/2, v)`,
/// `(C, v + w)` with `0 < w ≤ v`, which makes the control polygon
/// concave (the paper's §VII construction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadSpec {
    pub v: f64,
    pub w: f64,
}

impl ThreadSpec {
    pub fn draw(dist: Dist, rng: &mut Rng) -> ThreadSpec {
        let a = dist.sample(rng);
        let b = dist.sample(rng);
        ThreadSpec { v: a.max(b), w: a.min(b) }
    }

    /// Control points for capacity `c`.
    pub fn points(self, c: f64) -> [(f64, f64); 3] {
        [(0.0, 0.0), (c / 2.0, self.v), (c, self.v + self.w)]
    }

    /// Drift edit: scale both control values by `factor`. A common
    /// positive factor keeps `0 < w ≤ v`, so the curve stays monotone
    /// and concave.
    pub fn scaled(self, factor: f64) -> ThreadSpec {
        ThreadSpec { v: self.v * factor, w: self.w * factor }
    }

    /// The thread's JSON spec, in the schema `aa-solve` reads.
    pub fn write_json(self, c: f64, out: &mut String) {
        let [_, (x1, y1), (x2, y2)] = self.points(c);
        let _ = write!(out, r#"{{"kind":"pchip","points":[[0,0],[{x1},{y1}],[{x2},{y2}]]}}"#);
    }

    /// The same spec as the program's typed value.
    pub fn to_spec(self, c: f64) -> aa_utility::UtilitySpec {
        aa_utility::UtilitySpec::Pchip { points: self.points(c).to_vec() }
    }
}

/// One generated problem: `m` servers of capacity `c` and one spec per
/// thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    pub servers: usize,
    pub capacity: f64,
    pub threads: Vec<ThreadSpec>,
}

impl Instance {
    pub fn generate(servers: usize, beta: usize, capacity: f64, dist: Dist, rng: &mut Rng) -> Instance {
        let threads = (0..servers * beta).map(|_| ThreadSpec::draw(dist, rng)).collect();
        Instance { servers, capacity, threads }
    }

    /// The instance as the program's problem document (no JSON round
    /// trip: what a library caller would construct).
    pub fn to_file(&self) -> aa_cli::ProblemFile {
        aa_cli::ProblemFile {
            servers: self.servers,
            capacity: self.capacity,
            threads: self.threads.iter().map(|t| t.to_spec(self.capacity)).collect(),
        }
    }

    /// One LDJSON request line (no trailing newline). `stream` adds the
    /// warm-state routing key.
    pub fn request_line(&self, id: u64, stream: Option<u64>) -> String {
        let mut s = String::with_capacity(64 + 90 * self.threads.len());
        let _ = write!(s, r#"{{"id":{id},"#);
        if let Some(k) = stream {
            let _ = write!(s, r#""stream":{k},"#);
        }
        let _ = write!(s, r#""problem":{{"servers":{},"capacity":{},"threads":["#, self.servers, self.capacity);
        for (i, t) in self.threads.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            t.write_json(self.capacity, &mut s);
        }
        s.push_str("]}}");
        s
    }
}

/// Apply one request's drift to `inst`: `edits` seeded threads get their
/// control values scaled by a factor in `[0.9, 1/0.9]` (symmetric in
/// log space, so repeated edits do not trend).
pub fn drift(inst: &mut Instance, edits: usize, rng: &mut Rng) {
    for _ in 0..edits {
        let i = rng.below(inst.threads.len());
        let factor = (0.9f64.ln() * (2.0 * rng.unit() - 1.0)).exp();
        inst.threads[i] = inst.threads[i].scaled(factor);
    }
}

/// The `serve-cold` request sequence: pool indices where no request
/// repeats the one before it.
#[derive(Debug, Clone)]
pub struct ColdSequence {
    rng: Rng,
    pool: usize,
    last: Option<usize>,
}

impl ColdSequence {
    pub fn new(seed: u64, pool: usize) -> ColdSequence {
        assert!(pool >= 2, "a no-repeat sequence needs two problems");
        ColdSequence { rng: Rng::derive(seed, 0xC01D), pool, last: None }
    }
}

impl Iterator for ColdSequence {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        let next = match self.last {
            None => self.rng.below(self.pool),
            // Draw from the other pool − 1 entries.
            Some(l) => (l + 1 + self.rng.below(self.pool - 1)) % self.pool,
        };
        self.last = Some(next);
        Some(next)
    }
}

/// The `fleet-drift` request stream: `streams` keyed problems, requests
/// round-robin over them, and before each request about 1% of that
/// stream's threads drift. Deterministic in the seed, so the checker
/// replays it exactly after the measured window.
#[derive(Debug, Clone)]
pub struct DriftStream {
    pub instances: Vec<Instance>,
    rng: Rng,
    edits: usize,
    next: u64,
}

impl DriftStream {
    pub fn new(seed: u64, streams: usize, servers: usize, beta: usize, capacity: f64) -> DriftStream {
        let mut rng = Rng::derive(seed, 0xD81F7);
        let instances: Vec<Instance> = (0..streams)
            .map(|s| Instance::generate(servers, beta, capacity, DISTS[s % DISTS.len()], &mut rng))
            .collect();
        let edits = (servers * beta).div_ceil(100);
        DriftStream { instances, rng, edits, next: 0 }
    }

    /// Advance to the next request: drift its stream and return
    /// `(request index, stream)`.
    pub fn advance(&mut self) -> (u64, usize) {
        let k = self.next;
        self.next += 1;
        let s = (k % self.instances.len() as u64) as usize;
        drift(&mut self.instances[s], self.edits, &mut self.rng);
        (k, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_request_streams() {
        let lines = |seed| {
            let mut d = DriftStream::new(seed, 8, 4, 8, 1000.0);
            let mut out = Vec::new();
            for _ in 0..40 {
                let (k, s) = d.advance();
                out.push(d.instances[s].request_line(k, Some(s as u64)));
            }
            let mut pool_rng = Rng::derive(seed, 1);
            let pool: Vec<Instance> = (0..8)
                .map(|j| Instance::generate(8, 8, 1000.0, DISTS[j % 4], &mut pool_rng))
                .collect();
            for (k, j) in ColdSequence::new(seed, pool.len()).take(40).enumerate() {
                out.push(pool[j].request_line(k as u64, None));
            }
            out.join("\n")
        };
        assert_eq!(lines(7), lines(7));
        assert_ne!(lines(7), lines(8));
    }

    #[test]
    fn cold_sequence_never_repeats_the_previous_problem_and_covers_the_pool() {
        let seq: Vec<usize> = ColdSequence::new(3, 16).take(2000).collect();
        assert!(seq.windows(2).all(|w| w[0] != w[1]));
        for j in 0..16 {
            assert!(seq.contains(&j));
        }
    }

    #[test]
    fn drift_keeps_every_curve_monotone_and_concave() {
        let mut d = DriftStream::new(11, 4, 4, 16, 1000.0);
        for _ in 0..2000 {
            d.advance();
        }
        let grid: Vec<f64> = (0..=64).map(|i| 1000.0 * f64::from(i) / 64.0).collect();
        for inst in &d.instances {
            for t in &inst.threads {
                // The control polygon: positive, nonincreasing slopes.
                assert!(t.v > 0.0 && t.w > 0.0 && t.w <= t.v, "{t:?}");
                // The interpolant the program builds from it.
                let f = t.to_spec(inst.capacity).build().expect("valid pchip");
                let ys: Vec<f64> = grid.iter().map(|&x| f.value(x)).collect();
                for w in ys.windows(2) {
                    assert!(w[1] >= w[0] - 1e-12, "not monotone: {t:?}");
                }
                for w in ys.windows(3) {
                    assert!(w[1] - w[0] >= w[2] - w[1] - 1e-9, "not concave: {t:?}");
                }
            }
        }
    }

    #[test]
    fn request_lines_parse_back_to_the_typed_problem() {
        let mut rng = Rng::new(5);
        let inst = Instance::generate(2, 3, 1000.0, Dist::Normal, &mut rng);
        let line = inst.request_line(9, Some(4));
        let req: aa_cli::serve::ServeRequest = serde_json::from_str(&line).expect("parses");
        assert_eq!(req.stream, Some(4));
        assert_eq!(req.problem, inst.to_file());
    }
}
