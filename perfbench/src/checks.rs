//! Correctness checks on every answer the benchmark receives.

use aa_core::{Assignment, Problem, ALPHA};

/// Relative slack on a server's capacity: `Σcᵢ ≤ C·(1 + ε)`.
pub const CAPACITY_EPS: f64 = 1e-9;
/// Relative tolerance between a reported utility and the benchmark's
/// own recomputation `Σfᵢ(cᵢ)`.
pub const UTILITY_RTOL: f64 = 1e-9;

/// An `ok` answer as it arrived.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub tier: String,
    pub utility: f64,
    pub server: Vec<usize>,
    pub allocation: Vec<f64>,
    /// Fleet dispatch attempts (1 where the path has no retries).
    pub attempts: u64,
}

/// Parse a response line: `Ok(Some(answer))` for `status:"ok"`,
/// `Ok(None)` for any other status, `Err` for a malformed `ok` line.
pub fn parse_response(line: &str) -> Result<Option<Answer>, String> {
    let v: serde_json::Value = serde_json::from_str(line).map_err(|e| format!("bad JSON: {e}"))?;
    if v.get("status").and_then(|s| s.as_str()) != Some("ok") {
        return Ok(None);
    }
    let nums = |key: &str| -> Result<Vec<f64>, String> {
        v.get(key)
            .and_then(|a| a.as_array())
            .ok_or_else(|| format!("ok line without `{key}`"))?
            .iter()
            .map(|x| x.as_f64().ok_or_else(|| format!("non-number in `{key}`")))
            .collect()
    };
    Ok(Some(Answer {
        tier: v.get("tier").and_then(|t| t.as_str()).unwrap_or("").to_string(),
        utility: v.get("utility").and_then(|u| u.as_f64()).ok_or("ok line without `utility`")?,
        server: nums("server")?.into_iter().map(|s| s as usize).collect(),
        allocation: nums("allocation")?,
        attempts: v.get("attempts").and_then(|a| a.as_u64()).unwrap_or(1),
    }))
}

/// The tiers that carry the paper's guarantee `F ≥ α·F̂`.
pub fn is_algo2_family(tier: &str) -> bool {
    matches!(tier, "algo2" | "algo2-refined")
}

/// Check one answer against its problem and super-optimal bound `F̂`;
/// returns `utility / F̂`.
pub fn check_answer(problem: &Problem, a: &Answer, bound: f64) -> Result<f64, String> {
    let (n, m, c) = (problem.len(), problem.servers(), problem.capacity());
    if a.server.len() != n || a.allocation.len() != n {
        return Err(format!("answer has {}/{} entries for {n} threads", a.server.len(), a.allocation.len()));
    }
    let mut load = vec![0.0; m];
    for (&j, &x) in a.server.iter().zip(&a.allocation) {
        if j >= m {
            return Err(format!("server index {j} ≥ m = {m}"));
        }
        if !(x.is_finite() && x >= 0.0) {
            return Err(format!("allocation {x} is not a finite amount ≥ 0"));
        }
        load[j] += x;
    }
    if let Some((j, l)) = load.iter().enumerate().find(|(_, &l)| l > c * (1.0 + CAPACITY_EPS)) {
        return Err(format!("server {j} holds {l} > C = {c}"));
    }
    let recomputed: f64 = a.allocation.iter().enumerate().map(|(i, &x)| problem.utility_of(i, x)).sum();
    if (recomputed - a.utility).abs() > UTILITY_RTOL * recomputed.abs().max(1.0) {
        return Err(format!("reported utility {} but Σfᵢ(cᵢ) = {recomputed}", a.utility));
    }
    if is_algo2_family(&a.tier) && recomputed < ALPHA * bound * (1.0 - UTILITY_RTOL) {
        return Err(format!("{} answer {recomputed} < α·F̂ = {}", a.tier, ALPHA * bound));
    }
    Ok(if bound > 0.0 { recomputed / bound } else { 1.0 })
}

/// Bit-for-bit equality of two placements.
fn bits_equal(server: &[usize], amount: &[f64], b: &Assignment) -> bool {
    server == b.server.as_slice()
        && amount.len() == b.amount.len()
        && amount.iter().zip(&b.amount).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bit-for-bit equality of an answer with an in-process assignment.
pub fn bit_identical(a: &Answer, b: &Assignment) -> bool {
    bits_equal(&a.server, &a.allocation, b)
}

/// Bit-for-bit equality of two assignments.
pub fn same_bits(a: &Assignment, b: &Assignment) -> bool {
    bits_equal(&a.server, &a.amount, b)
}

/// Largest per-thread allocation difference, or ∞ when the placements
/// differ: how far apart two answers that are not bit-identical are.
pub fn max_abs_diff(server: &[usize], amount: &[f64], b: &Assignment) -> f64 {
    if server != b.server.as_slice() || amount.len() != b.amount.len() {
        return f64::INFINITY;
    }
    amount.iter().zip(&b.amount).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// Tally of checked operations.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Record the outcome of one operation.
    pub fn record(&mut self, r: Result<(), String>) {
        match r {
            Ok(()) => self.pass(),
            Err(e) => self.fail(e),
        }
    }

    /// Add another tally's operations to this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&other.first_failure);
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Dist, Instance, Rng};

    #[test]
    fn an_algo2_answer_passes_and_corruptions_fail() {
        let inst = Instance::generate(3, 4, 1000.0, Dist::Uniform, &mut Rng::new(1));
        let p = aa_cli::build_problem(&inst.to_file()).unwrap();
        let a = aa_core::algo2::solve(&p);
        let bound = aa_core::superopt::super_optimal(&p).utility;
        let ans = Answer {
            tier: "algo2".into(),
            utility: a.total_utility(&p),
            server: a.server.clone(),
            allocation: a.amount.clone(),
            attempts: 1,
        };
        let ratio = check_answer(&p, &ans, bound).unwrap();
        assert!((ALPHA..=1.0 + 1e-12).contains(&ratio));
        assert!(bit_identical(&ans, &a));

        let mut bad = ans.clone();
        bad.server[0] = 3;
        assert!(check_answer(&p, &bad, bound).is_err());
        let mut bad = ans.clone();
        bad.allocation[0] += 1000.0;
        assert!(check_answer(&p, &bad, bound).is_err());
        let mut bad = ans.clone();
        bad.utility *= 1.01;
        assert!(check_answer(&p, &bad, bound).is_err());
        let mut bad = ans.clone();
        bad.allocation.pop();
        assert!(check_answer(&p, &bad, bound).is_err());
        // Below α·F̂ only matters for the Algo2 family.
        let zero = Answer { allocation: vec![0.0; p.len()], utility: 0.0, ..ans.clone() };
        assert!(check_answer(&p, &zero, bound).is_err());
        assert!(check_answer(&p, &Answer { tier: "uu".into(), ..zero }, bound).is_ok());
    }

    #[test]
    fn response_lines_parse_into_answers() {
        let line = r#"{"status":"ok","id":3,"tier":"algo2","degraded":false,"utility":2.5,"server":[0,1],"allocation":[4.0,1.5],"latency_ms":0.3,"worker":1,"attempts":2,"solve_micros":41}"#;
        let a = parse_response(line).unwrap().unwrap();
        assert_eq!((a.server, a.allocation, a.attempts), (vec![0, 1], vec![4.0, 1.5], 2));
        assert_eq!(parse_response(r#"{"status":"overloaded","id":1,"retry_after_ms":3}"#).unwrap(), None);
        assert!(parse_response(r#"{"status":"ok","id":1}"#).is_err());
    }
}
