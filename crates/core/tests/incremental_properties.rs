//! Differential property tests for the incremental solve engine.
//!
//! The contract under test (see `aa_core::incremental`): for *any*
//! edit script — adding, removing, and mutating threads, resizing the
//! cluster, rescaling capacity — `solve_incremental` driven through one
//! persistent [`WarmState`] returns an assignment **bit-identical** to
//! a cold `algo2::solve` of the same instance, at every step, at every
//! rayon pool size. And an expired [`Budget`] mid-script is
//! cancellation-safe: the typed error invalidates the warm state, and
//! the next solve recovers to the exact cold answer.

use std::sync::Arc;

use aa_core::incremental::{solve_incremental_budgeted, WarmState};
use aa_core::{algo2, Budget, Problem, SolveError};
use aa_utility::{CappedLinear, DynUtility, LogUtility, Pchip, Power};
use proptest::prelude::*;

/// A thread: its utility, plus the control values `(v, w)` when it is a
/// paper-shaped PCHIP curve (so drift edits can rescale it).
type Thread = (DynUtility, Option<(f64, f64)>);

/// The paper's §VII PCHIP shape: `(0,0)`, `(C/2,v)`, `(C,v+w)`, `w ≤ v`.
fn pchip(cap: f64, v: f64, w: f64) -> Thread {
    let points = [(0.0, 0.0), (cap / 2.0, v), (cap, v + w)];
    (Arc::new(Pchip::new(&points).unwrap()), Some((v, w)))
}

/// Strategy: a paper-shaped PCHIP thread whose control values come from
/// the paper's two-point distribution (`γ = 0.85`, `θ = 5`), scaled.
fn two_point_pchip(cap: f64) -> impl Strategy<Value = Thread> {
    let draw = |u: f64| if u < 0.85 { 1.0_f64 } else { 5.0 };
    (0.0..1.0f64, 0.0..1.0f64, 0.5..2.0f64).prop_map(move |(a, b, scale)| {
        let (a, b) = (draw(a), draw(b));
        pchip(cap, scale * a.max(b), scale * a.min(b))
    })
}

/// Strategy: a random concave utility of a random family. PCHIP comes
/// twice, with uniform and two-point control values: it is the workload
/// generator's family, and the one whose closed-form demand must be
/// exactly monotone for warm ≡ cold.
fn any_utility(cap: f64) -> impl Strategy<Value = Thread> {
    prop_oneof![
        (0.1..10.0f64, 0.2..1.0f64)
            .prop_map(move |(s, b)| (Arc::new(Power::new(s, b, cap)) as DynUtility, None)),
        (0.1..10.0f64, 0.1..4.0f64)
            .prop_map(move |(s, r)| (Arc::new(LogUtility::new(s, r, cap)) as DynUtility, None)),
        (0.1..10.0f64, 0.05..1.0f64).prop_map(move |(s, k)| {
            (Arc::new(CappedLinear::new(s, k * cap, cap)) as DynUtility, None)
        }),
        (0.1..10.0f64, 0.0..1.0f64).prop_map(move |(v, w)| pchip(cap, v, w * v)),
        two_point_pchip(cap),
    ]
}

/// One step of a random edit script. Indices are taken modulo the live
/// thread count when applied, so every step is always applicable.
#[derive(Debug, Clone)]
enum Edit {
    /// Append a fresh thread.
    Add(f64, f64),
    /// Remove thread `i % n` (skipped when only one thread remains).
    Remove(usize),
    /// Replace thread `i % n`'s utility with a fresh curve.
    Mutate(usize, f64, f64),
    /// Resize the cluster to this many servers.
    Servers(usize),
    /// Rescale the per-server capacity (forces a structural rebuild).
    Capacity(f64),
    /// Drift thread `i % n`'s PCHIP control values by a common factor,
    /// which keeps `w ≤ v` (skipped for other families).
    Rescale(usize, f64),
}

fn any_edit() -> impl Strategy<Value = Edit> {
    let mutate = (0usize..64, 0.1..8.0f64, 0.2..1.0f64)
        .prop_map(|(i, s, b)| Edit::Mutate(i, s, b))
        .boxed();
    // The stub's `prop_oneof!` draws uniformly; listing the mutate
    // strategy three times biases scripts toward the warm path's
    // bread-and-butter case without needing weights.
    let rescale = (0usize..64, 0.9..1.0 / 0.9)
        .prop_map(|(i, f)| Edit::Rescale(i, f))
        .boxed();
    prop_oneof![
        (0.1..8.0f64, 0.2..1.0f64).prop_map(|(s, b)| Edit::Add(s, b)),
        (0usize..64).prop_map(Edit::Remove),
        mutate.clone(),
        mutate.clone(),
        mutate,
        (1usize..7).prop_map(Edit::Servers),
        (0.5..2.0f64).prop_map(Edit::Capacity),
        rescale.clone(),
        rescale.clone(),
        rescale,
    ]
}

/// Mutable script state: the pieces a [`Problem`] is built from.
struct Instance {
    servers: usize,
    capacity: f64,
    threads: Vec<Thread>,
}

impl Instance {
    fn apply(&mut self, edit: &Edit) {
        let n = self.threads.len();
        match edit {
            Edit::Add(s, b) => {
                self.threads.push((Arc::new(Power::new(*s, *b, self.capacity)), None));
            }
            Edit::Remove(i) if n > 1 => {
                self.threads.remove(i % n);
            }
            Edit::Remove(_) => {}
            Edit::Mutate(i, s, b) => {
                self.threads[i % n] = (Arc::new(Power::new(*s, *b, self.capacity)), None);
            }
            Edit::Servers(m) => self.servers = *m,
            Edit::Capacity(f) => self.capacity *= f,
            Edit::Rescale(i, f) => {
                if let Some((v, w)) = self.threads[i % n].1 {
                    self.threads[i % n] = pchip(self.capacity, v * f, w * f);
                }
            }
        }
    }

    fn problem(&self) -> Problem {
        // Unchanged entries keep their `Arc` identity across steps —
        // exactly what the engine's delta detection keys on.
        let threads = self.threads.iter().map(|t| t.0.clone()).collect();
        Problem::new(self.servers, self.capacity, threads).unwrap()
    }
}

/// Drive one edit script, checking warm-vs-cold bitwise equality at
/// every step. Factored out so the same script runs under several
/// rayon pool sizes.
fn check_script(
    servers: usize,
    capacity: f64,
    threads: &[Thread],
    script: &[Edit],
) -> Result<(), String> {
    let mut inst = Instance { servers, capacity, threads: threads.to_vec() };
    let mut state = WarmState::new();
    for (step, edit) in std::iter::once(None)
        .chain(script.iter().map(Some))
        .enumerate()
    {
        if let Some(edit) = edit {
            inst.apply(edit);
        }
        let problem = inst.problem();
        let cold = algo2::solve(&problem);
        let warm = algo2::solve_incremental(&problem, &mut state);
        prop_assert_eq!(&cold.server, &warm.server, "step {}: placement diverged", step);
        for (i, (c, w)) in cold.amount.iter().zip(&warm.amount).enumerate() {
            prop_assert_eq!(
                c.to_bits(),
                w.to_bits(),
                "step {}: thread {} allocation diverged ({} vs {})",
                step,
                i,
                c,
                w
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random edit scripts: warm output is bit-identical to a cold
    /// solve at every step, under 1-, 2-, and 8-thread rayon pools.
    #[test]
    fn random_edit_scripts_are_bit_identical_to_cold(
        shape in (2usize..5, 4.0..40.0f64),
        threads in prop::collection::vec(any_utility(20.0), 2..64),
        script in prop::collection::vec(any_edit(), 1..24),
    ) {
        let (m, cap) = shape;
        for pool in [1usize, 2, 8] {
            rayon::with_threads(pool, || check_script(m, cap, &threads, &script))?;
        }
    }

    /// Drift-only scripts over a pool of two-point PCHIP threads, the
    /// shape of the benchmark's drifting streams: every step rescales
    /// one curve, so every solve after the first takes the warm path.
    #[test]
    fn pchip_drift_scripts_are_bit_identical_to_cold(
        threads in prop::collection::vec(two_point_pchip(20.0), 32..33),
        script in prop::collection::vec(
            (0usize..64, 0.9..1.0 / 0.9).prop_map(|(i, f)| Edit::Rescale(i, f)),
            64..65,
        ),
    ) {
        for pool in [1usize, 2, 8] {
            rayon::with_threads(pool, || check_script(4, 20.0, &threads, &script))?;
        }
    }

    /// Cancellation safety: an expired budget mid-script surfaces as a
    /// typed error, poisons nothing, and the very next solve recovers
    /// to the exact cold answer.
    #[test]
    fn expired_budget_recovers_to_the_exact_cold_answer(
        shape in (2usize..5, 4.0..40.0f64),
        threads in prop::collection::vec(any_utility(20.0), 2..10),
        warmups in 0usize..3,
    ) {
        let (m, cap) = shape;
        let inst = Instance { servers: m, capacity: cap, threads };
        let problem = inst.problem();
        let mut state = WarmState::new();
        for _ in 0..warmups {
            algo2::solve_incremental(&problem, &mut state);
        }
        let err = solve_incremental_budgeted(&problem, &mut state, &Budget::with_fuel(0))
            .unwrap_err();
        prop_assert_eq!(err, SolveError::DeadlineExceeded);
        // Recovery: the expired solve invalidated the warm state, so
        // the next call is a cold build — and must equal algo2 exactly.
        let recovered = algo2::solve_incremental(&problem, &mut state);
        let cold = algo2::solve(&problem);
        prop_assert_eq!(&recovered.server, &cold.server);
        for (r, c) in recovered.amount.iter().zip(&cold.amount) {
            prop_assert_eq!(r.to_bits(), c.to_bits());
        }
    }
}
