//! Cluster churn: repairing an assignment after membership events.
//!
//! The paper solves a static instance; real clusters lose servers, gain
//! them back, flap capacities, and see threads arrive and depart. This
//! module makes the solved assignment *churn-tolerant*: given a feasible
//! assignment for the pre-event problem and a [`ClusterEvent`],
//! [`repair_after`] produces the post-event problem together with a
//! feasible assignment for it, guaranteeing:
//!
//! 1. **feasibility** — the returned assignment always passes
//!    [`Assignment::validate`] against the post-event problem;
//! 2. **monotonicity** — its total utility is never below the naive
//!    baseline ([`naive_repair`]) that drops evacuees onto the lightest
//!    server with whatever capacity is left over;
//! 3. **bounded disruption** — migrations beyond the forced evacuations
//!    never exceed the caller's [`MigrationBudget`].
//!
//! Repair is local: evacuees (threads whose server failed, plus fresh
//! arrivals) are placed greedily by marginal utility gain, every touched
//! server is re-split optimally, and the remaining budget funds the
//! `aa_core::online` migration pass. Events that would leave the cluster
//! unrepresentable (last server down, last thread gone) are reported as
//! [`RepairError`]s instead of panics, so a controller can park the
//! workload and retry on the next recovery.

use aa_allocator::bisection;
use aa_utility::DynUtility;

use crate::online;
use crate::problem::{Assignment, CappedView, Problem};

/// A cluster membership or capacity event.
#[derive(Debug, Clone)]
pub enum ClusterEvent {
    /// Server `server` fails; its threads must evacuate.
    ServerDown {
        /// Index of the failed server (pre-event numbering).
        server: usize,
    },
    /// One server (re)joins the cluster, numbered `m` (post-event).
    ServerUp,
    /// Every server's capacity becomes `capacity` (homogeneous model).
    CapacityChanged {
        /// The new per-server capacity.
        capacity: f64,
    },
    /// A new thread arrives and must be placed.
    ThreadArrived {
        /// The arriving thread's utility curve.
        utility: DynUtility,
    },
    /// Thread `thread` departs; later threads shift down one index.
    ThreadDeparted {
        /// Index of the departing thread (pre-event numbering).
        thread: usize,
    },
}

/// How many threads a repair may move *beyond* forced evacuations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationBudget {
    /// Maximum voluntary migrations.
    pub migrations: usize,
}

impl MigrationBudget {
    /// No voluntary migrations: evacuate, re-split, nothing else.
    pub const ZERO: MigrationBudget = MigrationBudget { migrations: 0 };

    /// Budget of `migrations` voluntary moves.
    pub fn new(migrations: usize) -> Self {
        MigrationBudget { migrations }
    }
}

/// Why an event cannot be repaired into a valid problem.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairError {
    /// The last live server went down; no feasible problem remains.
    ClusterEmpty,
    /// The last thread departed; the problem model requires at least one.
    NoThreadsLeft,
    /// The event names a server index ≥ the current server count.
    NoSuchServer {
        /// Offending index.
        server: usize,
        /// Current server count.
        servers: usize,
    },
    /// The event names a thread index ≥ the current thread count.
    NoSuchThread {
        /// Offending index.
        thread: usize,
        /// Current thread count.
        threads: usize,
    },
    /// The new capacity is not positive and finite.
    BadCapacity {
        /// The rejected capacity.
        capacity: f64,
    },
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::ClusterEmpty => f.write_str("last server went down: cluster is empty"),
            RepairError::NoThreadsLeft => f.write_str("last thread departed: nothing to assign"),
            RepairError::NoSuchServer { server, servers } => {
                write!(f, "event names server {server}, cluster has {servers}")
            }
            RepairError::NoSuchThread { thread, threads } => {
                write!(f, "event names thread {thread}, problem has {threads}")
            }
            RepairError::BadCapacity { capacity } => {
                write!(f, "new capacity {capacity} must be positive and finite")
            }
        }
    }
}

impl std::error::Error for RepairError {}

/// Statistics of one repair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairReport {
    /// Forced moves: threads evacuated from a failed server.
    pub evacuated: usize,
    /// Voluntary moves taken by the optimizer (≤ the budget).
    pub migrated: usize,
    /// Total utility of the returned assignment on the new problem.
    pub utility: f64,
    /// Utility of the naive lightest-server evacuation baseline.
    pub naive_utility: f64,
}

/// Result of [`repair_after`]: the post-event problem, a feasible
/// assignment for it, and what the repair cost.
#[derive(Debug, Clone)]
pub struct Repair {
    /// The problem after applying the event.
    pub problem: Problem,
    /// A feasible assignment for [`Repair::problem`].
    pub assignment: Assignment,
    /// Repair statistics.
    pub report: RepairReport,
}

/// Apply `event` to `problem`, producing the post-event problem.
///
/// Fails (instead of panicking) when the event would leave the cluster
/// unrepresentable or names a nonexistent server/thread.
pub fn apply_event(problem: &Problem, event: &ClusterEvent) -> Result<Problem, RepairError> {
    let m = problem.servers();
    let capacity = problem.capacity();
    let threads = problem.threads().to_vec();
    let built = match event {
        ClusterEvent::ServerDown { server } => {
            if *server >= m {
                return Err(RepairError::NoSuchServer { server: *server, servers: m });
            }
            if m == 1 {
                return Err(RepairError::ClusterEmpty);
            }
            Problem::new(m - 1, capacity, threads)
        }
        ClusterEvent::ServerUp => Problem::new(m + 1, capacity, threads),
        ClusterEvent::CapacityChanged { capacity: c } => {
            if !(c.is_finite() && *c > 0.0) {
                return Err(RepairError::BadCapacity { capacity: *c });
            }
            Problem::new(m, *c, threads)
        }
        ClusterEvent::ThreadArrived { utility } => {
            let mut threads = threads;
            threads.push(utility.clone());
            Problem::new(m, capacity, threads)
        }
        ClusterEvent::ThreadDeparted { thread } => {
            if *thread >= threads.len() {
                return Err(RepairError::NoSuchThread {
                    thread: *thread,
                    threads: threads.len(),
                });
            }
            if threads.len() == 1 {
                return Err(RepairError::NoThreadsLeft);
            }
            let mut threads = threads;
            threads.remove(*thread);
            Problem::new(m, capacity, threads)
        }
    };
    // The arms above rule out every builder error case.
    built.map_err(|_| RepairError::ClusterEmpty)
}

/// The carried-over part of an assignment after an event: surviving
/// threads keep their (remapped) server and amount; `unplaced` lists
/// post-event thread indices that still need a server (evacuees from a
/// failed server, plus a fresh arrival).
struct Skeleton {
    server: Vec<usize>,
    amount: Vec<f64>,
    unplaced: Vec<usize>,
}

fn skeleton(after: &Problem, current: &Assignment, event: &ClusterEvent) -> Skeleton {
    match event {
        ClusterEvent::ServerDown { server: down } => {
            let mut server = Vec::with_capacity(current.server.len());
            let mut amount = Vec::with_capacity(current.amount.len());
            let mut unplaced = Vec::new();
            for (i, (&s, &c)) in current.server.iter().zip(&current.amount).enumerate() {
                if s == *down {
                    unplaced.push(i);
                    // Parked at server 0 with nothing until placed.
                    server.push(0);
                    amount.push(0.0);
                } else {
                    server.push(if s > *down { s - 1 } else { s });
                    amount.push(c);
                }
            }
            Skeleton { server, amount, unplaced }
        }
        ClusterEvent::ThreadArrived { .. } => {
            let mut server = current.server.clone();
            let mut amount = current.amount.clone();
            server.push(0);
            amount.push(0.0);
            Skeleton { server, amount, unplaced: vec![after.len() - 1] }
        }
        ClusterEvent::ThreadDeparted { thread } => {
            let mut server = current.server.clone();
            let mut amount = current.amount.clone();
            server.remove(*thread);
            amount.remove(*thread);
            Skeleton { server, amount, unplaced: Vec::new() }
        }
        ClusterEvent::ServerUp | ClusterEvent::CapacityChanged { .. } => Skeleton {
            server: current.server.clone(),
            amount: current.amount.clone(),
            unplaced: Vec::new(),
        },
    }
}

/// Scale each server's allocations down proportionally where the carried
/// amounts overshoot the (possibly shrunk) capacity, so every candidate
/// repair starts from a feasible base.
fn rescale_to_capacity(server: &[usize], amount: &mut [f64], problem: &Problem) {
    let capacity = problem.capacity();
    let mut loads = vec![0.0_f64; problem.servers()];
    for (&j, &c) in server.iter().zip(amount.iter()) {
        loads[j] += c;
    }
    for (i, &j) in server.iter().enumerate() {
        if loads[j] > capacity {
            amount[i] *= capacity / loads[j];
        }
        amount[i] = amount[i].min(capacity).max(0.0);
    }
}

/// The naive baseline: carried threads keep their allocation (scaled down
/// if the capacity shrank), and each unplaced thread lands on the
/// currently lightest server with whatever capacity is left over. No
/// re-splitting, no optimization.
///
/// Public so harnesses can report the floor that [`repair_after`] is
/// guaranteed to meet or beat.
pub fn naive_repair(after: &Problem, current: &Assignment, event: &ClusterEvent) -> Assignment {
    let sk = skeleton(after, current, event);
    let mut server = sk.server;
    let mut amount = sk.amount;
    rescale_to_capacity(&server, &mut amount, after);

    let mut loads = vec![0.0_f64; after.servers()];
    for (&j, &c) in server.iter().zip(amount.iter()) {
        loads[j] += c;
    }
    for &i in &sk.unplaced {
        let dest = lightest(&loads);
        let free = (after.capacity() - loads[dest]).max(0.0);
        let c = free.min(after.effective_cap(i));
        server[i] = dest;
        amount[i] = c;
        loads[dest] += c;
    }
    Assignment { server, amount }
}

/// Index of the least-loaded server (lowest index wins ties). `loads` is
/// nonempty for any built [`Problem`].
fn lightest(loads: &[f64]) -> usize {
    loads
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1).then_with(|| a.0.cmp(&b.0)))
        .map(|(j, _)| j)
        .unwrap_or(0)
}

/// Reusable scratch for [`repair_after_with`]: the capped views, the
/// per-group clone buffer fed to the water-filling allocator, the trial
/// index buffer, the allocation output buffer, and the allocator's
/// search scratch ([`bisection::WarmCache`]).
///
/// A controller that repairs every epoch keeps one arena alive so the
/// steady-state repair path reuses these buffers instead of
/// reallocating them per split evaluation — `repair_after` evaluates
/// `O(m)` optimal splits per evacuee, so the per-split `Vec` churn
/// dominated its allocator traffic. Results are **bit-identical** to
/// the arena-free path: the split evaluation goes through
/// [`bisection::allocate_utility_into`], which runs the cold search.
#[derive(Debug, Clone, Default)]
pub struct RepairArena {
    views: Vec<CappedView>,
    group: Vec<CappedView>,
    trial: Vec<usize>,
    amounts: Vec<f64>,
    cache: bisection::WarmCache,
}

impl RepairArena {
    /// An empty arena; buffers grow to steady-state size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Repair `current` after `event`: returns the post-event problem and a
/// feasible assignment for it.
///
/// Guarantees (see the module docs): the assignment validates, its
/// utility is at least [`naive_repair`]'s, and voluntary migrations stay
/// within `budget`.
///
/// Allocates fresh scratch per call; epoch loops should hold a
/// [`RepairArena`] and call [`repair_after_with`] instead.
pub fn repair_after(
    problem: &Problem,
    current: &Assignment,
    event: &ClusterEvent,
    budget: MigrationBudget,
) -> Result<Repair, RepairError> {
    repair_after_with(problem, current, event, budget, &mut RepairArena::new())
}

/// [`repair_after`] with caller-owned scratch: bit-identical output,
/// but the split-evaluation buffers and the bisection warm cache live
/// in `arena` and are reused across calls.
pub fn repair_after_with(
    problem: &Problem,
    current: &Assignment,
    event: &ClusterEvent,
    budget: MigrationBudget,
    arena: &mut RepairArena,
) -> Result<Repair, RepairError> {
    let after = apply_event(problem, event)?;
    let sk = skeleton(&after, current, event);
    let evacuated = sk.unplaced.len()
        - matches!(event, ClusterEvent::ThreadArrived { .. }) as usize;

    let naive = naive_repair(&after, current, event);
    let naive_utility = naive.total_utility(&after);

    // Greedy placement of unplaced threads by marginal utility gain, on
    // top of the carried (rescaled) placement.
    let mut server = sk.server;
    let mut amount = sk.amount;
    rescale_to_capacity(&server, &mut amount, &after);

    let RepairArena { views, group, trial, amounts, cache } = arena;
    views.clear();
    views.extend((0..after.len()).map(|i| after.capped_thread(i)));
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); after.servers()];
    for (i, &j) in server.iter().enumerate() {
        if !sk.unplaced.contains(&i) {
            groups[j].push(i);
        }
    }
    let mut group_utility: Vec<f64> = groups
        .iter()
        .map(|g| split_utility_into(views, g, after.capacity(), group, cache, amounts))
        .collect();

    // Biggest consumers first: they are the hardest to place well.
    let mut order = sk.unplaced.clone();
    order.sort_by(|&a, &b| {
        after
            .effective_cap(b)
            .total_cmp(&after.effective_cap(a))
            .then_with(|| a.cmp(&b))
    });
    for &i in &order {
        let mut best = (0_usize, f64::NEG_INFINITY);
        for j in 0..after.servers() {
            trial.clear();
            trial.extend_from_slice(&groups[j]);
            trial.push(i);
            let gain =
                split_utility_into(views, trial, after.capacity(), group, cache, amounts)
                    - group_utility[j];
            if gain > best.1 {
                best = (j, gain);
            }
        }
        let (dest, _) = best;
        groups[dest].push(i);
        group_utility[dest] =
            split_utility_into(views, &groups[dest], after.capacity(), group, cache, amounts);
        server[i] = dest;
    }

    // Re-split everything, then spend the voluntary-migration budget.
    let placed = Assignment { server, amount };
    let repaired = online::improve_with_migrations(&after, &placed, budget.migrations);
    let migrated = repaired
        .server
        .iter()
        .zip(&placed.server)
        .filter(|(a, b)| a != b)
        .count();
    let utility = repaired.total_utility(&after);

    // Monotonicity guarantee: never return less than the naive baseline.
    let (assignment, migrated, utility) = if utility >= naive_utility {
        (repaired, migrated, utility)
    } else {
        (naive, 0, naive_utility)
    };

    debug_assert!(assignment.validate(&after).is_ok());
    Ok(Repair {
        problem: after,
        assignment,
        report: RepairReport { evacuated, migrated, utility, naive_utility },
    })
}

/// Optimal split utility of one server's group (empty group → 0).
/// The arena-free reference used by the differential test.
#[cfg(test)]
fn split_utility(views: &[CappedView], group: &[usize], capacity: f64) -> f64 {
    if group.is_empty() {
        return 0.0;
    }
    let g: Vec<&CappedView> = group.iter().map(|&i| &views[i]).collect();
    bisection::allocate(&g, capacity).utility
}

/// [`split_utility`] into caller-owned buffers: clones the group's
/// views into `scratch` (an `Arc` clone plus an `f64` each — no heap
/// traffic once `scratch` has capacity) and runs the cold search
/// through [`bisection::allocate_utility_into`].
/// Bit-identical to the reference: same element order, same budget,
/// same index-order utility summation.
fn split_utility_into(
    views: &[CappedView],
    group: &[usize],
    capacity: f64,
    scratch: &mut Vec<CappedView>,
    cache: &mut bisection::WarmCache,
    amounts: &mut Vec<f64>,
) -> f64 {
    if group.is_empty() {
        return 0.0;
    }
    scratch.clear();
    scratch.extend(group.iter().map(|&i| views[i].clone()));
    bisection::allocate_utility_into(scratch, capacity, cache, amounts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aa_utility::{LogUtility, Power, Utility};

    use crate::algo2;

    fn arc<U: Utility + 'static>(u: U) -> DynUtility {
        Arc::new(u)
    }

    fn cluster() -> (Problem, Assignment) {
        let p = Problem::builder(3, 6.0)
            .threads((0..7).map(|i| {
                if i % 2 == 0 {
                    arc(Power::new(1.0 + i as f64, 0.5, 6.0))
                } else {
                    arc(LogUtility::new(2.0 + i as f64, 1.0, 6.0))
                }
            }))
            .build()
            .unwrap();
        let a = algo2::solve(&p);
        a.validate(&p).unwrap();
        (p, a)
    }

    #[test]
    fn server_down_evacuates_and_validates() {
        let (p, a) = cluster();
        for down in 0..p.servers() {
            let r = repair_after(
                &p,
                &a,
                &ClusterEvent::ServerDown { server: down },
                MigrationBudget::new(2),
            )
            .unwrap();
            assert_eq!(r.problem.servers(), 2);
            r.assignment.validate(&r.problem).unwrap();
            let on_down = a.server.iter().filter(|&&s| s == down).count();
            assert_eq!(r.report.evacuated, on_down);
            assert!(r.report.utility >= r.report.naive_utility - 1e-9);
        }
    }

    #[test]
    fn server_down_beats_naive_strictly_when_it_matters() {
        // A valuable thread on the failed server: naive parks it on the
        // lightest server with leftover capacity only; greedy re-splits.
        let p = Problem::builder(2, 4.0)
            .thread(arc(Power::new(1.0, 0.5, 4.0)))
            .thread(arc(Power::new(1.0, 0.5, 4.0)))
            .thread(arc(Power::new(50.0, 0.5, 4.0)))
            .build()
            .unwrap();
        let a = algo2::solve(&p);
        // Find the valuable thread's server and fail it.
        let down = a.server[2];
        let r = repair_after(
            &p,
            &a,
            &ClusterEvent::ServerDown { server: down },
            MigrationBudget::new(1),
        )
        .unwrap();
        r.assignment.validate(&r.problem).unwrap();
        assert!(r.report.utility >= r.report.naive_utility - 1e-9);
    }

    #[test]
    fn last_server_down_errors() {
        let p = Problem::builder(1, 4.0)
            .thread(arc(Power::new(1.0, 0.5, 4.0)))
            .build()
            .unwrap();
        let a = Assignment::trivial(1);
        assert_eq!(
            repair_after(&p, &a, &ClusterEvent::ServerDown { server: 0 }, MigrationBudget::ZERO)
                .unwrap_err(),
            RepairError::ClusterEmpty
        );
    }

    #[test]
    fn bad_indices_error() {
        let (p, a) = cluster();
        assert!(matches!(
            repair_after(&p, &a, &ClusterEvent::ServerDown { server: 9 }, MigrationBudget::ZERO)
                .unwrap_err(),
            RepairError::NoSuchServer { server: 9, .. }
        ));
        assert!(matches!(
            repair_after(&p, &a, &ClusterEvent::ThreadDeparted { thread: 99 }, MigrationBudget::ZERO)
                .unwrap_err(),
            RepairError::NoSuchThread { thread: 99, .. }
        ));
        assert!(matches!(
            repair_after(
                &p,
                &a,
                &ClusterEvent::CapacityChanged { capacity: f64::NAN },
                MigrationBudget::ZERO
            )
            .unwrap_err(),
            RepairError::BadCapacity { .. }
        ));
    }

    #[test]
    fn server_up_gains_capacity_with_budget() {
        let (p, a) = cluster();
        let before = a.total_utility(&p);
        let r = repair_after(&p, &a, &ClusterEvent::ServerUp, MigrationBudget::new(3)).unwrap();
        assert_eq!(r.problem.servers(), 4);
        r.assignment.validate(&r.problem).unwrap();
        // A bigger cluster can only help (in-place re-split is already
        // no worse; the budget may move threads onto the empty server).
        assert!(r.report.utility >= before - 1e-9);
        assert!(r.report.migrated <= 3);
    }

    #[test]
    fn capacity_shrink_restores_feasibility() {
        let (p, a) = cluster();
        let r = repair_after(
            &p,
            &a,
            &ClusterEvent::CapacityChanged { capacity: 2.5 },
            MigrationBudget::ZERO,
        )
        .unwrap();
        assert_eq!(r.problem.capacity(), 2.5);
        r.assignment.validate(&r.problem).unwrap();
    }

    #[test]
    fn capacity_growth_never_hurts() {
        let (p, a) = cluster();
        let before = a.total_utility(&p);
        let r = repair_after(
            &p,
            &a,
            &ClusterEvent::CapacityChanged { capacity: 12.0 },
            MigrationBudget::ZERO,
        )
        .unwrap();
        r.assignment.validate(&r.problem).unwrap();
        assert!(r.report.utility >= before - 1e-9);
    }

    #[test]
    fn arrival_is_placed_not_counted_as_evacuation() {
        let (p, a) = cluster();
        let r = repair_after(
            &p,
            &a,
            &ClusterEvent::ThreadArrived { utility: arc(Power::new(4.0, 0.5, 6.0)) },
            MigrationBudget::ZERO,
        )
        .unwrap();
        assert_eq!(r.problem.len(), p.len() + 1);
        r.assignment.validate(&r.problem).unwrap();
        assert_eq!(r.report.evacuated, 0);
    }

    #[test]
    fn departure_frees_resources_for_the_rest() {
        let (p, a) = cluster();
        let r = repair_after(
            &p,
            &a,
            &ClusterEvent::ThreadDeparted { thread: 0 },
            MigrationBudget::ZERO,
        )
        .unwrap();
        assert_eq!(r.problem.len(), p.len() - 1);
        r.assignment.validate(&r.problem).unwrap();
        // Remaining threads keep at least what they had (their servers
        // only got emptier and the re-split is optimal per server).
        let kept: f64 = (1..p.len()).map(|i| p.utility_of(i, a.amount[i])).sum();
        assert!(r.report.utility >= kept - 1e-9);
    }

    #[test]
    fn last_thread_departure_errors() {
        let p = Problem::builder(2, 4.0)
            .thread(arc(Power::new(1.0, 0.5, 4.0)))
            .build()
            .unwrap();
        let a = Assignment::trivial(1);
        assert_eq!(
            repair_after(&p, &a, &ClusterEvent::ThreadDeparted { thread: 0 }, MigrationBudget::ZERO)
                .unwrap_err(),
            RepairError::NoThreadsLeft
        );
    }

    #[test]
    fn zero_budget_moves_nothing_voluntarily() {
        let (p, a) = cluster();
        let r = repair_after(
            &p,
            &a,
            &ClusterEvent::ServerDown { server: 0 },
            MigrationBudget::ZERO,
        )
        .unwrap();
        assert_eq!(r.report.migrated, 0);
    }

    #[test]
    fn budget_bounds_voluntary_migrations() {
        let (p, a) = cluster();
        for k in 0..4 {
            let r = repair_after(
                &p,
                &a,
                &ClusterEvent::ServerUp,
                MigrationBudget::new(k),
            )
            .unwrap();
            assert!(r.report.migrated <= k, "budget {k}, moved {}", r.report.migrated);
        }
    }

    #[test]
    fn naive_repair_is_always_feasible() {
        let (p, a) = cluster();
        let events = [
            ClusterEvent::ServerDown { server: 1 },
            ClusterEvent::ServerUp,
            ClusterEvent::CapacityChanged { capacity: 1.0 },
            ClusterEvent::ThreadArrived { utility: arc(Power::new(1.0, 0.5, 6.0)) },
            ClusterEvent::ThreadDeparted { thread: 2 },
        ];
        for e in &events {
            let after = apply_event(&p, e).unwrap();
            let naive = naive_repair(&after, &a, e);
            naive.validate(&after).unwrap_or_else(|err| panic!("{e:?}: {err}"));
        }
    }

    #[test]
    fn down_then_up_round_trip_recovers() {
        let (p, a) = cluster();
        let u0 = a.total_utility(&p);
        let down = repair_after(
            &p,
            &a,
            &ClusterEvent::ServerDown { server: 2 },
            MigrationBudget::new(2),
        )
        .unwrap();
        let up = repair_after(
            &down.problem,
            &down.assignment,
            &ClusterEvent::ServerUp,
            MigrationBudget::new(4),
        )
        .unwrap();
        up.assignment.validate(&up.problem).unwrap();
        // Back at 3 servers; repair should recover most of the utility.
        assert_eq!(up.problem.servers(), 3);
        assert!(
            up.report.utility >= 0.8 * u0,
            "recovered {} of {u0}",
            up.report.utility
        );
    }

    #[test]
    fn arena_split_utility_matches_reference_bitwise() {
        let (p, _) = cluster();
        let views = p.capped_threads();
        let mut arena = RepairArena::new();
        let groups: [&[usize]; 5] = [&[], &[0], &[1, 3, 5], &[0, 2, 4, 6], &[6, 4, 2, 0]];
        for group in groups {
            let reference = split_utility(&views, group, p.capacity());
            let arena_u = split_utility_into(
                &views,
                group,
                p.capacity(),
                &mut arena.group,
                &mut arena.cache,
                &mut arena.amounts,
            );
            assert_eq!(reference.to_bits(), arena_u.to_bits(), "group {group:?}");
        }
    }

    #[test]
    fn reused_arena_repairs_are_bit_identical_to_fresh_repairs() {
        let (mut p, mut a) = cluster();
        let events = [
            ClusterEvent::ServerDown { server: 1 },
            ClusterEvent::ThreadArrived { utility: arc(Power::new(4.0, 0.5, 6.0)) },
            ClusterEvent::ServerUp,
            ClusterEvent::CapacityChanged { capacity: 5.0 },
            ClusterEvent::ThreadDeparted { thread: 2 },
        ];
        let mut arena = RepairArena::new();
        for (k, event) in events.iter().enumerate() {
            let fresh = repair_after(&p, &a, event, MigrationBudget::new(2)).unwrap();
            let reused =
                repair_after_with(&p, &a, event, MigrationBudget::new(2), &mut arena).unwrap();
            assert_eq!(fresh.assignment, reused.assignment, "event {k}");
            assert_eq!(fresh.report, reused.report, "event {k}");
            p = reused.problem;
            a = reused.assignment;
        }
    }
}
