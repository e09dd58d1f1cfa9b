//! Exhaustive schedule-space verification (stateless model checking) of
//! the fine-grained primitives at small sizes — every interleaving, not a
//! sample. This is the strongest evidence this stack offers for the
//! safety lemmas: Lemma 1 (compete-for-register), the splitter property,
//! and snapshot self-inclusion are checked over the *complete* schedule
//! tree of 2–3 process programs.
//!
//! Every walk runs on the one enumerator in `exsel_sim::reduce`. Under
//! `ReduceConfig::off` it visits every grant sequence, and each tree's
//! execution count is frozen here as a golden value: a changed count
//! means the enumerator or a machine's operation sequence changed.
//! The paper's majority and basic renamers are walked with sleep sets
//! through the lower-bound harness's exclusiveness audit, over every
//! triple of original names at the smallest sizes where contenders race;
//! their executions, pruned branches and depths are frozen the same way.

use exclusive_selection::lowerbound::exhaust_exclusiveness_pooled;
use exclusive_selection::renaming::{BasicRename, CompeteOp, Majority, MoirAnderson, SlotBank};
use exclusive_selection::shm::snapshot::{ScanOp, UpdateOp};
use exclusive_selection::shm::{Pid, Snapshot};
use exclusive_selection::sim::{
    explore_pool_reduced, explore_pool_sleep, replay_pool, ExploreReport, MachinePool,
    ReduceConfig, StepEngine,
};
use exclusive_selection::storecollect::{FirstStoreOp, StoreCollect};
use exclusive_selection::unbounded::AltruisticDeposit;
use exclusive_selection::{
    Outcome, Poll, RegAlloc, RenameConfig, ShmOp, StepMachine, StepRename, Word,
};
use std::collections::BTreeSet;

/// Walks every interleaving of `pool` with no reduction and asserts that
/// the whole tree was covered and `check` held on every execution.
fn explore_all<M: StepMachine>(
    engine: &mut StepEngine,
    pool: &mut MachinePool<M>,
    check: impl FnMut(&MachinePool<M>) -> bool,
) -> ExploreReport {
    let report = explore_pool_sleep(engine, pool, &ReduceConfig::off(u64::MAX), check);
    assert!(report.complete, "schedule tree not fully covered");
    assert_eq!(report.minimized, None, "a schedule violates the property");
    assert_eq!(report.execs_pruned, 0);
    report
}

/// At most one contender wins the slot.
fn compete_ok(pool: &MachinePool<CompeteOp>) -> bool {
    pool.completed().filter(|(_, won)| **won).count() <= 1
}

/// `n` contenders (tokens `1..=n`) on one compete slot, plus its engine.
fn compete_pool(n: u64) -> (StepEngine, MachinePool<CompeteOp>) {
    let mut alloc = RegAlloc::new();
    let bank = SlotBank::new(&mut alloc, 1);
    let pool = (1..=n).map(|t| bank.begin_compete(0, t)).collect();
    (StepEngine::reusable(alloc.total()), pool)
}

#[test]
fn lemma1_exclusive_wins_every_interleaving_two_contenders() {
    let (mut engine, mut pool) = compete_pool(2);
    let report = explore_all(&mut engine, &mut pool, compete_ok);
    assert_eq!(report.executions, 116);
}

#[test]
fn lemma1_exclusive_wins_every_interleaving_three_contenders() {
    let (mut engine, mut pool) = compete_pool(3);
    let report = explore_all(&mut engine, &mut pool, compete_ok);
    assert_eq!(report.executions, 73_608);
}

/// A bank walk: compete for slot 0, then slot 1 if lost, and so on. The
/// machine form of the first-win loop every renaming algorithm runs.
struct SlotWalk {
    bank: SlotBank,
    token: u64,
    slot: usize,
    inner: CompeteOp,
}

impl SlotWalk {
    fn new(bank: &SlotBank, token: u64) -> Self {
        SlotWalk {
            bank: bank.clone(),
            token,
            slot: 0,
            inner: bank.begin_compete(0, token),
        }
    }
}

impl StepMachine for SlotWalk {
    type Output = Option<usize>;
    fn op(&self) -> ShmOp {
        self.inner.op()
    }
    fn advance(&mut self, input: &Word) -> Poll<Option<usize>> {
        match self.inner.advance(input) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(true) => Poll::Ready(Some(self.slot)),
            Poll::Ready(false) => {
                self.slot += 1;
                if self.slot < self.bank.len() {
                    self.inner = self.bank.begin_compete(self.slot, self.token);
                    Poll::Pending
                } else {
                    Poll::Ready(None)
                }
            }
        }
    }
    fn reset(&mut self, _pid: Pid) {
        self.slot = 0;
        self.inner = self.bank.begin_compete(0, self.token);
    }
}

#[test]
fn lemma1_walks_exclusive_every_interleaving_two_contenders_three_slots() {
    // Up to 15 ops per process, schedule-tree depth 26: every
    // interleaving must keep slot wins exclusive.
    let mut alloc = RegAlloc::new();
    let bank = SlotBank::new(&mut alloc, 3);
    let mut pool: MachinePool<SlotWalk> = (1..=2).map(|t| SlotWalk::new(&bank, t)).collect();
    let mut engine = StepEngine::reusable(alloc.total());
    let report = explore_all(&mut engine, &mut pool, |pool| {
        let wins: Vec<usize> = pool.completed().filter_map(|(_, won)| *won).collect();
        let set: BTreeSet<usize> = wins.iter().copied().collect();
        set.len() == wins.len()
    });
    assert_eq!(report.executions, 185_240);
}

#[test]
fn splitter_grid_exclusive_every_interleaving_k2() {
    // The grid program is 4–8 ops per process: a real tree, not a toy.
    let mut alloc = RegAlloc::new();
    let algo = MoirAnderson::new(&mut alloc, 2);
    let mut pool: MachinePool<_> = (0..2)
        .map(|p| {
            algo.begin_rename(Pid(p), p as u64 + 1)
                .map_output(Outcome::name as fn(Outcome) -> Option<u64>)
        })
        .collect();
    let mut engine = StepEngine::reusable(alloc.total());
    let report = explore_all(&mut engine, &mut pool, |pool| {
        // Within capacity both must stop, on distinct names in 1..=3.
        let names: Vec<Option<u64>> = pool.completed().map(|(_, name)| *name).collect();
        names.len() == 2 && names[0] != names[1] && names.iter().all(|m| matches!(m, Some(1..=3)))
    });
    assert_eq!(report.executions, 1_694);
}

/// One step of a snapshot test program.
#[derive(Clone, Copy)]
enum SnapStep {
    /// Update component `.0` to `.1`.
    Update(usize, u64),
    /// Scan, and report component `.0` of the view.
    Scan(usize),
}

/// A snapshot test program as a step machine: its steps run in order,
/// each as a fresh `UpdateOp` or `ScanOp` — the same operations the
/// blocking `update`/`scan` calls drive. Outputs the reported component
/// of the last scan (`None` for ⊥ or no scan).
struct SnapProgram {
    snap: Snapshot,
    steps: &'static [SnapStep],
    at: usize,
    op: SnapOp,
    reported: Option<u64>,
}

enum SnapOp {
    Update(UpdateOp),
    Scan(ScanOp),
}

impl SnapProgram {
    fn new(snap: &Snapshot, steps: &'static [SnapStep]) -> Self {
        SnapProgram {
            snap: snap.clone(),
            steps,
            at: 0,
            op: Self::begin(snap, steps[0]),
            reported: None,
        }
    }

    fn begin(snap: &Snapshot, step: SnapStep) -> SnapOp {
        match step {
            SnapStep::Update(slot, v) => SnapOp::Update(snap.begin_update(slot, Word::Int(v))),
            SnapStep::Scan(_) => SnapOp::Scan(snap.begin_scan()),
        }
    }
}

impl StepMachine for SnapProgram {
    type Output = Option<u64>;
    fn op(&self) -> ShmOp {
        match &self.op {
            SnapOp::Update(update) => update.op(),
            SnapOp::Scan(scan) => scan.op(),
        }
    }
    fn advance(&mut self, input: &Word) -> Poll<Option<u64>> {
        let done = match &mut self.op {
            SnapOp::Update(update) => matches!(update.advance(input), Poll::Ready(())),
            SnapOp::Scan(scan) => match (scan.advance(input), self.steps[self.at]) {
                (Poll::Ready(view), SnapStep::Scan(c)) => {
                    self.reported = view[c].as_int();
                    true
                }
                _ => false,
            },
        };
        if !done {
            return Poll::Pending;
        }
        self.at += 1;
        match self.steps.get(self.at) {
            Some(&step) => {
                self.op = Self::begin(&self.snap, step);
                Poll::Pending
            }
            None => Poll::Ready(self.reported),
        }
    }
    fn reset(&mut self, _pid: Pid) {
        self.at = 0;
        self.op = Self::begin(&self.snap, self.steps[0]);
        self.reported = None;
    }
}

/// Two snapshot programs on one 2-component snapshot, plus their engine.
fn snap_pool(
    p0: &'static [SnapStep],
    p1: &'static [SnapStep],
) -> (StepEngine, MachinePool<SnapProgram>) {
    let mut alloc = RegAlloc::new();
    let snap = Snapshot::new(&mut alloc, 2);
    let pool = [p0, p1]
        .into_iter()
        .map(|steps| SnapProgram::new(&snap, steps))
        .collect();
    (StepEngine::reusable(alloc.total()), pool)
}

#[test]
fn snapshot_self_inclusion_every_interleaving() {
    // p0 updates its component; p1 updates its component then scans: the
    // scan must include p1's own value, under every interleaving of the
    // two operations' register accesses.
    let (mut engine, mut pool) = snap_pool(
        &[SnapStep::Update(0, 10)],
        &[SnapStep::Update(1, 11), SnapStep::Scan(1)],
    );
    let report = explore_all(&mut engine, &mut pool, |pool| {
        matches!(pool.results()[1], Some(Ok(Some(11))))
    });
    assert_eq!(report.executions, 16_044);
}

#[test]
fn snapshot_validity_every_interleaving() {
    // p0 scans while p1 performs two updates: the scanned component is
    // one of ⊥ → 10 → 20 (never a torn or resurrected value), under
    // every interleaving.
    let (mut engine, mut pool) = snap_pool(
        &[SnapStep::Scan(1)],
        &[SnapStep::Update(1, 10), SnapStep::Update(1, 20)],
    );
    let report = explore_all(&mut engine, &mut pool, |pool| {
        matches!(pool.results()[0], Some(Ok(None | Some(10) | Some(20))))
    });
    assert_eq!(report.executions, 9_954);
}

// ---------------------------------------------------------------------
// Reduction differentials: sleep sets may drop interleavings but never
// terminal states or verdicts; the full symmetry stack must preserve
// pass/fail. The unreduced arm is `ReduceConfig::off`.
// ---------------------------------------------------------------------

/// The per-process results vector — the terminal-state signature the
/// sleep-set differential compares as a set.
fn result_signature<M: StepMachine>(pool: &MachinePool<M>) -> Vec<String>
where
    M::Output: std::fmt::Debug,
{
    pool.results().iter().map(|r| format!("{r:?}")).collect()
}

#[test]
fn oracle_flag_replays_the_unreduced_tree_across_families() {
    // The compete trees are pinned by the Lemma 1 tests above; these are
    // the other two families the reductions are checked against.

    // Store&collect setting (i), 2 contenders (the 3-proc unreduced tree
    // holds 17.15M executions — release-mode bench territory, see the
    // explore-reduced scenario).
    let mut alloc = RegAlloc::new();
    let sc = StoreCollect::known(
        &mut alloc,
        2,
        2,
        &exclusive_selection::RenameConfig::default(),
    );
    let mut pool: MachinePool<FirstStoreOp<'_>> = (0..2)
        .map(|p| sc.begin_first_store(Pid(p), p as u64 + 1, 7))
        .collect();
    let mut engine = StepEngine::reusable(alloc.total());
    let report = explore_all(&mut engine, &mut pool, |_| true);
    assert_eq!(report.executions, 924);

    // Deposit, 3 serve-only machines (fixed event counts — depositor
    // machines have schedule-dependent depth and an astronomically
    // large unreduced tree even at 2 processes).
    let mut alloc = RegAlloc::new();
    let repo = AltruisticDeposit::new(&mut alloc, 3, 6);
    let mut pool: MachinePool<_> = (0..3).map(|p| repo.begin_server(Pid(p), 2)).collect();
    let mut engine = StepEngine::reusable(alloc.total());
    let report = explore_all(&mut engine, &mut pool, |pool| {
        pool.results().iter().all(|r| matches!(r, Some(Ok(None))))
    });
    assert_eq!(report.executions, 90);
}

#[test]
fn sleep_sets_preserve_terminal_states_and_verdicts_across_families() {
    // Compete, 3 contenders: strictly fewer executions, identical
    // terminal-state set, identical verdict.
    let (mut engine, mut pool) = compete_pool(3);
    let mut oracle_sigs = BTreeSet::new();
    let oracle = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::off(u64::MAX),
        |pool| {
            oracle_sigs.insert(result_signature(pool));
            compete_ok(pool)
        },
    );
    let mut sleep_sigs = BTreeSet::new();
    let sleep = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::sleep_only(u64::MAX),
        |pool| {
            sleep_sigs.insert(result_signature(pool));
            compete_ok(pool)
        },
    );
    assert!(sleep.complete);
    assert!(
        sleep.executions * 5 <= oracle.executions,
        "sleep sets below the 5x floor: {} vs {}",
        sleep.executions,
        oracle.executions
    );
    assert_eq!(oracle_sigs, sleep_sigs, "sleep sets lost a terminal state");
    assert_eq!(oracle.minimized.is_some(), sleep.minimized.is_some());

    // Store&collect setting (i), 2 contenders.
    let mut alloc = RegAlloc::new();
    let sc = StoreCollect::known(
        &mut alloc,
        2,
        2,
        &exclusive_selection::RenameConfig::default(),
    );
    let mut pool: MachinePool<FirstStoreOp<'_>> = (0..2)
        .map(|p| sc.begin_first_store(Pid(p), p as u64 + 1, 7))
        .collect();
    let mut engine = StepEngine::reusable(alloc.total());
    let mut oracle_sigs = BTreeSet::new();
    explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::off(u64::MAX),
        |pool| {
            oracle_sigs.insert(result_signature(pool));
            true
        },
    );
    let mut sleep_sigs = BTreeSet::new();
    let sleep = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::sleep_only(u64::MAX),
        |pool| {
            sleep_sigs.insert(result_signature(pool));
            true
        },
    );
    assert!(sleep.complete);
    assert_eq!(oracle_sigs, sleep_sigs, "sleep sets lost a terminal state");

    // Deposit serve-only machines, 3 processes.
    let mut alloc = RegAlloc::new();
    let repo = AltruisticDeposit::new(&mut alloc, 3, 6);
    let mut pool: MachinePool<_> = (0..3).map(|p| repo.begin_server(Pid(p), 2)).collect();
    let mut engine = StepEngine::reusable(alloc.total());
    let oracle = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::off(u64::MAX),
        |pool| pool.results().iter().all(|r| matches!(r, Some(Ok(None)))),
    );
    let sleep = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::sleep_only(u64::MAX),
        |pool| pool.results().iter().all(|r| matches!(r, Some(Ok(None)))),
    );
    assert!(sleep.complete);
    assert!(sleep.executions <= oracle.executions);
    assert_eq!(oracle.minimized.is_some(), sleep.minimized.is_some());
}

#[test]
fn symmetry_stack_agrees_with_the_oracle_on_compete_verdicts() {
    // Passing checker: oracle and full stack both report no failure.
    let (mut engine, mut pool) = compete_pool(3);
    let tokens = vec![1u64, 2, 3];
    let oracle = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::off(u64::MAX),
        compete_ok,
    );
    let full = explore_pool_reduced(
        &mut engine,
        &mut pool,
        &ReduceConfig::full(&tokens, u64::MAX),
        compete_ok,
    );
    assert!(oracle.complete && full.complete);
    assert!(oracle.minimized.is_none() && full.minimized.is_none());
    assert!(full.states_canonical > 0);
    assert!(
        full.executions * 5 <= oracle.executions,
        "full stack below the 5x floor"
    );

    // Failing pid-symmetric checker ("nobody ever wins" — false): both
    // arms find a counterexample, and the minimized schedule replays to
    // the same failure.
    let nobody_wins =
        |pool: &MachinePool<CompeteOp>| pool.completed().filter(|(_, won)| **won).count() == 0;
    let oracle = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::off(u64::MAX),
        nobody_wins,
    );
    let full = explore_pool_reduced(
        &mut engine,
        &mut pool,
        &ReduceConfig::full(&tokens, u64::MAX),
        nobody_wins,
    );
    let schedule = full
        .minimized
        .clone()
        .expect("full stack found the failure");
    assert!(oracle.minimized.is_some(), "oracle missed the failure");
    replay_pool(&mut engine, &mut pool, &schedule);
    assert!(
        !nobody_wins(&pool),
        "minimized schedule no longer fails on replay"
    );
}

#[test]
fn shrinker_minimizes_a_seeded_known_bad_interleaving() {
    // Seeded known-bad checker: "contender 1's token never wins slot 0"
    // — false on schedules that let pid 0 through first. The minimized
    // schedule must (a) still fail on replay, (b) be a subsequence of
    // the raw failing schedule, (c) be deterministic across runs.
    let pid0_never_wins =
        |pool: &MachinePool<CompeteOp>| !matches!(pool.results()[0], Some(Ok(true)));
    let (mut engine, mut pool) = compete_pool(3);
    let raw = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig {
            shrink: false,
            ..ReduceConfig::sleep_only(u64::MAX)
        },
        pid0_never_wins,
    );
    let raw_schedule = raw.minimized.expect("raw failing schedule recorded");
    let first = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::sleep_only(u64::MAX),
        pid0_never_wins,
    );
    let second = explore_pool_sleep(
        &mut engine,
        &mut pool,
        &ReduceConfig::sleep_only(u64::MAX),
        pid0_never_wins,
    );
    let minimized = first.minimized.expect("shrinker produced a schedule");
    assert_eq!(
        Some(&minimized),
        second.minimized.as_ref(),
        "shrinker is nondeterministic"
    );
    assert!(minimized.len() <= raw_schedule.len());
    // Subsequence check: every minimized grant appears in the raw
    // schedule, in order.
    let mut rest = raw_schedule.as_slice();
    for pid in &minimized {
        let at = rest
            .iter()
            .position(|p| p == pid)
            .expect("minimized schedule is not a subsequence of the raw one");
        rest = &rest[at + 1..];
    }
    replay_pool(&mut engine, &mut pool, &minimized);
    assert!(
        !pid0_never_wins(&pool),
        "minimized schedule no longer fails on replay"
    );
}

/// Exhausts `algo` with three contenders over every 3-subset of original
/// names in `[1, n]` — sleep sets, crash-free, through the lower-bound
/// harness's exclusiveness audit — and asserts exclusive names on every
/// interleaving of every subset. Returns the summed executions, the
/// summed pruned branches, the deepest execution, and how many subsets
/// race at all (more than one trace class).
fn exhaust_every_triple(algo: &dyn StepRename, num_registers: usize, n: u64) -> [u64; 4] {
    let mut engine = StepEngine::reusable(num_registers);
    let mut totals = [0u64; 4];
    for a in 1..=n {
        for b in a + 1..=n {
            for c in b + 1..=n {
                let mut pool: MachinePool<_> = [a, b, c]
                    .iter()
                    .enumerate()
                    .map(|(p, &original)| {
                        algo.begin_rename(Pid(p), original)
                            .map_output(Outcome::name as fn(Outcome) -> Option<u64>)
                    })
                    .collect();
                let report =
                    exhaust_exclusiveness_pooled(&mut engine, &mut pool, num_registers, u64::MAX);
                assert!(report.complete, "originals {a}, {b}, {c}: walk truncated");
                assert_eq!(
                    report.minimized, None,
                    "originals {a}, {b}, {c}: two contenders got the same name"
                );
                totals[0] += report.executions;
                totals[1] += report.execs_pruned;
                totals[2] = totals[2].max(report.max_depth as u64);
                totals[3] += u64::from(report.executions > 1);
            }
        }
    }
    totals
}

#[test]
fn majority_exclusive_names_every_interleaving_k3_n8() {
    // Majority(3, 8) on the default expander: N = 8 is the smallest
    // name space where contenders race (6 of the 56 triples).
    let mut alloc = RegAlloc::new();
    let algo = Majority::new(&mut alloc, 8, 3, &RenameConfig::default());
    assert_eq!(
        exhaust_every_triple(&algo, alloc.total(), 8),
        [122, 30_860, 23, 6]
    );
}

#[test]
fn basic_rename_exclusive_names_every_interleaving_k3_n12() {
    // Below N = 12 no triple of originals meets in BasicRename's
    // stages, so every walk is a single trace class; N = 12 is the
    // smallest name space where contenders race (10 of 220 triples).
    let mut alloc = RegAlloc::new();
    let algo = BasicRename::new(&mut alloc, 12, 3, &RenameConfig::default());
    assert_eq!(
        exhaust_every_triple(&algo, alloc.total(), 12),
        [407, 101_066, 31, 10]
    );
}
