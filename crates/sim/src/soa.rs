//! Struct-of-arrays machine storage for mega-scale pooled trials.
//!
//! [`MachineBank`] is the engine-facing storage abstraction behind
//! [`crate::StepEngine::run_bank`]: pid-indexed machines exposing the
//! same peek/operand/advance protocol as [`exsel_shm::StepMachine`],
//! without committing to one-struct-per-machine layout. The engine's
//! slice of boxed or pooled machines is one implementation (an internal
//! adapter); [`MajoritySoa`] here is the other — the `Majority`
//! expander-walk family laid out **struct-of-arrays**: phase tags,
//! walk positions and slot numbers in parallel vectors instead of an
//! array of enum-bearing structs. At n ≈ 10⁶ this keeps the grant
//! loop's per-machine state in a handful of dense, prefetchable
//! vectors (5 + 8 + 4 + 4 + 1 bytes per process) instead of 64-byte
//! `MajorityOp` structs, and re-arming a trial is five `fill`-style
//! sweeps.
//!
//! `MajoritySoa` mirrors `MajorityOp`/`CompeteOp` **exactly** — same
//! phase progression (Figure 1's read HR / write HR / read R / write R
//! / verify-read HR), same lose-and-rearm walk — so a shards=1 trial
//! is bit-identical to the boxed and pooled paths (tested below).

use exsel_core::{Majority, Outcome};
use exsel_shm::{Crash, OpKind, Poll, RegId, RegisterBank, Word};

use crate::engine::StepEngine;
use crate::policy::Policy;

/// Pid-indexed machine storage drivable by
/// [`crate::StepEngine::run_bank`]: the per-machine protocol of
/// [`exsel_shm::StepMachine`] (pure peek, operand materialized once at
/// the grant, advance with the read word) addressed by process id, so
/// implementations are free to lay machine state out however the scale
/// demands.
pub trait MachineBank {
    /// Per-process output type.
    type Output;

    /// Number of processes; machine `i` is process `Pid(i)`.
    fn len(&self) -> usize;

    /// Whether the bank holds no machines.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Machine `pid`'s pending operation, without performing it. Pure:
    /// must return the same answer until the next `advance(pid, ..)`.
    fn peek(&self, pid: usize) -> (OpKind, RegId);

    /// Materializes the operand of machine `pid`'s pending **write** —
    /// called exactly once, at the grant.
    ///
    /// # Panics
    ///
    /// Implementations panic if `pid`'s pending operation is a read.
    fn write_operand(&mut self, pid: usize) -> Word;

    /// Performs machine `pid`'s pending operation: for a read, `input`
    /// is the register's word; for a write, [`Word::Null`] (the operand
    /// was already taken via [`MachineBank::write_operand`]).
    fn advance(&mut self, pid: usize, input: &Word) -> Poll<Self::Output>;
}

// Phase tags of the compete state machine (Figure 1), one byte each.
const READ_HR: u8 = 0;
const WRITE_HR: u8 = 1;
const READ_R: u8 = 2;
const WRITE_R: u8 = 3;
const VERIFY: u8 = 4;

/// The `Majority` expander-walk family as a struct-of-arrays machine
/// pool: one entry per contender across five parallel vectors, built
/// once and re-armed in place per trial ([`MajoritySoa::run`] — zero
/// steady-state allocations, like [`crate::MachinePool`]). Drive it
/// with any shard count; results and step counts land in the pool's
/// own buffers.
///
/// ```
/// use exsel_core::{Majority, RenameConfig};
/// use exsel_shm::RegAlloc;
/// use exsel_sim::policy::RoundRobin;
/// use exsel_sim::{MajoritySoa, StepEngine};
///
/// let mut alloc = RegAlloc::new();
/// let algo = Majority::new(&mut alloc, 64, 4, &RenameConfig::default());
/// let originals: Vec<u64> = (0..4).map(|i| i * 13 + 2).collect();
/// let mut pool = MajoritySoa::new(&algo, &originals);
/// let mut engine = StepEngine::reusable(alloc.total());
/// pool.run(&mut engine, &mut RoundRobin::new(), 1);
/// assert!(pool.results().iter().all(|r| r.is_some()));
/// ```
#[derive(Debug)]
pub struct MajoritySoa<'a> {
    state: SoaState<'a>,
    results: Vec<Option<Result<Outcome, Crash>>>,
    steps: Vec<u64>,
}

/// The parallel vectors themselves, split out so [`MajoritySoa::run`]
/// can lend the engine the machine state and the result buffers as
/// disjoint borrows.
#[derive(Debug)]
struct SoaState<'a> {
    algo: &'a Majority,
    /// Original name of each contender (the compete token).
    originals: Vec<u64>,
    /// Input node of each walk (`original − 1`).
    v: Vec<u32>,
    /// Position in the adjacency list.
    idx: Vec<u32>,
    /// Output node (slot) currently competed for.
    slot: Vec<u32>,
    /// Compete phase tag ([`READ_HR`]..[`VERIFY`]).
    phase: Vec<u8>,
}

impl<'a> MajoritySoa<'a> {
    /// Builds the pool over `algo` for the given contenders — the only
    /// allocation point; trials re-arm in place.
    ///
    /// # Panics
    ///
    /// Panics if any original name is outside `[1, algo.num_names()]`.
    #[must_use]
    pub fn new(algo: &'a Majority, originals: &[u64]) -> Self {
        let n = originals.len();
        let mut state = SoaState {
            algo,
            originals: originals.to_vec(),
            v: Vec::with_capacity(n),
            idx: vec![0; n],
            slot: Vec::with_capacity(n),
            phase: vec![READ_HR; n],
        };
        for &original in originals {
            let v = usize::try_from(original.checked_sub(1).expect("names are 1-based"))
                .expect("original name fits usize");
            assert!(
                v < algo.num_names(),
                "original name {original} outside [1, {}]",
                algo.num_names()
            );
            state.v.push(u32::try_from(v).expect("input node fits u32"));
            state.slot.push(algo.graph().neighbors(v)[0]);
        }
        MajoritySoa {
            state,
            results: vec![None; n],
            steps: vec![0; n],
        }
    }

    /// Number of contenders.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.originals.len()
    }

    /// Whether the pool holds no contenders.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.state.originals.is_empty()
    }

    /// Re-arms every walk to its first neighbour's slot, phase read-HR.
    fn begin_trial(&mut self) {
        let s = &mut self.state;
        for i in 0..s.originals.len() {
            s.idx[i] = 0;
            s.slot[i] = s.algo.graph().neighbors(s.v[i] as usize)[0];
            s.phase[i] = READ_HR;
        }
    }

    /// Runs one trial on `engine` under `policy` with `shards` register
    /// shards (1 = the standard grant loop), re-arming the pool first.
    /// Read the trial back via [`MajoritySoa::results`] and
    /// [`MajoritySoa::steps`].
    ///
    /// # Panics
    ///
    /// As [`StepEngine::run_bank`].
    pub fn run<B: RegisterBank>(
        &mut self,
        engine: &mut StepEngine<B>,
        policy: &mut dyn Policy,
        shards: usize,
    ) {
        self.begin_trial();
        engine.run_bank(
            policy,
            &mut self.state,
            &mut self.results,
            &mut self.steps,
            shards,
        );
    }

    /// Per-pid outcomes of the last trial (`None` only before any).
    #[must_use]
    pub fn results(&self) -> &[Option<Result<Outcome, Crash>>] {
        &self.results
    }

    /// Per-pid local step counts of the last trial.
    #[must_use]
    pub fn steps(&self) -> &[u64] {
        &self.steps
    }
}

impl SoaState<'_> {
    /// The HR/R register pair of `pid`'s current slot.
    fn regs(&self, pid: usize) -> (RegId, RegId) {
        let bank = self.algo.slots().registers();
        let slot = self.slot[pid] as usize;
        (bank.get(2 * slot), bank.get(2 * slot + 1))
    }

    /// Compete lost: advance the walk to the next neighbour, or fail
    /// out of names — `MajorityOp::advance`'s `Ready(false)` arm.
    fn lose(&mut self, pid: usize) -> Poll<Outcome> {
        self.idx[pid] += 1;
        let neighbors = self.algo.graph().neighbors(self.v[pid] as usize);
        match neighbors.get(self.idx[pid] as usize) {
            Some(&w) => {
                self.slot[pid] = w;
                self.phase[pid] = READ_HR;
                Poll::Pending
            }
            None => Poll::Ready(Outcome::Failed),
        }
    }
}

impl MachineBank for SoaState<'_> {
    type Output = Outcome;

    fn len(&self) -> usize {
        self.originals.len()
    }

    fn peek(&self, pid: usize) -> (OpKind, RegId) {
        let (hr, r) = self.regs(pid);
        match self.phase[pid] {
            READ_HR | VERIFY => (OpKind::Read, hr),
            WRITE_HR => (OpKind::Write, hr),
            READ_R => (OpKind::Read, r),
            WRITE_R => (OpKind::Write, r),
            p => unreachable!("corrupt phase tag {p}"),
        }
    }

    fn write_operand(&mut self, pid: usize) -> Word {
        match self.phase[pid] {
            WRITE_HR | WRITE_R => Word::Int(self.originals[pid]),
            _ => panic!("machine peek/op disagree on pending operation"),
        }
    }

    fn advance(&mut self, pid: usize, input: &Word) -> Poll<Outcome> {
        match self.phase[pid] {
            READ_HR => {
                if input.is_null() {
                    self.phase[pid] = WRITE_HR;
                    Poll::Pending
                } else {
                    self.lose(pid)
                }
            }
            WRITE_HR => {
                self.phase[pid] = READ_R;
                Poll::Pending
            }
            READ_R => {
                if input.is_null() {
                    self.phase[pid] = WRITE_R;
                    Poll::Pending
                } else {
                    self.lose(pid)
                }
            }
            WRITE_R => {
                self.phase[pid] = VERIFY;
                Poll::Pending
            }
            VERIFY => {
                if *input == Word::Int(self.originals[pid]) {
                    Poll::Ready(Outcome::Named(u64::from(self.slot[pid]) + 1))
                } else {
                    self.lose(pid)
                }
            }
            p => unreachable!("corrupt phase tag {p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CrashStorm, RandomPolicy, RoundRobin};
    use exsel_core::RenameConfig;
    use exsel_shm::{Pid, RegAlloc, SlabBank, StepMachine};
    use std::collections::BTreeSet;

    fn setup(k: usize) -> (RegAlloc, Majority, Vec<u64>) {
        let mut alloc = RegAlloc::new();
        let algo = Majority::new(&mut alloc, 128, k, &RenameConfig::default());
        let originals: Vec<u64> = (0..k as u64).map(|i| i * 13 + 2).collect();
        (alloc, algo, originals)
    }

    fn policies(seed: u64, k: usize) -> Vec<(&'static str, Box<dyn Policy>)> {
        vec![
            ("round-robin", Box::new(RoundRobin::new())),
            ("random", Box::new(RandomPolicy::new(seed))),
            (
                "crash-storm",
                Box::new(CrashStorm::new(
                    Box::new(RandomPolicy::new(seed)),
                    !seed,
                    0.05,
                    k - 1,
                )),
            ),
        ]
    }

    #[test]
    fn soa_is_bit_identical_to_boxed_majority_machines_unsharded() {
        let (alloc, algo, originals) = setup(6);
        let mut boxed_engine = StepEngine::reusable(alloc.total())
            .record_trace(true)
            .panic_on_budget(false);
        let mut soa_engine = StepEngine::reusable(alloc.total())
            .record_trace(true)
            .panic_on_budget(false);
        let mut pool = MajoritySoa::new(&algo, &originals);
        for seed in 0..4u64 {
            for (label, mut policy) in policies(seed, originals.len()) {
                let boxed = boxed_engine.run_trial(
                    policy.as_mut(),
                    originals
                        .iter()
                        .map(|&orig| {
                            Box::new(algo.begin_walk(orig))
                                as Box<dyn StepMachine<Output = Outcome>>
                        })
                        .collect(),
                );
                let (_, mut policy) = policies(seed, originals.len())
                    .into_iter()
                    .find(|(l, _)| *l == label)
                    .unwrap();
                pool.run(&mut soa_engine, policy.as_mut(), 1);

                let tag = format!("{label} × seed {seed}");
                assert_eq!(boxed.trace.as_deref(), soa_engine.trace(), "{tag}: trace");
                assert_eq!(boxed.steps, pool.steps(), "{tag}: steps");
                let soa_results: Vec<Result<Outcome, Crash>> = pool
                    .results()
                    .iter()
                    .map(|r| (*r).expect("result recorded"))
                    .collect();
                assert_eq!(boxed.results, soa_results, "{tag}: results");
            }
        }
    }

    #[test]
    fn sharded_soa_names_are_exclusive_on_both_banks() {
        // Sharding is a different (legal) adversary, so only the
        // algorithm's guarantees are asserted — exclusive names, at
        // least half named — plus slab/Arc agreement on the outcome.
        let (alloc, algo, originals) = setup(8);
        let mut arc_engine = StepEngine::reusable(alloc.total());
        let mut slab_engine = StepEngine::reusable_with(alloc.total(), SlabBank::new());
        for shards in [2usize, 3, 8] {
            let mut pool = MajoritySoa::new(&algo, &originals);
            pool.run(&mut arc_engine, &mut RoundRobin::new(), shards);
            let arc_results: Vec<_> = pool.results().to_vec();
            let names: Vec<u64> = arc_results
                .iter()
                .filter_map(|r| r.as_ref().unwrap().as_ref().ok().and_then(|o| o.name()))
                .collect();
            let set: BTreeSet<u64> = names.iter().copied().collect();
            assert_eq!(set.len(), names.len(), "shards={shards}: duplicate names");
            assert!(
                names.len() * 2 >= originals.len(),
                "shards={shards}: fewer than half named"
            );

            pool.run(&mut slab_engine, &mut RoundRobin::new(), shards);
            assert_eq!(
                arc_results,
                pool.results(),
                "shards={shards}: slab bank diverged from Arc bank"
            );
            let shard_ops = &slab_engine.metrics().shard_ops;
            assert_eq!(shard_ops.len(), shards, "shards={shards}: shard_ops width");
            assert_eq!(
                shard_ops.iter().sum::<u64>(),
                slab_engine.metrics().total_ops,
                "shards={shards}: shard_ops must partition total_ops"
            );
        }
    }

    #[test]
    fn one_shard_run_bank_equals_run_pool_semantics() {
        // shards == 1 routes through the standard incremental loop, so
        // the sharded entry point with one shard is the plain trial.
        let (alloc, algo, originals) = setup(5);
        let mut engine = StepEngine::reusable(alloc.total()).record_trace(true);
        let mut pool = MajoritySoa::new(&algo, &originals);
        pool.run(&mut engine, &mut RandomPolicy::new(7), 1);
        let first_trace: Vec<_> = engine.trace().unwrap().to_vec();
        let first_results = pool.results().to_vec();
        // Re-running re-arms in place and reproduces the trial exactly.
        pool.run(&mut engine, &mut RandomPolicy::new(7), 1);
        assert_eq!(engine.trace().unwrap(), first_trace);
        assert_eq!(pool.results(), first_results);
        assert!(engine.metrics().shard_ops.is_empty());
        let _ = Pid(0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_out_of_range_original() {
        let (_, algo, _) = setup(2);
        let _ = MajoritySoa::new(&algo, &[129]);
    }
}
