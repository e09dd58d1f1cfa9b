//! The `explore` workload. One "tree" is a fixed set of exhaustive
//! explorations, each audited against its frozen counts:
//!
//! * `compete3_off` — Compete-For-Register, 3 contenders, every
//!   reduction off (the replay enumerator): 73,608 executions;
//! * `compete4_full` — 4 contenders, sleep sets + visited states +
//!   pid symmetry: 14 explored, 989 pruned, 458 canonical states;
//! * `store4_sleep` — store&collect with known contention, 4 first
//!   stores, sleep sets only: 1 explored, 5,832 pruned.
//!
//! The instances carry no randomness, so the seed only labels the run.
//! Throughput is trees per second, not executions per second: better
//! pruning lowers executions per second.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::time::Instant;

use exsel_core::{CompeteOp, RenameConfig, SlotBank};
use exsel_shm::{ArcBank, Pid, RegAlloc};
use exsel_sim::{
    explore_pool_reduced, explore_pool_sleep, ExploreReport, MachinePool, ReduceConfig, StepEngine,
};
use exsel_storecollect::{FirstStoreOp, StoreCollect};

use crate::trace::{median, Put, Tracer};
use crate::{Args, Report};

/// Wall seconds per tree the measured segment is sized at.
const NOMINAL_TREE_S: f64 = 0.08;
const UNBOUNDED: u64 = u64::MAX;

/// Frozen `(executions, pruned, canonical states)` per instance.
const INSTANCES: [(&str, [u64; 3]); 3] = [
    ("compete3_off", [73_608, 0, 0]),
    ("compete4_full", [14, 989, 458]),
    ("store4_sleep", [1, 5_832, 0]),
];

/// At most one contender may win the compete slot.
fn compete_ok(pool: &MachinePool<CompeteOp>) -> bool {
    pool.completed().filter(|(_, won)| **won).count() <= 1
}

/// Claimed value registers must be pairwise distinct.
fn store_ok(pool: &MachinePool<FirstStoreOp<'_>>) -> bool {
    let regs: Vec<_> = pool
        .completed()
        .filter_map(|(_, r)| r.as_ref().ok().copied())
        .collect();
    let uniq: BTreeSet<_> = regs.iter().copied().collect();
    uniq.len() == regs.len()
}

struct Compete {
    engine: StepEngine<ArcBank>,
    pool: MachinePool<CompeteOp>,
    tokens: Vec<u64>,
}

/// A one-slot compete world: the bank and its register count.
fn compete_world() -> (SlotBank, usize) {
    let mut alloc = RegAlloc::new();
    let bank = SlotBank::new(&mut alloc, 1);
    (bank, alloc.total())
}

/// The three instances, built once and re-explored every tree.
struct Tree<'a> {
    c3: Compete,
    c4: Compete,
    store_engine: StepEngine<ArcBank>,
    store_pool: MachinePool<FirstStoreOp<'a>>,
    /// Executions whose check failed, across every exploration.
    failures: Cell<u64>,
}

impl Tree<'_> {
    /// Explores instance `i`.
    fn explore(&mut self, i: usize) -> ExploreReport {
        let failures = &self.failures;
        let counted = |ok: bool| {
            failures.set(failures.get() + u64::from(!ok));
            ok
        };
        match i {
            0 => explore_pool_sleep(
                &mut self.c3.engine,
                &mut self.c3.pool,
                &ReduceConfig::off(UNBOUNDED),
                |p| counted(compete_ok(p)),
            ),
            1 => explore_pool_reduced(
                &mut self.c4.engine,
                &mut self.c4.pool,
                &ReduceConfig::full(&self.c4.tokens, UNBOUNDED),
                |p| counted(compete_ok(p)),
            ),
            _ => explore_pool_sleep(
                &mut self.store_engine,
                &mut self.store_pool,
                &ReduceConfig::sleep_only(UNBOUNDED),
                |p| counted(store_ok(p)),
            ),
        }
    }
}

/// Audits one exploration against its frozen counts.
fn audit(i: usize, rep: &ExploreReport) -> Option<String> {
    let (name, [execs, pruned, states]) = INSTANCES[i];
    let got = [rep.executions, rep.execs_pruned, rep.states_canonical];
    (!rep.complete || rep.minimized.is_some() || got != [execs, pruned, states]).then(|| {
        format!(
            "{name}: complete={} counterexample={} counts {got:?}, frozen {:?}",
            rep.complete,
            rep.minimized.is_some(),
            [execs, pruned, states]
        )
    })
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let trees = ((args.seconds / NOMINAL_TREE_S).round() as u64).max(2);
    let mut r = Report::default();

    let start = Instant::now();
    let ((c3, c4, sc, store_regs), world_s) = tracer.span("shm.world_build", 0, || {
        let mut alloc = RegAlloc::new();
        let sc = StoreCollect::known(&mut alloc, 4, 4, &RenameConfig::default());
        (compete_world(), compete_world(), sc, alloc.total())
    });
    let (mut tree, harness_s) = tracer.span("sim.harness_build", 0, || {
        let pool_of = |(bank, regs): &(SlotBank, usize), procs: u64| Compete {
            engine: StepEngine::reusable(*regs),
            pool: (1..=procs).map(|t| bank.begin_compete(0, t)).collect(),
            tokens: (1..=procs).collect(),
        };
        Tree {
            c3: pool_of(&c3, 3),
            c4: pool_of(&c4, 4),
            store_engine: StepEngine::reusable(store_regs),
            store_pool: (0..4)
                .map(|p| sc.begin_first_store(Pid(p), p as u64 + 1, 7))
                .collect(),
            failures: Cell::new(0),
        }
    });
    let (warm, warm_s) = tracer.span("sim.warmup", 0, || {
        (0..INSTANCES.len())
            .map(|i| tree.explore(i).executions)
            .sum::<u64>()
    });
    r.setup_s = start.elapsed().as_secs_f64();
    r.setup_det.int("warm_executions", warm);
    if args.setup_only {
        return Ok(r);
    }

    let mut reports: Vec<ExploreReport> = Vec::new();
    let mut execs = 0u64;
    let measure = tracer.open("measure");
    for t in 0..trees {
        let (done, secs) = tracer.chunk(t, "sim.explore.tree", |tr| {
            let reports = (0..INSTANCES.len())
                .map(|i| tr.span(INSTANCES[i].0, 0, || tree.explore(i)).0)
                .collect::<Vec<_>>();
            (reports, 1)
        });
        reports = done;
        r.measure_s += secs;
        for (i, rep) in reports.iter().enumerate() {
            execs += rep.executions;
            r.audit.extend(audit(i, rep));
        }
    }
    tracer.close(measure, trees);
    r.units = trees;
    r.attempted = execs;
    r.failed = tree.failures.get();
    if r.failed > 0 {
        r.audit
            .push(format!("{} executions failed their check", r.failed));
    }
    for (i, rep) in reports.iter().enumerate() {
        let name = INSTANCES[i].0;
        r.det
            .int(&format!("{name}.execs"), rep.executions)
            .int(&format!("{name}.pruned"), rep.execs_pruned)
            .int(&format!("{name}.states"), rep.states_canonical)
            .int(&format!("{name}.max_depth"), rep.max_depth as u64);
    }

    r.served_share = (execs - r.failed.min(execs)) as f64 / execs.max(1) as f64;
    r.layer
        .num("shm.world_build_s", world_s)
        .num("sim.harness_build_s", harness_s)
        .num("sim.warmup_s", warm_s)
        .num("trees_per_s", trees as f64 / r.measure_s)
        .num("sim.reduce.ns_per_exec", r.measure_s * 1e9 / execs as f64);
    for (i, rep) in reports.iter().enumerate() {
        let name = INSTANCES[i].0;
        r.layer
            .num(&format!("sim.reduce.{name}.execs"), rep.executions as f64)
            .num(
                &format!("sim.reduce.{name}.pruned"),
                rep.execs_pruned as f64,
            )
            .num(
                &format!("sim.reduce.{name}.states"),
                rep.states_canonical as f64,
            );
    }
    if tracer.on() {
        r.layer.num("trace_overhead", tracer.overhead()).num(
            "sim.reduce.tree_ms_p50",
            median(&tracer.durations_ms("sim.explore.tree")),
        );
        for (name, _) in INSTANCES {
            let ms = median(&tracer.durations_ms(name));
            r.layer.num(&format!("sim.reduce.{name}.ms"), ms);
        }
    }
    Ok(r)
}
