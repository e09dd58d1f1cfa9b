//! The `engine_sweep` workload: majority renaming (Lemma 4) of 10⁶
//! contenders over 2²¹ names on the default reusable `StepEngine` +
//! `MachinePool<MajorityOp>` + `run_pool_sharded` path, 64 shards,
//! seeded `RandomPolicy`. No service layer: grant loop, pending sets,
//! policy and register bank at 10⁶ processes.
//!
//! The traced run adds the layer-swap rows: the last measured trial is
//! replayed with the struct-of-arrays `MajoritySoa` in place of the
//! pool, and on a `SlabBank` in place of the Arc bank. Each arm must
//! reproduce the pool's results exactly; the rows are time ratios.

use std::time::Instant;

use exsel_core::{Majority, MajorityOp, Outcome, RenameConfig};
use exsel_shm::{Crash, RegAlloc, SlabBank};
use exsel_sim::policy::RandomPolicy;
use exsel_sim::{MachinePool, MajoritySoa, StepEngine};

use crate::trace::{median, rss_mb, Put, Tracer};
use crate::{Args, Report};

const CONTENDERS: usize = 1_000_000;
const NAMES: usize = 1 << 21;
const SHARDS: usize = 64;
/// Rounds of the traced run's layer-swap comparison.
const SWAP_ROUNDS: usize = 2;
/// Wall seconds per trial the measured segment is sized at.
const NOMINAL_TRIAL_S: f64 = 2.0;

type Results = [Option<Result<Outcome, Crash>>];

/// Original names spread evenly over `[1, NAMES]`.
fn originals() -> Vec<u64> {
    (0..CONTENDERS)
        .map(|i| (i * NAMES / CONTENDERS) as u64 + 1)
        .collect()
}

/// Policy seed of trial `i` (trial 0 is the warm-up).
fn trial_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i
}

/// Audits one trial's results: every walk finished, at least half the
/// contenders named, claimed names pairwise distinct. Returns the named
/// count, the unfinished count and any findings.
fn audit(results: &Results) -> (u64, u64, Vec<String>) {
    let mut names: Vec<u64> = Vec::with_capacity(results.len());
    let mut unfinished = 0u64;
    for r in results {
        match r {
            Some(Ok(out)) => names.extend(out.name()),
            _ => unfinished += 1,
        }
    }
    let named = names.len() as u64;
    let mut findings = Vec::new();
    if unfinished > 0 {
        findings.push(format!("{unfinished} walks crashed or never finished"));
    }
    if named * 2 < CONTENDERS as u64 {
        findings.push(format!("only {named} of {CONTENDERS} contenders named"));
    }
    names.sort_unstable();
    if names.windows(2).any(|w| w[0] == w[1]) {
        findings.push("two contenders claimed the same name".into());
    }
    (named, unfinished, findings)
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let trials = ((args.seconds / NOMINAL_TRIAL_S).round() as u64).max(2);
    let mut r = Report::default();

    let start = Instant::now();
    let rss0 = rss_mb();
    let ((algo, regs), world_s) = tracer.span("shm.world_build", 0, || {
        let mut alloc = RegAlloc::new();
        let algo = Majority::new(&mut alloc, NAMES, CONTENDERS, &RenameConfig::default());
        (algo, alloc.total())
    });
    let rss_world = rss_mb();
    let originals = originals();
    let ((mut engine, mut pool), harness_s) = tracer.span("sim.harness_build", 0, || {
        let pool: MachinePool<MajorityOp> = originals.iter().map(|&o| algo.begin_walk(o)).collect();
        (StepEngine::reusable(regs), pool)
    });
    let ((), warm_s) = tracer.span("sim.warmup", 0, || {
        let mut policy = RandomPolicy::new(trial_seed(args.seed, 0));
        engine.run_pool_sharded(&mut policy, &mut pool, SHARDS);
    });
    r.setup_s = start.elapsed().as_secs_f64();
    let rss_setup = rss_mb();
    r.setup_det
        .int("registers", regs as u64)
        .int("warm_ops", engine.metrics().total_ops);
    if args.setup_only {
        return Ok(r);
    }

    let mut times = Vec::with_capacity(trials as usize);
    let mut total_ops = 0u64;
    let mut named_total = 0u64;
    let mut max_local = 0u64;
    let measure = tracer.open("measure");
    for i in 1..=trials {
        let mut policy = RandomPolicy::new(trial_seed(args.seed, i));
        let ((), secs) = tracer.chunk(i, "sim.engine.trial", |_| {
            engine.run_pool_sharded(&mut policy, &mut pool, SHARDS);
            ((), engine.metrics().total_ops)
        });
        times.push(secs);
        total_ops += engine.metrics().total_ops;
        let ((named, unfinished, findings), _) =
            tracer.span("bench.audit", 0, || audit(pool.results()));
        r.audit.extend(findings);
        r.failed += unfinished;
        named_total += named;
        let local = pool.steps().iter().copied().max().unwrap_or(0);
        max_local = max_local.max(local);
        r.det
            .int(&format!("trial{i}_ops"), engine.metrics().total_ops)
            .int(&format!("trial{i}_named"), named)
            .int(&format!("trial{i}_max_local_steps"), local);
    }
    tracer.close(measure, trials);
    r.units = trials;
    r.measure_s = times.iter().sum();
    r.attempted = trials * CONTENDERS as u64;

    r.served_share = named_total as f64 / r.attempted as f64;
    let med = median(&times);
    let spread = (times.iter().copied().fold(f64::MIN, f64::max)
        - times.iter().copied().fold(f64::MAX, f64::min))
        / med;
    r.layer
        .num("shm.world_build_s", world_s)
        .num("shm.world_rss_mb", rss_world - rss0)
        .num("sim.harness_build_s", harness_s)
        .num("sim.harness_rss_mb", rss_setup - rss_world)
        .num("sim.warmup_s", warm_s)
        .num("sim.engine.trial_s", med)
        .num("sim.engine.trial_s_spread", spread)
        .num("sim.engine.ns_per_op", r.measure_s * 1e9 / total_ops as f64)
        .num("sim.engine.ops_per_trial", total_ops as f64 / trials as f64)
        .num("ops_per_s", total_ops as f64 / r.measure_s)
        .num("core.majority.named_share", r.served_share)
        .num("core.majority.max_local_steps", max_local as f64)
        .num(
            "sim.engine.bytes_per_contender",
            (rss_setup - rss0) * f64::from(1 << 20) / CONTENDERS as f64,
        );

    if tracer.on() {
        r.layer.num("trace_overhead", tracer.overhead());

        // Layer swaps: the last trial's seed replayed on the pool + Arc
        // bank, on the SoA pool and on the slab bank, in adjacent rounds
        // so that every arm sees the same machine. Each swapped
        // structure runs one warm-up trial first.
        let last = trial_seed(args.seed, trials);
        let expect = pool.results().to_vec();
        let expect_steps = pool.steps().to_vec();
        let warm = trial_seed(args.seed, 0);
        let (mut soa, _) = tracer.span("sim.soa.build", 0, || MajoritySoa::new(&algo, &originals));
        tracer.span("sim.soa.warmup", 0, || {
            soa.run(&mut engine, &mut RandomPolicy::new(warm), SHARDS);
        });
        let (mut slab, _) = tracer.span("shm.bank.slab_build", 0, || {
            StepEngine::reusable_with(regs, SlabBank::new())
        });
        tracer.span("shm.bank.slab_warmup", 0, || {
            slab.run_pool_sharded(&mut RandomPolicy::new(warm), &mut pool, SHARDS);
        });
        let mut arm_s = [0.0f64; 3];
        for _ in 0..SWAP_ROUNDS {
            arm_s[0] += tracer
                .span("sim.pool.trial", CONTENDERS as u64, || {
                    engine.run_pool_sharded(&mut RandomPolicy::new(last), &mut pool, SHARDS);
                })
                .1;
            arm_s[1] += tracer
                .span("sim.soa.trial", CONTENDERS as u64, || {
                    soa.run(&mut engine, &mut RandomPolicy::new(last), SHARDS);
                })
                .1;
            if soa.results() != expect.as_slice() || soa.steps() != expect_steps.as_slice() {
                r.audit.push("MajoritySoa diverged from MachinePool".into());
            }
            arm_s[2] += tracer
                .span("shm.bank.slab_trial", CONTENDERS as u64, || {
                    slab.run_pool_sharded(&mut RandomPolicy::new(last), &mut pool, SHARDS);
                })
                .1;
            if pool.results() != expect.as_slice() || pool.steps() != expect_steps.as_slice() {
                r.audit.push("SlabBank diverged from ArcBank".into());
            }
        }
        r.layer
            .num("sim.soa.soa_over_pool", arm_s[1] / arm_s[0])
            .num("shm.bank.slab_over_arc", arm_s[2] / arm_s[0]);
    }
    Ok(r)
}
