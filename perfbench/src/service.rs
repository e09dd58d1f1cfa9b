//! The three service workloads. Each goes through
//! `MegaServiceHarness::new` (slab banks), primed; with one shard that
//! harness is bit-identical to the unsharded `ServiceHarness`, so all
//! three share this loop and one register bank.
//!
//! Every workload pins its deposit arena: `ServiceConfig::arena()`
//! would otherwise size it from the session target, and the world (and
//! its speed) would change with run length.

use std::time::Instant;

use exsel_sim::{
    Admission, Arrivals, MegaServiceConfig, MegaServiceHarness, MegaServiceReport,
    MegaServiceWorld, ServiceConfig,
};

use crate::trace::{median, quantile, rss_mb, Put, Tracer};
use crate::{Args, Report};

/// One service workload: the fleet configuration plus how the
/// benchmark drives it.
struct Spec {
    cfg: MegaServiceConfig,
    /// Sessions completed before measuring starts (part of set-up).
    warm: u64,
    /// Sessions per wall second the measured segment is sized at.
    nominal_per_s: f64,
    /// Sessions per `run_until` chunk.
    chunk: u64,
}

/// Admission of the crashless workloads: up to 8 in flight, a queue of
/// 16, backoff 256..32768 steps, 10 retries, 512 backing off.
const CALM: Admission = Admission {
    max_inflight: 8,
    queue_capacity: 16,
    backoff_base: 256,
    backoff_cap: 1 << 15,
    max_retries: 10,
    waiting_capacity: 512,
};

/// Steps between arrivals at one shard on the crashless workloads
/// (ρ ≈ 0.84 for an 8-slot shard).
const STEADY_GAP: f64 = 2800.0;

/// Deposit-arena registers per shard of the single-shard workloads; a
/// run is refused if its sessions could outgrow it.
pub const SHARD_ARENA: usize = 1 << 20;

/// Deposit-arena registers per shard of the 1250-shard fleet.
pub const FLEET_ARENA: usize = 1 << 13;

fn base(seed: u64) -> ServiceConfig {
    ServiceConfig {
        seed,
        slots: 8,
        window: 1 << 24,
        arrivals: Arrivals::Poisson {
            mean_gap: STEADY_GAP,
        },
        crash_hazard: 0.0,
        admission: CALM,
        arena_capacity: SHARD_ARENA,
        record_names: true,
        ..ServiceConfig::default()
    }
}

fn spec(name: &str, seed: u64) -> Spec {
    match name {
        "service_steady" => Spec {
            cfg: MegaServiceConfig {
                base: base(seed),
                shards: 1,
            },
            warm: 10_000,
            nominal_per_s: 13_000.0,
            chunk: 250,
        },
        "service_storm" => Spec {
            cfg: MegaServiceConfig {
                base: ServiceConfig {
                    window: 1 << 20,
                    arrivals: Arrivals::Bursty {
                        mean_gap: 700.0,
                        burst: 1 << 15,
                        lull: 1 << 14,
                    },
                    crash_hazard: 0.002,
                    admission: Admission {
                        max_inflight: 8,
                        queue_capacity: 8,
                        backoff_base: 256,
                        backoff_cap: 1 << 14,
                        max_retries: 6,
                        waiting_capacity: 64,
                    },
                    ..base(seed)
                },
                shards: 1,
            },
            warm: 4_000,
            nominal_per_s: 4_400.0,
            chunk: 250,
        },
        // "fleet"
        _ => {
            let shards = 1250;
            Spec {
                cfg: MegaServiceConfig {
                    base: ServiceConfig {
                        window: 1 << 16,
                        arrivals: Arrivals::Poisson {
                            mean_gap: STEADY_GAP / shards as f64,
                        },
                        arena_capacity: FLEET_ARENA,
                        ..base(seed)
                    },
                    shards,
                },
                warm: 10_000,
                nominal_per_s: 10_000.0,
                chunk: 250,
            }
        }
    }
}

/// Histogram order of `ServiceReport::cumulative`.
const ACQUIRE: usize = 0;
const STORE: usize = 1;
const COLLECT: usize = 2;
const DEPOSIT: usize = 3;
const SESSION: usize = 4;
const SOJOURN: usize = 5;

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let mut spec = spec(&args.workload, args.seed);
    let chunks = ((spec.nominal_per_s * args.seconds / spec.chunk as f64).round() as u64).max(2);
    let total = spec.warm + chunks * spec.chunk;
    spec.cfg.base.target_sessions = total;
    let slots = spec.cfg.base.slots;
    let per_shard = total.div_ceil(spec.cfg.shards as u64) as usize;
    if 2 * per_shard + 4 * slots * slots + 256 > spec.cfg.base.arena_capacity {
        return Err(format!(
            "{total} sessions outgrow the pinned deposit arena of {} registers per shard; \
             lower --seconds",
            spec.cfg.base.arena_capacity
        ));
    }
    let cfg = spec.cfg;
    let mut r = Report::default();

    let start = Instant::now();
    let rss0 = rss_mb();
    let (world, world_s) = tracer.span("shm.world_build", 0, || MegaServiceWorld::new(&cfg));
    let rss_world = rss_mb();
    let (mut harness, harness_s) = tracer.span("sim.harness_build", 0, || {
        MegaServiceHarness::new(&world, &cfg)
    });
    let ((), prime_s) = tracer.span("sim.prime", 0, || harness.prime());
    let (warmed, warm_s) = tracer.span("sim.warmup", spec.warm, || harness.run_until(spec.warm));
    r.setup_s = start.elapsed().as_secs_f64();
    let rss_setup = rss_mb();
    if !warmed {
        return Err("service drained during warm-up".into());
    }
    r.setup_det
        .int("registers", world.num_registers() as u64)
        .int("warm_ops", harness.ops())
        .int("warm_completed", harness.completed());
    if args.setup_only {
        return Ok(r);
    }

    let ops_before = harness.ops();
    let mut done = spec.warm;
    let measure = tracer.open("measure");
    let t0 = Instant::now();
    let mut ok = true;
    for i in 0..chunks {
        done += spec.chunk;
        let ops = harness.ops();
        ok &= tracer
            .chunk(i, "sim.run_until", |_| {
                let more = harness.run_until(done);
                (more, harness.ops() - ops)
            })
            .0;
    }
    r.measure_s = t0.elapsed().as_secs_f64();
    tracer.close(measure, chunks * spec.chunk);
    let measured_ops = harness.ops() - ops_before;
    r.units = chunks * spec.chunk;
    if !ok {
        r.audit
            .push(format!("service drained before {total} sessions"));
    }

    let (mega, _) = tracer.span("sim.finish", 0, || harness.finish());
    let (findings, _) = tracer.span("bench.audit", 0, || audit(&mega));
    r.audit.extend(findings);
    let rep = &mega.report;
    let t = rep.totals;
    // A cleanly rejected client is admission control's designed answer
    // to overload, counted in the served share; a failed client is one
    // the books lost (neither completed, rejected nor still queued).
    r.attempted = t.arrivals;
    r.failed = t.arrivals - (t.completed + t.rejected + rep.in_system).min(t.arrivals);
    r.served_share = t.completed as f64 / (t.completed + t.rejected).max(1) as f64;

    let h = &rep.cumulative;
    let queue_depth_max = rep.windows.iter().map(|w| w.queued).max().unwrap_or(0);
    r.det
        .int("completed", t.completed)
        .int("arrivals", t.arrivals)
        .int("admitted", t.admitted)
        .int("crashes", t.crashes)
        .int("reentries", t.reentries)
        .int("retries", t.retries)
        .int("shed", t.shed)
        .int("rejected", t.rejected)
        .int("ops", t.ops)
        .int("measured_ops", measured_ops)
        .int("steps", t.steps)
        .int("in_system", rep.in_system)
        .int("windows", rep.windows.len() as u64)
        .int("queue_depth_max", queue_depth_max);
    for (i, fam) in [
        "acquire", "store", "collect", "deposit", "session", "sojourn",
    ]
    .iter()
    .enumerate()
    {
        for (num, den, tag) in [(1, 2, "p50"), (99, 100, "p99"), (999, 1000, "p999")] {
            r.det
                .int(&format!("{fam}_{tag}_steps"), h[i].quantile(num, den));
        }
    }

    let sessions = r.units as f64;
    let ns_per_op = r.measure_s * 1e9 / measured_ops.max(1) as f64;
    r.layer
        .num("shm.world_build_s", world_s)
        .num("shm.world_rss_mb", rss_world - rss0)
        .num("sim.harness_build_s", harness_s)
        .num("sim.harness_rss_mb", rss_setup - rss_world)
        .num("sim.prime_s", prime_s)
        .num("sim.warmup_s", warm_s)
        .num("sim.service.ns_per_op", ns_per_op)
        .num(
            "sim.service.ops_per_session",
            measured_ops as f64 / sessions,
        )
        .num("sessions_per_s", sessions / r.measure_s)
        .num("ops_per_s", measured_ops as f64 / r.measure_s)
        .num("session_p50_steps", h[SESSION].quantile(1, 2) as f64)
        .num("session_p99_steps", h[SESSION].quantile(99, 100) as f64)
        .num("session_p999_steps", h[SESSION].quantile(999, 1000) as f64)
        .num("sojourn_p99_steps", h[SOJOURN].quantile(99, 100) as f64)
        .num(
            "rejected_share",
            t.rejected as f64 / t.arrivals.max(1) as f64,
        )
        .num(
            "unbounded.naming.acquire_p50_steps",
            h[ACQUIRE].quantile(1, 2) as f64,
        )
        .num(
            "unbounded.naming.acquire_p99_steps",
            h[ACQUIRE].quantile(99, 100) as f64,
        )
        .num(
            "storecollect.store_p99_steps",
            h[STORE].quantile(99, 100) as f64,
        )
        .num(
            "storecollect.collect_p99_steps",
            h[COLLECT].quantile(99, 100) as f64,
        )
        .num(
            "unbounded.deposit.deposit_p50_steps",
            h[DEPOSIT].quantile(1, 2) as f64,
        )
        .num(
            "unbounded.deposit.deposit_p99_steps",
            h[DEPOSIT].quantile(99, 100) as f64,
        )
        .num("sim.service.admission.shed", t.shed as f64)
        .num("sim.service.admission.retries", t.retries as f64)
        .num("sim.service.admission.rejected", t.rejected as f64)
        .num("sim.service.admission.crashes", t.crashes as f64)
        .num("sim.service.admission.reentries", t.reentries as f64)
        .num(
            "sim.service.admission.goodput",
            t.completed as f64 / t.admitted.max(1) as f64,
        )
        .num("sim.service.queue_depth_max", queue_depth_max as f64);
    if cfg.shards > 1 {
        // Ops per global clock tick over the whole run; the tick cost
        // assumes the measured segment ticks at that same rate.
        let grants_per_tick = t.ops as f64 / t.steps.max(1) as f64;
        r.layer
            .num("sim.service.mega.grants_per_tick", grants_per_tick)
            .num("sim.service.mega.ns_per_tick", ns_per_op * grants_per_tick)
            .num(
                "sim.service.mega.bytes_per_slot",
                (rss_setup - rss0) * f64::from(1 << 20) / cfg.total_slots() as f64,
            );
    }
    if tracer.on() {
        let chunk_ms = tracer.durations_ms("sim.run_until");
        r.layer
            .num("sim.service.chunk_ms_p50", median(&chunk_ms))
            .num("sim.service.chunk_ms_p90", quantile(&chunk_ms, 0.9))
            .num("sim.service.chunks", chunk_ms.len() as f64)
            .num("trace_overhead", tracer.overhead());
        if cfg.shards > 1 {
            drop(mega);
            drop(world);
            let steady_ns = reference_ns_per_op(args.seed, tracer);
            r.layer.num(
                "sim.service.mega.fleet_over_steady_ns_per_op",
                ns_per_op / steady_ns,
            );
        }
    }
    Ok(r)
}

/// The output audit: completed tickets pairwise distinct, every arrival
/// accounted for, and per-shard books summing to the roll-up.
fn audit(mega: &MegaServiceReport) -> Vec<String> {
    let mut findings = Vec::new();
    let rep = &mega.report;
    if !rep.accounted() {
        findings.push(format!(
            "accounting broken: {:?} in_system={}",
            rep.totals, rep.in_system
        ));
    }
    if !mega.rolled_up() {
        findings.push("per-shard totals do not sum to the roll-up".into());
    }
    let mut names = rep.names.clone();
    names.sort_unstable();
    names.dedup();
    if names.len() as u64 != rep.totals.completed || names.len() != rep.names.len() {
        findings.push(format!(
            "{} completed sessions hold {} distinct tickets",
            rep.totals.completed,
            names.len()
        ));
    }
    findings
}

/// ns per granted op of a single shard at the fleet's per-shard
/// operating point: the denominator of the fleet ÷ single-shard ratio.
fn reference_ns_per_op(seed: u64, tracer: &mut Tracer) -> f64 {
    let mut cfg = spec("service_steady", seed).cfg;
    let (warm, measured) = (10_000, 30_000);
    cfg.base.target_sessions = warm + measured;
    let world = MegaServiceWorld::new(&cfg);
    let mut harness = MegaServiceHarness::new(&world, &cfg);
    harness.prime();
    harness.run_until(warm);
    let before = harness.ops();
    let (_, secs) = tracer.span("reference.run_until", measured, || {
        harness.run_until(warm + measured)
    });
    secs * 1e9 / (harness.ops() - before).max(1) as f64
}
