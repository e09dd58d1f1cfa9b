//! Mega-scale service invariants: the sharded harness at 10⁴ concurrent
//! slots (1250 shards × 8 slots) under a 2·10⁻³ per-step crash hazard.
//! The paper's guarantee is scale-free — completed sessions hold
//! pairwise-exclusive tickets no matter how clients crash and re-enter —
//! and the admission layer must keep its books: every arrival completes,
//! is cleanly rejected, or is still in the system, and each shard's own
//! counters sum to the global roll-up.

use exclusive_selection::sim::service::mega::{
    MegaServiceConfig, MegaServiceHarness, MegaServiceReport, MegaServiceWorld,
};
use exclusive_selection::sim::service::{
    snapshot_holders, Admission, Arrivals, ServiceConfig, Totals, WindowRow,
};
use std::collections::BTreeSet;

/// A 10⁴-slot fleet with a bounded client budget, pressure enough to
/// exercise queues and backoff, and a 2e-3 hazard. Bounded arrivals
/// keep the run drainable, so accounting can be checked as an exact
/// identity rather than an inequality.
fn mega_cfg(seed: u64, clients: u64) -> MegaServiceConfig {
    MegaServiceConfig {
        base: ServiceConfig {
            seed,
            slots: 8,
            target_sessions: 0,
            max_clients: clients,
            window: 1 << 12,
            arrivals: Arrivals::Poisson { mean_gap: 2.0 },
            crash_hazard: 2e-3,
            admission: Admission {
                max_inflight: 8,
                queue_capacity: 16,
                backoff_base: 32,
                backoff_cap: 1 << 10,
                max_retries: 4,
                waiting_capacity: 64,
            },
            ..ServiceConfig::default()
        },
        shards: 1250,
    }
}

#[test]
fn crash_storm_invariants_hold_at_ten_thousand_slots() {
    let cfg = mega_cfg(41, 6_000);
    assert_eq!(cfg.total_slots(), 10_000);
    let world = MegaServiceWorld::new(&cfg);
    let mega = MegaServiceHarness::new(&world, &cfg).run();
    let g = mega.report.totals;

    // The hazard actually fired and forced the re-entry path.
    assert!(g.crashes > 0, "2e-3 hazard never fired: {g:?}");
    assert!(g.reentries > 0, "no crashed client re-entered: {g:?}");

    // Global accounting: arrivals = completed + rejected + in_system,
    // and the bounded run drained completely.
    assert_eq!(g.arrivals, 6_000);
    assert!(mega.report.accounted(), "accounting broke: {g:?}");
    assert_eq!(mega.report.in_system, 0, "clients stranded: {g:?}");
    assert_eq!(g.completed + g.rejected, 6_000, "{g:?}");

    // Ticket exclusivity fleet-wide: every completed session holds a
    // distinct (shard-namespaced) ticket.
    let set: BTreeSet<u64> = mega.report.names.iter().copied().collect();
    assert_eq!(set.len() as u64, g.completed, "duplicate tickets at scale");

    // Per-shard accounting sums to the global roll-up, and — since the
    // fleet drained — closes shard by shard too.
    assert_eq!(mega.shard_totals.len(), 1250);
    assert!(mega.rolled_up(), "shard totals diverge from roll-up");
    for (s, t) in mega.shard_totals.iter().enumerate() {
        assert_eq!(
            t.arrivals,
            t.completed + t.rejected,
            "shard {s} books do not close: {t:?}"
        );
    }
}

/// Checker-on mega battery (`--features check`): the full 10⁴-slot
/// crash-storm fleet runs with one dynamic footprint checker per shard
/// (shards own disjoint register spaces, so per-shard checking is
/// exact) and must complete with zero ownership violations.
#[cfg(feature = "check")]
#[test]
fn ten_thousand_slot_fleet_stays_inside_declared_footprints() {
    use exclusive_selection::sim::AccessChecker;
    let cfg = mega_cfg(17, 4_000);
    assert_eq!(cfg.total_slots(), 10_000);
    let world = MegaServiceWorld::new(&cfg);
    let checkers: Vec<AccessChecker> = world
        .shard_worlds()
        .iter()
        .map(|w| {
            AccessChecker::for_instance(w, cfg.base.slots, w.num_registers())
                .expect("static pass accepts every shard world")
        })
        .collect();
    let mut mega = MegaServiceHarness::new(&world, &cfg);
    mega.install_checkers(checkers);
    mega.prime();
    let drained = mega.run_until(u64::MAX);
    assert!(!drained, "bounded arrivals must drain");
    assert!(mega.ops() > 0);
    assert_eq!(
        mega.checker_violations(),
        0,
        "mega fleet violated its footprints"
    );
    let report = mega.finish();
    assert!(report.report.accounted());
}

#[test]
fn fleet_windows_tile_the_clock_and_bound_the_gauges() {
    let mut cfg = mega_cfg(5, 3_000);
    // Window semantics don't need the full fleet; 16 shards keep the
    // per-shard pressure (and this suite's debug runtime) reasonable.
    cfg.shards = 16;
    cfg.base.arrivals = Arrivals::Poisson { mean_gap: 4.0 };
    let world = MegaServiceWorld::new(&cfg);
    let mega = MegaServiceHarness::new(&world, &cfg).run();
    assert!(!mega.report.windows.is_empty());
    let slots = cfg.total_slots() as u64;
    for (i, w) in mega.report.windows.iter().enumerate() {
        assert_eq!(w.window, i as u64);
        if i > 0 {
            assert_eq!(w.start, mega.report.windows[i - 1].end);
        }
        assert!(
            w.inflight <= slots,
            "window {i} reports {} in flight over {slots} slots",
            w.inflight
        );
    }
    // Window counter deltas sum to the whole-run totals.
    let sum = |f: fn(&exclusive_selection::sim::service::WindowRow) -> u64| {
        mega.report.windows.iter().map(f).sum::<u64>()
    };
    assert_eq!(sum(|w| w.arrivals), mega.report.totals.arrivals);
    assert_eq!(sum(|w| w.completed), mega.report.totals.completed);
    assert_eq!(sum(|w| w.crashes), mega.report.totals.crashes);
    assert_eq!(sum(|w| w.rejected), mega.report.totals.rejected);
}

/// FNV-1a over little-endian words: freezes long golden sequences
/// (per-shard totals, window rows, sorted tickets) as one number each.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn totals_fields(t: &Totals) -> [u64; 10] {
    let Totals {
        arrivals,
        admitted,
        completed,
        crashes,
        reentries,
        retries,
        shed,
        rejected,
        ops,
        steps,
    } = *t;
    [
        arrivals, admitted, completed, crashes, reentries, retries, shed, rejected, ops, steps,
    ]
}

fn row_fields(w: &WindowRow) -> [u64; 30] {
    let WindowRow {
        window,
        start,
        end,
        arrivals,
        admitted,
        completed,
        crashes,
        reentries,
        retries,
        shed,
        rejected,
        inflight,
        queued,
        waiting,
        session_p50,
        session_p99,
        session_p999,
        sojourn_p99,
        acquire_p50,
        acquire_p99,
        acquire_p999,
        store_p50,
        store_p99,
        store_p999,
        collect_p50,
        collect_p99,
        collect_p999,
        deposit_p50,
        deposit_p99,
        deposit_p999,
    } = *w;
    [
        window,
        start,
        end,
        arrivals,
        admitted,
        completed,
        crashes,
        reentries,
        retries,
        shed,
        rejected,
        inflight,
        queued,
        waiting,
        session_p50,
        session_p99,
        session_p999,
        sojourn_p99,
        acquire_p50,
        acquire_p99,
        acquire_p999,
        store_p50,
        store_p99,
        store_p999,
        collect_p50,
        collect_p99,
        collect_p999,
        deposit_p50,
        deposit_p99,
        deposit_p999,
    ]
}

/// A drained run's frozen output: totals, the digest of every shard's
/// totals, the window count and the digest of every row, the
/// cumulative p50/p99/p999 per latency family, and the sorted tickets'
/// count, sum and digest.
struct Golden {
    totals: [u64; 10],
    shard_totals: u64,
    windows: usize,
    rows: u64,
    quantiles: [[u64; 3]; 6],
    tickets: (usize, u64, u64),
}

fn assert_golden(mega: &MegaServiceReport, want: &Golden) {
    let r = &mega.report;
    assert_eq!(totals_fields(&r.totals), want.totals, "totals");
    assert_eq!(r.in_system, 0, "a drained run leaves nobody behind");
    assert_eq!(
        digest(mega.shard_totals.iter().flat_map(totals_fields)),
        want.shard_totals,
        "per-shard totals"
    );
    assert_eq!(r.windows.len(), want.windows, "window count");
    assert_eq!(
        digest(r.windows.iter().flat_map(row_fields)),
        want.rows,
        "window rows"
    );
    let quantiles: Vec<[u64; 3]> = r
        .cumulative
        .iter()
        .map(|h| [h.quantile(1, 2), h.quantile(99, 100), h.quantile(999, 1000)])
        .collect();
    assert_eq!(quantiles, want.quantiles, "cumulative quantiles");
    let mut tickets = r.names.clone();
    tickets.sort_unstable();
    assert_eq!(
        (
            tickets.len(),
            tickets.iter().sum(),
            digest(tickets.iter().copied())
        ),
        want.tickets,
        "sorted tickets"
    );
}

/// A bounded-arrival run drains every shard, so it has no stop cut: the
/// shard-major fleet must reproduce, exactly, what the fleet produced
/// when it still ticked every shard in lock-step on one global clock
/// (these values were recorded from that implementation). Shards share
/// no registers, so each shard's trajectory cannot depend on the order
/// the fleet runs them in; window gauges are each shard's gauges at the
/// boundary tick, and the fleet clock is the latest shard clock.
#[test]
fn drained_fleets_reproduce_the_lock_step_goldens() {
    let cfg = mega_cfg(41, 6_000);
    let world = MegaServiceWorld::new(&cfg);
    let mega = MegaServiceHarness::new(&world, &cfg).run();
    assert_golden(
        &mega,
        &Golden {
            totals: [6000, 14261, 5567, 8694, 8261, 0, 0, 433, 4_354_384, 38756],
            shard_totals: 0xcf4e_9bad_c94f_e157,
            windows: 10,
            rows: 0x9888_c891_6a43_1381,
            quantiles: [
                [80, 768, 1024],
                [1, 56, 96],
                [3, 16, 28],
                [192, 1280, 2048],
                [320, 1536, 2048],
                [640, 2560, 4096],
            ],
            tickets: (5567, 40_058_648, 0xc775_6488_46a9_b076),
        },
    );

    // The configuration of fleet_windows_tile_the_clock_and_bound_the_gauges.
    let mut cfg = mega_cfg(5, 3_000);
    cfg.shards = 16;
    cfg.base.arrivals = Arrivals::Poisson { mean_gap: 4.0 };
    let world = MegaServiceWorld::new(&cfg);
    let mega = MegaServiceHarness::new(&world, &cfg).run();
    assert_golden(
        &mega,
        &Golden {
            totals: [
                3000, 1542, 186, 1356, 1885, 9658, 13001, 2814, 638_527, 47593,
            ],
            shard_totals: 0x9720_65f4_9d63_7ec5,
            windows: 12,
            rows: 0xe7f3_338b_9931_7737,
            quantiles: [
                [1536, 8192, 16384],
                [8, 1280, 1536],
                [112, 192, 224],
                [80, 12288, 12288],
                [2560, 16384, 16384],
                [10240, 40960, 40960],
            ],
            tickets: (186, 59182, 0x5bb0_debf_77e7_ced0),
        },
    );
}

/// An open-ended fleet (unbounded arrivals, crashless, the benchmark's
/// per-shard load) of `shards` shards.
fn open_fleet(seed: u64, shards: usize) -> MegaServiceConfig {
    MegaServiceConfig {
        base: ServiceConfig {
            seed,
            slots: 8,
            window: 1 << 14,
            arrivals: Arrivals::Poisson {
                mean_gap: 2800.0 / shards as f64,
            },
            arena_capacity: 1 << 13,
            ..ServiceConfig::default()
        },
        shards,
    }
}

/// The share stop rule: `run_until(n)` leaves exactly `n` sessions
/// completed, each shard holding exactly its share of `n`, whether or
/// not the shard count divides the chunk — and since each shard stops
/// at its share, a chunked run ends in the same state as one call.
#[test]
fn run_until_lands_exactly_on_the_target() {
    const CHUNK: u64 = 250;
    // 10 and 25 shards divide the chunk; 16 and 7 do not.
    for shards in [10, 25, 16, 7] {
        let cfg = open_fleet(3, shards);
        let world = MegaServiceWorld::new(&cfg);
        let mut chunked = MegaServiceHarness::new(&world, &cfg);
        for i in 1..=6 {
            assert!(chunked.run_until(i * CHUNK), "open fleet cannot drain");
            assert_eq!(chunked.completed(), i * CHUNK, "{shards} shards, chunk {i}");
        }
        let chunked = chunked.finish();
        for (s, t) in chunked.shard_totals.iter().enumerate() {
            let base = 6 * CHUNK / shards as u64;
            let share = base + u64::from((s as u64) < 6 * CHUNK % shards as u64);
            assert_eq!(t.completed, share, "{shards} shards: shard {s}");
        }

        let world = MegaServiceWorld::new(&cfg);
        let mut once = MegaServiceHarness::new(&world, &cfg);
        assert!(once.run_until(6 * CHUNK));
        let once = once.finish();
        assert_eq!(once.report.totals, chunked.report.totals);
        assert_eq!(once.shard_totals, chunked.shard_totals);
        assert_eq!(once.report.windows, chunked.report.windows);
        // Completion order follows the calls; the ticket multiset does not.
        let sorted = |names: &[u64]| {
            let mut v = names.to_vec();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&once.report.names), sorted(&chunked.report.names));
    }
}

/// A shard that drains short of its share hands the deficit to the
/// shards after it, in shard order. Each shard's trajectory is its own,
/// so a shard driven to goal `g` ends at `min(g, c)`, where `c` is what
/// it completes when run to its drain; the test models the hand-off from
/// those capacities and checks the fleet against it, twice.
#[test]
fn drained_shards_hand_their_deficit_forward() {
    let mut cfg = mega_cfg(7, 480);
    cfg.shards = 6;
    cfg.base.arrivals = Arrivals::Poisson { mean_gap: 40.0 };
    cfg.base.crash_hazard = 5e-4;
    let world = MegaServiceWorld::new(&cfg);
    let drained = MegaServiceHarness::new(&world, &cfg).run();
    let caps: Vec<u64> = drained.shard_totals.iter().map(|t| t.completed).collect();
    let k = caps.len();

    // The forward hand-off from the capacities: shard s owes its share
    // of n plus whatever the shards before it fell short by.
    let model = |n: u64| -> (Vec<u64>, bool) {
        let share = |s: usize| n / k as u64 + u64::from((s as u64) < n % k as u64);
        let (mut owed, mut done) = (0, 0);
        let mut short = false;
        let got = (0..k)
            .map(|s| {
                owed += share(s);
                short |= caps[s] < share(s);
                let got = caps[s].min(owed - done);
                done += got;
                got
            })
            .collect();
        (got, short)
    };
    // The largest target the fleet can meet although a shard falls short
    // of its share.
    let total: u64 = caps.iter().sum();
    let (n, want) = (1..total)
        .rev()
        .find_map(|n| {
            let (got, short) = model(n);
            (short && got.iter().sum::<u64>() == n).then_some((n, got))
        })
        .unwrap_or_else(|| panic!("no target exercises a deficit: {caps:?}"));

    for _ in 0..2 {
        let world = MegaServiceWorld::new(&cfg);
        let mut mega = MegaServiceHarness::new(&world, &cfg);
        assert!(mega.run_until(n), "fleet could not absorb the deficit");
        assert_eq!(mega.completed(), n);
        let got: Vec<u64> = mega
            .finish()
            .shard_totals
            .iter()
            .map(|t| t.completed)
            .collect();
        assert_eq!(got, want, "capacities {caps:?}");
    }
}

/// The reservation bound: with the snapshot arenas left to grow on
/// demand, the live-buffer high-water of every arena stays within
/// [`snapshot_holders`] records and twice as many views (the records'
/// own plus as many besides — what `ServiceWorld::new` reserves) on the
/// steady, storm, 1%-hazard and 64-shard crash-storm configurations.
#[test]
fn snapshot_high_water_stays_within_the_reserved_bound() {
    let storm = |seed| ServiceConfig {
        seed,
        slots: 8,
        target_sessions: 1_500,
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
        ..ServiceConfig::default()
    };
    let steady = |seed| ServiceConfig {
        arrivals: Arrivals::Poisson { mean_gap: 2800.0 },
        crash_hazard: 0.0,
        ..storm(seed)
    };
    let hazard = |seed| ServiceConfig {
        arrivals: Arrivals::Poisson { mean_gap: 400.0 },
        crash_hazard: 0.01,
        ..storm(seed)
    };
    let crash_storm = |seed| {
        let mut cfg = mega_cfg(seed, 6_000);
        cfg.shards = 64;
        cfg.base.arrivals = Arrivals::Poisson { mean_gap: 10.0 };
        cfg
    };
    let mut runs = Vec::new();
    for seed in [1, 2] {
        for base in [steady(seed), storm(seed), hazard(seed)] {
            runs.push(MegaServiceConfig { base, shards: 1 });
        }
        runs.push(crash_storm(seed));
    }
    let bound = snapshot_holders(8) as u64;
    for cfg in runs {
        let world = MegaServiceWorld::with_snapshot_reserve(&cfg, 0);
        let mega = MegaServiceHarness::new(&world, &cfg).run();
        assert!(mega.report.totals.completed > 0);
        for (s, w) in world.shard_worlds().iter().enumerate() {
            for arena in w.snapshot_stats() {
                assert!(
                    arena.peak_records <= bound && arena.peak_views <= 2 * bound,
                    "seed {} shard {s}: {arena:?} over {bound} records / {} views",
                    cfg.base.seed,
                    2 * bound
                );
            }
        }
    }
}
