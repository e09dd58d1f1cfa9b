//! The service harness: per-shard admission controllers with a global
//! telemetry roll-up, from one shard up to 10⁴+ concurrent slots.
//!
//! One shard is one internal `ShardState` — one world, one admission
//! controller, one arrival stream — and a single service is the fleet
//! of one shard. This module scales the serving layer the way a real
//! fleet does: `shards` independent admission controllers, each with
//! its own shared-memory world ([`ServiceWorld`] per shard), its own
//! [`ArcBank`](exsel_shm::ArcBank) register file, its own bounded
//! queue, backoff heap and fault injector, each running on **its own
//! clock**. An arriving client belongs to exactly one shard (each shard
//! draws its own seeded arrival stream — see below), contends only
//! against that shard's slots, and every counter lands twice: in the
//! shard's own [`Totals`] and in the shared telemetry sink — so
//! per-shard accounting provably sums to the global roll-up, and windows
//! and quantiles are fleet-wide, not per-shard fragments.
//!
//! A shard's register file costs memory only for the registers the
//! shard writes: the bank materializes on first write, and the
//! adaptive objects (store&collect, the deposit arena) touch a
//! contention-sized prefix of their registers, so a fleet of lightly
//! loaded shards with large arenas holds a small fraction of its
//! logical register count.
//!
//! # Clock and scheduling
//!
//! Execution is **shard-major**: [`MegaServiceHarness::run_until`]
//! drives shard 0 on its own clock — one operation per tick,
//! fast-forwarding its own idle gaps — until it has completed its share
//! of the target, then shard 1, and so on. Shards never touch each
//! other's registers, so a shard's trajectory is the one it would follow
//! in any interleaving with the others — including every shard ticking
//! together on one fleet clock — and while it runs, its whole working
//! set stays hot in cache. The fleet pays only at the shared boundaries:
//! the telemetry window merge and the final roll-up.
//!
//! * **Share stop rule.** Shard `s` runs until it has completed
//!   `share(n, s)` of a target of `n` sessions — `n / shards`, plus one
//!   for the lowest `n % shards` shards — so the fleet lands on exactly
//!   `n`, and a run cut in chunks ends in the same state as one cut
//!   once. A shard that drains or reaches the horizon short of its share
//!   hands the deficit to the shards after it, in shard order. A far
//!   target is reached in rounds of one session per shard, which end
//!   where one pass would but keep the shard clocks close together.
//! * **Window merge.** A shard records into the telemetry window its own
//!   clock is in. At its first tick at or past a window's end it adds
//!   its `(inflight, queued, waiting)` gauges to that window; a row is
//!   emitted once every shard has passed the window's end or retired
//!   (drained for good, gauges zero) before it. A drained run therefore
//!   emits exactly the rows one fleet clock ticking every shard together
//!   would (`tests/service_mega.rs` holds frozen goldens).
//! * **Fleet clock.** The report's clock (`totals.steps`, stamped on
//!   every shard's totals) is the latest shard clock. [`finish`] flushes
//!   the windows still open, each unfinished shard reporting its final
//!   gauges for the boundaries it has not reached.
//!
//! [`finish`]: MegaServiceHarness::finish
//!
//! # Arrival sharding
//!
//! Rather than hashing a single arrival stream (which would serialize
//! every shard on one RNG), each shard superposes its own thinned
//! stream: shard `s` draws inter-arrival gaps with mean
//! `shards × mean_gap` from its own salted seed, so the fleet-wide rate
//! matches the base configuration exactly while gap flooring (gaps are
//! ≥ 1 step) distorts *less* than the unsharded stream — and the fleet
//! can absorb up to `shards` arrivals per step where one stream is
//! capped at one. With `shards = 1` the thinning factor is ×1.0 and the
//! seed salt is 0, so the one shard runs the base configuration exactly
//! (`tests/service_mega.rs` freezes such a run among its goldens).
//!
//! # Ticket namespacing
//!
//! Each shard's naming object hands out tickets from its own unbounded
//! space, so raw tickets collide across shards. Completed tickets are
//! published to the audit as `ticket * shards + shard`, which is a
//! bijection per shard onto disjoint residue classes: fleet-wide
//! exclusivity follows from per-shard exclusivity, and `shards = 1` is
//! the identity map.
//!
//! # Example
//!
//! ```
//! use exsel_sim::service::mega::{MegaServiceConfig, MegaServiceHarness, MegaServiceWorld};
//! use exsel_sim::service::{Admission, Arrivals, ServiceConfig};
//!
//! let cfg = MegaServiceConfig {
//!     base: ServiceConfig {
//!         seed: 7,
//!         slots: 4, // per shard: 16 concurrent slots fleet-wide
//!         max_clients: 400,
//!         arrivals: Arrivals::Poisson { mean_gap: 3.0 },
//!         crash_hazard: 0.002,
//!         // The per-shard in-flight bound may not exceed its slots.
//!         admission: Admission {
//!             max_inflight: 4,
//!             ..ServiceConfig::default().admission
//!         },
//!         ..ServiceConfig::default()
//!     },
//!     shards: 4,
//! };
//! let world = MegaServiceWorld::new(&cfg);
//! let mega = MegaServiceHarness::new(&world, &cfg).run();
//! assert_eq!(mega.report.totals.arrivals, 400);
//! assert!(mega.report.accounted());
//! assert!(mega.rolled_up());
//! ```

use super::{
    snapshot_holders, Arrivals, ServiceConfig, ServiceReport, ServiceWorld, ShardState, Telemetry,
    Totals,
};

/// Salt multiplier deriving per-shard RNG seeds (the 64-bit golden
/// ratio, as in the engine's pid-mixing); shard 0's salt is 0 so the
/// single-shard configuration keeps the base seed exactly.
const SHARD_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Configuration of a sharded service run: the per-shard base
/// configuration plus the shard count.
///
/// `base.slots` and `base.admission` are **per shard** (the fleet holds
/// `slots × shards` concurrent slots); `base.target_sessions`,
/// `base.max_clients` and the arrival rate are **fleet-wide** (arrivals
/// are thinned and client budgets split across shards — see the module
/// docs).
#[derive(Clone, Copy, Debug)]
pub struct MegaServiceConfig {
    /// Per-shard base configuration (fleet-wide arrival rate and client
    /// budgets).
    pub base: ServiceConfig,
    /// Number of independent admission shards (≥ 1).
    pub shards: usize,
}

impl MegaServiceConfig {
    /// Concurrent slots fleet-wide.
    #[must_use]
    pub fn total_slots(&self) -> usize {
        self.base.slots * self.shards
    }

    /// Shard `s`'s slice of a fleet-wide budget (clients, or the
    /// sessions a [`MegaServiceHarness::run_until`] target asks for): an
    /// even split with the remainder spread over the lowest shards, so
    /// the slices sum exactly to `total` and shard 0 of a single-shard
    /// fleet gets everything.
    fn share(total: u64, s: usize, shards: usize) -> u64 {
        total / shards as u64 + u64::from((s as u64) < total % shards as u64)
    }

    /// The [`ServiceConfig`] shard `s` runs: salted seed, thinned
    /// arrivals, split client budgets, everything else inherited. With
    /// `shards = 1` this is the base configuration bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn shard_cfg(&self, s: usize) -> ServiceConfig {
        assert!(s < self.shards, "shard {s} out of {} shards", self.shards);
        let k = self.shards as f64;
        let arrivals = match self.base.arrivals {
            Arrivals::Poisson { mean_gap } => Arrivals::Poisson {
                mean_gap: mean_gap * k,
            },
            Arrivals::Bursty {
                mean_gap,
                burst,
                lull,
            } => Arrivals::Bursty {
                mean_gap: mean_gap * k,
                burst,
                lull,
            },
            Arrivals::Diurnal {
                peak_gap,
                trough_gap,
                period,
            } => Arrivals::Diurnal {
                peak_gap: peak_gap * k,
                trough_gap: trough_gap * k,
                period,
            },
        };
        ServiceConfig {
            seed: self.base.seed ^ (s as u64).wrapping_mul(SHARD_SALT),
            target_sessions: Self::share(self.base.target_sessions, s, self.shards),
            max_clients: Self::share(self.base.max_clients, s, self.shards),
            arrivals,
            ..self.base
        }
    }
}

/// The shared-memory worlds of a sharded run: one independent
/// [`ServiceWorld`] per shard (shards never share registers), each
/// sized for its own slice of the client budget.
#[derive(Debug)]
pub struct MegaServiceWorld {
    worlds: Vec<ServiceWorld>,
}

impl MegaServiceWorld {
    /// Builds every shard's world, with each snapshot arena reserved past
    /// any live-buffer high-water a `slots`-bounded run can reach
    /// ([`snapshot_holders`]): even the first contention excursion deep
    /// into a run stays allocation-free, where warm-up alone only covers
    /// the high-water it happened to visit.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards == 0` or `cfg.base.slots == 0`.
    #[must_use]
    pub fn new(cfg: &MegaServiceConfig) -> Self {
        MegaServiceWorld::with_snapshot_reserve(cfg, snapshot_holders(cfg.base.slots))
    }

    /// Builds every shard's world with `reserve` records (and `reserve`
    /// views besides the records' own) pre-seeded in each snapshot
    /// arena; 0 lets the arenas grow on demand, which is how the bound
    /// behind [`snapshot_holders`] is measured.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards == 0` or `cfg.base.slots == 0`.
    #[must_use]
    pub fn with_snapshot_reserve(cfg: &MegaServiceConfig, reserve: usize) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        MegaServiceWorld {
            worlds: (0..cfg.shards)
                .map(|s| ServiceWorld::with_snapshot_reserve(&cfg.shard_cfg(s), reserve))
                .collect(),
        }
    }

    /// Total registers across every shard's world.
    #[must_use]
    pub fn num_registers(&self) -> usize {
        self.worlds.iter().map(ServiceWorld::num_registers).sum()
    }

    /// The per-shard worlds, in shard order. Each shard's world owns a
    /// disjoint register space starting at 0, so a per-shard footprint
    /// checker built from `shard_worlds()[s]` is exact for shard `s`.
    #[must_use]
    pub fn shard_worlds(&self) -> &[ServiceWorld] {
        &self.worlds
    }
}

/// The result of a run: the global roll-up (a [`ServiceReport`]) plus
/// every shard's own totals.
#[derive(Clone, Debug)]
pub struct MegaServiceReport {
    /// The fleet-wide roll-up: global totals, global windows (gauges
    /// summed across shards, quantiles over the merged samples), the
    /// namespaced ticket audit.
    pub report: ServiceReport,
    /// Each shard's own counter totals (`steps` is the fleet clock, the
    /// latest shard clock).
    pub shard_totals: Vec<Totals>,
}

impl MegaServiceReport {
    /// The roll-up identity every sharded run satisfies: each counter
    /// summed over `shard_totals` equals the global total, and every
    /// shard stamps the fleet clock.
    #[must_use]
    pub fn rolled_up(&self) -> bool {
        let g = self.report.totals;
        let sum = |f: fn(&Totals) -> u64| self.shard_totals.iter().map(f).sum::<u64>();
        sum(|t| t.arrivals) == g.arrivals
            && sum(|t| t.admitted) == g.admitted
            && sum(|t| t.completed) == g.completed
            && sum(|t| t.crashes) == g.crashes
            && sum(|t| t.reentries) == g.reentries
            && sum(|t| t.retries) == g.retries
            && sum(|t| t.shed) == g.shed
            && sum(|t| t.rejected) == g.rejected
            && sum(|t| t.ops) == g.ops
            && self.shard_totals.iter().all(|t| t.steps == g.steps)
    }
}

/// The open-loop service harness; see the module docs. Borrows the
/// worlds (machines hold references into the shared objects) and owns
/// every shard's register bank, clock and waiting-room structures. A
/// single service is `MegaServiceConfig { base, shards: 1 }`.
pub struct MegaServiceHarness<'w> {
    cfg: MegaServiceConfig,
    shards: Vec<ShardState<'w>>,
    tel: Telemetry,
}

impl<'w> MegaServiceHarness<'w> {
    /// Builds a harness over `world`, one register bank per shard.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards == 0`, the world was built for a different
    /// shard count, or the shard configuration is inconsistent (no
    /// slots, a zero window, an in-flight bound of zero or above the
    /// slot count, or a crash hazard outside `[0, 1]`).
    #[must_use]
    pub fn new(world: &'w MegaServiceWorld, cfg: &MegaServiceConfig) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        assert_eq!(
            world.worlds.len(),
            cfg.shards,
            "world built for a different shard count"
        );
        let step = cfg.shards as u64;
        let shards = world
            .worlds
            .iter()
            .enumerate()
            .map(|(s, w)| ShardState::new(w, &cfg.shard_cfg(s), s as u64, step))
            .collect();
        MegaServiceHarness {
            cfg: *cfg,
            shards,
            tel: Telemetry::new(&cfg.base, cfg.shards),
        }
    }

    /// Pre-registers every slot's store&collect infrastructure (slot
    /// rename, controls, collect caches) on every shard before the run,
    /// so the slot machinery's one-time buffer growth cannot land inside
    /// a measured steady-state segment. At fleet scale slots keep being
    /// first-touched deep into a run — a concurrency excursion binding
    /// shard 900's third slot an hour in would otherwise pay that slot's
    /// one-time registration buffers mid-measurement — so zero-alloc
    /// gates prime before warm-up. Optional: an unprimed run warms the
    /// same state lazily. Priming performs real register writes, so a
    /// primed run is **not** bit-identical to an unprimed one; it is
    /// infrastructure only — no arrivals, ops, telemetry or ticket
    /// state.
    pub fn prime(&mut self) {
        for shard in &mut self.shards {
            shard.prime();
        }
    }

    /// Installs one dynamic footprint checker per shard (shards never
    /// share registers, so per-shard checkers are exact): every
    /// subsequently granted (or primed) operation is validated against
    /// the world's declared footprint. Build each checker from the
    /// matching [`MegaServiceWorld`] shard world with
    /// [`exsel_analysis::AccessChecker::for_instance`] (`n` = slot
    /// count, `num_registers` = the shard world's register count).
    ///
    /// # Panics
    ///
    /// Panics unless exactly one checker per shard is supplied.
    #[cfg(feature = "check")]
    pub fn install_checkers(&mut self, checkers: Vec<exsel_analysis::AccessChecker>) {
        assert_eq!(
            checkers.len(),
            self.shards.len(),
            "need one checker per shard"
        );
        for (shard, mut checker) in self.shards.iter_mut().zip(checkers) {
            checker.begin_trial();
            shard.checker = Some(checker);
        }
    }

    /// Total footprint violations observed across all shards since
    /// their checkers were installed; 0 when none are installed.
    #[cfg(feature = "check")]
    #[must_use]
    pub fn checker_violations(&self) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.checker.as_ref())
            .map(exsel_analysis::AccessChecker::trial_violations)
            .sum()
    }

    /// Operations the installed checkers validated, summed over every
    /// shard; 0 when none are installed.
    #[cfg(feature = "check")]
    #[must_use]
    pub fn checker_ops(&self) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.checker.as_ref())
            .map(exsel_analysis::AccessChecker::trial_ops)
            .sum()
    }

    /// Runs the fleet to its stopping condition (fleet-wide session
    /// target reached, arrivals exhausted and every shard drained, or
    /// horizon) and returns the report.
    pub fn run(mut self) -> MegaServiceReport {
        let target = match self.cfg.base.target_sessions {
            0 => u64::MAX,
            t => t,
        };
        self.run_until(target);
        self.finish()
    }

    /// Drives the fleet until `sessions` sessions have completed
    /// fleet-wide (an absolute count): shard-major, each shard to its
    /// share under the stop rule of the module docs. Returns `false`
    /// when the fleet ended first. Benchmarks use this to separate
    /// warm-up from the measured steady state before calling
    /// [`MegaServiceHarness::finish`].
    ///
    /// The fleet gets there in rounds, each asking one more session of
    /// every shard. Shares grow with the target and a deficit only grows
    /// as shards drain, so no round drives a shard past where one pass
    /// at `sessions` would leave it, and the rounds end in that same
    /// state; but they keep the shard clocks within one round's spread
    /// of each other, so the telemetry windows open at once stay few
    /// and the run stays allocation-free however far one call reaches.
    pub fn run_until(&mut self, sessions: u64) -> bool {
        let k = self.shards.len() as u64;
        let mut target = self.completed();
        while target < sessions {
            target = sessions.min(target.saturating_add(k));
            if !self.round(target) {
                break;
            }
        }
        self.completed() >= sessions
    }

    /// One shard-major pass: each shard in turn runs until it has
    /// completed its share of `sessions` plus whatever the shards
    /// before it fell short by. Returns `false` once every shard has
    /// drained or reached the horizon.
    fn round(&mut self, sessions: u64) -> bool {
        let k = self.shards.len();
        let (mut owed, mut done) = (0, 0);
        let mut live = false;
        for (s, shard) in self.shards.iter_mut().enumerate() {
            owed += MegaServiceConfig::share(sessions, s, k);
            shard.run_until(owed.saturating_sub(done), &mut self.tel);
            done += shard.totals.completed;
            live |= !shard.ended();
        }
        live
    }

    /// Sessions completed fleet-wide so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.tel.totals.completed
    }

    /// Granted shared-memory operations fleet-wide so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.tel.totals.ops
    }

    /// Flushes the telemetry windows still open at the fleet clock (the
    /// latest shard clock) and assembles the report.
    pub fn finish(self) -> MegaServiceReport {
        let MegaServiceHarness { shards, tel, .. } = self;
        let now = shards.iter().map(|s| s.now).max().unwrap_or(0);
        let in_system = shards.iter().map(ShardState::in_system).sum();
        let shard_totals = shards
            .iter()
            .map(|s| Totals {
                steps: now,
                ..s.totals
            })
            .collect();
        MegaServiceReport {
            report: tel.finish(
                now,
                shards.iter().filter_map(ShardState::final_gauges),
                in_system,
            ),
            shard_totals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::Admission;
    use super::*;
    use exsel_shm::RegisterBank;
    use std::collections::BTreeSet;

    fn base_cfg(seed: u64, clients: u64, hazard: f64) -> ServiceConfig {
        ServiceConfig {
            seed,
            slots: 4,
            target_sessions: 0,
            max_clients: clients,
            window: 1 << 11,
            arrivals: Arrivals::Poisson { mean_gap: 5.0 },
            crash_hazard: hazard,
            admission: Admission {
                max_inflight: 4,
                queue_capacity: 8,
                backoff_base: 32,
                backoff_cap: 1 << 10,
                max_retries: 4,
                waiting_capacity: 32,
            },
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn sharded_run_drains_accounts_and_rolls_up() {
        let cfg = MegaServiceConfig {
            base: base_cfg(3, 600, 0.003),
            shards: 4,
        };
        let world = MegaServiceWorld::new(&cfg);
        let mega = MegaServiceHarness::new(&world, &cfg).run();
        assert_eq!(mega.report.totals.arrivals, 600);
        assert!(mega.report.accounted(), "{:?}", mega.report.totals);
        assert_eq!(mega.report.in_system, 0, "fleet did not drain");
        assert!(mega.rolled_up(), "shard totals diverge from roll-up");
        assert!(
            mega.shard_totals.iter().all(|t| t.completed > 0),
            "a shard sat idle: {:?}",
            mega.shard_totals
        );
    }

    #[test]
    fn namespaced_tickets_stay_exclusive_across_shards() {
        let cfg = MegaServiceConfig {
            base: base_cfg(29, 500, 0.01),
            shards: 5,
        };
        let world = MegaServiceWorld::new(&cfg);
        let mega = MegaServiceHarness::new(&world, &cfg).run();
        assert!(mega.report.totals.crashes > 0, "hazard never fired");
        let set: BTreeSet<u64> = mega.report.names.iter().copied().collect();
        assert_eq!(
            set.len() as u64,
            mega.report.totals.completed,
            "duplicate tickets across shards"
        );
        // Namespacing maps each shard onto its own residue class, and
        // every class with a client budget actually completed sessions.
        let classes: BTreeSet<u64> = set.iter().map(|t| t % cfg.shards as u64).collect();
        assert_eq!(classes.len(), cfg.shards);
    }

    #[test]
    fn same_seed_is_bit_identical_across_builds() {
        let cfg = MegaServiceConfig {
            base: base_cfg(11, 400, 0.005),
            shards: 3,
        };
        let world_a = MegaServiceWorld::new(&cfg);
        let a = MegaServiceHarness::new(&world_a, &cfg).run();
        let world_b = MegaServiceWorld::new(&cfg);
        let b = MegaServiceHarness::new(&world_b, &cfg).run();
        assert_eq!(a.report.totals, b.report.totals);
        assert_eq!(a.report.windows, b.report.windows);
        assert_eq!(a.report.names, b.report.names);
        assert_eq!(a.shard_totals, b.shard_totals);
    }

    #[test]
    fn shard_banks_materialize_only_the_touched_prefix() {
        // The adaptive objects touch a contention-sized prefix of each
        // shard's registers; a bank that nulls every register when it
        // is sized (the eager fill) would fail this.
        let cfg = MegaServiceConfig {
            base: ServiceConfig {
                arena_capacity: 1 << 13,
                arrivals: Arrivals::Poisson { mean_gap: 200.0 },
                ..base_cfg(5, 400, 0.0)
            },
            shards: 4,
        };
        let world = MegaServiceWorld::new(&cfg);
        let mut mega = MegaServiceHarness::new(&world, &cfg);
        mega.run_until(u64::MAX);
        assert_eq!(mega.completed(), 400);
        for (s, shard) in mega.shards.iter().enumerate() {
            let (touched, len) = (shard.bank.words().len(), shard.bank.len());
            assert!(len > 1 << 13, "shard {s}: {len} registers");
            assert!(touched > 0, "shard {s} wrote nothing");
            assert!(
                touched < len / 4,
                "shard {s} materialized {touched} of {len} registers"
            );
        }
    }

    #[test]
    fn client_budget_shares_sum_exactly() {
        for (total, shards) in [(0u64, 3usize), (7, 3), (1_000_000, 1250), (5, 8)] {
            let sum: u64 = (0..shards)
                .map(|s| MegaServiceConfig::share(total, s, shards))
                .sum();
            assert_eq!(sum, total, "split of {total} over {shards}");
        }
    }
}
