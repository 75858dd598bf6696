//! The simulation engine: interconnect + traffic + clock.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use wdm_core::{Error, WarmStats};
use wdm_interconnect::{Interconnect, InterconnectConfig};
use wdm_scenario::CompiledPlan;

use crate::metrics::{Metrics, SlotObservation};
use crate::scenario::{PlanWindows, ScenarioDriver, ScenarioSummary};
use crate::traffic::ReservationTraffic;
use crate::traffic::TrafficModel;

/// Run lengths and seeding for one simulation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Slots to run before measurement starts (reach steady state).
    pub warmup_slots: u64,
    /// Slots measured.
    pub measure_slots: u64,
    /// RNG seed (simulations are fully deterministic given the seed).
    pub seed: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig { warmup_slots: 500, measure_slots: 5_000, seed: 0x5eed }
    }
}

/// The result of a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// Interconnect size `N`.
    pub n: usize,
    /// Wavelengths per fiber `k`.
    pub k: usize,
    /// Conversion degree `d`.
    pub degree: usize,
    /// Offered per-channel load of the traffic model.
    pub offered_load: f64,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Advance-reservation outcomes (all-zero when the run had no
    /// reservation process attached).
    pub reservations: ReservationSummary,
    /// Warm-start scheduling outcomes summed over every fiber scheduler and
    /// the whole run (warmup included): per-fiber slots repaired from the
    /// previous matching, fallen back to dispatch, or run cold.
    pub warm: WarmStats,
    /// Per-phase and per-disruption-window tallies (empty when the run had
    /// no plan attached).
    pub windows: PlanWindows,
    /// What the attached plan's timeline and fallback did (all-zero when
    /// the run had no plan attached).
    pub scenario: ScenarioSummary,
}

/// What happened to the advance reservations of one simulation run,
/// counted over the whole run (warmup included — a reservation admitted
/// during warmup can activate inside the measured window, so splitting
/// the ledger at the warmup boundary would miscount).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReservationSummary {
    /// Reservations the process generated.
    pub requested: u64,
    /// Admitted into the capacity ledger.
    pub admitted: u64,
    /// Denied: no slot capacity along the requested hold.
    pub denied_capacity: u64,
    /// Denied: start slot beyond the admission horizon.
    pub denied_horizon: u64,
    /// Holds that activated into granted connections.
    pub grants: u64,
    /// Holds that expired at their start slot (source busy or output
    /// contention at activation — timeout expiry, never retried).
    pub expiries: u64,
}

impl ReservationSummary {
    /// Blocking probability over resolved reservations: denied or expired
    /// out of everything that reached a verdict (admission deny counts as
    /// blocking; still-pending holds at run end are excluded).
    pub fn blocking_probability(&self) -> f64 {
        let resolved = self.denied_capacity + self.denied_horizon + self.grants + self.expiries;
        if resolved == 0 {
            return 0.0;
        }
        (resolved - self.grants) as f64 / resolved as f64
    }
}

impl Report {
    /// Normalized throughput: granted requests per slot divided by the
    /// interconnect's channel count `n·k` (1.0 = every channel busy with a
    /// fresh grant every slot).
    pub fn normalized_throughput(&self) -> f64 {
        self.metrics.throughput_per_slot() / (self.n * self.k) as f64
    }

    /// Packet-loss probability due to output contention.
    pub fn loss_probability(&self) -> f64 {
        self.metrics.loss_probability()
    }
}

/// A runnable simulation: one interconnect driven by one traffic model,
/// optionally mixed with an advance-reservation arrival process and a
/// scenario plan's disruption timeline.
pub struct Simulation<T: TrafficModel> {
    interconnect: Interconnect,
    traffic: T,
    reservations: Option<ReservationTraffic>,
    plan: Option<ScenarioDriver>,
    rng: StdRng,
    config: SimulationConfig,
}

// Manual impl: deriving would require `T: Debug`, which traffic models
// need not provide.
impl<T: TrafficModel> std::fmt::Debug for Simulation<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.interconnect.n())
            .field("k", &self.interconnect.k())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<T: TrafficModel> Simulation<T> {
    /// Builds the simulation, checking that the traffic model matches the
    /// interconnect dimensions.
    pub fn new(
        interconnect_config: InterconnectConfig,
        traffic: T,
        config: SimulationConfig,
    ) -> Result<Simulation<T>, Error> {
        let interconnect = Interconnect::new(interconnect_config)?;
        if traffic.n() != interconnect.n() {
            return Err(Error::LengthMismatch { expected: interconnect.n(), actual: traffic.n() });
        }
        if traffic.k() != interconnect.k() {
            return Err(Error::WavelengthCountMismatch {
                expected: interconnect.k(),
                actual: traffic.k(),
            });
        }
        Ok(Simulation {
            interconnect,
            traffic,
            reservations: None,
            plan: None,
            rng: StdRng::seed_from_u64(config.seed),
            config,
        })
    }

    /// Mixes an advance-reservation arrival process into the run. Each
    /// slot its requests are admitted against the capacity ledger before
    /// the slot's cell traffic is scheduled.
    pub fn with_reservations(mut self, reservations: ReservationTraffic) -> Self {
        self.reservations = Some(reservations);
        self
    }

    /// Attaches a compiled scenario plan. Each slot its due disruption
    /// events and one fallback step land before anything else (see
    /// [`ScenarioDriver::before_slot`]), and each measured slot is
    /// attributed to the plan's windows ([`PlanWindows::record`]). The
    /// traffic model is the caller's: pair the plan with
    /// [`ScenarioTraffic`](crate::scenario::ScenarioTraffic) to run the
    /// plan's own workload. The fallback reverts to the plan's baseline
    /// policy.
    pub fn with_plan(mut self, plan: Arc<CompiledPlan>) -> Self {
        let base_policy = plan.policy();
        self.plan = Some(ScenarioDriver::new(plan, base_policy));
        self
    }

    /// Runs warmup + measurement and returns the report.
    pub fn run(mut self) -> Result<Report, Error> {
        let mut metrics = Metrics::new();
        let mut summary = ReservationSummary::default();
        let mut windows =
            self.plan.as_ref().map(|d| PlanWindows::for_plan(d.plan())).unwrap_or_default();
        let total = self.config.warmup_slots + self.config.measure_slots;
        // One request buffer and one result for the whole run: the slot loop
        // reuses them, so steady-state simulation is allocation-free.
        let mut requests = Vec::new();
        let mut arrivals = Vec::new();
        let mut result = wdm_interconnect::SlotResult::default();
        for slot in 0..total {
            if let Some(driver) = self.plan.as_mut() {
                driver.before_slot(&mut self.interconnect, slot, 0)?;
            }
            if let Some(process) = self.reservations.as_mut() {
                process.generate_into(&mut self.rng, slot, &mut arrivals);
                for request in &arrivals {
                    summary.requested += 1;
                    match self.interconnect.reserve(*request) {
                        Ok(_) => summary.admitted += 1,
                        Err(Error::ReservationCapacityExhausted { .. }) => {
                            summary.denied_capacity += 1;
                        }
                        Err(Error::ReservationHorizonExceeded { .. }) => {
                            summary.denied_horizon += 1;
                        }
                        // The generator only emits future, in-range
                        // requests; anything else is a bug worth stopping
                        // the run for.
                        Err(other) => return Err(other),
                    }
                }
            }
            self.traffic.generate_into(&mut self.rng, slot, &mut requests);
            self.interconnect.advance_slot_into(&requests, &mut result)?;
            summary.grants += result.reservation_grants.len() as u64;
            summary.expiries += result.reservation_expired.len() as u64;
            if slot >= self.config.warmup_slots {
                let observed = SlotObservation {
                    offered: result.offered(),
                    granted: result.grants.len(),
                    contention_losses: result.contention_losses(),
                    source_busy: result.source_busy_losses(),
                    completed: result.completed,
                    rearranged: result.rearranged,
                    active_now: self.interconnect.active_connections(),
                };
                metrics.record_slot(observed);
                if let Some(driver) = &self.plan {
                    windows.record(driver.plan(), slot, &observed);
                }
            }
        }
        Ok(Report {
            n: self.interconnect.n(),
            k: self.interconnect.k(),
            degree: self.interconnect.conversion().degree(),
            offered_load: self.traffic.offered_load(),
            metrics,
            reservations: summary,
            warm: self.interconnect.warm_stats(),
            windows,
            scenario: self.plan.map(|d| d.summary()).unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{BernoulliUniform, DurationModel};
    use wdm_core::Conversion;

    fn quick(n: usize, k: usize, conv: Conversion, p: f64) -> Report {
        let traffic = BernoulliUniform::new(n, k, p, DurationModel::Deterministic(1));
        let cfg = SimulationConfig { warmup_slots: 50, measure_slots: 500, seed: 1 };
        Simulation::new(InterconnectConfig::packet_switch(n, conv), traffic, cfg)
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn zero_load_zero_everything() {
        let conv = Conversion::symmetric_circular(8, 3).unwrap();
        let report = quick(4, 8, conv, 0.0);
        assert_eq!(report.metrics.offered(), 0);
        assert_eq!(report.metrics.granted(), 0);
        assert_eq!(report.loss_probability(), 0.0);
    }

    #[test]
    fn low_load_is_nearly_lossless() {
        let conv = Conversion::symmetric_circular(8, 3).unwrap();
        let report = quick(4, 8, conv, 0.05);
        assert!(report.loss_probability() < 0.02, "loss {}", report.loss_probability());
    }

    #[test]
    fn conservation_offered_equals_granted_plus_lost() {
        let conv = Conversion::symmetric_circular(8, 3).unwrap();
        let report = quick(4, 8, conv, 0.7);
        let m = &report.metrics;
        assert_eq!(m.offered(), m.granted() + m.contention_losses() + m.source_busy());
    }

    #[test]
    fn more_conversion_never_hurts() {
        // The headline qualitative result: throughput is monotone in d.
        let k = 8;
        let loss_of = |conv: Conversion| quick(4, k, conv, 0.9).loss_probability();
        let none = loss_of(Conversion::none(k).unwrap());
        let d3 = loss_of(Conversion::symmetric_circular(k, 3).unwrap());
        let full = loss_of(Conversion::full(k).unwrap());
        assert!(d3 <= none + 0.02, "d=3 {d3} vs none {none}");
        assert!(full <= d3 + 0.02, "full {full} vs d=3 {d3}");
        assert!(none > full, "conversion must help at 0.9 load");
    }

    #[test]
    fn deterministic_given_seed() {
        let conv = Conversion::symmetric_circular(4, 3).unwrap();
        let run = || {
            let traffic = BernoulliUniform::new(2, 4, 0.5, DurationModel::Deterministic(1));
            let cfg = SimulationConfig { warmup_slots: 10, measure_slots: 100, seed: 99 };
            Simulation::new(InterconnectConfig::packet_switch(2, conv), traffic, cfg)
                .unwrap()
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.metrics.granted(), b.metrics.granted());
        assert_eq!(a.metrics.offered(), b.metrics.offered());
    }

    #[test]
    fn coherent_traffic_runs_mostly_on_the_repair_path() {
        use crate::traffic::CoherentStreams;
        let (n, k) = (4, 16);
        let conv = Conversion::symmetric_circular(k, 3).unwrap();
        let traffic = CoherentStreams::new(n, k, 0.6, 32.0);
        let cfg = SimulationConfig { warmup_slots: 100, measure_slots: 1000, seed: 11 };
        let report = Simulation::new(InterconnectConfig::packet_switch(n, conv), traffic, cfg)
            .unwrap()
            .run()
            .unwrap();
        // Long-lived streams mean the slot-to-slot request diff is tiny, so
        // nearly every fiber slot after the first should repair in budget.
        assert!(
            report.warm.repair_rate() > 0.8,
            "repair rate {:.3} (warm {:?})",
            report.warm.repair_rate(),
            report.warm
        );
        assert!(report.metrics.granted() > 0);
    }

    #[test]
    fn incoherent_traffic_still_reports_warm_counters() {
        let conv = Conversion::symmetric_circular(8, 3).unwrap();
        let report = quick(4, 8, conv, 0.5);
        let w = report.warm;
        // Every per-fiber slot lands in exactly one bucket.
        assert_eq!(w.repaired + w.fallback + w.cold, (550 * 4) as u64);
    }

    #[test]
    fn mixed_reservation_run_accounts_for_every_hold() {
        use crate::traffic::ReservationTraffic;
        let conv = Conversion::symmetric_circular(8, 3).unwrap();
        let traffic = BernoulliUniform::new(4, 8, 0.3, DurationModel::Deterministic(1));
        let process = ReservationTraffic::new(4, 8, 1.0, 5, DurationModel::Geometric { mean: 3.0 });
        let cfg = SimulationConfig { warmup_slots: 50, measure_slots: 1000, seed: 7 };
        let report = Simulation::new(InterconnectConfig::packet_switch(4, conv), traffic, cfg)
            .unwrap()
            .with_reservations(process)
            .run()
            .unwrap();
        let r = &report.reservations;
        assert!(r.requested > 900, "rate 1.0 over 1050 slots: {} requested", r.requested);
        assert_eq!(r.requested, r.admitted + r.denied_capacity + r.denied_horizon);
        assert!(r.grants > 0, "holds must activate under 0.3 cell load");
        // Holds whose start slot lies beyond the run's end stay pending.
        assert!(r.grants + r.expiries <= r.admitted);
        assert!(r.admitted - (r.grants + r.expiries) <= 10, "only tail holds stay pending");
        let b = r.blocking_probability();
        assert!((0.0..1.0).contains(&b), "blocking {b}");
    }

    #[test]
    fn reservation_run_deterministic_given_seed() {
        use crate::traffic::ReservationTraffic;
        let conv = Conversion::symmetric_circular(4, 3).unwrap();
        let run = || {
            let traffic = BernoulliUniform::new(2, 4, 0.4, DurationModel::Deterministic(1));
            let process = ReservationTraffic::new(2, 4, 0.5, 4, DurationModel::Deterministic(3));
            let cfg = SimulationConfig { warmup_slots: 10, measure_slots: 300, seed: 99 };
            Simulation::new(InterconnectConfig::packet_switch(2, conv), traffic, cfg)
                .unwrap()
                .with_reservations(process)
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.reservations, b.reservations);
        assert_eq!(a.metrics.granted(), b.metrics.granted());
    }

    #[test]
    fn no_reservation_process_reports_zeros() {
        let conv = Conversion::full(4).unwrap();
        let report = quick(4, 4, conv, 0.2);
        assert_eq!(report.reservations, ReservationSummary::default());
        assert_eq!(report.reservations.blocking_probability(), 0.0);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let conv = Conversion::full(4).unwrap();
        let traffic = BernoulliUniform::new(3, 4, 0.5, DurationModel::Deterministic(1));
        assert!(Simulation::new(
            InterconnectConfig::packet_switch(2, conv),
            traffic,
            SimulationConfig::default()
        )
        .is_err());
        let traffic = BernoulliUniform::new(2, 5, 0.5, DurationModel::Deterministic(1));
        assert!(Simulation::new(
            InterconnectConfig::packet_switch(2, conv),
            traffic,
            SimulationConfig::default()
        )
        .is_err());
    }
}
