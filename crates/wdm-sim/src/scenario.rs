//! Scenario-driven simulation: a [`wdm_scenario::CompiledPlan`] executed
//! end to end — phased workload, mid-run disruptions, degraded-mode policy
//! fallback — with per-phase and before/during/after-disruption breakdowns.
//!
//! Every consumer of a plan goes through this module, so what a plan does
//! to the fabric and how its slots are counted is decided once:
//!
//! * [`ScenarioTraffic`] — a [`TrafficModel`] reading the plan's per-slot
//!   tables. For a constant-rate, uniform-destination, non-bursty plan its
//!   RNG draw order is **bit-identical** to
//!   [`BernoulliUniform`](crate::traffic::BernoulliUniform) at the same
//!   seed (verified by `tests/scenario_differential.rs`), so scenarios are
//!   a strict superset of the legacy workloads, not a parallel universe.
//! * [`ScenarioDriver`] — the one driver: fires every planned event due
//!   at the current slot through [`apply_disruption`], takes one fallback
//!   step, and keeps the run's [`ScenarioSummary`]. The offline
//!   [`Simulation`] and the daemon's coordinator both step it once per
//!   slot, before the slot is scheduled.
//! * [`PlanWindows`] — the one recorder: attributes each measured slot to
//!   its phase and to the before/during/after-disruption window, as
//!   [`WindowStats`]. The simulator and the load generator both fill it.
//! * [`run_scenario`] — builds a [`Simulation`] with the plan attached
//!   ([`Simulation::with_plan`]) and assembles the report; the slot loop
//!   is the simulator's own.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use wdm_core::{Error, Policy, WarmStats};
use wdm_interconnect::{ConnectionRequest, DisruptionImpact, Interconnect, InterconnectConfig};
use wdm_scenario::{CompiledPlan, DisruptionChange, DisruptionEvent, DurationSpec};

use crate::engine::{Simulation, SimulationConfig};
use crate::metrics::{contention_loss, Metrics, SlotObservation};
use crate::traffic::{DurationModel, TrafficModel};

/// Converts a plan's declarative holding-time spec into the simulator's
/// sampling model.
pub fn duration_model(spec: DurationSpec) -> DurationModel {
    match spec {
        DurationSpec::Deterministic { slots } => DurationModel::Deterministic(slots),
        DurationSpec::Geometric { mean } => DurationModel::Geometric { mean },
        DurationSpec::Pareto { min, shape } => DurationModel::Pareto { min, shape },
    }
}

/// A [`TrafficModel`] driven by a compiled scenario plan: per-slot phase
/// rates, optional hotspot destination skew, optional bursty on/off
/// sources, and any [`DurationSpec`] holding-time model.
#[derive(Debug, Clone)]
pub struct ScenarioTraffic {
    plan: Arc<CompiledPlan>,
    duration: DurationModel,
    /// Per input channel: the destination of the current burst, if ON.
    /// Empty unless the plan has `[traffic.bursty]`.
    burst_state: Vec<Option<usize>>,
}

impl ScenarioTraffic {
    /// Builds the traffic model for a compiled plan.
    pub fn new(plan: Arc<CompiledPlan>) -> ScenarioTraffic {
        let state_len = if plan.bursty().is_some() { plan.n() * plan.k() } else { 0 };
        ScenarioTraffic {
            duration: duration_model(plan.duration()),
            burst_state: vec![None; state_len],
            plan,
        }
    }

    fn draw_destination(&self, rng: &mut StdRng) -> usize {
        // Same draw order as `Hotspot`: one Bernoulli for the skew, then
        // the uniform fiber draw only on the cold branch.
        if let Some(h) = self.plan.hotspot() {
            if rng.gen_bool(h.fraction) {
                return h.fiber;
            }
        }
        rng.gen_range(0..self.plan.n())
    }
}

impl TrafficModel for ScenarioTraffic {
    fn n(&self) -> usize {
        self.plan.n()
    }

    fn k(&self) -> usize {
        self.plan.k()
    }

    fn generate_into(&mut self, rng: &mut StdRng, slot: u64, out: &mut Vec<ConnectionRequest>) {
        out.clear();
        let n = self.plan.n();
        let k = self.plan.k();
        if let Some(b) = self.plan.bursty() {
            // Two-state on/off channels (same chain as `BurstyOnOff`), with
            // the phase rate multiplier modulating the turn-on probability:
            // high-rate phases birth bursts faster, burst length is shaped
            // by p_off alone.
            let p_on = (b.p_on * self.plan.rate_multiplier(slot)).clamp(0.0, 1.0);
            for fiber in 0..n {
                for w in 0..k {
                    let idx = fiber * k + w;
                    match self.burst_state[idx] {
                        Some(dst) => {
                            out.push(ConnectionRequest::burst(
                                fiber,
                                w,
                                dst,
                                self.duration.sample(rng),
                            ));
                            if rng.gen_bool(b.p_off) {
                                self.burst_state[idx] = None;
                            }
                        }
                        None => {
                            if rng.gen_bool(p_on) {
                                self.burst_state[idx] = Some(self.draw_destination(rng));
                            }
                        }
                    }
                }
            }
        } else {
            // Bernoulli arrivals at the plan's per-slot offered load. With
            // no hotspot this is draw-for-draw the `BernoulliUniform` loop.
            let p = self.plan.offered_load(slot);
            for fiber in 0..n {
                for w in 0..k {
                    if rng.gen_bool(p) {
                        let dst = self.draw_destination(rng);
                        out.push(ConnectionRequest::burst(
                            fiber,
                            w,
                            dst,
                            self.duration.sample(rng),
                        ));
                    }
                }
            }
        }
    }

    fn offered_load(&self) -> f64 {
        // The plan's base load; per-slot values vary with the phase rate.
        self.plan.offered_load(0)
    }
}

/// Applies one planned disruption event to the fabric, before the slot it
/// names is scheduled: a converter failure shrinks the fiber's conversion
/// scheme, recovery restores the baseline, an outage takes the fiber dark,
/// and rejoin brings it back cold. The only place a plan's events reach an
/// [`Interconnect`].
pub fn apply_disruption(
    interconnect: &mut Interconnect,
    event: &DisruptionEvent,
) -> Result<DisruptionImpact, Error> {
    match event.change {
        DisruptionChange::ConverterFailure { conversion, .. } => {
            interconnect.shrink_conversion(event.fiber, conversion)
        }
        DisruptionChange::ConverterRecovery => interconnect.restore_conversion(event.fiber),
        DisruptionChange::Outage => interconnect.fail_fiber(event.fiber),
        DisruptionChange::Rejoin => interconnect.rejoin_fiber(event.fiber),
    }
}

/// What a [`ScenarioDriver`] acts on: the offline [`Interconnect`], or the
/// daemon's engine (which also answers the clients an outage strands).
pub trait PlanFabric {
    /// Applies one disruption event (see [`apply_disruption`]).
    fn disrupt(&mut self, event: &DisruptionEvent) -> Result<DisruptionImpact, Error>;
    /// Switches every fiber to `policy` (the fallback's engage/revert).
    fn set_policy_all(&mut self, policy: Policy) -> Result<(), Error>;
}

impl PlanFabric for Interconnect {
    fn disrupt(&mut self, event: &DisruptionEvent) -> Result<DisruptionImpact, Error> {
        apply_disruption(self, event)
    }

    fn set_policy_all(&mut self, policy: Policy) -> Result<(), Error> {
        Interconnect::set_policy_all(self, policy)
    }
}

/// What a [`ScenarioDriver`] did over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioSummary {
    /// Disruption events applied (strike and recovery edges both count).
    pub events_applied: u64,
    /// In-flight connections dropped by converter failures and outages.
    pub dropped_connections: u64,
    /// Pending reservations cancelled by outages.
    pub cancelled_reservations: u64,
    /// Times the fallback controller engaged the degraded policy.
    pub fallback_engagements: u64,
    /// Times it reverted to the baseline policy.
    pub fallback_reverts: u64,
    /// Slots run with the fallback policy in force (warmup included).
    pub engaged_slots: u64,
}

/// Steps one [`CompiledPlan`] against a fabric: a cursor over the plan's
/// slot-sorted disruption events plus the fallback controller's
/// engaged/baseline state.
#[derive(Debug, Clone)]
pub struct ScenarioDriver {
    plan: Arc<CompiledPlan>,
    base_policy: Policy,
    cursor: usize,
    engaged: bool,
    summary: ScenarioSummary,
}

impl ScenarioDriver {
    /// A driver at the start of `plan`; the fallback reverts to
    /// `base_policy`, the policy the fabric was built with.
    pub fn new(plan: Arc<CompiledPlan>, base_policy: Policy) -> ScenarioDriver {
        ScenarioDriver {
            plan,
            base_policy,
            cursor: 0,
            engaged: false,
            summary: ScenarioSummary::default(),
        }
    }

    /// The plan being driven.
    pub fn plan(&self) -> &CompiledPlan {
        &self.plan
    }

    /// What the driver has done so far.
    pub fn summary(&self) -> ScenarioSummary {
        self.summary
    }

    /// Whether the fallback policy is in force.
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// Applies everything the plan schedules at (or before) `slot`: every
    /// pending disruption event, then one fallback decision. Call exactly
    /// once per executed slot, before the slot is scheduled. `lag_slots`
    /// feeds the fallback's lag trigger (the simulator is its own clock and
    /// passes 0).
    pub fn before_slot<F: PlanFabric>(
        &mut self,
        fabric: &mut F,
        slot: u64,
        lag_slots: u64,
    ) -> Result<(), Error> {
        while let Some(&event) = self.plan.events().get(self.cursor) {
            if event.slot > slot {
                break;
            }
            self.cursor += 1;
            let impact = fabric.disrupt(&event)?;
            self.summary.events_applied += 1;
            self.summary.dropped_connections += impact.dropped_connections as u64;
            self.summary.cancelled_reservations += impact.cancelled_reservations as u64;
        }
        if let Some(rule) = self.plan.fallback() {
            let load = self.plan.offered_load(slot);
            let want = rule.decide(self.engaged, load, self.plan.is_disrupted(slot), lag_slots);
            if want != self.engaged {
                fabric.set_policy_all(if want { rule.policy } else { self.base_policy })?;
                self.engaged = want;
                if want {
                    self.summary.fallback_engagements += 1;
                } else {
                    self.summary.fallback_reverts += 1;
                }
            }
        }
        if self.engaged {
            self.summary.engaged_slots += 1;
        }
        Ok(())
    }
}

/// Tallies over one window of measured plan slots: a phase, or the slots
/// before, during or after the plan's disruptions.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowStats {
    /// The phase name, or `before`/`during`/`after`.
    pub name: String,
    /// Measured slots in the window.
    pub slots: u64,
    /// Requests offered.
    pub offered: u64,
    /// Requests granted.
    pub granted: u64,
    /// Requests lost to output contention.
    pub contention_losses: u64,
    /// Requests suppressed because the source channel was busy.
    pub source_busy: u64,
}

impl WindowStats {
    fn named(name: &str) -> WindowStats {
        WindowStats { name: name.to_owned(), ..WindowStats::default() }
    }

    fn record(&mut self, slot: &SlotObservation) {
        self.slots += 1;
        self.offered += slot.offered as u64;
        self.granted += slot.granted as u64;
        self.contention_losses += slot.contention_losses as u64;
        self.source_busy += slot.source_busy as u64;
    }

    /// Loss probability, defined as for the whole run
    /// ([`Metrics::loss_probability`]).
    pub fn loss_probability(&self) -> f64 {
        contention_loss(self.contention_losses, self.offered, self.source_busy)
    }
}

/// A plan's measured slots, split two ways: by phase, and into the slots
/// before the first disruption strikes, with at least one disruption
/// active, and after the first strike with none active.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanWindows {
    /// One window per phase, in timeline order.
    pub phases: Vec<WindowStats>,
    /// Measured slots before the first disruption strikes.
    pub before: WindowStats,
    /// Measured slots with at least one disruption active.
    pub during: WindowStats,
    /// Measured slots after the first strike with no disruption active.
    pub after: WindowStats,
}

impl PlanWindows {
    /// Empty windows for every phase of `plan`.
    pub fn for_plan(plan: &CompiledPlan) -> PlanWindows {
        PlanWindows {
            phases: plan.phases().iter().map(|p| WindowStats::named(&p.name)).collect(),
            before: WindowStats::named("before"),
            during: WindowStats::named("during"),
            after: WindowStats::named("after"),
        }
    }

    /// Attributes one slot's observation to its phase and disruption
    /// window. Warmup slots (`slot < plan.warmup()`) are not measured and
    /// count nowhere.
    pub fn record(&mut self, plan: &CompiledPlan, slot: u64, observed: &SlotObservation) {
        if slot < plan.warmup() {
            return;
        }
        if let Some(phase) = self.phases.get_mut(plan.phase_index(slot)) {
            phase.record(observed);
        }
        let window = if plan.is_disrupted(slot) {
            &mut self.during
        } else if plan.events().first().is_none_or(|e| slot < e.slot) {
            &mut self.before
        } else {
            &mut self.after
        };
        window.record(observed);
    }
}

/// The result of a scenario run.
#[must_use = "a scenario run is pure computation; the report is its only product"]
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Interconnect size `N`.
    pub n: usize,
    /// Wavelengths per fiber `k`.
    pub k: usize,
    /// Baseline conversion degree `d`.
    pub degree: usize,
    /// The seed the run derived from.
    pub seed: u64,
    /// Whole-run measured metrics (batch means, utilization, …).
    pub metrics: Metrics,
    /// Warm-start scheduling outcomes over the whole run.
    pub warm: WarmStats,
    /// Per-phase and per-disruption-window breakdown.
    pub windows: PlanWindows,
    /// What the plan's timeline and fallback did to the fabric.
    pub summary: ScenarioSummary,
}

impl ScenarioReport {
    /// Normalized throughput over the whole measured window.
    pub fn normalized_throughput(&self) -> f64 {
        self.metrics.throughput_per_slot() / (self.n * self.k) as f64
    }
}

/// Runs a compiled scenario to completion.
///
/// The run is a pure function of the plan: the RNG seeds from
/// [`CompiledPlan::seed`], disruption events apply at exactly their
/// planned slots (before the slot is scheduled), and the fallback
/// controller steps on planned quantities only — so replaying the same
/// plan is bit-identical.
pub fn run_scenario(plan: &CompiledPlan) -> Result<ScenarioReport, Error> {
    let plan = Arc::new(plan.clone());
    let interconnect = InterconnectConfig::packet_switch(plan.n(), plan.conversion())
        .with_policy(plan.policy())
        .with_threads(plan.threads());
    let config = SimulationConfig {
        warmup_slots: plan.warmup(),
        measure_slots: plan.measured_slots(),
        seed: plan.seed(),
    };
    let report = Simulation::new(interconnect, ScenarioTraffic::new(Arc::clone(&plan)), config)?
        .with_plan(Arc::clone(&plan))
        .run()?;
    Ok(ScenarioReport {
        name: plan.name().to_owned(),
        n: plan.n(),
        k: plan.k(),
        degree: plan.conversion().degree(),
        seed: plan.seed(),
        metrics: report.metrics,
        warm: report.warm,
        windows: report.windows,
        summary: report.scenario,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_scenario::load_plan;

    fn plan(doc: &str) -> CompiledPlan {
        load_plan(doc).unwrap()
    }

    const BASE: &str = r#"
schema = 1
name = "unit"

[interconnect]
n = 4
k = 8
degree = 3
kind = "circular"
policy = "bfa"

[run]
warmup = 20
slots = 300
seed = 11

[traffic]
load = 0.5
duration = { model = "deterministic", slots = 1 }
"#;

    #[test]
    fn steady_scenario_reports_one_phase_all_before() {
        let report = run_scenario(&plan(BASE)).unwrap();
        let w = &report.windows;
        assert_eq!(w.phases.len(), 1);
        assert_eq!(w.phases[0].name, "steady");
        assert_eq!(w.phases[0].slots, 300);
        assert_eq!(w.before.slots, 300);
        assert_eq!(w.during.slots + w.after.slots, 0);
        assert_eq!(report.summary, ScenarioSummary::default());
        assert!(report.metrics.granted() > 0);
        // The windows partition the measured slots exactly.
        assert_eq!(w.before.offered, report.metrics.offered());
    }

    #[test]
    fn single_phase_window_loss_is_the_headline_loss() {
        // Multi-slot holds make source-busy suppression common, which is
        // exactly where a per-offered and a per-schedulable loss differ.
        let doc = BASE.replacen("slots = 1 }", "slots = 4 }", 1);
        let report = run_scenario(&plan(&doc)).unwrap();
        let steady = &report.windows.phases[0];
        assert!(steady.source_busy > 0, "holds must suppress some requests");
        assert_eq!(steady.slots, report.metrics.slots());
        assert_eq!(steady.loss_probability(), report.metrics.loss_probability());
        assert_eq!(report.windows.before.loss_probability(), report.metrics.loss_probability());
    }

    #[test]
    fn disruption_windows_partition_measured_slots() {
        let doc = format!(
            "{BASE}
[[disruptions]]
at = 120
fiber = 1
kind = \"outage\"
until = 200
"
        );
        let w = run_scenario(&plan(&doc)).unwrap().windows;
        assert_eq!(w.before.slots, 100, "measured slots 20..120");
        assert_eq!(w.during.slots, 80, "slots 120..200");
        assert_eq!(w.after.slots, 120, "slots 200..320");
        // The dark output fiber shifts losses up while it is out.
        assert!(w.during.loss_probability() > w.before.loss_probability());
        // Cell traffic can't drop connections on a deterministic-1 workload
        // unless the outage caught some active hold; with 1-slot packets
        // the drop count is whatever was in flight at the strike slot.
        assert!(w.during.offered > 0);
    }

    #[test]
    fn fallback_engages_and_reverts_over_a_load_hump() {
        let doc = BASE.replacen(
            "[traffic]",
            r#"[[phases]]
name = "calm"
slots = 100
rate = 0.5

[[phases]]
name = "rush"
slots = 100
rate = 2.0

[[phases]]
name = "calm2"
slots = 120
rate = 0.5

[fallback]
policy = "approx"
load_threshold = 0.8
revert_margin = 0.05

[traffic]"#,
            1,
        );
        let report = run_scenario(&plan(&doc)).unwrap();
        let s = report.summary;
        assert_eq!(s.fallback_engagements, 1, "{s:?}");
        assert_eq!(s.fallback_reverts, 1);
        // Engaged exactly during the rush phase (slots 100..200).
        assert_eq!(s.engaged_slots, 100);
        let phases = &report.windows.phases;
        assert_eq!(phases.len(), 3);
        assert!(phases[1].offered > phases[0].offered);
    }

    #[test]
    fn scenario_runs_are_replay_identical() {
        let doc = format!(
            "{BASE}
[[disruptions]]
at = 100
fiber = 0
kind = \"converter-failure\"
degree = 1
until = 150
"
        );
        let p = plan(&doc);
        let a = run_scenario(&p).unwrap();
        let b = run_scenario(&p).unwrap();
        assert_eq!(a.metrics.granted(), b.metrics.granted());
        assert_eq!(a.metrics.offered(), b.metrics.offered());
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn bursty_scenario_rate_scales_burst_births() {
        let doc = BASE
            .replacen(
                "[traffic]",
                r#"[[phases]]
name = "low"
slots = 160
rate = 0.2

[[phases]]
name = "high"
slots = 160
rate = 3.0

[traffic]"#,
                1,
            )
            .replacen(
                "duration = { model = \"deterministic\", slots = 1 }",
                "duration = { model = \"deterministic\", slots = 1 }\n\n[traffic.bursty]\np_on = 0.05\np_off = 0.3",
                1,
            );
        let report = run_scenario(&plan(&doc)).unwrap();
        let low = &report.windows.phases[0];
        let high = &report.windows.phases[1];
        assert!(
            high.offered > low.offered,
            "3x burst-birth rate must offer more: {high:?} vs {low:?}"
        );
    }
}
