//! Per-slot measurement accounting.
//!
//! The quantities this line of work reports: offered load, carried load
//! (throughput), packet-loss probability due to output contention, and
//! channel utilization. Batch means over the measurement phase give 95%
//! confidence intervals.

use serde::{Deserialize, Serialize};

/// Everything observed in one time slot, fed to [`Metrics::record_slot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotObservation {
    /// Requests presented this slot.
    pub offered: usize,
    /// Requests granted this slot.
    pub granted: usize,
    /// Requests lost to output contention.
    pub contention_losses: usize,
    /// Requests rejected because their source channel was busy.
    pub source_busy: usize,
    /// Earlier connections that completed at the start of the slot.
    pub completed: usize,
    /// In-flight connections moved to another channel this slot.
    pub rearranged: usize,
    /// Connections active at the end of the slot.
    pub active_now: usize,
}

/// Accumulated measurements over a simulation's measurement phase.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Metrics {
    slots: u64,
    offered: u64,
    granted: u64,
    contention_losses: u64,
    source_busy: u64,
    completed: u64,
    rearranged: u64,
    /// Sum over slots of active connections at slot end (for utilization).
    active_slot_sum: u64,
    /// Per-slot granted counts, retained for batch-means CIs.
    granted_per_slot: Vec<u32>,
}

impl Metrics {
    /// A fresh accumulator.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one slot's outcome.
    pub fn record_slot(&mut self, slot: SlotObservation) {
        self.slots += 1;
        self.offered += slot.offered as u64;
        self.granted += slot.granted as u64;
        self.contention_losses += slot.contention_losses as u64;
        self.source_busy += slot.source_busy as u64;
        self.completed += slot.completed as u64;
        self.rearranged += slot.rearranged as u64;
        self.active_slot_sum += slot.active_now as u64;
        self.granted_per_slot.push(u32::try_from(slot.granted).unwrap_or(u32::MAX));
    }

    /// Number of measured slots.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// Total requests offered.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Total requests granted.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Total output-contention losses.
    pub fn contention_losses(&self) -> u64 {
        self.contention_losses
    }

    /// Total requests rejected because their source channel was busy.
    pub fn source_busy(&self) -> u64 {
        self.source_busy
    }

    /// Total in-flight rearrangements (only under `HoldPolicy::Rearrange`).
    pub fn rearranged(&self) -> u64 {
        self.rearranged
    }

    /// Mean granted requests per slot (the interconnect throughput).
    pub fn throughput_per_slot(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.granted as f64 / self.slots as f64
        }
    }

    /// Probability a schedulable request is lost to output contention:
    /// `contention_losses / (offered − source_busy)`.
    pub fn loss_probability(&self) -> f64 {
        contention_loss(self.contention_losses, self.offered, self.source_busy)
    }

    /// Mean fraction of the `n·k` output channels carrying a connection.
    pub fn utilization(&self, n: usize, k: usize) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.active_slot_sum as f64 / (self.slots as f64 * (n * k) as f64)
        }
    }

    /// Batch-means 95% confidence half-interval on the per-slot throughput,
    /// using `batches` equal batches (default heuristic: 20).
    ///
    /// Returns `None` when there are too few slots to form batches.
    pub fn throughput_ci95(&self, batches: usize) -> Option<f64> {
        let batches = batches.max(2);
        let per = self.granted_per_slot.len() / batches;
        if per == 0 {
            return None;
        }
        let means: Vec<f64> = self
            .granted_per_slot
            .chunks_exact(per)
            .take(batches)
            .map(|c| c.iter().map(|&g| g as f64).sum::<f64>() / per as f64)
            .collect();
        let m = means.iter().sum::<f64>() / means.len() as f64;
        let var = means.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (means.len() as f64 - 1.0);
        // t ≈ 2.09 for 19 degrees of freedom; 1.96 asymptotically. Use 2.1
        // as a conservative constant for the default batch count.
        Some(2.1 * (var / means.len() as f64).sqrt())
    }
}

/// The one loss definition every report uses: the share of schedulable
/// requests (offered, less those whose source channel was busy) lost to
/// output contention.
pub(crate) fn contention_loss(contention_losses: u64, offered: u64, source_busy: u64) -> f64 {
    let schedulable = offered - source_busy;
    if schedulable == 0 {
        0.0
    } else {
        contention_losses as f64 / schedulable as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(
        offered: usize,
        granted: usize,
        contention_losses: usize,
        source_busy: usize,
        completed: usize,
        rearranged: usize,
        active_now: usize,
    ) -> SlotObservation {
        SlotObservation {
            offered,
            granted,
            contention_losses,
            source_busy,
            completed,
            rearranged,
            active_now,
        }
    }

    #[test]
    fn accounting() {
        let mut m = Metrics::new();
        m.record_slot(obs(10, 7, 2, 1, 0, 0, 4));
        m.record_slot(obs(5, 5, 0, 0, 7, 1, 2));
        assert_eq!(m.slots(), 2);
        assert_eq!(m.offered(), 15);
        assert_eq!(m.granted(), 12);
        assert_eq!(m.contention_losses(), 2);
        assert_eq!(m.source_busy(), 1);
        assert_eq!(m.rearranged(), 1);
        assert!((m.throughput_per_slot() - 6.0).abs() < 1e-12);
        assert!((m.loss_probability() - 2.0 / 14.0).abs() < 1e-12);
        assert!((m.utilization(2, 3) - 6.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = Metrics::new();
        assert_eq!(m.throughput_per_slot(), 0.0);
        assert_eq!(m.loss_probability(), 0.0);
        assert_eq!(m.utilization(4, 4), 0.0);
        assert_eq!(m.throughput_ci95(20), None);
    }

    #[test]
    fn ci_shrinks_with_constant_data() {
        let mut m = Metrics::new();
        for _ in 0..200 {
            m.record_slot(obs(5, 5, 0, 0, 5, 0, 5));
        }
        let ci = m.throughput_ci95(20).unwrap();
        assert!(ci < 1e-9, "constant data has zero variance, got {ci}");
    }

    #[test]
    fn ci_reflects_variance() {
        let mut low = Metrics::new();
        let mut high = Metrics::new();
        for i in 0..400u64 {
            low.record_slot(obs(5, 5, 0, 0, 0, 0, 5));
            let g = if i % 2 == 0 { 0 } else { 10 };
            high.record_slot(obs(10, g, 10 - g, 0, 0, 0, g));
        }
        assert!(high.throughput_ci95(20).unwrap() >= low.throughput_ci95(20).unwrap());
    }

    #[test]
    fn serde_round_trip() {
        let mut m = Metrics::new();
        m.record_slot(obs(3, 2, 1, 0, 0, 0, 2));
        let json = serde_json::to_string(&m).unwrap();
        let back: Metrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.offered(), 3);
    }
}
