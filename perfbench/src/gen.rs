//! Seeded input generators. The program under test only ever sees what
//! these produce; the same seed always yields the same inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdm_interconnect::ConnectionRequest;
use wdm_serve::{ReserveRequest, SubmitRequest};
use wdm_sim::{BernoulliUniform, DurationModel, TrafficModel};

use crate::spans::Spans;

/// Fibers per side.
pub const N: usize = 8;
/// Wavelengths per fiber.
pub const K: usize = 64;
/// Circular conversion degree.
pub const DEGREE: usize = 7;

/// Client-chosen ids of advance reservations live above this bit, so a
/// reply's id alone says whether it answers a cell or a reservation.
pub const RESERVE_ID_BASE: u64 = 1 << 62;

/// Derives an independent stream seed from the run seed and a salt.
pub fn stream_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
}

fn to_submit(r: &ConnectionRequest, id: u64) -> SubmitRequest {
    SubmitRequest {
        id,
        src_fiber: r.src_fiber as u32,
        src_wavelength: r.src_wavelength as u32,
        dst_fiber: r.dst_fiber as u32,
        duration: r.duration,
    }
}

/// Packet or burst batches drawn from the simulator's Bernoulli-uniform
/// traffic model, one batch per round.
#[derive(Debug)]
pub struct BatchGen {
    traffic: BernoulliUniform,
    rng: StdRng,
    cells: Vec<ConnectionRequest>,
    round: u64,
    next_id: u64,
}

impl BatchGen {
    /// Batches at per-channel `load` with the given holding times.
    pub fn new(seed: u64, load: f64, duration: DurationModel) -> BatchGen {
        BatchGen {
            traffic: BernoulliUniform::new(N, K, load, duration),
            rng: StdRng::seed_from_u64(seed),
            cells: Vec::with_capacity(N * K),
            round: 0,
            next_id: 0,
        }
    }

    /// Fills `out` with the next round's batch. With a recorder, the call
    /// into the traffic model is a `traffic.generate` span.
    pub fn next_batch(&mut self, out: &mut Vec<SubmitRequest>, spans: Option<&mut Spans>) {
        match spans {
            Some(s) => s.span("traffic.generate", self.round, || {
                self.traffic.generate_into(&mut self.rng, self.round, &mut self.cells);
            }),
            None => self.traffic.generate_into(&mut self.rng, self.round, &mut self.cells),
        }
        self.round += 1;
        out.clear();
        for c in &self.cells {
            out.push(to_submit(c, self.next_id));
            self.next_id += 1;
        }
    }

    /// The random stream, for callers that draw extra per-round decisions.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// The serve-pair probe: 1–4 single-slot requests per round from uniformly
/// random input channels to uniformly random output fibers, with a random
/// think time between rounds so the probe samples every phase of its
/// neighbour's round instead of locking onto one.
#[derive(Debug)]
pub struct ProbeGen {
    rng: StdRng,
    next_id: u64,
}

impl ProbeGen {
    /// A probe stream.
    pub fn new(seed: u64) -> ProbeGen {
        ProbeGen { rng: StdRng::seed_from_u64(seed), next_id: 0 }
    }

    /// Fills `out` with the next probe batch.
    pub fn next_batch(&mut self, out: &mut Vec<SubmitRequest>) {
        out.clear();
        let count = self.rng.gen_range(1..=4usize);
        for _ in 0..count {
            let r = ConnectionRequest::packet(
                self.rng.gen_range(0..N),
                self.rng.gen_range(0..K),
                self.rng.gen_range(0..N),
            );
            out.push(to_submit(&r, self.next_id));
            self.next_id += 1;
        }
    }

    /// The pause before the next round, uniform in
    /// `0..=PROBE_THINK_MAX_US` microseconds.
    pub fn think_time(&mut self) -> std::time::Duration {
        std::time::Duration::from_micros(self.rng.gen_range(0..=PROBE_THINK_MAX_US))
    }
}

/// Longest probe think time between rounds, in microseconds.
pub const PROBE_THINK_MAX_US: u64 = 200;

/// What the serve-pair bulk client sends besides its cell batch this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkExtras {
    /// An advance reservation, about one round in four.
    pub reserve: Option<ReserveRequest>,
    /// Whether to cancel the most recently admitted, still pending
    /// reservation (drawn every round; acted on only when one exists).
    pub release: bool,
}

/// The serve-pair bulk client: load-0.5 batches with geometric holds of
/// mean 4, plus reservations with lead 4 and occasional releases.
#[derive(Debug)]
pub struct BulkGen {
    batches: BatchGen,
    holds: DurationModel,
    next_reserve_id: u64,
}

/// Bulk per-channel load.
pub const BULK_LOAD: f64 = 0.5;
/// Mean hold of bulk cells and reservations, in slots.
pub const BULK_MEAN_HOLD: f64 = 4.0;
/// Reservation lead, in slots.
pub const RESERVE_LEAD: u32 = 4;
const RESERVE_PROBABILITY: f64 = 0.25;
const RELEASE_PROBABILITY: f64 = 0.25;

impl BulkGen {
    /// A bulk stream.
    pub fn new(seed: u64) -> BulkGen {
        let holds = DurationModel::Geometric { mean: BULK_MEAN_HOLD };
        BulkGen { batches: BatchGen::new(seed, BULK_LOAD, holds), holds, next_reserve_id: 0 }
    }

    /// Fills `out` with the next cell batch and returns the round's extras.
    pub fn next_round(
        &mut self,
        out: &mut Vec<SubmitRequest>,
        spans: Option<&mut Spans>,
    ) -> BulkExtras {
        self.batches.next_batch(out, spans);
        let rng = self.batches.rng();
        let reserve = rng.gen_bool(RESERVE_PROBABILITY).then(|| {
            let r = ReserveRequest {
                id: RESERVE_ID_BASE + self.next_reserve_id,
                src_fiber: rng.gen_range(0..N) as u32,
                src_wavelength: rng.gen_range(0..K) as u32,
                dst_fiber: rng.gen_range(0..N) as u32,
                start_in: RESERVE_LEAD,
                duration: self.holds.sample(rng),
            };
            self.next_reserve_id += 1;
            r
        });
        let release = rng.gen_bool(RELEASE_PROBABILITY);
        BulkExtras { reserve, release }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed(seed: u64, rounds: usize) -> Vec<Vec<SubmitRequest>> {
        let mut g = BatchGen::new(seed, 0.5, DurationModel::Deterministic(1));
        let mut out = Vec::new();
        (0..rounds)
            .map(|_| {
                g.next_batch(&mut out, None);
                out.clone()
            })
            .collect()
    }

    #[test]
    fn same_seed_same_closed_batches() {
        assert_eq!(closed(42, 20), closed(42, 20));
        assert_ne!(closed(42, 20), closed(43, 20));
        let batches = closed(7, 200);
        let mean = batches.iter().map(Vec::len).sum::<usize>() as f64 / 200.0;
        // N·k·load = 256 requests per batch on average.
        assert!((mean - 256.0).abs() < 8.0, "mean batch {mean}");
        let mut ids: Vec<u64> = batches.iter().flatten().map(|r| r.id).collect();
        let len = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), len, "ids are unique and increasing");
    }

    #[test]
    fn same_seed_same_probe_and_bulk_rounds() {
        let run = |seed| {
            let mut probe = ProbeGen::new(seed);
            let mut bulk = BulkGen::new(seed);
            let (mut p, mut b) = (Vec::new(), Vec::new());
            (0..50)
                .map(|_| {
                    probe.next_batch(&mut p);
                    let extras = bulk.next_round(&mut b, None);
                    (p.clone(), b.clone(), extras)
                })
                .collect::<Vec<_>>()
        };
        let a = run(9);
        assert_eq!(a, run(9));
        assert_ne!(a, run(10));
        assert!(a.iter().all(|(p, _, _)| (1..=4).contains(&p.len())));
        let reserves = a.iter().filter(|(_, _, e)| e.reserve.is_some()).count();
        assert!((5..=25).contains(&reserves), "about a quarter of 50 rounds reserve: {reserves}");
        assert!(a
            .iter()
            .flat_map(|(_, _, e)| e.reserve)
            .all(|r| r.id >= RESERVE_ID_BASE && r.start_in == RESERVE_LEAD && r.duration >= 1));
    }

    #[test]
    fn stream_seeds_differ_by_salt() {
        assert_ne!(stream_seed(1, 1), stream_seed(1, 2));
        assert_eq!(stream_seed(5, 3), stream_seed(5, 3));
    }
}
