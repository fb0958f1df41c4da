//! Host speed: a fixed probe owned by the benchmark, timed between the
//! slices of every timed window, so that time metrics can be reported at
//! the reference host's speed.
//!
//! On a shared 2-vCPU host the speed drifts by a fifth or more over
//! minutes as other tenants come and go, and a run's tile latencies drift
//! with it. The probe does the kind of work a tile render does, on as many
//! threads as the server has workers: Gaussian kernel sums over a fixed
//! point set, so it slows with the host's cores, memory and exp throughput
//! alike. It is the benchmark's own code ([`Exact`]), not the program's,
//! so a change to the program moves the scaled metrics exactly as it moves
//! the raw ones.
//!
//! Ten seeded runs of each workload on the reference host, scaled slice
//! by slice offline (IQR/median of tile p50 / p99 / tiles per second, raw
//! → scaled): `cold_sweep` 0.21 / 0.18 / 0.22 → 0.08 / 0.03 / 0.08;
//! `ingest_churn` 0.21 / 0.20 / 0.19 → 0.08 / 0.15 / 0.07.

use kdv_geom::PointSet;

use crate::exact::Exact;
use crate::requests::Rng;

/// Points in the probe's kernel sums.
const POINTS: usize = 20_000;
/// Kernel sums per thread and reading.
const QUERIES: usize = 600;
/// Bandwidth of the probe's kernel, `exp(-γ·d²)` over a 1.5 × 1 box:
/// most terms fall inside [`crate::exact::CUTOFF`], so each costs an exp.
const GAMMA: f64 = 50.0;
/// The probe's time on the reference host, ms: the median over the
/// twenty runs above.
pub const REF_MS: f64 = 120.0;

/// The probe and its readings.
pub struct Probe {
    points: Exact,
    threads: usize,
    /// Every reading taken, ms.
    pub readings: Vec<f64>,
}

impl Probe {
    /// A probe on `threads` threads: the server's worker count.
    pub fn new(threads: usize) -> Self {
        let mut points = Exact::new(&PointSet::new(2), GAMMA);
        let mut rng = Rng::new(0, 0x4057);
        for _ in 0..POINTS {
            points.add(rng.f64() * 1.5, rng.f64(), 1.0);
        }
        Self {
            points,
            threads,
            readings: Vec::new(),
        }
    }

    /// Times the probe once, ms, and keeps the reading.
    pub fn read(&mut self) -> f64 {
        let (points, threads) = (&self.points, self.threads);
        let t = std::time::Instant::now();
        std::thread::scope(|s| {
            for k in 0..threads {
                s.spawn(move || {
                    let y = (k as f64 + 0.5) / threads as f64;
                    let sum: f64 = (0..QUERIES)
                        .map(|q| points.density([q as f64 * 1.5 / QUERIES as f64, y]))
                        .sum();
                    std::hint::black_box(sum);
                });
            }
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.readings.push(ms);
        ms
    }
}

/// The factor that takes a time measured between probe readings `before`
/// and `after` (ms) to the reference host's speed.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * REF_MS / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_scales_times_down() {
        assert_eq!(scale(REF_MS, REF_MS), 1.0);
        assert!((scale(2.0 * REF_MS, 2.0 * REF_MS) - 0.5).abs() < 1e-12);
        let mut p = Probe::new(2);
        assert!(p.read() > 0.0);
        assert_eq!(p.readings.len(), 1);
    }
}
