//! A fixed reference computation, timed between the workload's
//! measurements, that gauges how fast the runner's CPUs are at the time.
//!
//! On a shared host the same binary runs a tenth or more slower or faster
//! from one minute to the next, even in CPU time: neighbours on the same
//! physical cores and caches slow every instruction down. The kernel here
//! is built only from the standard library — graph search, hashing,
//! sorting and floating-point sweeps, the kinds of work the controller
//! does — so no change to the program under test changes its speed. It is
//! timed in thread CPU time, as the metrics it scales are, on each CPU the
//! program's work runs on, since one virtual CPU can be slowed while the
//! other is not. The timing metrics are reported at the reference speed:
//! each is scaled by how much slower or faster than [`REFERENCE_MS`] the
//! kernel ran on those CPUs in the same run.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;

use crate::measure;

/// Median kernel CPU time, in ms, that defines the reference speed: about
/// what one kernel run takes on a 2-vCPU Xeon (Sapphire Rapids) KVM guest.
pub const REFERENCE_MS: f64 = 2.5;
/// Nodes and out-degree of the kernel's fixed random graph.
const NODES: usize = 2048;
const DEGREE: usize = 6;
/// Side of the kernel's dense matrix and the Jacobi sweeps over it:
/// floating-point work, which the controller's solvers are made of, is
/// about a third of the kernel's time.
const SIDE: usize = 96;
const JACOBI_SWEEPS: usize = 120;

pub struct Calibration {
    adjacency: Vec<Vec<(u32, u32)>>,
    matrix: Vec<f64>,
    keys: Vec<u64>,
    /// The CPUs the program's work runs on.
    cpus: Vec<usize>,
    /// Kernel times on each of `cpus`, ms.
    samples: Vec<Vec<f64>>,
}

/// xorshift64*: a fixed stream, independent of the repository's RNG.
fn next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

impl Calibration {
    /// A calibration of `cpus`, the CPUs the program's work runs on.
    pub fn new(cpus: Vec<usize>) -> Calibration {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let adjacency = (0..NODES)
            .map(|_| {
                (0..DEGREE)
                    .map(|_| {
                        let to = (next(&mut s) % NODES as u64) as u32;
                        (to, 1 + (next(&mut s) % 100) as u32)
                    })
                    .collect()
            })
            .collect();
        let matrix = (0..SIDE * SIDE)
            .map(|i| {
                let off = (next(&mut s) % 1000) as f64 / 1e5;
                if i % (SIDE + 1) == 0 {
                    2.0
                } else {
                    off
                }
            })
            .collect();
        let keys = (0..8192).map(|_| next(&mut s)).collect();

        Calibration {
            adjacency,
            matrix,
            keys,
            samples: vec![Vec::new(); cpus.len()],

            cpus,
        }
    }

    /// Shortest paths from two sources.
    fn paths(&self) -> u64 {
        let mut sum = 0u64;
        let mut dist = vec![u32::MAX; NODES];
        let mut heap = BinaryHeap::new();
        for source in [0u32, 1024] {
            dist.fill(u32::MAX);
            dist[source as usize] = 0;
            heap.push(Reverse((0u32, source)));
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > dist[u as usize] {
                    continue;
                }
                for &(v, w) in &self.adjacency[u as usize] {
                    let nd = d + w;
                    if nd < dist[v as usize] {
                        dist[v as usize] = nd;
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
            sum = sum.wrapping_add(dist.iter().map(|&d| u64::from(d.min(1 << 20))).sum());
        }
        sum
    }

    /// Counts key residues in a hash map, then looks every key up.
    fn hashing(&self) -> u64 {
        let mut sum = 0u64;
        // Fixed hash keys: the standard `RandomState` draws new ones per
        // process, which would make the kernel's speed vary between runs.
        let mut counts: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for &k in &self.keys {
            *counts.entry(k % 4093).or_insert(0) += 1;
        }
        for &k in &self.keys {
            sum = sum.wrapping_add(u64::from(counts[&(k % 4093)]));
        }
        sum
    }

    /// Sorts a fresh copy of the keys.
    fn sorting(&self) -> u64 {
        let mut sorted = self.keys.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    }

    /// Jacobi sweeps on a diagonally dominant dense system.
    fn jacobi(&self) -> u64 {
        let mut x = vec![0.0f64; SIDE];
        let mut y = vec![0.0f64; SIDE];
        for _ in 0..JACOBI_SWEEPS {
            for (i, yi) in y.iter_mut().enumerate() {
                let row = &self.matrix[i * SIDE..(i + 1) * SIDE];
                let off: f64 = row.iter().zip(&x).map(|(a, b)| a * b).sum::<f64>() - row[i] * x[i];
                *yi = (1.0 - off) / row[i];
            }
            std::mem::swap(&mut x, &mut y);
        }
        x.iter().map(|v| v.to_bits() >> 40).sum::<u64>()
    }

    /// One run of the kernel; returns a checksum so none of it is elided.
    fn kernel(&self) -> u64 {
        self.paths()
            .wrapping_add(self.hashing())
            .wrapping_add(self.sorting())
            .wrapping_add(self.jacobi())
    }

    /// Times `reps` runs of the kernel on each of the CPUs, the calling
    /// thread pinned to each in turn; afterwards it may run anywhere again.
    pub fn sample(&mut self, reps: usize) -> Result<(), String> {
        let free = measure::affinity(0)?;
        for i in 0..self.cpus.len() {
            measure::set_affinity(0, 1 << self.cpus[i])?;
            for _ in 0..reps {
                let started = measure::this_thread_cpu_s();
                black_box(self.kernel());
                self.samples[i].push((measure::this_thread_cpu_s() - started) * 1e3);
            }
        }
        measure::set_affinity(0, free)
    }

    /// Median kernel time of the run so far on each CPU, ms.
    pub fn median_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| measure::median(s)).collect()
    }

    /// Speed of the CPUs relative to the reference, their mean: 1 at the
    /// reference speed, below 1 when they are slower. A time measured on
    /// this runner times `speed()` is the time at the reference speed; a
    /// rate divided by it is the rate at the reference speed.
    pub fn speed(&self) -> f64 {
        let speeds: Vec<f64> = self
            .median_ms()
            .iter()
            .map(|ms| REFERENCE_MS / ms)
            .collect();
        measure::mean(&speeds)
    }

    /// The CPUs timed, as given.
    pub fn cpus(&self) -> &[usize] {
        &self.cpus
    }

    /// Kernel runs timed, over all CPUs.
    pub fn count(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }
}
