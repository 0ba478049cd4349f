//! A fixed reference kernel timed between the cells of a measured pass.
//!
//! Other tenants of a shared host slow the simulator down at every time
//! scale, from one cell to minutes: on a 2-vCPU VM the `spec-default`
//! matrix took 6.3 s of host time in one phase and 9.2 s in another. The
//! probe is work that slows down with the simulator but never changes with
//! the program, so the ratio of its reference time to its median time in a
//! run measures how fast the host ran that run, and the run's host times
//! are scaled by it. One sample is two kernels back to back: a small
//! set-associative cache model over a 1 MiB tag array (the tag searches
//! and replacement shuffles the simulator's hierarchy is made of) and a
//! register-only loop of unpredictable branches (the simulator's control
//! flow). Either alone tracked the simulator less well on some hosts.

use crate::out::median;
use std::hint::black_box;
use std::time::Instant;

/// The cache model: 8-way sets of `u64` line tags, 1 MiB in all, and the
/// accesses it models per sample.
const WAYS: usize = 8;
const TAGS: usize = 1 << 17;
const ACCESSES: usize = 1_000_000;

/// Iterations of the branch loop per sample.
const BRANCHES: usize = 3_000_000;

/// The tag array's resident size in MB (MiB, as `peak_rss_mb` counts).
pub const PROBE_MB: f64 = (TAGS * 8) as f64 / (1024.0 * 1024.0);

/// The reference time of one sample, about the fastest median seen on a
/// 2-vCPU x86 VM (Xeon, 2.0 GHz). Scaled host times are what the run
/// would have taken on a host that runs the probe in this time.
pub const REF_S: f64 = 0.050;

/// How much more the simulator slows down than the probe, as the ratio of
/// their logarithms: the slope of log cell time against log probe time,
/// fitted over 30-s blocks of interleaved cells and samples, was 1.0 to
/// 1.8 (README.md, "Scaling by the probe"), and about 1.5 over whole
/// `spec-default` runs.
const ELASTICITY: f64 = 1.4;

pub struct Probe {
    tags: Vec<u64>,
    samples: Vec<f64>,
}

impl Probe {
    pub fn new() -> Probe {
        let mut p = Probe {
            tags: vec![0; TAGS],
            samples: Vec::new(),
        };
        // The first sample fills the model's sets; it is not kept.
        p.sample();
        p.samples.clear();
        p
    }

    /// Times one run of the cache model and one of the branch loop.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(cache_model(&mut self.tags));
        black_box(branches());
        self.samples.push(t.elapsed().as_secs_f64());
    }

    /// Median sample time.
    pub fn median_s(&self) -> f64 {
        median(self.samples.clone())
    }

    /// The factor that turns host times taken while these samples were
    /// taken into reference-host times.
    pub fn scale(&self) -> f64 {
        (REF_S / self.median_s()).powf(ELASTICITY)
    }

    /// Starts a new set of samples and returns the old set's `scale`.
    pub fn restart(&mut self) -> f64 {
        let scale = self.scale();
        self.samples.clear();
        scale
    }
}

/// `ACCESSES` lookups in an LRU cache of `TAGS / WAYS` sets: a hit moves
/// its way to the front, a miss evicts the last way. A quarter of the
/// stream is spread over 2^44 lines (misses), the rest over 64 K lines, 4
/// per set (mostly hits). The stream restarts from the same seed every
/// time, so every sample does the same work once the sets are full.
/// Returns the hit count.
fn cache_model(tags: &mut [u64]) -> u64 {
    let sets = tags.len() / WAYS;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut hits = 0;
    for _ in 0..ACCESSES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let line = if x & 3 == 0 {
            x >> 20
        } else {
            (x >> 40) & 0xffff
        };
        let set = &mut tags[(line as usize % sets) * WAYS..][..WAYS];
        match set.iter().position(|&t| t == line) {
            Some(way) => {
                hits += 1;
                set[..=way].rotate_right(1);
            }
            None => {
                set.rotate_right(1);
                set[0] = line;
            }
        }
    }
    hits
}

/// `BRANCHES` steps of a xorshift generator, each taking one of three
/// paths on the generator's low bits; returns the accumulator.
fn branches() -> u64 {
    let mut x = 0x1234_5678_9ABC_DEF1u64;
    let mut acc = 0u64;
    for _ in 0..BRANCHES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 1 == 0 {
            acc = acc.wrapping_add(x >> 3);
        } else if x & 6 == 2 {
            acc ^= x;
        } else {
            acc = acc.rotate_left(5);
        }
    }
    acc
}
