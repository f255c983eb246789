//! The speed of the host, measured next to the program.
//!
//! The benchmark runs on a few virtual cores of a shared host, whose
//! speed drifts by tens of percent over seconds to minutes as other
//! tenants come and go. Before each program and after the last one, the
//! benchmark times a fixed reference kernel ([`Clock::sample`]). Each
//! program's time is then scaled by [`NOMINAL_NS`] over the median
//! kernel time of the samples taken within [`WINDOW`] of the program
//! ([`Clock::scale`]). A time so scaled reads as it would on the host at
//! its quiet speed.
//!
//! The kernel is the benchmark's own code and touches neither the heap
//! nor any crate of the program, so no change to the program, its
//! allocator included, can change the kernel's cost: a faster program
//! shows in full in the scaled times.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel time on a quiet 2 GHz Xeon VM, the speed times are scaled to.
pub const NOMINAL_NS: f64 = 250_000.0;

/// Kernel samples taken at each sampling point.
const SAMPLES: usize = 3;

/// Samples taken this long before a program starts or after it ends
/// also count towards its scale.
const WINDOW: Duration = Duration::from_millis(500);

/// Steps of the kernel: SplitMix64 outputs (64-bit adds, multiplies
/// and shifts) folded into one accumulator by rotate and xor, about
/// 0.25 ms at [`NOMINAL_NS`].
const STEPS: u64 = 200_000;

fn kernel(seed: u64) -> u64 {
    let mut x = seed;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc = acc.rotate_left(7) ^ z ^ (z >> 31);
    }
    acc
}

/// Kernel samples taken at sampling points along a sequence of timed
/// work: point `k` lies just before work item `k`, and the last point
/// after the last item.
pub struct Clock {
    start: Instant,
    /// When each point was taken, since `start`.
    at: Vec<Duration>,
    /// Per point, its kernel times in nanoseconds.
    samples: Vec<[u64; SAMPLES]>,
}

impl Clock {
    pub fn new() -> Clock {
        Clock {
            start: Instant::now(),
            at: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Takes the next sampling point.
    pub fn sample(&mut self) {
        let at = self.start.elapsed();
        let mut s = [0; SAMPLES];
        for ns in &mut s {
            let t = Instant::now();
            black_box(kernel(black_box(1)));
            *ns = t.elapsed().as_nanos() as u64;
        }
        self.at.push(at);
        self.samples.push(s);
    }

    /// The factor that scales work item `k`'s time to the quiet speed:
    /// [`NOMINAL_NS`] over the median of the samples of the points
    /// around it (`k` and `k + 1`) and of every point within [`WINDOW`]
    /// of them.
    pub fn scale(&self, k: usize) -> f64 {
        let lo = self.at[k].saturating_sub(WINDOW);
        let hi = self.at[k + 1] + WINDOW;
        let mut s: Vec<u64> = (0..self.at.len())
            .filter(|&p| p == k || p == k + 1 || (lo..=hi).contains(&self.at[p]))
            .flat_map(|p| self.samples[p])
            .collect();
        s.sort_unstable();
        NOMINAL_NS / s[s.len() / 2] as f64
    }

    /// The median of all samples, in nanoseconds.
    pub fn median_ns(&self) -> f64 {
        let mut s: Vec<u64> = self.samples.iter().flatten().copied().collect();
        s.sort_unstable();
        s[s.len() / 2] as f64
    }
}
