//! Host clocks and the machine-normalising reference probe.
//!
//! Host time on a shared virtual machine drifts by tens of percent between
//! processes, and it drifts the same way for every piece of CPU work in the
//! process. Every timed operation is therefore paired with adjacent runs of
//! a fixed reference probe, and reported in *normalised seconds*:
//!
//! ```text
//! normalised = raw_seconds * PROBE_REF_S / probe_seconds
//! ```
//!
//! where `probe_seconds` is the median of the probe runs within
//! [`PROBE_WINDOW_S`] of the operation (a probe runs before an operation
//! unless one ended within [`PROBE_REUSE_S`], and once after the last).
//! `PROBE_REF_S` is the probe's nominal duration, so on a machine where the
//! probe takes exactly that long normalised and raw seconds agree. The probe
//! is benchmark code: no change to the simulator can move it.

use crate::run::median;
use std::hint::black_box;
use std::time::Instant;

/// Nominal probe duration in seconds (the unit of normalised time).
pub const PROBE_REF_S: f64 = 0.040;

/// Probe array length: 4 Mi `u64` words, 32 MiB, well beyond the last-level
/// cache, so the walk exercises the memory hierarchy as the simulator does.
const PROBE_WORDS: usize = 1 << 22;

/// Read-modify-write steps per probe run (about 40 ms on a 2-vCPU KVM host).
const PROBE_STEPS: u64 = 3 << 20;

/// An operation reuses the last probe run if it ended less than this long
/// ago, so short operations do not pay a probe each.
const PROBE_REUSE_S: f64 = 0.5;

/// Probe runs this close to an operation normalise it.
const PROBE_WINDOW_S: f64 = 2.0;

/// A fixed xorshift random read-modify-write walk over a 32 MiB array, and
/// the record of its runs.
pub struct Probe {
    words: Vec<u64>,
    state: u64,
    origin: Instant,
    /// (start ns, end ns, seconds) of every probe run.
    runs: Vec<(u64, u64, f64)>,
}

/// When a timed operation ran, in ns since the probe was created.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interval {
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

impl Interval {
    /// Wall-clock seconds.
    pub fn raw_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

impl Probe {
    /// Allocates and touches the probe array.
    pub fn new() -> Self {
        let words = (0..PROBE_WORDS as u64).collect();
        Probe {
            words,
            state: 0x9E37_79B9_7F4A_7C15,
            origin: Instant::now(),
            runs: Vec::new(),
        }
    }

    /// The instant all intervals and spans are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs the walk once and records its wall-clock duration.
    pub fn run(&mut self) {
        let start_ns = self.now_ns();
        let start = Instant::now();
        let mask = PROBE_WORDS as u64 - 1;
        let mut x = self.state;
        for _ in 0..PROBE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x & mask) as usize;
            self.words[i] = self.words[i].wrapping_mul(3).wrapping_add(x);
        }
        self.state = black_box(x);
        black_box(&mut self.words);
        let secs = start.elapsed().as_secs_f64();
        self.runs.push((start_ns, self.now_ns(), secs));
    }

    /// Runs the probe (unless one ended within [`PROBE_REUSE_S`]), then
    /// times `op`.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, Interval) {
        let fresh = self
            .runs
            .last()
            .is_some_and(|&(_, end, _)| self.now_ns() - end < (PROBE_REUSE_S * 1e9) as u64);
        if !fresh {
            self.run();
        }
        let start_ns = self.now_ns();
        let out = op();
        (
            out,
            Interval {
                start_ns,
                end_ns: self.now_ns(),
            },
        )
    }

    /// Normalised seconds of the interval `[start_ns, end_ns]`.
    pub fn norm_s(&self, start_ns: u64, end_ns: u64) -> f64 {
        let w = (PROBE_WINDOW_S * 1e9) as u64;
        let near: Vec<f64> = self
            .runs
            .iter()
            .filter(|&&(s, e, _)| e + w >= start_ns && s <= end_ns + w)
            .map(|r| r.2)
            .collect();
        let probe_s = if near.is_empty() {
            median(&self.runs.iter().map(|r| r.2).collect::<Vec<_>>())
        } else {
            median(&near)
        };
        (end_ns - start_ns) as f64 * 1e-9 * PROBE_REF_S / probe_s
    }
}
