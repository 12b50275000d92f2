//! The measurement loop shared by every workload.
//!
//! A workload is a fixed list of deterministic operations built from the
//! seed. The loop runs whole passes over the list until the measuring time
//! is up (at least one pass; two in a traced run), timing each operation
//! right after a probe run. Every repeat of an operation must reproduce the
//! model digest of its first run, so each run also checks determinism.
//!
//! The correctness counts come from the first pass alone (plus any repeat
//! that broke determinism), so `attempted` and `failed` depend only on the
//! seed and the size, never on how many passes the time allowed.

use crate::clock::{Interval, Probe};
use crate::metrics::Values;
use crate::trace::Tracer;
use std::time::Instant;

/// The outcome of one operation.
#[derive(Debug, Clone, Default)]
pub struct Op {
    /// When the timed part of the operation ran.
    pub at: Interval,
    /// Work units the operation completed (accesses, trials or cycles).
    pub work: u64,
    /// Operations attempted (soak: cycles; otherwise 1).
    pub attempted: u64,
    /// Attempted operations that failed a correctness check.
    pub failed: u64,
    /// Failures outside the documented known-defect cells.
    pub unexpected: u64,
    /// Hash over every modelled field the operation produced.
    pub digest: u64,
}

impl Op {
    /// An operation timed at `at` with no results yet.
    pub fn timed(at: Interval) -> Self {
        Op {
            at,
            attempted: 1,
            ..Op::default()
        }
    }
}

/// A workload ready to measure (set-up done).
pub trait Workload {
    /// Operations per pass.
    fn len(&self) -> usize;
    /// Runs operation `i` once. Traced passes (`tr.enabled`) may add
    /// per-layer measurements outside the timed part.
    fn run(&mut self, i: usize, probe: &mut Probe, tr: &mut Tracer) -> Op;
    /// What `work_per_s` counts: "accesses", "trials" or "cycles".
    fn work_unit(&self) -> &'static str;
    /// The workload's exact modelled results: (name, value, unit).
    fn model(&self) -> Vec<(&'static str, f64, &'static str)>;
    /// Per-layer metrics from the traced passes.
    fn layers(&self, tr: &Tracer, probe: &Probe, m: &mut Values);
    /// Whether the benchmark's own consistency checks held.
    fn self_check(&self) -> bool {
        true
    }
}

/// Everything the loop measured.
pub struct Outcome {
    /// First-pass result of every operation.
    pub first: Vec<Op>,
    /// When every operation ran on untraced passes.
    pub plain: Vec<Vec<Interval>>,
    /// When every operation ran on traced passes.
    pub traced: Vec<Vec<Interval>>,
    /// Raw seconds of all timed operations.
    pub raw_s: f64,
    /// Completed passes (the last one may be partial).
    pub passes: usize,
    /// Operations attempted on the first pass.
    pub attempted: u64,
    /// First-pass operations that failed, plus nondeterministic repeats.
    pub failed: u64,
    /// Failures outside the known-defect cells, nondeterminism included.
    pub unexpected: u64,
    /// Repeats whose model digest differed from the first run.
    pub nondeterministic: u64,
}

impl Outcome {
    /// Digest of the whole first pass.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for op in &self.first {
            h.write(&op.digest.to_le_bytes());
        }
        h.finish()
    }

    /// Work per normalised second: first-pass work over the sum of each
    /// operation's median normalised time, from traced or untraced passes.
    pub fn work_per_s(&self, probe: &Probe, traced: bool) -> Option<f64> {
        let runs = if traced { &self.traced } else { &self.plain };
        let mut secs = 0.0;
        for op in runs {
            if op.is_empty() {
                return None;
            }
            let t: Vec<f64> = op
                .iter()
                .map(|at| probe.norm_s(at.start_ns, at.end_ns))
                .collect();
            secs += median(&t);
        }
        let work: u64 = self.first.iter().map(|o| o.work).sum();
        Some(work as f64 / secs)
    }
}

/// Runs passes over `w` for at least `seconds`, then a closing probe. In a
/// traced run even passes are traced and odd passes are not, so the
/// tracing overhead is measured inside one process.
pub fn drive(
    w: &mut dyn Workload,
    probe: &mut Probe,
    tr: &mut Tracer,
    seconds: f64,
    trace: bool,
) -> Outcome {
    let n = w.len();
    let min_passes = if trace { 2 } else { 1 };
    let mut out = Outcome {
        first: Vec::with_capacity(n),
        plain: vec![Vec::new(); n],
        traced: vec![Vec::new(); n],
        raw_s: 0.0,
        passes: 0,
        attempted: 0,
        failed: 0,
        unexpected: 0,
        nondeterministic: 0,
    };
    let start = Instant::now();
    'passes: loop {
        tr.enabled = trace && out.passes.is_multiple_of(2);
        for i in 0..n {
            let op = w.run(i, probe, tr);
            out.raw_s += op.at.raw_s();
            if tr.enabled {
                out.traced[i].push(op.at);
            } else {
                out.plain[i].push(op.at);
            }
            if out.passes == 0 {
                out.attempted += op.attempted;
                out.failed += op.failed;
                out.unexpected += op.unexpected;
                out.first.push(op);
            } else if op.digest != out.first[i].digest {
                out.nondeterministic += 1;
                out.failed += 1;
                out.unexpected += 1;
            }
            let mid_pass = i + 1 < n;
            if mid_pass && out.passes >= min_passes && start.elapsed().as_secs_f64() >= seconds {
                break 'passes;
            }
        }
        out.passes += 1;
        if out.passes >= min_passes && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    tr.enabled = false;
    probe.run();
    out
}

/// Median of a non-empty slice.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Geometric mean of a non-empty slice of positive values.
pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Nearest-rank percentile of a non-empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank - 1]
}

/// SplitMix64, used to derive every input seed from the benchmark seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a, the model digest hash.
pub struct Fnv(u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a value's `Debug` rendering, which prints every field and
/// every float with all its digits.
pub fn digest_of(v: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv::new();
    h.write(format!("{v:?}").as_bytes());
    h.finish()
}
