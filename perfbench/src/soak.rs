//! The `soak` workload: chaos soaks of the recoverable services.
//!
//! One operation is one `run_soak` cell; a pass is every app x backend x
//! fault rate, each cell with its own seed derived from the benchmark seed.
//! The plan is the soak binary's bench plan (100 cycles of at most 3 steps
//! at width 96).
//!
//! Known defect, shown rather than avoided: every app under the two
//! checksum-validated backends (`lp`, `adaptive`) at 200 bp fails the soak
//! oracles for some seeds ("uncheckpointed epoch in flight after restore",
//! "uncommitted transaction in flight after restore", "receipt written
//! before consume", "progress not monotone"). Hard-failed cycles in those
//! cells count as failed operations but not as a malfunction of the
//! benchmark; a failure in any other cell does.

use crate::clock::Probe;
use crate::metrics::{Values, SOAK_BACKENDS, SOAK_FAULT_BP};
use crate::run::{digest_of, mix, percentile, Op, Workload};
use crate::trace::Tracer;
use gpu_lp::BackendKind;
use lp_apps::AppKind;
use lp_fault::{run_soak, SoakReport, SoakSpec};

/// Cells with a known, not yet fixed, soak-oracle failure: (app, backend,
/// fault bp).
pub const KNOWN_DEFECTS: [(AppKind, BackendKind, u32); 6] = [
    (AppKind::Queue, BackendKind::LpChecksum, 200),
    (AppKind::Queue, BackendKind::Adaptive, 200),
    (AppKind::Train, BackendKind::LpChecksum, 200),
    (AppKind::Train, BackendKind::Adaptive, 200),
    (AppKind::KvTxn, BackendKind::LpChecksum, 200),
    (AppKind::KvTxn, BackendKind::Adaptive, 200),
];

/// Seed of the warm-up cells.
const WARMUP_SEED: u64 = 1;

/// Cycles, steps per cycle and width of a soak cell.
#[derive(Clone, Copy)]
pub struct Plan {
    /// Crash-recover-resume cycles per cell.
    pub cycles: u64,
    /// Upper bound on service steps per cycle.
    pub steps: u64,
    /// Per-step work width.
    pub width: u64,
}

/// The soak binary's bench plan.
pub const BENCH_PLAN: Plan = Plan {
    cycles: 100,
    steps: 3,
    width: 96,
};

/// The soak cells and their first-pass reports.
pub struct Soak {
    specs: Vec<SoakSpec>,
    first: Vec<Option<SoakReport>>,
}

impl Soak {
    /// Derives the cells' specs and runs the warm-up: the first cell of
    /// every app, with a fixed seed so that set-up cost does not depend on
    /// how far the seed's crash schedule lets a cell run.
    pub fn setup(plan: Plan, seed: u64) -> Self {
        let mut specs = Vec::new();
        for app in AppKind::ALL {
            for backend in SOAK_BACKENDS {
                for fault_bp in SOAK_FAULT_BP {
                    specs.push(SoakSpec {
                        app,
                        backend,
                        seed: mix(seed ^ mix(specs.len() as u64)),
                        cycles: plan.cycles,
                        max_steps_per_cycle: plan.steps,
                        fault_bp,
                        width: plan.width,
                    });
                }
            }
        }
        let per_app = specs.len() / AppKind::ALL.len();
        for spec in specs.iter().step_by(per_app) {
            run_soak(&SoakSpec {
                seed: WARMUP_SEED,
                ..spec.clone()
            });
        }
        Soak {
            first: vec![None; specs.len()],
            specs,
        }
    }
}

impl Workload for Soak {
    fn len(&self) -> usize {
        self.specs.len()
    }

    fn run(&mut self, i: usize, probe: &mut Probe, tr: &mut Tracer) -> Op {
        let spec = &self.specs[i];
        let (r, at) = probe.time(|| tr.span("fault.run_soak", i, |_| run_soak(spec)));
        let mut op = Op::timed(at);
        op.work = r.cycles.len() as u64;
        op.attempted = op.work;
        op.failed = r.failures().len() as u64;
        let known = KNOWN_DEFECTS.contains(&(spec.app, spec.backend, spec.fault_bp));
        op.unexpected = if known { 0 } else { op.failed };
        op.digest = digest_of(&r);
        if self.first[i].is_none() {
            for c in r.failures() {
                let tag = if known { "known defect" } else { "UNEXPECTED" };
                eprintln!(
                    "soak {tag}: {} seed {:#x} cycle {}: {:?}",
                    spec.label(),
                    spec.seed,
                    c.cycle,
                    c.violations
                );
            }
        }
        self.first[i].get_or_insert(r);
        op
    }

    fn work_unit(&self) -> &'static str {
        "cycles"
    }

    fn model(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ns: Vec<f64> = self
            .first
            .iter()
            .flatten()
            .flat_map(|r| &r.cycles)
            .map(|c| c.restoration_ns as f64)
            .collect();
        let p = |q| {
            if ns.is_empty() {
                0.0
            } else {
                percentile(&ns, q) / 1e3
            }
        };
        vec![
            ("model_restore_us_p50", p(50.0), "us"),
            ("model_restore_us_p95", p(95.0), "us"),
        ]
    }

    fn layers(&self, tr: &Tracer, probe: &Probe, m: &mut Values) {
        for (name, v, _) in self.model() {
            m.insert(format!("apps.{name}"), v);
        }
        // Normalised ms per cycle over the cells matching `pred`.
        let cycle_ms = |pred: &dyn Fn(&SoakSpec) -> bool| {
            let (mut secs, mut cycles) = (0.0, 0usize);
            for (i, spec) in self.specs.iter().enumerate() {
                if let (true, Some(s), Some(r)) = (
                    pred(spec),
                    tr.median_s(probe, "fault.run_soak", i),
                    &self.first[i],
                ) {
                    secs += s;
                    cycles += r.cycles.len();
                }
            }
            if cycles == 0 {
                0.0
            } else {
                secs / cycles as f64 * 1e3
            }
        };
        for app in AppKind::ALL {
            m.insert(
                format!("apps.cycle_ms.{}", app.name()),
                cycle_ms(&|s| s.app == app),
            );
        }
        for b in SOAK_BACKENDS {
            m.insert(
                format!("persist.cycle_ms.{}", b.name()),
                cycle_ms(&|s| s.backend == b),
            );
        }
        for bp in SOAK_FAULT_BP {
            m.insert(
                format!("nvm.cycle_ms.bp{bp}"),
                cycle_ms(&|s| s.fault_bp == bp),
            );
        }
        let reports: Vec<&SoakReport> = self.first.iter().flatten().collect();
        let cycles = |f: &dyn Fn(&lp_fault::CycleRecord) -> u64| {
            reports.iter().flat_map(|r| &r.cycles).map(f).sum::<u64>() as f64
        };
        m.insert(
            "apps.steps".into(),
            reports.iter().map(|r| r.total_steps).sum::<u64>() as f64,
        );
        m.insert(
            "apps.restore_calls".into(),
            cycles(&|c| c.restore_calls.into()),
        );
        m.insert(
            "apps.recovery_attempts".into(),
            cycles(&|c| c.recovery_attempts.into()),
        );
        m.insert(
            "fault.waived_cycles".into(),
            cycles(&|c| u64::from(c.waived_by_contract)),
        );
        m.insert(
            "fault.failed_cycles".into(),
            cycles(&|c| u64::from(!c.passed && !c.waived_by_contract)),
        );
    }
}
