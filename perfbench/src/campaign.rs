//! The `campaign` workload: crash-injection trials at bench scale.
//!
//! The candidates are the pruned default sweep (every subject, the
//! `recommended` and `quad` design points, seeds 1 and 2, the full site
//! catalogue) on the LP backend, plus the adaptive backend for the
//! policy-switch class, which only that backend can exercise (it is the
//! one class judged by oracle O5). The sample is stratified: one trial of
//! every (subject, site class) pair that has a candidate, with a fixed
//! design point and site intensity per stratum and an input seed derived
//! from the benchmark seed. The trials' coordinates, and so the sample's
//! cost, are the same for every seed; the seed changes the inputs and the
//! device-fault sequences.

use crate::clock::Probe;
use crate::metrics::{site_class, Values, SITE_CLASSES};
use crate::run::{digest_of, mix, percentile, Op, Workload};
use crate::trace::Tracer;
use gpu_lp::BackendKind;
use lp_fault::{run_trial, CampaignSpec, TrialId, TrialResult, SUBJECT_NAMES};
use lp_kernels::Scale;

/// Wall-clock limit past which a trial counts as timed out.
const TRIAL_TIMEOUT_S: f64 = 60.0;

/// The sampled trials and their first-pass results.
pub struct Campaign {
    scale: Scale,
    trials: Vec<TrialId>,
    pruned: usize,
    first: Vec<Option<TrialResult>>,
}

impl Campaign {
    /// Enumerates and prunes the sweep, draws the sample and runs the
    /// warm-up: one cheap sampled trial (between-kernels crash, or the
    /// subject's first) of every subject.
    pub fn setup(scale: Scale, seed: u64, tr: &mut Tracer) -> Self {
        let mut spec = CampaignSpec::default_sweep(scale);
        spec.prune = true;
        spec.backends = vec![BackendKind::LpChecksum, BackendKind::Adaptive];
        let (ids, ledger) = tr.span("fault.enumerate", 0, |_| spec.enumerate_explained());
        let candidates: Vec<TrialId> = ids
            .into_iter()
            .filter(|id| {
                let policy = site_class(&id.site) == "policy-switch";
                policy == (id.backend == BackendKind::Adaptive)
            })
            .collect();
        let trials = sample(&candidates, seed);
        for subject in SUBJECT_NAMES {
            let of_subject = || trials.iter().filter(|id| id.workload == subject);
            let warm = of_subject().find(|id| site_class(&id.site) == "between-kernels");
            if let Some(id) = warm.or_else(|| of_subject().next()) {
                run_trial(id, scale);
            }
        }
        Campaign {
            scale,
            first: vec![None; trials.len()],
            trials,
            pruned: ledger.len(),
        }
    }
}

/// Draws one trial per (subject, site class) stratum: stratum `k` takes
/// candidate `k mod len` (spreading intensities and design points across
/// subjects) with an input seed derived from `seed`.
fn sample(candidates: &[TrialId], seed: u64) -> Vec<TrialId> {
    let mut out = Vec::new();
    for (s, subject) in SUBJECT_NAMES.iter().enumerate() {
        for (c, class) in SITE_CLASSES.iter().enumerate() {
            let stratum: Vec<&TrialId> = candidates
                .iter()
                .filter(|id| id.workload == *subject && site_class(&id.site) == *class)
                .collect();
            if !stratum.is_empty() {
                let k = s * SITE_CLASSES.len() + c;
                let mut id = stratum[k % stratum.len()].clone();
                id.seed = mix(seed ^ mix(k as u64));
                out.push(id);
            }
        }
    }
    out
}

impl Workload for Campaign {
    fn len(&self) -> usize {
        self.trials.len()
    }

    fn run(&mut self, i: usize, probe: &mut Probe, tr: &mut Tracer) -> Op {
        let (id, scale) = (&self.trials[i], self.scale);
        let (r, at) = probe.time(|| tr.span("fault.run_trial", i, |_| run_trial(id, scale)));
        let mut op = Op::timed(at);
        op.work = 1;
        op.failed = u64::from(!r.passed || r.timed_out || at.raw_s() > TRIAL_TIMEOUT_S);
        op.unexpected = op.failed;
        op.digest = digest_of(&r);
        self.first[i].get_or_insert(r);
        op
    }

    fn work_unit(&self) -> &'static str {
        "trials"
    }

    fn model(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ns: Vec<f64> = self
            .first
            .iter()
            .flatten()
            .filter(|r| r.crashed)
            .map(|r| r.recovery_ns as f64)
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
            m.insert(format!("fault.{name}"), v);
        }
        m.insert(
            "fault.enumerate_s".into(),
            tr.median_s(probe, "fault.enumerate", 0).unwrap_or(0.0),
        );
        // Mean over a group's trials of each trial's median time, in ms.
        let mean_ms = |pred: &dyn Fn(&TrialId) -> bool| {
            let v: Vec<f64> = (0..self.trials.len())
                .filter(|&i| pred(&self.trials[i]))
                .filter_map(|i| tr.median_s(probe, "fault.run_trial", i))
                .collect();
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64 * 1e3
            }
        };
        for c in SITE_CLASSES {
            m.insert(
                format!("fault.trial_ms.{c}"),
                mean_ms(&|id| site_class(&id.site) == c),
            );
        }
        for s in SUBJECT_NAMES {
            m.insert(
                format!("fault.trial_ms.{s}"),
                mean_ms(&|id| id.workload == s),
            );
        }
        let results: Vec<&TrialResult> = self.first.iter().flatten().collect();
        let sum =
            |f: &dyn Fn(&TrialResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
        m.insert("fault.trials".into(), self.trials.len() as f64);
        m.insert("fault.pruned".into(), self.pruned as f64);
        m.insert("fault.crashed".into(), sum(&|r| u64::from(r.crashed)));
        m.insert("core.failed_regions".into(), sum(&|r| r.failed_regions));
        m.insert("core.reexecutions".into(), sum(&|r| r.reexecutions));
        m.insert(
            "core.recovery_rounds".into(),
            sum(&|r| r.recovery_rounds.into()),
        );
        m.insert(
            "core.quarantined_lines".into(),
            sum(&|r| r.quarantined_lines),
        );
        m.insert(
            "core.degraded_reexecutions".into(),
            sum(&|r| r.degraded_reexecutions),
        );
    }
}
