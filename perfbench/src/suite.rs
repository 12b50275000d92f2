//! The `forward` workload over the eight suite kernels.
//!
//! Set-up builds seeded inputs for every kernel, a baseline world and an LP
//! world (`LpConfig::recommended()` on the default 6 MiB modelled cache),
//! and runs a warm-up pass of one operation per kernel that also yields the
//! reference stats. Every operation starts from a copy of these pristine
//! worlds, so each repeat is bit-identical. Traced passes also measure,
//! outside the timed part, recovery validation, the simt/nvm replay split
//! and the LP launch under the sanitizer.

use crate::clock::Probe;
use crate::metrics::Values;
use crate::replay::{replay, Recorder};
use crate::run::{digest_of, geomean, mix, Op, Workload};
use crate::trace::Tracer;
use gpu_lp::{LpConfig, LpRuntime, RecoveryEngine};
use lp_kernels::{workload_by_name, Scale, WORKLOAD_NAMES};
use nvm::{NvmConfig, NvmStats, PersistMemory};
use simt::{DeviceConfig, Gpu, LaunchStats};

/// One kernel's pristine worlds and reference results.
struct Kernel {
    name: &'static str,
    w: Box<dyn lp_kernels::Workload>,
    base: PersistMemory,
    lp: PersistMemory,
    rt: LpRuntime,
    ref_base: LaunchStats,
    ref_lp: LaunchStats,
    /// Whether each traced replay reproduced the baseline's `NvmStats`.
    replay_faithful: Vec<bool>,
}

impl Kernel {
    /// Fresh copies of the pristine baseline and LP worlds.
    fn worlds(&self) -> (PersistMemory, PersistMemory) {
        (self.base.clone(), self.lp.clone())
    }
}

/// Simulated global accesses a launch issued.
fn accesses(s: &LaunchStats) -> u64 {
    s.nvm.load_ops + s.nvm.store_ops
}

/// The suite kernels, set up and warmed.
pub struct Suite {
    gpu: Gpu,
    kernels: Vec<Kernel>,
    /// Sanitizer findings over the traced passes.
    findings: u64,
}

/// One forward operation's worlds and results.
struct Forward {
    base_mem: PersistMemory,
    lp_mem: PersistMemory,
    base: LaunchStats,
    lp: LaunchStats,
    launched: bool,
}

impl Suite {
    /// Builds inputs, worlds and runtimes for every kernel and runs the
    /// warm-up pass.
    pub fn setup(scale: Scale, seed: u64, tr: &mut Tracer) -> Self {
        let gpu = Gpu::new(DeviceConfig::v100());
        let mut kernels = Vec::new();
        for (k, name) in WORKLOAD_NAMES.into_iter().enumerate() {
            let (w, base) = tr.span("kernels.setup", k, |_| {
                let mut w =
                    workload_by_name(name, scale, mix(seed ^ k as u64)).expect("suite kernel");
                let mut mem = PersistMemory::new(NvmConfig::default());
                w.setup(&mut mem);
                (w, mem)
            });
            let mut lp = base.clone();
            let lc = w.launch_config();
            let rt = tr.span("core.runtime_setup", k, |_| {
                LpRuntime::setup(
                    &mut lp,
                    lc.num_blocks(),
                    lc.threads_per_block(),
                    LpConfig::recommended(),
                )
            });
            lp.flush_all();
            let mut kernel = Kernel {
                name,
                w,
                base,
                lp,
                rt,
                ref_base: LaunchStats::default(),
                ref_lp: LaunchStats::default(),
                replay_faithful: Vec::new(),
            };
            // Operations verify their outputs; the warm-up only supplies
            // the reference stats.
            let warm = forward(
                &gpu,
                &kernel,
                &mut Tracer::new(std::time::Instant::now()),
                k,
                kernel.worlds(),
            );
            kernel.ref_base = warm.base;
            kernel.ref_lp = warm.lp;
            kernels.push(kernel);
        }
        Suite {
            gpu,
            kernels,
            findings: 0,
        }
    }
}

/// One forward operation on copies of `k`'s pristine worlds: the
/// baseline launch, the LP launch and the LP world's `flush_all`. The caller
/// makes the copies before and verifies after the timed part.
fn forward(
    gpu: &Gpu,
    k: &Kernel,
    tr: &mut Tracer,
    i: usize,
    (mut bm, mut lm): (PersistMemory, PersistMemory),
) -> Forward {
    let (kb, kl) = (k.w.kernel(None), k.w.kernel(Some(&k.rt)));
    let (base, lp) = tr.span("forward.op", i, |tr| {
        let base = tr.span("simt.launch_base", i, |_| gpu.launch(kb.as_ref(), &mut bm));
        let lp = tr.span("simt.launch_lp", i, |_| gpu.launch(kl.as_ref(), &mut lm));
        tr.span("nvm.flush", i, |_| lm.flush_all());
        (base, lp)
    });
    let launched = base.is_ok() && lp.is_ok();
    Forward {
        base_mem: bm,
        lp_mem: lm,
        base: base.unwrap_or_default(),
        lp: lp.unwrap_or_default(),
        launched,
    }
}

/// What a traced pass measured besides the operation.
struct Extras {
    /// `validate_all` found no failing region on the clean LP image.
    validated: bool,
    /// The replay reproduced the baseline launch's `NvmStats`.
    replay_faithful: bool,
    /// No findings, and the sanitized launch's stats equal the plain one's.
    sanitizer_clean: bool,
    /// Sanitizer findings (including suppressed ones).
    findings: u64,
}

impl Forward {
    /// Both launches ran and both outputs match the CPU reference.
    fn verify(&mut self, k: &Kernel) -> bool {
        self.launched && k.w.verify(&mut self.base_mem) && k.w.verify(&mut self.lp_mem)
    }
}

impl Workload for Suite {
    fn len(&self) -> usize {
        self.kernels.len()
    }

    fn run(&mut self, i: usize, probe: &mut Probe, tr: &mut Tracer) -> Op {
        let (gpu, k) = (&self.gpu, &self.kernels[i]);
        let worlds = k.worlds();
        let (mut f, at) = probe.time(|| forward(gpu, k, tr, i, worlds));
        let mut op = Op::timed(at);
        op.work = accesses(&f.base) + accesses(&f.lp);
        op.digest = digest_of(&(&f.base, &f.lp));
        op.failed = u64::from(!f.verify(k));
        if tr.enabled {
            let extras = self.traced_extras(i, &mut f, tr);
            op.failed |= u64::from(!extras.validated || !extras.sanitizer_clean);
            self.findings += extras.findings;
            self.kernels[i].replay_faithful.push(extras.replay_faithful);
        }
        op.unexpected = op.failed;
        op
    }

    fn work_unit(&self) -> &'static str {
        "accesses"
    }

    fn model(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("model_lp_overhead_pct", self.model_lp_overhead_pct(), "%"),
            ("model_kernel_us", self.model_kernel_us(), "us"),
        ]
    }

    fn layers(&self, tr: &Tracer, probe: &Probe, m: &mut Values) {
        let n = self.kernels.len();
        m.insert(
            "kernels.setup_s".into(),
            tr.sum_median_s(probe, "kernels.setup", n),
        );
        m.insert(
            "core.runtime_setup_s".into(),
            tr.sum_median_s(probe, "core.runtime_setup", n),
        );
        let refs = |f: &dyn Fn(&Kernel) -> f64| -> f64 { self.kernels.iter().map(f).sum() };
        m.insert(
            "simt.accesses".into(),
            refs(&|k| (accesses(&k.ref_base) + accesses(&k.ref_lp)) as f64),
        );
        let nvm =
            |f: fn(&NvmStats) -> u64| refs(&|k| (f(&k.ref_base.nvm) + f(&k.ref_lp.nvm)) as f64);
        m.insert("nvm.cache_hits".into(), nvm(|s| s.cache_hits));
        m.insert("nvm.cache_misses".into(), nvm(|s| s.cache_misses));
        m.insert("nvm.natural_evictions".into(), nvm(|s| s.natural_evictions));
        m.insert("nvm.nvm_writes".into(), nvm(|s| s.nvm_writes));
        m.insert(
            "core.extra_stores".into(),
            refs(&|k| k.ref_lp.nvm.store_ops as f64 - k.ref_base.nvm.store_ops as f64),
        );
        m.insert(
            "simt.model_compute_us".into(),
            refs(&|k| k.ref_lp.compute_ns / 1e3),
        );
        m.insert(
            "simt.model_bandwidth_us".into(),
            refs(&|k| k.ref_lp.bandwidth_ns / 1e3),
        );
        m.insert(
            "simt.model_atomic_us".into(),
            refs(&|k| k.ref_lp.atomic_ns / 1e3),
        );
        m.insert(
            "simt.model_lock_us".into(),
            refs(&|k| k.ref_lp.lock_serial_ns / 1e3),
        );
        m.insert("simt.model_kernel_us".into(), self.model_kernel_us());
        m.insert(
            "core.model_lp_overhead_pct".into(),
            self.model_lp_overhead_pct(),
        );
        self.replay_layers(tr, probe, m);
        self.sanitizer_layers(tr, probe, m);
    }

    /// Every traced replay reproduced its launch's `NvmStats`.
    fn self_check(&self) -> bool {
        self.kernels
            .iter()
            .all(|k| k.replay_faithful.iter().all(|&f| f))
    }
}

impl Suite {
    /// Modelled time of the eight LP launches, in us.
    fn model_kernel_us(&self) -> f64 {
        self.kernels.iter().map(|k| k.ref_lp.kernel_ns).sum::<f64>() / 1e3
    }

    /// Geomean over the kernels of the modelled LP overhead, in percent.
    fn model_lp_overhead_pct(&self) -> f64 {
        let slowdowns: Vec<f64> = self
            .kernels
            .iter()
            .map(|k| k.ref_lp.slowdown_vs(&k.ref_base))
            .collect();
        (geomean(&slowdowns) - 1.0) * 100.0
    }

    /// Traced passes only, outside the timed part: validates the clean LP
    /// image, splits the baseline launch between simt and nvm by replay, and
    /// runs the LP launch under the sanitizer.
    fn traced_extras(&self, i: usize, f: &mut Forward, tr: &mut Tracer) -> Extras {
        let (gpu, k) = (&self.gpu, &self.kernels[i]);
        let (kb, kl) = (k.w.kernel(None), k.w.kernel(Some(&k.rt)));
        let engine = RecoveryEngine::new(gpu);
        let bad = tr.span("core.validate", i, |_| {
            engine.validate_all(kl.as_ref(), &k.rt, &mut f.lp_mem)
        });

        let mut rec = Recorder::default();
        let observed = gpu.launch_observed(kb.as_ref(), &mut k.base.clone(), &mut rec);
        let mut rm = k.base.clone();
        let before = rm.stats();
        tr.span("nvm.replay", i, |_| replay(&rec, &mut rm));
        let replay_faithful =
            observed.is_ok_and(|s| s == f.base) && rm.stats() - before == f.base.nvm;

        let exempt = k.rt.table_ranges();
        let mut sm = k.lp.clone();
        let sanitized = tr.span("sanitizer.launch", i, |_| {
            lp_sanitizer::sanitize_launch_exempt(gpu, kl.as_ref(), &mut sm, &exempt)
        });
        let (sanitizer_clean, findings) = match sanitized {
            Ok((stats, report)) => (
                report.is_clean() && stats == f.lp,
                report.findings.len() as u64 + report.suppressed,
            ),
            Err(_) => (false, 0),
        };
        Extras {
            validated: bad.is_empty(),
            replay_faithful,
            sanitizer_clean,
            findings,
        }
    }

    fn replay_layers(&self, tr: &Tracer, probe: &Probe, m: &mut Values) {
        let n = self.kernels.len();
        let base = tr.sum_median_s(probe, "simt.launch_base", n);
        let lp = tr.sum_median_s(probe, "simt.launch_lp", n);
        m.insert("simt.launch_base_s".into(), base);
        m.insert("simt.launch_lp_s".into(), lp);
        m.insert("core.lp_host_overhead_x".into(), lp / base);
        m.insert("nvm.flush_s".into(), tr.sum_median_s(probe, "nvm.flush", n));
        m.insert(
            "core.validate_s".into(),
            tr.sum_median_s(probe, "core.validate", n),
        );
        let faithful = self
            .kernels
            .iter()
            .filter(|k| !k.replay_faithful.is_empty() && k.replay_faithful.iter().all(|&f| f))
            .count();
        m.insert("nvm.replay_faithful".into(), faithful as f64);
        if faithful < n {
            // An unfaithful replay does not measure the launch's memory
            // traffic: its split is reported as invalid (-1), not as a number.
            for name in ["nvm.replay_s", "nvm.replay_share", "simt.self_s"] {
                m.insert(name.into(), -1.0);
            }
            for k in &self.kernels {
                m.insert(format!("nvm.ns_per_access.{}", k.name), -1.0);
                m.insert(format!("simt.ns_per_access.{}", k.name), -1.0);
            }
            return;
        }
        let replay = tr.sum_median_s(probe, "nvm.replay", n);
        m.insert("nvm.replay_s".into(), replay);
        m.insert("nvm.replay_share".into(), replay / base);
        m.insert("simt.self_s".into(), base - replay);
        for (i, k) in self.kernels.iter().enumerate() {
            let acc = accesses(&k.ref_base) as f64;
            let r = tr.median_s(probe, "nvm.replay", i).unwrap_or(0.0);
            let b = tr.median_s(probe, "simt.launch_base", i).unwrap_or(0.0);
            m.insert(format!("nvm.ns_per_access.{}", k.name), r * 1e9 / acc);
            m.insert(
                format!("simt.ns_per_access.{}", k.name),
                (b - r) * 1e9 / acc,
            );
        }
    }

    /// The sanitizer's cost against the plain LP launch of the same pass.
    fn sanitizer_layers(&self, tr: &Tracer, probe: &Probe, m: &mut Values) {
        let n = self.kernels.len();
        m.insert("sanitizer.findings".into(), self.findings as f64);
        let plain = tr.sum_median_s(probe, "simt.launch_lp", n);
        let launch = tr.sum_median_s(probe, "sanitizer.launch", n);
        m.insert("sanitizer.plain_s".into(), plain);
        m.insert("sanitizer.launch_s".into(), launch);
        m.insert("sanitizer.overhead_x".into(), launch / plain);
        for (i, k) in self.kernels.iter().enumerate() {
            let p = tr.median_s(probe, "simt.launch_lp", i).unwrap_or(f64::NAN);
            let s = tr
                .median_s(probe, "sanitizer.launch", i)
                .unwrap_or(f64::NAN);
            m.insert(format!("sanitizer.overhead_x.{}", k.name), s / p);
        }
    }
}
