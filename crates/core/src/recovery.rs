//! Post-crash validation and eager recovery (§IV-A).
//!
//! After a crash, the recovery kernel walks every LP region (thread block):
//! it recomputes the region's checksums *from the data now in memory* and
//! compares them with the checksums published in the table. A mismatch
//! means some store of the region (possibly the checksum store itself — a
//! safe false alarm) did not persist; the region is re-executed. The paper
//! uses **eager** recovery: re-execute immediately and re-validate, which
//! guarantees forward progress.

use crate::region::LpRuntime;
use nvm::PersistMemory;
use serde::{Deserialize, Serialize};
use simt::{Gpu, Kernel};

/// A kernel whose LP regions can be validated and re-executed.
///
/// `recompute_block_checksums` is the generated check-and-recovery logic of
/// Listing 7: it must read back exactly the locations the block's protected
/// stores wrote and fold them in the same per-thread order the kernel's
/// [`crate::LpBlockSession`] did.
///
/// Regions must be idempotent (re-executable): the kernels in this
/// workspace are structured gather-style so that re-running a block always
/// reproduces the same output, the property §IV-A relies on for trivial
/// recovery functions.
pub trait Recoverable: Kernel {
    /// Recomputes region `block`'s checksum vector from current memory.
    fn recompute_block_checksums(&self, mem: &mut PersistMemory, block: u64) -> Vec<u64>;
}

/// Outcome of a validation + recovery run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Total LP regions examined.
    pub regions: u64,
    /// Regions that failed validation on the first pass (lost or partially
    /// persisted at the crash).
    pub failed_first_pass: u64,
    /// Total block re-executions across all passes.
    pub reexecutions: u64,
    /// Validation passes run (1 = everything already consistent).
    pub passes: u32,
    /// Whether the final validation pass was clean.
    pub recovered: bool,
    /// Modelled nanoseconds spent re-executing failed regions (the "lazy
    /// recovery is slower" half of LP's trade-off, quantified).
    pub reexecution_ns_x1000: u64,
}

/// Eager recovery driver.
#[derive(Debug)]
pub struct RecoveryEngine<'g> {
    gpu: &'g Gpu,
    max_passes: u32,
}

impl<'g> RecoveryEngine<'g> {
    /// Creates a recovery engine on `gpu` with the default pass budget.
    pub fn new(gpu: &'g Gpu) -> Self {
        Self { gpu, max_passes: 8 }
    }

    /// Overrides the maximum validate-and-re-execute passes.
    pub fn with_max_passes(mut self, passes: u32) -> Self {
        assert!(passes > 0, "need at least one pass");
        self.max_passes = passes;
        self
    }

    /// Validates every region of `kernel`, returning the IDs that fail
    /// (checksum mismatch or missing table entry).
    pub fn validate_all(
        &self,
        kernel: &dyn Recoverable,
        rt: &LpRuntime,
        mem: &mut PersistMemory,
    ) -> Vec<u64> {
        // Adaptive runtimes first resync every region's contract from the
        // durable policy journal (no-op for fixed modes): a region is
        // always judged under the mode the journal proves it last switched
        // to, never under a half-applied switch.
        rt.reload_policy(mem);
        let blocks = kernel.config().num_blocks();
        let mut failed = Vec::new();
        for b in 0..blocks {
            let recomputed = kernel.recompute_block_checksums(mem, b);
            if !rt.validate_region(mem, b, &recomputed) {
                failed.push(b);
            }
        }
        failed
    }

    /// Runs eager recovery to convergence: validate, re-execute failed
    /// regions, flush, re-validate. Returns the report; `recovered` is
    /// `false` if the pass budget ran out (which would indicate a
    /// non-idempotent region) or if power failed *during* recovery — the
    /// double-crash case. A power failure aborts the run immediately with
    /// `recovered = false`: the caller restores power and recovers again,
    /// and forward progress is guaranteed because every completed pass
    /// flushed its re-executions before the next validation.
    pub fn recover(
        &self,
        kernel: &dyn Recoverable,
        rt: &LpRuntime,
        mem: &mut PersistMemory,
    ) -> RecoveryReport {
        let regions = kernel.config().num_blocks();
        let mut report = RecoveryReport {
            regions,
            ..RecoveryReport::default()
        };
        for pass in 1..=self.max_passes {
            report.passes = pass;
            let failed = self.validate_all(kernel, rt, mem);
            if pass == 1 {
                report.failed_first_pass = failed.len() as u64;
            }
            if failed.is_empty() {
                report.recovered = true;
                return report;
            }
            for b in &failed {
                if mem.power_failed() {
                    return report;
                }
                let cost = self.gpu.run_single_block(kernel, mem, *b, None);
                let cfg = self.gpu.config();
                report.reexecution_ns_x1000 +=
                    (cost.time_ns(cfg.sm_width, cfg.clock_ghz) * 1000.0) as u64;
                report.reexecutions += 1;
            }
            // Eager recovery persists its work so a crash during recovery
            // never moves the system backwards (§II-A's forward-progress
            // argument).
            mem.flush_all();
            if mem.power_failed() {
                return report;
            }
        }
        report.recovered = self.validate_all(kernel, rt, mem).is_empty();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::f32_store_image;
    use crate::region::{LpBlockSession, LpConfig};
    use nvm::{Addr, NvmConfig};
    use simt::{BlockCtx, CrashPlan, DeviceConfig, LaunchConfig};

    /// out[i] = (i % 97) * 0.5 as f32, LP-protected, one value per thread.
    struct FillLp<'rt> {
        out: Addr,
        n: u64,
        rt: &'rt LpRuntime,
    }

    impl Kernel for FillLp<'_> {
        fn name(&self) -> &str {
            "fill_lp"
        }

        fn config(&self) -> LaunchConfig {
            LaunchConfig::linear(self.n, 64)
        }

        fn run_block(&self, ctx: &mut BlockCtx<'_>) {
            let mut lp = LpBlockSession::begin(self.rt, ctx);
            for t in 0..ctx.threads_per_block() {
                let gid = ctx.global_thread_id(t);
                if gid < self.n {
                    let v = (gid % 97) as f32 * 0.5;
                    lp.store_f32(ctx, t, self.out.index(gid, 4), v);
                }
            }
            lp.finalize(ctx);
        }
    }

    impl Recoverable for FillLp<'_> {
        fn recompute_block_checksums(&self, mem: &mut PersistMemory, block: u64) -> Vec<u64> {
            let tpb = self.config().threads_per_block();
            let mut images = Vec::new();
            for t in 0..tpb {
                let gid = block * tpb + t;
                if gid < self.n {
                    images.push(f32_store_image(mem.read_f32(self.out.index(gid, 4))));
                }
            }
            self.rt.digest_region(block, images)
        }
    }

    fn world(n: u64) -> (Gpu, PersistMemory, Addr) {
        // Small cache: plenty of natural evictions, so a crash loses only a
        // suffix-ish subset — the interesting LP regime.
        let mut mem = PersistMemory::new(NvmConfig {
            cache_lines: 64,
            associativity: 4,
            ..NvmConfig::default()
        });
        let out = mem.alloc(4 * n, 8);
        (Gpu::new(DeviceConfig::test_gpu()), mem, out)
    }

    fn verify_output(mem: &mut PersistMemory, out: Addr, n: u64) {
        for i in 0..n {
            assert_eq!(
                mem.read_f32(out.index(i, 4)),
                (i % 97) as f32 * 0.5,
                "wrong value at {i}"
            );
        }
    }

    #[test]
    fn clean_run_validates_clean() {
        let (gpu, mut mem, out) = world(2048);
        let rt = LpRuntime::setup(&mut mem, 32, 64, LpConfig::recommended());
        let k = FillLp {
            out,
            n: 2048,
            rt: &rt,
        };
        gpu.launch(&k, &mut mem).unwrap();
        mem.flush_all();
        let eng = RecoveryEngine::new(&gpu);
        assert!(eng.validate_all(&k, &rt, &mut mem).is_empty());
    }

    #[test]
    fn crash_then_recover_restores_everything() {
        let (gpu, mut mem, out) = world(2048);
        let rt = LpRuntime::setup(&mut mem, 32, 64, LpConfig::recommended());
        let k = FillLp {
            out,
            n: 2048,
            rt: &rt,
        };
        let outcome = gpu
            .launch_with_plan(&k, &mut mem, CrashPlan::after_stores(700))
            .unwrap();
        assert!(outcome.crashed());

        let eng = RecoveryEngine::new(&gpu);
        let failed = eng.validate_all(&k, &rt, &mut mem);
        assert!(!failed.is_empty(), "a mid-flight crash must lose something");

        let report = eng.recover(&k, &rt, &mut mem);
        assert!(report.recovered, "recovery must converge: {report:?}");
        assert!(report.reexecutions >= failed.len() as u64);
        verify_output(&mut mem, out, 2048);
    }

    #[test]
    fn recovery_is_idempotent() {
        let (gpu, mut mem, out) = world(1024);
        let rt = LpRuntime::setup(&mut mem, 16, 64, LpConfig::recommended());
        let k = FillLp {
            out,
            n: 1024,
            rt: &rt,
        };
        gpu.launch_with_plan(&k, &mut mem, CrashPlan::after_stores(300))
            .unwrap();
        let eng = RecoveryEngine::new(&gpu);
        let r1 = eng.recover(&k, &rt, &mut mem);
        let r2 = eng.recover(&k, &rt, &mut mem);
        assert!(r1.recovered && r2.recovered);
        assert_eq!(r2.failed_first_pass, 0, "second recovery must find nothing");
        verify_output(&mut mem, out, 1024);
    }

    #[test]
    fn crash_at_zero_recovers_from_nothing() {
        let (gpu, mut mem, out) = world(512);
        let rt = LpRuntime::setup(&mut mem, 8, 64, LpConfig::recommended());
        let k = FillLp {
            out,
            n: 512,
            rt: &rt,
        };
        gpu.launch_with_plan(&k, &mut mem, CrashPlan::after_stores(0))
            .unwrap();
        let eng = RecoveryEngine::new(&gpu);
        let report = eng.recover(&k, &rt, &mut mem);
        assert!(report.recovered);
        assert_eq!(report.failed_first_pass, 8, "all regions were lost");
        verify_output(&mut mem, out, 512);
    }

    #[test]
    fn recovery_works_for_hash_table_configs() {
        for config in [LpConfig::quad(), LpConfig::cuckoo()] {
            let (gpu, mut mem, out) = world(1024);
            let rt = LpRuntime::setup(&mut mem, 16, 64, config);
            let k = FillLp {
                out,
                n: 1024,
                rt: &rt,
            };
            gpu.launch_with_plan(&k, &mut mem, CrashPlan::after_stores(400))
                .unwrap();
            let report = RecoveryEngine::new(&gpu).recover(&k, &rt, &mut mem);
            assert!(report.recovered, "{:?}", rt.config().table);
            verify_output(&mut mem, out, 1024);
        }
    }

    #[test]
    fn power_failure_during_recovery_aborts_then_second_recovery_converges() {
        let (gpu, mut mem, out) = world(2048);
        let rt = LpRuntime::setup(&mut mem, 32, 64, LpConfig::recommended());
        let k = FillLp {
            out,
            n: 2048,
            rt: &rt,
        };
        gpu.launch_with_plan(&k, &mut mem, CrashPlan::after_stores(700))
            .unwrap();

        // Second crash: power fails partway through the recovery
        // re-executions themselves.
        mem.arm_crash_after_evictions(2);
        let eng = RecoveryEngine::new(&gpu);
        let report = eng.recover(&k, &rt, &mut mem);
        assert!(
            !report.recovered,
            "a mid-recovery power failure must not report success"
        );
        assert!(mem.power_failed());

        // Reboot and recover again: eager recovery must converge from
        // whatever the double crash left durable.
        mem.power_on();
        let report = eng.recover(&k, &rt, &mut mem);
        assert!(
            report.recovered,
            "post-reboot recovery must converge: {report:?}"
        );
        verify_output(&mut mem, out, 2048);
    }

    #[test]
    fn recovery_on_powered_off_memory_is_a_clean_no_progress_abort() {
        let (gpu, mut mem, out) = world(512);
        let rt = LpRuntime::setup(&mut mem, 8, 64, LpConfig::recommended());
        let k = FillLp {
            out,
            n: 512,
            rt: &rt,
        };
        gpu.launch_with_plan(&k, &mut mem, CrashPlan::after_stores(100))
            .unwrap();
        mem.arm_crash_after_evictions(0);
        // Trip the trigger with a single store.
        mem.write_u64(out, 0);
        assert!(mem.power_failed());
        let report = RecoveryEngine::new(&gpu).recover(&k, &rt, &mut mem);
        assert!(!report.recovered);
        assert_eq!(
            report.reexecutions, 0,
            "no re-execution can run without power"
        );
    }

    #[test]
    fn flush_after_recovery_makes_state_durable() {
        let (gpu, mut mem, out) = world(512);
        let rt = LpRuntime::setup(&mut mem, 8, 64, LpConfig::recommended());
        let k = FillLp {
            out,
            n: 512,
            rt: &rt,
        };
        gpu.launch_with_plan(&k, &mut mem, CrashPlan::after_stores(100))
            .unwrap();
        RecoveryEngine::new(&gpu).recover(&k, &rt, &mut mem);
        // A second crash right after recovery must lose nothing.
        mem.crash();
        let eng = RecoveryEngine::new(&gpu);
        assert!(eng.validate_all(&k, &rt, &mut mem).is_empty());
        verify_output(&mut mem, out, 512);
    }
}
