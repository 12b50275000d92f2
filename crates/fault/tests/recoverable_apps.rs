//! Integration tests for the recoverable services from `lp-apps`, driven
//! through the public `RecoverableApp` surface the soak engine uses — the
//! contract every service promises an operator:
//!
//! * a crash at any instant never loses a *committed* step;
//! * `restore` rolls an interrupted step forward and reports a nonzero
//!   restoration latency;
//! * `verify_invariants` audits the durable state against a bit-exact
//!   host replay (exactly-once consumes, checkpointed weights, the full
//!   key universe);
//! * the same service runs unmodified under every persistency backend.

use gpu_lp::BackendKind;
use lp_apps::{build_app, AppKind, AppParams};
use lp_fault::{run_soak, soak_world, SoakSpec};
use nvm::PersistMemory;
use simt::Gpu;

fn params(backend: BackendKind, seed: u64) -> AppParams {
    AppParams {
        backend,
        seed,
        max_steps: 64,
        width: 48,
    }
}

/// Steps until one commits (a clean boundary for the scenario to build on).
fn step_committed(
    app: &mut dyn lp_apps::RecoverableApp,
    gpu: &Gpu,
    mem: &mut PersistMemory,
) -> u64 {
    let rep = app.step(gpu, mem);
    assert!(rep.committed, "clean step must commit: {rep:?}");
    rep.step
}

#[test]
fn committed_steps_survive_a_boundary_crash_on_every_app() {
    for kind in AppKind::ALL {
        let (gpu, mut mem) = soak_world();
        let mut app = build_app(kind, params(BackendKind::LpChecksum, 7), &mut mem);
        for _ in 0..3 {
            step_committed(app.as_mut(), &gpu, &mut mem);
        }
        let before = app.progress(&mut mem);
        app.crash(&mut mem);
        let restore = app.restore(&gpu, &mut mem);
        assert!(restore.all_durable, "{kind}: {restore:?}");
        assert!(
            app.restoration_latency() > 0,
            "{kind}: restoration must cost modelled time"
        );
        // Progress never moves backwards; the training loop may legally
        // move it *forwards* (restore rolls uncheckpointed epochs ahead).
        assert!(
            app.progress(&mut mem) >= before,
            "{kind}: committed progress lost"
        );
        let violations = app.verify_invariants(&mut mem);
        assert!(violations.is_empty(), "{kind}: {violations:?}");
    }
}

#[test]
fn a_mid_drain_crash_rolls_the_interrupted_step_forward() {
    for kind in AppKind::ALL {
        let (gpu, mut mem) = soak_world();
        let mut app = build_app(kind, params(BackendKind::LpChecksum, 11), &mut mem);
        step_committed(app.as_mut(), &gpu, &mut mem);
        // Cut power inside the next step's commit drain: the step's intent
        // is durable, its success record is not.
        mem.arm_crash_during_flush(2);
        let mut crashed = false;
        for _ in 0..8 {
            let rep = app.step(&gpu, &mut mem);
            if rep.crashed {
                crashed = true;
                break;
            }
        }
        assert!(crashed, "{kind}: the armed drain trigger must fire");
        app.crash(&mut mem);
        let restore = app.restore(&gpu, &mut mem);
        assert!(restore.all_durable, "{kind}: {restore:?}");
        let violations = app.verify_invariants(&mut mem);
        assert!(violations.is_empty(), "{kind}: {violations:?}");
        // Progress after a roll-forward covers at least the committed
        // prefix; the audit above already proved it is *only* real data.
        assert!(app.progress(&mut mem) >= 1, "{kind}");
    }
}

#[test]
fn every_backend_runs_every_app_through_a_crash_cycle() {
    for kind in AppKind::ALL {
        for backend in [
            BackendKind::LpChecksum,
            BackendKind::Eager,
            BackendKind::Epoch,
            BackendKind::Sbrp,
            BackendKind::Adaptive,
        ] {
            let (gpu, mut mem) = soak_world();
            let mut app = build_app(kind, params(backend, 13), &mut mem);
            for _ in 0..2 {
                step_committed(app.as_mut(), &gpu, &mut mem);
            }
            app.crash(&mut mem);
            let restore = app.restore(&gpu, &mut mem);
            assert!(restore.all_durable, "{kind}/{backend}: {restore:?}");
            let violations = app.verify_invariants(&mut mem);
            assert!(violations.is_empty(), "{kind}/{backend}: {violations:?}");
        }
    }
}

#[test]
fn restoration_latency_grows_with_interrupted_work() {
    // A boundary crash restores from nothing in flight; a mid-step crash
    // leaves regions to validate and re-execute. The modelled latency must
    // reflect that extra work.
    let (gpu, mut mem) = soak_world();
    let mut app = build_app(
        AppKind::Queue,
        params(BackendKind::LpChecksum, 17),
        &mut mem,
    );
    step_committed(app.as_mut(), &gpu, &mut mem);
    app.crash(&mut mem);
    app.restore(&gpu, &mut mem);
    let boundary_ns = app.restoration_latency();

    mem.arm_crash_during_flush(1);
    for _ in 0..8 {
        if app.step(&gpu, &mut mem).crashed {
            break;
        }
    }
    app.crash(&mut mem);
    let restore = app.restore(&gpu, &mut mem);
    assert!(restore.all_durable);
    assert!(
        app.restoration_latency() >= boundary_ns,
        "interrupted restore ({}) cheaper than boundary restore ({boundary_ns})",
        app.restoration_latency()
    );
}

#[test]
fn double_crash_during_restore_converges_at_the_app_level() {
    for kind in AppKind::ALL {
        let (gpu, mut mem) = soak_world();
        let mut app = build_app(kind, params(BackendKind::LpChecksum, 19), &mut mem);
        step_committed(app.as_mut(), &gpu, &mut mem);
        mem.arm_crash_during_flush(2);
        for _ in 0..8 {
            if app.step(&gpu, &mut mem).crashed {
                break;
            }
        }
        app.crash(&mut mem);
        // A second cut aimed at the restore's own flush traffic: the
        // service retries `restore` like the soak engine does.
        mem.arm_crash_during_flush(1);
        let mut durable = false;
        for _ in 0..6 {
            if app.restore(&gpu, &mut mem).all_durable {
                durable = true;
                break;
            }
        }
        assert!(
            durable,
            "{kind}: restore must converge after a double crash"
        );
        let violations = app.verify_invariants(&mut mem);
        assert!(violations.is_empty(), "{kind}: {violations:?}");
    }
}

/// Soak cells (test-scale plan: LP backend, 200 bp, 6 cycles of up to 3
/// steps, width 48) in which the device tears a manifest write-back but
/// ACKs it. A manifest that trusted the ACK would report the commit
/// durable, and the next crash would revert the app to its previous
/// step; every cell must come through clean.
#[test]
fn torn_manifest_commits_never_lose_a_step_in_a_soak() {
    for (app, seed) in [
        (AppKind::Train, 6),
        (AppKind::Queue, 50),
        (AppKind::KvTxn, 104),
    ] {
        let report = run_soak(&SoakSpec {
            app,
            backend: BackendKind::LpChecksum,
            seed,
            cycles: 6,
            max_steps_per_cycle: 3,
            fault_bp: 200,
            width: 48,
        });
        assert!(report.passed, "{app} seed {seed}: {:?}", report.failures());
    }
}
