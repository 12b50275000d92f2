//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` declares exactly these names and units; the self-test
//! checks that every declared name is emitted with its unit.

use gpu_lp::BackendKind;
use lp_apps::AppKind;
use lp_fault::SUBJECT_NAMES;
use lp_kernels::WORKLOAD_NAMES;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every workload emits all of them (untraced run).
/// `work_per_s` counts the workload's own unit of work: simulated global
/// accesses (forward), trials (campaign) or soak cycles (soak).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
];

/// Crash-site classes, in catalogue order (see [`site_class`]).
pub const SITE_CLASSES: [&str; 10] = [
    "stores",
    "eviction",
    "blocks",
    "between-kernels",
    "checkpoint",
    "recovery-eviction",
    "torn",
    "transient",
    "media",
    "policy-switch",
];

/// Persistency backends the soak sweeps.
pub const SOAK_BACKENDS: [BackendKind; 5] = [
    BackendKind::LpChecksum,
    BackendKind::Eager,
    BackendKind::Epoch,
    BackendKind::Sbrp,
    BackendKind::Adaptive,
];

/// Device fault rates (basis points) the soak sweeps.
pub const SOAK_FAULT_BP: [u32; 2] = [0, 200];

/// Class name of a crash site (its label without the intensity).
pub fn site_class(site: &lp_fault::CrashSite) -> &'static str {
    use lp_fault::CrashSite::*;
    match site {
        AfterStores { .. } => SITE_CLASSES[0],
        AfterEvictions { .. } => SITE_CLASSES[1],
        BlockBoundary { .. } => SITE_CLASSES[2],
        BetweenKernels => SITE_CLASSES[3],
        MidCheckpoint { .. } => SITE_CLASSES[4],
        DuringRecovery { .. } => SITE_CLASSES[5],
        TornWriteback { .. } => SITE_CLASSES[6],
        TransientPersist { .. } => SITE_CLASSES[7],
        MediaBitErrors { .. } => SITE_CLASSES[8],
        MidPolicySwitch { .. } => SITE_CLASSES[9],
    }
}

/// Per-layer metrics: every traced run emits all of them, with 0 for the
/// layers its workload does not call (see `perfbench/README.md`).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| v.push((name, unit));
    for (n, u) in [
        ("kernels.setup_s", "s"),
        ("core.runtime_setup_s", "s"),
        ("simt.launch_base_s", "s"),
        ("simt.launch_lp_s", "s"),
        ("core.lp_host_overhead_x", "x"),
        ("nvm.replay_s", "s"),
        ("nvm.replay_share", "ratio"),
        ("simt.self_s", "s"),
        ("nvm.replay_faithful", "count"),
    ] {
        add(n.to_string(), u);
    }
    for layer in ["nvm", "simt"] {
        for k in WORKLOAD_NAMES {
            add(format!("{layer}.ns_per_access.{k}"), "ns");
        }
    }
    for (n, u) in [
        ("nvm.flush_s", "s"),
        ("core.validate_s", "s"),
        ("simt.accesses", "count"),
        ("nvm.cache_hits", "count"),
        ("nvm.cache_misses", "count"),
        ("nvm.natural_evictions", "count"),
        ("nvm.nvm_writes", "count"),
        ("core.extra_stores", "count"),
        ("simt.model_compute_us", "us"),
        ("simt.model_bandwidth_us", "us"),
        ("simt.model_atomic_us", "us"),
        ("simt.model_lock_us", "us"),
        ("simt.model_kernel_us", "us"),
        ("core.model_lp_overhead_pct", "%"),
        ("sanitizer.plain_s", "s"),
        ("sanitizer.launch_s", "s"),
        ("sanitizer.overhead_x", "x"),
    ] {
        add(n.to_string(), u);
    }
    for k in WORKLOAD_NAMES {
        add(format!("sanitizer.overhead_x.{k}"), "x");
    }
    add("sanitizer.findings".into(), "count");
    add("fault.enumerate_s".into(), "s");
    for c in SITE_CLASSES {
        add(format!("fault.trial_ms.{c}"), "ms");
    }
    for s in SUBJECT_NAMES {
        add(format!("fault.trial_ms.{s}"), "ms");
    }
    for n in [
        "fault.trials",
        "fault.pruned",
        "fault.crashed",
        "core.failed_regions",
        "core.reexecutions",
        "core.recovery_rounds",
        "core.quarantined_lines",
        "core.degraded_reexecutions",
    ] {
        add(n.to_string(), "count");
    }
    add("fault.model_restore_us_p50".into(), "us");
    add("fault.model_restore_us_p95".into(), "us");
    for a in AppKind::ALL {
        add(format!("apps.cycle_ms.{}", a.name()), "ms");
    }
    for b in SOAK_BACKENDS {
        add(format!("persist.cycle_ms.{}", b.name()), "ms");
    }
    for bp in SOAK_FAULT_BP {
        add(format!("nvm.cycle_ms.bp{bp}"), "ms");
    }
    for n in [
        "apps.steps",
        "apps.restore_calls",
        "apps.recovery_attempts",
        "fault.waived_cycles",
        "fault.failed_cycles",
    ] {
        add(n.to_string(), "count");
    }
    add("apps.model_restore_us_p50".into(), "us");
    add("apps.model_restore_us_p95".into(), "us");
    add("bench.trace_overhead_pct".into(), "%");
    v
}

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// Renders the result line: `catalogue` in order, values from `vals`.
/// A name missing from `vals` is emitted as 0 (a layer the workload does
/// not call); a name `vals` has but the catalogue lacks is a bug.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(String, &str)],
    vals: &Values,
) -> String {
    for name in vals.keys() {
        assert!(
            catalogue.iter().any(|(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
    }
    let mut out =
        format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let v = vals.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    out
}
