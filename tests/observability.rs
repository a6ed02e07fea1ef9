//! End-to-end flight-recorder tests: run a real scenario with
//! observability on and check the span tree, the Perfetto export, the
//! stage histograms and the metric snapshot — and that none of it ever
//! perturbs simulated results.

use sais_core::scenario::{ObsConfig, PolicyChoice, ScenarioConfig};
use sais_obs::json::JsonValue;
use sais_obs::{perfetto, Stage};

/// A small instrumented run: the 3-Gigabit testbed, 2 MB per client so the
/// whole span tree fits comfortably in the default capacity.
fn demo(policy: PolicyChoice, obs: ObsConfig) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::testbed_3gig(8, 512 << 10);
    cfg.file_size = 2 << 20;
    cfg.with_policy(policy).with_observability(obs)
}

#[test]
fn trace_export_is_valid_perfetto_with_full_lineage() {
    let (m, cluster) = demo(PolicyChoice::SourceAware, ObsConfig::full()).run_full();
    let rec = cluster.recorder();
    assert!(rec.is_enabled());
    assert_eq!(rec.dropped(), 0, "demo run must fit the span capacity");

    // Every read request span fans out into strip spans, and every strip
    // carries at least one interrupt child and exactly one copy child,
    // all nested inside the strip's interval.
    let reads: Vec<_> = rec.roots().filter(|(_, s)| s.name == "read").collect();
    assert_eq!(reads.len() as u64, m.requests_completed);
    for (id, _read) in &reads {
        let strips: Vec<_> = rec
            .children(*id)
            .filter(|(_, s)| s.name == "strip")
            .collect();
        assert!(!strips.is_empty(), "read span without strip fan-out");
        for (sid, strip) in &strips {
            let irqs = rec.children(*sid).filter(|(_, c)| c.name == "irq").count();
            let copies = rec.children(*sid).filter(|(_, c)| c.name == "copy").count();
            assert!(irqs >= 1, "strip without interrupt spans");
            assert_eq!(copies, 1, "strip must have exactly one consume span");
            for (_, c) in rec.children(*sid) {
                assert!(
                    c.start >= strip.start && c.end <= strip.end,
                    "child span escapes its strip interval"
                );
            }
        }
    }
    let strip_spans = rec.spans().iter().filter(|s| s.name == "strip").count() as u64;
    assert_eq!(strip_spans, m.strips_delivered);

    // The exported JSON passes structural validation: well-formed events,
    // no dangling parents, children contained in their parents.
    let text = perfetto::to_chrome_json(rec);
    let stats = perfetto::validate(&text).expect("exporter emits valid trace JSON");
    assert_eq!(stats.spans, rec.spans().len());
    assert_eq!(stats.instants, rec.instants().len());
    assert_eq!((stats.spans + stats.instants) as u64, rec.recorded());
    assert!(stats.child_spans > 0, "parent/child links survive export");
    assert!(stats.metadata > 0, "process/thread names are exported");
    assert!(stats.instants as u64 >= m.requests_completed);
}

#[test]
fn sais_collapses_the_migration_stall_stage() {
    let stages_only = ObsConfig {
        stages: true,
        ..ObsConfig::default()
    };
    let (rr, rr_cluster) = demo(PolicyChoice::RoundRobin, stages_only.clone()).run_full();
    let (sa, sa_cluster) = demo(PolicyChoice::SourceAware, stages_only).run_full();

    let rr_stall = rr_cluster.stages().get(Stage::MigrationStall).unwrap();
    let sa_stall = sa_cluster.stages().get(Stage::MigrationStall).unwrap();
    assert!(rr_stall.count() > 0 && sa_stall.count() > 0);
    assert!(
        rr_stall.mean() > 0.0,
        "round-robin consumers stall on cache migration"
    );
    assert_eq!(
        sa_stall.max(),
        0,
        "under SAIs the handling core already owns the strip's lines"
    );
    // The stall shows up end to end: SAIs requests finish no slower.
    let rr_total = rr_cluster.stages().get(Stage::RequestTotal).unwrap();
    let sa_total = sa_cluster.stages().get(Stage::RequestTotal).unwrap();
    assert!(sa_total.mean() < rr_total.mean());
    // RunMetrics carries the same histograms for the bench tables.
    assert_eq!(
        rr.stages.get(Stage::MigrationStall).unwrap().count(),
        rr_stall.count()
    );
    assert_eq!(sa.stages.get(Stage::MigrationStall).unwrap().max(), 0);
}

#[test]
fn observability_never_perturbs_simulated_results() {
    let base = demo(PolicyChoice::SourceAware, ObsConfig::default()).run();
    let full = demo(PolicyChoice::SourceAware, ObsConfig::full()).run();
    assert_eq!(base.wall_time, full.wall_time);
    assert_eq!(base.bytes_delivered, full.bytes_delivered);
    assert_eq!(base.l2_accesses, full.l2_accesses);
    assert_eq!(base.l2_misses, full.l2_misses);
    assert_eq!(base.interrupts, full.interrupts);
    assert_eq!(base.events_dispatched, full.events_dispatched);
    assert_eq!(base.queue_high_water, full.queue_high_water);
}

#[test]
fn disabled_observability_records_nothing() {
    let (_, cluster) = demo(PolicyChoice::SourceAware, ObsConfig::default()).run_full();
    let rec = cluster.recorder();
    assert!(!rec.is_enabled());
    assert!(rec.spans().is_empty());
    assert_eq!(rec.recorded(), 0);
    assert!(!cluster.stages().is_enabled());
    assert_eq!(
        rec.span_heap_capacity(),
        0,
        "disabled recorder never allocates"
    );
}

#[test]
fn telemetry_sampler_is_bit_inert_and_off_by_default() {
    // Off by default: no windows, no rotations, no detector work.
    let off = demo(PolicyChoice::SourceAware, ObsConfig::default()).run();
    assert!(!off.telemetry.is_enabled());
    assert_eq!(off.telemetry.windows().count(), 0);
    assert_eq!(off.window_rotations, 0);
    assert_eq!(off.detector_evals, 0);
    assert!(off.telemetry_verdicts.is_empty());

    // On: the sampler fills windows and the detectors run, but every
    // simulated result stays bit-identical — the sampler only reads
    // model-computed values, it never touches the RNG or the clock.
    let obs = ObsConfig {
        timeseries: true,
        ..ObsConfig::default()
    };
    let on = demo(PolicyChoice::SourceAware, obs).run();
    assert!(on.telemetry.is_enabled());
    assert!(on.telemetry.windows().count() > 0, "windows sampled");
    assert!(on.window_rotations > 0, "rotations counted");
    assert!(on.detector_evals > 0, "detectors evaluated each window");
    assert_eq!(off.wall_time, on.wall_time);
    assert_eq!(off.bytes_delivered, on.bytes_delivered);
    assert_eq!(off.l2_accesses, on.l2_accesses);
    assert_eq!(off.l2_misses, on.l2_misses);
    assert_eq!(off.interrupts, on.interrupts);
    assert_eq!(off.events_dispatched, on.events_dispatched);
    assert_eq!(off.queue_high_water, on.queue_high_water);
}

#[test]
fn metric_snapshot_exports_json() {
    let (m, cluster) = demo(PolicyChoice::SourceAware, ObsConfig::full()).run_full();
    let snap = cluster.snapshot_metrics(m.wall_time);

    let json = snap.to_json();
    let doc = JsonValue::parse(&json).expect("snapshot JSON parses");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("sais-metrics-snapshot/v1")
    );
    let counters = doc.get("counters").expect("counters object");
    assert_eq!(
        counters
            .get("io.bytes_delivered")
            .and_then(JsonValue::as_u64),
        Some(m.bytes_delivered)
    );
    assert_eq!(
        counters.get("irq.routed").and_then(JsonValue::as_u64),
        Some(m.interrupts)
    );
    let hists = doc.get("histograms").expect("histograms object");
    for stage in sais_obs::STAGES {
        let h = hists
            .get(&format!("stage.{}", stage.name()))
            .unwrap_or_else(|| panic!("stage.{} missing from snapshot", stage.name()));
        assert!(h.get("count").and_then(JsonValue::as_u64).unwrap() > 0);
    }
}
