//! Trace-based causality: for every strip, the interrupt precedes the
//! copy, and under SAIs both land on the consuming core.
//!
//! Read from the flight recorder: `irq` and `copy` spans carry their
//! strip span as `parent` and the core that ran them as `tid`.

use sais::core::scenario::ObsConfig;
use sais::obs::span::{Span, SpanId};
use sais::prelude::*;
use std::collections::HashMap;

fn traced(policy: PolicyChoice) -> (RunMetrics, sais::core::cluster::Cluster) {
    let mut cfg = ScenarioConfig::testbed_3gig(8, 256 * 1024);
    cfg.file_size = 4 << 20;
    cfg.policy = policy;
    cfg.obs = ObsConfig::full();
    let (m, cluster) = cfg.run_full();
    assert_eq!(cluster.recorder().dropped(), 0, "span capacity too small");
    (m, cluster)
}

/// The recorded spans called `name`, each with the strip span it belongs to.
fn strip_spans<'a>(
    cluster: &'a sais::core::cluster::Cluster,
    name: &'static str,
) -> impl Iterator<Item = (SpanId, &'a Span)> {
    let spans = cluster.recorder().spans();
    spans.iter().filter(move |s| s.name == name).map(move |s| {
        assert!(s.parent.is_some(), "{name} span without a strip");
        assert_eq!(spans[s.parent.0 as usize].name, "strip");
        (s.parent, s)
    })
}

#[test]
fn interrupts_precede_copies_per_strip() {
    let (_, cluster) = traced(PolicyChoice::LowestLoaded);
    let mut first_irq: HashMap<SpanId, SimTime> = HashMap::new();
    for (strip, irq) in strip_spans(&cluster, "irq") {
        first_irq.entry(strip).or_insert(irq.start);
    }
    let mut copies = 0;
    for (strip, copy) in strip_spans(&cluster, "copy") {
        let irq_t = first_irq
            .get(&strip)
            .unwrap_or_else(|| panic!("copy of strip {strip:?} without an interrupt"));
        assert!(
            *irq_t <= copy.start,
            "strip {strip:?}: copy before interrupt"
        );
        copies += 1;
    }
    assert_eq!(copies, 64, "4 MB / 64 KB strips all copied");
}

#[test]
fn sais_handles_and_copies_on_the_same_core() {
    let (m, cluster) = traced(PolicyChoice::SourceAware);
    assert_eq!(m.strip_migrations, 0);
    let mut irq_core: HashMap<SpanId, u32> = HashMap::new();
    for (strip, irq) in strip_spans(&cluster, "irq") {
        if let Some(prev) = irq_core.insert(strip, irq.tid) {
            assert_eq!(
                prev, irq.tid,
                "strip {strip:?}: peer interrupts split cores"
            );
        }
    }
    for (strip, copy) in strip_spans(&cluster, "copy") {
        assert_eq!(
            irq_core[&strip], copy.tid,
            "strip {strip:?}: handled on {} but consumed on {}",
            irq_core[&strip], copy.tid
        );
    }
}

#[test]
fn irqbalance_splits_handler_and_consumer() {
    let (m, cluster) = traced(PolicyChoice::LowestLoaded);
    assert!(m.strip_migrations > 0);
    let mut irq_core: HashMap<SpanId, u32> = HashMap::new();
    for (strip, irq) in strip_spans(&cluster, "irq") {
        irq_core.insert(strip, irq.tid);
    }
    let mismatched = strip_spans(&cluster, "copy")
        .filter(|(strip, copy)| irq_core.get(strip) != Some(&copy.tid))
        .count();
    assert!(
        mismatched > 32,
        "most strips should be handled away from the consumer: {mismatched}"
    );
}
