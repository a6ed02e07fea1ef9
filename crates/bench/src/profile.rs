//! Host-profile export: the `--profile <path>` artifact set.
//!
//! Serializes one process's [`sais_prof`] zone report plus the always-on
//! executor counters into three views of the same data:
//!
//! 1. **`sais-hostprof/v2` JSON** at `path` — the full zone trees per
//!    thread, the additive phase breakdown, and per-worker executor
//!    counters (tasks, busy and idle time). Machine-readable,
//!    schema-tagged like every other artifact this repo emits.
//! 2. **Collapsed stacks** at `path` with the extension replaced by
//!    `.folded` — one `thread;zone;child self_ns` line per tree node,
//!    directly consumable by `flamegraph.pl` or inferno.
//! 3. **Top-N self-time table** on stderr — the at-a-glance answer to
//!    "where did the wall time go" without leaving the terminal.
//!
//! The profiler reads host clocks only, so all of this is bit-inert for
//! simulation outputs: figure CSVs and telemetry JSONL are byte-identical
//! with `--profile` on or off (CI pins this).

use crate::executor::ExecutorStats;
use sais_obs::json::write_json_string;
use sais_prof::{ZoneNode, ZoneReport, NUM_PHASES, PHASES};
use std::fmt::Write as _;
use std::path::Path;

/// Schema tag of the JSON artifact.
pub const SCHEMA: &str = "sais-hostprof/v2";

/// Rows in the stderr self-time table.
pub const TOP_N: usize = 12;

fn node_json(n: &ZoneNode, buf: &mut String) {
    buf.push_str("{\"name\":");
    write_json_string(&n.name, buf);
    let _ = write!(
        buf,
        ",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"max_ns\":{},\"children\":[",
        n.count, n.total_ns, n.self_ns, n.max_ns
    );
    for (i, c) in n.children.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        node_json(c, buf);
    }
    buf.push_str("]}");
}

/// The additive top-level phase breakdown: zone self-times partitioned by
/// [`sais_prof::phase_of`], plus total executor worker idle as its own
/// bucket (idle comes from counters, not zones, so it never double-counts
/// zone time). Returned in `PHASES` order with `executor_idle` appended.
pub fn phase_breakdown(
    report: &ZoneReport,
    exec: &ExecutorStats,
) -> [(String, u64); NUM_PHASES + 1] {
    let totals = report.phase_totals();
    let idle: u64 = exec.workers.iter().map(|w| w.idle_ns).sum();
    let mut out: Vec<(String, u64)> = PHASES
        .iter()
        .zip(totals)
        .map(|(p, ns)| (p.to_string(), ns))
        .collect();
    out.push(("executor_idle".to_string(), idle));
    out.try_into().expect("NUM_PHASES + 1 entries")
}

/// Render the full `sais-hostprof/v2` document.
pub fn render_json(report: &ZoneReport, exec: &ExecutorStats) -> String {
    let mut s = String::with_capacity(4096);
    let _ = write!(
        s,
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"dropped_samples\": {},\n  \"phases\": {{",
        report.dropped_samples
    );
    for (i, (name, ns)) in phase_breakdown(report, exec).iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{name}\":{ns}");
    }
    s.push_str("},\n  \"threads\": [");
    for (i, t) in report.threads.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {\"label\":");
        write_json_string(&t.label, &mut s);
        s.push_str(",\"zones\":[");
        for (j, root) in t.roots.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            node_json(root, &mut s);
        }
        s.push_str("]}");
    }
    let _ = write!(
        s,
        "\n  ],\n  \"executor\": {{\"pools\":{},\"workers\":[",
        exec.pools
    );
    for (i, w) in exec.workers.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"tasks\":{},\"busy_ns\":{},\"idle_ns\":{}}}",
            w.tasks, w.busy_ns, w.idle_ns
        );
    }
    s.push_str("]}\n}\n");
    s
}

/// Write the complete `--profile` artifact set: JSON at `path`, collapsed
/// stacks at `path.with_extension("folded")`, the top-N table on stderr,
/// each echoed as `[profile] path` in the house style.
pub fn write_profile(path: &Path) {
    let report = sais_prof::report();
    let exec = crate::executor::executor_stats();
    let json = render_json(&report, &exec);
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("[profile] {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    let folded_path = path.with_extension("folded");
    match std::fs::write(&folded_path, report.collapsed()) {
        Ok(()) => eprintln!("[profile] {}", folded_path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", folded_path.display()),
    }
    eprintln!("host profile — top {TOP_N} zones by self time:");
    eprint!("{}", report.top_table(TOP_N));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::WorkerCounters;
    use sais_obs::json::JsonValue;
    use sais_prof::ThreadTree;

    fn sample_report() -> ZoneReport {
        ZoneReport {
            threads: vec![ThreadTree {
                label: "main".into(),
                roots: vec![ZoneNode {
                    name: "engine.dispatch".into(),
                    count: 3,
                    total_ns: 1000,
                    self_ns: 600,
                    max_ns: 500,
                    children: vec![ZoneNode {
                        name: "mem.touch".into(),
                        count: 6,
                        total_ns: 400,
                        self_ns: 400,
                        max_ns: 90,
                        children: vec![],
                    }],
                }],
            }],
            dropped_samples: 2,
        }
    }

    fn sample_exec() -> ExecutorStats {
        ExecutorStats {
            pools: 1,
            workers: vec![
                WorkerCounters {
                    tasks: 5,
                    busy_ns: 900,
                    idle_ns: 100,
                },
                WorkerCounters {
                    tasks: 3,
                    busy_ns: 700,
                    idle_ns: 300,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_through_parser() {
        let s = render_json(&sample_report(), &sample_exec());
        let v = JsonValue::parse(&s).expect("valid JSON");
        assert_eq!(v.get("schema").and_then(JsonValue::as_str), Some(SCHEMA));
        assert_eq!(
            v.get("dropped_samples").and_then(JsonValue::as_u64),
            Some(2)
        );
        let phases = v.get("phases").expect("phases object");
        assert_eq!(phases.get("engine").and_then(JsonValue::as_u64), Some(600));
        assert_eq!(phases.get("mem").and_then(JsonValue::as_u64), Some(400));
        assert_eq!(
            phases.get("executor_idle").and_then(JsonValue::as_u64),
            Some(400),
            "idle sums both workers"
        );
        let threads = v.get("threads").and_then(JsonValue::as_array).unwrap();
        assert_eq!(threads.len(), 1);
        let zones = threads[0]
            .get("zones")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(
            zones[0].get("name").and_then(JsonValue::as_str),
            Some("engine.dispatch")
        );
        let kids = zones[0]
            .get("children")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(
            kids[0].get("name").and_then(JsonValue::as_str),
            Some("mem.touch")
        );
        let exec = v.get("executor").expect("executor object");
        assert_eq!(exec.get("pools").and_then(JsonValue::as_u64), Some(1));
        let workers = exec.get("workers").and_then(JsonValue::as_array).unwrap();
        assert_eq!(workers.len(), 2);
        assert_eq!(
            workers[1].get("idle_ns").and_then(JsonValue::as_u64),
            Some(300)
        );
    }

    #[test]
    fn labels_are_escaped() {
        let mut r = sample_report();
        r.threads[0].label = "we\"ird\\lab\nel".into();
        let s = render_json(&r, &sample_exec());
        let v = JsonValue::parse(&s).expect("escapes keep the JSON valid");
        let threads = v.get("threads").and_then(JsonValue::as_array).unwrap();
        assert_eq!(
            threads[0].get("label").and_then(JsonValue::as_str),
            Some("we\"ird\\lab\nel")
        );
    }
}
