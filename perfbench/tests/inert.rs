//! The traced run's `Model` wrapper must be bit-inert: on one cell of
//! each workload, the traced run's `RunMetrics` digest equals the
//! untraced run's, and both equal `ScenarioConfig::run`'s.

use sais_core::scenario::ScenarioConfig;
use sais_perfbench::grid::{Job, Sim, Workload};
use sais_perfbench::run::{self, metrics_digest, Off, Output, Trace};

fn digest(out: &Output) -> u64 {
    match out {
        Output::Cluster(f) => metrics_digest(f.metrics()),
        Output::InMem(_) => panic!("expected a cluster run"),
    }
}

/// Untraced, traced and library-run digests of `job`, plus the traced
/// handler calls.
fn three_ways(job: &Job) -> (u64, u64, u64, u64) {
    let Sim::Cluster(cfg) = &job.sim else {
        panic!("expected a cluster job")
    };
    let untraced = run::execute(job, run::prepare(job, &mut Off), &mut Off);
    let mut trace = Trace::default();
    let prepared = run::prepare(job, &mut trace);
    let traced = run::execute(job, prepared, &mut trace);
    let library = metrics_digest(&ScenarioConfig::clone(cfg).run());
    let calls = trace.handler_calls.iter().sum();
    assert_eq!(run::assess(job, &untraced).failure, None);
    assert_eq!(run::assess(job, &traced).failure, None);
    (digest(&untraced), digest(&traced), library, calls)
}

fn check(workload: Workload, pick: impl Fn(&Job) -> bool) {
    let jobs = workload.jobs(3);
    let job = jobs.iter().find(|j| pick(j)).expect("a matching cell");
    let (untraced, traced, library, calls) = three_ways(job);
    assert!(calls > 0, "{}: the wrapper saw no events", workload.name());
    assert_eq!(
        traced,
        untraced,
        "{}: tracing changed the run",
        workload.name()
    );
    assert_eq!(
        library,
        untraced,
        "{}: the benchmark's run loop differs from ScenarioConfig::run",
        workload.name()
    );
}

#[test]
fn wrapper_is_inert_on_paper_sweep() {
    check(Workload::PaperSweep, |j| matches!(j.sim, Sim::Cluster(_)));
}

#[test]
fn wrapper_is_inert_on_faulted_rw() {
    // The combined-fault cell under SAIs: loss, stripping and a straggler.
    check(Workload::FaultedRw, |j| match &j.sim {
        Sim::Cluster(c) => c.faults.loss > 0.0 && c.faults.option_strip > 0.0 && j.is_sais(),
        Sim::InMem(_) => false,
    });
}

#[test]
fn wrapper_is_inert_on_observed_sweep() {
    check(Workload::ObservedSweep, |j| {
        matches!(j.sim, Sim::Cluster(_))
    });
}
