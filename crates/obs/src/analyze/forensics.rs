//! Tail forensics: show the critical path of the slowest requests.
//!
//! Aggregates tell you the p99.9 moved; forensics tells you *why that
//! request* was the p99.9. The tail threshold comes from the same
//! log-linear [`Histogram`] the metric registry
//! uses, so the cutoff here agrees with the quantiles reported
//! everywhere else in the repo.

use super::blame::RequestBlame;
use sais_metrics::Histogram;

/// A human-readable report of the requests at or above the `q` latency
/// quantile, each with its full critical path, worst first. At most
/// `max_n` requests are shown (the rest are summarized in the header).
pub fn tail_report(blames: &[RequestBlame], q: f64, max_n: usize) -> String {
    if blames.is_empty() {
        return "tail forensics: no completed requests\n".to_string();
    }
    let mut hist = Histogram::new();
    for b in blames {
        hist.record(b.total_ns);
    }
    let threshold = hist.quantile(q);
    let mut tail: Vec<&RequestBlame> = blames.iter().filter(|b| b.total_ns >= threshold).collect();
    tail.sort_by(|a, b| {
        b.total_ns
            .cmp(&a.total_ns)
            .then(a.start_ns.cmp(&b.start_ns))
    });

    let mut out = format!(
        "tail forensics: {} of {} requests at or above p{} = {} ns (min {} / max {} ns)\n",
        tail.len(),
        blames.len(),
        q * 100.0,
        threshold,
        hist.min(),
        hist.max(),
    );
    for b in tail.iter().take(max_n) {
        out.push_str(&format!(
            "\nrequest client {} lane {} seq {}{}: {} ns total, start {} ns\n",
            b.pid,
            b.tid,
            b.seq,
            match b.read_id {
                Some(id) => format!(" (read_id {id})"),
                None => String::new(),
            },
            b.total_ns,
            b.start_ns,
        ));
        for seg in &b.segments {
            let pct = 100.0 * seg.len_ns() as f64 / b.total_ns as f64;
            out.push_str(&format!(
                "  {:>12} .. {:>12}  {:>11} ns  {:>5.1}%  {:<15}{}\n",
                seg.start_ns,
                seg.end_ns,
                seg.len_ns(),
                pct,
                seg.cat.name(),
                match seg.core {
                    Some(c) => format!(" core {c}"),
                    None => String::new(),
                },
            ));
        }
    }
    if tail.len() > max_n {
        out.push_str(&format!("\n... {} more not shown\n", tail.len() - max_n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::blame::{BlameCategory, Segment, CATEGORIES};

    fn req(seq: u64, total: u64) -> RequestBlame {
        let mut ns = [0u64; CATEGORIES.len()];
        ns[BlameCategory::Consume.index()] = total;
        RequestBlame {
            span: seq as usize,
            pid: 0,
            tid: 100,
            seq,
            read_id: Some(seq),
            start_ns: seq * 1_000,
            total_ns: total,
            ns,
            segments: vec![Segment {
                cat: BlameCategory::Consume,
                start_ns: seq * 1_000,
                end_ns: seq * 1_000 + total,
                core: Some(3),
            }],
        }
    }

    #[test]
    fn outliers_are_selected_and_sorted_worst_first() {
        // 99 fast requests and one 10x outlier.
        let mut blames: Vec<RequestBlame> = (0..99).map(|i| req(i, 10_000)).collect();
        blames.push(req(99, 100_000));
        let report = tail_report(&blames, 0.995, 8);
        assert!(report.contains("1 of 100 requests"), "{report}");
        assert!(report.contains("seq 99"), "outlier shown: {report}");
        assert!(report.contains("100000 ns total"), "{report}");
        // The fast requests fall below the p99.5 bucket threshold.
        assert!(!report.contains("seq 42"), "{report}");
        assert!(report.contains("consume"), "segments listed: {report}");
        assert!(report.contains("core 3"), "{report}");
    }

    #[test]
    fn max_n_truncates_with_a_note() {
        let blames: Vec<RequestBlame> = (0..10).map(|i| req(i, 10_000)).collect();
        // q = 0 selects everything.
        let report = tail_report(&blames, 0.0, 3);
        assert!(report.contains("10 of 10 requests"), "{report}");
        assert!(report.contains("... 7 more not shown"), "{report}");
    }

    #[test]
    fn empty_input_reports_gracefully() {
        assert!(tail_report(&[], 0.999, 8).contains("no completed requests"));
    }
}
