//! Accuracy against the paper: the simulated SAIs speed-ups next to the
//! figures the paper reports for its testbed.

use crate::grid::{Job, Tag};
use crate::run::Pass;
use std::collections::BTreeMap;

/// Paper, Fig. 5: maximum SAIs bandwidth gain with the 3-Gigabit NIC, at
/// 48 servers (percent).
pub const PAPER_GAIN_3GIG: f64 = 23.57;
/// Paper, §V-C: peak SAIs bandwidth gain with the 1-Gigabit NIC (percent).
pub const PAPER_GAIN_1GIG: f64 = 6.05;
/// Paper, Fig. 14: peak Si-SAIs gain in the in-memory experiment (percent).
pub const PAPER_GAIN_INMEM: f64 = 53.23;

/// Simulated speed-ups, percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gains {
    /// Max over 48-server 3-Gig cells.
    pub gain_3gig: f64,
    /// Peak over 1-Gig cells.
    pub gain_1gig: f64,
    /// Peak over Fig. 14 application counts.
    pub gain_inmem: f64,
}

impl Gains {
    /// `(metric name, |simulated − paper| in percentage points)`.
    pub fn errors(&self) -> [(&'static str, f64); 3] {
        [
            ("gain_err_3gig_pp", (self.gain_3gig - PAPER_GAIN_3GIG).abs()),
            ("gain_err_1gig_pp", (self.gain_1gig - PAPER_GAIN_1GIG).abs()),
            (
                "gain_err_inmem_pp",
                (self.gain_inmem - PAPER_GAIN_INMEM).abs(),
            ),
        ]
    }
}

/// The three gains from the paper cells in `pass`: per cell, the mean
/// bandwidth of each policy over its seeds, then the speed-up. Returns
/// `None` unless the pass holds every paper cell the three gains need.
pub fn gains(jobs: &[Job], pass: &Pass) -> Option<Gains> {
    // Per cell: [(bandwidth sum, runs) for irqbalance, the same for SAIs].
    let mut cells: BTreeMap<Tag, [(f64, u32); 2]> = BTreeMap::new();
    for (job, run) in jobs.iter().zip(&pass.runs) {
        if job.tag != Tag::Other {
            let slot = &mut cells.entry(job.tag).or_default()[job.is_sais() as usize];
            slot.0 += run.bandwidth;
            slot.1 += 1;
        }
    }
    let mut best = [f64::NEG_INFINITY; 3];
    for (tag, [b, s]) in &cells {
        let which = match *tag {
            Tag::Paper {
                ports: 3,
                servers: 48,
                ..
            } => 0,
            Tag::Paper { ports: 1, .. } => 1,
            Tag::InMem { .. } => 2,
            _ => continue,
        };
        if b.1 > 0 && s.1 > 0 {
            let gain = ((s.0 / s.1 as f64) / (b.0 / b.1 as f64) - 1.0) * 100.0;
            best[which] = best[which].max(gain);
        }
    }
    best.iter().all(|g| g.is_finite()).then(|| Gains {
        gain_3gig: best[0],
        gain_1gig: best[1],
        gain_inmem: best[2],
    })
}
