//! Windowed time-series metrics: ring-buffered, bucketed by simulated time.
//!
//! A [`WindowRing`] slices virtual time into fixed-width windows
//! (`epoch = t_ns / width_ns`) and keeps the most recent `capacity`
//! windows of some mergeable payload — a latency [`Histogram`], a
//! monotone counter, a high-water gauge, or any composite implementing
//! [`WindowPayload`]. Three invariants make the ring safe to use inside
//! the deterministic simulation:
//!
//! * **Rotation is a pure function of the clock.** A window's identity is
//!   its epoch number, derived only from the recorded timestamp — never
//!   from call order or batching. Recording the same `(t, value)` pairs
//!   in any grouping produces bit-identical windows.
//! * **Memory is bounded.** The ring holds at most `capacity` windows;
//!   advancing time past the ring evicts the oldest windows (counted in
//!   [`WindowRing::evictions`]) and gap-fills skipped epochs with empty
//!   windows so the series stays contiguous.
//! * **Absorb is exact.** All payloads fold with integer adds and maxes,
//!   so absorbing same-epoch windows from different runs (cells, seeds)
//!   is associative and commutative — an aggregation can fold them in
//!   any grouping and land on the same bits.

use crate::histogram::Histogram;

/// A payload that can live in one window of a [`WindowRing`].
///
/// `absorb` must be exact (integer arithmetic only), associative and
/// commutative: the `--obs` telemetry collector folds same-epoch payloads
/// from many runs and relies on the result being grouping-independent.
pub trait WindowPayload: Default + Clone {
    /// Fold another same-epoch payload into this one.
    fn absorb(&mut self, other: &Self);
}

impl WindowPayload for Histogram {
    fn absorb(&mut self, other: &Self) {
        self.merge(other);
    }
}

/// A windowed event counter: absorb adds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterCell(pub u64);

impl WindowPayload for CounterCell {
    fn absorb(&mut self, other: &Self) {
        self.0 += other.0;
    }
}

/// A windowed high-water gauge: absorb takes the max.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeCell(pub u64);

impl WindowPayload for GaugeCell {
    fn absorb(&mut self, other: &Self) {
        self.0 = self.0.max(other.0);
    }
}

/// A windowed latency histogram.
pub type WindowedHistogram = WindowRing<Histogram>;
/// A windowed counter series.
pub type WindowedCounter = WindowRing<CounterCell>;
/// A windowed high-water gauge series.
pub type WindowedGauge = WindowRing<GaugeCell>;

/// A bounded ring of contiguous time windows.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRing<T> {
    width_ns: u64,
    cap: usize,
    /// Epoch of `cells[0]`. Meaningless while `cells` is empty.
    start_epoch: u64,
    /// Contiguous windows, oldest first. `cells.len() <= cap`.
    cells: Vec<T>,
    rotations: u64,
    evictions: u64,
    late: u64,
}

impl<T: WindowPayload> WindowRing<T> {
    /// A ring slicing time into `width_ns`-wide windows, keeping the most
    /// recent `capacity` of them.
    pub fn new(width_ns: u64, capacity: usize) -> Self {
        assert!(width_ns > 0, "window width must be positive");
        assert!(capacity > 0, "window capacity must be positive");
        WindowRing {
            width_ns,
            cap: capacity,
            start_epoch: 0,
            cells: Vec::new(),
            rotations: 0,
            evictions: 0,
            late: 0,
        }
    }

    /// Window width in nanoseconds of simulated time.
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    /// The epoch a timestamp falls into.
    pub fn epoch_of(&self, t_ns: u64) -> u64 {
        t_ns / self.width_ns
    }

    /// Number of windows currently held.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no window has been opened yet.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Epoch of the oldest retained window.
    pub fn start_epoch(&self) -> u64 {
        self.start_epoch
    }

    /// Times a new window was opened by the advancing clock (including
    /// gap-filled empty windows).
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Windows evicted because the clock advanced past the ring.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Records that arrived for an already-evicted epoch (dropped).
    pub fn late(&self) -> u64 {
        self.late
    }

    /// Open windows up to and including the one containing `t_ns`,
    /// gap-filling skipped epochs and evicting past the capacity. This is
    /// the rotation step; it is driven purely by the virtual clock.
    pub fn advance_to(&mut self, t_ns: u64) {
        let epoch = self.epoch_of(t_ns);
        if self.cells.is_empty() {
            self.start_epoch = epoch;
            self.cells.push(T::default());
            self.rotations += 1;
            return;
        }
        let end = self.start_epoch + self.cells.len() as u64;
        if epoch < end {
            return; // window already open
        }
        let opened = epoch - end + 1;
        for _ in 0..opened {
            self.cells.push(T::default());
        }
        self.rotations += opened;
        if self.cells.len() > self.cap {
            let excess = self.cells.len() - self.cap;
            self.cells.drain(..excess);
            self.start_epoch += excess as u64;
            self.evictions += excess as u64;
        }
    }

    /// Record into the window containing `t_ns`, rotating first if the
    /// timestamp opens a new window. Records into epochs already evicted
    /// are counted in [`WindowRing::late`] and dropped.
    pub fn record_at(&mut self, t_ns: u64, f: impl FnOnce(&mut T)) {
        let epoch = self.epoch_of(t_ns);
        if !self.cells.is_empty() && epoch < self.start_epoch {
            self.late += 1;
            return;
        }
        self.advance_to(t_ns);
        let idx = (epoch - self.start_epoch) as usize;
        f(&mut self.cells[idx]);
    }

    /// Iterate the retained windows as `(epoch, payload)` pairs, oldest
    /// first.
    pub fn windows(&self) -> impl Iterator<Item = (u64, &T)> {
        let start = self.start_epoch;
        self.cells
            .iter()
            .enumerate()
            .map(move |(i, c)| (start + i as u64, c))
    }

    /// The payload for `epoch`, if retained.
    pub fn window(&self, epoch: u64) -> Option<&T> {
        if self.cells.is_empty() || epoch < self.start_epoch {
            return None;
        }
        self.cells.get((epoch - self.start_epoch) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_from_timestamps() {
        let mut r: WindowedCounter = WindowRing::new(1_000, 8);
        r.record_at(0, |c| c.0 += 1);
        r.record_at(999, |c| c.0 += 1);
        r.record_at(1_000, |c| c.0 += 1);
        r.record_at(2_500, |c| c.0 += 1);
        let got: Vec<(u64, u64)> = r.windows().map(|(e, c)| (e, c.0)).collect();
        assert_eq!(got, vec![(0, 2), (1, 1), (2, 1)]);
        assert_eq!(r.rotations(), 3);
        assert_eq!(r.evictions(), 0);
    }

    #[test]
    fn gap_filling_keeps_series_contiguous() {
        let mut r: WindowedCounter = WindowRing::new(100, 16);
        r.record_at(0, |c| c.0 += 1);
        r.record_at(500, |c| c.0 += 1); // skips epochs 1..=4
        let got: Vec<(u64, u64)> = r.windows().map(|(e, c)| (e, c.0)).collect();
        assert_eq!(got, vec![(0, 1), (1, 0), (2, 0), (3, 0), (4, 0), (5, 1)]);
        assert_eq!(r.rotations(), 6);
    }

    #[test]
    fn capacity_bounds_memory_and_counts_evictions() {
        let mut r: WindowedCounter = WindowRing::new(10, 4);
        for t in (0..100).step_by(10) {
            r.record_at(t, |c| c.0 += 1);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.start_epoch(), 6);
        assert_eq!(r.evictions(), 6);
        assert_eq!(r.rotations(), 10);
        // A record into an evicted epoch is dropped and counted.
        r.record_at(0, |c| c.0 += 100);
        assert_eq!(r.late(), 1);
        assert_eq!(r.window(6).unwrap().0, 1);
        assert!(r.window(0).is_none());
    }

    #[test]
    fn advance_without_records_opens_empty_windows() {
        let mut r: WindowedGauge = WindowRing::new(1_000, 8);
        r.advance_to(0);
        r.advance_to(3_500);
        assert_eq!(r.len(), 4);
        assert!(r.windows().all(|(_, g)| g.0 == 0));
        // Re-advancing inside an open window is a no-op.
        r.advance_to(3_999);
        assert_eq!(r.rotations(), 4);
    }
}
