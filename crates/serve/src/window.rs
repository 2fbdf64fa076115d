//! Rolling window of ingested flow frames.
//!
//! The daemon never replays a dataset: frames arrive one at a time over
//! `/ingest` and forecasts are sliced from whatever history is currently
//! held. [`FlowWindow`] is a fixed-capacity ring buffer of `2×H×W` frames
//! indexed by *absolute* frame index (the `i`-th ingested frame keeps
//! index `i` forever), so the closeness/period/trend lag arithmetic of
//! [`muse_traffic::SubSeriesSpec`] applies unchanged — the window just
//! refuses to serve frames that have been evicted.
//!
//! Capacity is normally [`SubSeriesSpec::min_target`], the deepest lag the
//! trend branch reaches (`Lt · f · 7`); once the window has wrapped that
//! far, every lag of every branch resolves and the daemon is *ready*.

use muse_traffic::{FrameSource, GridMap, SubSeriesSpec};

/// Fixed-capacity ring buffer of `2×H×W` flow frames.
pub struct FlowWindow {
    grid: GridMap,
    frame_len: usize,
    capacity: usize,
    data: Vec<f32>,
    /// Absolute index of the next frame to ingest == frames ingested so far.
    next: u64,
}

impl FlowWindow {
    /// A window holding the most recent `capacity` frames for `grid`.
    pub fn new(grid: GridMap, capacity: usize) -> Self {
        assert!(capacity >= 1, "window needs at least one frame of capacity");
        let frame_len = 2 * grid.cells();
        FlowWindow { grid, frame_len, capacity, data: vec![0.0; capacity * frame_len], next: 0 }
    }

    /// A window deep enough to serve every lag of `spec`.
    pub fn for_spec(grid: GridMap, spec: &SubSeriesSpec) -> Self {
        FlowWindow::new(grid, spec.min_target())
    }

    /// Grid the window's frames are laid out on.
    pub fn grid(&self) -> GridMap {
        self.grid
    }

    /// Scalars per frame (`2·H·W`).
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// Maximum frames retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Frames currently held (`min(ingested, capacity)`).
    pub fn len(&self) -> usize {
        self.next.min(self.capacity as u64) as usize
    }

    /// Whether no frame has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.next == 0
    }

    /// Absolute index the next ingested frame will get — also the index of
    /// the next *forecast* target.
    pub fn next_index(&self) -> u64 {
        self.next
    }

    /// Whether the window is full, i.e. every lag a forecast needs resolves.
    pub fn ready(&self) -> bool {
        self.len() == self.capacity
    }

    /// Ingest one frame (row-major `[2, H, W]` scalars, scaled units),
    /// evicting the oldest when full. Returns the frame's absolute index.
    pub fn push(&mut self, frame: &[f32]) -> Result<u64, String> {
        if frame.len() != self.frame_len {
            return Err(format!(
                "frame has {} scalars, expected {} (2×{}×{})",
                frame.len(),
                self.frame_len,
                self.grid.height,
                self.grid.width
            ));
        }
        if let Some(bad) = frame.iter().find(|v| !v.is_finite()) {
            return Err(format!("frame contains a non-finite value ({bad})"));
        }
        let slot = (self.next % self.capacity as u64) as usize * self.frame_len;
        self.data[slot..slot + self.frame_len].copy_from_slice(frame);
        let index = self.next;
        self.next += 1;
        Ok(index)
    }

    /// Borrow the frame at absolute index `abs`. Panics if the frame was
    /// evicted or never ingested — callers gate on [`FlowWindow::ready`]
    /// and only reach back by lags the capacity covers.
    pub fn frame(&self, abs: u64) -> &[f32] {
        assert!(abs < self.next, "frame {abs} not ingested yet (next is {})", self.next);
        assert!(
            self.next - abs <= self.capacity as u64,
            "frame {abs} evicted (window holds [{}, {}))",
            self.next - self.capacity as u64,
            self.next
        );
        let slot = (abs % self.capacity as u64) as usize * self.frame_len;
        &self.data[slot..slot + self.frame_len]
    }

    /// The live frames in chronological order as two borrowed runs — the
    /// zero-copy snapshot the spectral sweep iterates. The ring stores
    /// frame `i` at slot `i % capacity`, so the oldest live frame sits
    /// mid-buffer once wrapped: the first run covers the oldest frames up
    /// to the physical end of the buffer, the second the wrap-around back
    /// to the newest. Either run may be empty; concatenated they are
    /// exactly `len()` frames, oldest first.
    pub fn chrono_runs(&self) -> (&[f32], &[f32]) {
        let len = self.len();
        if len == 0 {
            return (&[], &[]);
        }
        let oldest_slot = ((self.next - len as u64) % self.capacity as u64) as usize;
        let head = len.min(self.capacity - oldest_slot);
        let first = &self.data[oldest_slot * self.frame_len..(oldest_slot + head) * self.frame_len];
        let second = &self.data[..(len - head) * self.frame_len];
        (first, second)
    }

    /// Borrow the frame at absolute index `abs`, or `None` when it was
    /// evicted or not ingested yet. The forecast journal settles against
    /// ground truth with this: a target frame that fell off the ring (the
    /// daemon outlived the journal's patience) must score as *dropped*,
    /// never panic the worker serving the ingest.
    pub fn try_frame(&self, abs: u64) -> Option<&[f32]> {
        if abs >= self.next || self.next - abs > self.capacity as u64 {
            return None;
        }
        let slot = (abs % self.capacity as u64) as usize * self.frame_len;
        Some(&self.data[slot..slot + self.frame_len])
    }
}

impl FrameSource for FlowWindow {
    fn frame_slice(&self, i: usize) -> &[f32] {
        self.frame(i as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(window: &FlowWindow, fill: f32) -> Vec<f32> {
        vec![fill; window.frame_len()]
    }

    #[test]
    fn fills_wraps_and_keeps_absolute_indexing() {
        let mut w = FlowWindow::new(GridMap::new(2, 3), 4);
        assert_eq!(w.frame_len(), 12);
        assert!(!w.ready());
        for i in 0..6u64 {
            let idx = w.push(&frame(&w, i as f32)).unwrap();
            assert_eq!(idx, i);
        }
        assert!(w.ready());
        assert_eq!(w.len(), 4);
        assert_eq!(w.next_index(), 6);
        // Frames 2..6 are live, each holding its own fill value.
        for i in 2..6u64 {
            assert!(w.frame(i).iter().all(|&v| v == i as f32), "frame {i}");
        }
    }

    #[test]
    fn rejects_wrong_length_and_non_finite() {
        let mut w = FlowWindow::new(GridMap::new(2, 2), 2);
        assert!(w.push(&[0.0; 3]).unwrap_err().contains("expected 8"));
        let mut bad = frame(&w, 1.0);
        bad[3] = f32::NAN;
        assert!(w.push(&bad).unwrap_err().contains("non-finite"));
        assert!(w.is_empty(), "rejected frames must not advance the window");
    }

    #[test]
    #[should_panic(expected = "evicted")]
    fn evicted_frame_panics() {
        let mut w = FlowWindow::new(GridMap::new(1, 1), 2);
        for i in 0..3 {
            w.push(&frame(&w, i as f32)).unwrap();
        }
        let _ = w.frame(0);
    }

    #[test]
    #[should_panic(expected = "not ingested")]
    fn future_frame_panics() {
        let w = FlowWindow::new(GridMap::new(1, 1), 2);
        let _ = w.frame(0);
    }

    #[test]
    fn try_frame_covers_live_evicted_and_future_indices() {
        let mut w = FlowWindow::new(GridMap::new(2, 3), 4);
        assert_eq!(w.try_frame(0), None, "nothing ingested yet");
        for i in 0..6u64 {
            w.push(&frame(&w, i as f32)).unwrap();
        }
        // Live range is [2, 6): absolute indices resolve to their own data.
        for i in 2..6u64 {
            let got = w.try_frame(i).expect("live frame");
            assert!(got.iter().all(|&v| v == i as f32), "frame {i}");
        }
        assert_eq!(w.try_frame(0), None, "evicted by wraparound");
        assert_eq!(w.try_frame(1), None, "evicted by wraparound");
        assert_eq!(w.try_frame(6), None, "future frame");
        assert_eq!(w.try_frame(u64::MAX), None, "absurd index is benign");
    }

    #[test]
    fn try_frame_exact_boundary_at_capacity() {
        // With capacity 2 and 2 frames ingested, both are still live.
        let mut w = FlowWindow::new(GridMap::new(1, 1), 2);
        w.push(&[10.0, 10.0]).unwrap();
        w.push(&[11.0, 11.0]).unwrap();
        assert_eq!(w.try_frame(0), Some(&[10.0, 10.0][..]));
        assert_eq!(w.try_frame(1), Some(&[11.0, 11.0][..]));
        // One more push evicts exactly index 0.
        w.push(&[12.0, 12.0]).unwrap();
        assert_eq!(w.try_frame(0), None);
        assert_eq!(w.try_frame(1), Some(&[11.0, 11.0][..]));
        assert_eq!(w.try_frame(2), Some(&[12.0, 12.0][..]));
    }

    #[test]
    fn chrono_runs_cover_the_window_oldest_first() {
        let mut w = FlowWindow::new(GridMap::new(1, 1), 4);
        assert_eq!(w.chrono_runs(), (&[][..], &[][..]));
        // Unwrapped: frames 0..3 live in one run.
        for i in 0..3u64 {
            w.push(&frame(&w, i as f32)).unwrap();
        }
        let (a, b) = w.chrono_runs();
        assert_eq!(a, &[0.0, 0.0, 1.0, 1.0, 2.0, 2.0][..]);
        assert!(b.is_empty());
        // Wrapped: frames 2..6 live, oldest (2) sits at slot 2.
        for i in 3..6u64 {
            w.push(&frame(&w, i as f32)).unwrap();
        }
        let (a, b) = w.chrono_runs();
        assert_eq!(a, &[2.0, 2.0, 3.0, 3.0][..]);
        assert_eq!(b, &[4.0, 4.0, 5.0, 5.0][..]);
        // Chronological reconstruction matches frame-by-frame reads.
        let merged: Vec<f32> = a.iter().chain(b).copied().collect();
        let direct: Vec<f32> = (2..6u64).flat_map(|i| w.frame(i).to_vec()).collect();
        assert_eq!(merged, direct);
    }

    #[test]
    fn chrono_runs_zero_copy_at_exact_wrap_boundary() {
        // After exactly capacity pushes the oldest slot is 0 again: one
        // contiguous run, no second slice.
        let mut w = FlowWindow::new(GridMap::new(1, 1), 3);
        for i in 0..3u64 {
            w.push(&frame(&w, i as f32)).unwrap();
        }
        let (a, b) = w.chrono_runs();
        assert_eq!(a.len(), 6);
        assert!(b.is_empty());
        assert_eq!(a.as_ptr(), w.data.as_ptr(), "first run borrows the ring in place");
    }

    #[test]
    fn for_spec_sizes_to_deepest_lag() {
        let spec = SubSeriesSpec { lc: 3, lp: 2, lt: 2, intervals_per_day: 4, trend_days: 7 };
        let w = FlowWindow::for_spec(GridMap::new(2, 2), &spec);
        assert_eq!(w.capacity(), spec.min_target());
        assert_eq!(w.capacity(), 2 * 4 * 7);
    }
}
