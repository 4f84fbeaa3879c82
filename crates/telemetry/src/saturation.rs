//! Sustained-saturation detection over registry signals.
//!
//! A single overloaded instant is noise; *sustained* saturation is a
//! regime change that a serving layer should react to (shrink batch
//! deadlines, degrade to the bulk path). [`SaturationWindow`] turns a
//! stream of utilization observations — queue depth over capacity, shed
//! rate, drain-wait fraction, anything normalized to `[0, 1]` — into a
//! debounced boolean with hysteresis:
//!
//! * the window holds the last `window` observations (ring buffer);
//! * saturation **enters** when at least `enter_frac` of a *full* window
//!   is at/above `hot_threshold`;
//! * saturation **exits** only when the hot fraction falls to/below
//!   `exit_frac` — the enter/exit gap is the hysteresis band that stops
//!   the controller from flapping at the boundary.
//!
//! The tracker is deliberately clock-free: callers feed one observation
//! per control-loop tick, so "sustained" is measured in ticks, which keeps
//! the serving tests deterministic under a virtual clock.

/// Debounced saturation detector with hysteresis. See the module docs.
#[derive(Debug, Clone)]
pub struct SaturationWindow {
    /// Utilization at/above which one observation counts as hot.
    hot_threshold: f64,
    /// Hot fraction (of a full window) at/above which saturation enters.
    enter_frac: f64,
    /// Hot fraction at/below which saturation exits.
    exit_frac: f64,
    /// Ring of the last `capacity` observations.
    ring: Vec<f64>,
    /// Next write position in `ring`.
    head: usize,
    /// Observations seen (saturates at `ring.capacity()` for fullness).
    filled: usize,
    /// Current debounced state.
    saturated: bool,
}

impl SaturationWindow {
    /// A window over the last `window` observations; `hot_threshold` is
    /// the per-observation hot cut, and the `enter_frac`/`exit_frac` pair
    /// is the hysteresis band (enter must be > exit).
    ///
    /// # Panics
    /// Panics on an empty window or an inverted hysteresis band.
    pub fn new(window: usize, hot_threshold: f64, enter_frac: f64, exit_frac: f64) -> Self {
        assert!(window > 0, "window must hold at least one observation");
        assert!(
            enter_frac > exit_frac,
            "hysteresis requires enter_frac > exit_frac"
        );
        SaturationWindow {
            hot_threshold,
            enter_frac,
            exit_frac,
            ring: vec![0.0; window],
            head: 0,
            filled: 0,
            saturated: false,
        }
    }

    /// A default tuned for the serving control loop: 16-tick window, 90%
    /// utilization counts as hot, enter at 3/4 hot, exit at 1/4 hot.
    pub fn serving_default() -> Self {
        SaturationWindow::new(16, 0.9, 0.75, 0.25)
    }

    /// Feeds one observation and returns the updated debounced state.
    pub fn observe(&mut self, utilization: f64) -> bool {
        self.ring[self.head] = utilization;
        self.head = (self.head + 1) % self.ring.len();
        self.filled = (self.filled + 1).min(self.ring.len());

        // Never enter on a partial window: a burst in the first few ticks
        // of a run is not "sustained" yet.
        let full = self.filled == self.ring.len();
        let hot = self
            .ring
            .iter()
            .take(self.filled)
            .filter(|&&u| u >= self.hot_threshold)
            .count() as f64
            / self.ring.len() as f64;
        if self.saturated {
            if hot <= self.exit_frac {
                self.saturated = false;
            }
        } else if full && hot >= self.enter_frac {
            self.saturated = true;
        }
        self.saturated
    }

    /// Whether the window has seen enough observations to judge — both
    /// entering saturation and (for callers layering their own
    /// transitions, like the serve degrade ladder) confidently exiting
    /// require a full window.
    pub fn is_full(&self) -> bool {
        self.filled == self.ring.len()
    }

    /// Clears history and state, e.g. after a degrade-ladder transition
    /// so the new regime is judged on its own observations.
    pub fn reset(&mut self) {
        self.ring.fill(0.0);
        self.head = 0;
        self.filled = 0;
        self.saturated = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_cool_under_nominal_load() {
        let mut w = SaturationWindow::new(8, 0.9, 0.5, 0.25);
        for _ in 0..100 {
            assert!(!w.observe(0.3));
        }
    }

    #[test]
    fn partial_window_never_enters() {
        let mut w = SaturationWindow::new(8, 0.9, 0.5, 0.25);
        for _ in 0..7 {
            assert!(!w.observe(1.0), "partial window must not enter");
        }
        assert!(w.observe(1.0), "full hot window must enter");
    }

    #[test]
    fn hysteresis_band_prevents_flapping() {
        let mut w = SaturationWindow::new(4, 0.9, 0.75, 0.25);
        for _ in 0..3 {
            w.observe(1.0);
        }
        assert!(w.observe(1.0));
        // Hot fraction 3/4 is above exit_frac 1/4: still saturated.
        assert!(w.observe(0.0), "one cool tick must not exit");
        // Two more cool ticks: hot = 1/4 <= exit_frac, exits.
        w.observe(0.0);
        assert!(!w.observe(0.0));
        // And re-entry needs a full hot window again, not one hot tick.
        assert!(!w.observe(1.0));
    }

    #[test]
    fn reset_clears_state() {
        let mut w = SaturationWindow::new(2, 0.5, 0.9, 0.1);
        w.observe(1.0);
        assert!(w.observe(1.0));
        w.reset();
        assert!(!w.saturated);
        assert_eq!(w.filled, 0);
        assert!(!w.observe(1.0), "post-reset window is partial again");
    }

    #[test]
    #[should_panic(expected = "enter_frac > exit_frac")]
    fn inverted_band_panics() {
        SaturationWindow::new(4, 0.9, 0.25, 0.75);
    }
}
