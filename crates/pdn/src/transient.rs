//! Transient (load-step) analysis of the PDN — an extension beyond the
//! paper's DC/IR study.
//!
//! The paper evaluates average-case IR drop; the natural next question for
//! a voltage-stacked design is the **di/dt event**: what happens at the
//! instant the workload imbalance appears (e.g. half the layers finish a
//! barrier and idle)? The PDN's response is set by the on-chip decoupling
//! capacitance against the converter/package source impedance.
//!
//! Both PDN topologies share one backward-Euler step response
//! ([`crate::Pdn::solve_transient_step`]): the network starts from
//! the DC solution of the *before* loads, the loads switch to *after* at
//! `t = 0`, and per-layer decap (between each layer's local supply and
//! return nets) carries the charge while the rails re-settle. The system
//! matrix `G + C/Δt` is SPD and assembled once; every timestep is one
//! escalation-ladder solve started from the previous step, led as every
//! other PDN solve of its size is.

/// Configuration for a PDN load-step transient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdnTransientConfig {
    /// Timestep in seconds (0.5 ns default resolves the decap RC).
    pub dt_s: f64,
    /// Simulated span in seconds.
    pub duration_s: f64,
    /// Explicit + intrinsic decoupling capacitance per core per layer, in
    /// farads (40 nF ≈ 15 nF/mm² over a 2.76 mm² core, a typical planar
    /// MOS-decap budget).
    pub decap_per_core_f: f64,
}

impl Default for PdnTransientConfig {
    fn default() -> Self {
        PdnTransientConfig {
            dt_s: 0.5e-9,
            duration_s: 200e-9,
            decap_per_core_f: 40e-9,
        }
    }
}

impl PdnTransientConfig {
    /// Number of timesteps implied by `dt_s` and `duration_s`.
    ///
    /// # Panics
    ///
    /// Panics unless both are finite and positive and
    /// `duration_s >= dt_s`.
    pub fn steps(&self) -> usize {
        assert!(
            self.dt_s.is_finite() && self.dt_s > 0.0,
            "dt must be positive"
        );
        assert!(
            self.duration_s.is_finite() && self.duration_s >= self.dt_s,
            "duration must cover at least one step"
        );
        (self.duration_s / self.dt_s).round() as usize
    }
}

/// The worst-node IR-drop trajectory after a load step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepResponse {
    /// Sample times (seconds, first sample at `dt`).
    pub times_s: Vec<f64>,
    /// Worst on-chip IR-drop fraction at each sample.
    pub max_drop_series: Vec<f64>,
    /// Worst drop in the initial (pre-step) DC state.
    pub initial_drop: f64,
}

impl StepResponse {
    /// The largest transient excursion.
    pub fn peak_drop(&self) -> f64 {
        self.max_drop_series
            .iter()
            .copied()
            .fold(f64::MIN, f64::max)
    }

    /// The drop at the end of the window (≈ the post-step DC value when
    /// the window is long enough).
    pub fn final_drop(&self) -> f64 {
        *self.max_drop_series.last().expect("non-empty response")
    }

    /// Overshoot of the transient peak beyond the final settled drop.
    pub fn overshoot(&self) -> f64 {
        self.peak_drop() - self.final_drop()
    }

    /// First time after which the response stays within `band` (absolute
    /// drop fraction) of the final value. `None` if it never settles
    /// inside the window.
    pub fn settling_time(&self, band: f64) -> Option<f64> {
        let target = self.final_drop();
        let mut settled_at = None;
        for (t, d) in self.times_s.iter().zip(&self.max_drop_series) {
            if (d - target).abs() <= band {
                settled_at.get_or_insert(*t);
            } else {
                settled_at = None;
            }
        }
        settled_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response() -> StepResponse {
        StepResponse {
            times_s: vec![1e-9, 2e-9, 3e-9, 4e-9],
            max_drop_series: vec![0.05, 0.04, 0.031, 0.030],
            initial_drop: 0.01,
        }
    }

    #[test]
    fn peak_and_final() {
        let r = response();
        assert_eq!(r.peak_drop(), 0.05);
        assert_eq!(r.final_drop(), 0.030);
        assert!((r.overshoot() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn settling_detection() {
        let r = response();
        assert_eq!(r.settling_time(0.002), Some(3e-9));
        assert_eq!(r.settling_time(0.0001), Some(4e-9));
    }

    #[test]
    fn default_config_steps() {
        assert_eq!(PdnTransientConfig::default().steps(), 400);
    }

    #[test]
    #[should_panic(expected = "duration must cover")]
    fn short_duration_rejected() {
        let cfg = PdnTransientConfig {
            dt_s: 1e-9,
            duration_s: 0.5e-9,
            decap_per_core_f: 1e-9,
        };
        let _ = cfg.steps();
    }
}
