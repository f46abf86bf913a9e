//! The analytic ("compact") SC converter model of paper §3.1 / Fig 2.
//!
//! The model reduces the switched converter to an ideal transformer with
//! output `V_ideal = (V_top + V_bottom)/2` in series with an output
//! impedance `R_SERIES`, plus parasitic losses accounted separately:
//!
//! * **Slow-switching limit** — fly-capacitor charge sharing:
//!   `R_SSL = (Σ|a_c,i|)² / (k · C_tot · f_SW)` with `k` charge transfers
//!   per period (2 for the push-pull topology, which moves charge in both
//!   phases). Paper Eq. (1).
//! * **Fast-switching limit** — switch conduction:
//!   `R_FSL = (Σ|a_r,i|)² / (G_tot · D_cyc)`. Paper Eq. (2).
//! * `R_SERIES = √(R_SSL² + R_FSL²)` — 0.6 Ω for the implemented
//!   28 nm converter (8 nF fly caps, 50 MHz, 4-way interleaving).
//! * **Parasitic losses** `R_PAR`-equivalent: bottom-plate capacitance,
//!   gate drive and controller overhead, modelled as explicit power terms
//!   so open-loop converters pay them even at zero load.

use crate::control::ControlPolicy;

/// Charge-multiplier description of an SC topology (Seeman methodology).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScTopology {
    /// `Σ|a_c,i|` — capacitor charge-multiplier magnitudes.
    pub ac_sum: f64,
    /// `Σ|a_r,i|` — switch charge-multiplier magnitudes.
    pub ar_sum: f64,
    /// Charge transfers per switching period (2 for push-pull two-phase).
    pub transfers_per_cycle: f64,
}

impl ScTopology {
    /// The 2:1 push-pull (two fly capacitors, eight switches) topology of
    /// the paper's Fig 1.
    pub fn push_pull_2to1() -> Self {
        ScTopology {
            ac_sum: 0.5,
            ar_sum: 1.0,
            transfers_per_cycle: 2.0,
        }
    }
}

/// Parasitic-loss parameters (the `R_PAR` box of the paper's Fig 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Parasitics {
    /// Bottom-plate capacitance as a fraction of the fly capacitance.
    /// Each cycle dissipates `ratio · C_tot · V_swing²`.
    pub bottom_plate_ratio: f64,
    /// Gate-drive energy per switching cycle, in joules.
    pub gate_energy_j: f64,
    /// Static controller/clocking overhead, in watts.
    pub controller_w: f64,
}

impl Default for Parasitics {
    fn default() -> Self {
        // Calibrated to the paper's Fig 3 efficiency curves: ≈10 mW total
        // switching overhead at 50 MHz with a 1 V output swing.
        Parasitics {
            bottom_plate_ratio: 0.02,
            gate_energy_j: 4.0e-11,
            controller_w: 5.0e-4,
        }
    }
}

/// Compact model of one 2:1 push-pull SC converter.
///
/// Construct with [`ScConverter::paper_28nm`] for the paper's implemented
/// converter, or fill the fields for design-space exploration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScConverter {
    /// Topology charge multipliers.
    pub topology: ScTopology,
    /// Total fly capacitance in farads (8 nF for the paper's converter).
    pub c_tot: f64,
    /// Total switch conductance in siemens.
    pub g_tot: f64,
    /// Nominal (open-loop) switching frequency in hertz.
    pub f_nom: f64,
    /// Clock duty cycle (0.5 assumed by the paper).
    pub duty: f64,
    /// Interleaving ways (affects ripple, not impedance; kept for area and
    /// detailed-model construction).
    pub interleave: u32,
    /// Rated (maximum) load current in amperes (0.1 A for the paper's
    /// converter).
    pub i_rated: f64,
    /// Parasitic loss parameters.
    pub parasitics: Parasitics,
    /// Frequency control policy.
    pub control: ControlPolicy,
}

impl ScConverter {
    /// The converter implemented in the paper: 28 nm, 8 nF integrated fly
    /// capacitance, 50 MHz optimum switching frequency, 4-way interleaving,
    /// 100 mA rated load, `R_SERIES = 0.6 Ω`, open-loop control.
    pub fn paper_28nm() -> Self {
        ScConverter {
            topology: ScTopology::push_pull_2to1(),
            c_tot: 8e-9,
            // Chosen so that √(R_SSL² + R_FSL²) = 0.6 Ω at 50 MHz:
            // R_SSL = 0.3125 Ω ⇒ R_FSL = 0.512 Ω ⇒ G_tot = 3.906 S.
            g_tot: 3.90625,
            f_nom: 50e6,
            duty: 0.5,
            interleave: 4,
            i_rated: 0.1,
            parasitics: Parasitics::default(),
            control: ControlPolicy::OpenLoop,
        }
    }

    /// Same converter with closed-loop frequency modulation.
    pub fn paper_28nm_closed_loop() -> Self {
        ScConverter {
            control: ControlPolicy::closed_loop(),
            ..ScConverter::paper_28nm()
        }
    }

    /// Slow-switching-limit output impedance at switching frequency `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not finite and positive.
    pub fn r_ssl(&self, f: f64) -> f64 {
        assert!(f.is_finite() && f > 0.0, "frequency must be positive");
        let ac = self.topology.ac_sum;
        (ac * ac) / (self.topology.transfers_per_cycle * self.c_tot * f)
    }

    /// Fast-switching-limit output impedance (frequency independent).
    pub fn r_fsl(&self) -> f64 {
        let ar = self.topology.ar_sum;
        (ar * ar) / (self.g_tot * self.duty)
    }

    /// Total series output impedance `√(R_SSL² + R_FSL²)` at frequency `f`.
    pub fn r_series(&self, f: f64) -> f64 {
        self.r_ssl(f).hypot(self.r_fsl())
    }

    /// `R_SERIES` at the nominal switching frequency (0.6 Ω for
    /// [`ScConverter::paper_28nm`]).
    pub fn r_series_at_nominal(&self) -> f64 {
        self.r_series(self.f_nom)
    }

    /// Whether `i_load` exceeds the converter's rating. The paper's Fig 6
    /// skips design points that overload any converter.
    pub fn is_overloaded(&self, i_load: f64) -> bool {
        i_load.abs() > self.i_rated
    }

    /// Parasitic (bottom-plate + gate-drive + controller) power at a given
    /// switching frequency and per-stage voltage swing — the loss a
    /// converter burns even at zero load.
    ///
    /// # Panics
    ///
    /// Panics if inputs are not finite and positive.
    pub fn parasitic_power(&self, f_sw: f64, v_swing: f64) -> f64 {
        assert!(f_sw.is_finite() && f_sw > 0.0, "frequency must be positive");
        assert!(
            v_swing.is_finite() && v_swing > 0.0,
            "voltage swing must be positive"
        );
        self.parasitics.bottom_plate_ratio * self.c_tot * v_swing * v_swing * f_sw
            + self.parasitics.gate_energy_j * f_sw
            + self.parasitics.controller_w
    }

    /// Evaluates the converter between rails `v_top` and `v_bottom`,
    /// delivering `i_out` (positive = sourcing into the output node,
    /// negative = sinking from it — the push-pull capability).
    ///
    /// # Panics
    ///
    /// Panics if `v_top <= v_bottom` or any input is not finite.
    pub fn operate(&self, v_top: f64, v_bottom: f64, i_out: f64) -> ScOperatingPoint {
        assert!(
            v_top.is_finite() && v_bottom.is_finite() && i_out.is_finite(),
            "operate() inputs must be finite"
        );
        assert!(
            v_top > v_bottom,
            "converter needs positive headroom (v_top {v_top} <= v_bottom {v_bottom})"
        );
        let f_sw = self.control.frequency(self.f_nom, i_out, self.i_rated);
        let r_series = self.r_series(f_sw);
        let v_ideal = 0.5 * (v_top + v_bottom);
        let v_out = v_ideal - i_out * r_series;
        let v_drop = (v_ideal - v_out).abs();
        let p_conduction = i_out * i_out * r_series;
        let v_swing = v_ideal - v_bottom;
        let p_parasitic =
            self.parasitics.bottom_plate_ratio * self.c_tot * v_swing * v_swing * f_sw
                + self.parasitics.gate_energy_j * f_sw
                + self.parasitics.controller_w;
        let p_out = (v_out - v_bottom) * i_out.abs();
        let efficiency = if p_out > 0.0 {
            p_out / (p_out + p_conduction + p_parasitic)
        } else {
            0.0
        };
        ScOperatingPoint {
            v_out,
            v_drop,
            f_sw,
            r_series,
            p_out,
            p_conduction,
            p_parasitic,
            efficiency,
        }
    }
}

/// Solved state of one converter at a load point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScOperatingPoint {
    /// Actual output voltage (after the `R_SERIES` drop).
    pub v_out: f64,
    /// Magnitude of the resistive output-voltage drop `|i·R_SERIES|`.
    pub v_drop: f64,
    /// Switching frequency chosen by the control policy.
    pub f_sw: f64,
    /// Series output impedance at that frequency.
    pub r_series: f64,
    /// Power delivered to the output, referenced to the bottom rail.
    pub p_out: f64,
    /// Conduction loss `i²·R_SERIES`.
    pub p_conduction: f64,
    /// Parasitic switching + controller loss.
    pub p_parasitic: f64,
    /// `P_out / (P_out + losses)`; 0 when the converter delivers no power.
    pub efficiency: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_r_series_is_0_6_ohm() {
        let sc = ScConverter::paper_28nm();
        assert!((sc.r_series_at_nominal() - 0.6).abs() < 0.005);
        assert!((sc.r_ssl(50e6) - 0.3125).abs() < 1e-9);
        assert!((sc.r_fsl() - 0.512).abs() < 0.001);
    }

    #[test]
    fn r_ssl_is_inverse_in_frequency() {
        let sc = ScConverter::paper_28nm();
        assert!((sc.r_ssl(25e6) - 2.0 * sc.r_ssl(50e6)).abs() < 1e-12);
    }

    #[test]
    fn open_loop_vdrop_is_linear_in_load() {
        // Fig 3b: V_drop rises linearly to ≈54 mV at 90 mA.
        let sc = ScConverter::paper_28nm();
        let op = sc.operate(2.0, 0.0, 0.09);
        assert!((op.v_drop - 0.054).abs() < 0.002, "got {}", op.v_drop);
        let half = sc.operate(2.0, 0.0, 0.045);
        assert!((op.v_drop - 2.0 * half.v_drop).abs() < 1e-9);
    }

    #[test]
    fn open_loop_efficiency_rises_with_load() {
        // Fig 3b: ≈50% at 10 mA rising to ≳80% at 90 mA.
        let sc = ScConverter::paper_28nm();
        let low = sc.operate(2.0, 0.0, 0.01).efficiency;
        let high = sc.operate(2.0, 0.0, 0.09).efficiency;
        assert!(low > 0.40 && low < 0.60, "low-load efficiency {low}");
        assert!(high > 0.80 && high < 0.90, "high-load efficiency {high}");
    }

    #[test]
    fn closed_loop_beats_open_loop_at_light_load() {
        // Fig 3a vs 3b: closed-loop modulation rescues light-load
        // efficiency.
        let ol = ScConverter::paper_28nm();
        let cl = ScConverter::paper_28nm_closed_loop();
        for i in [0.0016, 0.0031, 0.0063, 0.0125, 0.025] {
            let e_ol = ol.operate(2.0, 0.0, i).efficiency;
            let e_cl = cl.operate(2.0, 0.0, i).efficiency;
            assert!(
                e_cl > e_ol,
                "closed loop should win at {i} A: {e_cl} vs {e_ol}"
            );
        }
    }

    #[test]
    fn closed_loop_efficiency_stays_high_across_decades() {
        // Fig 3a: ≳60% from 1.6 mA to 100 mA.
        let cl = ScConverter::paper_28nm_closed_loop();
        for i in [0.0016, 0.0063, 0.025, 0.05, 0.1] {
            let e = cl.operate(2.0, 0.0, i).efficiency;
            assert!(e > 0.6, "closed-loop efficiency at {i} A is {e}");
        }
    }

    #[test]
    fn sinking_current_raises_output() {
        let sc = ScConverter::paper_28nm();
        let op = sc.operate(2.0, 0.0, -0.05);
        assert!(op.v_out > 1.0);
        assert!((op.v_out - 1.03).abs() < 0.005);
    }

    #[test]
    fn ideal_output_is_midpoint_of_rails() {
        let sc = ScConverter::paper_28nm();
        let op = sc.operate(3.0, 1.0, 0.0);
        assert!((op.v_out - 2.0).abs() < 1e-12);
        assert_eq!(op.v_drop, 0.0);
    }

    #[test]
    fn zero_load_efficiency_is_zero_open_loop() {
        // Open loop still burns parasitic power with no output: η = 0.
        let sc = ScConverter::paper_28nm();
        let op = sc.operate(2.0, 0.0, 0.0);
        assert_eq!(op.efficiency, 0.0);
        assert!(op.p_parasitic > 0.0);
    }

    #[test]
    fn overload_detection() {
        let sc = ScConverter::paper_28nm();
        assert!(!sc.is_overloaded(0.1));
        assert!(sc.is_overloaded(0.1001));
        assert!(sc.is_overloaded(-0.2));
    }

    #[test]
    #[should_panic(expected = "positive headroom")]
    fn inverted_rails_rejected() {
        ScConverter::paper_28nm().operate(0.0, 1.0, 0.0);
    }
}
