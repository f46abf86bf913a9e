//! Black's equation (paper ref \[4\]).

/// Boltzmann constant in eV/K.
pub const BOLTZMANN_EV_PER_K: f64 = 8.617_333_262e-5;

/// Default junction temperature in kelvin (80 °C steady state) — the
/// uncoupled baseline every stock [`BlackModel`] evaluates at. The
/// thermal–EM coupling loop replaces it per layer via
/// [`BlackModel::at_temperature`].
pub const DEFAULT_JUNCTION_K: f64 = 353.15;

/// Black's-equation parameters for one conductor technology.
///
/// `MTTF_median = A · J⁻ⁿ · exp(Eₐ / (k·T))` with `J = I / area`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlackModel {
    /// Technology prefactor `A`, in hours · (A/cm²)ⁿ.
    pub prefactor: f64,
    /// Current-density exponent `n` (2 for void-nucleation-dominated
    /// solder/copper, the usual assumption for C4 and TSV).
    pub current_exponent: f64,
    /// Activation energy `Eₐ` in eV (≈0.8 eV for Cu/solder systems).
    pub activation_energy_ev: f64,
    /// Junction temperature in kelvin.
    pub temperature_k: f64,
    /// Conductor cross-section in cm², used to convert current to density.
    pub area_cm2: f64,
    /// Lognormal shape parameter σ of the failure-time distribution.
    pub sigma: f64,
}

impl BlackModel {
    /// Parameters for a C4 solder bump (≈100 µm diameter contact).
    pub fn c4_bump() -> Self {
        BlackModel {
            prefactor: 5.0e12,
            current_exponent: 2.0,
            activation_energy_ev: 0.8,
            temperature_k: DEFAULT_JUNCTION_K,
            area_cm2: std::f64::consts::PI * (50e-4f64).powi(2),
            sigma: 0.3,
        }
    }

    /// Parameters for a 5 µm-diameter copper TSV (Table 1 geometry).
    pub fn tsv() -> Self {
        BlackModel {
            prefactor: 5.0e12,
            current_exponent: 2.0,
            activation_energy_ev: 0.8,
            temperature_k: DEFAULT_JUNCTION_K,
            area_cm2: std::f64::consts::PI * (2.5e-4f64).powi(2),
            sigma: 0.3,
        }
    }

    /// C4 parameters calibrated to the paper's *normalized* Fig 5b ratios.
    ///
    /// Copper/solder EM exponents are reported between 1 (void growth
    /// limited) and 2 (void nucleation limited). The paper's modest
    /// normalized gaps (regular-PDN C4 lifetime ≈0.75× the 2-layer V-S
    /// value, "up to 5×" at 8 layers) are only consistent with growth-
    /// limited `n = 1`; the [`BlackModel::c4_bump`] default keeps the more
    /// conservative `n = 2`.
    pub fn paper_c4() -> Self {
        BlackModel {
            current_exponent: 1.0,
            ..BlackModel::c4_bump()
        }
    }

    /// TSV parameters calibrated like [`BlackModel::paper_c4`].
    pub fn paper_tsv() -> Self {
        BlackModel {
            current_exponent: 1.0,
            ..BlackModel::tsv()
        }
    }

    /// Returns a copy evaluated at a different junction temperature
    /// (kelvin) — used to couple the EM study to the thermal model.
    ///
    /// # Panics
    ///
    /// Panics if `temperature_k` is not finite and positive.
    pub fn at_temperature(mut self, temperature_k: f64) -> Self {
        assert!(
            temperature_k.is_finite() && temperature_k > 0.0,
            "temperature must be positive kelvin"
        );
        self.temperature_k = temperature_k;
        self
    }

    /// Current density in A/cm² for a conductor current in amperes.
    pub fn current_density(&self, current_a: f64) -> f64 {
        current_a.abs() / self.area_cm2
    }

    /// Median time-to-failure in hours for a conductor carrying
    /// `current_a`. Returns `f64::INFINITY` for zero current.
    ///
    /// # Panics
    ///
    /// Panics if `current_a` is not finite.
    pub fn median_ttf_hours(&self, current_a: f64) -> f64 {
        assert!(current_a.is_finite(), "current must be finite");
        let j = self.current_density(current_a);
        if j == 0.0 {
            return f64::INFINITY;
        }
        let thermal = (self.activation_energy_ev / (BOLTZMANN_EV_PER_K * self.temperature_k)).exp();
        self.prefactor * j.powf(-self.current_exponent) * thermal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubling_current_quarters_lifetime() {
        let m = BlackModel::c4_bump();
        let t1 = m.median_ttf_hours(0.05);
        let t2 = m.median_ttf_hours(0.10);
        assert!((t1 / t2 - 4.0).abs() < 1e-9, "n=2 scaling, got {}", t1 / t2);
    }

    #[test]
    fn zero_current_lives_forever() {
        assert_eq!(BlackModel::tsv().median_ttf_hours(0.0), f64::INFINITY);
    }

    #[test]
    fn hotter_is_shorter() {
        let cool = BlackModel::tsv().at_temperature(323.15);
        let hot = BlackModel::tsv().at_temperature(373.15);
        assert!(cool.median_ttf_hours(0.01) > hot.median_ttf_hours(0.01));
    }

    #[test]
    fn sign_of_current_irrelevant() {
        let m = BlackModel::tsv();
        assert_eq!(m.median_ttf_hours(0.01), m.median_ttf_hours(-0.01));
    }

    #[test]
    fn tsv_density_higher_than_c4_for_same_current() {
        let c4 = BlackModel::c4_bump();
        let tsv = BlackModel::tsv();
        assert!(tsv.current_density(0.01) > c4.current_density(0.01));
    }
}
