//! HotSpot-style steady-state compact thermal model for 3D stacks.
//!
//! The paper uses HotSpot (ref \[16\]) for one gating decision: with a
//! conventional air-cooled heatsink, how many 16-core layers can stack
//! before the hotspot crosses the 100 °C limit? (Answer: 8, §4.1.) This
//! crate reproduces that feasibility analysis — and supplies the junction
//! temperature that Black's equation needs — with the same physics HotSpot
//! uses: a steady-state thermal resistance network.
//!
//! Geometry: each silicon layer is discretized at core-tile granularity
//! (4 × 4 cells); cells conduct laterally through silicon, vertically
//! through the die and the bond/TSV interface to the next layer, and the
//! top layer couples through TIM + spreader + heatsink convection to
//! ambient. The resulting SPD system is solved with conjugate gradient.
//!
//! # Example
//!
//! ```
//! use vstack_thermal::{StackThermalModel, ThermalParams};
//!
//! # fn main() -> Result<(), vstack_sparse::SolveError> {
//! let model = StackThermalModel::new(ThermalParams::paper_air_cooled(), 8, 4, 4);
//! // Every core of every layer at its 0.475 W peak.
//! let power = vec![vec![7.6 / 16.0; 16]; 8];
//! let sol = model.solve(&power)?;
//! assert!(sol.max_temperature_c() < 100.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vstack_sparse::{solve_robust, RobustOptions, SolveError, SolveWorkspace, TripletMatrix};

/// Material and boundary parameters of the stack's thermal path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalParams {
    /// Silicon thermal conductivity, W/(m·K).
    pub si_conductivity: f64,
    /// Thinned die thickness, m.
    pub si_thickness_m: f64,
    /// Bond/TSV interface layer conductivity, W/(m·K). TSVs raise this
    /// well above plain underfill.
    pub bond_conductivity: f64,
    /// Bond layer thickness, m.
    pub bond_thickness_m: f64,
    /// TIM + spreader + heatsink resistance from the top die to ambient,
    /// K/W over the whole die (0.3 K/W ≈ a good tower air cooler).
    pub sink_resistance_k_per_w: f64,
    /// Ambient (case inlet) temperature, °C.
    pub ambient_c: f64,
    /// Die width, m.
    pub die_width_m: f64,
    /// Die height, m.
    pub die_height_m: f64,
}

impl ThermalParams {
    /// Air-cooled defaults for the paper's 44.12 mm² die: 100 µm thinned
    /// dies, TSV-enhanced bonds, 0.3 K/W heatsink, 45 °C ambient.
    pub fn paper_air_cooled() -> Self {
        let side = (44.12e-6f64).sqrt();
        ThermalParams {
            si_conductivity: 110.0,
            si_thickness_m: 100e-6,
            bond_conductivity: 4.5,
            bond_thickness_m: 20e-6,
            sink_resistance_k_per_w: 0.30,
            ambient_c: 45.0,
            die_width_m: side,
            die_height_m: side,
        }
    }
}

/// Steady-state thermal model of an `n_layers` stack at `cols × rows`
/// cell granularity per layer (one cell per core tile).
///
/// Layer 0 is the **bottom** die (C4 side); the heatsink mounts on the top
/// die, so lower layers run hotter.
#[derive(Debug, Clone, PartialEq)]
pub struct StackThermalModel {
    params: ThermalParams,
    n_layers: usize,
    cols: usize,
    rows: usize,
}

impl StackThermalModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(params: ThermalParams, n_layers: usize, cols: usize, rows: usize) -> Self {
        assert!(
            n_layers > 0 && cols > 0 && rows > 0,
            "dimensions must be positive"
        );
        StackThermalModel {
            params,
            n_layers,
            cols,
            rows,
        }
    }

    /// Number of stacked layers.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    fn cells(&self) -> usize {
        self.cols * self.rows
    }

    fn node(&self, layer: usize, cell: usize) -> usize {
        layer * self.cells() + cell
    }

    /// Solves for cell temperatures given per-layer, per-cell power in
    /// watts (`power[layer][cell]`, layer 0 at the bottom).
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] if the escalation ladder fails to converge.
    ///
    /// # Panics
    ///
    /// Panics if `power` does not match the model's layer/cell counts.
    pub fn solve(&self, power: &[Vec<f64>]) -> Result<ThermalSolution, SolveError> {
        assert_eq!(power.len(), self.n_layers, "layer count mismatch");
        for layer in power {
            assert_eq!(layer.len(), self.cells(), "cell count mismatch");
        }
        let p = &self.params;
        let cells = self.cells();
        let n = self.n_layers * cells;
        let cell_w = p.die_width_m / self.cols as f64;
        let cell_h = p.die_height_m / self.rows as f64;
        let cell_area = cell_w * cell_h;

        // Vertical conductances per cell (W/K).
        let g_si_half = p.si_conductivity * cell_area / (p.si_thickness_m / 2.0);
        let g_bond = p.bond_conductivity * cell_area / p.bond_thickness_m;
        // Series: half-die + bond + half-die between adjacent layer centers.
        let g_interlayer = 1.0 / (1.0 / g_si_half + 1.0 / g_bond + 1.0 / g_si_half);
        // Series: half-die + sink share from the top layer to ambient.
        let r_sink_cell = p.sink_resistance_k_per_w * cells as f64;
        let g_sink = 1.0 / (1.0 / g_si_half + r_sink_cell);

        // Lateral conductance between adjacent cells (through the die).
        let g_lat_x = p.si_conductivity * (cell_h * p.si_thickness_m) / cell_w;
        let g_lat_y = p.si_conductivity * (cell_w * p.si_thickness_m) / cell_h;

        let mut m = TripletMatrix::new(n, n);
        let mut rhs = vec![0.0; n];
        for (layer, layer_power) in power.iter().enumerate() {
            for cy in 0..self.rows {
                for cx in 0..self.cols {
                    let cell = cy * self.cols + cx;
                    let a = self.node(layer, cell);
                    rhs[a] += layer_power[cell];
                    if cx + 1 < self.cols {
                        m.stamp_conductance(Some(a), Some(self.node(layer, cell + 1)), g_lat_x);
                    }
                    if cy + 1 < self.rows {
                        m.stamp_conductance(
                            Some(a),
                            Some(self.node(layer, cell + self.cols)),
                            g_lat_y,
                        );
                    }
                    if layer + 1 < self.n_layers {
                        m.stamp_conductance(
                            Some(a),
                            Some(self.node(layer + 1, cell)),
                            g_interlayer,
                        );
                    } else {
                        // Top layer: Dirichlet tie to ambient through the
                        // sink; temperatures are solved relative to ambient.
                        m.stamp_conductance(Some(a), None, g_sink);
                    }
                }
            }
        }

        let a = m.to_csr();
        let opts = RobustOptions::default();
        let delta = solve_robust(&a, None, &rhs, None, &opts, &mut SolveWorkspace::new())?.x;
        let temps: Vec<Vec<f64>> = (0..self.n_layers)
            .map(|l| {
                (0..cells)
                    .map(|c| p.ambient_c + delta[self.node(l, c)])
                    .collect()
            })
            .collect();
        Ok(ThermalSolution { temps })
    }

    /// Largest layer count whose fully-active hotspot stays below
    /// `limit_c`, probing 1..=`max_layers`. Returns 0 if even one layer
    /// exceeds the limit.
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`].
    pub fn max_feasible_layers(
        params: ThermalParams,
        cols: usize,
        rows: usize,
        per_cell_power_w: f64,
        limit_c: f64,
        max_layers: usize,
    ) -> Result<usize, SolveError> {
        let mut feasible = 0;
        for n in 1..=max_layers {
            let model = StackThermalModel::new(params, n, cols, rows);
            let power = vec![vec![per_cell_power_w; cols * rows]; n];
            let sol = model.solve(&power)?;
            if sol.max_temperature_c() < limit_c {
                feasible = n;
            } else {
                break;
            }
        }
        Ok(feasible)
    }
}

/// Solved cell temperatures.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalSolution {
    /// `temps[layer][cell]` in °C; layer 0 at the bottom.
    temps: Vec<Vec<f64>>,
}

impl ThermalSolution {
    /// Temperature of one cell in °C.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn temperature_c(&self, layer: usize, cell: usize) -> f64 {
        self.temps[layer][cell]
    }

    /// Hotspot temperature in °C.
    pub fn max_temperature_c(&self) -> f64 {
        self.temps
            .iter()
            .flatten()
            .copied()
            .fold(f64::MIN, f64::max)
    }

    /// Hotspot temperature in kelvin (for Black's equation).
    pub fn max_temperature_k(&self) -> f64 {
        self.max_temperature_c() + 273.15
    }

    /// Layer containing the hotspot.
    pub fn hotspot_layer(&self) -> usize {
        let mut best = (0, f64::MIN);
        for (l, layer) in self.temps.iter().enumerate() {
            for &t in layer {
                if t > best.1 {
                    best = (l, t);
                }
            }
        }
        best.0
    }

    /// Mean temperature of one layer in °C.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer_mean_c(&self, layer: usize) -> f64 {
        let l = &self.temps[layer];
        l.iter().sum::<f64>() / l.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORE_W: f64 = 7.6 / 16.0;

    fn model(layers: usize) -> StackThermalModel {
        StackThermalModel::new(ThermalParams::paper_air_cooled(), layers, 4, 4)
    }

    fn full_power(layers: usize) -> Vec<Vec<f64>> {
        vec![vec![CORE_W; 16]; layers]
    }

    #[test]
    fn eight_layers_stay_below_100c() {
        // The paper's §4.1 feasibility claim.
        let sol = model(8).solve(&full_power(8)).unwrap();
        let t = sol.max_temperature_c();
        assert!(t < 100.0, "8-layer hotspot {t} °C");
        assert!(t > 80.0, "8 layers should run hot, got {t} °C");
    }

    #[test]
    fn single_layer_runs_cool() {
        let sol = model(1).solve(&full_power(1)).unwrap();
        let t = sol.max_temperature_c();
        assert!(t > 45.0 && t < 60.0, "got {t} °C");
    }

    #[test]
    fn temperature_grows_with_layer_count() {
        let mut prev = 0.0;
        for n in [1, 2, 4, 8] {
            let t = model(n).solve(&full_power(n)).unwrap().max_temperature_c();
            assert!(t > prev, "{n} layers: {t} ≤ {prev}");
            prev = t;
        }
    }

    #[test]
    fn hotspot_is_on_the_bottom_layer() {
        // Heatsink on top → layer 0 (furthest from the sink) is hottest.
        let sol = model(4).solve(&full_power(4)).unwrap();
        assert_eq!(sol.hotspot_layer(), 0);
        assert!(sol.layer_mean_c(0) > sol.layer_mean_c(3));
    }

    #[test]
    fn zero_power_sits_at_ambient() {
        let sol = model(3).solve(&vec![vec![0.0; 16]; 3]).unwrap();
        assert!((sol.max_temperature_c() - 45.0).abs() < 1e-6);
    }

    #[test]
    fn asymmetric_power_creates_lateral_gradient() {
        let mut power = vec![vec![0.0; 16]; 1];
        power[0][0] = 4.0; // one hot corner core
        let sol = model(1).solve(&power).unwrap();
        assert!(sol.temperature_c(0, 0) > sol.temperature_c(0, 15));
    }

    #[test]
    fn kelvin_conversion() {
        let sol = model(1).solve(&full_power(1)).unwrap();
        assert!((sol.max_temperature_k() - sol.max_temperature_c() - 273.15).abs() < 1e-12);
    }

    #[test]
    fn feasible_layer_search_matches_direct_solve() {
        let n = StackThermalModel::max_feasible_layers(
            ThermalParams::paper_air_cooled(),
            4,
            4,
            CORE_W,
            100.0,
            12,
        )
        .unwrap();
        assert!(
            (8..=10).contains(&n),
            "paper says 8 layers are feasible under air cooling, got {n}"
        );
    }

    #[test]
    #[should_panic(expected = "layer count mismatch")]
    fn wrong_power_shape_rejected() {
        let _ = model(2).solve(&full_power(3));
    }
}
