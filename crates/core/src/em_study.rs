//! EM-lifetime evaluation of solved PDNs (paper §3.3 applied in §5.1).
//!
//! Converts the per-conductor current profiles a
//! [`vstack_pdn::PdnSolution`] reports into the paper's robustness metric:
//! the *expected EM-damage-free lifetime* of the C4 pad array and of the
//! power-TSV array.

use vstack_em::array::expected_em_free_lifetime;
use vstack_em::black::BlackModel;
use vstack_pdn::solution::{ConductorCurrents, PdnSolution};

/// Converts a conductor-current profile into the `(current, count)` pairs
/// the EM array model consumes.
fn groups_of(c: &ConductorCurrents) -> Vec<(f64, f64)> {
    c.groups().iter().map(|g| (g.current_a, g.count)).collect()
}

/// Expected EM-damage-free lifetime (hours) of the full C4 pad array
/// (supply and return pads together).
pub fn c4_array_lifetime(solution: &PdnSolution, model: &BlackModel) -> f64 {
    let _span = vstack_obs::span!("em_lifetime");
    let mut groups = groups_of(&solution.vdd_c4);
    groups.extend(groups_of(&solution.gnd_c4));
    expected_em_free_lifetime(&groups, model)
}

/// Expected EM-damage-free lifetime (hours) of the power-TSV array
/// (including V-S through-via segments).
pub fn tsv_array_lifetime(solution: &PdnSolution, model: &BlackModel) -> f64 {
    let _span = vstack_obs::span!("em_lifetime");
    expected_em_free_lifetime(&groups_of(&solution.tsv), model)
}

/// Both array lifetimes of one solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmLifetimes {
    /// C4 array expected EM-damage-free lifetime, hours.
    pub c4_hours: f64,
    /// TSV array expected EM-damage-free lifetime, hours.
    pub tsv_hours: f64,
}

/// Evaluates both arrays with the paper-calibrated Black models.
pub fn paper_em_lifetimes(solution: &PdnSolution) -> EmLifetimes {
    EmLifetimes {
        c4_hours: c4_array_lifetime(solution, &BlackModel::paper_c4()),
        tsv_hours: tsv_array_lifetime(solution, &BlackModel::paper_tsv()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DesignScenario;
    use vstack_pdn::TsvTopology;

    #[test]
    fn regular_pdn_lifetime_decays_with_layers() {
        let mut prev_c4 = f64::INFINITY;
        let mut prev_tsv = f64::INFINITY;
        for n in [2usize, 4, 8] {
            let sol = DesignScenario::paper_baseline()
                .coarse_grid()
                .layers(n)
                .tsv_topology(TsvTopology::Few)
                .power_c4_fraction(0.25)
                .solve_regular_peak()
                .unwrap();
            let life = paper_em_lifetimes(&sol);
            assert!(life.c4_hours < prev_c4, "{n} layers c4");
            assert!(life.tsv_hours < prev_tsv, "{n} layers tsv");
            prev_c4 = life.c4_hours;
            prev_tsv = life.tsv_hours;
        }
    }

    #[test]
    fn vs_c4_lifetime_is_layer_independent() {
        let life = |n: usize| {
            let sol = DesignScenario::paper_baseline()
                .coarse_grid()
                .layers(n)
                .solve_voltage_stacked(0.0)
                .unwrap();
            paper_em_lifetimes(&sol).c4_hours
        };
        let (two, eight) = (life(2), life(8));
        assert!(
            (two - eight).abs() / two < 0.10,
            "V-S C4 lifetime must be ≈flat: {two} vs {eight}"
        );
    }

    #[test]
    fn vs_beats_regular_at_eight_layers() {
        let vs = DesignScenario::paper_baseline()
            .coarse_grid()
            .layers(8)
            .solve_voltage_stacked(0.0)
            .unwrap();
        let reg = DesignScenario::paper_baseline()
            .coarse_grid()
            .layers(8)
            .solve_regular_peak()
            .unwrap();
        let (vsl, regl) = (paper_em_lifetimes(&vs), paper_em_lifetimes(&reg));
        assert!(vsl.c4_hours > 3.0 * regl.c4_hours, "C4 advantage");
        assert!(vsl.tsv_hours > 2.0 * regl.tsv_hours, "TSV advantage");
    }
}
