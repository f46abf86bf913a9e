//! Property-based tests for the EM lifetime models.

use proptest::prelude::*;
use vstack_em::array::{array_failure_probability, expected_em_free_lifetime};
use vstack_em::black::BlackModel;
use vstack_em::lognormal::{normal_cdf, Lognormal};

fn model() -> BlackModel {
    BlackModel::c4_bump()
}

/// The array model computed the plain way: every bisection step
/// recomputes each group's Black median, and the bisection always runs
/// 200 steps. `vstack_em::array` must match it bit for bit.
mod reference {
    use vstack_em::black::BlackModel;
    use vstack_em::lognormal::Lognormal;

    fn log_array_survival(groups: &[(f64, f64)], model: &BlackModel, t: f64) -> f64 {
        let mut log_s = 0.0;
        for &(current, count) in groups {
            assert!(count.is_finite() && count > 0.0, "count must be positive");
            let median = model.median_ttf_hours(current);
            if median.is_infinite() {
                continue;
            }
            let d = Lognormal::new(median, model.sigma);
            log_s += count * d.log_survival(t);
            if log_s == f64::NEG_INFINITY {
                break;
            }
        }
        log_s
    }

    pub fn array_failure_probability(groups: &[(f64, f64)], model: &BlackModel, t: f64) -> f64 {
        1.0 - log_array_survival(groups, model, t).exp()
    }

    /// # Panics
    ///
    /// Panics if the fixed bracket (10⁻⁶× to 10× the shortest median)
    /// does not hold, since this version cannot widen it.
    pub fn expected_em_free_lifetime(groups: &[(f64, f64)], model: &BlackModel) -> f64 {
        let mut min_median = f64::INFINITY;
        for &(current, _) in groups {
            let m = model.median_ttf_hours(current);
            if m < min_median {
                min_median = m;
            }
        }
        if min_median.is_infinite() {
            return f64::INFINITY;
        }
        let mut lo = (min_median * 1e-6).ln();
        let mut hi = (min_median * 10.0).ln();
        let p_at = |ln_t: f64| 1.0 - log_array_survival(groups, model, ln_t.exp()).exp();
        assert!(p_at(lo) < 0.5, "lower bracket too high");
        assert!(p_at(hi) > 0.5, "upper bracket too low");
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if p_at(mid) < 0.5 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (0.5 * (lo + hi)).exp()
    }
}

/// One conductor group: zero current one time in eight, otherwise a
/// log-uniform current magnitude in [10⁻⁴, 1] A of either sign; a
/// log-uniform count in [1, 10⁴], where the reference's bracket holds.
fn any_group() -> impl Strategy<Value = (f64, f64)> {
    (0.0..1.0f64, -4.0..0.0f64, 0.0..4.0f64).prop_map(|(u, log_i, log_n)| {
        let current = match u {
            u if u < 0.125 => 0.0,
            u if u < 0.5 => -(10f64.powf(log_i)),
            _ => 10f64.powf(log_i),
        };
        (current, 10f64.powf(log_n))
    })
}

/// Any stock Black model, re-evaluated at a junction between 300 and 420 K.
fn any_model() -> impl Strategy<Value = BlackModel> {
    (0usize..4, 300.0..420.0f64).prop_map(|(k, temperature_k)| {
        let stock = [
            BlackModel::c4_bump(),
            BlackModel::tsv(),
            BlackModel::paper_c4(),
            BlackModel::paper_tsv(),
        ];
        stock[k].at_temperature(temperature_k)
    })
}

proptest! {
    /// Lifetime strictly decreases when any conductor's current increases.
    #[test]
    fn lifetime_monotone_in_current(
        base in 0.01..0.2f64,
        extra in 0.001..0.2f64,
        count in 1.0..500.0f64,
    ) {
        let m = model();
        let low = expected_em_free_lifetime(&[(base, count)], &m);
        let high = expected_em_free_lifetime(&[(base + extra, count)], &m);
        prop_assert!(high < low);
    }

    /// Lifetime strictly decreases when conductors are added at the same
    /// stress.
    #[test]
    fn lifetime_monotone_in_count(current in 0.01..0.2f64, count in 1.0..500.0f64) {
        let m = model();
        let small = expected_em_free_lifetime(&[(current, count)], &m);
        let large = expected_em_free_lifetime(&[(current, count * 2.0)], &m);
        prop_assert!(large < small);
    }

    /// Splitting a group into two identical halves changes nothing.
    #[test]
    fn group_split_invariance(current in 0.01..0.2f64, count in 2.0..500.0f64) {
        let m = model();
        let whole = expected_em_free_lifetime(&[(current, count)], &m);
        let split = expected_em_free_lifetime(
            &[(current, count / 2.0), (current, count / 2.0)],
            &m,
        );
        prop_assert!((whole - split).abs() / whole < 1e-6);
    }

    /// The solved lifetime really is the 50% point of the array CDF. The
    /// second input's shortest-median group is a hundredth of a conductor,
    /// so 10× its median does not yet bracket the lifetime.
    #[test]
    fn lifetime_is_median_of_array_cdf(
        current in 0.01..0.2f64,
        count in 1.0..200.0f64,
    ) {
        for (groups, m) in [
            (vec![(current, count)], model()),
            (vec![(1.0, 0.01), (1.0 / 30.0, 1000.0)], BlackModel::paper_tsv()),
        ] {
            let t50 = expected_em_free_lifetime(&groups, &m);
            let p = array_failure_probability(&groups, &m, t50);
            prop_assert!((p - 0.5).abs() < 1e-3, "P(t50) = {p} for {groups:?}");
        }
    }

    /// Black scaling: lifetime ratio follows (I1/I2)^n exactly for a
    /// single conductor.
    #[test]
    fn black_power_law(i1 in 0.01..0.1f64, ratio in 1.1..5.0f64) {
        let m = model();
        let t1 = m.median_ttf_hours(i1);
        let t2 = m.median_ttf_hours(i1 * ratio);
        let expect = ratio.powf(m.current_exponent);
        prop_assert!((t1 / t2 - expect).abs() / expect < 1e-9);
    }

    /// Lognormal CDF is a proper distribution function.
    #[test]
    fn lognormal_cdf_bounds(median in 1.0..1e6f64, t in 0.0..1e7f64) {
        let d = Lognormal::new(median, 0.3);
        let f = d.cdf(t);
        prop_assert!((0.0..=1.0).contains(&f));
    }

    /// Normal CDF is monotone.
    #[test]
    fn normal_cdf_monotone(z in -5.0..5.0f64, dz in 0.001..2.0f64) {
        prop_assert!(normal_cdf(z + dz) >= normal_cdf(z));
    }

    /// Preparing each group's distribution once and stopping the bisection
    /// at its fixed point return exactly the reference's bits.
    #[test]
    fn array_model_matches_reference_bit_for_bit(
        groups in prop::collection::vec(any_group(), 1..801),
        m in any_model(),
        log_ratio in -3.0..3.0f64,
    ) {
        let t50 = expected_em_free_lifetime(&groups, &m);
        let want = reference::expected_em_free_lifetime(&groups, &m);
        prop_assert_eq!(t50.to_bits(), want.to_bits(), "lifetime {} vs {}", t50, want);
        let t = if t50.is_finite() { t50 * log_ratio.exp() } else { log_ratio.exp() };
        let p = array_failure_probability(&groups, &m, t);
        let want = reference::array_failure_probability(&groups, &m, t);
        prop_assert_eq!(p.to_bits(), want.to_bits(), "P({}) = {} vs {}", t, p, want);
    }
}
