//! Array (first-failure) lifetime of a group of conductors.
//!
//! The paper's metric (§3.3): a pad/TSV array is "EM-damage-free" until its
//! first conductor fails, so the array failure CDF is
//! `P(t) = 1 − Π(1 − Fᵢ(t))`, and the *expected EM-damage-free lifetime*
//! is the `t` where `P(t) = 0.5`.

use crate::black::BlackModel;
use crate::lognormal::Lognormal;

/// Most decades the upper bisection bracket may widen by.
const MAX_BRACKET_WIDENINGS: usize = 32;

/// Cap on bisection steps. The interval reaches its floating-point fixed
/// point after about 52 steps, where the loop stops.
const MAX_BISECTIONS: usize = 200;

/// The array failure probability at time `t` for conductor groups given as
/// `(current_a, count)` pairs.
///
/// Counts may be fractional (lumped conductors); they enter as exponents of
/// the per-conductor survival probability.
///
/// # Panics
///
/// Panics if any count is not finite and positive.
pub fn array_failure_probability(groups: &[(f64, f64)], model: &BlackModel, t: f64) -> f64 {
    1.0 - log_array_survival(&failure_distributions(groups, model), t).exp()
}

/// Each current-carrying group's failure-time distribution and count, in
/// input order. Zero-current groups never fail and are left out.
fn failure_distributions(groups: &[(f64, f64)], model: &BlackModel) -> Vec<(Lognormal, f64)> {
    groups
        .iter()
        .filter_map(|&(current, count)| {
            assert!(count.is_finite() && count > 0.0, "count must be positive");
            let median = model.median_ttf_hours(current);
            (!median.is_infinite()).then(|| (Lognormal::new(median, model.sigma), count))
        })
        .collect()
}

fn log_array_survival(groups: &[(Lognormal, f64)], t: f64) -> f64 {
    let mut log_s = 0.0;
    for &(d, count) in groups {
        log_s += count * d.log_survival(t);
        if log_s == f64::NEG_INFINITY {
            break;
        }
    }
    log_s
}

/// Expected EM-damage-free lifetime (hours): the time at which the array's
/// first-failure probability reaches 50%.
///
/// Returns `f64::INFINITY` if no conductor carries current.
///
/// # Panics
///
/// Panics if `groups` contains a non-positive count.
pub fn expected_em_free_lifetime(groups: &[(f64, f64)], model: &BlackModel) -> f64 {
    let dists = failure_distributions(groups, model);
    if dists.is_empty() {
        return f64::INFINITY;
    }
    // Shortest per-conductor median bounds the search window.
    let min_median = dists
        .iter()
        .map(|(d, _)| d.median)
        .fold(f64::INFINITY, f64::min);

    // P(t) is monotonically increasing; bisection on log t.
    // The array lifetime is below the shortest median (many samples of the
    // minimum) but not astronomically so: 10⁻⁶× is a safe lower bracket.
    // 10× is a safe upper one unless the shortest-median group holds a
    // small fraction of a conductor, so it widens a decade at a time.
    let mut lo = (min_median * 1e-6).ln();
    let mut hi = (min_median * 10.0).ln();
    let p_at = |ln_t: f64| 1.0 - log_array_survival(&dists, ln_t.exp()).exp();
    for _ in 0..MAX_BRACKET_WIDENINGS {
        if p_at(hi) > 0.5 {
            break;
        }
        hi += std::f64::consts::LN_10;
    }
    debug_assert!(p_at(lo) < 0.5, "lower bracket too high");
    debug_assert!(p_at(hi) > 0.5, "upper bracket too low");
    for _ in 0..MAX_BISECTIONS {
        let mid = 0.5 * (lo + hi);
        let end = if p_at(mid) < 0.5 { &mut lo } else { &mut hi };
        // Each step is a pure function of (lo, hi): one that moves neither
        // end would repeat until the cap, so stopping here returns the
        // same bits.
        if mid.to_bits() == end.to_bits() {
            break;
        }
        *end = mid;
    }
    (0.5 * (lo + hi)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> BlackModel {
        BlackModel::c4_bump()
    }

    #[test]
    fn single_conductor_lifetime_is_its_median() {
        let m = model();
        let t = expected_em_free_lifetime(&[(0.05, 1.0)], &m);
        let median = m.median_ttf_hours(0.05);
        assert!(
            (t / median - 1.0).abs() < 1e-3,
            "one conductor: P(t)=0.5 at its median ({t} vs {median})"
        );
    }

    #[test]
    fn bigger_arrays_fail_sooner() {
        let m = model();
        let one = expected_em_free_lifetime(&[(0.05, 1.0)], &m);
        let hundred = expected_em_free_lifetime(&[(0.05, 100.0)], &m);
        let myriad = expected_em_free_lifetime(&[(0.05, 10_000.0)], &m);
        assert!(hundred < one);
        assert!(myriad < hundred);
    }

    #[test]
    fn higher_current_fails_sooner() {
        let m = model();
        let light = expected_em_free_lifetime(&[(0.02, 100.0)], &m);
        let heavy = expected_em_free_lifetime(&[(0.08, 100.0)], &m);
        assert!(heavy < light);
        // n = 2 ⇒ median ratio 16; array lifetime tracks closely.
        assert!(light / heavy > 10.0);
    }

    #[test]
    fn worst_group_dominates() {
        let m = model();
        let uniform = expected_em_free_lifetime(&[(0.08, 10.0)], &m);
        let mixed = expected_em_free_lifetime(&[(0.08, 10.0), (0.01, 1000.0)], &m);
        // Adding many lightly-stressed conductors barely moves the result.
        assert!((mixed / uniform) > 0.8 && mixed <= uniform);
    }

    #[test]
    fn zero_current_array_lives_forever() {
        let m = model();
        assert_eq!(
            expected_em_free_lifetime(&[(0.0, 500.0)], &m),
            f64::INFINITY
        );
    }

    #[test]
    fn fractional_counts_interpolate() {
        let m = model();
        let a = expected_em_free_lifetime(&[(0.05, 10.0)], &m);
        let b = expected_em_free_lifetime(&[(0.05, 10.5)], &m);
        let c = expected_em_free_lifetime(&[(0.05, 11.0)], &m);
        assert!(b < a && c < b);
    }

    #[test]
    fn failure_probability_is_monotone_in_time() {
        let m = model();
        let groups = [(0.05, 50.0)];
        let t50 = expected_em_free_lifetime(&groups, &m);
        let p_before = array_failure_probability(&groups, &m, t50 * 0.5);
        let p_after = array_failure_probability(&groups, &m, t50 * 2.0);
        assert!(p_before < 0.5);
        assert!(p_after > 0.5);
    }
}
