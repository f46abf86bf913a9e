//! Integration tests for the mixed-precision ladder rung on stacked
//! regular grids, the shape of the paper's many-layer PDNs.
//!
//! Two contracts are exercised:
//!
//! 1. **f32/f64 agreement** — the mixed-precision rung converges to the
//!    same CG tolerance as the all-f64 ladder on random regular and
//!    converter-coupled grids, and the solutions agree; an f32 overflow
//!    falls back to the pure-f64 rung.
//! 2. **Allocation stability** — AMG re-setup on a warm
//!    [`SolveWorkspace`] never regrows its scratch buffers.

use proptest::prelude::*;
use vstack_sparse::{
    solve_robust, AmgHierarchy, CsrMatrix, Lead, RobustOptions, RobustSolved, SolveMethod,
    SolveWorkspace, TripletMatrix,
};

/// Shape of a stacked regular grid: `planes` copies of an `nx × ny`
/// 5-point grid, with plane `p` coupled to plane `p + 1` (at node offset
/// `nx · ny`) iff `interfaces[p]` is true.
struct Geometry {
    nx: usize,
    ny: usize,
    planes: usize,
    /// Length `planes - 1`.
    interfaces: Vec<bool>,
}

impl Geometry {
    /// Total unknown count `nx · ny · planes`.
    fn unknowns(&self) -> usize {
        self.nx * self.ny * self.planes
    }
}

/// Assembles the conductance matrix of a stacked regular grid: uniform
/// horizontal coupling `horiz[p]` per plane, per-node vertical coupling
/// `vert[i]` across flagged interfaces, per-node diagonal anchor
/// `anchor[i]` (keeps the system SPD), and arbitrary converter `taps`
/// that land as rank-1 stamps off the grid pattern.
fn stacked_grid(
    geo: &Geometry,
    horiz: &[f64],
    vert: &[f64],
    anchor: &[f64],
    taps: &[(usize, usize, f64)],
) -> CsrMatrix {
    let (nx, ny) = (geo.nx, geo.ny);
    let ps = nx * ny;
    let n = geo.unknowns();
    let mut t = TripletMatrix::new(n, n);
    for (p, &g) in horiz.iter().enumerate().take(geo.planes) {
        for iy in 0..ny {
            for ix in 0..nx {
                let i = p * ps + iy * nx + ix;
                if ix + 1 < nx {
                    t.stamp_conductance(Some(i), Some(i + 1), g);
                }
                if iy + 1 < ny {
                    t.stamp_conductance(Some(i), Some(i + nx), g);
                }
            }
        }
    }
    for (p, &coupled) in geo.interfaces.iter().enumerate() {
        if coupled {
            for (i, &gv) in vert.iter().enumerate().take((p + 1) * ps).skip(p * ps) {
                t.stamp_conductance(Some(i), Some(i + ps), gv);
            }
        }
    }
    for (i, &g) in anchor.iter().enumerate() {
        t.push(i, i, g);
    }
    for &(p, q, g) in taps {
        if p != q {
            t.stamp_conductance(Some(p), Some(q), g);
        }
    }
    t.to_csr()
}

/// Small LCG for size-dependent random data: the vendored proptest stub
/// has no `prop_flat_map`, so dimensions come from range strategies and
/// everything sized by them is derived deterministically from a `u64`
/// seed strategy through this generator.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform `f64` in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    /// Uniform `usize` in `[0, bound)`; `bound` must be positive.
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Strategy: a random stacked-grid geometry plus its assembled CSR,
/// with up to two converter-style cross-grid stamps.
fn stacked_case() -> impl Strategy<Value = (Geometry, CsrMatrix)> {
    (2..6usize, 2..6usize, 1..5usize, 0..u64::MAX).prop_map(|(nx, ny, planes, seed)| {
        let mut rng = Lcg(seed);
        let n = nx * ny * planes;
        let geo = Geometry {
            nx,
            ny,
            planes,
            interfaces: (1..planes).map(|_| rng.next() & 1 == 1).collect(),
        };
        let horiz: Vec<f64> = (0..planes).map(|_| rng.range(0.5, 20.0)).collect();
        let vert: Vec<f64> = (0..n).map(|_| rng.range(0.5, 20.0)).collect();
        let anchor: Vec<f64> = (0..n).map(|_| rng.range(0.01, 2.0)).collect();
        let taps: Vec<(usize, usize, f64)> = (0..rng.below(3))
            .map(|_| (rng.below(n), rng.below(n), rng.range(0.5, 5.0)))
            .collect();
        let a = stacked_grid(&geo, &horiz, &vert, &anchor, &taps);
        (geo, a)
    })
}

/// Deterministic pseudo-random vector in `[-3, 3)` from an LCG seed.
fn lcg_vec(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = Lcg(seed);
    (0..n).map(|_| rng.range(-3.0, 3.0)).collect()
}

fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

proptest! {
    /// The mixed-precision rung (f32 V-cycle under an f64 outer CG)
    /// converges to the same CG tolerance as the all-f64 ladder and the
    /// solutions agree, on random regular and converter-coupled grids.
    #[test]
    fn mixed_precision_agrees_with_f64(
        case in stacked_case(),
        seed in 0..u64::MAX,
    ) {
        let (geo, a) = case;
        let n = geo.unknowns();
        let x_true = lcg_vec(seed, n);
        let b = a.mul_vec(&x_true);
        let bnorm = norm2(&b).max(1.0);

        let mixed = solve_from(&a, &b, Lead::MixedAmg);
        let plain = solve_from(&a, &b, Lead::Amg);

        prop_assert!(a.residual_norm(&mixed.x, &b) <= 1e-6 * bnorm);
        prop_assert!(a.residual_norm(&plain.x, &b) <= 1e-6 * bnorm);
        let xscale = plain.x.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (u, v) in mixed.x.iter().zip(&plain.x) {
            prop_assert!(
                (u - v).abs() <= 1e-4 * xscale,
                "mixed {} vs f64 {}", u, v
            );
        }
    }
}

/// Solves through the ladder from `lead` with a fresh state.
fn solve_from(a: &CsrMatrix, b: &[f64], lead: Lead) -> RobustSolved {
    let options = RobustOptions {
        lead,
        ..RobustOptions::default()
    };
    solve_robust(a, b, None, &options, &mut SolveWorkspace::new()).expect("ladder must converge")
}

/// Fixed three-plane stacked grid with two converter taps — the
/// deterministic fixture for the rung-acceptance and fallback tests.
fn fixture() -> (Geometry, CsrMatrix) {
    fixture_scaled(1.0)
}

/// Same fixture with every conductance scaled by `s`. Scaling the whole
/// matrix leaves its conditioning — and the f64 path — untouched while
/// letting tests push values past f32 range.
fn fixture_scaled(s: f64) -> (Geometry, CsrMatrix) {
    let geo = Geometry {
        nx: 12,
        ny: 12,
        planes: 3,
        interfaces: vec![true, false],
    };
    let n = geo.unknowns();
    let vert: Vec<f64> = (0..n).map(|i| s * (2.0 + (i % 7) as f64 * 0.25)).collect();
    let anchor: Vec<f64> = (0..n).map(|i| s * (0.5 + (i % 5) as f64 * 0.1)).collect();
    let taps = [(5, 300, 1.5 * s), (40, 350, 2.0 * s)];
    let a = stacked_grid(&geo, &[4.0 * s, 5.0 * s, 6.0 * s], &vert, &anchor, &taps);
    (geo, a)
}

/// The hot path end-to-end: from the `MixedAmg` lead the ladder accepts
/// the mixed rung outright, reports the `csr`/`mixed` provenance, and
/// needs at most 50% more CG iterations than the pure-f64 AMG rung on the
/// same system.
#[test]
fn mixed_rung_accepted_over_csr() {
    let (geo, a) = fixture();
    let n = geo.unknowns();
    let b = a.mul_vec(&lcg_vec(1, n));

    let mixed = solve_from(&a, &b, Lead::MixedAmg);
    assert_eq!(mixed.report.method, SolveMethod::CgAmgMixed);
    assert_eq!(mixed.report.operator, "csr");
    assert_eq!(mixed.report.precision, "mixed");
    assert!(
        mixed.report.fallbacks.is_empty(),
        "trail: {}",
        mixed.report.trail()
    );

    let plain = solve_from(&a, &b, Lead::Amg);
    assert_eq!(plain.report.method, SolveMethod::CgAmg);
    assert_eq!(plain.report.operator, "csr");
    assert_eq!(plain.report.precision, "f64");
    assert!(
        2 * mixed.report.iterations <= 3 * plain.report.iterations + 2,
        "mixed took {} iterations vs {} for f64 — more than +50%",
        mixed.report.iterations,
        plain.report.iterations
    );
}

/// Values beyond f32 range make the f32 V-cycle return a zero correction;
/// the outer CG breaks down deterministically and the ladder falls back
/// to the pure-f64 CSR rung, recording the abandoned mixed rung.
#[test]
fn f32_overflow_falls_back_to_pure_f64() {
    let (geo, a) = fixture_scaled(1e200);
    let n = geo.unknowns();
    let b = lcg_vec(2, n);

    let sol = solve_from(&a, &b, Lead::MixedAmg);
    assert_eq!(sol.report.fallbacks[0].from, SolveMethod::CgAmgMixed);
    assert_eq!(sol.report.method, SolveMethod::CgAmg);
    assert_eq!(sol.report.operator, "csr");
    assert_eq!(sol.report.precision, "f64");
    let bnorm = norm2(&b).max(1.0);
    assert!(a.residual_norm(&sol.x, &b) <= 1e-6 * bnorm);
}

/// Rebuilding the AMG hierarchy on a warm workspace regrows nothing, and
/// the rebuilt hierarchy is bit-identical to the first.
#[test]
fn amg_rebuild_is_allocation_free_on_warm_workspace() {
    let geo = Geometry {
        nx: 24,
        ny: 24,
        planes: 1,
        interfaces: Vec::new(),
    };
    let n = geo.unknowns();
    let vert = vec![0.0; n];
    let anchor: Vec<f64> = (0..n).map(|i| 0.3 + (i % 6) as f64 * 0.1).collect();
    let a = stacked_grid(&geo, &[3.0], &vert, &anchor, &[]);

    let mut ws = SolveWorkspace::new();
    let h1 = AmgHierarchy::build(&a, &mut ws).expect("build");
    let after_first = ws.setup_regrowths();
    assert!(after_first > 0, "a cold workspace must grow at least once");
    let h2 = AmgHierarchy::build(&a, &mut ws).expect("rebuild");
    assert_eq!(
        ws.setup_regrowths(),
        after_first,
        "AMG re-setup on a warm workspace must not reallocate"
    );

    let r = lcg_vec(4, n);
    let (mut z1, mut z2) = (vec![0.0; n], vec![0.0; n]);
    h1.apply(&r, &mut z1);
    h2.apply(&r, &mut z2);
    for (u, v) in z1.iter().zip(&z2) {
        assert_eq!(u.to_bits(), v.to_bits());
    }
}
