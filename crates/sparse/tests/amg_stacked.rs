//! Smoothed-aggregation AMG on anisotropic, PDN-like stacked grids.
//!
//! Many-layer PDNs couple each tier's in-plane grid to its neighbours
//! through TSVs about 100× stronger than an in-plane segment, and
//! voltage-stacked (V-S) PDNs add switched-capacitor converter stamps
//! whose rank-1 outer products carry positive off-diagonal entries. On
//! such systems this file checks that:
//!
//! * the hierarchy's operator complexity stays bounded (smoothing the
//!   prolongator with the unfiltered matrix let it reach 9.9 on a 4-layer
//!   Dense-TSV PDN), with a bounded AMG-CG iteration count, including a
//!   row whose strength-filtered, lumped diagonal is zero;
//! * escalation-ladder solves from every lead a production caller uses
//!   (mixed-precision AMG, f64 AMG and Jacobi) match dense LU
//!   (`vstack_sparse::dense`, which shares no code with the Krylov solvers
//!   or the multigrid) to 1e-8 relative, on regular and V-S systems,
//!   healthy and with a faulted conductor left in the pattern as an
//!   explicit zero, at pool widths 1 and 2.

use std::sync::Arc;

use vstack_sparse::dense::DenseMatrix;
use vstack_sparse::pool::{with_pool, ThreadPool};
use vstack_sparse::{
    solve_robust, AmgHierarchy, AmgOptions, CsrMatrix, Lead, RobustOptions, SolveMethod,
    SolveWorkspace, TripletMatrix,
};

/// In-plane grid segment conductance (S), before jitter.
const G_PLANE: f64 = 1.0;
/// TSV-like vertical conductance (S), before jitter: ~100× in-plane.
const G_TSV: f64 = 100.0;
/// C4 pad conductance to a board rail (S).
const G_PAD: f64 = 50.0;
/// Converter series conductance `1/R_SERIES` (S).
const G_CONVERTER: f64 = 1.0 / 0.6;
/// Supply voltage per layer (V).
const VDD: f64 = 1.0;

/// A linear system `A x = b` under assembly.
struct System {
    a: TripletMatrix,
    b: Vec<f64>,
}

/// Deterministic multiplicative jitter in `[0.75, 1.25)`, so no two
/// conductances coincide and aggregation ties are not all equal.
struct Jitter(u64);

impl Jitter {
    fn next(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        0.75 + 0.5 * ((self.0 >> 11) as f64 / (1u64 << 53) as f64)
    }
}

impl System {
    fn new(n: usize) -> Self {
        System {
            a: TripletMatrix::new(n, n),
            b: vec![0.0; n],
        }
    }

    fn conductance(&mut self, i: usize, j: usize, g: f64) {
        self.a.stamp_conductance(Some(i), Some(j), g);
    }

    /// A faulted conductor kept in the pattern: both off-diagonal slots
    /// stored as explicit zeros, nothing added to the diagonal — what a
    /// PDN re-stamp onto its cached pristine pattern leaves behind.
    fn open(&mut self, i: usize, j: usize) {
        self.a.push(i, j, 0.0);
        self.a.push(j, i, 0.0);
    }

    fn pad(&mut self, i: usize, volts: f64) {
        self.a.stamp_conductance(Some(i), None, G_PAD);
        self.b[i] += G_PAD * volts;
    }

    /// The SC-converter stamp `g·u·uᵀ`, `u = (+1, −½, −½)` over
    /// `(out, top, bottom)`: its `(top, bottom)` entries are `+g/4`.
    fn converter(&mut self, out: usize, top: usize, bottom: usize) {
        let nodes = [out, top, bottom];
        let u = [1.0, -0.5, -0.5];
        for (&i, ui) in nodes.iter().zip(u) {
            for (&j, uj) in nodes.iter().zip(u) {
                self.a.push(i, j, G_CONVERTER * ui * uj);
            }
        }
    }

    /// In-plane 5-point grid couplings of the `side × side` net whose
    /// nodes start at `base`.
    fn grid(&mut self, base: usize, side: usize, jitter: &mut Jitter) {
        for r in 0..side {
            for c in 0..side {
                let i = base + r * side + c;
                if c + 1 < side {
                    self.conductance(i, i + 1, G_PLANE * jitter.next());
                }
                if r + 1 < side {
                    self.conductance(i, i + side, G_PLANE * jitter.next());
                }
            }
        }
    }
}

/// Pads sit on every third node of a rail-tied net in both directions.
fn is_pad_site(r: usize, c: usize) -> bool {
    r.is_multiple_of(3) && c.is_multiple_of(3)
}

/// A regular PDN-like stack: one supply net per layer, every node joined
/// to the one above by a TSV, the bottom net tied to the board rail
/// through pads, and every node sinking a load current. With `faulted`,
/// one TSV is open (an explicit zero).
fn regular(side: usize, layers: usize, faulted: bool) -> System {
    let per = side * side;
    let mut s = System::new(per * layers);
    let mut jitter = Jitter(7);
    for l in 0..layers {
        s.grid(l * per, side, &mut jitter);
        for k in 0..per {
            let i = l * per + k;
            s.b[i] -= 1e-3 * jitter.next();
            if l + 1 < layers {
                if faulted && l == 1 && k == per / 2 {
                    s.open(i, i + per);
                } else {
                    s.conductance(i, i + per, G_TSV * jitter.next());
                }
            }
        }
    }
    for r in 0..side {
        for c in 0..side {
            if is_pad_site(r, c) {
                s.pad(r * side + c, VDD);
            }
        }
    }
    s
}

/// A voltage-stacked PDN-like stack: each layer has a ground and a supply
/// net, layer `l`'s supply joins layer `l + 1`'s ground through TSVs
/// (together they form intermediate rail `l + 1`), the bottom ground and
/// the top supply are tied to the board through pads, loads draw current
/// from each layer's supply into its ground, and converters on every
/// fourth site regulate each intermediate rail to the midpoint of its
/// neighbours. With `faulted`, one TSV is open (an explicit zero).
fn voltage_stacked(side: usize, layers: usize, faulted: bool) -> System {
    let per = side * side;
    let node = |l: usize, net: usize, k: usize| (2 * l + net) * per + k;
    let mut s = System::new(2 * layers * per);
    let mut jitter = Jitter(11);
    for l in 0..layers {
        s.grid(node(l, 0, 0), side, &mut jitter);
        s.grid(node(l, 1, 0), side, &mut jitter);
        // Alternating high/low activity: the mismatch the converters carry.
        let load = if l % 2 == 0 { 1.5e-3 } else { 0.5e-3 };
        for k in 0..per {
            let amps = load * jitter.next();
            s.b[node(l, 1, k)] -= amps;
            s.b[node(l, 0, k)] += amps;
            if l + 1 < layers {
                let (i, j) = (node(l, 1, k), node(l + 1, 0, k));
                if faulted && l == 0 && k == per / 2 {
                    s.open(i, j);
                } else {
                    s.conductance(i, j, G_TSV * jitter.next());
                }
            }
        }
    }
    for r in 0..side {
        for c in 0..side {
            let k = r * side + c;
            if is_pad_site(r, c) {
                s.pad(node(0, 0, k), 0.0);
                s.pad(node(layers - 1, 1, k), VDD * layers as f64);
            }
            if r % 4 == 1 && c % 4 == 1 {
                for l in 1..layers {
                    s.converter(node(l, 0, k), node(l, 1, k), node(l - 1, 0, k));
                }
            }
        }
    }
    s
}

fn dense(a: &CsrMatrix) -> DenseMatrix {
    let mut d = DenseMatrix::zeros(a.rows(), a.cols());
    for (r, c, v) in a.iter() {
        d[(r, c)] += v;
    }
    d
}

#[test]
fn tsv_coupled_stack_keeps_operator_complexity_low() {
    let mut s = voltage_stacked(24, 4, false);
    let n = s.b.len();
    // A node hanging off two grid nodes by couplings far too weak to be
    // strong, with no path of its own to a rail: its row sum is zero, so
    // its lumped diagonal is exactly zero and smoothing must fall back to
    // `a_ii` (a zero divisor would put inf/NaN into the prolongator).
    let mut t = TripletMatrix::new(n + 1, n + 1);
    for &(i, j, v) in s.a.entries() {
        t.push(i, j, v);
    }
    t.stamp_conductance(Some(n), Some(0), 1e-6);
    t.stamp_conductance(Some(n), Some(n / 2), 1e-6);
    s.b.push(0.0);
    let a = t.to_csr();
    let (cols, vals) = a.row(n);
    assert_eq!(cols, [0, n / 2, n]);
    assert_eq!(vals[2] + vals[0] + vals[1], 0.0, "lumped diagonal is zero");

    let h = AmgHierarchy::build(&a, &AmgOptions::default()).expect("stack coarsens");
    let complexity = h.operator_complexity();
    assert!(h.num_levels() >= 3, "levels: {:?}", h.level_dims());
    assert!(
        complexity <= 2.5,
        "operator complexity {complexity:.2}, levels {:?}",
        h.level_dims()
    );

    let opts = RobustOptions {
        tolerance: 1e-9,
        lead: Lead::Amg,
        ..RobustOptions::default()
    };
    let sol =
        solve_robust(&a, &s.b, None, &opts, &mut SolveWorkspace::new()).expect("amg-led solve");
    assert_eq!(
        sol.report.method,
        SolveMethod::CgAmg,
        "{}",
        sol.report.trail()
    );
    assert!(sol.report.fallbacks.is_empty(), "{}", sol.report.trail());
    assert!(
        sol.report.iterations <= 40,
        "AMG-CG took {} iterations",
        sol.report.iterations
    );
}

#[test]
fn amg_led_ladder_solves_match_dense_lu() {
    let systems = [
        ("regular", regular(10, 4, false)),
        ("regular faulted", regular(10, 4, true)),
        ("v-s", voltage_stacked(8, 3, false)),
        ("v-s faulted", voltage_stacked(8, 3, true)),
    ];
    for (name, s) in &systems {
        let a = s.a.to_csr();
        assert!(a.rows() > AmgOptions::default().direct_max, "{name}");
        let exact = dense(&a).lu().expect("SPD system").solve(&s.b).expect("lu");
        let scale = exact.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        for (lead, method) in [
            (Lead::Amg, SolveMethod::CgAmg),
            (Lead::MixedAmg, SolveMethod::CgAmgMixed),
            (Lead::Jacobi, SolveMethod::CgJacobi),
        ] {
            let opts = RobustOptions {
                tolerance: 1e-12,
                lead,
                ..RobustOptions::default()
            };
            for width in [1, 2] {
                let pool = Arc::new(ThreadPool::new(width));
                let sol = with_pool(&pool, || {
                    solve_robust(&a, &s.b, None, &opts, &mut SolveWorkspace::new())
                })
                .expect("ladder solve");
                let what = format!("{name}, {method}, width {width}");
                assert_eq!(sol.report.method, method, "{what}: {}", sol.report.trail());
                let err = sol
                    .x
                    .iter()
                    .zip(&exact)
                    .fold(0.0f64, |m, (x, e)| m.max((x - e).abs()));
                assert!(
                    err <= 1e-8 * scale,
                    "{what}: max error {err:.3e} vs dense LU, scale {scale:.3e}"
                );
            }
        }
    }
}
