//! SMW sketch vs `solve_robust` agreement.
//!
//! For random SPD grid systems — plain resistive grids with grounding
//! rails, and voltage-stacked-style systems with rank-1 converter stamps —
//! a rank-k SMW downdate of a cached baseline must agree with a fresh
//! `solve_robust` of the explicitly downdated matrix to ≤1e-9 relative
//! error, and the near-singular guard must refuse updates that disconnect
//! the system instead of returning garbage.

use std::sync::Arc;

use proptest::prelude::*;
use vstack_sparse::pool::{with_pool, ThreadPool};
use vstack_sparse::{
    solve_robust, CsrMatrix, RobustOptions, SmwRejection, SmwSketch, SmwUpdate, SolveWorkspace,
    TripletMatrix,
};

/// Ingredients of one random test system.
struct GridSystem {
    /// Baseline matrix.
    a0: CsrMatrix,
    /// Baseline right-hand side.
    b0: Vec<f64>,
    /// `(node, conductance, rail_volts)` of every grounding rail.
    rails: Vec<(usize, f64, f64)>,
    /// `(lo, hi, conductance)` of every grid edge.
    edges: Vec<(usize, usize, f64)>,
}

/// An `nx × ny` resistive grid with `rails` grounding conductances and a
/// deterministic pseudo-random load current per node. With `stacked`, a
/// few rank-1 converter-style stamps (`g·uuᵀ`, `u = (1, −α, −(1−α))`) are
/// added so the system resembles the voltage-stacked PDN matrices.
fn grid_system(nx: usize, ny: usize, rail_picks: &[usize], stacked: bool) -> GridSystem {
    let n = nx * ny;
    let mut t = TripletMatrix::new(n, n);
    let mut edges = Vec::new();
    let stamp = |t: &mut TripletMatrix, a: usize, b: usize, g: f64| {
        t.push(a, a, g);
        t.push(b, b, g);
        t.push(a, b, -g);
        t.push(b, a, -g);
    };
    for j in 0..ny {
        for i in 0..nx {
            let a = j * nx + i;
            if i + 1 < nx {
                let g = 1.0 + 0.1 * ((a % 7) as f64);
                stamp(&mut t, a, a + 1, g);
                edges.push((a, a + 1, g));
            }
            if j + 1 < ny {
                let g = 1.0 + 0.1 * ((a % 5) as f64);
                stamp(&mut t, a, a + nx, g);
                edges.push((a, a + nx, g));
            }
        }
    }
    let mut b0 = vec![0.0; n];
    let mut rails = Vec::new();
    for (k, &pick) in rail_picks.iter().enumerate() {
        let node = pick % n;
        if rails.iter().any(|&(r, _, _)| r == node) {
            continue;
        }
        let g = 2.0 + 0.25 * k as f64;
        let v_rail = 1.0;
        t.push(node, node, g);
        b0[node] += g * v_rail;
        rails.push((node, g, v_rail));
    }
    if stacked {
        // Converter-style PSD rank-1 stamps between three distinct nodes.
        for k in 0..3 {
            let out = (7 * k + 1) % n;
            let top = (11 * k + 3) % n;
            let bottom = (13 * k + 5) % n;
            if out == top || out == bottom || top == bottom {
                continue;
            }
            let g = 0.5;
            let alpha = 0.35;
            let u = [(out, 1.0), (top, -alpha), (bottom, -(1.0 - alpha))];
            for &(i, ui) in &u {
                for &(j, uj) in &u {
                    t.push(i, j, g * ui * uj);
                }
            }
        }
    }
    for (i, b) in b0.iter_mut().enumerate() {
        *b += 1e-3 * (((i % 9) as f64) - 4.0);
    }
    GridSystem {
        a0: t.to_csr(),
        b0,
        rails,
        edges,
    }
}

/// Solves `a x = b` on the ladder to a tight 1e-12 tolerance.
fn tight_solve(a: &CsrMatrix, b: &[f64]) -> Result<Vec<f64>, vstack_sparse::SolveError> {
    let opts = RobustOptions {
        tolerance: 1e-12,
        ..RobustOptions::default()
    };
    solve_robust(a, b, None, &opts, &mut SolveWorkspace::new()).map(|s| s.x)
}

fn rel_err(x: &[f64], y: &[f64]) -> f64 {
    let scale = y.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-30);
    x.iter()
        .zip(y)
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
        / scale
}

/// Builds the sketch (tight baseline + columns solved on demand) for the
/// chosen rail and edge downdates, and the explicitly-downdated system.
#[allow(clippy::type_complexity)]
fn downdate(
    sys: &GridSystem,
    rail_frac: &[usize],
    edge_frac: &[usize],
) -> Option<(SmwSketch, Vec<SmwUpdate>, CsrMatrix, Vec<f64>)> {
    let n = sys.b0.len();
    let x0 = tight_solve(&sys.a0, &sys.b0).ok()?;
    let mut sketch = SmwSketch::new(x0, sys.b0.clone(), 1e-9);
    let mut updates = Vec::new();
    let mut delta = TripletMatrix::new(n, n);
    let mut b_f = sys.b0.clone();
    // Keep at least one rail so the downdated system stays connected, and
    // never remove the same rail twice.
    let mut killed_rails = Vec::new();
    for &pick in rail_frac.iter().take(sys.rails.len().saturating_sub(1)) {
        let idx = pick % sys.rails.len();
        if killed_rails.contains(&idx) {
            continue;
        }
        killed_rails.push(idx);
        let (node, g, v_rail) = sys.rails[idx];
        let col = sketch.add_column(vec![(node, 1.0)]);
        updates.push(SmwUpdate {
            column: col,
            scale: g,
            rhs_delta: -g * v_rail,
        });
        delta.push(node, node, -g);
        b_f[node] -= g * v_rail;
    }
    for &pick in edge_frac {
        let (lo, hi, g) = sys.edges[pick % sys.edges.len()];
        let s = 0.5 * g; // halve the edge, never fully cut it
        let col = sketch.add_column(vec![(lo, 1.0), (hi, -1.0)]);
        updates.push(SmwUpdate {
            column: col,
            scale: s,
            rhs_delta: 0.0,
        });
        delta.push(lo, lo, -s);
        delta.push(hi, hi, -s);
        delta.push(lo, hi, s);
        delta.push(hi, lo, s);
    }
    if updates.is_empty() {
        return None;
    }
    let mut t = TripletMatrix::new(n, n);
    for r in 0..n {
        let (cols, vals) = sys.a0.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            t.push(r, c, v);
        }
    }
    for &(r, c, v) in delta.iter() {
        t.push(r, c, v);
    }
    for u in &updates {
        sketch
            .ensure_column(u.column, |rhs| tight_solve(&sys.a0, rhs))
            .ok()?;
    }
    Some((sketch, updates, t.to_csr(), b_f))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rank-k downdates agree with a fresh robust solve of the explicitly
    /// modified system to ≤1e-9 relative error, on plain and stacked
    /// (converter-stamped) grids.
    #[test]
    fn smw_matches_solve_robust(
        nx in 4usize..9,
        ny in 4usize..9,
        rail_picks in prop::collection::vec(0usize..256, 2..6),
        rail_kills in prop::collection::vec(0usize..8, 0..3),
        edge_kills in prop::collection::vec(0usize..512, 0..4),
        stacked in 0usize..2,
    ) {
        let sys = grid_system(nx, ny, &rail_picks, stacked == 1);
        // `downdate` returning None (no effective update drawn) and a
        // NearSingular refusal (a legitimately weak surviving rail) both
        // leave nothing to check for this draw.
        if let Some((sketch, updates, a_f, b_f)) = downdate(&sys, &rail_kills, &edge_kills) {
            match sketch.query(&updates) {
                Ok(answer) => {
                    let exact = tight_solve(&a_f, &b_f).expect("downdated system solvable");
                    let rel = rel_err(&answer.x, &exact);
                    prop_assert!(rel <= 1e-9, "rel err {rel} (k = {})", updates.len());
                    prop_assert!(answer.rel_residual <= 1e-9);
                }
                Err(SmwRejection::NearSingular) => {}
                Err(e) => panic!("unexpected rejection {e}"),
            }
        }
    }

    /// Removing every rail disconnects the system; the capacitance-matrix
    /// guard must reject instead of answering.
    #[test]
    fn removing_all_rails_is_rejected(
        nx in 4usize..8,
        ny in 4usize..8,
        rail_picks in prop::collection::vec(0usize..256, 1..4),
    ) {
        let sys = grid_system(nx, ny, &rail_picks, false);
        let x0 = tight_solve(&sys.a0, &sys.b0).unwrap();
        let mut sketch = SmwSketch::new(x0, sys.b0.clone(), 1e-9);
        let mut updates = Vec::new();
        for &(node, g, v_rail) in &sys.rails {
            let col = sketch.add_column(vec![(node, 1.0)]);
            updates.push(SmwUpdate { column: col, scale: g, rhs_delta: -g * v_rail });
        }
        for u in &updates {
            sketch
                .ensure_column(u.column, |rhs| tight_solve(&sys.a0, rhs))
                .unwrap();
        }
        match sketch.query(&updates) {
            Err(SmwRejection::NearSingular) | Err(SmwRejection::ResidualTooLarge { .. }) => {}
            Ok(_) => panic!("disconnection answered, not rejected"),
            Err(e) => panic!("wrong rejection {e}"),
        }
    }
}

#[test]
fn smw_answers_are_bit_identical_across_thread_counts() {
    // The whole pipeline — baseline solve, column solves, SMW query — run
    // inside pools of 1, 2 and 4 contexts must agree bit for bit (the
    // solver's pairwise reductions are fixed-chunk; the SMW query is
    // serial dense algebra).
    let sys = grid_system(8, 7, &[3, 19, 40], true);
    let answers: Vec<Vec<f64>> = [1usize, 2, 4]
        .iter()
        .map(|&c| Arc::new(ThreadPool::new(c)))
        .map(|pool| {
            with_pool(&pool, || {
                let (sketch, updates, _, _) =
                    downdate(&sys, &[0, 1], &[5, 11]).expect("updates drawn");
                sketch.query(&updates).expect("answerable").x
            })
        })
        .collect();
    assert_eq!(answers[0], answers[1], "1 vs 2 threads");
    assert_eq!(answers[0], answers[2], "1 vs 4 threads");
}
