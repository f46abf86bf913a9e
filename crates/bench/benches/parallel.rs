//! Solver baseline: kernel medians, preconditioner scaling, and the
//! end-to-end Fig 6 sweep, written to `BENCH_solver.json` at the repo
//! root so regressions are diffable across commits.
//!
//! Every solve goes through `solve_robust`, the one solve entry point,
//! from the lead each entry names. AMG-led entries time a state whose
//! hierarchy an untimed solve already cached, as `SolveScratch` reuse
//! does.
//!
//! Groups:
//!
//! * `spmv` — row-partitioned CSR matrix–vector product on a PDN-sized
//!   grid Laplacian (above the `PAR_SPMV_MIN_NNZ` threshold, so the
//!   threaded pool genuinely engages).
//! * `cg_amg` — a full workspace-reusing solve from the f64 AMG lead.
//! * `cg_mixed` — the same system from the mixed-precision lead (f64
//!   outer CG over the CSR, f32 AMG V-cycle): the production hot path at
//!   this size, which is at or above `NetworkBuilder::AMG_MIN_UNKNOWNS`.
//! * `cg_scaling/{jacobi,amg,mixed}/g{N}` — single-thread medians and
//!   iteration counts across grid sizes, one entry per lead. Jacobi pays
//!   its (cheap) setup inside the timed solve, as the ladder does; AMG
//!   and mixed reuse a cached hierarchy, with the one-time f64 build
//!   cost reported as its own `cg_scaling/amg_setup/g{N}` entry.
//! * `fault_sketch/{build,query,exact}/g96` — the rank-k SMW fault
//!   sketch at the g96 acceptance point: one-time sketch construction
//!   (baseline + candidate-column solves), the warm rank-2 what-if query,
//!   and the exact CG+AMG re-solve of the same downdated system. CI
//!   gates `query` at ≥ 20× faster than `exact`.
//! * `fig6_sweep` — the end-to-end Fig 6 IR-drop study, whose series fan
//!   out over the pool.
//! * `obs_overhead/{disabled,enabled,span_disabled}` — the tracing
//!   overhead gate: the `cg_mixed` system solved with span recording off
//!   (the shipping default; CI holds its median within 1% of
//!   `cg_mixed/threads1`) and on, plus the per-probe cost of a disabled
//!   `span!` itself.
//!
//! Threaded variants are only benched at widths the host actually has:
//! on a 1-CPU container a `threads4` pool just time-slices one core and
//! its median measures oversubscription, not speedup. Skipped widths are
//! noted on stdout and `host_parallelism` is always recorded in the JSON
//! so the entry set is interpretable. The Fig 6 determinism gate still
//! compares 1-wide and 4-wide pools regardless — bit-identity must hold
//! even oversubscribed.
//!
//! Set `VSTACK_BENCH_QUICK=1` for a fast smoke run (CI) with smaller
//! systems and fewer samples.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;

use criterion::{BenchReport, Criterion};
use vstack::experiments::fig6::ir_drop_study;
use vstack::experiments::Fidelity;
use vstack::sparse::pool::{with_pool, ThreadPool};
use vstack::sparse::{
    solve_robust, AmgHierarchy, AmgOptions, CsrMatrix, Lead, RobustOptions, RobustSolved,
    SmwSketch, SmwUpdate, SolveWorkspace, TripletMatrix,
};

/// 2-D grid Laplacian with Dirichlet stamps on `rails`, sized like one
/// PDN net. The fault-sketch groups pass corner subsets to stamp the
/// downdated (rail-opened) system exactly.
fn grid_laplacian_with_rails(n: usize, rails: &[usize]) -> (CsrMatrix, Vec<f64>) {
    let mut t = TripletMatrix::new(n * n, n * n);
    for j in 0..n {
        for i in 0..n {
            let a = j * n + i;
            if i + 1 < n {
                t.stamp_conductance(Some(a), Some(a + 1), 20.0);
            }
            if j + 1 < n {
                t.stamp_conductance(Some(a), Some(a + n), 20.0);
            }
        }
    }
    for &rail in rails {
        t.push(rail, rail, 100.0);
    }
    let a = t.to_csr();
    let b: Vec<f64> = (0..n * n).map(|i| ((i % 7) as f64 - 3.0) * 1e-3).collect();
    (a, b)
}

/// The four-corner Dirichlet grid every kernel group uses.
fn grid_laplacian(n: usize) -> (CsrMatrix, Vec<f64>) {
    grid_laplacian_with_rails(n, &[0, n - 1, n * (n - 1), n * n - 1])
}

struct Sizes {
    spmv_n: usize,
    cg_n: usize,
    scaling_grids: &'static [usize],
    fig6_layers: usize,
    kernel_samples: usize,
    scaling_samples: usize,
    sweep_samples: usize,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            spmv_n: 192, // 36 864 nodes: keeps nnz above PAR_SPMV_MIN_NNZ
            cg_n: 96,    // 9 216 unknowns: engages the mixed-precision hot path
            scaling_grids: &[12, 48, 96],
            fig6_layers: 2,
            kernel_samples: 10,
            scaling_samples: 3,
            sweep_samples: 1,
        }
    } else {
        Sizes {
            spmv_n: 256,
            cg_n: 192, // 36 864 unknowns: the g192 2x-speedup acceptance point
            scaling_grids: &[24, 48, 96, 192],
            fig6_layers: 4,
            kernel_samples: 30,
            scaling_samples: 10,
            sweep_samples: 3,
        }
    }
}

/// Extra per-entry facts the timing report alone cannot carry.
struct Extra {
    preconditioner: &'static str,
    /// Outer-iteration operator: `"csr"`, or `"smw"` for the sketch query.
    operator: &'static str,
    /// Preconditioner precision: `"f64"` or `"mixed"` (f32 V-cycle).
    precision: &'static str,
    iterations: usize,
}

type Meta = HashMap<String, Extra>;

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pool widths worth timing on this host: always 1, plus 4 when the
/// host genuinely has that many CPUs.
fn pool_widths() -> Vec<(usize, Arc<ThreadPool>)> {
    let host = host_parallelism();
    let mut widths = vec![(1, Arc::new(ThreadPool::new(1)))];
    if host >= 4 {
        widths.push((4, Arc::new(ThreadPool::new(4))));
    } else {
        println!(
            "note: skipping threads4 benches — host_parallelism = {host}, \
             a 4-wide pool would only measure oversubscription"
        );
    }
    widths
}

/// One ladder solve from `lead` at the benches' default tolerance.
fn solve(a: &CsrMatrix, b: &[f64], lead: Lead, state: &mut SolveWorkspace) -> RobustSolved {
    let opts = RobustOptions {
        lead,
        ..RobustOptions::default()
    };
    solve_robust(a, b, None, &opts, state).expect("bench solve")
}

/// A solve state warmed by one untimed solve — so an AMG lead's
/// hierarchy is cached, as `SolveScratch` reuse leaves it — plus the
/// iteration count every later solve from it reports.
fn warm_state(a: &CsrMatrix, b: &[f64], lead: Lead) -> (SolveWorkspace, usize) {
    let mut state = SolveWorkspace::new();
    let report = solve(a, b, lead, &mut state).report;
    assert!(
        !report.was_rescued(),
        "bench solve left its lead: {}",
        report.trail()
    );
    (state, report.iterations)
}

/// The preconditioner and precision tags of a timed entry; every ladder
/// rung iterates on the CSR.
fn tags(lead: Lead) -> (&'static str, &'static str) {
    match lead {
        Lead::Jacobi => ("jacobi", "f64"),
        Lead::Amg => ("amg", "f64"),
        Lead::MixedAmg => ("amgf32", "mixed"),
    }
}

/// Times `group/id`: ladder solves from `lead` on a warmed state,
/// recording the entry's tags and iteration count.
fn bench_solve(
    c: &mut Criterion,
    meta: &mut Meta,
    (group, id): (&str, &str),
    samples: usize,
    a: &CsrMatrix,
    b: &[f64],
    lead: Lead,
) {
    let (state, iterations) = warm_state(a, b, lead);
    let (preconditioner, precision) = tags(lead);
    meta.insert(
        format!("{group}/{id}"),
        Extra {
            preconditioner,
            operator: "csr",
            precision,
            iterations,
        },
    );
    let mut g = c.benchmark_group(group);
    g.sample_size(samples);
    g.bench_function(id, |bch| {
        let mut state = state.clone();
        bch.iter(|| black_box(solve(a, b, lead, &mut state)))
    });
    g.finish();
}

fn bench_kernels(c: &mut Criterion, s: &Sizes, meta: &mut Meta) {
    let (a_spmv, b_spmv) = grid_laplacian(s.spmv_n);
    let (a_cg, b_cg) = grid_laplacian(s.cg_n);

    for (threads, pool) in pool_widths() {
        let id = format!("threads{threads}");
        with_pool(&pool, || {
            let mut g = c.benchmark_group("spmv");
            g.sample_size(s.kernel_samples);
            g.bench_function(&id, |bch| {
                let mut y = vec![0.0; b_spmv.len()];
                bch.iter(|| {
                    a_spmv.mul_vec_into(&b_spmv, &mut y);
                    black_box(y[0])
                })
            });
            g.finish();
            for (group, lead) in [("cg_amg", Lead::Amg), ("cg_mixed", Lead::MixedAmg)] {
                let name = (group, id.as_str());
                bench_solve(c, meta, name, s.kernel_samples, &a_cg, &b_cg, lead);
            }
        });
    }
}

/// Tracing-overhead gate: the `cg_mixed` system with spans compiled in,
/// timed with recording disabled (the shipping default) and enabled, plus
/// a microbench pricing the disabled `span!` probe itself. CI compares
/// the `disabled` median against `cg_mixed/threads1`.
fn bench_obs_overhead(c: &mut Criterion, s: &Sizes) {
    let (a, b) = grid_laplacian(s.cg_n);
    let lead = Lead::MixedAmg;
    let (state, _) = warm_state(&a, &b, lead);
    let pool = Arc::new(ThreadPool::new(1));
    with_pool(&pool, || {
        let mut g = c.benchmark_group("obs_overhead");
        g.sample_size(s.kernel_samples);
        for (mode, on) in [("disabled", false), ("enabled", true)] {
            vstack_obs::trace::set_enabled(on);
            g.bench_function(mode, |bch| {
                let mut state = state.clone();
                bch.iter(|| black_box(solve(&a, &b, lead, &mut state)))
            });
            vstack_obs::trace::set_enabled(false);
            let _ = vstack_obs::trace::drain();
        }
        g.bench_function("span_disabled", |bch| {
            bch.iter(|| black_box(vstack_obs::span!("overhead_probe")))
        });
        g.finish();
    });
}

/// Single-thread iteration-count and median scaling across grid sizes,
/// one entry per lead per grid.
fn bench_scaling(c: &mut Criterion, s: &Sizes, meta: &mut Meta) {
    let pool = Arc::new(ThreadPool::new(1));
    for &grid in s.scaling_grids {
        let (a, b) = grid_laplacian(grid);
        with_pool(&pool, || {
            let mut g = c.benchmark_group("cg_scaling");
            g.sample_size(s.scaling_samples);
            g.bench_function(format!("amg_setup/g{grid}"), |bch| {
                bch.iter(|| {
                    black_box(AmgHierarchy::build(&a, &AmgOptions::default()).expect("amg setup"))
                })
            });
            g.finish();
            for lead in [Lead::Jacobi, Lead::Amg, Lead::MixedAmg] {
                let name = match lead {
                    Lead::Jacobi => "jacobi",
                    Lead::Amg => "amg",
                    Lead::MixedAmg => "mixed",
                };
                let id = format!("{name}/g{grid}");
                let entry = ("cg_scaling", id.as_str());
                bench_solve(c, meta, entry, s.scaling_samples, &a, &b, lead);
            }
        });
    }
}

/// Fault-sketch groups at the g96 acceptance point (9 216 unknowns),
/// benched at this fixed size in quick and full runs alike:
///
/// * `fault_sketch/build/g96` — one-time sketch construction: the
///   tight-tolerance baseline solve plus one solve-vector per candidate
///   fault column (the four Dirichlet "rails" of the grid Laplacian).
/// * `fault_sketch/query/g96` — the warm rank-2 SMW what-if answer
///   (opening two rails): `2k` axpys plus `O(k³)` dense work, no solve.
/// * `fault_sketch/exact/g96` — the exact CG+AMG re-solve of the same
///   downdated system the query replaces, timed against a pre-built
///   hierarchy (generous to the exact path — production would also pay
///   the re-stamp). CI gates `query` ≥ 20× faster than `exact`.
fn bench_fault_sketch(c: &mut Criterion, s: &Sizes, meta: &mut Meta) {
    let grid = 96usize;
    let (a, b) = grid_laplacian(grid);
    // The four Dirichlet corners are the grid's "pad rails": each is a
    // rank-1 stamp g·e eᵀ whose removal the sketch answers via SMW.
    let rails = [0, grid - 1, grid * (grid - 1), grid * grid - 1];
    let rail_g = 100.0;
    let opts = RobustOptions {
        tolerance: 1e-11,
        lead: Lead::Amg,
        ..RobustOptions::default()
    };
    let exact_solve = |a: &CsrMatrix, rhs: &[f64], state: &mut SolveWorkspace| {
        solve_robust(a, rhs, None, &opts, state)
    };
    let pool = Arc::new(ThreadPool::new(1));
    with_pool(&pool, || {
        let mut warm = SolveWorkspace::new();
        let baseline = exact_solve(&a, &b, &mut warm).expect("baseline solve");
        let iterations = baseline.report.iterations;
        let build_sketch = |state: &mut SolveWorkspace| -> SmwSketch {
            let x0 = exact_solve(&a, &b, state).expect("baseline solve").x;
            let mut sk = SmwSketch::new(x0, b.clone(), 1e-9);
            for &rail in &rails {
                let col = sk.add_column(vec![(rail, 1.0)]);
                sk.ensure_column(col, |u| exact_solve(&a, u, state).map(|s| s.x))
                    .expect("column solve");
            }
            sk
        };

        meta.insert(
            "fault_sketch/build/g96".to_string(),
            Extra {
                preconditioner: "amg",
                operator: "csr",
                precision: "f64",
                iterations,
            },
        );
        let mut g = c.benchmark_group("fault_sketch");
        g.sample_size(s.scaling_samples);
        g.bench_function("build/g96", |bch| {
            let mut state = warm.clone();
            bch.iter(|| black_box(build_sketch(&mut state).ready_count()))
        });
        g.finish();

        let sk = build_sketch(&mut warm.clone());
        let updates: Vec<SmwUpdate> = (0..2)
            .map(|c| SmwUpdate {
                column: c,
                scale: rail_g,
                rhs_delta: 0.0,
            })
            .collect();
        let answer = sk.query(&updates).expect("warm what-if query");
        meta.insert(
            "fault_sketch/query/g96".to_string(),
            Extra {
                preconditioner: "none",
                operator: "smw",
                precision: "f64",
                iterations: 0,
            },
        );
        let mut g = c.benchmark_group("fault_sketch");
        g.sample_size(s.kernel_samples);
        g.bench_function("query/g96", |bch| {
            bch.iter(|| black_box(sk.query(&updates).expect("warm what-if query").x[0]))
        });
        g.finish();

        // The exact re-solve of the identical downdated system: the same
        // grid stamped with only the two surviving rails, from a state
        // holding its own cached hierarchy.
        let (a_f, _) = grid_laplacian_with_rails(grid, &rails[2..]);
        let mut warm_f = SolveWorkspace::new();
        let exact = exact_solve(&a_f, &b, &mut warm_f).expect("exact faulted");
        let rel: f64 = answer
            .x
            .iter()
            .zip(&exact.x)
            .map(|(s, e)| (s - e) * (s - e))
            .sum::<f64>()
            .sqrt()
            / exact.x.iter().map(|e| e * e).sum::<f64>().sqrt();
        assert!(
            rel <= 1e-8,
            "SMW answer drifted from the exact faulted solve: rel = {rel:.3e}"
        );
        meta.insert(
            "fault_sketch/exact/g96".to_string(),
            Extra {
                preconditioner: "amg",
                operator: "csr",
                precision: "f64",
                iterations: exact.report.iterations,
            },
        );
        let mut g = c.benchmark_group("fault_sketch");
        g.sample_size(s.kernel_samples);
        g.bench_function("exact/g96", |bch| {
            let mut state = warm_f.clone();
            bch.iter(|| black_box(exact_solve(&a_f, &b, &mut state).expect("exact faulted")))
        });
        g.finish();
    });
}

fn bench_fig6(c: &mut Criterion, s: &Sizes) {
    // Determinism gate first: the pooled study must be bit-identical to
    // the serial one before its timing means anything. This deliberately
    // runs a 4-wide pool even on narrower hosts — identity must hold
    // oversubscribed too.
    let serial_pool = Arc::new(ThreadPool::new(1));
    let wide_pool = Arc::new(ThreadPool::new(4));
    let serial = with_pool(&serial_pool, || {
        ir_drop_study(Fidelity::Quick, s.fig6_layers).expect("fig6")
    });
    let threaded = with_pool(&wide_pool, || {
        ir_drop_study(Fidelity::Quick, s.fig6_layers).expect("fig6")
    });
    assert_eq!(
        serial, threaded,
        "threaded fig6 study must be bit-identical to serial"
    );

    for (threads, pool) in pool_widths() {
        with_pool(&pool, || {
            let mut g = c.benchmark_group("fig6_sweep");
            g.sample_size(s.sweep_samples);
            g.bench_function(format!("threads{threads}"), |bch| {
                bch.iter(|| black_box(ir_drop_study(Fidelity::Quick, s.fig6_layers).expect("fig6")))
            });
            g.finish();
        });
    }
}

/// Renders the collected reports as `BENCH_solver.json` at the repo root.
fn render_json(reports: &[BenchReport], meta: &Meta, quick: bool) -> String {
    let host = host_parallelism();
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"vstack-bench-solver/6\",\n");
    out.push_str(&format!("  \"host_parallelism\": {host},\n"));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let threads: usize = r
            .name
            .rsplit("threads")
            .next()
            .and_then(|t| t.parse().ok())
            .unwrap_or(1);
        let comma = if i + 1 < reports.len() { "," } else { "" };
        let mut entry = format!(
            "{{\"name\": \"{}\", \"threads\": {}, \"median_ns\": {}",
            r.name, threads, r.median_ns
        );
        if let Some(x) = meta.get(&r.name) {
            entry.push_str(&format!(
                ", \"preconditioner\": \"{}\", \"operator\": \"{}\", \
                 \"precision\": \"{}\", \"iterations\": {}",
                x.preconditioner, x.operator, x.precision, x.iterations
            ));
        }
        entry.push('}');
        out.push_str(&format!("    {entry}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let quick = std::env::var("VSTACK_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let s = sizes(quick);
    let mut c = Criterion::default();
    let mut meta = Meta::new();
    bench_kernels(&mut c, &s, &mut meta);
    bench_obs_overhead(&mut c, &s);
    bench_scaling(&mut c, &s, &mut meta);
    bench_fault_sketch(&mut c, &s, &mut meta);
    bench_fig6(&mut c, &s);

    let json = render_json(c.reports(), &meta, quick);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    std::fs::write(path, &json).expect("write BENCH_solver.json");
    println!("wrote {path}");
}
