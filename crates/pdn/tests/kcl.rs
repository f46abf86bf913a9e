//! Kirchhoff's current law at the board: an oracle that shares no code
//! with any solver.
//!
//! Conductance and converter stamps have zero row sums, and every load
//! injects equal and opposite currents at its supply and return nodes, so
//! `Σ I(Vdd pads) − Σ I(Gnd pads) = Σ (b − A·v)`: the net current through
//! the pads is the sum of the solve's residual, which every accepted answer
//! keeps near zero. Reading the balance off the extracted pad currents
//! checks a solution without CG, AMG, SMW or superposition, on every path
//! that produces one — and an extraction that drops or double-counts a
//! pad cannot pass. On the regular PDN every load's current also comes in
//! through the Vdd pads, so their sum is the total load current.

use vstack_pdn::{
    FaultSet, FaultedSolution, Pdn, PdnParams, SolveScratch, StackLoads, Stacking, TsvTopology,
};
use vstack_power::workload::ImbalancePattern;
use vstack_sc::compact::ScConverter;
use vstack_sparse::SolveMethod;

/// Largest pad-current imbalance, relative to the supply current.
const TOLERANCE: f64 = 1e-6;

fn stacking(converter: ScConverter) -> Option<Stacking> {
    Some(Stacking {
        converter,
        converters_per_core: 4,
    })
}

/// Asserts the board balance of `sol`, solved under `loads`.
fn assert_balanced(case: &str, pdn: &Pdn, loads: &StackLoads, sol: &FaultedSolution) {
    let sum = |pads: &[(usize, f64)]| pads.iter().map(|&(_, i)| i).sum::<f64>();
    let (vdd, gnd) = (sum(&sol.vdd_pad_currents), sum(&sol.gnd_pad_currents));
    let off = (vdd - gnd).abs() / vdd;
    assert!(
        off <= TOLERANCE,
        "{case}: Vdd pads {vdd} A, Gnd pads {gnd} A ({off:e})"
    );
    if pdn.stacking().is_none() {
        let total = loads.total_current();
        let off = (vdd - total).abs() / total;
        assert!(
            off <= TOLERANCE,
            "{case}: Vdd pads {vdd} A, loads {total} A ({off:e})"
        );
    }
}

#[test]
fn pad_currents_balance_on_every_answer_path() {
    let mut quick = PdnParams::paper_defaults();
    quick.grid_refinement = 1;
    let paper = PdnParams::paper_defaults();
    for (p, layers) in [(&quick, 2), (&quick, 8), (&paper, 4)] {
        let sweep: Vec<StackLoads> = [0.2, 0.5, 0.8]
            .iter()
            .map(|&x| StackLoads::interleaved(p, layers, &ImbalancePattern::new(x)))
            .collect();
        let loads = &sweep[1];
        let pdns = [
            ("regular", Pdn::new(p, layers, TsvTopology::Few, 0.25, None)),
            (
                "voltage-stacked",
                Pdn::new(
                    p,
                    layers,
                    TsvTopology::Few,
                    0.25,
                    stacking(ScConverter::paper_28nm()),
                ),
            ),
        ];
        for (label, pdn) in &pdns {
            let case = |path: &str| {
                format!(
                    "{label}, {layers} layers, refinement {}: {path}",
                    p.grid_refinement
                )
            };
            let mut faults = FaultSet::new();
            faults.fail_vdd_pad(0);
            faults.fail_gnd_pad(1);
            faults.fail_tsvs(0, 0, pdn.tsvs_per_bundle() / 2);

            for (path, f) in [("healthy", FaultSet::new()), ("faulted", faults.clone())] {
                let sol = pdn
                    .solve_faulted_scratch(loads, &f, None, &mut SolveScratch::new())
                    .unwrap();
                assert_ne!(sol.report.operator, "smw");
                assert_balanced(&case(path), pdn, loads, &sol);
            }

            let mut scratch = SolveScratch::new();
            pdn.solve_faulted_sketched(loads, &FaultSet::new(), &mut scratch)
                .unwrap();
            let smw = pdn
                .solve_faulted_sketched(loads, &faults, &mut scratch)
                .unwrap();
            assert_eq!(smw.report.operator, "smw", "{}", case("SMW"));
            assert_balanced(&case("SMW"), pdn, loads, &smw);

            let mut points = Vec::new();
            pdn.solve_load_sweep(&sweep, &mut SolveScratch::new(), &mut |i, sol| {
                points.push((i, sol))
            })
            .unwrap();
            assert_eq!(
                points[1].1.report.method,
                SolveMethod::Superposition,
                "{}",
                case("sweep")
            );
            for (i, sol) in &points {
                assert_balanced(&case(&format!("sweep point {i}")), pdn, &sweep[*i], sol);
            }
        }

        let closed = Pdn::new(
            p,
            layers,
            TsvTopology::Few,
            0.25,
            stacking(ScConverter::paper_28nm_closed_loop()),
        );
        let sol = closed
            .solve_faulted_scratch(loads, &FaultSet::new(), None, &mut SolveScratch::new())
            .unwrap();
        let case = format!(
            "closed loop, {layers} layers, refinement {}",
            p.grid_refinement
        );
        assert_balanced(&case, &closed, loads, &sol);
    }
}
