use std::collections::HashMap;

use crate::element::{Element, ElementId, SwitchPhase};
use crate::mna::{self, PhaseState};
use crate::CircuitError;

/// Handle to a circuit node. Obtain via [`Circuit::node`] or
/// [`Circuit::new_node`]; compare against [`GROUND`] for the reference node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// The reference (ground) node. Always exists, always at 0 V.
pub const GROUND: NodeId = NodeId(0);

/// A flat netlist of circuit elements plus analysis entry points.
///
/// Build the circuit with the element methods ([`Circuit::resistor`],
/// [`Circuit::capacitor`], [`Circuit::current_source`],
/// [`Circuit::voltage_source`], [`Circuit::vcvs`], [`Circuit::switch`]),
/// then run [`Circuit::dc_operating_point`] or a
/// [`crate::transient::Transient`] analysis.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    pub(crate) node_names: Vec<String>,
    name_map: HashMap<String, NodeId>,
    pub(crate) elements: Vec<Element>,
    pub(crate) n_branches: usize,
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Circuit {
            node_names: vec!["0".to_owned()],
            name_map: HashMap::new(),
            elements: Vec::new(),
            n_branches: 0,
        }
    }

    /// Returns the node with the given name, creating it if necessary.
    /// The names `"0"` and `"gnd"` refer to [`GROUND`].
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return GROUND;
        }
        if let Some(&id) = self.name_map.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        self.node_names.push(name.to_owned());
        self.name_map.insert(name.to_owned(), id);
        id
    }

    /// Creates a fresh anonymous node.
    pub fn new_node(&mut self) -> NodeId {
        let id = NodeId(self.node_names.len());
        self.node_names.push(format!("n{}", id.0));
        id
    }

    /// Total number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    fn push(&mut self, e: Element) -> ElementId {
        let id = ElementId(self.elements.len());
        self.elements.push(e);
        id
    }

    /// Adds a resistor of `ohms` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not finite and strictly positive.
    pub fn resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> ElementId {
        assert!(
            ohms.is_finite() && ohms > 0.0,
            "resistor must have finite positive resistance, got {ohms}"
        );
        self.push(Element::Resistor { a, b, ohms })
    }

    /// Adds a capacitor of `farads` between `a` and `b` with zero initial
    /// voltage. Use [`Circuit::capacitor_with_ic`] to set an initial
    /// condition.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not finite and strictly positive.
    pub fn capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) -> ElementId {
        self.capacitor_with_ic(a, b, farads, 0.0)
    }

    /// Adds a capacitor with initial voltage `v(a) − v(b) = initial_volts`.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not finite and strictly positive, or
    /// `initial_volts` is not finite.
    pub fn capacitor_with_ic(
        &mut self,
        a: NodeId,
        b: NodeId,
        farads: f64,
        initial_volts: f64,
    ) -> ElementId {
        assert!(
            farads.is_finite() && farads > 0.0,
            "capacitor must have finite positive capacitance, got {farads}"
        );
        assert!(initial_volts.is_finite(), "initial voltage must be finite");
        self.push(Element::Capacitor {
            a,
            b,
            farads,
            initial_volts,
        })
    }

    /// Adds an ideal current source driving `amps` from `from` to `to`
    /// (current is injected into `to`).
    ///
    /// # Panics
    ///
    /// Panics if `amps` is not finite.
    pub fn current_source(&mut self, from: NodeId, to: NodeId, amps: f64) -> ElementId {
        assert!(amps.is_finite(), "source current must be finite");
        self.push(Element::CurrentSource { from, to, amps })
    }

    /// Adds an ideal voltage source enforcing `v(plus) − v(minus) = volts`.
    ///
    /// The branch current (flowing from `plus` through the source to
    /// `minus`) becomes an MNA unknown retrievable via
    /// [`OperatingPoint::branch_current`].
    ///
    /// # Panics
    ///
    /// Panics if `volts` is not finite.
    pub fn voltage_source(&mut self, plus: NodeId, minus: NodeId, volts: f64) -> ElementId {
        assert!(volts.is_finite(), "source voltage must be finite");
        let branch = self.n_branches;
        self.n_branches += 1;
        self.push(Element::VoltageSource {
            plus,
            minus,
            volts,
            branch,
        })
    }

    /// Adds a voltage-controlled voltage source:
    /// `v(plus) − v(minus) = Σᵢ gainᵢ · (v(cpᵢ) − v(cmᵢ))`.
    ///
    /// Multiple controlling ports let the SC-converter law
    /// `V_out = ½·V_top + ½·V_bottom` be expressed as one element.
    ///
    /// # Panics
    ///
    /// Panics if any gain is not finite or `controls` is empty.
    pub fn vcvs(
        &mut self,
        plus: NodeId,
        minus: NodeId,
        controls: &[(NodeId, NodeId, f64)],
    ) -> ElementId {
        assert!(!controls.is_empty(), "vcvs needs at least one control port");
        assert!(
            controls.iter().all(|&(_, _, g)| g.is_finite()),
            "vcvs gains must be finite"
        );
        let branch = self.n_branches;
        self.n_branches += 1;
        self.push(Element::Vcvs {
            plus,
            minus,
            controls: controls.to_vec(),
            branch,
        })
    }

    /// Adds a clocked switch between `a` and `b` with on-resistance `r_on`
    /// and off-resistance `r_off`, closed during `phase`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < r_on < r_off` and both are finite.
    pub fn switch(
        &mut self,
        a: NodeId,
        b: NodeId,
        r_on: f64,
        r_off: f64,
        phase: SwitchPhase,
    ) -> ElementId {
        assert!(
            r_on.is_finite() && r_off.is_finite() && r_on > 0.0 && r_off > r_on,
            "switch requires 0 < r_on < r_off, got r_on={r_on}, r_off={r_off}"
        );
        self.push(Element::Switch {
            a,
            b,
            r_on,
            r_off,
            phase,
        })
    }

    /// Computes the DC operating point with phase-A switches closed
    /// (capacitors open).
    ///
    /// # Errors
    ///
    /// [`CircuitError::Solve`] if the MNA matrix is singular (floating
    /// nodes, voltage-source loops).
    pub fn dc_operating_point(&self) -> Result<OperatingPoint, CircuitError> {
        self.dc_operating_point_in_phase(PhaseLabel::A)
    }

    /// Computes the DC operating point with the given clock phase active.
    ///
    /// # Errors
    ///
    /// Same as [`Circuit::dc_operating_point`].
    pub fn dc_operating_point_in_phase(
        &self,
        phase: PhaseLabel,
    ) -> Result<OperatingPoint, CircuitError> {
        let state = match phase {
            PhaseLabel::A => PhaseState::A,
            PhaseLabel::B => PhaseState::B,
        };
        let (matrix, rhs) = mna::assemble_dc(self, state);
        let x = matrix.solve(&rhs)?;
        Ok(OperatingPoint::from_solution(self, &x))
    }
}

/// Publicly nameable clock phase for DC analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseLabel {
    /// First half-period (`CLK1`).
    A,
    /// Second half-period (`CLK2`).
    B,
}

/// Result of a DC analysis: node voltages and branch currents.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// Voltage per node, indexed by `NodeId.0`; ground is entry 0 (0 V).
    voltages: Vec<f64>,
    /// Branch currents of voltage sources / VCVS, indexed by branch number.
    branch_currents: Vec<f64>,
    /// Maps element index → branch number for quick current lookup.
    branch_of_element: HashMap<usize, usize>,
}

impl OperatingPoint {
    pub(crate) fn from_solution(circuit: &Circuit, x: &[f64]) -> Self {
        let n_nodes = circuit.node_count();
        let mut voltages = vec![0.0; n_nodes];
        voltages[1..n_nodes].copy_from_slice(&x[..n_nodes - 1]);
        let mut branch_currents = vec![0.0; circuit.n_branches];
        for (b, bc) in branch_currents.iter_mut().enumerate() {
            *bc = x[n_nodes - 1 + b];
        }
        let mut branch_of_element = HashMap::new();
        for (idx, e) in circuit.elements.iter().enumerate() {
            match e {
                Element::VoltageSource { branch, .. } | Element::Vcvs { branch, .. } => {
                    branch_of_element.insert(idx, *branch);
                }
                _ => {}
            }
        }
        OperatingPoint {
            voltages,
            branch_currents,
            branch_of_element,
        }
    }

    /// Voltage at `node` (ground returns 0).
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the analyzed circuit.
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.voltages[node.0]
    }

    /// Branch current through a voltage source or VCVS, flowing from its
    /// `plus` terminal through the element to `minus`. Returns `None` for
    /// elements without a branch unknown (resistors, capacitors, ...).
    pub fn branch_current(&self, element: ElementId) -> Option<f64> {
        self.branch_of_element
            .get(&element.0)
            .map(|&b| self.branch_currents[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_interning_is_stable() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        assert_eq!(a, a2);
        assert_eq!(c.node("gnd"), GROUND);
        assert_eq!(c.node("0"), GROUND);
        assert_eq!(c.node_count(), 2);
    }

    #[test]
    fn divider_dc() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.voltage_source(vin, GROUND, 3.0);
        c.resistor(vin, mid, 2_000.0);
        c.resistor(mid, GROUND, 1_000.0);
        let op = c.dc_operating_point().unwrap();
        assert!((op.voltage(mid) - 1.0).abs() < 1e-9);
        assert!((op.voltage(vin) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn voltage_source_branch_current() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vs = c.voltage_source(vin, GROUND, 10.0);
        c.resistor(vin, GROUND, 5.0);
        let op = c.dc_operating_point().unwrap();
        // 2 A flows out of the + terminal into the resistor, so the branch
        // current (plus → through source → minus) is −2 A.
        assert!((op.branch_current(vs).unwrap() + 2.0).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.current_source(GROUND, n, 0.5);
        c.resistor(n, GROUND, 10.0);
        let op = c.dc_operating_point().unwrap();
        assert!((op.voltage(n) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn vcvs_enforces_control_law() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let out = c.node("out");
        c.voltage_source(a, GROUND, 2.0);
        c.voltage_source(b, GROUND, 1.0);
        // out = 0.5 a + 0.5 b = 1.5
        c.vcvs(out, GROUND, &[(a, GROUND, 0.5), (b, GROUND, 0.5)]);
        c.resistor(out, GROUND, 100.0);
        let op = c.dc_operating_point().unwrap();
        assert!((op.voltage(out) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn switch_phase_affects_dc() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.current_source(GROUND, n, 1.0);
        c.switch(n, GROUND, 1.0, 1e9, SwitchPhase::A);
        let op_a = c.dc_operating_point_in_phase(PhaseLabel::A).unwrap();
        let op_b = c.dc_operating_point_in_phase(PhaseLabel::B).unwrap();
        assert!((op_a.voltage(n) - 1.0).abs() < 1e-9);
        assert!(op_b.voltage(n) > 1e8);
    }

    #[test]
    fn capacitor_open_in_dc() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.voltage_source(a, GROUND, 1.0);
        c.resistor(a, b, 1_000.0);
        c.capacitor(b, GROUND, 1e-9);
        // b floats through the cap; add bleed resistor to keep it solvable.
        c.resistor(b, GROUND, 1e9);
        let op = c.dc_operating_point().unwrap();
        assert!((op.voltage(b) - 1.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "positive resistance")]
    fn negative_resistor_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor(a, GROUND, -5.0);
    }

    #[test]
    #[should_panic(expected = "r_on < r_off")]
    fn bad_switch_resistances_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.switch(a, GROUND, 10.0, 1.0, SwitchPhase::A);
    }

    #[test]
    fn floating_node_reports_singular() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.voltage_source(a, GROUND, 1.0);
        c.resistor(a, GROUND, 10.0);
        // b touches only one capacitor → floating in DC.
        c.capacitor(b, GROUND, 1e-9);
        let err = c.dc_operating_point().unwrap_err();
        assert!(matches!(err, CircuitError::Solve(_)));
    }
}
