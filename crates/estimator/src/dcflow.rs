//! DC power flow: solving `B·θ = P` for an operating point.
//!
//! The DC model fixes all voltage magnitudes at 1 p.u. and solves the
//! linear power balance for the phase angles. We use it both to establish
//! base operating points (the flows a topology-poisoning attacker must
//! coordinate with, paper Eqs. 11–13) and as ground truth for end-to-end
//! estimator validation.

use sta_grid::{BusId, Grid, LineId, Topology};
use sta_linalg::{SparseCholesky, Vector};

/// A solved operating point of the system.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// Voltage phase angle of every bus (reference pinned to zero).
    pub theta: Vector,
    /// Power flow of every line in its reference direction
    /// (`P_i = ld_i(θ_lf − θ_lt)`); zero for out-of-service lines.
    pub line_flows: Vector,
    /// Power consumption of every bus (incoming minus outgoing flows,
    /// paper Eq. 4).
    pub bus_consumption: Vector,
}

/// Why [`solve`] found no operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerFlowError {
    /// The in-service lines split the grid into `islands` electrical
    /// islands; one reference bus cannot pin the angles of all of them.
    Islanded {
        /// Number of islands (at least two).
        islands: usize,
    },
    /// The grid is connected but the reduced susceptance matrix still
    /// has a non-positive pivot — the numerical backstop for admittances
    /// so disparate that the factorization loses positive definiteness.
    NotPositiveDefinite,
}

impl std::fmt::Display for PowerFlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PowerFlowError::Islanded { islands } => write!(
                f,
                "no DC operating point: the in-service lines split the grid into \
                 {islands} islands"
            ),
            PowerFlowError::NotPositiveDefinite => f.write_str(
                "no DC operating point: the reduced susceptance matrix is not \
                 positive definite",
            ),
        }
    }
}

impl std::error::Error for PowerFlowError {}

/// Solves the DC power flow for the given *net injections* (generation
/// minus load, per bus; the reference bus balances the rest).
///
/// Drops the reference bus from `B·θ = P` and factors the reduced
/// susceptance matrix ([`sta_grid::topology::b_matrix`]) with the
/// AMD-ordered sparse `LDLᵀ` ([`SparseCholesky`]): on a connected grid it
/// is symmetric positive definite, and its factor stays O(b + l)-sized,
/// so the solve costs milliseconds at thousands of buses.
///
/// # Errors
/// Returns [`PowerFlowError::Islanded`] if the in-service topology does
/// not connect all buses (checked before factoring), and
/// [`PowerFlowError::NotPositiveDefinite`] if the factorization meets a
/// non-positive pivot anyway.
///
/// # Panics
/// Panics if `injections.len() != grid.num_buses()`.
///
/// # Examples
///
/// ```
/// use sta_estimator::dcflow;
/// use sta_grid::{ieee14, BusId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = ieee14::system();
/// let mut injections = vec![0.0; 14];
/// injections[1] = 1.0; // generation at bus 2
/// injections[8] = -1.0; // load at bus 9
/// let op = dcflow::solve(&sys.grid, &sys.topology, &injections, BusId(0))?;
/// assert!(op.theta[0].abs() < 1e-12); // reference angle pinned
/// # Ok(())
/// # }
/// ```
pub fn solve(
    grid: &Grid,
    topo: &Topology,
    injections: &[f64],
    reference: BusId,
) -> Result<OperatingPoint, PowerFlowError> {
    let b = grid.num_buses();
    assert_eq!(injections.len(), b, "one injection per bus");
    let islands = topo.island_count(grid);
    if islands > 1 {
        return Err(PowerFlowError::Islanded { islands });
    }
    let keep: Vec<usize> = (0..b).filter(|&j| j != reference.0).collect();
    let rhs: Vector = keep.iter().map(|&j| injections[j]).collect();
    let reduced = sta_grid::topology::b_matrix(grid, topo, reference);
    let sol = SparseCholesky::factor(&reduced)
        .and_then(|factor| factor.solve(&rhs))
        .map_err(|_| PowerFlowError::NotPositiveDefinite)?;
    let mut theta = Vector::zeros(b);
    for (k, &j) in keep.iter().enumerate() {
        theta[j] = sol[k];
    }
    Ok(operating_point_from_theta(grid, topo, &theta))
}

/// Computes flows and consumptions implied by a phase-angle vector.
pub fn operating_point_from_theta(
    grid: &Grid,
    topo: &Topology,
    theta: &Vector,
) -> OperatingPoint {
    let l = grid.num_lines();
    let b = grid.num_buses();
    let mut line_flows = Vector::zeros(l);
    let mut bus_consumption = Vector::zeros(b);
    for i in 0..l {
        if !topo.is_in_service(LineId(i)) {
            continue;
        }
        let line = grid.line(LineId(i));
        let p = line.admittance * (theta[line.from.0] - theta[line.to.0]);
        line_flows[i] = p;
        bus_consumption[line.to.0] += p;
        bus_consumption[line.from.0] -= p;
    }
    OperatingPoint { theta: theta.clone(), line_flows, bus_consumption }
}

/// A deterministic, physically sensible base-case injection profile:
/// alternating generation/load scaled to the system size, summing to zero.
///
/// Used by the benchmarks and topology-attack scenarios that need *some*
/// base operating point (the paper's testbed operating points are not
/// published).
pub fn synthetic_injections(num_buses: usize, seed: u64) -> Vec<f64> {
    let mut injections = vec![0.0; num_buses];
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as f64 / 1000.0
    };
    let mut total = 0.0;
    for (j, slot) in injections.iter_mut().enumerate().skip(1) {
        let magnitude = 0.2 + 0.8 * next();
        let value = if j % 2 == 0 { magnitude } else { -magnitude };
        *slot = value;
        total += value;
    }
    injections[0] = -total; // reference bus balances the system
    injections
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_grid::{ieee14, synthetic, Line};

    #[test]
    fn two_bus_flow() {
        let grid = Grid::new(2, vec![Line::new(BusId(0), BusId(1), 4.0)]);
        let topo = Topology::all_closed(&grid);
        // Bus 1 consumes 1.0 (injection −1), bus 0 generates.
        let op = solve(&grid, &topo, &[1.0, -1.0], BusId(0)).unwrap();
        // P = 4(θ0 − θ1) must carry 1.0 from bus 0 to bus 1.
        assert!((op.line_flows[0] - 1.0).abs() < 1e-12);
        assert!((op.theta[1] + 0.25).abs() < 1e-12);
        assert!((op.bus_consumption[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn balance_holds_on_ieee14() {
        let sys = ieee14::system();
        let injections = synthetic_injections(14, 1);
        let op = solve(&sys.grid, &sys.topology, &injections, sys.reference_bus).unwrap();
        // Net consumption at each bus equals −injection.
        for j in 0..14 {
            assert!(
                (op.bus_consumption[j] + injections[j]).abs() < 1e-9,
                "bus {}: {} vs {}",
                j + 1,
                op.bus_consumption[j],
                -injections[j]
            );
        }
    }

    #[test]
    fn islanded_topology_names_its_island_count() {
        let grid = Grid::new(2, vec![Line::new(BusId(0), BusId(1), 4.0)]);
        let topo = Topology::all_closed(&grid).with_line_open(LineId(0));
        let err = solve(&grid, &topo, &[1.0, -1.0], BusId(0)).unwrap_err();
        assert_eq!(err, PowerFlowError::Islanded { islands: 2 });
        assert!(err.to_string().contains("2 islands"), "{err}");
        // Opening line 7–8 strands bus 8, which hangs off bus 7 alone.
        let sys = ieee14::system();
        let stranded = sys.topology.with_line_open(LineId(13));
        assert_eq!(stranded.island_count(&sys.grid), 2);
        assert_eq!(
            solve(&sys.grid, &stranded, &synthetic_injections(14, 0), sys.reference_bus)
                .unwrap_err(),
            PowerFlowError::Islanded { islands: 2 }
        );
    }

    #[test]
    fn disparate_admittances_hit_the_pivot_backstop() {
        // Connected, but the weak line's pivot falls below the factor's
        // relative tolerance: the numerical backstop reports it.
        let grid = Grid::new(
            3,
            vec![Line::new(BusId(0), BusId(1), 1e15), Line::new(BusId(1), BusId(2), 1e-6)],
        );
        let topo = Topology::all_closed(&grid);
        assert_eq!(topo.island_count(&grid), 1);
        assert_eq!(
            solve(&grid, &topo, &[1.0, 0.0, -1.0], BusId(1)).unwrap_err(),
            PowerFlowError::NotPositiveDefinite
        );
    }

    #[test]
    fn synthetic_injections_balance() {
        for seed in 0..5 {
            let inj = synthetic_injections(30, seed);
            let total: f64 = inj.iter().sum();
            assert!(total.abs() < 1e-9);
            assert!(inj.iter().any(|&x| x != 0.0));
        }
    }

    #[test]
    fn flows_consistent_on_synthetic_case() {
        let sys = synthetic::ieee_case(30);
        let injections = synthetic_injections(30, 9);
        let op = solve(&sys.grid, &sys.topology, &injections, sys.reference_bus).unwrap();
        // Re-derive the operating point from theta and compare.
        let op2 = operating_point_from_theta(&sys.grid, &sys.topology, &op.theta);
        for i in 0..sys.grid.num_lines() {
            assert!((op.line_flows[i] - op2.line_flows[i]).abs() < 1e-12);
        }
    }
}
