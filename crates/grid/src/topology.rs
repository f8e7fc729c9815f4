//! The topology processor: from breaker statuses to the measurement model.
//!
//! The EMS does not use a fixed network model; a *topology processor* maps
//! the statuses of switches and circuit breakers into the set of in-service
//! lines, from which the connectivity matrix `A`, the branch admittance
//! matrix `D`, and the measurement Jacobian
//! `H = [DA; −DA; per-bus consumption rows]` (paper Eq. 2) are assembled.
//! Topology-poisoning attacks work precisely because this mapping trusts
//! telemetered statuses.

use crate::model::{BusId, Grid, LineId};
use sta_linalg::{CsrMatrix, Matrix};

/// The in-service status of every line — the output of the topology
/// processor, i.e. what state estimation believes the network looks like.
///
/// # Examples
///
/// ```
/// use sta_grid::{BusId, Grid, Line, LineId, Topology};
///
/// let grid = Grid::new(2, vec![Line::new(BusId(0), BusId(1), 4.0)]);
/// let topo = Topology::all_closed(&grid);
/// assert!(topo.is_in_service(LineId(0)));
/// assert!(topo.with_line_open(LineId(0)).island_count(&grid) == 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    in_service: Vec<bool>,
}

impl Topology {
    /// A topology with every line of `grid` in service.
    pub fn all_closed(grid: &Grid) -> Self {
        Topology { in_service: vec![true; grid.num_lines()] }
    }

    /// A topology from explicit statuses.
    pub fn from_statuses(in_service: Vec<bool>) -> Self {
        Topology { in_service }
    }

    /// Number of lines covered.
    pub fn num_lines(&self) -> usize {
        self.in_service.len()
    }

    /// Whether `line` is in service.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn is_in_service(&self, line: LineId) -> bool {
        self.in_service[line.0]
    }

    /// A copy with `line` opened (an *exclusion* when applied to a closed
    /// line).
    pub fn with_line_open(&self, line: LineId) -> Topology {
        let mut t = self.clone();
        t.in_service[line.0] = false;
        t
    }

    /// A copy with `line` closed (an *inclusion* when applied to an open
    /// line).
    pub fn with_line_closed(&self, line: LineId) -> Topology {
        let mut t = self.clone();
        t.in_service[line.0] = true;
        t
    }

    /// Ids of in-service lines.
    pub fn in_service_lines(&self) -> impl Iterator<Item = LineId> + '_ {
        self.in_service
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| LineId(i))
    }

    /// Number of connected components (electrical islands) induced on
    /// `grid` by the in-service lines.
    pub fn island_count(&self, grid: &Grid) -> usize {
        self.join(grid, |_| true).num_components()
    }

    /// The island label of each bus (labels are representative bus
    /// indices).
    pub fn island_of(&self, grid: &Grid) -> Vec<usize> {
        self.island_of_lines(grid, |_| true)
    }

    /// The island label of each bus when only the in-service lines that
    /// `joins` accepts connect buses (labels are representative bus
    /// indices). Observability analysis joins over the lines that carry
    /// a taken flow meter.
    pub fn island_of_lines(&self, grid: &Grid, joins: impl FnMut(&LineId) -> bool) -> Vec<usize> {
        let mut uf = self.join(grid, joins);
        (0..grid.num_buses()).map(|b| uf.find(b)).collect()
    }

    /// Unions the endpoints of every in-service line that `joins` accepts.
    fn join(&self, grid: &Grid, joins: impl FnMut(&LineId) -> bool) -> UnionFind {
        let mut uf = UnionFind::new(grid.num_buses());
        for line in self.in_service_lines().filter(joins) {
            let l = grid.line(line);
            uf.union(l.from.0, l.to.0);
        }
        uf
    }

    /// Whether every bus is connected (single island) — the precondition
    /// for an observable state estimate with one reference bus.
    pub fn is_connected(&self, grid: &Grid) -> bool {
        grid.num_buses() <= 1 || self.island_count(grid) == 1
    }
}

/// Builds the grid connectivity (incidence) matrix `A` (`l × b`): row `i`
/// has `+1` at the from-bus and `−1` at the to-bus of line `i`; rows of
/// out-of-service lines are zero.
pub fn connectivity_matrix(grid: &Grid, topo: &Topology) -> Matrix {
    let mut a = Matrix::zeros(grid.num_lines(), grid.num_buses());
    for (i, line) in grid.lines().iter().enumerate() {
        if topo.is_in_service(LineId(i)) {
            a[(i, line.from.0)] = 1.0;
            a[(i, line.to.0)] = -1.0;
        }
    }
    a
}

/// Builds the branch admittance diagonal `D` (`l × l`).
pub fn admittance_matrix(grid: &Grid) -> Matrix {
    Matrix::from_diag(
        &grid
            .lines()
            .iter()
            .map(|l| l.admittance)
            .collect::<Vec<f64>>(),
    )
}

/// Builds the full measurement Jacobian `H` (`(2l+b) × b`) of paper Eq. 2.
///
/// Row layout matches the paper's measurement numbering:
/// * rows `0..l`: forward line flows `P_i = ld_i(θ_lf − θ_lt)`;
/// * rows `l..2l`: backward flows (negated);
/// * rows `2l..2l+b`: bus consumptions, incoming minus outgoing flows
///   (paper Eq. 4).
///
/// Out-of-service lines contribute zero rows and do not enter the
/// consumption rows.
pub fn h_matrix(grid: &Grid, topo: &Topology) -> Matrix {
    let l = grid.num_lines();
    let b = grid.num_buses();
    let mut h = Matrix::zeros(2 * l + b, b);
    for (i, line) in grid.lines().iter().enumerate() {
        if !topo.is_in_service(LineId(i)) {
            continue;
        }
        let (f, t, y) = (line.from.0, line.to.0, line.admittance);
        // Forward flow measurement.
        h[(i, f)] += y;
        h[(i, t)] -= y;
        // Backward flow measurement.
        h[(l + i, f)] -= y;
        h[(l + i, t)] += y;
        // Consumption rows: incoming (to-bus) adds the flow, outgoing
        // (from-bus) subtracts it.
        h[(2 * l + t, f)] += y;
        h[(2 * l + t, t)] -= y;
        h[(2 * l + f, f)] -= y;
        h[(2 * l + f, t)] += y;
    }
    h
}

/// Sparse form of [`h_matrix`]: same `(2l+b) × b` Jacobian built directly
/// from triplets. Every flow row has exactly 2 nonzeros and every
/// consumption row at most `deg(bus) + 1` entries on the bus's neighbor
/// columns, so the matrix has O(l) nonzeros regardless of grid size —
/// this is what lets WLS and observability analysis scale past the
/// 14-bus cases.
pub fn h_matrix_sparse(grid: &Grid, topo: &Topology) -> CsrMatrix {
    let l = grid.num_lines();
    let b = grid.num_buses();
    let mut triplets = Vec::with_capacity(8 * l);
    for (i, line) in grid.lines().iter().enumerate() {
        if !topo.is_in_service(LineId(i)) {
            continue;
        }
        let (f, t, y) = (line.from.0, line.to.0, line.admittance);
        triplets.push((i, f, y));
        triplets.push((i, t, -y));
        triplets.push((l + i, f, -y));
        triplets.push((l + i, t, y));
        triplets.push((2 * l + t, f, y));
        triplets.push((2 * l + t, t, -y));
        triplets.push((2 * l + f, f, -y));
        triplets.push((2 * l + f, t, y));
    }
    CsrMatrix::from_triplets(2 * l + b, b, &triplets)
}

/// The reduced DC power-flow susceptance matrix: `B = AᵀDA` over the
/// in-service lines with the `reference` bus's row and column dropped, so
/// `(b−1) × (b−1)`, buses after the reference shifted down one index.
/// Built directly from triplets — a line contributes at most four
/// entries — so the matrix has O(b + l) nonzeros at any grid size. It is
/// symmetric, and positive definite exactly when the in-service lines
/// connect every bus (admittances are positive).
pub fn b_matrix(grid: &Grid, topo: &Topology, reference: BusId) -> CsrMatrix {
    let n = grid.num_buses().saturating_sub(1);
    let reduced = |bus: BusId| match bus.0.cmp(&reference.0) {
        std::cmp::Ordering::Less => Some(bus.0),
        std::cmp::Ordering::Equal => None,
        std::cmp::Ordering::Greater => Some(bus.0 - 1),
    };
    let mut triplets = Vec::with_capacity(4 * grid.num_lines());
    for line in topo.in_service_lines().map(|i| grid.line(i)) {
        let y = line.admittance;
        let (f, t) = (reduced(line.from), reduced(line.to));
        for k in [f, t].into_iter().flatten() {
            triplets.push((k, k, y));
        }
        if let (Some(f), Some(t)) = (f, t) {
            triplets.push((f, t, -y));
            triplets.push((t, f, -y));
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

/// Disjoint-set forest used for island detection.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect(), rank: vec![0; n], components: n }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        self.components -= 1;
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
    }

    fn num_components(&self) -> usize {
        self.components
    }
}

/// Helper: the bus at which a potential measurement physically resides
/// (paper Eq. 23): forward flow meters sit at the from-bus substation,
/// backward flow meters at the to-bus, injection meters at their bus.
pub fn measurement_bus(grid: &Grid, measurement: usize) -> BusId {
    let l = grid.num_lines();
    if measurement < l {
        grid.line(LineId(measurement)).from
    } else if measurement < 2 * l {
        grid.line(LineId(measurement - l)).to
    } else {
        BusId(measurement - 2 * l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Line;

    fn triangle() -> Grid {
        Grid::new(
            3,
            vec![
                Line::new(BusId(0), BusId(1), 2.0),
                Line::new(BusId(1), BusId(2), 4.0),
                Line::new(BusId(0), BusId(2), 8.0),
            ],
        )
    }

    #[test]
    fn h_matrix_shape_and_flow_rows() {
        let g = triangle();
        let topo = Topology::all_closed(&g);
        let h = h_matrix(&g, &topo);
        assert_eq!(h.num_rows(), 9);
        assert_eq!(h.num_cols(), 3);
        // Line 0 forward: 2(θ0 − θ1).
        assert_eq!(h[(0, 0)], 2.0);
        assert_eq!(h[(0, 1)], -2.0);
        // Backward is negated.
        assert_eq!(h[(3, 0)], -2.0);
        assert_eq!(h[(3, 1)], 2.0);
    }

    #[test]
    fn consumption_rows_are_incoming_minus_outgoing() {
        let g = triangle();
        let topo = Topology::all_closed(&g);
        let h = h_matrix(&g, &topo);
        // Bus 1 (index 1): incoming line 0 (from bus 0), outgoing line 1.
        // P_B1 = 2(θ0−θ1) − 4(θ1−θ2) → coeffs: θ0: 2, θ1: −6, θ2: 4.
        assert_eq!(h[(7, 0)], 2.0);
        assert_eq!(h[(7, 1)], -6.0);
        assert_eq!(h[(7, 2)], 4.0);
    }

    #[test]
    fn consumption_rows_sum_to_zero() {
        // Power balance: the consumption rows over all buses cancel.
        let g = triangle();
        let topo = Topology::all_closed(&g);
        let h = h_matrix(&g, &topo);
        for col in 0..3 {
            let total: f64 = (6..9).map(|r| h[(r, col)]).sum();
            assert!(total.abs() < 1e-12);
        }
    }

    #[test]
    fn open_line_zeroes_its_rows() {
        let g = triangle();
        let topo = Topology::all_closed(&g).with_line_open(LineId(1));
        let h = h_matrix(&g, &topo);
        for col in 0..3 {
            assert_eq!(h[(1, col)], 0.0);
            assert_eq!(h[(4, col)], 0.0);
        }
        // Bus 2 consumption now only sees line 2.
        assert_eq!(h[(8, 1)], 0.0);
    }

    #[test]
    fn sparse_jacobian_matches_dense() {
        let g = triangle();
        for topo in [
            Topology::all_closed(&g),
            Topology::all_closed(&g).with_line_open(LineId(1)),
        ] {
            let dense = h_matrix(&g, &topo);
            let sparse = h_matrix_sparse(&g, &topo);
            assert_eq!(sparse.num_rows(), dense.num_rows());
            assert_eq!(sparse.num_cols(), dense.num_cols());
            for i in 0..dense.num_rows() {
                for j in 0..dense.num_cols() {
                    assert_eq!(sparse.get(i, j), dense[(i, j)], "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn islands() {
        let g = triangle();
        let all = Topology::all_closed(&g);
        assert_eq!(all.island_count(&g), 1);
        assert!(all.is_connected(&g));
        // Removing two lines strands bus 1... removing lines 0 and 1.
        let cut = all.with_line_open(LineId(0)).with_line_open(LineId(1));
        assert_eq!(cut.island_count(&g), 2);
        assert!(!cut.is_connected(&g));
        let labels = cut.island_of(&g);
        assert_eq!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[1]);
        // Joining over line 2 alone gives the same islands; joining over
        // an out-of-service line joins nothing.
        assert_eq!(cut.island_of_lines(&g, |l| l.0 == 2), labels);
        let none = cut.island_of_lines(&g, |l| l.0 == 0);
        assert!((0..3).all(|b| none[b] == b));
    }

    #[test]
    fn b_matrix_is_ata_without_the_reference() {
        let g = triangle();
        let a = connectivity_matrix(&g, &Topology::all_closed(&g));
        let d = admittance_matrix(&g);
        let full = a.transpose().mul_mat(&d).mul_mat(&a);
        for reference in 0..3 {
            let keep: Vec<usize> = (0..3).filter(|&j| j != reference).collect();
            let expected = full.select_rows(&keep).select_cols(&keep);
            let got = b_matrix(&g, &Topology::all_closed(&g), BusId(reference));
            assert_eq!((got.num_rows(), got.num_cols()), (2, 2));
            for i in 0..2 {
                for j in 0..2 {
                    assert!((expected[(i, j)] - got.get(i, j)).abs() < 1e-12);
                }
            }
        }
        // An open line drops out of every entry it touched.
        let cut = b_matrix(&g, &Topology::all_closed(&g).with_line_open(LineId(1)), BusId(0));
        assert_eq!(cut.get(0, 0), 2.0);
        assert_eq!(cut.get(0, 1), 0.0);
        assert_eq!(cut.get(1, 1), 8.0);
    }

    #[test]
    fn measurement_bus_mapping() {
        let g = triangle();
        // Forward flow of line 1 (bus1→bus2) is metered at bus 1.
        assert_eq!(measurement_bus(&g, 1), BusId(1));
        // Backward flow of line 1 at bus 2.
        assert_eq!(measurement_bus(&g, 4), BusId(2));
        // Injection measurement 6+j at bus j.
        assert_eq!(measurement_bus(&g, 8), BusId(2));
    }
}
