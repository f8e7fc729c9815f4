//! A plain-text case format for test systems.
//!
//! The paper's implementation reads "the system configurations and the
//! constraints … in a text file (input file)" (§III-H). This module
//! provides that interface: a line-oriented, comment-friendly format
//! carrying everything a [`TestSystem`] holds, with a parser and writer
//! that round-trip exactly.
//!
//! # Format
//!
//! ```text
//! # comments start with '#'; blank lines are ignored
//! system ieee14
//! buses 14
//! reference 1                    # 1-indexed bus
//! line 1 2 16.90                 # from to admittance [open] [noncore] [status-secured]
//! line 2 5 5.75 noncore
//! not-taken 5 10 14              # 1-indexed measurement ids
//! secured 1 2 6
//! inaccessible 7 8
//! ```
//!
//! Defaults: every line closed, core, status-unsecured; every potential
//! measurement taken, unsecured, accessible; reference bus 1.

use crate::measurement::{MeasurementConfig, MeasurementId};
use crate::model::{BusId, Grid, Line};
use crate::system::TestSystem;
use crate::topology::Topology;
use std::fmt;

/// Error from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCaseError {
    /// 1-indexed line number of the offending input line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "case file line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseCaseError {}

fn err(line: usize, message: impl Into<String>) -> ParseCaseError {
    ParseCaseError { line, message: message.into() }
}

/// Parses a case file into a [`TestSystem`].
///
/// # Errors
/// Returns [`ParseCaseError`] on malformed input, out-of-range indices,
/// or a missing `buses` declaration.
pub fn parse(text: &str) -> Result<TestSystem, ParseCaseError> {
    let mut name = String::from("case");
    let mut num_buses: Option<usize> = None;
    let mut reference = 1usize;
    struct RawLine {
        from: usize,
        to: usize,
        admittance: f64,
        open: bool,
        noncore: bool,
        status_secured: bool,
    }
    let mut raw_lines: Vec<RawLine> = Vec::new();
    let mut not_taken: Vec<usize> = Vec::new();
    let mut secured: Vec<usize> = Vec::new();
    let mut inaccessible: Vec<usize> = Vec::new();

    for (ln, raw) in text.lines().enumerate() {
        let ln = ln + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().unwrap();
        let rest: Vec<&str> = parts.collect();
        match keyword {
            "system" => {
                name = rest.first().ok_or_else(|| err(ln, "missing name"))?.to_string();
            }
            "buses" => {
                let b: usize = rest
                    .first()
                    .ok_or_else(|| err(ln, "missing bus count"))?
                    .parse()
                    .map_err(|_| err(ln, "bad bus count"))?;
                num_buses = Some(b);
            }
            "reference" => {
                reference = rest
                    .first()
                    .ok_or_else(|| err(ln, "missing reference bus"))?
                    .parse()
                    .map_err(|_| err(ln, "bad reference bus"))?;
            }
            "line" => {
                if rest.len() < 3 {
                    return Err(err(ln, "line needs: from to admittance"));
                }
                let from: usize =
                    rest[0].parse().map_err(|_| err(ln, "bad from-bus"))?;
                let to: usize = rest[1].parse().map_err(|_| err(ln, "bad to-bus"))?;
                let admittance: f64 =
                    rest[2].parse().map_err(|_| err(ln, "bad admittance"))?;
                let mut open = false;
                let mut noncore = false;
                let mut status_secured = false;
                for &flag in &rest[3..] {
                    match flag {
                        "open" => open = true,
                        "noncore" => noncore = true,
                        "status-secured" => status_secured = true,
                        other => {
                            return Err(err(ln, format!("unknown line flag {other:?}")));
                        }
                    }
                }
                if from == 0 || to == 0 {
                    return Err(err(ln, "bus ids are 1-indexed"));
                }
                raw_lines.push(RawLine {
                    from,
                    to,
                    admittance,
                    open,
                    noncore,
                    status_secured,
                });
            }
            "not-taken" | "secured" | "inaccessible" => {
                let target = match keyword {
                    "not-taken" => &mut not_taken,
                    "secured" => &mut secured,
                    _ => &mut inaccessible,
                };
                for tok in rest {
                    let id: usize =
                        tok.parse().map_err(|_| err(ln, "bad measurement id"))?;
                    if id == 0 {
                        return Err(err(ln, "measurement ids are 1-indexed"));
                    }
                    target.push(id);
                }
            }
            other => return Err(err(ln, format!("unknown keyword {other:?}"))),
        }
    }

    let b = num_buses.ok_or_else(|| err(0, "missing `buses` declaration"))?;
    for (i, rl) in raw_lines.iter().enumerate() {
        if rl.from > b || rl.to > b {
            return Err(err(0, format!("line {} references a bus beyond {b}", i + 1)));
        }
        if !(rl.admittance > 0.0 && rl.admittance.is_finite()) {
            return Err(err(0, format!("line {} has non-positive admittance", i + 1)));
        }
        if rl.from == rl.to {
            return Err(err(0, format!("line {} is a self-loop", i + 1)));
        }
    }
    let lines: Vec<Line> = raw_lines
        .iter()
        .map(|rl| Line::new(BusId(rl.from - 1), BusId(rl.to - 1), rl.admittance))
        .collect();
    let grid = Grid::new(b, lines);
    let m = grid.num_potential_measurements();
    for &id in not_taken.iter().chain(&secured).chain(&inaccessible) {
        if id > m {
            return Err(err(0, format!("measurement {id} exceeds {m}")));
        }
    }
    if reference == 0 || reference > b {
        return Err(err(0, "reference bus out of range"));
    }

    let mut sys = TestSystem::fully_metered(name, grid);
    sys.reference_bus = BusId(reference - 1);
    sys.topology = Topology::from_statuses(
        raw_lines.iter().map(|rl| !rl.open).collect(),
    );
    sys.fixed_lines = raw_lines.iter().map(|rl| !rl.noncore).collect();
    sys.secured_line_status = raw_lines.iter().map(|rl| rl.status_secured).collect();
    let mut cfg = MeasurementConfig::full(&sys.grid);
    for &id in &not_taken {
        cfg.set_taken(MeasurementId(id - 1), false);
    }
    for &id in &secured {
        cfg.set_secured(MeasurementId(id - 1), true);
    }
    for &id in &inaccessible {
        cfg.set_accessible(MeasurementId(id - 1), false);
    }
    sys.measurements = cfg;
    Ok(sys)
}

/// Loads a case by built-in name (`ieee14`, `ieee14-unsecured`, and
/// `ieee30`/`57`/`118`/`300`/`1354`/`2000` from [`crate::synthetic`]) or,
/// failing that, by case-file path: the case grammar of the `sta` CLI
/// and of `sta serve` requests.
pub fn load(spec: &str) -> Result<TestSystem, String> {
    use crate::{ieee14, synthetic};
    match spec {
        "ieee14" => return Ok(ieee14::system()),
        "ieee14-unsecured" => return Ok(ieee14::system_unsecured()),
        "ieee30" => return Ok(synthetic::ieee_case(30)),
        "ieee57" => return Ok(synthetic::ieee_case(57)),
        "ieee118" => return Ok(synthetic::ieee_case(118)),
        "ieee300" => return Ok(synthetic::ieee_case(300)),
        "ieee1354" => return Ok(synthetic::ieee_case(1354)),
        "ieee2000" => return Ok(synthetic::ieee_case(2000)),
        _ => {}
    }
    let text = std::fs::read_to_string(spec)
        .map_err(|e| format!("cannot read case file {spec:?}: {e}"))?;
    parse(&text).map_err(|e| e.to_string())
}

/// Serializes a [`TestSystem`] to the case format.
pub fn write(sys: &TestSystem) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "system {}", sys.name);
    let _ = writeln!(out, "buses {}", sys.grid.num_buses());
    let _ = writeln!(out, "reference {}", sys.reference_bus.0 + 1);
    for (i, line) in sys.grid.lines().iter().enumerate() {
        let _ = write!(
            out,
            "line {} {} {}",
            line.from.0 + 1,
            line.to.0 + 1,
            line.admittance
        );
        if !sys.topology.is_in_service(crate::model::LineId(i)) {
            let _ = write!(out, " open");
        }
        if !sys.fixed_lines[i] {
            let _ = write!(out, " noncore");
        }
        if sys.secured_line_status[i] {
            let _ = write!(out, " status-secured");
        }
        let _ = writeln!(out);
    }
    let collect = |pred: &dyn Fn(MeasurementId) -> bool| -> Vec<String> {
        (0..sys.measurements.len())
            .map(MeasurementId)
            .filter(|&id| pred(id))
            .map(|id| (id.0 + 1).to_string())
            .collect()
    };
    let not_taken = collect(&|id| !sys.measurements.is_taken(id));
    if !not_taken.is_empty() {
        let _ = writeln!(out, "not-taken {}", not_taken.join(" "));
    }
    let secured = collect(&|id| sys.measurements.is_secured(id));
    if !secured.is_empty() {
        let _ = writeln!(out, "secured {}", secured.join(" "));
    }
    let inaccessible = collect(&|id| !sys.measurements.is_accessible(id));
    if !inaccessible.is_empty() {
        let _ = writeln!(out, "inaccessible {}", inaccessible.join(" "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ieee14;
    use crate::model::LineId;

    #[test]
    fn parses_minimal_case() {
        let text = "
            # two buses, one line
            system tiny
            buses 2
            line 1 2 4.0
        ";
        let sys = parse(text).unwrap();
        assert_eq!(sys.name, "tiny");
        assert_eq!(sys.grid.num_buses(), 2);
        assert_eq!(sys.grid.num_lines(), 1);
        assert_eq!(sys.reference_bus, BusId(0));
        assert!(sys.measurements.is_taken(MeasurementId(0)));
    }

    #[test]
    fn parses_flags_and_sections() {
        let text = "
            system flags
            buses 3
            reference 2
            line 1 2 1.5 noncore
            line 2 3 2.5 open status-secured
            not-taken 1 3
            secured 2
            inaccessible 7
        ";
        let sys = parse(text).unwrap();
        assert_eq!(sys.reference_bus, BusId(1));
        assert!(!sys.fixed_lines[0]);
        assert!(!sys.topology.is_in_service(LineId(1)));
        assert!(sys.secured_line_status[1]);
        assert!(!sys.measurements.is_taken(MeasurementId(0)));
        assert!(!sys.measurements.is_taken(MeasurementId(2)));
        assert!(sys.measurements.is_secured(MeasurementId(1)));
        assert!(!sys.measurements.is_accessible(MeasurementId(6)));
    }

    #[test]
    fn roundtrips_ieee14() {
        let sys = ieee14::system();
        let text = write(&sys);
        let back = parse(&text).unwrap();
        assert_eq!(back.name, sys.name);
        assert_eq!(back.grid, sys.grid);
        assert_eq!(back.topology, sys.topology);
        assert_eq!(back.fixed_lines, sys.fixed_lines);
        assert_eq!(back.secured_line_status, sys.secured_line_status);
        assert_eq!(back.measurements, sys.measurements);
        assert_eq!(back.reference_bus, sys.reference_bus);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("buses nope").is_err());
        assert!(parse("line 1 2 3.0").is_err()); // missing buses
        assert!(parse("buses 2\nline 0 2 1.0").is_err()); // 1-indexed
        assert!(parse("buses 2\nline 1 5 1.0").is_err()); // out of range
        assert!(parse("buses 2\nline 1 2 -1.0").is_err()); // bad admittance
        assert!(parse("buses 2\nline 1 2 1.0 bogus").is_err()); // unknown flag
        assert!(parse("buses 2\nfoo 1").is_err()); // unknown keyword
        assert!(parse("buses 2\nline 1 2 1.0\nnot-taken 99").is_err());
        assert!(parse("buses 2\nreference 3\nline 1 2 1.0").is_err());
    }

    #[test]
    fn error_carries_line_number() {
        let e = parse("buses 2\nline 1 2 oops").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
    }
}
