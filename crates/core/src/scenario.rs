//! Text format for attack scenarios.
//!
//! The paper's toolchain is driven by input files (§III-H); grids come in
//! through [`sta_grid::caseformat`], and this module does the same for
//! the *attack model*: a line-oriented description of the adversary's
//! goal, knowledge, resources and capabilities that parses into an
//! [`AttackModel`].
//!
//! # Format
//!
//! ```text
//! # all indices 1-based, as in the paper
//! target 9 change          # state 9 must be corrupted
//! target 10 change
//! target 12 keep           # state 12 must stay correct
//! different 9 10           # Δθ9 ≠ Δθ10
//! unknown-lines 3 7 17     # admittances the attacker lacks
//! max-measurements 16      # T_CZ
//! max-buses 7              # T_CB
//! topology-attack          # may falsify breaker statuses
//! strict-knowledge         # strict Eq.17 reading
//! secure-measurement 46    # extra protection (what-if)
//! secure-bus 1
//! deny-measurement 5       # attacker cannot reach this meter
//! certify full             # certify every solver answer (off|models|full)
//! ```

use crate::attack::{AttackModel, StateTarget};
use sta_grid::{BusId, MeasurementId};
use sta_smt::CertifyLevel;
use std::fmt;

/// Error from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScenarioError {
    /// 1-indexed input line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseScenarioError {}

fn err(line: usize, message: impl Into<String>) -> ParseScenarioError {
    ParseScenarioError { line, message: message.into() }
}

/// Parses a scenario for a system with `num_buses` buses and `num_lines`
/// lines.
///
/// # Errors
/// Returns [`ParseScenarioError`] on malformed or out-of-range input.
pub fn parse(
    text: &str,
    num_buses: usize,
    num_lines: usize,
) -> Result<AttackModel, ParseScenarioError> {
    let mut model = AttackModel::new(num_buses);
    let num_measurements = 2 * num_lines + num_buses;
    for (ln, raw) in text.lines().enumerate() {
        let ln = ln + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().unwrap();
        let rest: Vec<&str> = parts.collect();
        let parse_index = |tok: &str, max: usize, what: &str| -> Result<usize, ParseScenarioError> {
            let v: usize = tok
                .parse()
                .map_err(|_| err(ln, format!("bad {what} index {tok:?}")))?;
            if v == 0 || v > max {
                return Err(err(ln, format!("{what} {v} out of range 1..={max}")));
            }
            Ok(v - 1)
        };
        match keyword {
            "target" => {
                if rest.len() != 2 {
                    return Err(err(ln, "target needs: <state> change|keep"));
                }
                let bus = parse_index(rest[0], num_buses, "state")?;
                let goal = match rest[1] {
                    "change" => StateTarget::MustChange,
                    "keep" => StateTarget::MustNotChange,
                    other => return Err(err(ln, format!("unknown goal {other:?}"))),
                };
                model.targets[bus] = goal;
            }
            "different" => {
                if rest.len() != 2 {
                    return Err(err(ln, "different needs two states"));
                }
                let a = parse_index(rest[0], num_buses, "state")?;
                let b = parse_index(rest[1], num_buses, "state")?;
                model.different_changes.push((BusId(a), BusId(b)));
            }
            "unknown-lines" => {
                let mut bd = model
                    .known_admittances
                    .take()
                    .unwrap_or_else(|| vec![true; num_lines]);
                for tok in rest {
                    bd[parse_index(tok, num_lines, "line")?] = false;
                }
                model.known_admittances = Some(bd);
            }
            "max-measurements" => {
                let v: usize = rest
                    .first()
                    .ok_or_else(|| err(ln, "missing limit"))?
                    .parse()
                    .map_err(|_| err(ln, "bad limit"))?;
                model.max_altered_measurements = Some(v);
            }
            "max-buses" => {
                let v: usize = rest
                    .first()
                    .ok_or_else(|| err(ln, "missing limit"))?
                    .parse()
                    .map_err(|_| err(ln, "bad limit"))?;
                model.max_compromised_buses = Some(v);
            }
            "topology-attack" => model.allow_topology_attack = true,
            "strict-knowledge" => model.strict_knowledge = true,
            "secure-measurement" => {
                for tok in rest {
                    let id = parse_index(tok, num_measurements, "measurement")?;
                    model.extra_secured_measurements.push(MeasurementId(id));
                }
            }
            "secure-bus" => {
                for tok in rest {
                    let id = parse_index(tok, num_buses, "bus")?;
                    model.extra_secured_buses.push(BusId(id));
                }
            }
            "deny-measurement" => {
                for tok in rest {
                    let id = parse_index(tok, num_measurements, "measurement")?;
                    model.inaccessible_measurements.push(MeasurementId(id));
                }
            }
            "timeout-ms" => {
                let v: u64 = rest
                    .first()
                    .ok_or_else(|| err(ln, "missing timeout"))?
                    .parse()
                    .map_err(|_| err(ln, "bad timeout"))?;
                model.timeout_ms = Some(v);
            }
            "certify" => {
                let token = rest
                    .first()
                    .copied()
                    .ok_or_else(|| err(ln, "certify needs off|models|full"))?;
                model.certify = CertifyLevel::parse(token).ok_or_else(|| {
                    err(ln, format!("certify needs off|models|full, got {token:?}"))
                })?;
            }
            other => return Err(err(ln, format!("unknown keyword {other:?}"))),
        }
    }
    Ok(model)
}

/// Serializes an [`AttackModel`] back into the scenario format.
pub fn write(model: &AttackModel) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (j, t) in model.targets.iter().enumerate() {
        match t {
            StateTarget::MustChange => {
                let _ = writeln!(out, "target {} change", j + 1);
            }
            StateTarget::MustNotChange => {
                let _ = writeln!(out, "target {} keep", j + 1);
            }
            StateTarget::Free => {}
        }
    }
    for (a, b) in &model.different_changes {
        let _ = writeln!(out, "different {} {}", a.0 + 1, b.0 + 1);
    }
    if let Some(bd) = &model.known_admittances {
        let unknown: Vec<String> = bd
            .iter()
            .enumerate()
            .filter(|(_, &k)| !k)
            .map(|(i, _)| (i + 1).to_string())
            .collect();
        if !unknown.is_empty() {
            let _ = writeln!(out, "unknown-lines {}", unknown.join(" "));
        }
    }
    if let Some(v) = model.max_altered_measurements {
        let _ = writeln!(out, "max-measurements {v}");
    }
    if let Some(v) = model.max_compromised_buses {
        let _ = writeln!(out, "max-buses {v}");
    }
    if model.allow_topology_attack {
        let _ = writeln!(out, "topology-attack");
    }
    if model.strict_knowledge {
        let _ = writeln!(out, "strict-knowledge");
    }
    for id in &model.extra_secured_measurements {
        let _ = writeln!(out, "secure-measurement {}", id.0 + 1);
    }
    for bus in &model.extra_secured_buses {
        let _ = writeln!(out, "secure-bus {}", bus.0 + 1);
    }
    for id in &model.inaccessible_measurements {
        let _ = writeln!(out, "deny-measurement {}", id.0 + 1);
    }
    if let Some(v) = model.timeout_ms {
        let _ = writeln!(out, "timeout-ms {v}");
    }
    if model.certify != CertifyLevel::Off {
        let _ = writeln!(out, "certify {}", model.certify.token());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_objective_one() {
        let text = "
            # the paper's Attack Objective 1
            target 9 change
            target 10 change
            different 9 10
            unknown-lines 3 7 17
            max-measurements 16
            max-buses 7
        ";
        let model = parse(text, 14, 20).unwrap();
        assert_eq!(model.targets[8], StateTarget::MustChange);
        assert_eq!(model.targets[9], StateTarget::MustChange);
        assert_eq!(model.different_changes, vec![(BusId(8), BusId(9))]);
        assert_eq!(model.max_altered_measurements, Some(16));
        assert_eq!(model.max_compromised_buses, Some(7));
        let bd = model.known_admittances.unwrap();
        assert!(!bd[2] && !bd[6] && !bd[16]);
        assert_eq!(bd.iter().filter(|&&k| k).count(), 17);
    }

    #[test]
    fn parses_flags_and_protection() {
        let text = "
            target 12 change
            topology-attack
            strict-knowledge
            secure-measurement 46
            secure-bus 1 6
            deny-measurement 5
        ";
        let model = parse(text, 14, 20).unwrap();
        assert!(model.allow_topology_attack);
        assert!(model.strict_knowledge);
        assert_eq!(model.extra_secured_measurements, vec![MeasurementId(45)]);
        assert_eq!(model.extra_secured_buses, vec![BusId(0), BusId(5)]);
        assert_eq!(model.inaccessible_measurements, vec![MeasurementId(4)]);
    }

    #[test]
    fn roundtrip() {
        let text = "
            target 9 change
            target 12 keep
            different 9 10
            unknown-lines 3
            max-measurements 8
            topology-attack
            secure-bus 2
        ";
        let model = parse(text, 14, 20).unwrap();
        let back = parse(&write(&model), 14, 20).unwrap();
        assert_eq!(back.targets, model.targets);
        assert_eq!(back.different_changes, model.different_changes);
        assert_eq!(back.known_admittances, model.known_admittances);
        assert_eq!(back.max_altered_measurements, model.max_altered_measurements);
        assert_eq!(back.allow_topology_attack, model.allow_topology_attack);
        assert_eq!(back.extra_secured_buses, model.extra_secured_buses);
    }

    #[test]
    fn parses_certify_levels() {
        assert_eq!(parse("certify off", 14, 20).unwrap().certify, CertifyLevel::Off);
        assert_eq!(
            parse("certify models", 14, 20).unwrap().certify,
            CertifyLevel::CheckModels
        );
        let model = parse("certify full", 14, 20).unwrap();
        assert_eq!(model.certify, CertifyLevel::Full);
        assert!(parse("certify maybe", 14, 20).is_err());
        assert!(parse("certify", 14, 20).is_err());
        // Round-trips through write().
        let back = parse(&write(&model), 14, 20).unwrap();
        assert_eq!(back.certify, CertifyLevel::Full);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("target 0 change", 14, 20).is_err());
        assert!(parse("target 15 change", 14, 20).is_err());
        assert!(parse("target 9 explode", 14, 20).is_err());
        assert!(parse("different 9", 14, 20).is_err());
        assert!(parse("unknown-lines 21", 14, 20).is_err());
        assert!(parse("max-measurements lots", 14, 20).is_err());
        assert!(parse("secure-measurement 55", 14, 20).is_err());
        assert!(parse("frobnicate", 14, 20).is_err());
        let e = parse("\n\ntarget 0 change", 14, 20).unwrap_err();
        assert_eq!(e.line, 3);
    }
}
