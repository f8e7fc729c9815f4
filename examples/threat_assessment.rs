//! Grid-wide threat analytics: rank every state estimate by attack cost,
//! enumerate alternative attack vectors, and load a custom case file.
//!
//! Run with: `cargo run --release --example threat_assessment`

use sta::core::analytics::ThreatAnalyzer;
use sta::core::attack::{AttackModel, AttackVerifier, StateTarget};
use sta::grid::{caseformat, ieee14, BusId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Assess the paper's 14-bus system: per-state minimal attacker
    //    effort (measurements and substations), cheapest targets first.
    let sys = ieee14::system_unsecured();
    let assessment = ThreatAnalyzer::new(&sys)?.assess();
    println!("== threat assessment: IEEE 14-bus (unsecured) ==");
    print!("{assessment}");

    // 2. The same sweep with Table III's protections applied: costs rise.
    let secured = ieee14::system();
    let hardened = ThreatAnalyzer::new(&secured)?.assess();
    println!();
    println!("== with Table III's secured measurements ==");
    print!("{hardened}");

    // 3. Enumerate distinct attack vectors against the cheapest target.
    let cheapest = assessment.ranked()[0].bus;
    println!();
    println!(
        "== distinct attacks on the cheapest target (bus {}) ==",
        cheapest.0 + 1
    );
    let verifier = AttackVerifier::new(&sys)?;
    let model = AttackModel::new(14)
        .target(cheapest, StateTarget::MustChange)
        .max_altered_measurements(8);
    for (k, attack) in verifier.enumerate(&model, 3).iter().enumerate() {
        println!("  #{}: {attack}", k + 1);
    }

    // 4. Custom systems come in through the text case format (the
    //    paper's "input file").
    let custom = "
        system four-bus-demo
        buses 4
        reference 1
        line 1 2 10.0
        line 2 3 5.0
        line 3 4 5.0
        line 1 4 8.0 noncore
        secured 1 9
    ";
    let parsed = caseformat::parse(custom)?;
    println!();
    println!(
        "== custom case '{}': {} buses, {} lines ==",
        parsed.name,
        parsed.grid.num_buses(),
        parsed.grid.num_lines()
    );
    let custom_assessment = ThreatAnalyzer::new(&parsed)?.assess();
    print!("{custom_assessment}");
    let _ = BusId(0);
    Ok(())
}
