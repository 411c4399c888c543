//! Optimizing a user-supplied circuit: build a small datapath slice with
//! the netlist API (or load any ISCAS85 `.bench` file), then run the full
//! statistical flow and validate the result with Monte Carlo.
//!
//! ```text
//! cargo run --release --example custom_circuit [path/to/file.bench]
//! ```

use statleak::core::flows::{FlowConfig, Setup};
use statleak::mc::{McConfig, MonteCarlo};
use statleak::netlist::{bench, Circuit, CircuitBuilder, GateKind};
use statleak::opt::statistical_for_yield;
use statleak::ssta::Ssta;

/// A 4-bit ripple-carry adder built gate by gate — the kind of datapath
/// slice a user would hand the optimizer.
fn ripple_carry_adder(bits: usize) -> Result<Circuit, Box<dyn std::error::Error>> {
    let mut b = CircuitBuilder::new(format!("rca{bits}"));
    for i in 0..bits {
        b.add_input(format!("a{i}"))?;
        b.add_input(format!("b{i}"))?;
    }
    b.add_input("cin")?;
    let mut carry = "cin".to_string();
    for i in 0..bits {
        let (a, bb) = (format!("a{i}"), format!("b{i}"));
        b.add_gate(format!("p{i}"), GateKind::Xor, &[&a, &bb])?;
        b.add_gate(format!("g{i}"), GateKind::And, &[&a, &bb])?;
        b.add_gate(format!("s{i}"), GateKind::Xor, &[&format!("p{i}"), &carry])?;
        b.add_gate(format!("pc{i}"), GateKind::And, &[&format!("p{i}"), &carry])?;
        b.add_gate(
            format!("c{i}"),
            GateKind::Or,
            &[&format!("g{i}"), &format!("pc{i}")],
        )?;
        b.mark_output(format!("s{i}"))?;
        carry = format!("c{i}");
    }
    b.mark_output(carry)?;
    Ok(b.build()?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = match std::env::args().nth(1) {
        Some(path) => {
            let text = std::fs::read_to_string(&path)?;
            let name = std::path::Path::new(&path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("user")
                .to_string();
            bench::parse(&name, &text)?
        }
        None => ripple_carry_adder(4)?,
    };
    let stats = circuit.stats();
    println!(
        "circuit {}: {} inputs, {} outputs, {} gates, depth {}",
        circuit.name(),
        stats.inputs,
        stats.outputs,
        stats.gates,
        stats.depth
    );

    // The flows' constructor places the circuit, builds its factor model,
    // and sets the clock target from the minimum delay.
    let cfg = FlowConfig::builder(circuit.name())
        .slack_factor(1.15)
        .eta(0.99)
        .build()?;
    let Setup {
        base,
        fm,
        dmin,
        t_clk,
        ..
    } = Setup::new(circuit, &cfg)?;
    println!("Dmin = {dmin:.1} ps, clock target = {t_clk:.1} ps, yield target 99%");

    let out = statistical_for_yield(&base, &fm, t_clk, cfg.eta)?;
    let r = &out.report;
    println!(
        "optimized: {} of {} gates high-Vth, p95 leakage {:.3} uW -> {:.3} uW, yield {:.4}",
        out.design.high_vth_count(),
        stats.gates,
        r.initial_objective * 1e6,
        r.final_objective * 1e6,
        r.final_yield
    );

    // Independent Monte-Carlo confirmation with the full nonlinear models.
    let mc = MonteCarlo::new(McConfig {
        samples: 3000,
        ..Default::default()
    })
    .run(&out.design, &fm);
    let ssta = Ssta::analyze(&out.design, &fm);
    println!(
        "MC check: yield {:.4} (SSTA {:.4}), p95 leakage {:.3} uW (analytic {:.3} uW)",
        mc.timing_yield(t_clk),
        ssta.timing_yield(t_clk),
        mc.leakage_percentile(0.95) * out.design.tech().vdd * 1e6,
        r.final_objective * 1e6,
    );
    println!(
        "delay-leakage correlation across chips: {:.2} (fast die leak more)",
        mc.delay_leakage_correlation()
    );
    Ok(())
}
