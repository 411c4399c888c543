//! Toolchain interoperability tour: export the cell library as Liberty,
//! write/read the design as structural Verilog, report the statistically
//! critical gates and the k worst paths, and finish with post-silicon
//! adaptive body bias — the parts of the stack a downstream EDA flow would
//! touch.
//!
//! ```text
//! cargo run --release --example toolchain_interop [benchmark]
//! ```

use statleak::core::flows::{self, FlowConfig, Setup};
use statleak::mc::{AbbConfig, McConfig, MonteCarlo};
use statleak::netlist::verilog;
use statleak::opt::statistical_for_yield;
use statleak::ssta::Ssta;
use statleak::sta::Sta;
use statleak::tech::liberty;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let benchmark = std::env::args().nth(1).unwrap_or_else(|| "c432".into());
    let Setup {
        base, fm, t_clk, ..
    } = flows::prepare(&FlowConfig::builder(benchmark).build()?)?;

    // 1. Liberty view of the dual-Vth library.
    let lib = liberty::export(base.tech(), "statleak100");
    let parsed = liberty::parse_library(&lib)?;
    println!(
        "Liberty export: {} characterized cells ({} bytes); e.g. {}",
        parsed.cells.len(),
        lib.len(),
        parsed
            .cells
            .iter()
            .find(|c| c.name.starts_with("NAND2_X1"))
            .and_then(|c| {
                let cap = c.pins.iter().find_map(|p| p.capacitance)?;
                let arc = c.pins.iter().flat_map(|p| &p.timings).next()?;
                Some(format!(
                    "{}: {:.1} fF in-cap, {:.2} nW leak, {:.1} ps + {:.2} ps/fF",
                    c.name, cap, c.cell_leakage_power?, arc.intrinsic_rise?, arc.rise_resistance?
                ))
            })
            .unwrap_or_default()
    );

    // 2. Optimize, then hand the netlist to "another tool" via Verilog.
    let out = statistical_for_yield(&base, &fm, t_clk, 0.95)?;
    let v = verilog::write(out.design.circuit());
    let reparsed = verilog::parse(&v)?;
    println!(
        "Verilog round trip: {} bytes, {} gates in, {} gates out",
        v.len(),
        out.design.circuit().num_gates(),
        reparsed.num_gates()
    );

    // 3. Statistical criticality report: the gates most likely to sit on a
    // violating path at the target clock.
    let ssta = Ssta::analyze(&out.design, &fm);
    let crit = ssta.criticalities(&out.design, &fm, t_clk);
    let mut ranked: Vec<_> = out
        .design
        .circuit()
        .gates()
        .map(|g| (g, crit[g.index()]))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop statistically critical gates at {t_clk:.1} ps:");
    for (g, c) in ranked.iter().take(5) {
        let node = out.design.circuit().node(*g);
        println!(
            "  {:8} {:5} size {:>4} vth {}  criticality {:.4}",
            node.name,
            node.kind.to_string(),
            out.design.size(*g),
            out.design.vth(*g),
            c
        );
    }

    // 4. The five worst nominal paths.
    let sta = Sta::analyze(&out.design);
    println!("\nworst nominal paths:");
    for p in sta.top_paths(&out.design, 5) {
        let names: Vec<&str> = p
            .nodes
            .iter()
            .map(|&u| out.design.circuit().name_of(u))
            .collect();
        println!("  {:8.1} ps  {}", p.delay, names.join(" -> "));
    }

    // 5. Post-silicon adaptive body bias at a stressed clock.
    let t_stress = ssta.clock_for_yield(0.85);
    let abb = MonteCarlo::new(McConfig {
        samples: 1000,
        ..Default::default()
    })
    .run_abb(&out.design, &fm, &AbbConfig::standard(t_stress));
    println!(
        "\nABB at {:.1} ps: yield {:.3} -> {:.3}, mean leakage {:.3} uW -> {:.3} uW",
        t_stress,
        abb.yield_without_abb(),
        abb.yield_with_abb(),
        abb.leakage_summary_unbiased().mean * out.design.tech().vdd * 1e6,
        abb.leakage_summary().mean * out.design.tech().vdd * 1e6,
    );
    Ok(())
}
