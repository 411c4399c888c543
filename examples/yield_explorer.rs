//! Yield exploration: how the three designs trade clock period against
//! timing yield, and what each yield requirement costs in leakage.
//!
//! ```text
//! cargo run --release --example yield_explorer [benchmark]
//! ```

use statleak::core::flows;
use statleak::core::report::{fmt_power, Table};
use statleak::prelude::*;
use statleak::ssta::Ssta;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let benchmark = std::env::args().nth(1).unwrap_or_else(|| "c880".into());
    let cfg = FlowConfig::builder(&benchmark).mc_samples(0).build()?;
    let session = Engine::global().session(&cfg)?;

    // --- Yield curves of the three designs. ---
    println!("yield vs clock for {benchmark} (T target = 1.20*Dmin, eta = 0.95)\n");
    let grid: Vec<f64> = (0..=12).map(|i| 1.00 + 0.05 * i as f64).collect();
    let rows = session.yield_curves(&grid)?;
    let mut t = Table::new(&["T/Dmin", "baseline", "deterministic", "statistical"]);
    for (k, yb, yd, ys) in rows {
        t.row(&[
            format!("{k:.2}"),
            format!("{yb:.4}"),
            format!("{yd:.4}"),
            format!("{ys:.4}"),
        ]);
    }
    print!("{}", t.render());

    // --- The price of yield: p95 leakage vs yield requirement. ---
    println!("\np95 leakage vs yield requirement (statistical flow):\n");
    let setup = session.setup();
    let mut t = Table::new(&["eta", "p95 leakage", "clock@eta (ps)", "high-Vth gates"]);
    for eta in [0.80, 0.90, 0.95, 0.99] {
        let eta_cfg = cfg.to_builder().eta(eta).build()?;
        let out = match flows::statistical_on(setup, &eta_cfg) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("eta {eta}: {e} (skipped)");
                continue;
            }
        };
        let ssta = Ssta::analyze(&out.design, &setup.fm);
        t.row(&[
            format!("{eta:.2}"),
            fmt_power(out.report.final_objective),
            format!("{:.1}", ssta.clock_for_yield(eta)),
            out.design.high_vth_count().to_string(),
        ]);
    }
    print!("{}", t.render());

    // --- How much clock headroom sizing alone can buy. ---
    println!(
        "\nminimum nominal delay by sizing alone: {:.1} ps (clock target was {:.1} ps)",
        setup.dmin, setup.t_clk
    );
    Ok(())
}
