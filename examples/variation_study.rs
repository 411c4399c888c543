//! Variation study: how the statistical optimizer's advantage scales with
//! the process-variation magnitude, and which modeling ingredients matter
//! (the paper's motivation section in executable form).
//!
//! ```text
//! cargo run --release --example variation_study [benchmark]
//! ```

use statleak::core::flows;
use statleak::core::report::{fmt_pct, Table};
use statleak::leakage::LeakageAnalysis;
use statleak::mc::{McConfig, MonteCarlo};
use statleak::netlist::placement::Placement;
use statleak::prelude::*;
use statleak::tech::FactorModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let benchmark = std::env::args().nth(1).unwrap_or_else(|| "c499".into());
    let cfg = FlowConfig::builder(&benchmark).mc_samples(0).build()?;
    let session = Engine::global().session(&cfg)?;

    // --- Advantage vs sigma(L). ---
    println!("statistical advantage vs variation magnitude on {benchmark}\n");
    let sigmas = [0.025, 0.05, 0.0667, 0.10];
    let pts = session.sweep(&SweepSpec::SigmaL(sigmas.to_vec()))?;
    let mut t = Table::new(&["sigma_L/L", "det p95 (uW)", "stat p95 (uW)", "extra saving"]);
    for p in &pts {
        t.row(&[
            format!("{:.1}%", p.x * 100.0),
            format!("{:.2}", p.det_p95 * 1e6),
            format!("{:.2}", p.stat_p95 * 1e6),
            fmt_pct(p.extra_saving),
        ]);
    }
    print!("{}", t.render());

    // --- Ablations: what each modeling ingredient contributes. ---
    println!("\nmodeling ablations (sized baseline design):\n");
    let rows = session.ablation()?;
    let mut t = Table::new(&["variant", "delay sigma (ps)", "leak p95 (uW)", "leak cv"]);
    for r in rows {
        t.row(&[
            r.variant,
            format!("{:.2}", r.delay_sigma),
            format!("{:.2}", r.leak_p95 * 1e6),
            format!("{:.3}", r.leak_cv),
        ]);
    }
    print!("{}", t.render());

    // --- The fast-die-leak-more correlation, measured from Monte Carlo. ---
    let setup = session.setup();
    let design = flows::baseline_on(setup, &cfg)?;
    let mc = MonteCarlo::new(McConfig {
        samples: 2000,
        ..Default::default()
    })
    .run(&design, &setup.fm);
    println!(
        "\ndelay-leakage correlation across sampled chips: {:.2}",
        mc.delay_leakage_correlation()
    );

    // --- And what ignoring spatial correlation would claim. ---
    let placement = Placement::by_level(&setup.circuit);
    let fm_nospatial = FactorModel::build(
        &setup.circuit,
        &placement,
        design.tech(),
        &cfg.variation.without_spatial_correlation(),
    )?;
    let full = LeakageAnalysis::analyze(&design, &setup.fm).total_power(&design);
    let nospatial = LeakageAnalysis::analyze(&design, &fm_nospatial).total_power(&design);
    println!(
        "p95 leakage with full correlation: {:.2} uW; assuming independence: {:.2} uW\n\
         (an independence assumption underestimates the leakage tail by {})",
        full.quantile(0.95) * 1e6,
        nospatial.quantile(0.95) * 1e6,
        fmt_pct(1.0 - nospatial.quantile(0.95) / full.quantile(0.95)),
    );
    Ok(())
}
