//! Criterion benches for the extension features: criticality, path
//! enumeration, slew-aware STA, joint yield, adaptive body bias, and
//! library export.

use criterion::{criterion_group, criterion_main, Criterion};
use statleak_bench::standard_setup;
use statleak_core::joint::JointYield;
use statleak_mc::{AbbConfig, McConfig, MonteCarlo};
use statleak_ssta::Ssta;
use statleak_sta::{SlewSta, Sta};
use statleak_tech::{liberty, Technology};

fn bench_criticality(c: &mut Criterion) {
    let mut group = c.benchmark_group("criticality");
    let (design, fm) = standard_setup("c880");
    let ssta = Ssta::analyze(&design, &fm);
    let t = ssta.circuit_delay().mean;
    group.bench_function("path_through/c880", |b| {
        b.iter(|| std::hint::black_box(ssta.path_through(&design, &fm)))
    });
    group.bench_function("criticalities/c880", |b| {
        b.iter(|| std::hint::black_box(ssta.criticalities(&design, &fm, t)))
    });
    group.finish();
}

fn bench_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("paths");
    let (design, _) = standard_setup("c1908");
    let sta = Sta::analyze(&design);
    for k in [1usize, 10, 100] {
        group.bench_function(format!("top_{k}/c1908"), |b| {
            b.iter(|| std::hint::black_box(sta.top_paths(&design, k)))
        });
    }
    group.finish();
}

fn bench_slew_sta(c: &mut Criterion) {
    let mut group = c.benchmark_group("slew_sta");
    for name in ["c432", "c3540"] {
        let (design, _) = standard_setup(name);
        group.bench_function(format!("full/{name}"), |b| {
            b.iter(|| std::hint::black_box(SlewSta::analyze(&design)))
        });
    }
    group.finish();
}

fn bench_joint_yield(c: &mut Criterion) {
    let mut group = c.benchmark_group("joint_yield");
    let (design, fm) = standard_setup("c880");
    group.bench_function("analyze/c880", |b| {
        b.iter(|| std::hint::black_box(JointYield::analyze(&design, &fm)))
    });
    let j = JointYield::analyze(&design, &fm);
    group.bench_function("query", |b| {
        b.iter(|| std::hint::black_box(j.joint_yield(1000.0, 1e-5)))
    });
    group.finish();
}

fn bench_abb(c: &mut Criterion) {
    let mut group = c.benchmark_group("abb");
    group.sample_size(10);
    let (design, fm) = standard_setup("c432");
    let ssta = Ssta::analyze(&design, &fm);
    let t = ssta.clock_for_yield(0.9);
    group.bench_function("c432/100_samples", |b| {
        b.iter(|| {
            std::hint::black_box(
                MonteCarlo::new(McConfig {
                    samples: 100,
                    seed: 2,
                    threads: 0,
                    ..Default::default()
                })
                .run_abb(&design, &fm, &AbbConfig::standard(t)),
            )
        })
    });
    group.finish();
}

fn bench_liberty(c: &mut Criterion) {
    let mut group = c.benchmark_group("liberty");
    let tech = Technology::ptm100();
    group.bench_function("export", |b| {
        b.iter(|| std::hint::black_box(liberty::export(&tech, "lib")))
    });
    let text = liberty::export(&tech, "lib");
    group.bench_function("parse", |b| {
        b.iter(|| std::hint::black_box(liberty::parse_library(&text).expect("round trip")))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_criticality,
    bench_paths,
    bench_slew_sta,
    bench_joint_yield,
    bench_abb,
    bench_liberty
);
criterion_main!(benches);
