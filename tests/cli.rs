//! End-to-end tests of the `statleak` command-line binary.

use std::process::Command;

fn statleak(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_statleak"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn no_args_prints_usage() {
    let out = statleak(&[]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("statleak <command>"));
}

#[test]
fn benchmarks_lists_suite() {
    let out = statleak(&["benchmarks"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("c17"));
    assert!(text.contains("c7552"));
}

#[test]
fn analyze_builtin_benchmark() {
    let out = statleak(&["analyze", "--input", "c17"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("nominal delay"));
    assert!(text.contains("leakage power"));
    assert!(text.contains("yield"));
}

#[test]
fn optimize_writes_netlists() {
    let dir = std::env::temp_dir().join("statleak_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let v_path = dir.join("out.v");
    let b_path = dir.join("out.bench");
    let out = statleak(&[
        "optimize",
        "--input",
        "c17",
        "--slack-factor",
        "1.3",
        "--out-verilog",
        v_path.to_str().unwrap(),
        "--out-bench",
        b_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Both outputs parse back to the same structure.
    let v = std::fs::read_to_string(&v_path).unwrap();
    let b = std::fs::read_to_string(&b_path).unwrap();
    let cv = statleak::netlist::verilog::parse(&v).unwrap();
    let cb = statleak::netlist::bench::parse("c17", &b).unwrap();
    assert_eq!(cv.stats(), cb.stats());
    assert_eq!(cv.num_gates(), 6);
}

#[test]
fn analyze_accepts_bench_file() {
    let dir = std::env::temp_dir().join("statleak_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.bench");
    std::fs::write(&path, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n").unwrap();
    let out = statleak(&["analyze", "--input", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 gates"));
}

#[test]
fn export_lib_emits_liberty() {
    let out = statleak(&["export-lib"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("library (statleak100)"));
    assert!(text.contains("cell (INV_X1_LVT)"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = statleak(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_input_reports_error() {
    let out = statleak(&["analyze"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));
}

#[test]
fn unknown_flag_is_rejected_with_usage_exit_code() {
    // The `--clok-ps` typo case: a misspelled flag must fail loudly, not be
    // silently ignored.
    let out = statleak(&["analyze", "--input", "c17", "--clok-ps", "800"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--clok-ps"), "{err}");
    assert!(err.contains("usage error"), "{err}");
}

#[test]
fn flag_missing_value_is_rejected() {
    let out = statleak(&["analyze", "--input"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("requires a value"), "{err}");
}

#[test]
fn duplicate_flag_is_rejected() {
    let out = statleak(&["analyze", "--input", "c17", "--input", "c432"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--input"), "{err}");
}

#[test]
fn invalid_flag_value_fails_before_analysis() {
    let out = statleak(&["analyze", "--input", "c17", "--clock-ps", "fast"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid value"), "{err}");
    // Fail-fast: the bad value must be rejected before any analysis output.
    assert!(!String::from_utf8_lossy(&out.stdout).contains("nominal delay"));
}

#[test]
fn missing_file_exits_with_io_code() {
    let out = statleak(&["analyze", "--input", "/nonexistent/nope.bench"]);
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("io error"), "{err}");
    assert!(err.contains("nope.bench"), "{err}");
}

#[test]
fn unknown_extension_exits_with_parse_code() {
    let dir = std::env::temp_dir().join("statleak_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("netlist.xyz");
    std::fs::write(&path, "not a netlist").unwrap();
    let out = statleak(&["analyze", "--input", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("neither a built-in benchmark"), "{err}");
}

#[test]
fn extension_dispatch_is_case_insensitive() {
    let dir = std::env::temp_dir().join("statleak_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("upper.BENCH");
    std::fs::write(&path, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n").unwrap();
    let out = statleak(&["analyze", "--input", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn malformed_bench_file_exits_with_parse_code() {
    let dir = std::env::temp_dir().join("statleak_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.bench");
    std::fs::write(&path, "INPUT(a)\ny = FROB(a)\n").unwrap();
    let out = statleak(&["analyze", "--input", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("parse error"), "{err}");
}

#[test]
fn out_of_range_option_is_a_usage_error() {
    let cases: [(&[&str], &str); 3] = [
        (&["optimize", "--input", "c17", "--eta", "1.5"], "--eta"),
        (
            &["optimize", "--input", "c17", "--slack-factor", "0.5"],
            "--slack-factor",
        ),
        (&["trace", "c17", "--eta", "1.5"], "--eta"),
    ];
    for (args, flag) in cases {
        let out = statleak(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{args:?}: {err}");
    }
}

#[test]
fn input_resolves_sequential_benchmark_names() {
    for args in [
        &["analyze", "--input", "s27"][..],
        &["optimize", "--input", "s27", "--mc-samples", "0"],
    ] {
        let out = statleak(args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// `optimize` prepares through the same flows constructor as serve and
/// `repro`; its stdout is pinned byte for byte so the two cannot drift.
#[test]
fn optimize_stdout_matches_golden() {
    let out = statleak(&["optimize", "--input", "c432", "--mc-samples", "200"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = include_str!("golden/optimize-c432-mc200.txt");
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden);
}

#[test]
fn help_flag_succeeds_anywhere() {
    let out = statleak(&["analyze", "--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("statleak <command>"));
}

/// A reader that goes away before the output arrives (`statleak … | head`),
/// on stdout or on stderr, ends the command quietly with exit 0, never
/// with a panic.
#[test]
fn closed_stdout_exits_quietly() {
    // (arguments, whether the closed pipe is stderr rather than stdout)
    let cases: [(&[&str], bool); 3] = [
        (&["benchmarks"], false),
        (&["analyze", "--input", "c432"], false),
        (&["optimize", "--input", "c17", "--mc-samples", "0"], true),
    ];
    for (args, on_stderr) in cases {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_statleak"));
        cmd.args(args);
        if on_stderr {
            cmd.stderr(writer);
        } else {
            cmd.stdout(writer);
        }
        let out = cmd.output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {} {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
