//! End-to-end tests of the `repro` harness's run directory: SIGKILL a run
//! mid-suite, re-invoke it, and require the resumed run to produce CSVs
//! byte-identical to an uninterrupted run; `--no-checkpoint` stores
//! nothing; an unwritable output directory exits with the I/O code.

use statleak_engine::Store;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("statleak_resume_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Counts completed checkpoint cells: the Store entries under
/// `<out>/.checkpoint/*/`.
fn cell_count(out: &Path) -> usize {
    let Ok(stores) = fs::read_dir(out.join(".checkpoint")) else {
        return 0;
    };
    stores
        .flatten()
        .filter_map(|dir| Store::open(dir.path()).ok())
        .map(|store| store.len())
        .sum()
}

/// T4 on the quick suite: multi-cell, deterministic output, and — unlike
/// T2 — no wall-clock runtime columns, so byte-identity is meaningful.
const EXPERIMENT: &str = "t4";
const CSV: &str = "t4_mc_validation.csv";

#[test]
fn sigkill_mid_run_then_resume_reproduces_identical_csv() {
    // Reference: one uninterrupted run.
    let ref_out = tmp_dir("ref");
    let status = repro()
        .args(["--quick", "--out", ref_out.to_str().unwrap(), EXPERIMENT])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    let reference = fs::read(ref_out.join(CSV)).unwrap();

    // Interrupted: start the same run, wait for the first checkpointed
    // cell, then SIGKILL the process (Child::kill is SIGKILL on Unix).
    let kill_out = tmp_dir("kill");
    let mut child = repro()
        .args(["--quick", "--out", kill_out.to_str().unwrap(), EXPERIMENT])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    while cell_count(&kill_out) == 0 {
        assert!(
            child.try_wait().unwrap().is_none(),
            "run finished before a cell was stored; kill earlier"
        );
        assert!(Instant::now() < deadline, "no checkpoint cell appeared");
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().unwrap();
    let _ = child.wait();
    assert!(
        !kill_out.join(CSV).exists(),
        "run was killed after the CSV was already written; kill earlier"
    );

    // Resume: the same invocation must pick up the stored cells, finish,
    // and write byte-identical output.
    let out = repro()
        .args(["--quick", "--out", kill_out.to_str().unwrap(), EXPERIMENT])
        .stdout(Stdio::null())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("restored from checkpoint"),
        "resume did not reuse the checkpoint:\n{stderr}"
    );
    let resumed = fs::read(kill_out.join(CSV)).unwrap();
    assert_eq!(
        reference, resumed,
        "resumed CSV differs from uninterrupted run"
    );

    // A completed run clears its cells: nothing left to replay.
    assert_eq!(cell_count(&kill_out), 0);

    let _ = fs::remove_dir_all(&ref_out);
    let _ = fs::remove_dir_all(&kill_out);
}

#[test]
fn no_checkpoint_flag_disables_the_manifest() {
    let out_dir = tmp_dir("nockpt");
    let status = repro()
        .args([
            "--quick",
            "--no-checkpoint",
            "--out",
            out_dir.to_str().unwrap(),
            "t1",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    assert!(!out_dir.join(".checkpoint").exists());
    assert!(out_dir.join("t1_benchmarks.csv").exists());
    let _ = fs::remove_dir_all(&out_dir);
}

#[test]
fn unwritable_output_exits_with_the_io_code() {
    let dir = tmp_dir("unwritable");
    let file = dir.join("file");
    fs::write(&file, "not a directory").unwrap();
    let out = repro()
        .args(["--quick", "--out", file.join("sub").to_str().unwrap(), "t1"])
        .stdout(Stdio::null())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("could not write"), "{stderr}");
    let _ = fs::remove_dir_all(&dir);
}
