//! `bss` rejects flags its subcommands do not list: a misspelled budget flag
//! or a removed flag is an error, not a silently ignored argument.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A 50-job instance written to a fresh directory under the system temp dir.
fn tiny_instance(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("bss-cli-flags-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("tiny.json");
    let inst = batch_setup_scheduling::gen::uniform(50, 5, 4, 1);
    std::fs::write(&path, inst.to_json()).expect("write instance");
    (dir, path)
}

fn bss(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bss"))
        .args(args)
        .output()
        .expect("run bss")
}

#[test]
fn unknown_and_removed_flags_fail_and_are_named() {
    let (dir, path) = tiny_instance("unknown");
    let path = path.to_str().expect("utf-8 path");
    for bad in ["--no-such-flag", "--deadlne-ms", "--threads"] {
        let out = bss(&["solve", path, bad, "5"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bad}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{bad}` for `bss solve`")),
            "{bad}: {stderr}"
        );
        assert!(stderr.contains("USAGE:"), "{bad}: usage not printed");
        assert!(out.stdout.is_empty(), "{bad}: the solve ran");
    }
    // A value flag without its value is an error too.
    let out = bss(&["solve", path, "--deadline-ms"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("`--deadline-ms` of `bss solve` needs a value"),
        "{stderr}"
    );
    // Other subcommands check their own lists: `--render` belongs to `solve`.
    let out = bss(&["bounds", path, "--render"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("unknown flag `--render` for `bss bounds`"),
        "{stderr}"
    );
    std::fs::remove_dir_all(dir).expect("remove temp dir");
}

#[test]
fn solve_accepts_every_flag_on_its_usage_line() {
    let (dir, path) = tiny_instance("every");
    let sched = dir.join("sched.json");
    let out = bss(&[
        "solve",
        path.to_str().expect("utf-8 path"),
        "--variant",
        "preemptive",
        "--algorithm",
        "three-halves",
        "--render",
        "--schedule-out",
        sched.to_str().expect("utf-8 path"),
        "--deadline-ms",
        "60000",
        "--budget",
        "1000",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("makespan"), "{stdout}");
    assert!(sched.exists(), "--schedule-out wrote no file");
    std::fs::remove_dir_all(dir).expect("remove temp dir");
}
