//! The one small argument parser every `repro-*` binary shares.
//!
//! Replaces the binaries' historical ad-hoc positional parsing (which
//! panicked on bad input) with validated flags and error messages, matching
//! the workspace's "no panics at the surface" policy:
//!
//! ```text
//! repro-<study> [--grid fast|full] [--threads N] [--no-timing] [--out DIR]
//! ```
//!
//! `BSS_REPRO_GRID` provides the grid default (`full` when unset); `--grid`
//! overrides it. Deterministic artifacts go to `<out>/<study>/`, timings to
//! the same directory under `timing*` names; the default `--out` is the
//! gitignored `target/repro/` (the committed goldens under
//! `results/figures/` are written only by `repro-all` and the
//! `BSS_BLESS=1` test path).

use std::path::PathBuf;
use std::process::ExitCode;

use super::{run_all, studies, Grid, ReproConfig, Study};

/// Parsed command line of a repro binary.
#[derive(Debug, Clone)]
pub struct ReproArgs {
    /// Study configuration (grid, threads, timing).
    pub cfg: ReproConfig,
    /// Output root; study artifacts land in `<out>/<study>/`.
    pub out: PathBuf,
    /// Whether `--out` was given explicitly. An explicit root is
    /// self-contained: `repro-all` keeps timings under it too, instead of
    /// the default split (goldens to `results/figures/`, timings to
    /// `target/repro/`).
    pub explicit_out: bool,
}

/// Outcome of parsing: run, or print help.
#[derive(Debug, Clone)]
pub enum Invocation {
    /// `--help`/`-h` was given.
    Help,
    /// Run with the parsed arguments.
    Run(ReproArgs),
}

/// Default output root of the single-study binaries.
pub const DEFAULT_OUT: &str = "target/repro";

/// Usage text for a repro binary (`what` names the binary's scope).
#[must_use]
pub fn usage(what: &str) -> String {
    let list = studies()
        .iter()
        .map(|s| format!("  {:<8} {}", s.name, s.summary))
        .collect::<Vec<_>>()
        .join("\n");
    format!(
        "{what} — regenerates paper-reproduction artifacts\n\n\
         USAGE:\n  {what} [--grid fast|full] [--threads N] [--no-timing] [--out DIR]\n\
         \x20            [--deadline-ms MS] [--budget CELLS]\n\n\
         OPTIONS:\n\
         \x20 --grid fast|full  sweep budget (default: $BSS_REPRO_GRID, else full;\n\
         \x20                   fast is a cheap row-subset of the full grid)\n\
         \x20 --threads N       worker threads for the sweeps (default: all cores)\n\
         \x20 --no-timing       skip wall-time measurement (deterministic part only)\n\
         \x20 --out DIR         output root (default: {DEFAULT_OUT}; repro-all\n\
         \x20                   defaults to results/figures for the committed goldens)\n\
         \x20 --deadline-ms MS  per-sweep wall-clock deadline; skipped cells are\n\
         \x20                   dropped from the artifact with a warning\n\
         \x20 --budget CELLS    per-sweep cell budget (deterministic truncation)\n\n\
         STUDIES:\n{list}"
    )
}

/// Parses a repro binary's arguments.
///
/// # Errors
/// A human-readable message for unknown flags, missing or non-numeric
/// values, or a bad grid name — callers print it and exit nonzero instead
/// of panicking.
pub fn parse(args: &[String], default_out: &str) -> Result<Invocation, String> {
    let mut cfg = ReproConfig::from_env(Grid::Full)?;
    let mut out: PathBuf = PathBuf::from(default_out);
    let mut explicit_out = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(Invocation::Help),
            "--grid" => {
                let v = it.next().ok_or("--grid needs a value (fast|full)")?;
                cfg.grid = Grid::parse(v)?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("bad --threads value `{v}`"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                cfg.threads = Some(n);
            }
            "--no-timing" => cfg.timing = false,
            "--deadline-ms" => {
                let v = it
                    .next()
                    .ok_or("--deadline-ms needs a value (milliseconds)")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --deadline-ms value `{v}`"))?;
                cfg.deadline_ms = Some(ms);
            }
            "--budget" => {
                let v = it.next().ok_or("--budget needs a value (sweep cells)")?;
                let cells: u64 = v.parse().map_err(|_| format!("bad --budget value `{v}`"))?;
                cfg.work_budget = Some(cells);
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                out = PathBuf::from(v);
                explicit_out = true;
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if !explicit_out && default_out != DEFAULT_OUT && cfg.grid == Grid::Fast {
        // `repro-all` on the fast grid must not overwrite the committed
        // full-grid goldens with subset files; divert to the scratch root.
        out = PathBuf::from(DEFAULT_OUT).join("figures-fast");
    }
    Ok(Invocation::Run(ReproArgs {
        cfg,
        out,
        explicit_out,
    }))
}

/// Shared `main` of the six single-study binaries: parse, run the named
/// study, write its artifact under `--out`, print the deterministic tables.
#[must_use]
pub fn study_main(name: &str) -> ExitCode {
    let study = super::study(name).expect("binaries name registered studies");
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args, DEFAULT_OUT) {
        Ok(Invocation::Help) => {
            println!("{}", usage(&format!("repro-{name}")));
            ExitCode::SUCCESS
        }
        Ok(Invocation::Run(run)) => match run_one(study, &run) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", usage(&format!("repro-{name}")));
            ExitCode::FAILURE
        }
    }
}

fn run_one(study: Study, run: &ReproArgs) -> Result<(), String> {
    let artifact = (study.run)(&run.cfg);
    let err = |e: std::io::Error| format!("writing {}: {e}", run.out.display());
    let mut written =
        super::write_timing(&run.out, std::slice::from_ref(&artifact)).map_err(err)?;
    // Single-study runs write the deterministic files next to the timings
    // (no manifest — that is `repro-all`'s job).
    let dir = run.out.join(artifact.study);
    std::fs::create_dir_all(&dir).map_err(err)?;
    for file in &artifact.deterministic {
        let path = dir.join(&file.name);
        std::fs::write(&path, &file.contents).map_err(err)?;
        written.push(path);
    }
    println!("# {} — {}", study.name, study.summary);
    println!("# grid: {}", run.cfg.grid.name());
    for file in &artifact.deterministic {
        if file.name.ends_with(".txt") {
            println!();
            print!("{}", file.contents);
        }
    }
    println!();
    for path in written {
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// `main` of `repro-all`: regenerate every study, the committed artifact
/// tree and the MANIFEST.
#[must_use]
pub fn all_main(default_out: &str) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args, default_out) {
        Ok(Invocation::Help) => {
            println!("{}", usage("repro-all"));
            ExitCode::SUCCESS
        }
        Ok(Invocation::Run(run)) => {
            let artifacts = run_all(&run.cfg);
            let manifest = super::render_manifest(&super::manifest(&run.cfg, &artifacts));
            let det = super::write_deterministic(&run.out, &artifacts, &manifest)
                .map_err(|e| format!("writing {}: {e}", run.out.display()));
            // An explicit --out is a self-contained snapshot (timings
            // included); the default run splits committed goldens from the
            // scratch timing tree.
            let timing_root = if run.explicit_out {
                run.out.clone()
            } else {
                PathBuf::from(DEFAULT_OUT)
            };
            let timing = super::write_timing(&timing_root, &artifacts)
                .map_err(|e| format!("writing {}: {e}", timing_root.display()));
            match (det, timing) {
                (Ok(det), Ok(timing)) => {
                    println!(
                        "# repro-all: {} studies on the {} grid",
                        artifacts.len(),
                        run.cfg.grid.name()
                    );
                    for path in det.iter().chain(&timing) {
                        println!("wrote {}", path.display());
                    }
                    println!(
                        "# deterministic artifacts: {} files under {}; timings under {}",
                        det.len(),
                        run.out.display(),
                        timing_root.display()
                    );
                    ExitCode::SUCCESS
                }
                (Err(msg), _) | (_, Err(msg)) => {
                    eprintln!("error: {msg}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", usage("repro-all"));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn defaults_and_flags_parse() {
        let Invocation::Run(run) = parse(&args(&[]), DEFAULT_OUT).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(run.out, PathBuf::from(DEFAULT_OUT));
        assert!(run.cfg.timing);

        let Invocation::Run(run) = parse(
            &args(&[
                "--grid",
                "fast",
                "--threads",
                "3",
                "--no-timing",
                "--out",
                "x",
                "--deadline-ms",
                "1500",
                "--budget",
                "40",
            ]),
            DEFAULT_OUT,
        )
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(run.cfg.grid, Grid::Fast);
        assert_eq!(run.cfg.threads, Some(3));
        assert!(!run.cfg.timing);
        assert_eq!(run.out, PathBuf::from("x"));
        assert_eq!(run.cfg.deadline_ms, Some(1500));
        assert_eq!(run.cfg.work_budget, Some(40));
    }

    #[test]
    fn errors_are_messages_not_panics() {
        for bad in [
            vec!["--grid"],
            vec!["--grid", "medium"],
            vec!["--threads", "zero"],
            vec!["--threads", "0"],
            vec!["--deadline-ms"],
            vec!["--deadline-ms", "soon"],
            vec!["--budget", "-3"],
            vec!["--out"],
            vec!["--frobnicate"],
            vec!["17"], // the historical positional n is gone
        ] {
            let msg = parse(&args(&bad), DEFAULT_OUT).unwrap_err();
            assert!(!msg.is_empty(), "{bad:?}");
        }
    }

    #[test]
    fn help_flag_wins() {
        assert!(matches!(
            parse(&args(&["--help"]), DEFAULT_OUT).unwrap(),
            Invocation::Help
        ));
        assert!(matches!(
            parse(&args(&["-h"]), DEFAULT_OUT).unwrap(),
            Invocation::Help
        ));
    }

    #[test]
    fn repro_all_fast_grid_diverts_from_the_goldens() {
        let Invocation::Run(run) = parse(&args(&["--grid", "fast"]), "results/figures").unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(run.out, PathBuf::from(DEFAULT_OUT).join("figures-fast"));
        // An explicit --out is always honoured.
        let Invocation::Run(run) = parse(
            &args(&["--grid", "fast", "--out", "elsewhere"]),
            "results/figures",
        )
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(run.out, PathBuf::from("elsewhere"));
    }

    #[test]
    fn usage_names_every_study() {
        let text = usage("repro-all");
        for s in studies() {
            assert!(text.contains(s.name), "{}", s.name);
        }
    }
}
