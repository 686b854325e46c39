//! The golden repro pipeline: the paper's figures and tables as a
//! regression suite.
//!
//! Each of the eight studies behind the historical `repro-*` binaries is a
//! pure, seeded function [`Study::run`] returning an [`Artifact`]. An
//! artifact splits its output into
//!
//! * a **deterministic** part — instance parameters, achieved ratios versus
//!   proven bounds, probe counts, rendered figures — which is committed under
//!   `results/figures/` and byte-diffed against those goldens by
//!   `tests/golden_repro.rs` (re-bless with
//!   `BSS_BLESS=1 BSS_REPRO_GRID=full`), and
//! * a **timing** part — wall times and scaling fits — which is machine-
//!   dependent and therefore written to the gitignored `target/repro/` only.
//!
//! The split is what makes the reproduction diffable: the deterministic
//! values depend only on the instance seeds and the algorithms, never on the
//! host, the thread count, or the build profile (`f64` arithmetic is IEEE
//! and every reduction runs in a fixed order).
//!
//! Two grids exist ([`Grid`]): `Full` is the committed golden grid, `Fast` a
//! strict row-subset of it (same instance sizes, fewer sweep points and
//! seeds) cheap enough for a debug-mode test run. Because fast rows are
//! computed cell-by-cell exactly as full rows are, the fast grid checks each
//! regenerated CSV row against the committed golden file even though the
//! files as a whole differ — see [`compare_file`].
//!
//! The `repro-all` binary regenerates everything (deterministic part into
//! `results/figures/`, timings into `target/repro/`) plus a
//! [`manifest`] recording grids, seeds and instance-family parameters per
//! study.

pub mod cli;
mod epsilon;
mod figures;
mod jumping;
mod online;
mod optgap;
mod ratios;
mod scaling;
mod table1;

use std::io;
use std::path::{Path, PathBuf};

use bss_json::{ToJson, Value};
use bss_rational::Rational;

pub use table1::bounds_table;

/// The sweep budget: the committed golden grid or its CI subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// A strict row-subset of [`Grid::Full`] (same instance sizes, fewer
    /// sweep points and seeds) — cheap enough for per-push CI.
    Fast,
    /// The committed golden grid; `repro-all`'s default.
    Full,
}

impl Grid {
    /// Stable name (`fast` / `full`), as accepted by `--grid` and
    /// `BSS_REPRO_GRID`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Grid::Fast => "fast",
            Grid::Full => "full",
        }
    }

    /// Parses `fast` / `full`.
    pub fn parse(s: &str) -> Result<Grid, String> {
        match s {
            "fast" => Ok(Grid::Fast),
            "full" => Ok(Grid::Full),
            other => Err(format!("unknown grid `{other}` (expected fast|full)")),
        }
    }
}

/// Configuration for a study run.
#[derive(Debug, Clone, Copy)]
pub struct ReproConfig {
    /// Sweep budget.
    pub grid: Grid,
    /// Worker threads for the parallel sweeps (`None` = available
    /// parallelism). Deterministic output does not depend on this.
    pub threads: Option<usize>,
    /// Whether to measure wall times (the timing part of each artifact);
    /// disabled in the golden tests, where only the deterministic part
    /// matters and timed re-solves would be wasted work.
    pub timing: bool,
    /// Per-sweep wall-clock deadline in milliseconds (`--deadline-ms`).
    /// `None` = unlimited: the default run is bit-identical to the
    /// pre-anytime pipeline. Under a deadline a sweep loses the tail of its
    /// grid (skipped cells are dropped from the artifact, with a warning),
    /// never the rows already computed.
    pub deadline_ms: Option<u64>,
    /// Per-sweep cell budget (`--budget`): at most this many sweep cells are
    /// computed before the rest are skipped. Deterministic, unlike the
    /// deadline. `None` = unlimited.
    pub work_budget: Option<u64>,
}

impl ReproConfig {
    /// The committed golden grid, timings on.
    #[must_use]
    pub fn full() -> Self {
        ReproConfig {
            grid: Grid::Full,
            threads: None,
            timing: true,
            deadline_ms: None,
            work_budget: None,
        }
    }

    /// The CI subset grid, timings off.
    #[must_use]
    pub fn fast() -> Self {
        ReproConfig {
            grid: Grid::Fast,
            threads: None,
            timing: false,
            deadline_ms: None,
            work_budget: None,
        }
    }

    /// Reads `BSS_REPRO_GRID` (falling back to `default_grid` when unset).
    ///
    /// # Errors
    /// When the variable holds anything but `fast` or `full`.
    pub fn from_env(default_grid: Grid) -> Result<Self, String> {
        let grid = match std::env::var("BSS_REPRO_GRID") {
            Ok(v) => Grid::parse(&v).map_err(|e| format!("BSS_REPRO_GRID: {e}"))?,
            Err(_) => default_grid,
        };
        Ok(ReproConfig {
            grid,
            threads: None,
            timing: true,
            deadline_ms: None,
            work_budget: None,
        })
    }

    /// The anytime budget one sweep runs under: unlimited unless
    /// `--deadline-ms` / `--budget` was given (each sweep gets its own
    /// deadline window, measured from the sweep's start).
    #[must_use]
    pub fn sweep_budget(&self) -> bss_budget::SolveBudget {
        let mut budget = bss_budget::SolveBudget::unlimited();
        if let Some(ms) = self.deadline_ms {
            budget = budget.with_deadline(std::time::Duration::from_millis(ms));
        }
        if let Some(cells) = self.work_budget {
            budget = budget.with_work_limit(cells);
        }
        budget
    }
}

/// [`bss_report::parallel_map`] under the config's anytime budget: each
/// finished cell spends one unit of `--budget`, and once the budget trips
/// (deadline or cell count) the remaining cells come back as `None` — a
/// deadline loses the tail of a sweep, never the rows already computed.
/// With neither flag set this is the plain sweep: every cell is `Some` and
/// the artifact is bit-identical to the pre-anytime pipeline.
pub(crate) fn sweep<T, R, F>(cfg: &ReproConfig, label: &str, items: Vec<T>, f: F) -> Vec<Option<R>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let budget = cfg.sweep_budget();
    let n = items.len();
    let (results, interrupt) =
        bss_report::parallel_map_budgeted(items, cfg.threads, &budget, |item| {
            let out = f(item);
            let _ = budget.charge_work(1);
            out
        });
    if let Some(i) = interrupt {
        let kept = results.iter().filter(|r| r.is_some()).count();
        eprintln!("warning: {label}: sweep interrupted ({i}); kept {kept}/{n} cells");
    }
    results
}

/// One output file of a study.
#[derive(Debug, Clone)]
pub struct ArtifactFile {
    /// File name within the study's artifact directory.
    pub name: String,
    /// Full file contents.
    pub contents: String,
    /// Whether the contents depend on the sweep grid. Grid-sensitive CSVs
    /// are row-subset-checked under [`Grid::Fast`]; grid-sensitive text
    /// renderings are only checked under [`Grid::Full`] (their column
    /// alignment depends on the whole row set). Insensitive files are
    /// byte-compared under every grid.
    pub grid_sensitive: bool,
}

impl ArtifactFile {
    fn new(name: &str, contents: String, grid_sensitive: bool) -> Self {
        ArtifactFile {
            name: name.to_string(),
            contents,
            grid_sensitive,
        }
    }
}

/// A study's complete output: committed deterministic files, gitignored
/// timing files, and the parameters the MANIFEST records.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Study name; doubles as the artifact directory name.
    pub study: &'static str,
    /// The committed, golden-diffed part.
    pub deterministic: Vec<ArtifactFile>,
    /// The machine-dependent part (empty when timing is off).
    pub timing: Vec<ArtifactFile>,
    /// Grid parameters, seeds and instance-family specs for the MANIFEST.
    pub params: Value,
}

/// A registered study.
#[derive(Debug, Clone, Copy)]
pub struct Study {
    /// Stable name (binary suffix, artifact directory, manifest key).
    pub name: &'static str,
    /// One-line description, shown by `repro-all` and `--help`.
    pub summary: &'static str,
    /// Regenerates the study's artifact at the given configuration.
    pub run: fn(&ReproConfig) -> Artifact,
}

/// The eight studies, in the order `repro-all` runs and the MANIFEST lists
/// them.
#[must_use]
pub fn studies() -> [Study; 8] {
    [
        Study {
            name: "figures",
            summary: "Figures 1-13 as ASCII Gantt charts of the instrumented algorithms",
            run: figures::run,
        },
        Study {
            name: "table1",
            summary: "Table 1: certified ratios per variant/algorithm/suite, plus proven bounds",
            run: table1::run,
        },
        Study {
            name: "epsilon",
            summary: "Theorem 2: the (3/2+eps) search's probes and ratios over the eps grid",
            run: epsilon::run,
        },
        Study {
            name: "ratios",
            summary: "R1-R4: exact-OPT certification, Monma-Potts comparison, T_min quality",
            run: ratios::run,
        },
        Study {
            name: "optgap",
            summary: "Empirical ratio vs the branch-and-bound OPT, per variant (incl. seqdep)",
            run: optgap::run,
        },
        Study {
            name: "scaling",
            summary: "S1/S5: probe counts and ratios along the n and Delta sweeps",
            run: scaling::run,
        },
        Study {
            name: "jumping",
            summary: "S3/S4: Class Jumping vs the plain eps-search over the class-count sweep",
            run: jumping::run,
        },
        Study {
            name: "online",
            summary: "Competitive ratio of re-solve-on-arrival policies vs exact OPT, with warm-start probe savings",
            run: online::run,
        },
    ]
}

/// Looks a study up by name.
#[must_use]
pub fn study(name: &str) -> Option<Study> {
    studies().into_iter().find(|s| s.name == name)
}

/// Runs every study at `cfg`, in registry order.
#[must_use]
pub fn run_all(cfg: &ReproConfig) -> Vec<Artifact> {
    studies().iter().map(|s| (s.run)(cfg)).collect()
}

/// File name of the committed manifest at the artifact root.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

/// Assembles the MANIFEST document: the grid plus, per study, its parameter
/// block and its committed (deterministic) file list. Timing artifacts are
/// scratch output and deliberately absent — the manifest must not depend on
/// whether timings were measured.
#[must_use]
pub fn manifest(cfg: &ReproConfig, artifacts: &[Artifact]) -> Value {
    let names = |files: &[ArtifactFile]| {
        Value::Array(
            files
                .iter()
                .map(|f| Value::Str(f.name.clone()))
                .collect::<Vec<_>>(),
        )
    };
    let studies = artifacts
        .iter()
        .map(|a| {
            (
                a.study.to_string(),
                Value::Object(vec![
                    ("params".into(), a.params.clone()),
                    ("deterministic".into(), names(&a.deterministic)),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("grid".into(), Value::Str(cfg.grid.name().into())),
        (
            "note".into(),
            Value::Str(
                "regenerate with `cargo run --release -p bss-bench --bin repro-all`; \
                 golden-diffed by tests/golden_repro.rs (re-bless with \
                 BSS_BLESS=1 BSS_REPRO_GRID=full)"
                    .into(),
            ),
        ),
        ("studies".into(), Value::Object(studies)),
    ])
}

/// Renders the manifest with a trailing newline (clean committed diffs).
#[must_use]
pub fn render_manifest(manifest: &Value) -> String {
    let mut text = bss_json::encode_pretty(manifest);
    text.push('\n');
    text
}

/// Writes the deterministic part of every artifact (plus the manifest) under
/// `root`, one subdirectory per study. Returns the written paths.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_deterministic(
    root: &Path,
    artifacts: &[Artifact],
    manifest_text: &str,
) -> io::Result<Vec<PathBuf>> {
    let mut written = Vec::new();
    for artifact in artifacts {
        let dir = root.join(artifact.study);
        std::fs::create_dir_all(&dir)?;
        for file in &artifact.deterministic {
            let path = dir.join(&file.name);
            std::fs::write(&path, &file.contents)?;
            written.push(path);
        }
    }
    let path = root.join(MANIFEST_FILE);
    std::fs::write(&path, manifest_text)?;
    written.push(path);
    Ok(written)
}

/// Writes the timing part of every artifact under `root` (one subdirectory
/// per study). Returns the written paths.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_timing(root: &Path, artifacts: &[Artifact]) -> io::Result<Vec<PathBuf>> {
    let mut written = Vec::new();
    for artifact in artifacts {
        if artifact.timing.is_empty() {
            continue;
        }
        let dir = root.join(artifact.study);
        std::fs::create_dir_all(&dir)?;
        for file in &artifact.timing {
            let path = dir.join(&file.name);
            std::fs::write(&path, &file.contents)?;
            written.push(path);
        }
    }
    Ok(written)
}

/// Compares one regenerated file against its committed golden.
///
/// Under [`Grid::Full`] every file must match byte-for-byte. Under
/// [`Grid::Fast`], grid-insensitive files still must match exactly; a
/// grid-sensitive `.csv` is checked as a row subset (equal header, every
/// regenerated data row present verbatim in the golden); other
/// grid-sensitive files are skipped (alignment depends on the full row set).
///
/// # Errors
/// A human-readable mismatch description.
pub fn compare_file(golden: &str, fresh: &ArtifactFile, grid: Grid) -> Result<(), String> {
    let exact = grid == Grid::Full || !fresh.grid_sensitive;
    if exact {
        if golden == fresh.contents {
            return Ok(());
        }
        let diff_at = golden
            .lines()
            .zip(fresh.contents.lines())
            .position(|(g, f)| g != f)
            .map_or("file lengths differ".to_string(), |k| {
                format!("first differing line {}", k + 1)
            });
        return Err(format!("byte mismatch ({diff_at})"));
    }
    if !fresh.name.ends_with(".csv") {
        return Ok(()); // grid-sensitive rendering: full-grid check only
    }
    let mut golden_lines = golden.lines();
    let mut fresh_lines = fresh.contents.lines();
    let (gh, fh) = (golden_lines.next(), fresh_lines.next());
    if gh != fh {
        return Err(format!("header mismatch: golden {gh:?} vs fresh {fh:?}"));
    }
    let golden_rows: std::collections::HashSet<&str> = golden_lines.collect();
    let mut data_rows = 0usize;
    for row in fresh_lines {
        data_rows += 1;
        if !golden_rows.contains(row) {
            return Err(format!("fast-grid row not in golden: `{row}`"));
        }
    }
    if data_rows == 0 {
        return Err("fast grid produced no data rows".into());
    }
    Ok(())
}

/// Compares an artifact's deterministic files against the goldens under
/// `root`, returning one description per mismatch (missing files included).
#[must_use]
pub fn compare_deterministic(root: &Path, artifact: &Artifact, grid: Grid) -> Vec<String> {
    let mut problems = Vec::new();
    for file in &artifact.deterministic {
        let path = root.join(artifact.study).join(&file.name);
        match std::fs::read_to_string(&path) {
            Ok(golden) => {
                if let Err(e) = compare_file(&golden, file, grid) {
                    problems.push(format!("{}: {e}", path.display()));
                }
            }
            Err(e) => problems.push(format!("{}: cannot read golden: {e}", path.display())),
        }
    }
    problems
}

/// Sweeps the committed golden tree for content the fresh artifacts no
/// longer produce: stale files inside a study directory, or entries at the
/// root that are neither the manifest nor a registered study. A study that
/// silently drops an output must fail the golden suite on *every* grid —
/// the deterministic file **names** are grid-independent even where the
/// contents are not.
#[must_use]
pub fn compare_layout(root: &Path, artifacts: &[Artifact]) -> Vec<String> {
    let mut problems = Vec::new();
    let list = |dir: &Path, problems: &mut Vec<String>| -> Vec<String> {
        match std::fs::read_dir(dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect(),
            Err(e) => {
                problems.push(format!("{}: cannot list goldens: {e}", dir.display()));
                Vec::new()
            }
        }
    };
    for artifact in artifacts {
        let dir = root.join(artifact.study);
        for name in list(&dir, &mut problems) {
            if !artifact.deterministic.iter().any(|f| f.name == name) {
                problems.push(format!(
                    "{}: stale golden (the {} study no longer produces it)",
                    dir.join(&name).display(),
                    artifact.study
                ));
            }
        }
    }
    for name in list(root, &mut problems) {
        if name != MANIFEST_FILE && !artifacts.iter().any(|a| a.study == name) {
            problems.push(format!(
                "{}: not a registered study or the manifest",
                root.join(&name).display()
            ));
        }
    }
    problems
}

/// Fixed-precision rendering of an exact ratio — the one way every study
/// formats `f64`-valued deterministic cells.
#[must_use]
pub fn fmt_ratio(r: Rational) -> String {
    format!("{:.6}", r.to_f64())
}

/// Fixed-precision rendering of an `f64` (already-divided) ratio cell.
#[must_use]
pub fn fmt_f64(x: f64) -> String {
    format!("{x:.6}")
}

/// Millisecond rendering for timing cells.
#[must_use]
pub fn fmt_ms(dt: std::time::Duration) -> String {
    format!("{:.3}", dt.as_secs_f64() * 1e3)
}

/// `Value::Int` from a `usize` (manifest helper).
#[must_use]
pub fn int(v: usize) -> Value {
    Value::Int(v as i128)
}

/// `Value::Array` of integers (manifest helper for seed and grid lists).
#[must_use]
pub fn int_list<I: IntoIterator<Item = u64>>(vs: I) -> Value {
    Value::Array(vs.into_iter().map(|v| Value::Int(v.into())).collect())
}

/// The JSON tree of a typed value (manifest helper for family specs): its
/// encoded text, parsed back.
#[must_use]
pub fn tree<T: ToJson>(value: &T) -> Value {
    bss_json::parse(&bss_json::encode(value)).expect("encoded JSON parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(name: &str, contents: &str, grid_sensitive: bool) -> ArtifactFile {
        ArtifactFile::new(name, contents.to_string(), grid_sensitive)
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names: Vec<&str> = studies().iter().map(|s| s.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for name in names {
            assert!(study(name).is_some());
        }
        assert!(study("no-such-study").is_none());
    }

    #[test]
    fn full_grid_compares_bytes() {
        let f = file("a.csv", "h\nr1\n", true);
        assert!(compare_file("h\nr1\n", &f, Grid::Full).is_ok());
        assert!(compare_file("h\nr2\n", &f, Grid::Full).is_err());
    }

    #[test]
    fn fast_grid_subsets_csvs_and_skips_sensitive_text() {
        let f = file("a.csv", "h\nr1\n", true);
        // r1 is a subset of {r1, r2}.
        assert!(compare_file("h\nr1\nr2\n", &f, Grid::Fast).is_ok());
        // Header mismatch and foreign rows are reported.
        assert!(compare_file("H\nr1\n", &f, Grid::Fast).is_err());
        assert!(compare_file("h\nr2\n", &f, Grid::Fast).is_err());
        // Empty fast output is an error, not a vacuous pass.
        let empty = file("a.csv", "h\n", true);
        assert!(compare_file("h\nr1\n", &empty, Grid::Fast).is_err());
        // Grid-sensitive text is only checked on the full grid.
        let txt = file("a.txt", "anything", true);
        assert!(compare_file("other", &txt, Grid::Fast).is_ok());
        assert!(compare_file("other", &txt, Grid::Full).is_err());
        // Grid-insensitive files are byte-compared even on the fast grid.
        let fig = file("fig.txt", "body", false);
        assert!(compare_file("body", &fig, Grid::Fast).is_ok());
        assert!(compare_file("off", &fig, Grid::Fast).is_err());
    }

    #[test]
    fn manifest_lists_every_study_once() {
        let cfg = ReproConfig {
            grid: Grid::Fast,
            threads: Some(1),
            timing: false,
            deadline_ms: None,
            work_budget: None,
        };
        let artifacts = vec![Artifact {
            study: "demo",
            deterministic: vec![file("d.csv", "h\n", true)],
            timing: vec![],
            params: Value::Object(vec![("n".into(), int(4))]),
        }];
        let m = manifest(&cfg, &artifacts);
        assert_eq!(
            m.field("grid").and_then(Value::as_str),
            Some(Grid::Fast.name())
        );
        let demo = m.field("studies").and_then(|s| s.field("demo")).unwrap();
        assert_eq!(
            demo.field("deterministic")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(1)
        );
        // Round-trips through the parser (the committed file is re-readable).
        let text = render_manifest(&m);
        assert_eq!(bss_json::parse(&text).unwrap(), m);
    }

    #[test]
    fn layout_sweep_reports_stale_and_foreign_entries() {
        let root = std::env::temp_dir().join(format!(
            "bss-repro-layout-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("demo")).unwrap();
        let artifacts = vec![Artifact {
            study: "demo",
            deterministic: vec![file("d.csv", "h\n", true)],
            timing: vec![],
            params: Value::Object(vec![]),
        }];
        std::fs::write(root.join("demo").join("d.csv"), "h\n").unwrap();
        std::fs::write(root.join(MANIFEST_FILE), "{}\n").unwrap();
        assert!(compare_layout(&root, &artifacts).is_empty());
        // A golden the study no longer produces is reported…
        std::fs::write(root.join("demo").join("stale.csv"), "h\n").unwrap();
        // …as is a directory no study claims.
        std::fs::create_dir_all(root.join("retired-study")).unwrap();
        let problems = compare_layout(&root, &artifacts);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("stale.csv")));
        assert!(problems.iter().any(|p| p.contains("retired-study")));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn grid_parsing() {
        assert_eq!(Grid::parse("fast").unwrap(), Grid::Fast);
        assert_eq!(Grid::parse("full").unwrap(), Grid::Full);
        assert!(Grid::parse("medium").is_err());
        assert_eq!(Grid::Fast.name(), "fast");
    }
}
