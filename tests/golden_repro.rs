//! The golden repro suite: regenerates every study's deterministic
//! artifacts in-process and diffs them against the committed goldens under
//! `results/figures/` — the whole paper reproduction as a regression test.
//!
//! * Default (`BSS_REPRO_GRID=fast` or unset, e.g. a debug `cargo test`):
//!   the fast grid, a strict row-subset of the golden grid. Grid-insensitive
//!   files (figures, the bounds table) are byte-compared; grid-sensitive
//!   CSVs are checked row-by-row against the golden files.
//! * CI per-push (`BSS_REPRO_GRID=full`, release): the full grid,
//!   byte-for-byte, MANIFEST included.
//! * Re-blessing after an intentional change:
//!   `BSS_BLESS=1 cargo test --release --test golden_repro` (full grid
//!   enforced), then commit the refreshed `results/figures/`.

use std::path::PathBuf;

use bss_bench::repro::{
    self, compare_deterministic, compare_layout, manifest, render_manifest, run_all, Grid,
    ReproConfig, MANIFEST_FILE,
};

fn golden_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join("figures")
}

fn config() -> ReproConfig {
    // The test defaults to the fast grid (the full grid is the *binaries'*
    // default): `cargo test -q` must stay cheap in debug mode. Timing is
    // never measured here — only the deterministic part is golden.
    let mut cfg = ReproConfig::from_env(Grid::Fast).expect("BSS_REPRO_GRID must be fast|full");
    cfg.timing = false;
    cfg
}

fn blessing() -> bool {
    std::env::var("BSS_BLESS").is_ok_and(|v| v == "1")
}

#[test]
fn regenerated_artifacts_match_committed_goldens() {
    let cfg = config();
    let root = golden_root();
    let artifacts = run_all(&cfg);
    let manifest_text = render_manifest(&manifest(&cfg, &artifacts));

    if blessing() {
        assert_eq!(
            cfg.grid,
            Grid::Full,
            "bless on the golden grid: BSS_BLESS=1 BSS_REPRO_GRID=full"
        );
        // A bless replaces the tree wholesale so renamed or dropped
        // artifacts do not linger as stale goldens (compare_layout would
        // flag them on the very next run).
        if root.exists() {
            std::fs::remove_dir_all(&root).expect("clear stale goldens");
        }
        let written =
            repro::write_deterministic(&root, &artifacts, &manifest_text).expect("write goldens");
        println!("blessed {} files under {}", written.len(), root.display());
        return;
    }

    let mut problems = Vec::new();
    for artifact in &artifacts {
        problems.extend(compare_deterministic(&root, artifact, cfg.grid));
    }
    // The file *names* are grid-independent, so stale goldens (a study that
    // stopped producing an output) are caught on every grid, not just the
    // byte-exact full pass.
    problems.extend(compare_layout(&root, &artifacts));
    if cfg.grid == Grid::Full {
        let path = root.join(MANIFEST_FILE);
        match std::fs::read_to_string(&path) {
            Ok(golden) if golden == manifest_text => {}
            Ok(_) => problems.push(format!("{}: byte mismatch", path.display())),
            Err(e) => problems.push(format!("{}: cannot read golden: {e}", path.display())),
        }
    }
    assert!(
        problems.is_empty(),
        "{} golden mismatch(es) on the {} grid:\n  {}\n\
         If the change is intentional, re-bless with\n  \
         BSS_BLESS=1 BSS_REPRO_GRID=full cargo test --release --test golden_repro\n\
         and commit the refreshed results/figures/.",
        problems.len(),
        cfg.grid.name(),
        problems.join("\n  ")
    );
}

/// The acceptance table: the committed bounds artifact certifies that every
/// variant's achieved ratio stays within both the proven bound and the
/// paper's claim (3/2 splittable, 3/2+ε preemptive, 5/3+ε non-preemptive,
/// 3/2 sequence-dependent uniform) — and the freshly regenerated table
/// agrees with it byte-for-byte on every grid.
#[test]
fn committed_bounds_table_certifies_every_variant() {
    let golden = std::fs::read_to_string(golden_root().join("table1").join("bounds.csv"))
        .expect("committed bounds.csv (run repro-all and commit results/figures)");
    let mut lines = golden.lines();
    let header = lines.next().expect("header");
    assert_eq!(
        header,
        "problem,algorithm,paper claim,proven bound,achieved max (makespan/accepted),within"
    );
    let rows: Vec<&str> = lines.collect();
    for problem in [
        "splittable",
        "preemptive",
        "non-preemptive",
        "seqdep-uniform",
    ] {
        assert!(
            rows.iter().any(|r| r.starts_with(problem)),
            "bounds table misses {problem}"
        );
    }
    for row in &rows {
        assert!(
            row.ends_with(",yes"),
            "bounds row out of certification: {row}"
        );
    }
    // Byte identity of the committed table with a fresh regeneration is
    // covered by `regenerated_artifacts_match_committed_goldens`: bounds.csv
    // is grid-insensitive, so that test byte-compares it on every grid.
}
