//! Determinism of the repro pipeline's golden (deterministic) artifacts:
//! the committed files must depend only on the grid and the seeds — never
//! on run-to-run state, the thread count of the parallel sweeps, or whether
//! timing measurement is enabled.

use bss_bench::repro::{manifest, render_manifest, studies, Artifact, Grid, ReproConfig};

fn cfg(threads: Option<usize>, timing: bool) -> ReproConfig {
    // Honour BSS_REPRO_GRID like the golden suite (default fast): the CI
    // full-grid run must prove determinism for the full-grid-only cells too.
    let mut cfg = ReproConfig::from_env(Grid::Fast).expect("BSS_REPRO_GRID must be fast|full");
    cfg.threads = threads;
    cfg.timing = timing;
    cfg
}

fn deterministic_bytes(a: &Artifact) -> Vec<(&str, &str)> {
    a.deterministic
        .iter()
        .map(|f| (f.name.as_str(), f.contents.as_str()))
        .collect()
}

#[test]
fn every_study_is_deterministic_across_runs_and_thread_counts() {
    for study in studies() {
        let base = (study.run)(&cfg(None, false));
        assert!(
            !base.deterministic.is_empty(),
            "{}: no deterministic files",
            study.name
        );

        // Same seed, second run: byte-identical deterministic artifacts.
        let rerun = (study.run)(&cfg(None, false));
        assert_eq!(
            deterministic_bytes(&base),
            deterministic_bytes(&rerun),
            "{}: rerun differs",
            study.name
        );

        // The sweeps fan out over `parallel_map`; pin contrasting worker
        // counts (sequential vs oversubscribed) and require the same bytes —
        // results must come back in input order, values unchanged.
        let one = (study.run)(&cfg(Some(1), false));
        let many = (study.run)(&cfg(Some(3), false));
        assert_eq!(
            deterministic_bytes(&base),
            deterministic_bytes(&one),
            "{}: threads=1 differs",
            study.name
        );
        assert_eq!(
            deterministic_bytes(&one),
            deterministic_bytes(&many),
            "{}: threads=3 differs",
            study.name
        );

        // Timing measurement must not leak into the deterministic part
        // (that is the whole point of the split).
        let timed = (study.run)(&cfg(Some(2), true));
        assert_eq!(
            deterministic_bytes(&base),
            deterministic_bytes(&timed),
            "{}: timing on/off changes deterministic files",
            study.name
        );
    }
}

#[test]
fn manifest_is_deterministic_and_ignores_timing_knobs() {
    let run = |threads, timing| {
        let c = cfg(threads, timing);
        let artifacts: Vec<Artifact> = studies().iter().map(|s| (s.run)(&c)).collect();
        render_manifest(&manifest(&c, &artifacts))
    };
    let base = run(None, false);
    assert_eq!(base, run(Some(1), false));
    assert_eq!(base, run(Some(3), true));
}
