//! Study `epsilon` — Theorem 2's `(3/2+ε)` trade-off: probes grow linearly
//! in `log(1/ε)` while the certified ratio tightens toward 3/2.
//!
//! Deterministic part: one row per `(suite, variant, ε, seed)` cell with the
//! probe count and the exact ratios of that single solve. Timing part: the
//! same cells' wall times.

use bss_core::{solve, Algorithm};
use bss_gen::FamilySpec;
use bss_instance::Variant;
use bss_json::Value;
use bss_report::{time_best_of, Table};

use super::{fmt_ms, fmt_ratio, int, int_list, tree, Artifact, ArtifactFile, Grid, ReproConfig};

const JOBS: usize = 10_000;
const MACHINES: usize = 8;

fn suites() -> [(&'static str, FamilySpec); 2] {
    [
        (
            "uniform",
            FamilySpec::Uniform {
                jobs: JOBS,
                classes: JOBS / 20,
                machines: MACHINES,
                seed: 0,
            },
        ),
        (
            // `c < m`: the contended regime where the searches genuinely
            // reject near `T_min` (see `bss_gen::contended`).
            "contended",
            FamilySpec::Contended {
                jobs: JOBS,
                classes: 6,
                machines: MACHINES,
                seed: 0,
            },
        ),
    ]
}

fn eps_grid(grid: Grid) -> Vec<u32> {
    match grid {
        Grid::Fast => (1..=3).collect(),
        Grid::Full => (1..=8).collect(),
    }
}

fn seeds(grid: Grid) -> Vec<u64> {
    match grid {
        Grid::Fast => vec![0],
        Grid::Full => vec![0, 1, 2],
    }
}

/// Runs the study at `cfg`.
#[must_use]
pub fn run(cfg: &ReproConfig) -> Artifact {
    let eps_grid = eps_grid(cfg.grid);
    let seeds = seeds(cfg.grid);
    let mut cells = Vec::new();
    for (suite, spec) in suites() {
        for variant in Variant::ALL {
            for &eps_log2 in &eps_grid {
                for &seed in &seeds {
                    cells.push((suite, spec.reseeded(seed), variant, eps_log2));
                }
            }
        }
    }

    let timing = cfg.timing;
    let rows = super::sweep(cfg, "epsilon", cells, |(suite, spec, variant, eps_log2)| {
        let inst = spec.build();
        let algo = Algorithm::EpsilonSearch { eps_log2 };
        // Solves are deterministic (proven by tests/repro_determinism.rs),
        // so a timed run doubles as the deterministic row's solve.
        let (sol, ms) = if timing {
            let (sol, dt) = time_best_of(2, || solve(&inst, variant, algo));
            (sol, Some(fmt_ms(dt)))
        } else {
            (solve(&inst, variant, algo), None)
        };
        (
            vec![
                suite.to_string(),
                variant.to_string(),
                format!("2^-{eps_log2}"),
                spec.seed().to_string(),
                inst.num_jobs().to_string(),
                sol.probes.to_string(),
                fmt_ratio(sol.makespan / sol.certificate),
                fmt_ratio(sol.makespan / sol.accepted),
            ],
            ms,
        )
    });

    let mut table = Table::new(&[
        "suite",
        "variant",
        "eps",
        "seed",
        "n",
        "probes",
        "makespan/certificate",
        "makespan/accepted",
    ]);
    let mut times = Table::new(&["suite", "variant", "eps", "seed", "time (ms, best of 2)"]);
    for (row, ms) in rows.into_iter().flatten() {
        if let Some(ms) = ms {
            times.row(&[&row[0], &row[1], &row[2], &row[3], &ms]);
        }
        table.row(&row);
    }

    Artifact {
        study: "epsilon",
        deterministic: vec![
            ArtifactFile::new("epsilon.csv", table.to_csv(), true),
            ArtifactFile::new("epsilon.txt", table.to_aligned(), true),
        ],
        timing: (!times.is_empty())
            .then(|| ArtifactFile::new("timing.csv", times.to_csv(), true))
            .into_iter()
            .collect(),
        params: Value::Object(vec![
            ("jobs".into(), int(JOBS)),
            ("machines".into(), int(MACHINES)),
            (
                "suites".into(),
                Value::Array(suites().iter().map(|(_, spec)| tree(spec)).collect()),
            ),
            (
                "eps_log2".into(),
                int_list(eps_grid.iter().map(|&e| u64::from(e))),
            ),
            ("seeds".into(), int_list(seeds.iter().copied())),
        ]),
    }
}
