//! Study `jumping` — experiments S3/S4: Class Jumping versus the plain
//! ε-binary-search on the same duals (Theorems 3 and 6 vs Theorem 2),
//! sweeping the class count `c` at fixed `n` — the regime where the paper's
//! `c log(c+m)` term matters.
//!
//! Deterministic part: per `(variant, c)` the probes each search needs and
//! the quality ratio `jumping accepted / eps accepted` (`<= 1` means Class
//! Jumping found an equal-or-smaller accepted guess). Timing part: both
//! searches' wall times.

use bss_core::{solve, Algorithm};
use bss_gen::FamilySpec;
use bss_instance::Variant;
use bss_json::Value;
use bss_report::{time_best_of, Table};

use super::{fmt_ms, fmt_ratio, int, int_list, tree, Artifact, ArtifactFile, Grid, ReproConfig};

const JOBS: usize = 10_000;
const MACHINES: usize = 256;
const SEED: u64 = 11;
const EPS_LOG2: u32 = 12;

/// Class counts swept: `[m/2, m)` is the contended band where the searches
/// genuinely search; `m` and `2m` sit outside it (immediate acceptance).
fn class_counts(grid: Grid) -> Vec<usize> {
    let m = MACHINES;
    match grid {
        Grid::Fast => vec![m / 2, m],
        Grid::Full => vec![m / 2, (m * 5) / 8, (m * 3) / 4, (m * 7) / 8, m, 2 * m],
    }
}

/// Runs the study at `cfg`.
#[must_use]
pub fn run(cfg: &ReproConfig) -> Artifact {
    let cs = class_counts(cfg.grid);
    let mut cells = Vec::new();
    for variant in [Variant::Splittable, Variant::Preemptive] {
        for &c in &cs {
            cells.push((variant, c));
        }
    }
    let timing = cfg.timing;
    let rows = super::sweep(cfg, "jumping", cells, |(variant, c)| {
        // The swept `c` is the instance's class count verbatim — the CSV and
        // MANIFEST must describe exactly what was built.
        assert!(c <= JOBS, "class sweep exceeds the job count");
        let spec = FamilySpec::Contended {
            jobs: JOBS,
            classes: c,
            machines: MACHINES,
            seed: SEED,
        };
        let inst = spec.build();
        let eps_algo = Algorithm::EpsilonSearch { eps_log2: EPS_LOG2 };
        // Solves are deterministic, so the timed runs double as the
        // deterministic row's solves.
        let (jump, eps, times) = if timing {
            let (jump, tj) = time_best_of(2, || solve(&inst, variant, Algorithm::ThreeHalves));
            let (eps, te) = time_best_of(2, || solve(&inst, variant, eps_algo));
            (jump, eps, Some((fmt_ms(tj), fmt_ms(te))))
        } else {
            let jump = solve(&inst, variant, Algorithm::ThreeHalves);
            let eps = solve(&inst, variant, eps_algo);
            (jump, eps, None)
        };
        (
            vec![
                variant.to_string(),
                c.to_string(),
                jump.probes.to_string(),
                eps.probes.to_string(),
                fmt_ratio(jump.accepted / eps.accepted),
                fmt_ratio(jump.makespan / jump.certificate),
            ],
            times,
        )
    });

    let mut table = Table::new(&[
        "variant",
        "c",
        "jumping probes",
        "eps probes",
        "jumping accepted / eps accepted",
        "jumping makespan/certificate",
    ]);
    let mut times = Table::new(&["variant", "c", "jumping (ms)", "eps-search (ms)"]);
    for (row, t) in rows.into_iter().flatten() {
        if let Some((tj, te)) = t {
            times.row(&[&row[0], &row[1], &tj, &te]);
        }
        table.row(&row);
    }

    Artifact {
        study: "jumping",
        deterministic: vec![
            ArtifactFile::new("jumping.csv", table.to_csv(), true),
            ArtifactFile::new("jumping.txt", table.to_aligned(), true),
        ],
        timing: (!times.is_empty())
            .then(|| ArtifactFile::new("timing.csv", times.to_csv(), true))
            .into_iter()
            .collect(),
        params: Value::Object(vec![
            ("jobs".into(), int(JOBS)),
            ("machines".into(), int(MACHINES)),
            (
                "class_counts".into(),
                int_list(cs.iter().map(|&c| c as u64)),
            ),
            ("eps_log2".into(), int(EPS_LOG2 as usize)),
            (
                "family".into(),
                tree(&FamilySpec::Contended {
                    jobs: JOBS,
                    classes: cs[0],
                    machines: MACHINES,
                    seed: SEED,
                }),
            ),
        ]),
    }
}
