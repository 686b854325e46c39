//! Study `ratios` — experiments R1–R4: approximation quality against exact
//! optima and the Monma–Potts-style baseline.
//!
//! * R1/R2 (`r12.csv`): true ratios against the **exact** non-preemptive
//!   optimum on tiny instances. For relaxed variants `OPT_variant <=
//!   OPT_nonp`, so those rows *underestimate* the per-variant ratio; the
//!   non-preemptive rows are true ratios and the `guess_ok` column checks
//!   `accepted <= OPT` cell by cell.
//! * R3 (`r3.csv`): the preemptive portfolio against the Monma–Potts
//!   wrap-around baseline (claimed ratio `2 − 1/(⌊m/2⌋+1)`), swept over `m`.
//! * R4 (`r4.csv`): quality of the instance lower bound, `OPT / T_min`.
//!
//! All values are exact-rational ratios of single solves — fully
//! deterministic; this study has no timing part.

use bss_baselines::monma_potts;
use bss_core::{solve, Algorithm};
use bss_exact::{solve_bss, ExactConfig};
use bss_gen::FamilySpec;
use bss_instance::{LowerBounds, Variant};
use bss_json::Value;
use bss_report::Table;

use super::{fmt_f64, fmt_ratio, int, int_list, Artifact, ArtifactFile, Grid, ReproConfig};

fn tiny_seeds(grid: Grid) -> u64 {
    match grid {
        Grid::Fast => 20,
        Grid::Full => 200,
    }
}

fn r3_machines(grid: Grid) -> Vec<usize> {
    match grid {
        Grid::Fast => vec![2, 4],
        Grid::Full => vec![2, 4, 8, 16],
    }
}

fn r3_seeds(grid: Grid) -> u64 {
    match grid {
        Grid::Fast => 2,
        Grid::Full => 5,
    }
}

/// The exact oracle's job cap for the tiny-instance certification.
const EXACT_MAX_JOBS: usize = 14;

/// Runs the study at `cfg`.
#[must_use]
pub fn run(cfg: &ReproConfig) -> Artifact {
    // ---- R1/R2 + R4: exact-optimum certification on tiny instances. ----
    let seeds: Vec<u64> = (0..tiny_seeds(cfg.grid)).collect();
    let cells = super::sweep(cfg, "ratios/r12", seeds.clone(), |seed| {
        let inst = FamilySpec::Tiny { seed }.build();
        let exact = ExactConfig {
            max_jobs: EXACT_MAX_JOBS,
            ..ExactConfig::default()
        };
        let opt = solve_bss(&inst, Variant::NonPreemptive, &exact)
            .ok()?
            .opt()?;
        let mut rows = Vec::new();
        for variant in Variant::ALL {
            for (name, algo) in [
                ("2-approx", Algorithm::TwoApprox),
                ("3/2", Algorithm::ThreeHalves),
            ] {
                let sol = solve(&inst, variant, algo);
                rows.push(vec![
                    seed.to_string(),
                    variant.to_string(),
                    name.to_string(),
                    fmt_ratio(sol.makespan / opt),
                    (sol.accepted <= opt).to_string(),
                ]);
            }
        }
        let lb = LowerBounds::of(&inst).tmin(Variant::NonPreemptive);
        Some((rows, vec![seed.to_string(), fmt_ratio(opt / lb)]))
    });

    let mut r12 = Table::new(&["seed", "variant", "algorithm", "ratio_vs_opt", "guess_ok"]);
    let mut r4 = Table::new(&["seed", "opt_over_tmin"]);
    for cell in cells.into_iter().flatten().flatten() {
        for row in cell.0 {
            r12.row(&row);
        }
        r4.row(&cell.1);
    }

    // ---- R3: preemptive portfolio vs Monma–Potts, swept over m. ----
    let machines = r3_machines(cfg.grid);
    let r3_reps = r3_seeds(cfg.grid);
    let mut r3_cells = Vec::new();
    for &m in &machines {
        for seed in 0..r3_reps {
            r3_cells.push((m, seed));
        }
    }
    let r3_rows = super::sweep(cfg, "ratios/r3", r3_cells, |(m, seed)| {
        let inst = FamilySpec::Uniform {
            jobs: 60 * m,
            classes: 6 * m,
            machines: m,
            seed,
        }
        .build();
        let ours = solve(&inst, Variant::Preemptive, Algorithm::Portfolio);
        let mp = monma_potts(&inst);
        let lb = LowerBounds::of(&inst).tmin(Variant::Preemptive);
        let mp_bound = 2.0 - 1.0 / ((m / 2) as f64 + 1.0);
        vec![
            m.to_string(),
            seed.to_string(),
            fmt_ratio(ours.makespan / lb),
            fmt_ratio(mp.makespan() / lb),
            fmt_f64(mp_bound),
            fmt_ratio(mp.makespan() / ours.makespan),
        ]
    });
    let mut r3 = Table::new(&[
        "m",
        "seed",
        "ours_over_tmin",
        "mp_over_tmin",
        "mp_claimed_bound",
        "mp_over_ours",
    ]);
    for row in r3_rows.into_iter().flatten() {
        r3.row(&row);
    }

    let text = format!(
        "# R1/R2: true ratios vs exact OPT_nonp on tiny instances\n\n{}\n\
         # R3: preemptive portfolio vs Monma-Potts (claimed <= 2 - 1/(floor(m/2)+1))\n\n{}\n\
         # R4: lower-bound quality OPT/T_min (paper: <= 2)\n\n{}",
        r12.to_aligned(),
        r3.to_aligned(),
        r4.to_aligned()
    );

    Artifact {
        study: "ratios",
        deterministic: vec![
            ArtifactFile::new("r12.csv", r12.to_csv(), true),
            ArtifactFile::new("r3.csv", r3.to_csv(), true),
            ArtifactFile::new("r4.csv", r4.to_csv(), true),
            ArtifactFile::new("ratios.txt", text, true),
        ],
        timing: Vec::new(),
        params: Value::Object(vec![
            ("tiny_seeds".into(), int_list(seeds.iter().copied())),
            (
                "tiny_family".into(),
                Value::Str(
                    "bss_gen::tiny (n <= 9, m <= 4; exact oracle skips over-limit shapes)".into(),
                ),
            ),
            (
                "r3_machines".into(),
                int_list(machines.iter().map(|&m| m as u64)),
            ),
            ("r3_seeds".into(), int_list(0..r3_reps)),
            ("r3_shape".into(), Value::Str("uniform: n=60m, c=6m".into())),
            ("exact_limit_jobs".into(), int(EXACT_MAX_JOBS)),
        ]),
    }
}
