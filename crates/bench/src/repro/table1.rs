//! Study `table1` — the paper's Table 1 as an empirical matrix, plus the
//! proven-bounds certification table.
//!
//! Deterministic part:
//!
//! * `table1.csv` / `.txt` — one row per `(variant, algorithm, suite, seed)`
//!   cell: the claimed ratio next to the achieved `makespan/certificate`
//!   (an upper bound on the true ratio, since `certificate < OPT`) and
//!   `makespan/accepted` (provably below the algorithm's `ratio_bound`).
//! * `bounds.csv` / `.txt` — the regression table the golden suite asserts
//!   on: per variant (sequence-dependent uniform included) the maximal
//!   achieved `makespan/accepted` against both the repository's proven
//!   `ratio_bound` and the paper's claimed bound (3/2 splittable, 3/2+ε
//!   preemptive, 5/3+ε non-preemptive, 3/2 sequence-dependent uniform).
//!   This table runs on a fixed mini-grid, so its bytes are identical under
//!   every [`Grid`] and it is byte-diffed even by the fast CI job.
//!
//! Timing part: wall times of the `table1` cells.

use bss_core::{solve, solve_seqdep, Algorithm};
use bss_instance::Variant;
use bss_json::Value;
use bss_rational::Rational;
use bss_report::{time_best_of, Table};

use crate::suites::{table1_suites, Suite};

use super::{fmt_ms, fmt_ratio, int, int_list, tree, Artifact, ArtifactFile, Grid, ReproConfig};

const JOBS: usize = 4000;
const CLASSES: usize = JOBS / 20;
const MACHINES: usize = 16;
const FULL_REPS: u64 = 3;

/// Algorithm cells, with the paper's claimed ratio and time per variant.
fn algorithms(variant: Variant) -> [(Algorithm, &'static str, &'static str, &'static str); 4] {
    let claimed_three_halves_time = match variant {
        Variant::Splittable => "O(n + c log(c+m))",
        Variant::Preemptive => "O(n log(c+m))",
        Variant::NonPreemptive => "O(n log(n+Δ))",
    };
    [
        (Algorithm::TwoApprox, "2-approx (Thm 1)", "2", "O(n)"),
        (
            Algorithm::EpsilonSearch { eps_log2: 7 },
            "3/2+eps (Thm 2)",
            "1.512",
            "O(n log 1/eps)",
        ),
        (
            Algorithm::ThreeHalves,
            "3/2 (Thm 3/6/8)",
            "1.5",
            claimed_three_halves_time,
        ),
        (
            Algorithm::Portfolio,
            "portfolio (ours)",
            "1.5",
            claimed_three_halves_time,
        ),
    ]
}

fn grid_suites(grid: Grid) -> Vec<Suite> {
    match grid {
        Grid::Full => table1_suites(JOBS, CLASSES, MACHINES, FULL_REPS),
        // The fast rows are a strict subset of the full rows: same shapes,
        // seed 0 only, two representative suites.
        Grid::Fast => table1_suites(JOBS, CLASSES, MACHINES, 1)
            .into_iter()
            .filter(|s| matches!(s.name, "uniform" | "expensive"))
            .collect(),
    }
}

/// Runs the study at `cfg`.
#[must_use]
pub fn run(cfg: &ReproConfig) -> Artifact {
    let suites = grid_suites(cfg.grid);
    let mut cells = Vec::new();
    for variant in Variant::ALL {
        for (algo, algo_name, claimed, claimed_time) in algorithms(variant) {
            for suite in &suites {
                for spec in &suite.specs {
                    cells.push((
                        variant,
                        algo,
                        algo_name,
                        claimed,
                        claimed_time,
                        suite.name,
                        *spec,
                    ));
                }
            }
        }
    }

    let timing = cfg.timing;
    let rows = super::sweep(
        cfg,
        "table1",
        cells,
        |(variant, algo, algo_name, claimed, claimed_time, suite, spec)| {
            let inst = spec.build();
            // Solves are deterministic, so a timed run doubles as the
            // deterministic row's solve.
            let (sol, ms) = if timing {
                let (sol, dt) = time_best_of(2, || solve(&inst, variant, algo));
                (sol, Some(fmt_ms(dt)))
            } else {
                (solve(&inst, variant, algo), None)
            };
            (
                vec![
                    variant.to_string(),
                    algo_name.to_string(),
                    suite.to_string(),
                    spec.seed().to_string(),
                    claimed.to_string(),
                    claimed_time.to_string(),
                    fmt_ratio(sol.makespan / sol.certificate),
                    fmt_ratio(sol.makespan / sol.accepted),
                    sol.probes.to_string(),
                ],
                ms,
            )
        },
    );

    let mut table = Table::new(&[
        "variant",
        "algorithm",
        "suite",
        "seed",
        "claimed ratio",
        "claimed time",
        "makespan/certificate",
        "makespan/accepted",
        "probes",
    ]);
    let mut times = Table::new(&[
        "variant",
        "algorithm",
        "suite",
        "seed",
        "time (ms, best of 2)",
    ]);
    for (row, ms) in rows.into_iter().flatten() {
        if let Some(ms) = ms {
            times.row(&[&row[0], &row[1], &row[2], &row[3], &ms]);
        }
        table.row(&row);
    }

    let bounds = bounds_table();

    Artifact {
        study: "table1",
        deterministic: vec![
            ArtifactFile::new("table1.csv", table.to_csv(), true),
            ArtifactFile::new("table1.txt", table.to_aligned(), true),
            ArtifactFile::new("bounds.csv", bounds.to_csv(), false),
            ArtifactFile::new("bounds.txt", bounds.to_aligned(), false),
        ],
        timing: (!times.is_empty())
            .then(|| ArtifactFile::new("timing.csv", times.to_csv(), true))
            .into_iter()
            .collect(),
        params: Value::Object(vec![
            ("jobs".into(), int(JOBS)),
            ("classes".into(), int(CLASSES)),
            ("machines".into(), int(MACHINES)),
            (
                "suites".into(),
                Value::Array(
                    suites
                        .iter()
                        .map(|s| {
                            Value::Object(vec![
                                ("name".into(), Value::Str(s.name.into())),
                                (
                                    "specs".into(),
                                    Value::Array(s.specs.iter().map(tree).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "bounds_grid".into(),
                Value::Object(vec![
                    ("jobs".into(), int(BOUNDS_JOBS)),
                    ("classes".into(), int(BOUNDS_CLASSES)),
                    ("machines".into(), int(BOUNDS_MACHINES)),
                    ("seqdep_classes".into(), int(BOUNDS_SEQDEP_CLASSES)),
                    ("seeds".into(), int_list(0..BOUNDS_SEEDS)),
                ]),
            ),
        ]),
    }
}

const BOUNDS_JOBS: usize = 400;
const BOUNDS_CLASSES: usize = 20;
const BOUNDS_MACHINES: usize = 6;
const BOUNDS_SEQDEP_CLASSES: usize = 24;
const BOUNDS_SEEDS: u64 = 3;

/// The proven-bounds certification table (grid-independent).
///
/// `achieved = makespan / accepted` is the quantity the theorems bound:
/// every `Solution` proves `makespan <= ratio_bound · accepted`. Each row
/// takes the maximum over the fixed seed set and asserts it against both
/// the repository's `ratio_bound` and the paper's claim — the golden test
/// re-asserts the committed `within` column stays `yes`.
///
/// # Panics
/// If any achieved ratio exceeds its proven or claimed bound (a genuine
/// regression; the goldens exist to catch exactly this).
#[must_use]
pub fn bounds_table() -> Table {
    let eps = Rational::new(1, 64); // display/claim epsilon: 2^-7 search => paper eps <= 2^-6
    let rows: Vec<(&str, Variant, Algorithm, &str, Rational)> = vec![
        (
            "splittable",
            Variant::Splittable,
            Algorithm::ThreeHalves,
            "3/2 (Thm 3)",
            Rational::new(3, 2),
        ),
        (
            "preemptive",
            Variant::Preemptive,
            Algorithm::ThreeHalves,
            "3/2 (Thm 6)",
            Rational::new(3, 2),
        ),
        (
            "preemptive",
            Variant::Preemptive,
            Algorithm::EpsilonSearch { eps_log2: 7 },
            "3/2+eps (Thm 2)",
            Rational::new(3, 2) + eps,
        ),
        (
            "non-preemptive",
            Variant::NonPreemptive,
            Algorithm::EpsilonSearch { eps_log2: 7 },
            "5/3+eps (SPAA version)",
            Rational::new(5, 3) + eps,
        ),
        (
            "non-preemptive",
            Variant::NonPreemptive,
            Algorithm::ThreeHalves,
            "3/2 (Thm 8)",
            Rational::new(3, 2),
        ),
    ];

    let mut table = Table::new(&[
        "problem",
        "algorithm",
        "paper claim",
        "proven bound",
        "achieved max (makespan/accepted)",
        "within",
    ]);
    for (problem, variant, algo, claim, paper_bound) in rows {
        let mut achieved = Rational::ZERO;
        let mut proven = Rational::ZERO;
        for seed in 0..BOUNDS_SEEDS {
            let inst = bss_gen::uniform(BOUNDS_JOBS, BOUNDS_CLASSES, BOUNDS_MACHINES, seed);
            let sol = solve(&inst, variant, algo);
            achieved = achieved.max(sol.makespan / sol.accepted);
            proven = sol.ratio_bound;
        }
        push_bound_row(
            &mut table,
            problem,
            algo_label(algo),
            claim,
            proven,
            paper_bound,
            achieved,
        );
    }

    // Sequence-dependent uniform special case: the 3/2 of the batch-setup
    // reduction transfers exactly (arXiv:1809.10428 bridge; Theorem 8 here).
    let mut achieved = Rational::ZERO;
    let mut proven = Rational::ZERO;
    for seed in 0..BOUNDS_SEEDS {
        let sd = bss_gen::seqdep::uniform_setups(BOUNDS_SEQDEP_CLASSES, BOUNDS_MACHINES, seed);
        let sol = solve_seqdep(&sd, Algorithm::ThreeHalves);
        achieved = achieved.max(sol.makespan / sol.accepted);
        proven = sol.ratio_bound;
    }
    push_bound_row(
        &mut table,
        "seqdep-uniform",
        "3/2 via reduction",
        "3/2 (uniform case)",
        proven,
        Rational::new(3, 2),
        achieved,
    );
    table
}

fn algo_label(algo: Algorithm) -> &'static str {
    match algo {
        Algorithm::TwoApprox => "two-approx",
        Algorithm::EpsilonSearch { .. } => "eps-search (2^-7)",
        Algorithm::ThreeHalves => "three-halves",
        Algorithm::Portfolio => "portfolio",
    }
}

fn push_bound_row(
    table: &mut Table,
    problem: &str,
    algorithm: &str,
    claim: &str,
    proven: Rational,
    paper_bound: Rational,
    achieved: Rational,
) {
    let within = achieved <= proven && achieved <= paper_bound;
    assert!(
        within,
        "{problem}/{algorithm}: achieved {achieved} exceeds proven {proven} or claimed {paper_bound}"
    );
    table.row(&[
        problem.to_string(),
        algorithm.to_string(),
        claim.to_string(),
        proven.to_string(),
        fmt_ratio(achieved),
        "yes".to_string(),
    ]);
}
