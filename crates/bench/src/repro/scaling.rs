//! Study `scaling` — experiments S1/S5: the search structure along the `n`
//! and `Δ` sweeps.
//!
//! Wall times (and the fitted log-log exponents that certify the paper's
//! near-linear claims) are machine-dependent, so they live entirely in the
//! timing part. The deterministic part records what the *algorithms* do at
//! each sweep point — probe counts and certified ratios — which regresses
//! the search behaviour itself: a probe-count jump at fixed `n` or `Δ` means
//! the searches changed, golden-visibly.

use bss_core::{solve, Algorithm};
use bss_gen::FamilySpec;
use bss_instance::Variant;
use bss_json::Value;
use bss_report::{fit_loglog, time_best_of, Table};

use super::{fmt_ratio, int_list, tree, Artifact, ArtifactFile, Grid, ReproConfig};

const UNIFORM_SEED: u64 = 7;
const DELTA_SEED: u64 = 3;
const S5_JOBS: usize = 1 << 12;

fn s1_cases() -> [(Variant, Algorithm, &'static str, &'static str); 5] {
    [
        (
            Variant::Splittable,
            Algorithm::TwoApprox,
            "2-approx",
            "O(n)",
        ),
        (
            Variant::NonPreemptive,
            Algorithm::TwoApprox,
            "2-approx",
            "O(n)",
        ),
        (
            Variant::Splittable,
            Algorithm::ThreeHalves,
            "class jumping",
            "O(n + c log(c+m))",
        ),
        (
            Variant::Preemptive,
            Algorithm::ThreeHalves,
            "class jumping",
            "O(n log(c+m))",
        ),
        (
            Variant::NonPreemptive,
            Algorithm::ThreeHalves,
            "integer search",
            "O(n log(n+Δ))",
        ),
    ]
}

fn s1_sizes(grid: Grid) -> Vec<usize> {
    match grid {
        Grid::Fast => crate::suites::n_sweep(8, 9),
        Grid::Full => crate::suites::n_sweep(8, 13),
    }
}

fn s5_delta_log2(grid: Grid) -> Vec<u32> {
    match grid {
        Grid::Fast => vec![4, 12],
        Grid::Full => vec![4, 12, 20, 28, 36],
    }
}

/// Runs the study at `cfg`.
#[must_use]
pub fn run(cfg: &ReproConfig) -> Artifact {
    let sizes = s1_sizes(cfg.grid);
    let deltas = s5_delta_log2(cfg.grid);
    let timing = cfg.timing;

    // S1: n-scaling of the 3/2 algorithms and 2-approximations.
    let mut cells = Vec::new();
    for (variant, algo, name, claimed) in s1_cases() {
        for &n in &sizes {
            let spec = FamilySpec::Uniform {
                jobs: n,
                classes: (n / 20).max(2),
                machines: 16,
                seed: UNIFORM_SEED,
            };
            cells.push(("S1", variant, algo, name, claimed, spec, n as u64));
        }
    }
    // S5: Δ-scaling of the non-preemptive integer search at fixed n.
    for &k in &deltas {
        let spec = FamilySpec::WideDelta {
            jobs: S5_JOBS,
            classes: S5_JOBS / 20,
            machines: 16,
            delta: 1u64 << k,
            seed: DELTA_SEED,
        };
        cells.push((
            "S5",
            Variant::NonPreemptive,
            Algorithm::ThreeHalves,
            "integer search",
            "O(n log(n+Δ))",
            spec,
            u64::from(k),
        ));
    }

    let rows = super::sweep(
        cfg,
        "scaling",
        cells,
        |(experiment, variant, algo, name, claimed, spec, x)| {
            let inst = spec.build();
            // Solves are deterministic, so a timed run doubles as the
            // deterministic row's solve.
            let (sol, ms) = if timing {
                let (sol, dt) = time_best_of(3, || solve(&inst, variant, algo));
                (sol, Some(dt.as_secs_f64() * 1e3))
            } else {
                (solve(&inst, variant, algo), None)
            };
            let x_label = match experiment {
                "S5" => format!("Δ=2^{x}"),
                _ => x.to_string(),
            };
            (
                experiment,
                variant,
                name,
                x,
                ms,
                vec![
                    experiment.to_string(),
                    variant.to_string(),
                    name.to_string(),
                    claimed.to_string(),
                    x_label,
                    sol.probes.to_string(),
                    fmt_ratio(sol.makespan / sol.certificate),
                    fmt_ratio(sol.makespan / sol.accepted),
                ],
            )
        },
    );

    let mut table = Table::new(&[
        "experiment",
        "variant",
        "algorithm",
        "claimed",
        "n (or Δ)",
        "probes",
        "makespan/certificate",
        "makespan/accepted",
    ]);
    let mut times = Table::new(&[
        "experiment",
        "variant",
        "algorithm",
        "x",
        "time (ms, best of 3)",
    ]);
    // One fit series per sweep case: algorithm names repeat across variants
    // ("2-approx", "class jumping"), so the variant is part of the key.
    type Series<'a> = (&'a str, String, &'a str, Vec<f64>, Vec<f64>);
    let mut series: Vec<Series<'_>> = Vec::new();
    for (experiment, variant, name, x, ms, row) in rows.into_iter().flatten() {
        if let Some(ms) = ms {
            let variant = variant.to_string();
            times.row(&[
                experiment.to_string(),
                variant.clone(),
                name.to_string(),
                x.to_string(),
                format!("{ms:.3}"),
            ]);
            let xs = match experiment {
                // S5 fits time against log Δ (the claim is a log dependence).
                "S5" => (x as f64) * std::f64::consts::LN_2,
                _ => x as f64,
            };
            match series
                .iter_mut()
                .find(|(e, v, c, _, _)| *e == experiment && *v == variant && *c == name)
            {
                Some((_, _, _, sx, sy)) => {
                    sx.push(xs);
                    sy.push(ms);
                }
                None => series.push((experiment, variant, name, vec![xs], vec![ms])),
            }
        }
        table.row(&row);
    }
    let mut fits = Table::new(&["experiment", "variant", "algorithm", "fitted exponent"]);
    for (experiment, variant, name, xs, ys) in &series {
        let slope = fit_loglog(xs, ys).unwrap_or(f64::NAN);
        fits.row(&[
            experiment.to_string(),
            variant.clone(),
            name.to_string(),
            format!("{slope:.3}"),
        ]);
    }

    let mut timing_files = Vec::new();
    if !times.is_empty() {
        timing_files.push(ArtifactFile::new("timing.csv", times.to_csv(), true));
        timing_files.push(ArtifactFile::new(
            "timing-fits.txt",
            format!(
                "# S1: exponent ~ 1 confirms near-linear time; S5 fits vs log Δ\n\n{}",
                fits.to_aligned()
            ),
            true,
        ));
    }

    Artifact {
        study: "scaling",
        deterministic: vec![
            ArtifactFile::new("scaling.csv", table.to_csv(), true),
            ArtifactFile::new("scaling.txt", table.to_aligned(), true),
        ],
        timing: timing_files,
        params: Value::Object(vec![
            ("s1_sizes".into(), int_list(sizes.iter().map(|&n| n as u64))),
            (
                "s1_shape".into(),
                Value::Str(format!(
                    "uniform: c = max(n/20, 2), m = 16, seed {UNIFORM_SEED}"
                )),
            ),
            (
                "s5_delta_log2".into(),
                int_list(deltas.iter().map(|&k| u64::from(k))),
            ),
            (
                "s5_shape".into(),
                tree(&FamilySpec::WideDelta {
                    jobs: S5_JOBS,
                    classes: S5_JOBS / 20,
                    machines: 16,
                    delta: 1u64 << deltas[0],
                    seed: DELTA_SEED,
                }),
            ),
        ]),
    }
}
