//! Study `online` — the competitive-ratio scoreboard of the paper's
//! algorithms used as *re-solve-on-arrival policies*.
//!
//! An online workload (see [`bss_gen::online`]) reveals a gate-sized base
//! instance and a stream of arrivals/departures/reveals. The policy
//! re-solves the current instance after every event — the `(3/2+ε)` policy
//! through the warm-start path of `bss-core` (seeded with the previous
//! solve's dual bracket, widened by the event's load shift), the `2-approx`
//! policy cold. Each state's makespan is certified against the exact
//! branch-and-bound optimum of that state, so the reported per-trace
//! **competitive ratio** (worst state ratio) and mean ratio are true
//! ratios vs `OPT`, in the spirit of the online-scheduling guarantees of
//! Mäcker et al. (arXiv:1504.07066).
//!
//! The study doubles as an end-to-end warm-start regression: at every
//! event the warm re-solve is asserted bit-identical to the cold solve of
//! the same state, and the CSV carries both probe totals — the measured
//! warm-start saving is a committed, golden-diffed number.
//!
//! All cells are seeded single solves — fully deterministic; no timing
//! part. Every state stays inside the exact-oracle gate (`n <= 12`,
//! `m <= 4`, `c <= 6` — the simulator's job cap plus the tiny family's
//! shape), and the branch-and-bound must close on every state.

use bss_core::{solve, solve_warm, Algorithm, WarmStart};
use bss_exact::{solve_bss, ExactConfig, ExactStatus};
use bss_gen::online::OnlineSpec;
use bss_gen::FamilySpec;
use bss_instance::{Instance, Variant};
use bss_json::Value;
use bss_rational::Rational;
use bss_report::Table;

use super::{fmt_f64, fmt_ratio, int, int_list, tree, Artifact, ArtifactFile, Grid, ReproConfig};

/// The fast seeds are a prefix of the full seeds, so every fast-grid CSV
/// row appears verbatim in the committed full-grid golden.
fn seeds(grid: Grid) -> u64 {
    match grid {
        Grid::Fast => 6,
        Grid::Full => 32,
    }
}

/// Events per trace (both grids — the fast grid subsets by seed only).
const EVENTS: usize = 8;

/// Job cap keeping every state inside the exact-oracle gate.
const MAX_JOBS: usize = 12;

/// `ε = 2^-6`, the workspace's usual `(3/2+ε)` operating point.
const EPS_LOG2: u32 = 6;

/// The online cell over a tiny base: arrival-heavy with departures and
/// reveals, capped at the oracle gate.
fn spec(seed: u64) -> OnlineSpec {
    let mut s = OnlineSpec::poisson_like(FamilySpec::Tiny { seed }, EVENTS, seed);
    s.job_range = (1, 15);
    s.max_jobs = MAX_JOBS;
    s
}

/// Per-trace accounting of one policy on one variant.
struct PolicyRun {
    comp_ratio: Rational,
    ratio_sum: f64,
    warm_probes: usize,
    cold_probes: usize,
}

/// Re-solves every state with `algo`, warm-starting when the algorithm has
/// a warm form, and certifies each state against `opts`.
fn run_policy(
    states: &[Instance],
    opts: &[Rational],
    variant: Variant,
    algo: Algorithm,
) -> PolicyRun {
    let mut acc = PolicyRun {
        comp_ratio: Rational::ONE,
        ratio_sum: 0.0,
        warm_probes: 0,
        cold_probes: 0,
    };
    let mut prev: Option<(WarmStart, u64)> = None;
    for (state, &opt) in states.iter().zip(opts) {
        let cold = solve(state, variant, algo);
        let load = state.total_load_once();
        let sol = match prev {
            None => {
                // State 0 has no previous bracket: both policies pay the
                // cold search.
                acc.warm_probes += cold.probes;
                acc.cold_probes += cold.probes;
                cold
            }
            Some((hint, prev_load)) => {
                let hint = hint.widen_by_load_shift(
                    u128::from(prev_load),
                    u128::from(load),
                    state.machines(),
                );
                let (warm, stats) = solve_warm(state, variant, algo, &hint);
                // The warm path must be invisible in everything but probes.
                assert_eq!(warm.makespan, cold.makespan, "warm/cold divergence");
                assert_eq!(warm.accepted, cold.accepted, "warm/cold divergence");
                assert_eq!(warm.certificate, cold.certificate, "warm/cold divergence");
                acc.warm_probes += stats.probes;
                acc.cold_probes += cold.probes;
                warm
            }
        };
        let ratio = sol.makespan / opt;
        assert!(
            ratio >= Rational::ONE,
            "{variant}: achieved {} below OPT {opt}",
            sol.makespan
        );
        acc.comp_ratio = acc.comp_ratio.max(ratio);
        acc.ratio_sum += ratio.to_f64();
        prev = Some((WarmStart::of(&sol), load));
    }
    acc
}

/// The policies on the scoreboard, with their stable CSV names.
const POLICIES: [(&str, Algorithm); 2] = [
    ("2-approx", Algorithm::TwoApprox),
    ("3/2+eps", Algorithm::EpsilonSearch { eps_log2: EPS_LOG2 }),
];

/// Runs the study at `cfg`.
#[must_use]
pub fn run(cfg: &ReproConfig) -> Artifact {
    let seed_list: Vec<u64> = (0..seeds(cfg.grid)).collect();
    let exact_cfg = ExactConfig::default();

    // One parallel cell per seed; each cell contributes one row per
    // (variant, policy) in a fixed order, so the assembled table is
    // independent of the thread count.
    let cells = super::sweep(cfg, "online", seed_list.clone(), move |seed| {
        let trace = spec(seed).build();
        let states: Vec<Instance> = (0..=trace.events.len())
            .map(|k| trace.state_after(k))
            .collect();
        let mut rows = Vec::new();
        for variant in [
            Variant::Splittable,
            Variant::Preemptive,
            Variant::NonPreemptive,
        ] {
            let opts: Vec<Rational> = states
                .iter()
                .map(|state| {
                    let ex = solve_bss(state, variant, &exact_cfg)
                        .expect("capped online states are within the oracle's size limits");
                    assert!(
                        ex.status == ExactStatus::Closed,
                        "{variant} seed {seed}: branch-and-bound did not close"
                    );
                    ex.upper
                })
                .collect();
            for (name, algo) in POLICIES {
                let p = run_policy(&states, &opts, variant, algo);
                rows.push(vec![
                    seed.to_string(),
                    variant.to_string(),
                    name.to_string(),
                    states.len().to_string(),
                    fmt_ratio(p.comp_ratio),
                    fmt_f64(p.ratio_sum / states.len() as f64),
                    p.warm_probes.to_string(),
                    p.cold_probes.to_string(),
                ]);
            }
        }
        rows
    });

    let mut table = Table::new(&[
        "seed",
        "variant",
        "policy",
        "states",
        "comp_ratio",
        "mean_ratio",
        "warm_probes",
        "cold_probes",
    ]);
    // (variant, policy) -> (worst comp ratio, warm probe sum, cold probe
    // sum, trace count); keyed in first-seen order, fixed by the row order.
    let mut summary: Vec<(String, String, f64, u64, u64, u64)> = Vec::new();
    for row in cells.into_iter().flatten().flatten() {
        let comp: f64 = row[4].parse().expect("fmt_ratio emits parseable decimals");
        let warm: u64 = row[6].parse().expect("probe counts are integers");
        let cold: u64 = row[7].parse().expect("probe counts are integers");
        match summary.iter_mut().find(|s| s.0 == row[1] && s.1 == row[2]) {
            Some(s) => {
                s.2 = s.2.max(comp);
                s.3 += warm;
                s.4 += cold;
                s.5 += 1;
            }
            None => summary.push((row[1].clone(), row[2].clone(), comp, warm, cold, 1)),
        }
        table.row(&row);
    }

    let mut agg = Table::new(&[
        "variant",
        "policy",
        "worst_comp_ratio",
        "warm_probes",
        "cold_probes",
        "probe_saving",
    ]);
    for (variant, policy, worst, warm, cold, _) in &summary {
        let saving = if *cold == 0 {
            0.0
        } else {
            1.0 - (*warm as f64) / (*cold as f64)
        };
        agg.row(&[
            variant.clone(),
            policy.clone(),
            fmt_f64(*worst),
            warm.to_string(),
            cold.to_string(),
            fmt_f64(saving),
        ]);
    }

    let text = format!(
        "# online: competitive ratio of re-solve-on-arrival policies vs the exact OPT\n\
         # of every revealed state; warm_probes counts the dual tests the warm-start\n\
         # path actually ran (cold_probes is what re-solving from scratch costs).\n\
         # Warm and cold solutions are asserted bit-identical at every state.\n\n{}\n\
         # per variant x policy: worst competitive ratio and total probe saving\n\n{}",
        table.to_aligned(),
        agg.to_aligned()
    );

    Artifact {
        study: "online",
        deterministic: vec![
            ArtifactFile::new("online.csv", table.to_csv(), true),
            ArtifactFile::new("online.txt", text, true),
        ],
        timing: Vec::new(),
        params: Value::Object(vec![
            ("seeds".into(), int_list(seed_list.iter().copied())),
            ("events".into(), int(EVENTS)),
            ("max_jobs".into(), int(MAX_JOBS)),
            ("spec".into(), tree(&spec(0))),
            (
                "policies".into(),
                Value::Array(
                    POLICIES
                        .iter()
                        .map(|&(name, _)| Value::Str(name.into()))
                        .collect(),
                ),
            ),
            (
                "exact_max_nodes".into(),
                Value::Int(i128::from(ExactConfig::default().max_nodes)),
            ),
        ]),
    }
}
