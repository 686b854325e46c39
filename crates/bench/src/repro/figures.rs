//! Study `figures` — Figures 1–13 of the paper as ASCII Gantt charts
//! produced by the instrumented algorithms on the handcrafted
//! figure-shaped instances of `bss_gen::paper`.
//!
//! Entirely deterministic (the instances are fixed and the duals are
//! seedless), so every file is grid-insensitive and byte-diffed by even the
//! fast CI job. No timing part.

use bss_core::{preemptive, two_approx, BssProblem, DualWorkspace, Problem, Trace};
use bss_instance::{Instance, LowerBounds, Variant};
use bss_json::Value;
use bss_rational::Rational;
use bss_report::{render_gantt, GanttOptions};
use bss_schedule::Schedule;

use super::{Artifact, ArtifactFile, ReproConfig};

fn opts(t: Rational) -> GanttOptions {
    GanttOptions {
        reference_t: Some(t),
        ..GanttOptions::default()
    }
}

struct Figures {
    files: Vec<ArtifactFile>,
}

impl Figures {
    fn push(&mut self, name: &str, caption: &str, body: &str) {
        self.files.push(ArtifactFile::new(
            &format!("{name}.txt"),
            format!("{caption}\n\n{body}"),
            false,
        ));
    }

    fn push_steps(
        &mut self,
        name_prefix: &str,
        caption: &str,
        inst: &Instance,
        t: Rational,
        trace: &Trace,
        labels: &[(&str, &str)], // (suffix, paper caption)
    ) {
        for ((suffix, paper), (step, snap)) in labels.iter().zip(trace.steps()) {
            let body = render_gantt(snap, inst, &opts(t));
            self.push(
                &format!("{name_prefix}{suffix}"),
                &format!("{caption}\n{paper}\n[algorithm step: {step}; T = {t}]"),
                &body,
            );
        }
    }
}

/// Finds an accepted guess for a dual via the certified window.
fn accepted_guess(
    inst: &Instance,
    variant: Variant,
    accepts: impl Fn(Rational) -> bool,
) -> Rational {
    let t_min = LowerBounds::of(inst).tmin(variant);
    let mut lo = t_min;
    let mut hi = t_min * 2u64;
    if accepts(lo) {
        return lo;
    }
    for _ in 0..24 {
        let mid = (lo + hi).half();
        if accepts(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Runs the study (the configuration carries no knobs for it — the paper's
/// figures are fixed).
#[must_use]
pub fn run(_cfg: &ReproConfig) -> Artifact {
    let mut out = Figures { files: Vec::new() };

    // Figures 1(a)/1(b): splittable dual steps.
    {
        let inst = bss_gen::paper::fig1_splittable();
        let problem = BssProblem::new(&inst, Variant::Splittable);
        let t = accepted_guess(&inst, Variant::Splittable, |t| {
            problem.probe(&mut DualWorkspace::new(), t)
        });
        let mut trace = Trace::enabled();
        problem
            .build(&mut DualWorkspace::new(), t, &mut trace)
            .expect("accepted");
        out.push_steps(
            "fig1",
            "Figure 1: the splittable 3/2-dual (I_exp = {A..D}, I_chp = {E..H})",
            &inst,
            t,
            &trace,
            &[
                ("a", "(a) Situation after step (1)"),
                ("b", "(b) Situation after step (2)"),
            ],
        );
    }

    // Figure 2: Algorithm 2 on a nice instance (alpha' mode).
    {
        let inst = bss_gen::paper::fig2_nice_preemptive();
        let t = accepted_guess(&inst, Variant::Preemptive, |t| {
            preemptive::is_nice(&inst, t)
                && preemptive::nice_dual(&inst, t, preemptive::CountMode::AlphaPrime).is_some()
        });
        let s =
            preemptive::nice_dual(&inst, t, preemptive::CountMode::AlphaPrime).expect("accepted");
        out.push(
            "fig2",
            &format!("Figure 2: Algorithm 2 on a nice instance (I+exp = {{A, B}}); T = {t}"),
            &render_gantt(&s, &inst, &opts(t)),
        );
    }

    // Figures 3, 4, 9: the general preemptive dual, step snapshots.
    {
        let inst = bss_gen::paper::fig3_general_preemptive();
        let problem = BssProblem::new(&inst, Variant::Preemptive);
        let t = accepted_guess(&inst, Variant::Preemptive, |t| {
            problem.probe(&mut DualWorkspace::new(), t)
        });
        let mut trace = Trace::enabled();
        problem
            .build(&mut DualWorkspace::new(), t, &mut trace)
            .expect("accepted");
        out.push_steps(
            "fig",
            "Figures 3/4/9: the general preemptive 3/2-dual (Algorithm 3)",
            &inst,
            t,
            &trace,
            &[
                (
                    "3",
                    "Figure 3: situation after step 1 (large machines for I0exp)",
                ),
                (
                    "4",
                    "Figure 4: the bottom of the large machines (K+/K− placement)",
                ),
                ("9", "Figure 9: completed schedule (Lemma 10)"),
            ],
        );
    }

    // Figure 5: the gamma-modified wrapping (Class Jumping machinery).
    {
        let inst = bss_gen::paper::fig5_gamma_preemptive();
        let t = accepted_guess(&inst, Variant::Preemptive, |t| {
            preemptive::is_nice(&inst, t)
                && preemptive::nice_dual(&inst, t, preemptive::CountMode::Gamma).is_some()
        });
        let s = preemptive::nice_dual(&inst, t, preemptive::CountMode::Gamma).expect("accepted");
        out.push(
            "fig5",
            &format!("Figure 5: gamma-modified Algorithm 2 (Section 4.4); T = {t}"),
            &render_gantt(&s, &inst, &opts(t)),
        );
    }

    // Figure 6: a wrap template's anatomy.
    {
        use bss_instance::InstanceBuilder;
        use bss_wrap::{wrap, Template, WrapSequence};
        let mut b = InstanceBuilder::new(4);
        b.add_batch(2, &[6, 7, 8, 3]);
        let inst = b.build().expect("figure instance is valid");
        let t = Rational::from(12u64);
        let template = Template::from_gaps(vec![
            (0, Rational::from(3u64), Rational::from(12u64)),
            (1, Rational::from(2u64), Rational::from(9u64)),
            (2, Rational::from(4u64), Rational::from(11u64)),
            (3, Rational::from(2u64), Rational::from(6u64)),
        ]);
        let mut q = WrapSequence::new();
        q.push_batch(
            0,
            Rational::from(2u64),
            inst.class_jobs(0)
                .iter()
                .map(|&j| (j, Rational::from(inst.job(j).time))),
        );
        let placed = wrap(&q, &template, inst.setups(), 4).expect("fits");
        let s: Schedule = placed.expand().expect("in range");
        out.push(
            "fig6",
            "Figure 6: a wrap template with |omega| = 4 gaps, filled by Wrap\n\
             (gaps were [3,12) [2,9) [4,11) [2,6); moved setups sit below gaps)",
            &render_gantt(&s, &inst, &opts(t)),
        );
    }

    // Figure 7: the next-fit 2-approximation, before/after repair.
    {
        let inst = bss_gen::paper::fig7_next_fit();
        let t = LowerBounds::of(&inst).tmin(Variant::NonPreemptive);
        let mut trace = Trace::enabled();
        let _ = two_approx::greedy_with_makespan(&inst, &mut trace);
        out.push_steps(
            "fig7",
            "Figure 7: next-fit 2-approximation with m = c = 5 (threshold T_min)",
            &inst,
            t,
            &trace,
            &[
                (
                    "-left",
                    "left: next-fit schedule, items crossing T_min hatched",
                ),
                (
                    "-right",
                    "right: after moving border items (with fresh setups)",
                ),
            ],
        );
    }

    // Figure 8: the Lemma 11 large-machine placement.
    {
        let inst = bss_gen::paper::fig8_lemma11();
        let problem = BssProblem::new(&inst, Variant::Preemptive);
        let t = accepted_guess(&inst, Variant::Preemptive, |t| {
            problem.probe(&mut DualWorkspace::new(), t)
        });
        let mut trace = Trace::enabled();
        problem
            .build(&mut DualWorkspace::new(), t, &mut trace)
            .expect("accepted");
        if let Some((_, snap)) = trace.steps().first() {
            out.push(
                "fig8",
                &format!(
                    "Figure 8: modification of a large machine (Lemma 11): the I0exp\n\
                     batch starts at T/2, the band below stays free; T = {t}"
                ),
                &render_gantt(snap, &inst, &opts(t)),
            );
        }
    }

    // Figures 10-13: the non-preemptive dual, steps 1-4.
    {
        let inst = bss_gen::paper::fig10_nonpreemptive();
        let t_int = {
            let t_min = LowerBounds::of(&inst).tmin(Variant::NonPreemptive).ceil() as u64;
            let mut lo = t_min;
            let mut hi = 2 * t_min;
            if bss_core::nonpreemptive::accepts(&inst, lo) {
                lo
            } else {
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if bss_core::nonpreemptive::accepts(&inst, mid) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                hi
            }
        };
        let t = Rational::from(t_int);
        let mut trace = Trace::enabled();
        BssProblem::new(&inst, Variant::NonPreemptive)
            .build(&mut DualWorkspace::new(), t, &mut trace)
            .expect("accepted");
        out.push_steps(
            "fig1",
            "Figures 10-13: the non-preemptive 3/2-dual (Algorithm 6)",
            &inst,
            t,
            &trace,
            &[
                (
                    "0",
                    "Figure 10: after step 1 (schedule L: J+, expensive wraps, K wraps)",
                ),
                (
                    "1",
                    "Figure 11: after step 2 (fill own machines, splits allowed)",
                ),
                (
                    "2",
                    "Figure 12: after step 3 (greedy fill, items may cross T)",
                ),
                (
                    "3",
                    "Figure 13: after step 4 (repair: integral jobs, moved items)",
                ),
            ],
        );
    }

    let names = Value::Array(
        out.files
            .iter()
            .map(|f| Value::Str(f.name.clone()))
            .collect(),
    );
    Artifact {
        study: "figures",
        deterministic: out.files,
        timing: Vec::new(),
        params: Value::Object(vec![
            (
                "instances".into(),
                Value::Str("bss_gen::paper handcrafted figure instances (seedless)".into()),
            ),
            ("figures".into(), names),
        ]),
    }
}
