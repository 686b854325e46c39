//! Handcrafted instances shaped like the paper's figures.
//!
//! The paper's figures are schedule diagrams produced by running the
//! algorithms on small example instances. The exact numbers behind the
//! figures are not published, so these constructors build instances with the
//! same *structure* (which classes are expensive/cheap, how many machines
//! each class needs, which algorithm branch fires); the `repro-figures`
//! binary then renders the actual algorithm output next to the paper's
//! caption. [`case_3a`] adds the instances that drive Algorithm 3 into its
//! knapsack case at an accepted guess.

use bss_instance::{Instance, InstanceBuilder};

/// Figure 1: splittable 3/2-dual with `I_exp = {1,2,3,4}` and
/// `I_chp = {5,6,7,8}` (0-indexed: 0–3 expensive, 4–7 cheap).
///
/// At the algorithm's accepted makespan (≈ 100) the four expensive classes
/// need several machines each (different β_i), and the cheap classes wrap
/// over the leftover and empty machines between `T/2` and `3T/2`.
#[must_use]
pub fn fig1_splittable() -> Instance {
    let mut b = InstanceBuilder::new(12);
    // Expensive: setups > T/2 ≈ 50.
    b.add_batch(60, &[60, 60, 60]); // class 0: P=180
    b.add_batch(70, &[65, 65]); // class 1: P=130
    b.add_batch(80, &[40]); // class 2: P=40
    b.add_batch(55, &[45, 45]); // class 3: P=90

    // Cheap: setups <= 50.
    b.add_batch(30, &[20, 20, 20]); // class 4
    b.add_batch(20, &[25, 25]); // class 5
    b.add_batch(40, &[40, 40]); // class 6
    b.add_batch(10, &[15, 15]); // class 7
    b.build().expect("valid figure instance")
}

/// Figure 2: a *nice* preemptive instance (empty `I⁰_exp`) with
/// `I⁺_exp = {1, 2}` needing two machines each, a couple of `I⁻_exp`
/// classes paired on machines, and cheap classes wrapped at the top.
#[must_use]
pub fn fig2_nice_preemptive() -> Instance {
    let mut b = InstanceBuilder::new(9);
    // I+exp: s > T/2, s + P >= T (T ≈ 120).
    b.add_batch(65, &[55, 55, 40]); // class 0: s+P = 215 (α' ≈ 2)
    b.add_batch(70, &[50, 50, 20]); // class 1: s+P = 190

    // I−exp: s > T/2, s + P <= 3T/4 = 90 … needs T ≈ 120: s=61, P=20 → 81.
    b.add_batch(61, &[20]); // class 2
    b.add_batch(62, &[18]); // class 3
    b.add_batch(63, &[15]); // class 4

    // Cheap classes.
    b.add_batch(20, &[30, 30, 25]); // class 5
    b.add_batch(10, &[22, 22]); // class 6
    b.add_batch(5, &[12, 12, 12]); // class 7
    b.build().expect("valid figure instance")
}

/// Figures 3, 4, 9: a general preemptive instance with non-empty `I⁰_exp`
/// (two classes owning a *large machine* each), `I⁺_exp = {1,2}` and enough
/// light-cheap load (`I⁻_chp`, including big jobs `C*`) that the knapsack
/// branch 3.a fires.
#[must_use]
pub fn fig3_general_preemptive() -> Instance {
    let mut b = InstanceBuilder::new(10);
    // Target T ≈ 120.
    // I0exp: 3/4 T < s + P < T → (90, 120): s=61, P=35 → 96; s=65, P=40 → 105.
    b.add_batch(61, &[35]); // class 0 (large machine)
    b.add_batch(65, &[25, 15]); // class 1 (large machine)

    // I+exp: s + P >= T.
    b.add_batch(70, &[60, 60, 30]); // class 2
    b.add_batch(75, &[55, 55]); // class 3

    // I+chp: T/4 <= s <= T/2 → [30, 60].
    b.add_batch(35, &[30, 30]); // class 4

    // I−chp with big jobs (s + t > T/2 = 60): class 5 has C* jobs.
    b.add_batch(20, &[45, 45, 10]); // class 5: 20+45 = 65 > 60 → C* = {45, 45}
    b.add_batch(15, &[50, 8]); // class 6: 15+50 = 65 > 60 → C* = {50}

    // Plain light cheap load.
    b.add_batch(5, &[12, 12, 12, 12]); // class 7
    b.add_batch(8, &[18, 18]); // class 8
    b.build().expect("valid figure instance")
}

/// Figure 5: the γ-modified wrapping of `I⁺_exp` classes used by the
/// preemptive Class-Jumping search; same shape as Figure 2 but with
/// processing volumes that make `γ_i < β_i` visible.
#[must_use]
pub fn fig5_gamma_preemptive() -> Instance {
    let mut b = InstanceBuilder::new(8);
    b.add_batch(65, &[50, 50, 50, 30]); // class 0: P = 180
    b.add_batch(70, &[60, 60, 15]); // class 1: P = 135
    b.add_batch(62, &[20]); // class 2 (I−exp)
    b.add_batch(25, &[30, 30, 20]); // class 3 cheap
    b.add_batch(12, &[15, 15, 15]); // class 4 cheap
    b.build().expect("valid figure instance")
}

/// Figure 7: the next-fit 2-approximation example with `m = c = 5`.
#[must_use]
pub fn fig7_next_fit() -> Instance {
    let mut b = InstanceBuilder::new(5);
    b.add_batch(9, &[14, 11, 8]); // class 0
    b.add_batch(7, &[13, 9, 6]); // class 1
    b.add_batch(11, &[16, 7]); // class 2
    b.add_batch(6, &[12, 10, 5]); // class 3
    b.add_batch(8, &[15, 9]); // class 4
    b.build().expect("valid figure instance")
}

/// Figures 10–13: the non-preemptive 3/2-dual walkthrough with
/// `1 ∈ I_exp` and `{2,3,4,5} ⊆ I_chp` (0-indexed: class 0 expensive).
///
/// Class 1 owns big jobs (`J⁺`) and borderline jobs (`K`), so step 1 uses
/// both per-job machines and a preemptive K-wrap, steps 2–3 fill up, and
/// step 4's repair is non-trivial.
#[must_use]
pub fn fig10_nonpreemptive() -> Instance {
    let mut b = InstanceBuilder::new(12);
    // Target T ≈ 100.
    b.add_batch(60, &[35, 35, 35, 30, 25]); // class 0: expensive, α = 4
    b.add_batch(20, &[55, 52, 40, 35, 12, 10]); // class 1: J+ = {55, 52}, K = {40, 35}
    b.add_batch(15, &[38, 11, 9]); // class 2: K = {38}
    b.add_batch(10, &[20, 18, 7]); // class 3
    b.add_batch(5, &[16, 14, 6, 4]); // class 4
    b.build().expect("valid figure instance")
}

/// Figure 6's wrap-template illustration and Figure 8's Lemma-11 reordering
/// need only a tiny two-class instance.
#[must_use]
pub fn fig8_lemma11() -> Instance {
    let mut b = InstanceBuilder::new(3);
    // One I0exp class (s + P in (3/4 T, T) for T ≈ 100) plus filler.
    b.add_batch(55, &[40]); // class 0: s+P = 95
    b.add_batch(10, &[30, 30, 25, 20]); // class 1: cheap filler
    b.add_batch(8, &[22, 18]); // class 2
    b.build().expect("valid figure instance")
}

/// Six instances whose preemptive builds take case 3.a of Algorithm 3
/// (the continuous knapsack over the light-cheap classes with big jobs) at
/// the accepted guess of every 3/2 solve: one `I⁰_exp` class per machine
/// but one, and big jobs that do not all fit outside the large machines.
///
/// The first four have a single light-cheap class, which the knapsack
/// splits. The last two have three, so the knapsack takes one whole, splits
/// one and leaves one out: every branch of the case-3.a build runs, and in
/// the fifth the class left out also has a small job.
///
/// The seeded families of this crate never build in case 3.a (they reach it
/// only at rejected guesses), so these are written out; they are small
/// enough for the exact oracle of `bss-exact`.
#[must_use]
pub fn case_3a() -> Vec<Instance> {
    /// An instance's batches: `(setup, job times)` per class.
    type Batches = &'static [(u64, &'static [u64])];
    /// `(machines, batches)` per instance.
    const SHAPES: [(usize, Batches); 6] = [
        (2, &[(60, &[30]), (10, &[50, 50])]),
        (3, &[(61, &[27]), (58, &[33]), (12, &[47, 51, 44])]),
        (
            4,
            &[(57, &[31]), (66, &[22]), (59, &[35]), (11, &[49, 57, 52])],
        ),
        (2, &[(61, &[29]), (9, &[46, 52]), (3, &[1, 2, 2])]),
        (
            4,
            &[
                (63, &[21]),
                (62, &[23]),
                (58, &[27]),
                (7, &[49, 6]),
                (4, &[52, 2]),
                (4, &[54]),
            ],
        ),
        (
            4,
            &[
                (58, &[23]),
                (55, &[25]),
                (55, &[25]),
                (5, &[56]),
                (7, &[47]),
                (4, &[55]),
            ],
        ),
    ];
    SHAPES
        .iter()
        .map(|&(machines, batches)| {
            let mut b = InstanceBuilder::new(machines);
            for &(setup, jobs) in batches {
                b.add_batch(setup, jobs);
            }
            b.build().expect("valid case-3.a instance")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figure_instances_build() {
        for inst in [
            fig1_splittable(),
            fig2_nice_preemptive(),
            fig3_general_preemptive(),
            fig5_gamma_preemptive(),
            fig7_next_fit(),
            fig10_nonpreemptive(),
            fig8_lemma11(),
        ]
        .into_iter()
        .chain(case_3a())
        {
            assert!(inst.num_jobs() > 0);
            assert!(inst.machines() > 0);
        }
    }

    #[test]
    fn fig1_has_expected_class_split() {
        let inst = fig1_splittable();
        assert_eq!(inst.num_classes(), 8);
        // At T = 100: classes 0..4 expensive (s > 50), 4..8 cheap.
        for i in 0..4 {
            assert!(inst.setup(i) > 50);
        }
        for i in 4..8 {
            assert!(inst.setup(i) <= 50);
        }
    }

    #[test]
    fn fig7_matches_paper_shape() {
        let inst = fig7_next_fit();
        assert_eq!(inst.machines(), 5);
        assert_eq!(inst.num_classes(), 5);
    }

    #[test]
    fn fig10_class1_has_big_and_borderline_jobs() {
        let inst = fig10_nonpreemptive();
        // At T = 100: class 0 expensive.
        assert!(inst.setup(0) > 50);
        // class 1: jobs 55 and 52 are J+ (t > 50); 40 and 35 are K
        // (t <= 50 but s + t > 50).
        let times: Vec<u64> = inst
            .class_jobs(1)
            .iter()
            .map(|&j| inst.job(j).time)
            .collect();
        assert!(times.contains(&55) && times.contains(&40));
    }
}
