//! Class partitions and machine-count bounds for a makespan guess `T`.
//!
//! For a guess `T`, the paper partitions classes by setup size (Section 2):
//!
//! * **expensive** `I_exp`: `s_i > T/2`, further split (Section 4.1) into
//!   `I⁺_exp` (`T <= s_i + P(C_i)`), `I⁰_exp` (`3T/4 < s_i + P(C_i) < T`) and
//!   `I⁻_exp` (`s_i + P(C_i) <= 3T/4`);
//! * **cheap** `I_chp`: `s_i <= T/2`, split into `I⁺_chp` (`T/4 <= s_i`) and
//!   `I⁻_chp` (`s_i < T/4`).
//!
//! The machine-count bounds of Lemma 1 and Section 4.4 that the duals
//! read: `α'_i = ⌊P(C_i)/(T-s_i)⌋`, `β_i = ⌈2P(C_i)/T⌉`, and the γ-count
//! used by the preemptive Class-Jumping search,
//! `γ_i = max(1, ⌈(P(C_i) - (T - s_i)) / (T/2)⌉)`. (The non-preemptive
//! dual computes its `α_i = ⌈P(C_i)/(T-s_i)⌉` in integers itself.)

use bss_instance::{ClassId, Instance, JobId};
use bss_rational::Rational;

/// The class partition at makespan guess `T`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Classification {
    /// `I⁺_exp`: expensive, `T <= s_i + P(C_i)`.
    pub iexp_plus: Vec<ClassId>,
    /// `I⁰_exp`: expensive, `3T/4 < s_i + P(C_i) < T` (the large-machine classes).
    pub iexp_zero: Vec<ClassId>,
    /// `I⁻_exp`: expensive, `s_i + P(C_i) <= 3T/4`.
    pub iexp_minus: Vec<ClassId>,
    /// `I⁺_chp`: cheap, `T/4 <= s_i <= T/2`.
    pub ichp_plus: Vec<ClassId>,
    /// `I⁻_chp`: cheap, `s_i < T/4`.
    pub ichp_minus: Vec<ClassId>,
}

/// Computes the class partition at guess `t` in `O(c)`.
#[must_use]
pub fn classify(inst: &Instance, t: Rational) -> Classification {
    let mut cls = Classification::default();
    classify_into(inst, t, &mut cls);
    cls
}

/// [`classify`] into a caller-owned [`Classification`], clearing and reusing
/// its buffers — the allocation-free form used by the probe workspaces.
pub fn classify_into(inst: &Instance, t: Rational, cls: &mut Classification) {
    cls.iexp_plus.clear();
    cls.iexp_zero.clear();
    cls.iexp_minus.clear();
    cls.ichp_plus.clear();
    cls.ichp_minus.clear();
    for i in 0..inst.num_classes() {
        let s = inst.setup(i);
        let sp = s + inst.class_proc(i); // s_i + P(C_i), integer
        if Rational::from(2 * s) > t {
            // expensive
            if t <= Rational::from(sp) {
                cls.iexp_plus.push(i);
            } else if Rational::from(4 * sp) > t * 3u64 {
                cls.iexp_zero.push(i);
            } else {
                cls.iexp_minus.push(i);
            }
        } else if Rational::from(4 * s) >= t {
            cls.ichp_plus.push(i);
        } else {
            cls.ichp_minus.push(i);
        }
    }
}

/// `⌈a/b⌉` for `a >= 0`, `b > 0` (remainder form: immune to `a + b`
/// overflow).
#[inline]
fn ceil_div(a: i128, b: i128) -> i128 {
    debug_assert!(a >= 0 && b > 0);
    a / b + (a % b != 0) as i128
}

/// `⌈(p · t.den) / q_num⌉` computed gcd-free in integers when the products
/// fit `i128`; falls back to exact rational division otherwise (possible
/// only for the huge search-bracket denominators near the headroom bound).
#[inline]
fn ceil_ratio(p: u64, t_num: i128, t_den: i128, fallback: impl Fn() -> i128) -> i128 {
    match (p as i128).checked_mul(t_den) {
        Some(scaled) => ceil_div(scaled, t_num),
        None => fallback(),
    }
}

/// `t.num - s·t.den` (the scaled `T - s_i`), `None` when the product leaves
/// `i128` — then the caller takes the exact rational route, matching the
/// overflow-panics-never-wraps discipline of [`Rational`] itself.
#[inline]
fn scaled_gap(setup: u64, t: Rational) -> Option<i128> {
    let d = t.numer() - (setup as i128).checked_mul(t.denom())?;
    debug_assert!(d > 0, "alpha' requires s_i < T");
    Some(d)
}

/// `α'_i = ⌊P(C_i)/(T - s_i)⌋` (machine count used by Algorithm 2 for
/// `I⁺_exp`). Requires `s_i < T`.
#[must_use]
#[inline]
pub fn alpha_prime(inst: &Instance, t: Rational, class: ClassId) -> usize {
    let p = inst.class_proc(class);
    match scaled_gap(inst.setup(class), t).zip((p as i128).checked_mul(t.denom())) {
        Some((d, scaled)) => (scaled / d) as usize,
        None => (Rational::from(p) / (t - inst.setup(class))).floor() as usize,
    }
}

/// `β_i = ⌈2 P(C_i)/T⌉` — minimal machines for an expensive class (Lemma 1).
#[must_use]
#[inline]
pub fn beta(inst: &Instance, t: Rational, class: ClassId) -> usize {
    let p2 = 2 * inst.class_proc(class);
    ceil_ratio(p2, t.numer(), t.denom(), || (Rational::from(p2) / t).ceil()) as usize
}

/// `γ_i`: machines used by the γ-modified wrapping of `I⁺_exp` classes
/// (Section 4.4) — the minimal `k >= 1` with `k·T/2 + (T - s_i) >= P(C_i)`.
///
/// Equivalently `max(1, ⌈2(P_i + s_i - T)/T⌉)`, which jumps exactly at the
/// paper's points `T = 2(s_i + P_i)/(γ + 2)`.
#[must_use]
#[inline]
pub fn gamma(inst: &Instance, t: Rational, class: ClassId) -> usize {
    let sp2 = 2 * (inst.class_proc(class) + inst.setup(class));
    // need = (sp2·den - 2·num) / num; ceil for a possibly negative numerator.
    let fallback = || {
        let need = Rational::from(sp2) / t - 2u64;
        need.ceil().max(1) as usize
    };
    match (sp2 as i128)
        .checked_mul(t.denom())
        .zip(t.numer().checked_mul(2))
        .and_then(|(scaled, num2)| scaled.checked_sub(num2))
    {
        Some(a) => {
            let num = t.numer();
            let need = if a >= 0 { ceil_div(a, num) } else { a / num };
            need.max(1) as usize
        }
        None => fallback(),
    }
}

/// Class `class`'s jobs as `(id, time)` pairs, ids ascending, streamed from
/// the instance's class-major columns.
pub(crate) fn class_items(
    inst: &Instance,
    class: ClassId,
) -> impl Iterator<Item = (JobId, u64)> + '_ {
    let times = inst.class_times(class).iter().copied();
    inst.class_jobs(class).iter().copied().zip(times)
}

#[cfg(test)]
mod tests {
    use bss_instance::InstanceBuilder;

    use super::*;

    fn r(v: i128) -> Rational {
        Rational::from_int(v)
    }

    /// T = 100. Classes tuned to hit every partition cell.
    fn inst() -> Instance {
        let mut b = InstanceBuilder::new(8);
        b.add_batch(60, &[50, 30]); // 0: exp, s+P=140 >= 100 → I+exp
        b.add_batch(55, &[25]); // 1: exp, s+P=80 ∈ (75, 100) → I0exp
        b.add_batch(70, &[4]); // 2: exp, s+P=74 <= 75 → I−exp
        b.add_batch(30, &[20, 20]); // 3: chp, s ∈ [25, 50] → I+chp
        b.add_batch(10, &[45, 5]); // 4: chp, s < 25 → I−chp; 10+45 > 50 → C*
        b.build().unwrap()
    }

    #[test]
    fn partition_cells() {
        let cls = classify(&inst(), r(100));
        assert_eq!(cls.iexp_plus, vec![0]);
        assert_eq!(cls.iexp_zero, vec![1]);
        assert_eq!(cls.iexp_minus, vec![2]);
        assert_eq!(cls.ichp_plus, vec![3]);
        assert_eq!(cls.ichp_minus, vec![4]);
    }

    #[test]
    fn boundary_cases() {
        // s = T/2 exactly → cheap (expensive requires s > T/2 strictly).
        let mut b = InstanceBuilder::new(1);
        b.add_batch(50, &[1]);
        let inst = b.build().unwrap();
        let cls = classify(&inst, r(100));
        assert!(cls.iexp_plus.is_empty() && cls.iexp_zero.is_empty() && cls.iexp_minus.is_empty());
        assert_eq!(cls.ichp_plus, vec![0]);
        // s = T/4 exactly → I+chp.
        let cls = classify(&inst, r(200));
        assert_eq!(cls.ichp_plus, vec![0]);
        // s < T/4 → I−chp.
        let cls = classify(&inst, r(201));
        assert_eq!(cls.ichp_minus, vec![0]);
    }

    #[test]
    fn machine_counts() {
        let inst = inst();
        let t = r(100);
        // class 0: P = 80, T - s = 40 → α' = 2; β = ⌈160/100⌉ = 2.
        assert_eq!(alpha_prime(&inst, t, 0), 2);
        assert_eq!(beta(&inst, t, 0), 2);
        // γ: minimal k ≥ 1 with 50k + 40 ≥ 80 → k = 1.
        assert_eq!(gamma(&inst, t, 0), 1);
    }

    #[test]
    fn alpha_prime_floors() {
        let mut b = InstanceBuilder::new(4);
        b.add_batch(60, &[30, 30, 30]); // P = 90, T−s = 40: α' = ⌊9/4⌋ = 2
        let inst = b.build().unwrap();
        assert_eq!(alpha_prime(&inst, r(100), 0), 2);
    }

    #[test]
    fn gamma_jump_points() {
        // γ jumps exactly at T = 2(s+P)/(k+2).
        let mut b = InstanceBuilder::new(4);
        b.add_batch(60, &[70, 70]); // s+P = 200
        let inst = b.build().unwrap();
        // At T = 2*200/(1+2) = 400/3: γ = 1.
        let t1 = Rational::new(400, 3);
        assert_eq!(gamma(&inst, t1, 0), 1);
        // Slightly below: γ = 2.
        assert_eq!(gamma(&inst, Rational::new(399, 3), 0), 2);
        // At T = 2*200/(2+2) = 100: γ = 2.
        assert_eq!(gamma(&inst, r(100), 0), 2);
        assert_eq!(gamma(&inst, r(99), 0), 3);
    }

    #[test]
    fn gamma_at_least_one() {
        let mut b = InstanceBuilder::new(2);
        b.add_batch(60, &[1]);
        let inst = b.build().unwrap();
        assert_eq!(gamma(&inst, r(100), 0), 1);
    }
}
