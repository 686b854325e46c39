//! The non-preemptive 3/2-dual approximation (Theorem 9, Algorithm 6).
//!
//! All arithmetic is integral: the guess `T`, all split points (splits happen
//! at machine border `T`) and all loads are integers.
//!
//! The four steps of Algorithm 6, following Appendix D and Figures 10–13:
//!
//! 1. schedule `L = { j : s_j's class setup + t_j > T/2 }` — expensive
//!    classes wrapped *preemptively* over `α_i` machines, each big job
//!    (`J⁺`) on its own machine, borderline cheap jobs (`K`) wrapped
//!    preemptively per class;
//! 2. fill the leftover jobs `C'_i = C_i \ L` of each cheap class onto that
//!    class's own machines (no new setups), splitting at border `T`;
//! 3. place the remaining batches greedily onto machines with load `< T`,
//!    never splitting, letting items cross the border;
//! 4. repair: replace each split's first piece by its integral parent
//!    (removing the other pieces), then move every border-crossing step-3
//!    item under the next step-3 item on a later machine, adding a setup
//!    when the moved item is a job.
//!
//! The result is non-preemptive with makespan `<= 3T/2`.
//!
//! Every buffer of the build — the per-class big/borderline/light partition,
//! the fillable-machine lists, the step-3 queue, the machine stacks and the
//! repair maps — lives in the [`DualWorkspace`], so a warm
//! [`dual_into`] performs **zero** heap allocations beyond the output
//! schedule the caller provides. The build names a job by its position in
//! the instance's class-major table ([`Instance::class_major`]), so every
//! per-class pass reads times sequentially; ids are looked up only when a
//! placement is emitted.

use bss_instance::{ClassId, Instance};
use bss_rational::Rational;
use bss_schedule::Schedule;

use crate::workspace::{DualWorkspace, NpClassRange, NpItem};
use crate::{Built, ScheduleRepr, Trace};

/// The `O(n)` dual test of Theorem 9: `true` iff `T` is accepted.
#[must_use]
pub fn accepts(inst: &Instance, t: u64) -> bool {
    if t < inst.max_setup_plus_tmax() {
        return false;
    }
    let mut m_prime: u64 = 0;
    let mut l_nonp: i128 = inst.total_proc() as i128;
    for i in 0..inst.num_classes() {
        let s = inst.setup(i);
        let p = inst.class_proc(i);
        let mi: u64 = if 2 * s > t {
            // expensive: α_i = ⌈P_i / (T - s_i)⌉
            p.div_ceil(t - s)
        } else {
            let mut big = 0u64;
            let mut pk = 0u64;
            for &tj in inst.class_times(i) {
                if 2 * tj > t {
                    big += 1;
                } else if 2 * (s + tj) > t {
                    pk += tj;
                }
            }
            big + pk.div_ceil(t - s)
        };
        m_prime += mi;
        l_nonp += (mi * s) as i128;
        let xi = p as i128 - (mi as i128) * ((t - s) as i128);
        if xi > 0 {
            l_nonp += s as i128;
        }
    }
    m_prime <= inst.machines() as u64 && (inst.machines() as i128) * (t as i128) >= l_nonp
}

/// Machine stacks plus bookkeeping, borrowed from the workspace: the outer
/// vector and every inner stack keep their capacity across builds.
struct Builder<'a> {
    inst: &'a Instance,
    /// Job times by class-major position.
    times: &'a [u64],
    t: u64,
    stacks: &'a mut Vec<Vec<NpItem>>,
    loads: &'a mut Vec<u64>,
    /// Live stacks this build (`stacks[used..]` are warm spares).
    used: usize,
    seq: usize,
}

impl<'a> Builder<'a> {
    fn new(
        inst: &'a Instance,
        t: u64,
        stacks: &'a mut Vec<Vec<NpItem>>,
        loads: &'a mut Vec<u64>,
    ) -> Self {
        Builder {
            inst,
            times: inst.class_major().1,
            t,
            stacks,
            loads,
            used: 0,
            seq: 0,
        }
    }

    fn open_machine(&mut self) -> usize {
        if self.used == self.stacks.len() {
            self.stacks.push(Vec::new());
            self.loads.push(0);
        } else {
            self.stacks[self.used].clear();
        }
        self.loads[self.used] = 0;
        self.used += 1;
        self.used - 1
    }

    fn push(&mut self, u: usize, pos: Option<usize>, class: ClassId, len: u64, step3: bool) {
        debug_assert!(len > 0);
        let item = NpItem {
            pos,
            class,
            len,
            seq: self.seq,
            step3,
        };
        self.seq += 1;
        self.stacks[u].push(item);
        self.loads[u] += len;
    }

    /// Preemptive per-class wrap until border `T` with one setup per machine
    /// (used for expensive classes and for `C_i ∩ K`) of the jobs at the
    /// class-major positions `jobs`. Returns the last machine used.
    fn wrap_class(&mut self, class: ClassId, jobs: impl IntoIterator<Item = usize>) -> usize {
        let s = self.inst.setup(class);
        let mut u = self.open_machine();
        self.push(u, None, class, s, false);
        for p in jobs {
            let mut rem = self.times[p];
            while rem > 0 {
                let avail = self.t - self.loads[u];
                if rem <= avail {
                    self.push(u, Some(p), class, rem, false);
                    rem = 0;
                } else {
                    if avail > 0 {
                        self.push(u, Some(p), class, avail, false);
                        rem -= avail;
                    }
                    u = self.open_machine();
                    self.push(u, None, class, s, false);
                }
            }
        }
        u
    }

    /// Emits the stacks into `out` (cleared by the caller), mapping each
    /// piece's position back to its job id.
    fn emit_into(&self, out: &mut Schedule) {
        let ids = self.inst.class_major().0;
        for (u, stack) in self.stacks[..self.used].iter().enumerate() {
            let mut at = Rational::ZERO;
            for item in stack {
                let len = Rational::from(item.len);
                match item.pos {
                    None => out.push_setup(u, at, len, item.class),
                    Some(p) => out.push_piece(u, at, len, ids[p], item.class),
                }
                at += len;
            }
        }
    }

    /// A fresh explicit snapshot (trace rendering only — never on the warm
    /// build path).
    fn to_schedule(&self) -> Schedule {
        let mut s = Schedule::new(self.inst.machines());
        self.emit_into(&mut s);
        s
    }
}

/// [`dual_into`] into a fresh output, with the makespan the build reports.
pub(crate) fn build_in(
    ws: &mut DualWorkspace,
    inst: &Instance,
    t: u64,
    trace: &mut Trace,
) -> Option<Built> {
    let mut out = Schedule::new(inst.machines());
    let makespan = dual_into(ws, inst, t, trace, &mut out)?;
    Some(Built {
        repr: ScheduleRepr::Explicit(out),
        makespan,
    })
}

/// The 3/2-dual builder (Algorithm 6): emits a non-preemptive schedule of
/// makespan `<= 3T/2` into a caller-provided `out` (reset at entry). Runs in
/// `O(n)` up to the (rare) repair moves of step 4; the partitions, machine
/// stacks and repair buffers are all borrowed from `ws`, so after workspace
/// warm-up a build allocates nothing beyond `out`'s own growth. An enabled
/// `trace` receives a snapshot after each of the four steps (Figures 10–13).
///
/// Returns the makespan of the built schedule — its largest machine load,
/// since every machine's stack runs contiguously from time 0; `out` is not
/// rescanned — or `None` on rejection (`T < OPT`).
#[must_use]
pub fn dual_into(
    ws: &mut DualWorkspace,
    inst: &Instance,
    t: u64,
    trace: &mut Trace,
    out: &mut Schedule,
) -> Option<Rational> {
    out.reset(inst.machines());
    if !accepts(inst, t) {
        return None;
    }
    ws.prepare_for(inst);
    let c = inst.num_classes();
    let DualWorkspace {
        ref mut np_jobs,
        ref mut np_ranges,
        ref mut np_fillable,
        ref mut np_fill_ranges,
        ref mut np_queue,
        ref mut np_stacks,
        ref mut np_loads,
        ref mut np_step3,
        ref mut job_min_seq,
        ref mut job_count,
        ..
    } = *ws;
    let mut b = Builder::new(inst, t, np_stacks, np_loads);
    let times = b.times;

    // Per-class partition of class-major positions into the flat workspace
    // buffer: J+ (t_j > T/2), K (borderline), C' (light) — contiguous per
    // class.
    for i in 0..c {
        let s = inst.setup(i);
        let start = np_jobs.len() as u32;
        let mut range = NpClassRange {
            start,
            big_end: start,
            bord_end: start,
            end: start,
        };
        if 2 * s > t {
            np_ranges.push(range); // expensive classes are wrapped whole
            continue;
        }
        let first = inst.class_span(i).start;
        let class_times = inst.class_times(i);
        for (k, &tj) in class_times.iter().enumerate() {
            if 2 * tj > t {
                np_jobs.push(first + k);
            }
        }
        range.big_end = np_jobs.len() as u32;
        for (k, &tj) in class_times.iter().enumerate() {
            if 2 * tj <= t && 2 * (s + tj) > t {
                np_jobs.push(first + k);
            }
        }
        range.bord_end = np_jobs.len() as u32;
        for (k, &tj) in class_times.iter().enumerate() {
            if 2 * (s + tj) <= t {
                np_jobs.push(first + k);
            }
        }
        range.end = np_jobs.len() as u32;
        np_ranges.push(range);
    }

    // Step 1: schedule L.
    for (i, &r) in np_ranges.iter().enumerate() {
        let fill_start = np_fillable.len() as u32;
        let s = inst.setup(i);
        if 2 * s > t {
            b.wrap_class(i, inst.class_span(i));
        } else {
            for &p in &np_jobs[r.start as usize..r.big_end as usize] {
                let u = b.open_machine();
                b.push(u, None, i, s, false);
                b.push(u, Some(p), i, times[p], false);
                np_fillable.push(u);
            }
            let borderline = &np_jobs[r.big_end as usize..r.bord_end as usize];
            if !borderline.is_empty() {
                let last = b.wrap_class(i, borderline.iter().copied());
                np_fillable.push(last);
            }
        }
        np_fill_ranges.push((fill_start, np_fillable.len() as u32));
    }
    if b.used > inst.machines() {
        return None; // defensive; excluded by the m' test
    }
    if trace.is_enabled() {
        trace.snap("step 1: schedule L", &b.to_schedule());
    }

    // Step 2: fill each cheap class's light jobs onto its own machines,
    // splitting at border T; what does not fit queues for step 3.
    for i in 0..c {
        let r = np_ranges[i];
        let (fs, fe) = np_fill_ranges[i];
        let lend = r.end as usize;
        let mut k = r.bord_end as usize;
        let mut rem = if k < lend { times[np_jobs[k]] } else { 0 };
        for &u in &np_fillable[fs as usize..fe as usize] {
            while k < lend {
                let avail = b.t - b.loads[u];
                if avail == 0 {
                    break;
                }
                if rem <= avail {
                    b.push(u, Some(np_jobs[k]), i, rem, false);
                    k += 1;
                    rem = if k < lend { times[np_jobs[k]] } else { 0 };
                } else {
                    b.push(u, Some(np_jobs[k]), i, avail, false);
                    rem -= avail;
                    break;
                }
            }
        }
        // Leftovers (with the front job's remaining length) become the
        // step-3 batch of this class.
        if k < lend {
            np_queue.push(NpItem {
                pos: None,
                class: i,
                len: inst.setup(i),
                seq: 0,
                step3: true,
            });
            np_queue.push(NpItem {
                pos: Some(np_jobs[k]),
                class: i,
                len: rem,
                seq: 0,
                step3: true,
            });
            for &p in &np_jobs[k + 1..lend] {
                np_queue.push(NpItem {
                    pos: Some(p),
                    class: i,
                    len: times[p],
                    seq: 0,
                    step3: true,
                });
            }
        }
    }
    if trace.is_enabled() {
        trace.snap("step 2: fill own machines", &b.to_schedule());
    }

    // Step 3: remaining batches greedily, never splitting, items may cross T.
    let mut u = 0usize;
    let mut qi = 0usize;
    while qi < np_queue.len() {
        if u >= b.used {
            if b.used >= inst.machines() {
                return None; // defensive; excluded by the load test
            }
            b.open_machine();
        }
        if b.loads[u] >= b.t {
            u += 1;
            continue;
        }
        let item = np_queue[qi];
        qi += 1;
        b.push(u, item.pos, item.class, item.len, true);
    }
    if trace.is_enabled() {
        trace.snap("step 3: greedy fill", &b.to_schedule());
    }

    // Step 4a: make jobs integral — replace each split's first-placed piece
    // (smallest sequence number) by the parent job and remove the other
    // pieces. Two passes over the stacks with per-job min-seq/count buffers
    // from the workspace, indexed by class-major position: `O(n)` total
    // instead of a rescan of every machine per split job, and no hash map.
    // `prepare_for` cleared both buffers, so resize initializes every slot.
    job_min_seq.resize(inst.num_jobs(), usize::MAX);
    job_count.resize(inst.num_jobs(), 0);
    for stack in &b.stacks[..b.used] {
        for item in stack {
            if let Some(p) = item.pos {
                job_count[p] += 1;
                if item.seq < job_min_seq[p] {
                    job_min_seq[p] = item.seq;
                }
            }
        }
    }
    for u in 0..b.used {
        let mut k = 0;
        while k < b.stacks[u].len() {
            let item = b.stacks[u][k];
            let Some(p) = item.pos else {
                k += 1;
                continue;
            };
            if job_count[p] < 2 {
                k += 1;
            } else if item.seq == job_min_seq[p] {
                let full = times[p];
                b.loads[u] += full - item.len;
                b.stacks[u][k].len = full;
                k += 1;
            } else {
                b.loads[u] -= item.len;
                b.stacks[u].remove(k);
            }
        }
    }

    // Step 4b: machine by machine in fill order, move a border-crossing last
    // step-3 item below the next machine's step-3 run (the paper: "q′ and all
    // jobs above q′ are shifted up … s_i followed by q is placed at the free
    // place below q′"). A setup that *ends exactly on* the border also moves:
    // its jobs continued on the next machine. Each machine receives at most
    // one insertion (≤ s + t_q ≤ T) and passes on its own crossing item, so
    // loads stay ≤ 3T/2.
    np_step3.clear();
    for u in 0..b.used {
        if b.stacks[u].iter().any(|i| i.step3) {
            np_step3.push(u);
        }
    }
    for idx in 0..np_step3.len() {
        let mu = np_step3[idx];
        let Some(&last) = b.stacks[mu].last() else {
            continue;
        };
        if !last.step3 {
            continue;
        }
        let end = b.loads[mu]; // stacks are contiguous from 0
        let crosses = end > b.t || (last.pos.is_none() && end == b.t && idx + 1 < np_step3.len());
        if !crosses {
            continue;
        }
        let item = match np_step3.get(idx + 1) {
            Some(&tu) => {
                let item = b.stacks[mu].pop().expect("non-empty");
                b.loads[mu] -= item.len;
                let mut insert_at = b.stacks[tu]
                    .iter()
                    .position(|i| i.step3)
                    .expect("target has step-3 items");
                if item.pos.is_some() {
                    let s = inst.setup(item.class);
                    let setup = NpItem {
                        pos: None,
                        class: item.class,
                        len: s,
                        seq: b.seq,
                        step3: false,
                    };
                    b.seq += 1;
                    b.stacks[tu].insert(insert_at, setup);
                    b.loads[tu] += s;
                    insert_at += 1;
                }
                b.loads[tu] += item.len;
                b.stacks[tu].insert(insert_at, item);
                continue;
            }
            None => {
                // The chain's final machine: its crossing item escapes to an
                // empty machine (it exists whenever it is needed — the
                // capacity test guarantees R <= (m - m') T).
                if b.loads[mu] <= b.t + b.t / 2 {
                    continue; // already within 3T/2; nothing to do
                }
                let item = b.stacks[mu].pop().expect("non-empty");
                b.loads[mu] -= item.len;
                item
            }
        };
        let empty = (0..b.used).find(|&u| b.stacks[u].is_empty()).or_else(|| {
            if b.used < inst.machines() {
                Some(b.open_machine())
            } else {
                None
            }
        });
        // Without an empty machine, any machine with room below 3T/2 for
        // the item (plus its setup when it is a job) keeps the bound: the
        // final chain machine is processed last, so the target receives no
        // further insertions. (The capacity test usually guarantees an
        // empty machine, but the load can be exactly tight.)
        let target = empty.or_else(|| {
            let need = item.len + item.pos.map_or(0, |_| inst.setup(item.class));
            (0..b.used).find(|&u| b.loads[u] + need <= b.t + b.t / 2)
        });
        let Some(eu) = target else {
            return None; // defensive: excluded by the load test
        };
        let class = item.class;
        if item.pos.is_some() {
            let s = inst.setup(class);
            let setup = NpItem {
                pos: None,
                class,
                len: s,
                seq: b.seq,
                step3: false,
            };
            b.seq += 1;
            b.loads[eu] += s;
            b.stacks[eu].push(setup);
        }
        b.loads[eu] += item.len;
        b.stacks[eu].push(item);
    }

    // Coverage repair for exact-T fills (a step-3 run can open naked when the
    // previous machine's last item landed exactly on T and nothing crossed).
    for u in 0..b.used {
        let mut configured: Option<ClassId> = None;
        let mut fix: Option<(usize, ClassId)> = None;
        for (k, item) in b.stacks[u].iter().enumerate() {
            match item.pos {
                None => configured = Some(item.class),
                Some(_) => {
                    if configured != Some(item.class) {
                        fix = Some((k, item.class));
                        break;
                    }
                }
            }
        }
        if let Some((k, class)) = fix {
            let s = inst.setup(class);
            let setup = NpItem {
                pos: None,
                class,
                len: s,
                seq: b.seq,
                step3: false,
            };
            b.seq += 1;
            b.stacks[u].insert(k, setup);
            b.loads[u] += s;
        }
    }

    // Drop unnecessary trailing setups.
    for u in 0..b.used {
        while matches!(b.stacks[u].last(), Some(i) if i.pos.is_none()) {
            let it = b.stacks[u].pop().expect("non-empty");
            b.loads[u] -= it.len;
        }
    }

    b.emit_into(out);
    trace.snap("step 4: repaired", out);
    let makespan = Rational::from(b.loads[..b.used].iter().copied().max().unwrap_or(0));
    debug_assert!(
        makespan <= Rational::from(3 * t).half(),
        "makespan {makespan} exceeds 3T/2 at T={t}"
    );
    Some(makespan)
}

#[cfg(test)]
mod tests {
    use bss_instance::{InstanceBuilder, LowerBounds, Variant};
    use bss_schedule::validate;

    use super::*;

    fn tmin_int(inst: &Instance) -> u64 {
        LowerBounds::of(inst).tmin(Variant::NonPreemptive).ceil() as u64
    }

    fn check_at(inst: &Instance, t: u64) -> bool {
        let ws = &mut DualWorkspace::new();
        let mut s = Schedule::new(inst.machines());
        match dual_into(ws, inst, t, &mut Trace::disabled(), &mut s) {
            None => false,
            Some(makespan) => {
                assert_eq!(makespan, s.makespan(), "T={t}");
                let v = validate(&s, inst, Variant::NonPreemptive);
                assert!(v.is_empty(), "T={t}: {v:?}");
                assert!(
                    s.makespan() <= Rational::from(3 * t).half(),
                    "T={t}: makespan {}",
                    s.makespan()
                );
                true
            }
        }
    }

    #[test]
    fn accepts_at_twice_tmin() {
        for seed in 0..25 {
            let inst = bss_gen::uniform(60, 8, 4, seed);
            assert!(check_at(&inst, 2 * tmin_int(&inst)), "seed {seed}");
        }
    }

    #[test]
    fn rejects_tiny_guesses() {
        let mut b = InstanceBuilder::new(2);
        b.add_batch(10, &[20, 20]);
        let inst = b.build().unwrap();
        assert!(!accepts(&inst, 29)); // below s + tmax = 30
    }

    #[test]
    fn paper_figure10_walkthrough() {
        let inst = bss_gen::paper::fig10_nonpreemptive();
        let t = 2 * tmin_int(&inst);
        let mut trace = Trace::enabled();
        let mut s = Schedule::new(inst.machines());
        dual_into(&mut DualWorkspace::new(), &inst, t, &mut trace, &mut s).expect("accepted");
        assert!(validate(&s, &inst, Variant::NonPreemptive).is_empty());
        let labels: Vec<&str> = trace.steps().iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels.len(), 4, "{labels:?}");
    }

    #[test]
    fn step_boundaries_feasible_variants() {
        // All jobs land exactly on borders: stresses exact-T handling.
        let mut b = InstanceBuilder::new(4);
        b.add_batch(5, &[45, 45, 45, 45]); // fills machines exactly at T=50?
        b.add_batch(5, &[20, 20, 20]);
        let inst = b.build().unwrap();
        for t in [50u64, 60, 75, 100, 150, 200] {
            check_at(&inst, t);
        }
    }

    #[test]
    fn expensive_classes_wrap() {
        let mut b = InstanceBuilder::new(6);
        b.add_batch(60, &[30, 30, 30, 30]); // expensive at T <= 120
        b.add_batch(10, &[5, 5]);
        let inst = b.build().unwrap();
        let t = 2 * tmin_int(&inst);
        check_at(&inst, t);
        // Also at tight T values.
        for t in tmin_int(&inst)..tmin_int(&inst) + 30 {
            check_at(&inst, t);
        }
    }

    #[test]
    fn borderline_k_jobs() {
        // Cheap class with jobs pushing s + t over T/2.
        let mut b = InstanceBuilder::new(4);
        b.add_batch(20, &[40, 38, 35, 10, 8]); // at T=100: K = {40, 38, 35}
        b.add_batch(5, &[12, 12, 12]);
        let inst = b.build().unwrap();
        for t in [100u64, 110, 130, 160] {
            check_at(&inst, t);
        }
    }

    #[test]
    fn randomized_sweep_validates() {
        for seed in 0..20 {
            let inst = bss_gen::uniform(50, 7, 4, seed);
            let lo = tmin_int(&inst);
            for t in [lo, lo + lo / 4, lo + lo / 2, 2 * lo] {
                check_at(&inst, t);
            }
        }
        for seed in 0..10 {
            let inst = bss_gen::small_batches(60, 5, seed);
            let lo = tmin_int(&inst);
            for t in [lo, lo + 1, lo + 2, 2 * lo] {
                check_at(&inst, t);
            }
        }
    }

    /// The workspace-reusing `dual_into` is bit-identical to a fresh
    /// workspace and output, including when `out` is recycled across
    /// guesses and instances.
    #[test]
    fn dual_into_reuse_matches_fresh() {
        let mut ws = DualWorkspace::new();
        let mut out = Schedule::new(1);
        for seed in 0..10 {
            let inst = bss_gen::uniform(50, 7, 4, seed);
            let lo = tmin_int(&inst);
            for t in [lo, lo + lo / 2, 2 * lo] {
                let mut s = Schedule::new(inst.machines());
                let fresh = dual_into(
                    &mut DualWorkspace::new(),
                    &inst,
                    t,
                    &mut Trace::disabled(),
                    &mut s,
                );
                let reused = dual_into(&mut ws, &inst, t, &mut Trace::disabled(), &mut out);
                match fresh {
                    Some(makespan) => {
                        assert_eq!(makespan, s.makespan(), "seed {seed} T={t}");
                        assert_eq!(reused, Some(makespan), "seed {seed} T={t}");
                        assert_eq!(s, out, "seed {seed} T={t}");
                    }
                    None => assert!(reused.is_none(), "seed {seed} T={t}"),
                }
            }
        }
    }

    #[test]
    fn single_machine_everything() {
        let mut b = InstanceBuilder::new(1);
        b.add_batch(3, &[4, 5]);
        b.add_batch(2, &[6]);
        let inst = b.build().unwrap();
        // N = 20: accepted at T = 20.
        assert!(check_at(&inst, 20));
    }

    /// Monotone acceptance is not required for correctness, but the load and
    /// machine tests are monotone — document this with a sweep.
    #[test]
    fn acceptance_monotone_on_random_instances() {
        for seed in 0..10 {
            let inst = bss_gen::uniform(40, 6, 3, seed);
            let lo = tmin_int(&inst);
            let mut last = false;
            for t in (lo.saturating_sub(5))..(2 * lo + 5) {
                let now = accepts(&inst, t);
                assert!(!last || now, "seed {seed}, t {t}");
                last = now;
            }
        }
    }
}
