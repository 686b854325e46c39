//! Measurement machinery shared by every workload: the closed-loop runner,
//! percentiles, peak memory, the span recorder of the traced replay, and the
//! certified-field comparison of the correctness gate.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use bss_core::{Completion, Solution};
use bss_instance::ContentHasher;
use bss_rational::Rational;
use bss_schedule::{ItemKind, Schedule};
use bss_serve::{ClientError, WireSolution};

/// Deterministic seed derivation (splitmix64 over the mixed words), so a
/// workload's every input is a pure function of `--seed`.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Why one operation did not complete.
#[derive(Debug, Clone, Copy)]
pub enum Failure {
    /// Admission control refused the request.
    Shed,
    /// The server answered with a typed error.
    Server,
    /// The client failed (socket, framing, decode, id mismatch).
    Client,
}

impl Failure {
    pub fn of_client(err: &ClientError) -> Self {
        match err {
            ClientError::Server { .. } => Failure::Server,
            _ => Failure::Client,
        }
    }
}

/// Completed operations per latency window: each window's p99 then has at
/// least ten samples beyond it.
pub const WINDOW_OPS: usize = 1000;

/// A window in which the hypervisor stole more than this share of the
/// guest's CPU time measures the neighbours, not the program; such windows
/// are left out while at least one clean window remains.
pub const MAX_STEAL: f64 = 0.05;

/// How often the host's CPU counters are sampled during a loop.
const STEAL_SAMPLE: Duration = Duration::from_millis(100);

/// The guest's cumulative `(steal, total)` CPU time in clock ticks, from the
/// aggregate line of `/proc/stat` (`(0, 0)` where it is unavailable).
fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .map(|line| {
            line.split_whitespace()
                .take(8)
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// One window of consecutive completed operations.
pub struct Window<'a> {
    /// `(completion, latency)` of each operation, ns.
    pub samples: &'a [(u64, u64)],
    /// The span the window covers, ns from the loop's start.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Share of the guest's CPU time the host stole during the span.
    pub steal: f64,
}

/// The timed phase of one closed-loop run.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Every completed timed operation as `(completion, latency)` in ns,
    /// completion measured from the loop's start, in completion order.
    pub samples: Vec<(u64, u64)>,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Failed operations, timed or warm-up, by cause.
    pub sheds: u64,
    pub server_errors: u64,
    pub client_errors: u64,
    /// Operations run before timing started (per caller).
    pub warmup_ops: usize,
    /// When the timed phase began, ns from the loop's start.
    pub start_ns: u64,
    /// Peak resident memory after a fixed number of timed operations, MiB.
    pub peak_rss_mb: f64,
    /// `(time ns, steal, total)` CPU-tick samples taken during the loop.
    ticks: Vec<(u64, u64, u64)>,
}

impl LoopStats {
    pub fn failed(&self) -> u64 {
        self.sheds + self.server_errors + self.client_errors
    }

    /// Every timed latency, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, ns)| ns_to_ms(ns)).collect()
    }

    /// Steal share between the tick samples enclosing `[start, end]`.
    fn steal_between(&self, start: u64, end: u64) -> f64 {
        let before = self
            .ticks
            .iter()
            .rev()
            .find(|t| t.0 <= start)
            .or(self.ticks.first());
        let after = self.ticks.iter().find(|t| t.0 >= end).or(self.ticks.last());
        match (before, after) {
            (Some(a), Some(b)) if b.2 > a.2 => (b.1 - a.1) as f64 / (b.2 - a.2) as f64,
            _ => 0.0,
        }
    }

    /// Consecutive windows of at least [`WINDOW_OPS`] completed operations
    /// (one window when the run completed fewer).
    pub fn windows(&self) -> Vec<Window<'_>> {
        let n = self.samples.len();
        let count = (n / WINDOW_OPS).max(1);
        let mut start_ns = self.start_ns;
        (0..count)
            .map(|i| {
                let samples = &self.samples[i * n / count..(i + 1) * n / count];
                let end_ns = samples.last().map_or(start_ns, |s| s.0);
                let window = Window {
                    samples,
                    start_ns,
                    end_ns,
                    steal: self.steal_between(start_ns, end_ns),
                };
                start_ns = end_ns;
                window
            })
            .collect()
    }

    /// The windows the host did not disturb (all of them when every window
    /// was disturbed).
    pub fn clean_windows(&self) -> Vec<Window<'_>> {
        let (clean, stolen): (Vec<_>, Vec<_>) = self
            .windows()
            .into_iter()
            .partition(|w| w.steal <= MAX_STEAL);
        if clean.is_empty() {
            stolen
        } else {
            clean
        }
    }

    /// Completed operations per second over the clean windows.
    pub fn throughput(&self) -> f64 {
        let windows = self.clean_windows();
        let ops: usize = windows.iter().map(|w| w.samples.len()).sum();
        let ns: u64 = windows.iter().map(|w| w.end_ns - w.start_ns).sum();
        ops as f64 / (ns as f64 / 1e9)
    }

    /// The median over the clean windows of each window's latency quantile
    /// `q`, ms: a burst of host noise moves one window, not the figure.
    pub fn windowed_ms(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .clean_windows()
            .iter()
            .map(|w| {
                percentile(
                    &w.samples
                        .iter()
                        .map(|&(_, ns)| ns_to_ms(ns))
                        .collect::<Vec<_>>(),
                    q,
                )
            })
            .collect();
        median(&per_window)
    }
}

/// Runs one closed loop per caller state: each caller issues its next
/// operation only when the previous one completed. `warmup` operations per
/// caller run first and are excluded from timing; then every caller runs
/// operations until `seconds` have passed since the shared start. Peak
/// memory is read once the first caller has completed `rss_after` timed
/// operations, so that it reflects a fixed amount of work, not the speed.
/// The host's steal counters are sampled alongside, so that windows the
/// hypervisor disturbed can be told apart.
///
/// `op(state, caller, k)` performs operation `k` of `caller` and returns the
/// latency it measured itself, so work outside the operation (recording
/// results for the correctness gate) stays out of the latency sample.
pub fn closed_loop<S, F>(
    states: &mut [S],
    warmup: usize,
    seconds: f64,
    rss_after: usize,
    op: F,
) -> LoopStats
where
    S: Send,
    F: Fn(&mut S, usize, usize) -> Result<Duration, Failure> + Sync,
{
    let barrier = Barrier::new(states.len());
    let origin = Instant::now();
    let done = AtomicBool::new(false);
    let (per_caller, ticks) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut ticks = Vec::new();
            while !done.load(Ordering::Relaxed) {
                let (steal, total) = cpu_ticks();
                ticks.push((origin.elapsed().as_nanos() as u64, steal, total));
                std::thread::sleep(STEAL_SAMPLE);
            }
            let (steal, total) = cpu_ticks();
            ticks.push((origin.elapsed().as_nanos() as u64, steal, total));
            ticks
        });
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(caller, state)| {
                let (barrier, op) = (&barrier, &op);
                scope.spawn(move || {
                    let mut fails = [0u64; 3];
                    let mut count = |f: Failure| fails[f as usize] += 1;
                    for k in 0..warmup {
                        if let Err(f) = op(state, caller, k) {
                            count(f);
                        }
                    }
                    barrier.wait();
                    let start = origin.elapsed();
                    let deadline = origin + start + Duration::from_secs_f64(seconds);
                    let mut samples = Vec::new();
                    let mut attempted = 0u64;
                    let mut rss = None;
                    let mut k = warmup;
                    while Instant::now() < deadline {
                        attempted += 1;
                        match op(state, caller, k) {
                            Ok(d) => samples
                                .push((origin.elapsed().as_nanos() as u64, d.as_nanos() as u64)),
                            Err(f) => count(f),
                        }
                        k += 1;
                        if caller == 0 && samples.len() == rss_after {
                            rss = Some(peak_rss_mb());
                        }
                    }
                    (start, samples, attempted, fails, rss)
                })
            })
            .collect();
        let per_caller: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("a caller thread panicked"))
            .collect();
        done.store(true, Ordering::Relaxed);
        (
            per_caller,
            sampler.join().expect("the tick sampler panicked"),
        )
    });
    let mut stats = LoopStats {
        warmup_ops: warmup,
        start_ns: per_caller
            .iter()
            .map(|r| r.0.as_nanos() as u64)
            .min()
            .expect("at least one caller"),
        peak_rss_mb: per_caller[0].4.unwrap_or_else(peak_rss_mb),
        ticks,
        ..LoopStats::default()
    };
    for (_, samples, attempted, fails, _) in per_caller {
        stats.samples.extend(samples);
        stats.attempted += attempted;
        stats.sheds += fails[Failure::Shed as usize];
        stats.server_errors += fails[Failure::Server as usize];
        stats.client_errors += fails[Failure::Client as usize];
    }
    stats.samples.sort_unstable();
    stats
}

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 1]`).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median, averaging the two middle values of an even-sized sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

/// Every certified field a served reply carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certified {
    pub makespan: Rational,
    pub accepted: Rational,
    pub certificate: Rational,
    pub ratio_bound: Rational,
    pub completion: Completion,
    pub probes: u64,
}

impl Certified {
    pub fn of(sol: &Solution) -> Self {
        Self::of_wire(&WireSolution::of(sol, false))
    }

    pub fn of_wire(w: &WireSolution) -> Self {
        Certified {
            makespan: w.makespan,
            accepted: w.accepted,
            certificate: w.certificate,
            ratio_bound: w.ratio_bound,
            completion: w.completion,
            probes: w.probes,
        }
    }

    /// Equal in every field except `probes` (the warm path probes less by
    /// design).
    pub fn same_but_probes(&self, other: &Self) -> bool {
        Certified {
            probes: other.probes,
            ..self.clone()
        } == *other
    }
}

fn write_rational(h: &mut ContentHasher, r: Rational) {
    for v in [r.numer(), r.denom()] {
        h.write_u64(v as u64);
        h.write_u64((v >> 64) as u64);
    }
}

/// FNV digest of an explicit schedule: two schedules with the same digest
/// are, up to a 64-bit collision, placement-for-placement identical.
pub fn schedule_digest(s: &Schedule) -> u64 {
    let mut h = ContentHasher::new();
    h.write_usize(s.machines());
    for p in s.placements() {
        h.write_usize(p.machine);
        write_rational(&mut h, p.start);
        write_rational(&mut h, p.len);
        match p.kind {
            ItemKind::Setup(class) => {
                h.write_u8(0);
                h.write_usize(class);
            }
            ItemKind::Piece { job, class } => {
                h.write_u8(1);
                h.write_usize(job);
                h.write_usize(class);
            }
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Traced replay
// ---------------------------------------------------------------------------

/// The span wrapping one replayed operation; its children are the layer
/// calls the live operation makes, in the server's order.
pub const ROOT: &str = "op";

/// The span wrapping extra calls made only to measure a layer in isolation
/// (a probe or build at the accepted guess); kept out of the operation.
pub const SIDE: &str = "side";

/// One recorded span: a call into one layer during replayed operation `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u32,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Disabled, it only runs the wrapped calls, so
/// the same replay code measures the tracing overhead.
pub struct Tracer {
    on: bool,
    origin: Instant,
    op: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts operation `op`; later spans belong to it.
    pub fn begin_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Each span's self time: its duration minus the part its children
    /// cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Per layer name, the per-operation total self time (ns) of every
    /// operation that entered the layer.
    pub fn self_times_by_layer(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut per_op: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            *per_op.entry((s.name, s.op)).or_default() += self_ns;
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for ((name, _), ns) in per_op {
            out.entry(name).or_default().push(ns);
        }
        out
    }

    /// Per operation, the summed self times of every span under the root
    /// span `root` (the root's own glue excluded).
    pub fn layer_sum_per_op(&self, root: &'static str) -> Vec<u64> {
        let self_ns = self.self_ns();
        let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut r = i;
            while let Some(p) = self.spans[r].parent {
                r = p;
            }
            if self.spans[r].name == root {
                let sum = sums.entry(s.op).or_default();
                if r != i {
                    *sum += self_ns[i];
                }
            }
        }
        sums.into_values().collect()
    }

    /// Writes the spans as JSON lines after a header line.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
