//! `bss` — command-line front end for batch-setup scheduling.
//!
//! ```text
//! bss generate --preset uniform --jobs 1000 --classes 50 --machines 8 --seed 1 > inst.json
//! bss generate --preset seqdep-triangle --classes 40 --machines 6 > sd.json
//! bss bounds inst.json
//! bss solve inst.json --variant preemptive --algorithm three-halves --render
//! bss solve sd.json --variant seqdep --render
//! bss solve inst.json --variant splittable --schedule-out sched.json
//! bss validate inst.json sched.json --variant splittable
//! ```

use std::process::ExitCode;

use batch_setup_scheduling::prelude::*;
use batch_setup_scheduling::report::{render_gantt, solution_summary, GanttOptions};
use batch_setup_scheduling::seqdep::{self as seqdep, SeqDepInstance};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(name) => match COMMANDS.iter().find(|c| c.name == name) {
            Some(cmd) => cmd
                .check_flags(&args[1..])
                .and_then(|()| (cmd.run)(&args[1..])),
            None => Err(format!("unknown command `{name}`\n{USAGE}")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
bss — near-linear approximation algorithms for scheduling with batch setup times

USAGE:
  bss generate --preset <uniform|small-batches|single-job|expensive|zipf
                        |all-expensive|seqdep-uniform|seqdep-tsp|seqdep-triangle>
               [--jobs N] [--classes C] [--machines M] [--seed S]
  bss bounds   <instance.json> [--variant V]
  bss solve    <instance.json> [--variant V] [--algorithm A] [--render]
               [--schedule-out FILE] [--deadline-ms MS] [--budget PROBES]
  bss batch    <instance.json>... [--variant V] [--algorithm A] [--threads N]
               [--deadline-ms MS] [--budget PROBES]
  bss validate <instance.json> <schedule.json> [--variant V]
  bss serve    [--addr HOST:PORT] [--threads N] [--cache N] [--queue N]
  bss loadgen  --addr HOST:PORT [--connections N] [--requests N] [--distinct N]
               [--jobs N] [--classes C] [--machines M] [--seed S]
               [--variant V] [--algorithm A] [--deadline-ms MS] [--rate R]

  V: non-preemptive | preemptive | splittable | seqdep (default: non-preemptive)
  A: two-approx | eps:<log2> | three-halves | portfolio (default: three-halves)

  `--deadline-ms` / `--budget` solve under an anytime budget (wall-clock
  milliseconds / dual-probe count): on expiry the best certified solution so
  far is returned with an honestly widened ratio bound, and the summary gains
  a `completion` line saying which limit tripped.

  `batch` solves many batch-setup instances on one warm workspace pool,
  one result line per file; a budget covers the whole batch (finished items
  keep their results, the tail is skipped). Its `--threads N` (default: the
  machine's available parallelism, at least 1) sizes the pool.

  `--variant seqdep` reads a sequence-dependent instance (switch-cost matrix
  wire format); uniform instances route through the batch-setup reduction
  with the proven 3/2 bound, general ones through the heuristic dual.

  `serve` runs the solver as a long-lived TCP daemon (length-prefixed JSON
  frames, see bss-serve) with a content-hash solve cache: cache misses
  solve on warm workspaces, at most `--threads` at once, and once `--queue`
  requests are waiting for a slot the rest are shed with a typed reply
  (`--threads` defaults to one per core).
  `loadgen` drives a running server with a seeded request mix — closed-loop
  by default, open-loop at `--rate R` requests/s per connection — prints
  sustained solves/s with p50/p90/p99 latency, and fails when any request
  was shed or failed.";

/// A subcommand and the flags its usage line lists.
struct Command {
    name: &'static str,
    run: fn(&[String]) -> Result<(), String>,
    /// Flags that take a value.
    values: &'static [&'static str],
    /// Flags that take none.
    switches: &'static [&'static str],
}

impl Command {
    /// Rejects a `--` argument the usage line does not list, and a value
    /// flag given without a value: a misspelled `--deadline-ms` must not
    /// quietly solve without a budget.
    fn check_flags(&self, args: &[String]) -> Result<(), String> {
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if self.values.contains(&arg.as_str()) {
                if rest.next().is_none() {
                    return Err(format!(
                        "`{arg}` of `bss {}` needs a value\n{USAGE}",
                        self.name
                    ));
                }
            } else if arg.starts_with("--") && !self.switches.contains(&arg.as_str()) {
                return Err(format!(
                    "unknown flag `{arg}` for `bss {}`\n{USAGE}",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        run: cmd_generate,
        values: &["--preset", "--jobs", "--classes", "--machines", "--seed"],
        switches: &[],
    },
    Command {
        name: "bounds",
        run: cmd_bounds,
        values: &["--variant"],
        switches: &[],
    },
    Command {
        name: "solve",
        run: cmd_solve,
        values: &[
            "--variant",
            "--algorithm",
            "--schedule-out",
            "--deadline-ms",
            "--budget",
        ],
        switches: &["--render"],
    },
    Command {
        name: "batch",
        run: cmd_batch,
        values: &[
            "--variant",
            "--algorithm",
            "--threads",
            "--deadline-ms",
            "--budget",
        ],
        switches: &[],
    },
    Command {
        name: "validate",
        run: cmd_validate,
        values: &["--variant"],
        switches: &[],
    },
    Command {
        name: "serve",
        run: cmd_serve,
        values: &["--addr", "--threads", "--cache", "--queue"],
        switches: &[],
    },
    Command {
        name: "loadgen",
        run: cmd_loadgen,
        values: &[
            "--addr",
            "--connections",
            "--requests",
            "--distinct",
            "--jobs",
            "--classes",
            "--machines",
            "--seed",
            "--variant",
            "--algorithm",
            "--deadline-ms",
            "--rate",
        ],
        switches: &[],
    },
];

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// What `--variant` selects: a batch-setup variant or the
/// sequence-dependent problem.
enum Target {
    Bss(Variant),
    SeqDep,
}

fn parse_target(args: &[String]) -> Result<Target, String> {
    match flag(args, "--variant").as_deref() {
        None => Ok(Target::Bss(Variant::NonPreemptive)),
        Some("seqdep") => Ok(Target::SeqDep),
        Some(v) => Variant::ALL
            .into_iter()
            .find(|variant| variant.name() == v)
            .map(Target::Bss)
            .ok_or_else(|| format!("unknown variant `{v}`")),
    }
}

fn parse_variant(args: &[String]) -> Result<Variant, String> {
    match parse_target(args)? {
        Target::Bss(v) => Ok(v),
        Target::SeqDep => Err(
            "this command supports the batch-setup variants only; sequence-dependent \
             schedules are confirmed by the evaluator at solve time"
                .into(),
        ),
    }
}

fn parse_algorithm(args: &[String]) -> Result<Algorithm, String> {
    flag(args, "--algorithm").map_or(Ok(Algorithm::ThreeHalves), |a| a.parse())
}

/// Parses the anytime-budget flags. `None` when neither flag is given —
/// callers then take the plain (bit-identical to pre-anytime) solve path.
fn parse_budget(args: &[String]) -> Result<Option<SolveBudget>, String> {
    let deadline_ms: Option<u64> = flag(args, "--deadline-ms")
        .map(|v| {
            v.parse()
                .map_err(|_| format!("bad --deadline-ms `{v}` (expected milliseconds)"))
        })
        .transpose()?;
    let work: Option<u64> = flag(args, "--budget")
        .map(|v| {
            v.parse()
                .map_err(|_| format!("bad --budget `{v}` (expected a probe count)"))
        })
        .transpose()?;
    if deadline_ms.is_none() && work.is_none() {
        return Ok(None);
    }
    let mut budget = SolveBudget::unlimited();
    if let Some(ms) = deadline_ms {
        budget = budget.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(w) = work {
        budget = budget.with_work_limit(w);
    }
    Ok(Some(budget))
}

/// Parses `bss batch`'s `--threads`. Defaults to the machine's available
/// parallelism (1 when the runtime cannot tell); zero is rejected — a batch
/// needs at least one worker.
fn parse_threads(args: &[String]) -> Result<usize, String> {
    match flag(args, "--threads") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("bad --threads `{v}` (expected a count >= 1)")),
        },
        None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
    }
}

fn load_instance(path: &str) -> Result<Instance, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Instance::from_json(&json).map_err(|e| format!("{path}: {e}"))
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let jobs = flag(args, "--jobs").map_or(Ok(1000), |v| v.parse().map_err(|_| "bad --jobs"))?;
    let machines =
        flag(args, "--machines").map_or(Ok(8), |v| v.parse().map_err(|_| "bad --machines"))?;
    let seed = flag(args, "--seed").map_or(Ok(0), |v| v.parse().map_err(|_| "bad --seed"))?;
    let preset = flag(args, "--preset").unwrap_or_else(|| "uniform".into());
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    if machines == 0 {
        return Err("--machines must be at least 1".into());
    }
    // The generators require 1 <= classes <= jobs: an explicit --classes
    // outside that range is an error, the default scales with n.
    let classes = match flag(args, "--classes") {
        Some(v) => {
            let c: usize = v.parse().map_err(|_| "bad --classes")?;
            if c == 0 || c > jobs {
                return Err(format!("--classes must be in [1, --jobs]; got {c}"));
            }
            c
        }
        None => (jobs / 20).max(1),
    };
    // The sequence-dependent presets emit the seqdep wire format (their
    // size is the class count; `--jobs` does not apply).
    match preset.as_str() {
        "seqdep-uniform" => {
            let inst = batch_setup_scheduling::gen::seqdep::uniform_setups(classes, machines, seed);
            println!("{}", inst.to_json());
            return Ok(());
        }
        "seqdep-tsp" => {
            let inst = batch_setup_scheduling::gen::seqdep::tsp_path(classes, seed);
            println!("{}", inst.to_json());
            return Ok(());
        }
        "seqdep-triangle" => {
            let inst =
                batch_setup_scheduling::gen::seqdep::triangle_violating(classes, machines, seed);
            println!("{}", inst.to_json());
            return Ok(());
        }
        _ => {}
    }
    let inst = match preset.as_str() {
        "uniform" => batch_setup_scheduling::gen::uniform(jobs, classes, machines, seed),
        "small-batches" => batch_setup_scheduling::gen::small_batches(jobs, machines, seed),
        "single-job" => batch_setup_scheduling::gen::single_job_batches(jobs, machines, seed),
        "expensive" => batch_setup_scheduling::gen::expensive_setups(jobs, machines, seed),
        "all-expensive" => {
            if classes >= machines {
                return Err(format!(
                    "all-expensive needs --classes < --machines; got {classes} >= {machines}"
                ));
            }
            batch_setup_scheduling::gen::all_expensive(jobs, classes, machines, seed)
        }
        "zipf" => batch_setup_scheduling::gen::zipf_classes(jobs, classes, machines, seed),
        other => return Err(format!("unknown preset `{other}`")),
    };
    println!("{}", inst.to_json());
    Ok(())
}

fn load_seqdep(path: &str) -> Result<SeqDepInstance, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    SeqDepInstance::from_json(&json).map_err(|e| format!("{path}: {e}"))
}

fn cmd_bounds(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing instance path")?;
    if matches!(parse_target(args)?, Target::SeqDep) {
        let inst = load_seqdep(path)?;
        let t_min = seqdep::t_min(&inst);
        let t_safe = batch_setup_scheduling::core::SeqDepProblem::new(&inst)
            .uniform_reduction()
            .map_or_else(
                || "heuristic dual (no proven window)".to_string(),
                |_| "uniform: OPT window [T_min, 2*T_min] via reduction".to_string(),
            );
        println!(
            "c = {}, m = {}, sequential weight = {}",
            inst.num_classes(),
            inst.machines(),
            inst.sequential_weight()
        );
        println!("seqdep         T_min = {t_min}   {t_safe}");
        return Ok(());
    }
    let inst = load_instance(path)?;
    let lb = LowerBounds::of(&inst);
    println!(
        "n = {}, c = {}, m = {}, N = {}, s_max = {}, Δ = {}",
        inst.num_jobs(),
        inst.num_classes(),
        inst.machines(),
        inst.total_load_once(),
        inst.smax(),
        inst.delta()
    );
    for variant in Variant::ALL {
        let (lo, hi) = lb.opt_window(variant);
        println!("{variant:<15} T_min = {lo}   OPT ∈ [{lo}, {hi}]");
    }
    Ok(())
}

fn cmd_solve(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing instance path")?;
    let algo = parse_algorithm(args)?;
    match parse_target(args)? {
        Target::SeqDep => cmd_solve_seqdep(path, algo, args),
        Target::Bss(variant) => {
            let inst = load_instance(path)?;
            let budget = parse_budget(args)?;
            let opts = SolveOptions {
                budget: budget.as_ref(),
                warm: None,
            };
            let start = std::time::Instant::now();
            let sol = solve_problem(
                &mut DualWorkspace::new(),
                &BssProblem::new(&inst, variant),
                algo,
                &opts,
            )
            .map_err(|e| format!("solve failed: {e}"))?;
            let elapsed = start.elapsed();
            let violations = validate(sol.schedule(), &inst, variant);
            if !violations.is_empty() {
                return Err(format!("internal error: infeasible output: {violations:?}"));
            }
            print!("{}", solution_summary(&variant.to_string(), &sol));
            println!("solve time     {elapsed:.2?}");
            if has_flag(args, "--render") {
                let opts = GanttOptions {
                    reference_t: Some(sol.accepted),
                    ..GanttOptions::default()
                };
                print!("{}", render_gantt(sol.schedule(), &inst, &opts));
            }
            write_schedule_out(args, &sol)
        }
    }
}

/// The sequence-dependent path of `bss solve`: same metrics, same renderer;
/// feasibility is confirmed by the seqdep evaluator (the schedule's class
/// orders re-priced with `machine_time` must reproduce the makespan bound).
fn cmd_solve_seqdep(path: &str, algo: Algorithm, args: &[String]) -> Result<(), String> {
    let inst = load_seqdep(path)?;
    let problem = batch_setup_scheduling::core::SeqDepProblem::new(&inst);
    let budget = parse_budget(args)?;
    let opts = SolveOptions {
        budget: budget.as_ref(),
        warm: None,
    };
    let start = std::time::Instant::now();
    let sol = solve_problem(&mut DualWorkspace::new(), &problem, algo, &opts)
        .map_err(|e| format!("solve failed: {e}"))?;
    let elapsed = start.elapsed();
    match problem.uniform_reduction() {
        Some(reduced) => {
            // Confirm through the reduction round trip: orders re-priced by
            // the seqdep evaluator stay within the proven bound.
            let orders = seqdep::reduce::orders_from_schedule(sol.schedule(), reduced);
            inst.check_orders(&orders)
                .map_err(|e| format!("internal error: infeasible output: {e}"))?;
            let confirmed = Rational::from(inst.makespan(&orders));
            if confirmed > sol.ratio_bound * sol.accepted {
                return Err("internal error: evaluator exceeds the proven bound".into());
            }
            println!("regime         uniform special case -> batch-setup reduction (proven 3/2)");
        }
        None => {
            // Confirm the general regime too: reconstruct each machine's
            // class order from the schedule (first appearance, setup or
            // piece) and re-price it with the exact evaluator — the
            // reported makespan must reproduce within the solve's bound.
            let mut orders: Vec<Vec<usize>> = vec![Vec::new(); inst.machines()];
            for (u, order) in orders.iter_mut().enumerate() {
                for p in sol.schedule().machine_timeline(u) {
                    let class = match p.kind {
                        ItemKind::Setup(c) => c,
                        ItemKind::Piece { class, .. } => class,
                    };
                    if order.last() != Some(&class) {
                        order.push(class);
                    }
                }
            }
            while matches!(orders.last(), Some(o) if o.is_empty()) {
                orders.pop();
            }
            match inst.check_orders(&orders) {
                Ok(()) => {
                    let confirmed = Rational::from(inst.makespan(&orders));
                    if confirmed != sol.makespan || confirmed > sol.ratio_bound * sol.accepted {
                        return Err(format!(
                            "internal error: evaluator re-prices to {confirmed}, solver \
                             reported {}",
                            sol.makespan
                        ));
                    }
                    println!("regime         general (heuristic dual; evaluator-confirmed)");
                }
                Err(e) if e.contains("unscheduled") => {
                    // Zero-cost classes leave no placements; their position
                    // cannot be reconstructed, so the re-pricing is skipped
                    // (the solver-side invariants still hold).
                    println!(
                        "regime         general (heuristic dual; confirmation skipped: \
                         zero-cost classes)"
                    );
                }
                Err(e) => return Err(format!("internal error: infeasible output: {e}")),
            }
        }
    }
    print!("{}", solution_summary("seqdep", &sol));
    println!("solve time     {elapsed:.2?}");
    if has_flag(args, "--render") {
        // The seqdep schedule is a standard explicit schedule; render it
        // against the cached reduction's legend when one exists.
        let opts = GanttOptions {
            reference_t: Some(sol.accepted),
            ..GanttOptions::default()
        };
        match problem.uniform_reduction() {
            Some(r) => print!("{}", render_gantt(sol.schedule(), r, &opts)),
            None => println!("(gantt rendering requires the uniform special case)"),
        }
    }
    write_schedule_out(args, &sol)
}

/// `bss batch` — solve many batch-setup instances on one warm
/// [`SolvePool`]. Paths come first, flags after; a budget covers the whole
/// batch (finished items keep their results, the unstarted tail is skipped).
fn cmd_batch(args: &[String]) -> Result<(), String> {
    let split = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let (paths, opts) = args.split_at(split);
    if paths.is_empty() {
        return Err("missing instance paths (list the files before any flags)".into());
    }
    let variant = parse_variant(opts)?;
    let algo = parse_algorithm(opts)?;
    let threads = parse_threads(opts)?;
    let budget = parse_budget(opts)?;
    let instances = paths
        .iter()
        .map(|p| load_instance(p))
        .collect::<Result<Vec<_>, _>>()?;
    let mut pool = SolvePool::with_threads(threads);
    let start = std::time::Instant::now();
    let (results, interrupt) = match &budget {
        Some(b) => {
            let out = pool.solve_batch_budgeted(&instances, variant, algo, b);
            (out.results, out.interrupt)
        }
        None => {
            let full = pool.solve_batch(&instances, variant, algo);
            (full.into_iter().map(Some).collect(), None)
        }
    };
    let elapsed = start.elapsed();
    let mut solved = 0usize;
    for (path, res) in paths.iter().zip(&results) {
        match res {
            Some(Ok(sol)) => {
                solved += 1;
                let completion = match sol.completion {
                    Completion::Full => String::new(),
                    ref other => format!(", completion = {other}"),
                };
                println!(
                    "{path}: makespan = {}, accepted T = {}, ratio <= {}, probes = {}{completion}",
                    sol.makespan, sol.accepted, sol.ratio_bound, sol.probes
                );
            }
            Some(Err(e)) => println!("{path}: error: {e}"),
            None => println!("{path}: skipped (batch budget exhausted before this item)"),
        }
    }
    if let Some(i) = interrupt {
        println!("interrupt      {i}");
    }
    println!(
        "batch          {solved}/{} solved on {threads} thread(s) in {elapsed:.2?}",
        paths.len()
    );
    if solved < paths.len() {
        return Err(format!("{} item(s) did not finish", paths.len() - solved));
    }
    Ok(())
}

/// `bss serve` — run the solve service until killed.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let parse_opt = |name: &str, default: usize| -> Result<usize, String> {
        match flag(args, name) {
            Some(v) => v.parse().map_err(|_| format!("bad {name} `{v}`")),
            None => Ok(default),
        }
    };
    let defaults = batch_setup_scheduling::serve::ServeConfig::default();
    let config = batch_setup_scheduling::serve::ServeConfig {
        addr: flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7341".into()),
        workers: parse_opt("--threads", 0)?,
        cache_capacity: parse_opt("--cache", defaults.cache_capacity)?,
        queue_capacity: parse_opt("--queue", defaults.queue_capacity)?,
        ..defaults
    };
    let server =
        batch_setup_scheduling::serve::spawn(config).map_err(|e| format!("bind failed: {e}"))?;
    println!("bss-serve listening on {}", server.addr());
    println!(
        "stop with {} sent as one frame (4-byte big-endian length, then the JSON), or SIGKILL",
        bss_json::encode(&batch_setup_scheduling::serve::Request::Shutdown { id: 0 })
    );
    server.join();
    Ok(())
}

/// `bss loadgen` — drive a running server and report throughput/latency.
fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    use batch_setup_scheduling::serve::{LoadMode, LoadgenConfig};
    let addr = flag(args, "--addr").ok_or("missing --addr (the server to drive)")?;
    let parse_opt = |name: &str, default: usize| -> Result<usize, String> {
        match flag(args, name) {
            Some(v) => v.parse().map_err(|_| format!("bad {name} `{v}`")),
            None => Ok(default),
        }
    };
    let defaults = LoadgenConfig::default();
    let mode = match flag(args, "--rate") {
        None => LoadMode::Closed,
        Some(v) => LoadMode::Open {
            rate_per_conn: v.parse().map_err(|_| format!("bad --rate `{v}`"))?,
        },
    };
    let deadline_ms = flag(args, "--deadline-ms")
        .map(|v| v.parse().map_err(|_| format!("bad --deadline-ms `{v}`")))
        .transpose()?;
    let seed = flag(args, "--seed")
        .map(|v| v.parse().map_err(|_| format!("bad --seed `{v}`")))
        .transpose()?
        .unwrap_or(defaults.seed);
    let config = LoadgenConfig {
        addr,
        connections: parse_opt("--connections", defaults.connections)?,
        requests: parse_opt("--requests", defaults.requests)?,
        distinct: parse_opt("--distinct", defaults.distinct)?,
        jobs: parse_opt("--jobs", defaults.jobs)?,
        classes: parse_opt("--classes", defaults.classes)?,
        machines: parse_opt("--machines", defaults.machines)?,
        seed,
        variant: parse_variant(args)?,
        algo: parse_algorithm(args)?,
        deadline_ms,
        mode,
    };
    let report = batch_setup_scheduling::serve::loadgen::run(&config)
        .map_err(|e| format!("load generation failed: {e}"))?;
    println!("{}", report.render());
    let requests = config.requests as u64;
    if report.solved < requests {
        return Err(format!(
            "{} of {requests} request(s) were shed or failed",
            requests - report.solved
        ));
    }
    Ok(())
}

fn write_schedule_out(args: &[String], sol: &Solution) -> Result<(), String> {
    if let Some(out) = flag(args, "--schedule-out") {
        let json = sol.schedule().to_json();
        std::fs::write(&out, json).map_err(|e| format!("{out}: {e}"))?;
        println!("schedule       written to {out}");
    }
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let inst_path = args.first().ok_or("missing instance path")?;
    let sched_path = args.get(1).ok_or("missing schedule path")?;
    let inst = load_instance(inst_path)?;
    let json = std::fs::read_to_string(sched_path).map_err(|e| format!("{sched_path}: {e}"))?;
    let schedule = Schedule::from_json(&json).map_err(|e| format!("{sched_path}: {e}"))?;
    let variant = parse_variant(args)?;
    let violations = validate(&schedule, &inst, variant);
    if violations.is_empty() {
        println!(
            "feasible ({variant}); makespan = {}, {} setups",
            schedule.makespan(),
            schedule.num_setups()
        );
        Ok(())
    } else {
        for v in &violations {
            eprintln!("violation: {v}");
        }
        Err(format!("{} violation(s)", violations.len()))
    }
}
