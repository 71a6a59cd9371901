//! `benchmark` — the repository's closed-loop benchmark of the survey
//! pipeline: three workloads, end-to-end metrics with regression bounds,
//! a per-layer ledger, and a correctness gate on every run. README.md has
//! the metric dictionary and the reasons for each workload.

mod compare;
mod json;
mod metrics;
mod runner;
mod span;
mod workload;

use json::{obj, Json};
use metrics::{Metric, END_TO_END, PER_LAYER};
use runner::{summary, Run};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use workload::{Workload, WORKLOADS};

const USAGE: &str = "usage:
  benchmark [--seed N] [--reps N] [--out DIR]
      Every workload, round-robin: --reps timed runs each (default 5), then
      one traced run each. Prints every metric, writes DIR/results.jsonl and
      DIR/<workload>.trace.json (default DIR: target/benchmark).
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
      One workload, runs back to back for about S seconds (default 10; at
      least one run), plus one traced run with --trace 1. The last line of
      stdout is one JSON object: correct, attempted, failed and the medians
      of the end-to-end (--trace 0) or per-layer (--trace 1) metrics.
  benchmark compare PARENT.jsonl CHANGE.jsonl
      Verdicts per workload and end-to-end metric; per-layer side by side.";

/// No single-workload invocation outlives this, children included.
const INVOCATION_LIMIT_S: f64 = 170.0;

struct Opts {
    seed: u64,
    reps: u32,
    out: Option<PathBuf>,
    workload: Option<&'static Workload>,
    seconds: f64,
    trace: bool,
    run: u32,
    trace_out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 2019,
        reps: 5,
        out: None,
        workload: None,
        seconds: 10.0,
        trace: false,
        run: 0,
        trace_out: None,
    };
    fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("bad value {value:?} for {flag}"))
    }
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => o.seed = num(flag, value)?,
            "--reps" => o.reps = num(flag, value)?,
            "--run" => o.run = num(flag, value)?,
            "--seconds" => o.seconds = num(flag, value)?,
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--workload" => {
                o.workload = Some(
                    workload::find(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--out" => o.out = Some(value.into()),
            "--trace-out" => o.trace_out = Some(value.into()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if o.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    Ok(o)
}

/// A number with about six significant digits.
pub fn fmt_num(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

/// A share as a signed percentage.
pub fn fmt_pct(share: f64) -> String {
    format!("{:+.1}%", 100.0 * share)
}

fn timeout(w: &Workload) -> Duration {
    Duration::from_secs_f64(5.0 * w.expected_s)
}

/// Seed, machine and toolchain of a set of runs.
fn provenance(seed: u64, reps: u32) -> Json {
    let cmd = |prog: &str, args: &[&str]| {
        Command::new(prog)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    obj([
        ("type", Json::from("meta")),
        ("seed", Json::Num(seed as f64)),
        ("reps", Json::Num(reps as f64)),
        ("nproc", Json::Num(workload::nproc() as f64)),
        ("shards", Json::Num(workload::SHARDS as f64)),
        ("workers", Json::Num(workload::workers() as f64)),
        ("cpu", Json::from(cpu)),
        ("rustc", Json::from(cmd("rustc", &["-V"]))),
        ("git_head", Json::from(cmd("git", &["rev-parse", "HEAD"]))),
    ])
}

fn write_jsonl(path: &Path, meta: &Json, runs: &[Run]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = format!("{meta}\n");
    for r in runs {
        text.push_str(&format!("{}\n", r.to_json()));
    }
    std::fs::write(path, text)
}

fn log_run(r: &Run) {
    let wall = r.metrics.get("wall_s").map_or("-".into(), |v| fmt_num(*v));
    let kind = if r.traced { "traced run" } else { "run" };
    match r.ok {
        true => eprintln!("[benchmark] {} {kind} {}: {wall} s", r.workload, r.run),
        false => eprintln!(
            "[benchmark] {} {kind} {}: FAILED: {}",
            r.workload,
            r.run,
            r.reasons.join("; ")
        ),
    }
}

fn row(runs: &[Run], m: &Metric) -> String {
    let s = summary(runs, m.name);
    let f = |v: Option<f64>| v.map_or("-".into(), fmt_num);
    let mut line = format!(
        "  {:<26} {:<9} {:>13} {:>13} {:>13} {:>3}  {:<6}",
        m.name,
        m.unit,
        f(s.map(|s| s.median)),
        f(s.map(|s| s.q1)),
        f(s.map(|s| s.q3)),
        s.map_or(0, |s| s.n),
        m.better.as_str()
    );
    if m.layer == "end-to-end" {
        line.push_str(&format!("  bound {}", fmt_pct(m.bound)));
    } else {
        line.push_str(&format!("  [{}]", m.layer));
    }
    line
}

/// Every metric of one workload by name with its unit, self time per span
/// of the traced run, and the reason for every failed run.
fn report(w: &Workload, runs: &[Run]) -> String {
    let traced = runs.iter().filter(|r| r.traced).count();
    let failed = runs.iter().filter(|r| !r.ok).count();
    let mut out = format!(
        "== {}: {} timed + {traced} traced runs, {failed} failed ==\n   ({})\n",
        w.name,
        runs.len() - traced,
        w.why
    );
    out.push_str(&format!(
        "  {:<26} {:<9} {:>13} {:>13} {:>13} {:>3}  better\n",
        "metric", "unit", "median", "q1", "q3", "n"
    ));
    for m in END_TO_END.iter().chain(PER_LAYER) {
        out.push_str(&row(runs, m));
        out.push('\n');
    }
    if let Some(t) = runs.iter().find(|r| r.traced && r.ok) {
        out.push_str("  self time per span, traced run (s):\n");
        let mut spans: Vec<_> = t.self_s.iter().collect();
        spans.sort_by(|a, b| b.1.total_cmp(a.1));
        for (name, s) in spans {
            out.push_str(&format!("    {name:<28} {:>12}\n", fmt_num(*s)));
        }
    }
    for r in runs.iter().filter(|r| !r.ok) {
        out.push_str(&format!(
            "  FAILED run {}: {}\n",
            r.run,
            r.reasons.join("; ")
        ));
    }
    out
}

/// Every workload, round-robin, then one traced run each.
fn full(o: &Opts) -> i32 {
    let out = o
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/benchmark"));
    let meta = provenance(o.seed, o.reps);
    println!("# benchmark {meta}");
    let mut runs: Vec<Vec<Run>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for rep in 0..o.reps {
        for (w, set) in WORKLOADS.iter().zip(&mut runs) {
            let r = runner::spawn(w, o.seed, rep, false, None, timeout(w));
            log_run(&r);
            set.push(r);
        }
    }
    for (w, set) in WORKLOADS.iter().zip(&mut runs) {
        let trace = out.join(format!("{}.trace.json", w.name));
        let r = runner::spawn(w, o.seed, o.reps, true, Some(&trace), timeout(w));
        log_run(&r);
        set.push(r);
    }
    for set in &mut runs {
        runner::cross_check(set);
    }
    for (w, set) in WORKLOADS.iter().zip(&runs) {
        println!("{}", report(w, set));
    }
    let all: Vec<Run> = runs.concat();
    let path = out.join("results.jsonl");
    if let Err(e) = write_jsonl(&path, &meta, &all) {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
        return 1;
    }
    println!("# results: {}", path.display());
    let failed = all.iter().filter(|r| !r.ok).count();
    if failed > 0 {
        println!("# {failed} of {} runs failed", all.len());
        1
    } else {
        0
    }
}

/// One workload for about `--seconds`, reported as one JSON line.
fn single(o: &Opts, w: &'static Workload) -> i32 {
    let start = Instant::now();
    let left =
        || Duration::from_secs_f64((INVOCATION_LIMIT_S - start.elapsed().as_secs_f64()).max(1.0));
    let mut runs = Vec::new();
    loop {
        let r = runner::spawn(
            w,
            o.seed,
            runs.len() as u32,
            false,
            None,
            timeout(w).min(left()),
        );
        log_run(&r);
        runs.push(r);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / runs.len() as f64 > o.seconds {
            break;
        }
    }
    if o.trace {
        let trace = o
            .out
            .as_ref()
            .map(|dir| dir.join(format!("{}.trace.json", w.name)));
        let n = runs.len() as u32;
        let r = runner::spawn(w, o.seed, n, true, trace.as_deref(), timeout(w).min(left()));
        log_run(&r);
        runs.push(r);
    }
    runner::cross_check(&mut runs);
    eprint!("{}", report(w, &runs));
    if let Some(dir) = &o.out {
        let path = dir.join("results.jsonl");
        if let Err(e) = write_jsonl(&path, &provenance(o.seed, runs.len() as u32), &runs) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
        }
    }
    let set: Vec<&Metric> = if o.trace {
        PER_LAYER.iter().collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.name != "fail_ratio")
            .collect()
    };
    let metrics = obj(set.iter().map(|m| {
        let value = summary(&runs, m.name).map_or(Json::Null, |s| Json::Num(s.median));
        (
            m.name,
            obj([("value", value), ("unit", Json::from(m.unit))]),
        )
    }));
    let failed = runs.iter().filter(|r| !r.ok).count();
    println!(
        "{}",
        obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Num(runs.len() as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", metrics),
        ])
    );
    i32::from(failed > 0)
}

/// A killed parent cannot stop or wait for its child, and nothing would
/// read the child's result, so a child stops within half a second of being
/// orphaned. The watcher thread lives as long as the process.
fn exit_with_parent() {
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(500));
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(3);
        }
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let first = args.first().map(String::as_str);
    let code = if first == Some("compare") {
        compare::main(&args[1..])
    } else if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to measure a debug build; build with --release");
        2
    } else {
        let child = first == Some("child");
        match parse(&args[usize::from(child)..]) {
            Err(e) => {
                eprintln!("benchmark: {e}\n\n{USAGE}");
                2
            }
            Ok(o) => match (child, o.workload) {
                (true, Some(w)) => {
                    exit_with_parent();
                    let result = workload::run(w, o.seed, o.run, o.trace, o.trace_out.as_deref());
                    println!("{result}");
                    0
                }
                (true, None) => {
                    eprintln!("benchmark: child needs --workload");
                    2
                }
                (false, Some(w)) => single(&o, w),
                (false, None) => full(&o),
            },
        }
    };
    std::process::exit(code);
}
