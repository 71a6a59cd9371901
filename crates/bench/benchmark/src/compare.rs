//! `benchmark compare PARENT.jsonl CHANGE.jsonl`: for each workload, every
//! end-to-end metric with both medians, both IQRs and a verdict, then every
//! per-layer metric side by side with differing counts flagged. Exits 1
//! when a metric regressed or a count differs.

use crate::json;
use crate::metrics::{self, Summary, Verdict, END_TO_END, PER_LAYER};
use crate::runner::{values, Run};
use crate::workload::WORKLOADS;
use crate::{fmt_num, fmt_pct};
use std::collections::BTreeMap;

fn load(path: &str) -> Result<BTreeMap<String, Vec<Run>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut by_workload: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if v.get("type").and_then(json::Json::as_str) == Some("run") {
            let r = Run::from_json(&v, "", 0, false);
            by_workload.entry(r.workload.clone()).or_default().push(r);
        }
    }
    if by_workload.is_empty() {
        return Err(format!("{path}: no run records"));
    }
    Ok(by_workload)
}

fn cell(s: Option<Summary>) -> (String, String) {
    match s {
        Some(s) => (
            fmt_num(s.median),
            if s.median != 0.0 {
                fmt_pct(s.iqr() / s.median.abs())
            } else {
                fmt_num(s.iqr())
            },
        ),
        None => ("-".into(), "-".into()),
    }
}

pub fn main(args: &[String]) -> i32 {
    let [parent, change] = args else {
        eprintln!("usage: benchmark compare PARENT.jsonl CHANGE.jsonl");
        return 2;
    };
    let (p, c) = match (load(parent), load(change)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return 2;
        }
    };
    let none = Vec::new();
    let mut bad = 0;
    for w in WORKLOADS.iter().map(|w| w.name) {
        if !p.contains_key(w) && !c.contains_key(w) {
            continue;
        }
        let (pr, cr) = (p.get(w).unwrap_or(&none), c.get(w).unwrap_or(&none));
        println!(
            "== {w}: parent {} runs, change {} runs ==",
            pr.len(),
            cr.len()
        );
        println!(
            "  {:<26} {:<9} {:>12} {:>8} {:>12} {:>8} {:>8} {:>7}  verdict",
            "end-to-end", "unit", "parent", "IQR", "change", "IQR", "delta", "bound"
        );
        for m in END_TO_END {
            let (pv, cv) = (values(pr, m.name), values(cr, m.name));
            let (ps, cs) = (Summary::of(&pv), Summary::of(&cv));
            let verdict = metrics::verdict(m, &pv, &cv);
            if verdict == Some(Verdict::Regressed) {
                bad += 1;
            }
            let delta = match (ps, cs) {
                (Some(a), Some(b)) if a.median != 0.0 => fmt_pct((b.median - a.median) / a.median),
                _ => "-".into(),
            };
            let ((pm, piqr), (cm, ciqr)) = (cell(ps), cell(cs));
            println!(
                "  {:<26} {:<9} {pm:>12} {piqr:>8} {cm:>12} {ciqr:>8} {delta:>8} {:>7}  {}",
                m.name,
                m.unit,
                fmt_pct(m.bound),
                verdict.map_or("-", Verdict::as_str)
            );
        }
        println!(
            "  {:<26} {:<9} {:>12} {:>12} {:>8}",
            "per-layer", "unit", "parent", "change", "delta"
        );
        for m in PER_LAYER {
            let (pv, cv) = (values(pr, m.name), values(cr, m.name));
            let (ps, cs) = (Summary::of(&pv), Summary::of(&cv));
            let delta = match (ps, cs) {
                (Some(a), Some(b)) if a.median != 0.0 => fmt_pct((b.median - a.median) / a.median),
                _ => "-".into(),
            };
            let differs = metrics::is_count(m.name)
                && pv
                    .iter()
                    .chain(&cv)
                    .any(|v| Some(v) != pv.first().or(cv.first()));
            if differs {
                bad += 1;
            }
            println!(
                "  {:<26} {:<9} {:>12} {:>12} {delta:>8}{}",
                m.name,
                m.unit,
                cell(ps).0,
                cell(cs).0,
                if differs { "  COUNT DIFFERS" } else { "" }
            );
        }
    }
    if bad > 0 {
        1
    } else {
        0
    }
}
