//! The benchmark's own spans: one around each call it makes into a layer
//! (pipeline, each analysis, render, lab and invariant call, each kernel
//! replay). Spans stay in memory and are written once, at the end, in
//! Chrome trace-event format. The program itself is not instrumented.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Option<Duration>,
}

pub struct Spans {
    origin: Instant,
    /// Identifies the run the spans belong to (its index in the invocation).
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(run: u32) -> Spans {
        Spans {
            origin: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: None,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and any child left open inside it).
    pub fn end(&mut self, id: usize) {
        let now = self.origin.elapsed();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = Some(now);
            if top == id {
                break;
            }
        }
    }

    /// Time `f` as a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    fn duration(&self, i: usize) -> Duration {
        let s = &self.spans[i];
        s.end.unwrap_or(s.start).saturating_sub(s.start)
    }

    /// Total seconds spent in spans called `name` (0 when there are none).
    pub fn total_s(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .fold(0.0, |sum, i| sum + self.duration(i).as_secs_f64())
    }

    /// Self time of every span: its duration minus the part its children
    /// cover, summed per name, in seconds.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_time_per_span()) {
            *out.entry(s.name.to_string()).or_insert(0.0) += own.as_secs_f64();
        }
        out
    }

    /// Chrome trace-event JSON (complete events, microseconds).
    pub fn chrome_json(&self) -> String {
        let selfs = self.self_time_per_span();
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![
                    ("run", Json::Num(self.run as f64)),
                    ("self_us", Json::Num(selfs[i].as_secs_f64() * 1e6)),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent", Json::from(self.spans[p].name)));
                }
                obj([
                    ("name", Json::from(s.name)),
                    ("ph", Json::from("X")),
                    ("ts", Json::Num(s.start.as_secs_f64() * 1e6)),
                    ("dur", Json::Num(self.duration(i).as_secs_f64() * 1e6)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(self.run as f64)),
                    ("args", obj(args)),
                ])
            })
            .collect();
        obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ms")),
        ])
        .to_string()
    }

    fn self_time_per_span(&self) -> Vec<Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child[p] += self.duration(i);
            }
        }
        (0..self.spans.len())
            .map(|i| self.duration(i).saturating_sub(child[i]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(3);
        let outer = s.begin("outer");
        s.time("inner", || std::thread::sleep(Duration::from_millis(20)));
        s.end(outer);
        let selfs = s.self_times();
        assert!(selfs["inner"] >= 0.02);
        assert!(selfs["outer"] < selfs["inner"]);
        assert!((s.total_s("outer") - selfs["outer"] - selfs["inner"]).abs() < 1e-9);
        // An absent layer reads +0, which prints as `0`, not `-0`.
        assert_eq!(s.total_s("absent").to_bits(), 0.0f64.to_bits());
        let trace = crate::json::parse(&s.chrome_json()).unwrap();
        let events = trace.get("traceEvents").unwrap().as_arr();
        assert_eq!(events.len(), 2);
        let inner = events[1].get("args").unwrap();
        assert_eq!(inner.get("parent").unwrap().as_str(), Some("outer"));
        assert_eq!(inner.get("run").unwrap().as_f64(), Some(3.0));
    }
}
