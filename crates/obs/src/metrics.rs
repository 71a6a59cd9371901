//! The metrics registry: labeled counters, gauges, and fixed-bucket
//! histograms in one canonically-ordered map.
//!
//! Determinism is structural, not incidental:
//!
//! * keys live in a `BTreeMap` ordered by `(name, labels)`, so iteration —
//!   and therefore every export and render — has one canonical order
//!   independent of insertion order;
//! * merging ([`bcd_netsim::Merge`]) is a per-key sum (counter + counter,
//!   gauge + gauge, bucket-wise for histograms), which is commutative and
//!   associative — folding per-shard registries yields the same aggregate
//!   for any shard count or fold order;
//! * histograms have *fixed* buckets chosen at first observation; merging
//!   two histograms with different bounds is a programming error and
//!   panics, because silently re-bucketing would make aggregates depend on
//!   the merge path.

use bcd_netsim::Merge;
use std::collections::BTreeMap;

/// Determinism class of a metric (or exported record).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Det {
    /// Derived from merged run artifacts; byte-identical at any shard
    /// count. Only `Stable` entries appear in the deterministic export.
    Stable,
    /// Depends on the shard layout, machine, or wall clock (per-shard
    /// splits, raw engine counters such as event counts that include
    /// timers every shard runtime repeats, timings). Reported, but excluded
    /// from deterministic output.
    Layout,
}

/// Registry key: metric name plus sorted `(label, value)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a key; labels are sorted so equal label *sets* compare equal.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// A fixed-bucket histogram over `u64` observations.
///
/// `bounds[i]` is the inclusive upper edge of bucket `i`; one implicit
/// overflow bucket catches everything beyond the last bound, so
/// `counts.len() == bounds.len() + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    pub bounds: Vec<u64>,
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (for mean reconstruction).
    pub sum: u64,
}

impl Histogram {
    /// An empty histogram with the given inclusive upper bounds (must be
    /// strictly increasing and non-empty).
    pub fn new(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Bucket-wise sum; panics on mismatched bounds (see module docs).
    pub fn merge_from(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "merging histograms with different bucket bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// A metric value of one of the three supported kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(Histogram),
}

/// A registered metric: its determinism class and current value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    pub det: Det,
    pub value: MetricValue,
}

/// The registry. See module docs for the determinism contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<MetricKey, Metric>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add to a counter (creating it at zero).
    pub fn add_counter(&mut self, name: &str, labels: &[(&str, &str)], det: Det, n: u64) {
        let key = MetricKey::new(name, labels);
        match self.metrics.entry(key) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(Metric {
                    det,
                    value: MetricValue::Counter(n),
                });
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let m = e.get_mut();
                match &mut m.value {
                    MetricValue::Counter(c) => *c += n,
                    other => panic!("metric {name:?} is not a counter: {other:?}"),
                }
            }
        }
    }

    /// Set a gauge to an absolute value (merges *sum* gauges — a gauge here
    /// is a point-in-time quantity whose per-shard parts add, e.g. cache
    /// entry counts).
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], det: Det, v: i64) {
        self.metrics.insert(
            MetricKey::new(name, labels),
            Metric {
                det,
                value: MetricValue::Gauge(v),
            },
        );
    }

    /// Record a histogram observation; the histogram is created with
    /// `bounds` on first use (later calls must pass identical bounds).
    pub fn observe(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        det: Det,
        bounds: &[u64],
        value: u64,
    ) {
        let key = MetricKey::new(name, labels);
        let m = self.metrics.entry(key).or_insert_with(|| Metric {
            det,
            value: MetricValue::Histogram(Histogram::new(bounds)),
        });
        match &mut m.value {
            MetricValue::Histogram(h) => h.observe(value),
            other => panic!("metric {name:?} is not a histogram: {other:?}"),
        }
    }

    /// Canonical iteration: `(name, labels)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, &Metric)> {
        self.metrics.iter()
    }

    /// Entries of one determinism class, in canonical order.
    pub fn iter_class(&self, det: Det) -> impl Iterator<Item = (&MetricKey, &Metric)> {
        self.metrics.iter().filter(move |(_, m)| m.det == det)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Counter value by exact name + labels (0 if absent). For reports and
    /// tests.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.metrics.get(&MetricKey::new(name, labels)) {
            Some(Metric {
                value: MetricValue::Counter(c),
                ..
            }) => *c,
            _ => 0,
        }
    }

    /// Gauge value by exact name + labels (0 if absent).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> i64 {
        match self.metrics.get(&MetricKey::new(name, labels)) {
            Some(Metric {
                value: MetricValue::Gauge(g),
                ..
            }) => *g,
            _ => 0,
        }
    }

    /// All `(labels, counter)` entries sharing a name, canonical order.
    pub fn counters_named<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = (&'a [(String, String)], u64)> + 'a {
        self.metrics.iter().filter_map(move |(k, m)| {
            if k.name != name {
                return None;
            }
            match &m.value {
                MetricValue::Counter(c) => Some((k.labels.as_slice(), *c)),
                _ => None,
            }
        })
    }

    /// Copy in every entry of `other` whose key is *not* already present.
    ///
    /// This is how the run aggregate is assembled: the [`Det::Stable`]
    /// registry (built from merged artifacts) claims its keys first, then
    /// the fold of per-shard [`Det::Layout`] registries fills in the rest —
    /// a name the stable side already accounts for (e.g. the probe count)
    /// keeps its deterministic value instead of clashing across classes.
    pub fn absorb_new(&mut self, other: &MetricsRegistry) {
        for (key, m) in &other.metrics {
            self.metrics.entry(key.clone()).or_insert_with(|| m.clone());
        }
    }

    /// Histogram by exact name + labels, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match self.metrics.get(&MetricKey::new(name, labels)) {
            Some(Metric {
                value: MetricValue::Histogram(h),
                ..
            }) => Some(h),
            _ => None,
        }
    }
}

impl Merge for MetricsRegistry {
    fn merge(&mut self, other: MetricsRegistry) {
        for (key, m) in other.metrics {
            match self.metrics.entry(key) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(m);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let name = e.key().name.clone();
                    let mine = e.get_mut();
                    assert_eq!(
                        mine.det, m.det,
                        "metric {name:?} merged with mismatched determinism class"
                    );
                    match (&mut mine.value, m.value) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                        (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
                        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge_from(&b),
                        (mine, theirs) => {
                            panic!("metric {name:?} merged across kinds: {mine:?} vs {theirs:?}")
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(scale: u64) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.add_counter("net.sent", &[], Det::Layout, 10 * scale);
        r.add_counter(
            "net.drop",
            &[("reason", "dsav-ingress")],
            Det::Stable,
            scale,
        );
        r.set_gauge("cache.answers", &[], Det::Layout, 3 * scale as i64);
        r.observe("lat", &[], Det::Stable, &[1, 10, 100], 5 * scale);
        r
    }

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut r = MetricsRegistry::new();
        r.add_counter("a", &[("x", "1")], Det::Stable, 2);
        r.add_counter("a", &[("x", "1")], Det::Stable, 3);
        assert_eq!(r.counter("a", &[("x", "1")]), 5);
        assert_eq!(r.counter("a", &[("x", "2")]), 0);
        // Label order does not matter for identity.
        r.add_counter("b", &[("k", "v"), ("a", "z")], Det::Stable, 1);
        r.add_counter("b", &[("a", "z"), ("k", "v")], Det::Stable, 1);
        assert_eq!(r.counter("b", &[("k", "v"), ("a", "z")]), 2);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1, 10, 100]);
        for v in [0, 1, 2, 10, 99, 100, 101, 5000] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![2, 2, 2, 2]);
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 1 + 2 + 10 + 99 + 100 + 101 + 5000);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[10, 5]);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let (a, b, c) = (sample(1), sample(2), sample(5));
        let mut ab_c = a.clone();
        ab_c.merge(b.clone());
        ab_c.merge(c.clone());
        let mut a_bc = b.clone();
        a_bc.merge(c.clone());
        a_bc.merge(a.clone());
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c.counter("net.sent", &[]), 80);
        assert_eq!(ab_c.gauge("cache.answers", &[]), 24);
        let h = ab_c.histogram("lat", &[]).unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 5 + 10 + 25);
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn merge_rejects_mismatched_histogram_bounds() {
        let mut a = MetricsRegistry::new();
        a.observe("h", &[], Det::Stable, &[1, 2], 1);
        let mut b = MetricsRegistry::new();
        b.observe("h", &[], Det::Stable, &[1, 3], 1);
        a.merge(b);
    }

    #[test]
    #[should_panic(expected = "mismatched determinism class")]
    fn merge_rejects_mismatched_det_class() {
        let mut a = MetricsRegistry::new();
        a.add_counter("c", &[], Det::Stable, 1);
        let mut b = MetricsRegistry::new();
        b.add_counter("c", &[], Det::Layout, 1);
        a.merge(b);
    }

    #[test]
    fn canonical_iteration_order() {
        let mut r = MetricsRegistry::new();
        r.add_counter("z", &[], Det::Stable, 1);
        r.add_counter("a", &[("l", "2")], Det::Stable, 1);
        r.add_counter("a", &[("l", "1")], Det::Stable, 1);
        let names: Vec<String> = r
            .iter()
            .map(|(k, _)| format!("{}{:?}", k.name, k.labels))
            .collect();
        assert!(names[0].starts_with('a') && names[0].contains("\"1\""));
        assert!(names[2].starts_with('z'));
        assert_eq!(r.iter_class(Det::Stable).count(), 3);
        assert_eq!(r.iter_class(Det::Layout).count(), 0);
    }
}
