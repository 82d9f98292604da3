//! Per-layer attribution of a traced pass.
//!
//! The pass runs with `pace-trace` armed: the program's own spans and
//! counters fire, and the benchmark adds a span around each public call it
//! makes, named `<layer>::<call>`. This module reads the trace back with
//! `pace_trace::read`, rebuilds the span tree, and charges each span's
//! *self time* (its duration minus the time its child spans cover) to the
//! layer that owns it.

use crate::stats::median;
use pace_trace::read::{parse_line, Value};
use std::collections::BTreeMap;

/// The layers self time is reported for, in report order. `bench` is the
/// benchmark's own work (correctness checks).
pub const LAYERS: [&str; 8] = [
    "pace-data",
    "pace-workload",
    "pace-engine",
    "pace-ce",
    "pace-tensor",
    "pace-core",
    "pace-serve",
    "bench",
];

/// Root span of every pass; its duration is the pass wall the layer self
/// times must tile.
pub const ROOT: &str = "bench::pass";

pub struct Span {
    pub name: String,
    pub tid: u64,
    pub depth: u64,
    pub start: u64,
    pub dur: u64,
    pub children: Vec<usize>,
}

pub struct Trace {
    pub spans: Vec<Span>,
    pub roots: Vec<usize>,
    pub counters: BTreeMap<String, u64>,
    /// Total observations per histogram.
    pub hists: BTreeMap<String, u64>,
}

/// Parses a JSONL trace and re-links span nesting: spans are written when
/// they close, so each thread's spans are ordered by start time and a
/// span's parent is the latest open span one level up.
pub fn parse(text: &str) -> Trace {
    let mut spans = Vec::new();
    let mut counters = BTreeMap::new();
    let mut hists: BTreeMap<String, u64> = BTreeMap::new();
    for line in text.lines() {
        let Some(obj) = parse_line(line) else {
            continue;
        };
        let str_of = |k: &str| obj.get(k).and_then(Value::as_str).map(str::to_string);
        let u64_of = |k: &str| obj.get(k).and_then(Value::as_u64);
        match obj.get("ev").and_then(Value::as_str) {
            Some("span") => {
                if let (Some(name), Some(tid), Some(depth), Some(start), Some(dur)) = (
                    str_of("name"),
                    u64_of("tid"),
                    u64_of("depth"),
                    u64_of("start_ns"),
                    u64_of("dur_ns"),
                ) {
                    spans.push(Span {
                        name,
                        tid,
                        depth,
                        start,
                        dur,
                        children: Vec::new(),
                    });
                }
            }
            Some("counter") => {
                if let (Some(name), Some(value)) = (str_of("name"), u64_of("value")) {
                    counters.insert(name, value);
                }
            }
            Some("hist") => {
                if let (Some(name), Some(count)) = (str_of("name"), u64_of("count")) {
                    *hists.entry(name).or_insert(0) += count;
                }
            }
            _ => {}
        }
    }
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].tid, spans[i].start, spans[i].depth));
    let mut roots = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    let mut tid = None;
    for &i in &order {
        if tid != Some(spans[i].tid) {
            stack.clear();
            tid = Some(spans[i].tid);
        }
        while stack
            .last()
            .is_some_and(|&top| spans[top].depth >= spans[i].depth)
        {
            stack.pop();
        }
        match stack.last().copied() {
            Some(p) if spans[p].depth + 1 == spans[i].depth => spans[p].children.push(i),
            _ => roots.push(i),
        }
        stack.push(i);
    }
    Trace {
        spans,
        roots,
        counters,
        hists,
    }
}

/// The layer that owns a span, from its name prefix; `None` for a prefix
/// this benchmark does not know, which then inherits its parent's layer.
///
/// The resilient oracle's probe spans wrap the victim's work: an
/// `oracle::count` is one exact `Executor::count` and an `oracle::explain`
/// one CE estimate, so they are charged to the engine and the CE layer.
fn layer_of(name: &str) -> Option<&'static str> {
    match name {
        "oracle::count" => return Some("pace-engine"),
        "oracle::explain" => return Some("pace-ce"),
        _ => {}
    }
    match name.split("::").next().unwrap_or("") {
        "data" => Some("pace-data"),
        "workload" => Some("pace-workload"),
        "engine" => Some("pace-engine"),
        "ce" => Some("pace-ce"),
        "tensor" => Some("pace-tensor"),
        "core" | "campaign" | "surrogate" | "attack" | "oracle" => Some("pace-core"),
        "serve" => Some("pace-serve"),
        "bench" => Some("bench"),
        _ => None,
    }
}

impl Trace {
    pub fn root(&self) -> Option<usize> {
        self.roots
            .iter()
            .copied()
            .find(|&i| self.spans[i].name == ROOT)
    }

    fn self_ns(&self, i: usize) -> u64 {
        let covered: u64 = self.spans[i]
            .children
            .iter()
            .map(|&c| self.spans[c].dur)
            .sum();
        self.spans[i].dur.saturating_sub(covered)
    }

    /// Self seconds per layer over the root's subtree, plus the root's own
    /// self time (work inside the pass that no span covers).
    pub fn layer_self_s(&self, root: usize) -> (BTreeMap<&'static str, f64>, f64) {
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        let mut stack: Vec<(usize, &'static str)> = self.spans[root]
            .children
            .iter()
            .map(|&c| (c, "bench"))
            .collect();
        while let Some((i, parent_layer)) = stack.pop() {
            let layer = layer_of(&self.spans[i].name).unwrap_or(parent_layer);
            *out.entry(layer).or_insert(0.0) += self.self_ns(i) as f64 / 1e9;
            stack.extend(self.spans[i].children.iter().map(|&c| (c, layer)));
        }
        (out, self.self_ns(root) as f64 / 1e9)
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).fold(0.0, |a, s| a + s.dur as f64) / 1e9
    }

    pub fn count(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    /// Median duration of the spans called `name`, in microseconds.
    pub fn median_us(&self, name: &str) -> f64 {
        let d: Vec<f64> = self.named(name).map(|s| s.dur as f64 / 1e3).collect();
        median(&d)
    }

    /// Seconds from the start of each `parent` span to the start of its
    /// first `child` span, summed: the set-up a loop does before its first
    /// iteration.
    pub fn lead_in_s(&self, parent: &str, child: &str) -> f64 {
        self.named(parent)
            .filter_map(|p| {
                let first = p
                    .children
                    .iter()
                    .map(|&c| &self.spans[c])
                    .filter(|c| c.name == child)
                    .map(|c| c.start)
                    .min()?;
                Some(first.saturating_sub(p.start) as f64 / 1e9)
            })
            .fold(0.0, |a, b| a + b)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn hist_total(&self, name: &str) -> u64 {
        self.hists.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(name: &str, depth: u64, start: u64, dur: u64) -> String {
        format!(
            "{{\"ev\":\"span\",\"name\":\"{name}\",\"tid\":0,\"depth\":{depth},\
             \"start_ns\":{start},\"dur_ns\":{dur},\"seq\":0}}"
        )
    }

    #[test]
    fn self_times_tile_the_root() {
        let text = [
            line("data::build", 1, 10, 20),
            line("ce::step_adam", 2, 40, 10),
            line("ce::train-victim", 1, 35, 30),
            line("campaign::wave", 1, 70, 25),
            line("ce::update", 2, 75, 15),
            line("novel::thing", 2, 91, 2),
            line(ROOT, 0, 0, 100),
        ]
        .join("\n");
        let t = parse(&text);
        let root = t.root().expect("root span");
        let (layers, unattributed) = t.layer_self_s(root);
        let total: f64 = layers.values().sum::<f64>() + unattributed;
        assert!((total - 100e-9).abs() < 1e-15);
        assert!((layers["pace-data"] - 20e-9).abs() < 1e-15);
        assert!((layers["pace-ce"] - 45e-9).abs() < 1e-15);
        // 25 - 15 - 2 of the wave, plus the unknown span it inherits.
        assert!((layers["pace-core"] - 10e-9).abs() < 1e-15);
        assert!((unattributed - 25e-9).abs() < 1e-15);
        assert_eq!(t.count("ce::step_adam"), 1);
    }

    #[test]
    fn lead_in_measures_time_before_the_first_iteration() {
        let text = [
            line("attack::accelerated::iter", 1, 130, 10),
            line("attack::accelerated::iter", 1, 145, 10),
            line("attack::accelerated", 0, 100, 60),
        ]
        .join("\n");
        let t = parse(&text);
        let got = t.lead_in_s("attack::accelerated", "attack::accelerated::iter");
        assert!((got - 30e-9).abs() < 1e-15);
    }
}
