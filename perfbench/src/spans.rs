//! Span totals of a traced pass.
//!
//! Self time is a span's duration minus its children's, so it is never
//! counted twice. Total time of a recursive span (`p2.chamber` calls
//! itself) is taken only at its outermost frame: summing every frame
//! would count the innermost work once per enclosing level.

use std::collections::HashMap;

use aov_trace::SpanRecord;

#[derive(Debug, Default)]
pub struct Totals {
    self_ns: HashMap<String, u64>,
    outermost_ns: HashMap<String, u64>,
}

impl Totals {
    /// Adds one drained batch of finished spans. A batch must hold whole
    /// trees: a span whose parent is missing counts as a root.
    pub fn add(&mut self, records: &[SpanRecord]) {
        let by_id: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for r in records {
            if let Some(parent) = r.parent.filter(|p| by_id.contains_key(p)) {
                *child_ns.entry(parent).or_default() += r.dur_ns;
            }
        }
        for r in records {
            let own = r
                .dur_ns
                .saturating_sub(child_ns.get(&r.id).copied().unwrap_or(0));
            *self.self_ns.entry(r.name.clone()).or_default() += own;
            let mut up = r.parent.and_then(|p| by_id.get(&p));
            let mut nested = false;
            while let Some(a) = up {
                if a.name == r.name {
                    nested = true;
                    break;
                }
                up = a.parent.and_then(|p| by_id.get(&p));
            }
            if !nested {
                *self.outermost_ns.entry(r.name.clone()).or_default() += r.dur_ns;
            }
        }
    }

    /// Summed self time of every span named `name`.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }

    /// Summed duration of the outermost frames of `name`.
    pub fn outermost_ns(&self, name: &str) -> u64 {
        self.outermost_ns.get(name).copied().unwrap_or(0)
    }

    /// Self time of all spans: the part of the pass some span covers.
    pub fn total_self_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }
}
