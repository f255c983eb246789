//! Deterministic allocation fingerprints: the counting allocator's
//! per-span attribution on Example 1 must be *exactly* reproducible —
//! same span counts, same allocation counts, same byte totals — no
//! matter how many workers the fan-out stages use. Worker threads adopt
//! the caller's span context, so attribution must be independent of how
//! orthants land on threads.
//!
//! Spans are gathered with `aov_trace::capture`; the LP memo switch is
//! process-global, so the runs still serialize on a mutex.
//!
//! The fingerprint covers the spans whose work is schedule-invariant:
//! `p1.orthant` (Problem 1 never prunes, all 8 orthants of Example 1
//! solve identical models), the storage-form instantiation, and the
//! Farkas system builds of the scheduler. The AOV orthant fan-out is
//! deliberately excluded — its shared incumbent bound legitimately
//! prunes a timing-dependent subset of orthants in parallel runs.

use std::collections::BTreeMap;
use std::sync::Mutex;

use aov_engine::Pipeline;
use aov_trace::SpanRecord;

/// The trace sink is process-global: the two tests below serialize.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Spans whose (count, allocs, bytes, max_bits) aggregate must be
/// bit-identical across worker counts.
const STABLE_SPANS: [&str; 3] = ["p1.orthant", "core.storage_forms_for_dep", "farkas.system"];

#[derive(Debug, PartialEq, Eq, Default, Clone)]
struct Aggregate {
    count: u64,
    allocs: u64,
    bytes: u64,
    max_bits: u64,
}

fn fingerprint(records: &[SpanRecord]) -> BTreeMap<&'static str, Aggregate> {
    let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
    for name in STABLE_SPANS {
        out.insert(name, Aggregate::default());
    }
    for r in records {
        if let Some(name) = STABLE_SPANS.iter().find(|n| **n == r.name) {
            let agg = out.get_mut(name).unwrap();
            agg.count += 1;
            agg.allocs += r.alloc_allocs;
            agg.bytes += r.alloc_bytes;
            agg.max_bits = agg.max_bits.max(r.max_bits);
        }
    }
    out
}

fn traced_run(workers: usize) -> Vec<SpanRecord> {
    let (report, records) = aov_trace::capture(|| {
        Pipeline::for_example("example1")
            .unwrap()
            .workers(workers)
            .memoize(false)
            .run()
            .expect("example1 runs")
    });
    assert_eq!(report.equivalent, Some(true));
    records
}

#[test]
fn fingerprint_is_identical_across_worker_counts() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    aov_lp::memo::set_enabled(false); // cold solver on every run
                                      // Warmup run: one-time lazy initialisation (thread-id assignment,
                                      // counter registration, allocator bookkeeping) must not pollute the
                                      // first fingerprinted run.
    let _ = traced_run(2);

    let records = traced_run(1);
    let baseline = fingerprint(&records);
    // The fingerprint is meaningful: Example 1 solves all 8 non-zero
    // sign patterns in Problem 1, each allocating a fresh model.
    assert_eq!(baseline["p1.orthant"].count, 8, "{baseline:?}");
    assert!(baseline["p1.orthant"].allocs > 0, "{baseline:?}");
    assert!(baseline["p1.orthant"].bytes > 0, "{baseline:?}");
    assert!(baseline["farkas.system"].count > 0, "{baseline:?}");
    assert!(
        baseline["core.storage_forms_for_dep"].count > 0,
        "{baseline:?}"
    );
    // Bit-width growth is charged to the innermost span doing the
    // arithmetic: the pivot loop itself, not its orthant ancestor.
    let lp_bits = records
        .iter()
        .filter(|r| r.name == "lp.simplex")
        .map(|r| r.max_bits)
        .max()
        .unwrap_or(0);
    assert!(lp_bits > 0, "simplex spans must report coefficient widths");

    for workers in 2..=4 {
        let got = fingerprint(&traced_run(workers));
        assert_eq!(
            got, baseline,
            "allocation fingerprint drifted at --workers {workers}"
        );
    }
}

/// Two identical runs in the same process agree exactly — the counting
/// allocator itself adds no nondeterminism (its scope bookkeeping is
/// charged to the spans deterministically).
#[test]
fn fingerprint_is_identical_across_repeat_runs() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    aov_lp::memo::set_enabled(false);
    let _ = traced_run(1); // warmup (see above)
    let first = fingerprint(&traced_run(3));
    let second = fingerprint(&traced_run(3));
    assert_eq!(first, second, "repeat runs must agree");
}
