//! A traced run's spans nest, and every op span sits inside the traced
//! section of a rank's epoch.

use perfbench::spans::{self, Span};
use perfbench::workload::Workload;
use perfbench::{report, run, Config};

#[test]
fn traced_run_spans_nest_and_every_op_has_a_parent() {
    let mut cfg = Config::new(Workload::FusedCompute, 3, 0.3, true);
    cfg.scale = 10;
    cfg.setup_reps = 1;
    let rec = run(&cfg).expect("in-process runs report on rank 0");
    let t = rec.traced.as_ref().expect("a traced run records spans");
    spans::check_nesting(&t.spans).expect("spans nest");

    let ops: Vec<&Span> = t.spans.iter().filter(|s| s.name == "bench.op").collect();
    assert_eq!(
        ops.len(),
        rec.traced_op_ms.len(),
        "one op span per traced op"
    );
    for op in &ops {
        let parent = op.parent.expect("every op span has a parent");
        assert_eq!(t.spans[parent].name, "bench.traced_ops");
    }
    // The untraced section is one span; its ops record none (every op
    // span sits in the traced section, above).
    assert!(t.spans.iter().any(|s| s.name == "bench.untraced_ops"));
    // Each op span holds exactly one fused call.
    for op in &ops {
        let calls = t
            .spans
            .iter()
            .filter(|s| s.parent == Some(op.id) && s.name == "core.fused_mm_b")
            .count();
        assert_eq!(calls, 1);
    }

    // Every per-layer metric is reported, with a finite value.
    let metrics = report::per_layer(&rec);
    assert!(metrics.iter().all(|m| m.value.is_finite()), "{metrics:?}");
    assert!(metrics
        .iter()
        .any(|m| m.name == "trace.op_self_ms.core" && m.value > 0.0));
}

#[test]
fn self_time_subtracts_children() {
    let s = |id, parent, name, start_ns, end_ns| Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
    };
    let trace = vec![
        s(0, None, "bench.op", 0, 10_000_000),
        s(1, Some(0), "core.fused_mm_b", 1_000_000, 7_000_000),
        s(2, Some(0), "comm.allreduce", 7_000_000, 9_000_000),
        s(3, None, "core.build", 20_000_000, 25_000_000),
    ];
    spans::check_nesting(&trace).unwrap();
    let all = spans::self_ms_by_layer(&trace);
    assert_eq!(all["bench"], 2.0);
    assert_eq!(all["core"], 11.0);
    assert_eq!(all["comm"], 2.0);
    let op = spans::self_ms_by_layer_within(&trace, "bench.op");
    assert_eq!(op["core"], 6.0);

    let mut escaped = trace.clone();
    escaped[2].end_ns = 11_000_000;
    assert!(spans::check_nesting(&escaped).is_err());
}
