//! Turning a [`Record`] into named metrics, the human-readable report,
//! and the result line.

use std::fmt::Write as _;

use crate::measure::FINAL_LOSS_SWEEPS;
use crate::summary::{median, tail};
use crate::workload::P;
use crate::{Record, REPORTED_PHASES};

/// A named value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Span layers of the whole traced run: the benchmark's own code, the
/// program's crates it calls, and machine calibration.
pub const LAYERS: [&str; 6] = ["bench", "comm", "core", "kernels", "apps", "machine"];
/// Span layers inside a timed op.
pub const OP_LAYERS: [&str; 4] = ["bench", "comm", "core", "apps"];

/// The end-to-end metrics (untraced run).
pub fn end_to_end(rec: &Record) -> Vec<Metric> {
    let (tail_ms, _) = tail(&rec.op_ms);
    vec![
        m("setup_s", rec.setup_s(), "s"),
        m("op_p50_ms", rec.op_p50_ms(), "ms"),
        m("op_tail_ms", tail_ms, "ms"),
        m("gflops", rec.gflops(), "GFLOP/s"),
        m("peak_rss_mb", rec.peak_rss_mb, "MiB"),
        m("ok_frac", 1.0 - rec.failed_frac(), "frac"),
    ]
}

/// The per-layer metrics (traced run).
///
/// # Panics
///
/// Panics on a record of an untraced run.
pub fn per_layer(rec: &Record) -> Vec<Metric> {
    let t = rec
        .traced
        .as_ref()
        .expect("per-layer metrics need a traced run");
    let per = &rec.per_op;
    let mut out = Vec::new();
    for k in &t.kernels {
        let key = k.key();
        out.push(m(format!("kernels.{key}.gflops"), k.gflops(), "GFLOP/s"));
        out.push(m(
            format!("kernels.{key}.tuned_over_naive"),
            k.tuned_over_naive(),
            "ratio",
        ));
        out.push(m(
            format!("kernels.{key}.flop_per_byte"),
            k.flop_per_byte(),
            "flop/B",
        ));
        out.push(m(
            format!("kernels.{key}.bw_frac"),
            k.bw_frac(t.copy_gbps),
            "frac",
        ));
    }
    out.push(m(
        "kernels.tune_ms",
        t.kernels.iter().map(|k| k.tune_ms).sum(),
        "ms",
    ));
    out.push(m(
        "core.local_tuning_ms",
        median(&rec.local_tuning_ms),
        "ms",
    ));
    out.push(m(
        "core.pattern_exchange_ms",
        median(&rec.pattern_exchange_ms),
        "ms",
    ));
    out.push(m("core.stage_ms", median(&rec.stage_ms), "ms"));
    out.push(m("core.plan_ms", rec.plan_ms, "ms"));
    out.push(m("core.build_ms", median(&rec.build_ms), "ms"));
    out.push(m("comm.spawn_ms", rec.empty_epoch_ms[0], "ms"));
    out.push(m("comm.epoch_ms", median(&rec.empty_epoch_ms[1..]), "ms"));
    out.push(m("comm.alpha_us", t.comm.alpha_us, "us"));
    out.push(m("comm.beta_gbps", t.comm.beta_gbps(), "GB/s"));
    out.push(m("comm.allgather_ms", t.comm.allgather_ms, "ms"));
    out.push(m("comm.words_per_op", per.words, "words"));
    out.push(m("comm.msgs_per_op", per.msgs, "count"));
    out.push(m("comm.wire_bytes_per_op", per.wire_bytes, "B"));
    out.push(m("comm.stall_ms_per_op", per.stall_ms, "ms"));
    let mut modeled_total = 0.0;
    for (i, phase) in REPORTED_PHASES.iter().enumerate() {
        let label = phase.label();
        out.push(m(
            format!("core.{label}.wall_ms_per_op"),
            per.wall_ms[i],
            "ms",
        ));
        out.push(m(
            format!("core.{label}.modeled_ms_per_op"),
            per.modeled_ms[i],
            "ms",
        ));
        modeled_total += per.modeled_ms[i];
    }
    let all_ops: Vec<f64> = rec.op_ms.iter().chain(&rec.traced_op_ms).copied().collect();
    let op_mean = all_ops.iter().sum::<f64>() / all_ops.len() as f64;
    let attributed: f64 = per.wall_ms.iter().sum::<f64>() + per.other_wall_ms;
    out.push(m("core.unattributed_ms_per_op", op_mean - attributed, "ms"));
    out.push(m(
        "core.model_error",
        rec.op_p50_ms() / modeled_total,
        "ratio",
    ));
    out.push(m("core.flops_per_op", per.flops, "flop"));
    let kernel_wall: f64 = per.wall_ms[..3].iter().sum();
    out.push(m(
        "apps.cg_iter_ms",
        rec.op_p50_ms() / rec.cfg.workload.fused_calls_per_op() as f64,
        "ms",
    ));
    out.push(m("apps.outside_ms_per_op", op_mean - kernel_wall, "ms"));
    // The loss after a fixed number of sweeps, so runs of one seed
    // compare whatever their timed sweep counts.
    let (loss_ratio, final_loss) = match rec.losses.first() {
        Some(&first) if rec.losses.len() > 1 => {
            let last = rec.losses[FINAL_LOSS_SWEEPS.min(rec.losses.len() - 1)];
            (last / first, last)
        }
        _ => (0.0, 0.0),
    };
    out.push(m("apps.loss_ratio", loss_ratio, "ratio"));
    out.push(m("apps.final_loss", final_loss, "loss"));
    out.push(m("apps.final_residual", rec.residual, "resid"));
    out.push(m("machine.copy_gbps", t.copy_gbps, "GB/s"));
    out.push(m("machine.serial_ref_op_ms", rec.serial_ref_ms, "ms"));
    let serial_per_op = rec.serial_ref_ms * rec.cfg.workload.fused_calls_per_op() as f64;
    out.push(m(
        "machine.speedup_vs_serial",
        serial_per_op / rec.op_p50_ms(),
        "ratio",
    ));
    let traced_p50 = median(&rec.traced_op_ms);
    let untraced_p50 = rec.op_p50_ms();
    out.push(m("trace.untraced_op_p50_ms", untraced_p50, "ms"));
    out.push(m("trace.traced_op_p50_ms", traced_p50, "ms"));
    out.push(m(
        "trace.overhead_frac",
        traced_p50 / untraced_p50 - 1.0,
        "frac",
    ));
    let find = |v: &[(&str, f64)], layer: &str| {
        v.iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, ms)| *ms)
    };
    for layer in LAYERS {
        out.push(m(
            format!("trace.self_ms.{layer}"),
            find(&t.self_ms, layer),
            "ms",
        ));
    }
    for layer in OP_LAYERS {
        out.push(m(
            format!("trace.op_self_ms.{layer}"),
            find(&t.op_self_ms, layer),
            "ms",
        ));
    }
    out.push(m("failed_frac", rec.failed_frac(), "frac"));
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// The result line: `correct`, `attempted`, `failed`, and the metrics.
pub fn result_line(rec: &Record, metrics: &[Metric]) -> String {
    let correct = rec.failed == 0 && rec.checked > 0 && metrics.iter().all(|x| x.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&x.name),
                json_num(x.value),
                json_str(x.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rec.op_ms.len() + rec.traced_op_ms.len(),
        rec.failed,
        body.join(", ")
    )
}

/// The git commit of a checkout, read from `.git` without running git
/// (`unknown` outside a git checkout).
pub fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(r).map(|s| s.trim().to_string()))
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// Run attribution: what produced these numbers, as one JSON object.
pub fn attribution(rec: &Record) -> String {
    let plan = &rec.plan;
    let family = plan.id.label();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (m_, n_, nnz, r) = rec.shape;
    let mut s = format!(
        "{{\"git_sha\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"llc_bytes\": {}, \"ranks\": {P}, \
         \"input\": {{\"m\": {m_}, \"n\": {n_}, \"nnz\": {nnz}, \"r\": {r}}}, \
         \"plan\": {{\"kernel\": {}, \"c\": {}, \"elision\": {}, \"routing\": {}, \
         \"local_variants\": [{}]}}",
        json_str(&git_sha()),
        json_str(rec.cfg.workload.name()),
        rec.cfg.seed,
        rec.cfg.seconds,
        rec.cfg.trace,
        crate::layers::llc_bytes(),
        json_str(family),
        plan.c,
        json_str(plan.elision.label()),
        json_str(plan.routing.label()),
        rec.plan_local_variants
            .iter()
            .map(|v| json_str(v.label()))
            .collect::<Vec<_>>()
            .join(", "),
    );
    if let Some(t) = &rec.traced {
        let picks: Vec<String> = t
            .kernels
            .iter()
            .map(|k| format!("{}: {}", json_str(k.key()), json_str(k.pick.label())))
            .collect();
        let _ = write!(
            s,
            ", \"tuned_variants\": {{{}}}, \"copy_array_bytes\": {}",
            picks.join(", "),
            t.copy_bytes
        );
    }
    s.push('}');
    s
}

/// The human-readable report printed above the result line.
pub fn human(rec: &Record, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "run: {}", attribution(rec));
    let (tail_ms, pct) = tail(&rec.op_ms);
    let _ = writeln!(
        s,
        "samples: setup n={}, untraced ops n={}, traced ops n={}; op_tail_ms is p{pct:.1} ({tail_ms:.3} ms); \
         checks {} failed of {}; max fused rel err {:.2e}",
        rec.setup_s.len(),
        rec.op_ms.len(),
        rec.traced_op_ms.len(),
        rec.failed,
        rec.checked,
        rec.max_rel_err
    );
    let mut sorted = rec.op_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    let _ = writeln!(
        s,
        "untraced op ms: min {:.2} p10 {:.2} p25 {:.2} p50 {:.2} p75 {:.2} p90 {:.2} max {:.2}",
        at(0.0),
        at(0.1),
        at(0.25),
        at(0.5),
        at(0.75),
        at(0.9),
        at(1.0)
    );
    for (e, (p50, v)) in rec
        .epoch_op_p50_ms
        .iter()
        .zip(&rec.plan_local_variants)
        .enumerate()
    {
        let _ = writeln!(
            s,
            "epoch {e}: op p50 {p50:.2} ms, local variant {}",
            v.label()
        );
    }
    if !rec.losses.is_empty() {
        let _ = writeln!(s, "als losses: {:?}", rec.losses);
    }
    for x in metrics {
        let _ = writeln!(s, "  {:<40} {:>16.6} {}", x.name, x.value, x.unit);
    }
    if let Some(t) = &rec.traced {
        let _ = writeln!(
            s,
            "self time by layer, whole run ({} spans):",
            t.spans.len()
        );
        for (layer, ms) in &t.self_ms {
            let _ = writeln!(s, "  {layer:<10} {ms:>12.3} ms");
        }
        let _ = writeln!(s, "self time by layer, per traced op:");
        for (layer, ms) in &t.op_self_ms {
            let _ = writeln!(s, "  {layer:<10} {ms:>12.3} ms");
        }
        let _ = writeln!(
            s,
            "tracing overhead: traced op p50 {:.3} ms vs untraced {:.3} ms",
            median(&rec.traced_op_ms),
            rec.op_p50_ms()
        );
    }
    s
}
