//! Metric catalog, name rules, host fingerprint and the result line.

use crate::stats::Summary;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports from an untraced run:
/// `(name, unit)`. `setup_s` is user CPU time and `unit_cpu_p50_ms` user
/// plus system CPU time (see [`crate::clock`]); what a "unit of work" is
/// differs by workload; see `NOTES.md`.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mib", "MiB"), ("unit_cpu_p50_ms", "ms")];

pub const MAX_END_TO_END: usize = 16;
pub const MAX_PER_LAYER: usize = 128;

/// The victims of the paper's Table 1, by metric suffix.
pub const VICTIMS: [&str; 3] = ["pointnet2", "resgcn", "randla"];

/// The three largest matmul shapes the victims run at 512 points,
/// `(m, k, n)`: ResGCN's edge MLP (512 points x 8 neighbours, 2x32 -> 32
/// channels), RandLA-Net's first attentive-pooling score (512 x 8 rows,
/// 32 -> 32) and PointNet++'s first set-abstraction layer
/// (128 centroids x 16 neighbours, 32 -> 32).
pub const MATMUL_SHAPES: [(usize, usize, usize); 3] =
    [(4096, 64, 32), (4096, 32, 32), (2048, 32, 32)];

/// The default registry's defense pipelines, by registry spec.
pub const DEFENSES: [&str; 6] =
    ["identity", "quantize(3)", "smooth(4)", "gauss(0.05)", "drop(0.25)", "quantize(4)|smooth(4)"];

/// Layers whose public functions the workloads call directly while they
/// measure, so that their spans split the measured time between them. The
/// other layers run only inside these calls and are timed by the probes.
pub const SHARE_LAYERS: [&str; 4] = ["scene", "colper", "matrix", "serve"];

/// A defense pipeline spec as a metric-name suffix.
pub fn defense_suffix(spec: &str) -> String {
    spec.chars()
        .filter_map(|c| match c {
            '(' => Some('_'),
            ')' => None,
            '|' => Some('-'),
            c => Some(c),
        })
        .collect()
}

pub fn shape_suffix((m, k, n): (usize, usize, usize)) -> String {
    format!("{m}x{k}x{n}")
}

/// Every per-layer metric a traced run reports: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    for shape in MATMUL_SHAPES {
        add(format!("tensor.matmul_gflops.{}", shape_suffix(shape)), "GFLOP/s");
        add(format!("tensor.matmul_gbps.{}", shape_suffix(shape)), "GB/s");
    }
    for v in ["pointnet2", "resgcn"] {
        add(format!("autodiff.replay_ms.{v}"), "ms");
        add(format!("autodiff.compile_ms.{v}"), "ms");
    }
    add("autodiff.backward_ms.randla".into(), "ms");
    for v in VICTIMS {
        add(format!("models.forward_ms.{v}"), "ms");
        add(format!("models.plan_ms.{v}"), "ms");
        add(format!("nn.train_epoch_s.{v}"), "s");
        add(format!("colper.step_ms.{v}"), "ms");
        add(format!("colper.steps_run.{v}"), "count");
    }
    add("geom.knn_ms".into(), "ms");
    add("nn.adam_us".into(), "us");
    add("scene.generate_ms".into(), "ms");
    add("scene.shard_write_mib_per_s".into(), "MiB/s");
    add("scene.tile_load_us".into(), "us");
    add("scene.write_colors_us".into(), "us");
    add("scene.residency_miss_ratio".into(), "ratio");
    add("scene.evictions".into(), "count");
    add("colper.restart_ratio".into(), "ratio");
    add("colper.window_ms".into(), "ms");
    add("colper.halo_ratio".into(), "ratio");
    add("colper.seat_warm_ratio".into(), "ratio");
    for spec in DEFENSES {
        add(format!("defense.apply_ms.{}", defense_suffix(spec)), "ms");
    }
    add("matrix.train_s".into(), "s");
    add("matrix.cells_s".into(), "s");
    add("runtime.pool_speedup.pointnet2".into(), "x");
    add("serve.queue_ms".into(), "ms");
    add("serve.run_ms".into(), "ms");
    add("serve.intake_ms".into(), "ms");
    add("serve.warm_start_ratio".into(), "ratio");
    for code in ["429", "422", "400"] {
        add(format!("serve.rejected.{code}"), "count");
    }
    add("serve.generator_late_ms".into(), "ms");
    add("serve.steps_run_mean".into(), "count");
    add("serve.zero_l2_fraction".into(), "ratio");
    for layer in SHARE_LAYERS {
        add(format!("{layer}.self_share"), "ratio");
    }
    add("setup.minor_faults".into(), "count");
    add("trace.overhead_pct".into(), "%");
    out
}

/// Metric names are `[A-Za-z0-9_.-]+`, at most 64 long, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units are `[A-Za-z0-9_/%.-]+`, at most 16 long.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks both catalogs: valid and unique names and units, and at most
/// [`MAX_END_TO_END`] / [`MAX_PER_LAYER`] entries.
pub fn validate_catalog(e2e: &[(&str, &str)], layers: &[(String, &str)]) -> Result<(), String> {
    if e2e.is_empty() || e2e.len() > MAX_END_TO_END {
        return Err(format!("{} end-to-end metrics (allowed 1..={MAX_END_TO_END})", e2e.len()));
    }
    if layers.is_empty() || layers.len() > MAX_PER_LAYER {
        return Err(format!("{} per-layer metrics (allowed 1..={MAX_PER_LAYER})", layers.len()));
    }
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in e2e.iter().copied().chain(layers.iter().map(|(n, u)| (n.as_str(), *u))) {
        if !valid_name(name) {
            return Err(format!("invalid metric name `{name}`"));
        }
        if !valid_unit(unit) {
            return Err(format!("invalid unit `{unit}` of `{name}`"));
        }
        if !seen.insert(name) {
            return Err(format!("metric `{name}` listed twice"));
        }
    }
    Ok(())
}

/// One reported metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// The last line of standard output: `correct`, `attempted`, `failed`
/// and the metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{body}}}}}"
    )
}

/// A finite JSON number with every digit of the `f64` (shortest exact
/// round-trip form); non-finite values become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"n\":{},\"median\":{},\"q1\":{},\"q3\":{},\"p90\":{}}}",
        s.n,
        number(s.median),
        number(s.q1),
        number(s.q3),
        number(s.p90)
    )
}

/// Host and build fingerprint recorded with every result.
pub fn fingerprint(threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("COLPER_"))
        .map(|(k, v)| format!("{}:{}", json_str(&k), json_str(&v)))
        .collect();
    format!(
        "{{\"nproc\":{nproc},\"threads\":{threads},\"kernel_features\":{},\"gemm_isa\":{},\
         \"rustc\":{},\"rustc_commit\":{},\"env\":{{{}}}}}",
        json_str(colper_tensor::kernels::features()),
        json_str(colper_tensor::kernels::gemm_isa().name()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(env!("PERFBENCH_RUSTC_COMMIT")),
        env.join(",")
    )
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_are_valid_and_within_limits() {
        validate_catalog(&END_TO_END, &per_layer()).unwrap();
    }

    #[test]
    fn names_follow_the_character_rules() {
        assert!(valid_name("autodiff.replay_ms.resgcn"));
        assert!(valid_name("defense.apply_ms.quantize_4-smooth_4"));
        assert!(valid_name("tensor.matmul_gflops.4096x64x32"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("defense.apply_ms.quantize(3)"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("points/s") && valid_unit("%") && valid_unit("MiB"));
        assert!(!valid_unit("per second") && !valid_unit(""));
        for spec in DEFENSES {
            assert!(valid_name(&format!("defense.apply_ms.{}", defense_suffix(spec))), "{spec}");
        }
    }

    #[test]
    fn catalog_validation_rejects_bad_lists() {
        let too_many: Vec<(String, &str)> =
            (0..=MAX_PER_LAYER).map(|i| (format!("m{i}"), "ms")).collect();
        assert!(validate_catalog(&END_TO_END, &too_many).is_err());
        let e2e_too_many: Vec<(&str, &str)> = vec![("a", "s"); MAX_END_TO_END + 1];
        assert!(validate_catalog(&e2e_too_many, &per_layer()).is_err());
        let dup = vec![("setup_s".to_string(), "s")];
        assert!(validate_catalog(&END_TO_END, &dup).is_err());
        let bad = vec![("serve.rejected 429".to_string(), "count")];
        assert!(validate_catalog(&END_TO_END, &bad).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line =
            result_line(true, 3, 0, &[Metric { name: "setup_s".into(), unit: "s", value: 0.8127 }]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
        assert_eq!(number(1.0 / 3.0), "0.3333333333333333");
        assert_eq!(number(f64::NAN), "null");
    }
}
