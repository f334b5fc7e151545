//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_attack|service_mix|stream_world|robustness_matrix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets its workload up, measures it for `--seconds`, checks the
//! outputs, and prints one JSON object as its last line of standard
//! output: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. The full record (host fingerprint, sample counts,
//! medians and quartiles, workload details) and, when traced, the spans
//! go to `.bench_out/` under the working directory. See `NOTES.md`.

mod clock;
mod inputs;
mod openloop;
mod probes;
mod report;
mod stats;
mod trace;
mod victims;
mod workloads;

use clock::Lap;
use report::Metric;
use stats::Summary;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Compute threads: the host's parallelism, capped at 2, or
/// `COLPER_THREADS` when set (also capped at 2).
const MAX_THREADS: usize = 2;

/// Everything a workload run needs.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub threads: usize,
    pub runtime: colper_runtime::Runtime,
    pub out_dir: PathBuf,
    pub started: Instant,
}

impl Ctx {
    /// Whether the measuring window of `seconds` has passed since `since`.
    pub fn expired(&self, since: Instant) -> bool {
        since.elapsed().as_secs_f64() >= self.seconds
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Each set-up repetition.
    pub setups: Vec<Lap>,
    /// Each unit of work, from untraced units.
    pub units: Vec<Lap>,
    /// Each unit of work, from traced units (traced runs alternate traced
    /// and untraced units).
    pub traced_units: Vec<Lap>,
    /// The spans the measuring phase recorded (traced runs).
    pub measured_spans: std::ops::Range<usize>,
    /// Adversarial accuracy in `[0, 1]` (lower is a stronger attack).
    pub adv_accuracy: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer numbers the workload measured itself; the probes fill
    /// in the rest.
    pub layers: BTreeMap<String, f64>,
    /// Workload-specific figures for the result file.
    pub extra: Vec<(String, String)>,
    /// Inputs the per-layer probes should reuse.
    pub probe: probes::ProbeInputs,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {:?}", workloads::NAMES));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

fn resolve_threads() -> usize {
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let wanted = std::env::var("COLPER_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(host);
    wanted.clamp(1, MAX_THREADS)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let layer_catalog = report::per_layer();
    if let Err(err) = report::validate_catalog(&report::END_TO_END, &layer_catalog) {
        eprintln!("perfbench: bad metric catalog: {err}");
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from(".bench_out");
    if let Err(err) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {err}", out_dir.display());
        return ExitCode::from(1);
    }
    let threads = resolve_threads();
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        threads,
        runtime: colper_runtime::Runtime::new(threads),
        out_dir,
        started: Instant::now(),
    };
    eprintln!(
        "perfbench: workload {} seed {} for {}s, trace {}, {} threads, kernels {}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        args.trace,
        threads,
        colper_tensor::kernels::features()
    );

    let mut outcome = match ctx.runtime.install(|| workloads::run(&ctx)) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: workload failed: {err}");
            return ExitCode::from(1);
        }
    };

    let metrics = if args.trace {
        let measured_s = ctx.tracer.self_seconds_by_layer(outcome.measured_spans.clone());
        let layers = ctx.runtime.install(|| probes::run(&ctx, &mut outcome));
        per_layer_metrics(&outcome, &measured_s, &layers, &layer_catalog)
    } else {
        end_to_end_metrics(&outcome)
    };
    let metrics = match metrics {
        Ok(metrics) => metrics,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(1);
        }
    };

    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let line = report::result_line(correct, outcome.attempted, outcome.failed, &metrics);
    write_record(&ctx, &outcome, &metrics, correct);
    for m in &metrics {
        eprintln!("  {:<42} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{line}");
    ExitCode::SUCCESS
}

fn metric(name: &str, unit: &'static str, value: f64) -> Result<Metric, String> {
    if value.is_finite() {
        Ok(Metric { name: name.to_string(), unit, value })
    } else {
        Err(format!("metric {name} is not finite ({value})"))
    }
}

fn end_to_end_metrics(o: &Outcome) -> Result<Vec<Metric>, String> {
    if o.units.is_empty() || o.setups.is_empty() {
        return Err("the workload measured no unit of work".to_string());
    }
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => stats::median(&user_s(&o.setups)),
            "peak_rss_mib" => report::peak_rss_mib().unwrap_or(f64::NAN),
            "unit_cpu_p50_ms" => stats::median(&cpu_s(&o.units)) * 1e3,
            _ => f64::NAN,
        }
    };
    report::END_TO_END.iter().map(|&(name, unit)| metric(name, unit, value(name))).collect()
}

fn cpu_s(laps: &[Lap]) -> Vec<f64> {
    laps.iter().map(|l| l.cpu_s).collect()
}

fn user_s(laps: &[Lap]) -> Vec<f64> {
    laps.iter().map(|l| l.user_s).collect()
}

fn wall_s(laps: &[Lap]) -> Vec<f64> {
    laps.iter().map(|l| l.wall_s).collect()
}

fn per_layer_metrics(
    o: &Outcome,
    measured_s: &BTreeMap<&'static str, f64>,
    layers: &BTreeMap<String, f64>,
    catalog: &[(String, &'static str)],
) -> Result<Vec<Metric>, String> {
    let total_s: f64 = measured_s.values().sum();
    let overhead = if o.units.is_empty() || o.traced_units.is_empty() {
        0.0
    } else {
        (stats::median(&cpu_s(&o.traced_units)) / stats::median(&cpu_s(&o.units)) - 1.0) * 100.0
    };
    catalog
        .iter()
        .map(|(name, unit)| {
            let value = if let Some(layer) = name.strip_suffix(".self_share") {
                measured_s.get(layer).copied().unwrap_or(0.0) / total_s.max(f64::MIN_POSITIVE)
            } else if name == "trace.overhead_pct" {
                overhead
            } else if name == "setup.minor_faults" {
                stats::median(&o.setups.iter().map(|l| l.minor_faults).collect::<Vec<_>>())
            } else {
                *layers
                    .get(name)
                    .ok_or_else(|| format!("per-layer metric {name} was not measured"))?
            };
            metric(name, unit, value)
        })
        .collect()
}

/// Writes the full record of the run to `.bench_out/`.
fn write_record(ctx: &Ctx, o: &Outcome, metrics: &[Metric], correct: bool) {
    let trace = ctx.tracer.is_on();
    let stem = format!("{}-seed{}-trace{}", ctx.workload, ctx.seed, u8::from(trace));
    let mut samples = Vec::new();
    let ms = |v: Vec<f64>| v.into_iter().map(|s| s * 1e3).collect::<Vec<_>>();
    for (name, values) in [
        ("setup_user_s", user_s(&o.setups)),
        ("setup_cpu_s", cpu_s(&o.setups)),
        ("setup_minor_faults", o.setups.iter().map(|l| l.minor_faults).collect()),
        ("setup_wall_s", wall_s(&o.setups)),
        ("unit_cpu_ms", ms(cpu_s(&o.units))),
        ("unit_user_ms", ms(user_s(&o.units))),
        ("unit_minor_faults", o.units.iter().map(|l| l.minor_faults).collect()),
        ("unit_wall_ms", ms(wall_s(&o.units))),
        ("traced_unit_cpu_ms", ms(cpu_s(&o.traced_units))),
        ("traced_unit_wall_ms", ms(wall_s(&o.traced_units))),
    ] {
        if let Some(s) = Summary::of(&values) {
            samples.push(format!("{}:{}", report::json_str(name), report::summary_json(&s)));
        }
    }
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                report::json_str(&m.name),
                report::number(m.value),
                report::json_str(m.unit)
            )
        })
        .collect();
    let mut extra: Vec<String> =
        o.extra.iter().map(|(k, v)| format!("{}:{v}", report::json_str(k))).collect();
    extra.push(format!("\"adv_accuracy_pct\":{}", report::number(o.adv_accuracy * 100.0)));
    let record = format!(
        "{{\"schema\":\"colper-perfbench-v1\",\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{trace},\
         \"wall_s\":{},\"fingerprint\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\
         \"samples\":{{{}}},\"metrics\":{{{}}},\"extra\":{{{}}}}}\n",
        report::json_str(&ctx.workload),
        ctx.seed,
        report::number(ctx.seconds),
        report::number(ctx.started.elapsed().as_secs_f64()),
        report::fingerprint(ctx.threads),
        o.attempted,
        o.failed,
        samples.join(","),
        metrics_json.join(","),
        extra.join(","),
    );
    let path = ctx.out_dir.join(format!("{stem}.json"));
    if let Err(err) = std::fs::write(&path, record) {
        eprintln!("perfbench: could not write {}: {err}", path.display());
    }
    if trace {
        let spans = ctx.out_dir.join(format!("{stem}.spans.jsonl"));
        if let Err(err) = ctx.tracer.write_jsonl(&spans) {
            eprintln!("perfbench: could not write {}: {err}", spans.display());
        }
    }
}
