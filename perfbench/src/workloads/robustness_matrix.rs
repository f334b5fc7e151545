//! `robustness_matrix`: `colper_matrix::run` at `MatrixConfig::standard()`
//! with `Registry::defaults`, its two evaluation scenes drawn from the
//! seed. Each repetition trains the matrix's victims, runs every attack
//! unit, and replays every defense pipeline over the frozen adversarial
//! clouds. At least two repetitions run; a repetition fails when its
//! report digest differs from the first one's.
//!
//! Unit of work: one whole matrix run. Set-up builds and validates the
//! registry and runs the matrix once at quick scale (worker pool, buffer
//! pools and kernel dispatch warm), three times before measuring.

use super::{record_unit, trace_unit};
use crate::clock::{Lap, Stamp};
use crate::inputs::scene_seed;
use crate::report::number;
use crate::{Ctx, Outcome};
use colper_matrix::{run as run_matrix, MatrixConfig, MatrixReport, Registry};
use std::time::Instant;

/// Repetitions every run completes, however short `--seconds` is; the
/// digest check needs two. A third would make each run half as long
/// again.
const MIN_REPS: usize = 2;
const SETUPS: usize = 3;

fn registry(cfg: &MatrixConfig, seed: u64) -> Registry {
    let mut registry = Registry::defaults(cfg);
    for (i, scene) in registry.scenes.iter_mut().enumerate() {
        scene.seed = scene_seed(seed, i as u64);
    }
    registry
}

/// One set-up repetition, timed into `setups`: a quick-scale matrix run,
/// then the standard registry, built and validated.
fn set_up(ctx: &Ctx, standard: &MatrixConfig, setups: &mut Vec<Lap>) -> Result<Registry, String> {
    let started = Stamp::now();
    let quick = MatrixConfig::quick();
    let warm = registry(&quick, ctx.seed);
    ctx.tracer
        .within("matrix.run", setups.len() as u64, || run_matrix(&warm, &quick, &ctx.runtime))?;
    let reg = registry(standard, ctx.seed);
    reg.validate()?;
    setups.push(started.lap());
    Ok(reg)
}

/// FNV-1a digest of the report's JSON.
pub fn digest(report: &MatrixReport) -> u64 {
    report
        .to_json()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let standard = MatrixConfig::standard();
    let mut reg = set_up(ctx, &standard, &mut o.setups)?;
    while o.setups.len() < SETUPS {
        reg = set_up(ctx, &standard, &mut o.setups)?;
    }

    let first_span = ctx.tracer.span_count();
    let measure = Instant::now();
    let mut first: Option<(u64, MatrixReport)> = None;
    let mut rep = 0usize;
    while rep < MIN_REPS || !ctx.expired(measure) {
        let traced = trace_unit(ctx, rep);
        let started = Stamp::now();
        let report = ctx
            .tracer
            .within("matrix.run", 100 + rep as u64, || run_matrix(&reg, &standard, &ctx.runtime))?;
        let lap = started.lap();
        record_unit(&mut o, traced, lap);
        let d = digest(&report);
        o.attempted += 1;
        match &first {
            None => first = Some((d, report)),
            Some((d0, _)) if *d0 != d => {
                o.failed += 1;
                eprintln!(
                    "  FAILED repetition {rep}: report digest {d:016x} differs from {d0:016x}"
                );
            }
            Some(_) => {}
        }
        eprintln!(
            "  repetition {rep}: {:.2}s wall, {:.2}s CPU, digest {d:016x}",
            lap.wall_s, lap.cpu_s
        );
        rep += 1;
    }
    ctx.tracer.set_active(true);
    o.measured_spans = first_span..ctx.tracer.span_count();

    let (d0, report) = first.expect("one repetition ran");
    let undefended: Vec<f64> = report
        .cells
        .iter()
        .filter(|c| c.defense == "identity" && c.attack == "non_targeted")
        .map(|c| f64::from(c.adversarial_accuracy))
        .collect();
    o.adv_accuracy = crate::stats::mean(&undefended);
    o.extra.push(("repetitions".into(), rep.to_string()));
    o.extra.push(("report_digest".into(), format!("\"{d0:016x}\"")));
    let wall = crate::stats::median(
        &o.units.iter().chain(&o.traced_units).map(|l| l.wall_s).collect::<Vec<_>>(),
    );
    o.extra.push(("matrix_wall_s".into(), number(wall)));
    o.extra.push(("cells".into(), report.cells.len().to_string()));
    if ctx.tracer.is_on() {
        let started = Instant::now();
        ctx.tracer.within("matrix.model_set_train", 0, || {
            colper_matrix::ModelSet::train(&reg.models, &standard)
        });
        let train_s = started.elapsed().as_secs_f64();
        o.layers.insert("matrix.train_s".into(), train_s);
        o.layers.insert("matrix.cells_s".into(), (wall - train_s).max(0.0));
    }
    o.probe.points = standard.points;
    Ok(o)
}
