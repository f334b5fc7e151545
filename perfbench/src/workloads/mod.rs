//! The four workloads. Each sets itself up (timed), measures for the
//! run's `--seconds`, and checks its outputs.

mod paper_attack;
mod robustness_matrix;
mod service_mix;
pub mod stream_world;

use crate::clock::Lap;
use crate::{Ctx, Outcome};

pub const NAMES: [&str; 4] = ["paper_attack", "service_mix", "stream_world", "robustness_matrix"];

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload.as_str() {
        "paper_attack" => paper_attack::run(ctx),
        "service_mix" => service_mix::run(ctx),
        "stream_world" => stream_world::run(ctx),
        "robustness_matrix" => robustness_matrix::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

/// In a traced run, odd units run untraced so that the traced and
/// untraced unit times give the tracing overhead. Returns whether unit
/// `index` is traced, and sets the tracer accordingly.
pub fn trace_unit(ctx: &Ctx, index: usize) -> bool {
    let traced = ctx.tracer.is_on() && index.is_multiple_of(2);
    ctx.tracer.set_active(traced);
    traced
}

/// Files the unit's time with the traced or untraced units.
pub fn record_unit(outcome: &mut Outcome, traced: bool, lap: Lap) {
    if traced {
        outcome.traced_units.push(lap);
    } else {
        outcome.units.push(lap);
    }
}
