//! `paper_attack`: the Table-1 setting. Non-targeted COLPER on every
//! point of 512-point indoor clouds, 120-step budget with the paper's
//! convergence rule, against PointNet++, ResGCN and RandLA-Net. The
//! victims are trained in set-up; clouds are attacked one at a time.
//!
//! Unit of work: one round, i.e. one fresh scene attacked against all
//! three victims. A cloud fails when its adversarial accuracy is not
//! below its matched-L2 noise baseline, or when a result is not finite.

use super::{record_unit, trace_unit};
use crate::clock::{Lap, Stamp};
use crate::inputs::{scene_seed, stream_seed};
use crate::report::VICTIMS;
use crate::victims::{accuracy, train_all};
use crate::{Ctx, Outcome};
use colper_attack::{AttackConfig, AttackSession, NoiseBaseline};
use colper_scene::{IndoorSceneConfig, SceneGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

pub const POINTS: usize = 512;
pub const STEPS: usize = 120;
/// Rounds every run completes, however short `--seconds` is; the
/// adversarial accuracy is taken over these rounds only, so that it
/// depends on the seed alone.
const MIN_ROUNDS: usize = 2;
/// Set-up (training the three victims, about 5 s) runs this many times;
/// `setup_s` is the median, here the faster of the two. A third
/// repetition would make each run about a fifth longer.
const SETUPS: usize = 2;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut trained = None;
    for _ in 0..SETUPS {
        // Free the previous repetition's victims first, so every
        // repetition starts from the same allocator state.
        drop(trained.take());
        let setup = Stamp::now();
        trained = Some(train_all(POINTS, &ctx.tracer));
        o.setups.push(setup.lap());
    }
    let (victims, epoch_s) = trained.expect("set-up ran");
    for (v, s) in VICTIMS.iter().zip(&epoch_s) {
        o.layers.insert(format!("nn.train_epoch_s.{v}"), *s);
    }

    let generator = SceneGenerator::indoor(IndoorSceneConfig::with_points(POINTS));
    let mut steps_run = [Vec::new(), Vec::new(), Vec::new()];
    let mut cloud_s = [Vec::new(), Vec::new(), Vec::new()];
    let (mut restarts, mut total_steps) = (0usize, 0usize);
    let mut accuracies = Vec::new();
    let first_span = ctx.tracer.span_count();
    let measure = Instant::now();
    let mut round = 0usize;
    while round < MIN_ROUNDS || !ctx.expired(measure) {
        let traced = trace_unit(ctx, round);
        let cloud = ctx.tracer.within("scene.generate", round as u64, || {
            generator.generate(scene_seed(ctx.seed, round as u64))
        });
        let mut round_lap = Lap::default();
        for (vi, victim) in victims.iter().enumerate() {
            let id = (round * 3 + vi) as u64;
            let mut view_rng = StdRng::seed_from_u64(stream_seed(ctx.seed, id, 0));
            let tensors = victim.view(&cloud, &mut view_rng);
            let model = victim.model();
            let mut rng = StdRng::seed_from_u64(stream_seed(ctx.seed, id, 1));
            let started = Stamp::now();
            let result = ctx.tracer.within("colper.attack", id, || {
                AttackSession::new(AttackConfig::non_targeted(STEPS))
                    .runtime(&ctx.runtime)
                    .run_with_rng(model, &tensors, &mut rng)
            });
            let lap = started.lap();
            cloud_s[vi].push(lap.wall_s);
            round_lap = round_lap + lap;

            let mask = vec![true; tensors.len()];
            let baseline = ctx.tracer.within("colper.noise_baseline", id, || {
                NoiseBaseline::new(result.l2_sq).run(model, &tensors, &mask, &mut rng)
            });
            let adv = accuracy(&result.predictions, &tensors.labels);
            let base = accuracy(&baseline.predictions, &tensors.labels);
            let finite = result.l2_sq.is_finite()
                && result.success_metric.is_finite()
                && result.gain_history.iter().all(|g| g.is_finite());
            o.attempted += 1;
            if !(finite && adv < base) {
                o.failed += 1;
                eprintln!(
                    "  FAILED {} round {round}: adversarial {adv:.3} vs noise {base:.3}, l2_sq {}",
                    VICTIMS[vi], result.l2_sq
                );
            }
            if round < MIN_ROUNDS {
                accuracies.push(adv);
            }
            steps_run[vi].push(result.steps_run as f64);
            restarts += result.restarts;
            total_steps += result.steps_run;
            if round == 0 {
                o.probe.clouds.push(tensors);
            }
        }
        record_unit(&mut o, traced, round_lap);
        eprintln!(
            "  round {round}: {:.2}s wall, {:.2}s CPU, steps {:?}",
            round_lap.wall_s,
            round_lap.cpu_s,
            steps_run.iter().map(|s| s.last().copied().unwrap_or(0.0)).collect::<Vec<_>>()
        );
        round += 1;
    }
    ctx.tracer.set_active(true);
    o.measured_spans = first_span..ctx.tracer.span_count();

    o.adv_accuracy = crate::stats::mean(&accuracies);
    for (v, s) in VICTIMS.iter().zip(&steps_run) {
        o.layers.insert(format!("colper.steps_run.{v}"), crate::stats::mean(s));
    }
    o.layers.insert("colper.restart_ratio".into(), restarts as f64 / total_steps.max(1) as f64);
    o.extra.push(("rounds".into(), round.to_string()));
    for (v, s) in VICTIMS.iter().zip(&cloud_s) {
        o.extra
            .push((format!("attack_cloud_s.{v}"), crate::report::number(crate::stats::median(s))));
    }
    o.probe.victims = Some(victims);
    Ok(o)
}
