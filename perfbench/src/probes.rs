//! Per-layer probes of a traced run: timed calls into each layer's public
//! functions on inputs of the workload (its clouds, its point count, its
//! victims where it trained them). A metric the workload already measured
//! itself is kept as it is; the probes fill in every other one, so each
//! traced run reports every per-layer metric. Every probe call is a span,
//! so it also counts towards its layer's self time.

use crate::inputs::{scene_seed, stream_seed};
use crate::report::{defense_suffix, shape_suffix, DEFENSES, MATMUL_SHAPES, VICTIMS};
use crate::stats::{mean, median};
use crate::victims::Victim;
use crate::workloads::stream_world::TimedStore;
use crate::Ctx;
use colper_attack::{AttackConfig, AttackSession, StreamConfig, StreamingAttack};
use colper_autodiff::{CompileSpec, HingeSpec, TapeSchedule};
use colper_defense::{Defense, DefensePipeline};
use colper_matrix::{MatrixConfig, ModelSet, Registry};
use colper_models::{
    bind_input_planned, predict_planned, CloudTensors, ColorBinding, SegmentationModel,
};
use colper_nn::{AdamState, Forward};
use colper_runtime::Runtime;
use colper_scene::tiled::{ShardStore, TileStore, TiledWorld, TiledWorldConfig};
use colper_scene::{
    IndoorSceneConfig, PointCloud, SceneGenerator, INDOOR_CLASS_COUNT, OUTDOOR_CLASS_COUNT,
};
use colper_serve::client::http_request;
use colper_serve::json::Json;
use colper_serve::{ServeConfig, Server};
use colper_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// What the probes may reuse from the workload.
#[derive(Default)]
pub struct ProbeInputs {
    /// The workload's trained victims, in [`VICTIMS`] order.
    pub victims: Option<Vec<Victim>>,
    /// One cloud per victim, in that victim's view.
    pub clouds: Vec<CloudTensors>,
    /// Points per cloud of the workload (512 when unset).
    pub points: usize,
}

/// Median wall seconds of `reps` calls of `f`, each inside a span.
fn timed(ctx: &Ctx, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..reps {
        let started = Instant::now();
        ctx.tracer.within(name, rep as u64, &mut f);
        samples.push(started.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Runs every probe whose metric the workload did not measure and
/// returns the full per-layer table.
pub fn run(ctx: &Ctx, outcome: &mut crate::Outcome) -> BTreeMap<String, f64> {
    let probe_started = Instant::now();
    let mut layers = std::mem::take(&mut outcome.layers);
    let inputs = std::mem::take(&mut outcome.probe);
    let points = if inputs.points == 0 { 512 } else { inputs.points };
    let set = |layers: &mut BTreeMap<String, f64>, name: String, value: f64| {
        layers.entry(name).or_insert(value);
    };

    let scene = ctx.tracer.within("scene.generate", 0, || {
        SceneGenerator::indoor(IndoorSceneConfig::with_points(points))
            .generate(scene_seed(ctx.seed, 0))
    });
    let generator = SceneGenerator::indoor(IndoorSceneConfig::with_points(points));
    let generate_s = timed(ctx, "scene.generate", 5, || {
        let _ = generator.generate(scene_seed(ctx.seed, 1));
    });
    set(&mut layers, "scene.generate_ms".into(), generate_s * 1e3);

    // Victims: the workload's trained ones, else fresh untrained ones
    // (cost per call does not depend on the weights).
    let victims = inputs
        .victims
        .unwrap_or_else(|| (0..3).map(|i| Victim::new(i, INDOOR_CLASS_COUNT)).collect());
    let clouds: Vec<CloudTensors> = if inputs.clouds.len() == 3 {
        inputs.clouds
    } else {
        victims
            .iter()
            .enumerate()
            .map(|(i, v)| {
                v.view(&scene, &mut StdRng::seed_from_u64(stream_seed(ctx.seed, i as u64, 9)))
            })
            .collect()
    };

    probe_tensor(ctx, &mut layers);
    let knn_s = timed(ctx, "geom.knn_graph", 5, || {
        let _ = colper_geom::knn_graph(&clouds[0].coords, 16);
    });
    set(&mut layers, "geom.knn_ms".into(), knn_s * 1e3);

    for (i, (victim, cloud)) in victims.iter().zip(&clouds).enumerate() {
        let v = VICTIMS[i];
        let model = victim.model();
        let plan_s = timed(ctx, "models.plan", 3, || {
            let _ = model.plan(&cloud.coords);
        });
        set(&mut layers, format!("models.plan_ms.{v}"), plan_s * 1e3);
        let plan = model.plan(&cloud.coords);
        let mut rng = StdRng::seed_from_u64(stream_seed(ctx.seed, i as u64, 10));
        let forward_s = timed(ctx, "models.predict", 3, || {
            let _ = predict_planned(model, cloud, &plan, &mut rng);
        });
        set(&mut layers, format!("models.forward_ms.{v}"), forward_s * 1e3);
        probe_autodiff(ctx, &mut layers, i, model, cloud);
        probe_attack(ctx, &mut layers, i, model, cloud);
    }
    for (i, v) in VICTIMS.iter().enumerate() {
        if !layers.contains_key(&format!("nn.train_epoch_s.{v}")) {
            let rooms: Vec<PointCloud> = (0..3)
                .map(|r| {
                    SceneGenerator::indoor(IndoorSceneConfig::with_points(points))
                        .generate(scene_seed(ctx.seed, 50 + r))
                })
                .collect();
            let mut fresh = Victim::new(i, INDOOR_CLASS_COUNT);
            let (report, secs) = fresh.train(i, &rooms, 1, &ctx.tracer);
            set(
                &mut layers,
                format!("nn.train_epoch_s.{v}"),
                secs / report.epochs_run.max(1) as f64,
            );
        }
    }

    let mut adam = AdamState::new(points, 3);
    let mut value = Matrix::from_fn(points, 3, |r, c| ((r * 3 + c) % 7) as f32 * 0.1);
    let grad = Matrix::from_fn(points, 3, |r, c| ((r + c) % 5) as f32 * 0.01 - 0.02);
    let adam_s = timed(ctx, "nn.adam_update", 200, || adam.update(&mut value, &grad, 0.01));
    set(&mut layers, "nn.adam_us".into(), adam_s * 1e6);

    probe_defenses(ctx, &mut layers, &scene);
    probe_pool(ctx, &mut layers, victims[0].model(), &clouds[0]);
    if !layers.contains_key("scene.tile_load_us") {
        if let Err(err) = probe_stream(ctx, &mut layers, points) {
            eprintln!("perfbench: stream probe failed: {err}");
        }
    }
    if !layers.contains_key("matrix.train_s") {
        probe_matrix(ctx, &mut layers);
    }
    if !layers.contains_key("serve.run_ms") {
        if let Err(err) = probe_serve(ctx, &mut layers) {
            eprintln!("perfbench: serve probe failed: {err}");
        }
    }
    eprintln!("perfbench: probes took {:.2}s", probe_started.elapsed().as_secs_f64());
    layers
}

/// GEMM throughput at the victims' largest shapes; FLOPs (2mkn) and bytes
/// (4 bytes per element of A, B and C) from the shape.
fn probe_tensor(ctx: &Ctx, layers: &mut BTreeMap<String, f64>) {
    for (s, &(m, k, n)) in MATMUL_SHAPES.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(stream_seed(ctx.seed, s as u64, 11));
        let a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-1.0f32..1.0));
        let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(-1.0f32..1.0));
        let _ = a.matmul(&b);
        let secs = timed(ctx, "tensor.matmul", 40, || {
            let _ = a.matmul(&b).expect("shapes agree");
        });
        let flops = 2.0 * (m * k * n) as f64;
        let bytes = 4.0 * (m * k + k * n + m * n) as f64;
        layers.insert(
            format!("tensor.matmul_gflops.{}", shape_suffix((m, k, n))),
            flops / secs / 1e9,
        );
        layers
            .insert(format!("tensor.matmul_gbps.{}", shape_suffix((m, k, n))), bytes / secs / 1e9);
    }
}

/// Records the attack's forward and backward pass over a colour leaf
/// with the CW hinge, then compiles (PointNet++, ResGCN) or replays the
/// dynamic backward (RandLA-Net).
fn probe_autodiff(
    ctx: &Ctx,
    layers: &mut BTreeMap<String, f64>,
    i: usize,
    model: &dyn SegmentationModel,
    cloud: &CloudTensors,
) {
    let plan = model.plan(&cloud.coords);
    let labels = cloud.labels.clone();
    let mask = vec![true; cloud.len()];
    let mut rng = StdRng::seed_from_u64(stream_seed(ctx.seed, i as u64, 12));
    let record = |rng: &mut StdRng| {
        let mut session = Forward::new(model.params(), false);
        let input = bind_input_planned(&mut session.tape, cloud, ColorBinding::Leaf, &plan);
        let logits = model.forward(&mut session, &input, rng);
        let loss = session.tape.cw_nontargeted(logits, &labels, &mask);
        (session, input.color, logits, loss)
    };
    if !model.deterministic_eval() {
        let mut samples = Vec::new();
        for rep in 0..5 {
            let (mut session, _, _, loss) = record(&mut rng);
            let started = Instant::now();
            ctx.tracer.within("autodiff.backward", rep, || session.tape.backward(loss));
            samples.push(started.elapsed().as_secs_f64());
        }
        layers.insert("autodiff.backward_ms.randla".into(), median(&samples) * 1e3);
        return;
    }
    let mut compile = Vec::new();
    let mut replay = Vec::new();
    for rep in 0..3 {
        let (mut session, color, logits, loss) = record(&mut rng);
        session.tape.backward(loss);
        let spec = CompileSpec {
            input: color,
            output: loss,
            keep: &[logits],
            hinge: Some(HingeSpec { labels: labels.clone(), mask: mask.clone(), targeted: false }),
        };
        let started = Instant::now();
        let schedule = ctx
            .tracer
            .within("autodiff.compile", rep, || TapeSchedule::compile(&mut session.tape, &spec));
        compile.push(started.elapsed().as_secs_f64());
        let Ok(schedule) = schedule else {
            eprintln!("perfbench: {} graph did not compile", VICTIMS[i]);
            continue;
        };
        for r in 0..4 {
            let started = Instant::now();
            ctx.tracer
                .within("autodiff.replay", r, || schedule.replay(&mut session.tape, &cloud.colors));
            replay.push(started.elapsed().as_secs_f64());
        }
    }
    layers.insert(format!("autodiff.compile_ms.{}", VICTIMS[i]), median(&compile) * 1e3);
    layers.insert(format!("autodiff.replay_ms.{}", VICTIMS[i]), median(&replay) * 1e3);
}

const SHORT_STEPS: usize = 8;
const LONG_STEPS: usize = 24;

/// Marginal cost of one attack step from two attack lengths that never
/// stop early (median of three runs each); steps run and restarts under the paper's convergence rule
/// when the workload did not record them.
fn probe_attack(
    ctx: &Ctx,
    layers: &mut BTreeMap<String, f64>,
    i: usize,
    model: &dyn SegmentationModel,
    cloud: &CloudTensors,
) {
    let v = VICTIMS[i];
    let attack = |steps: usize, converge: bool| {
        let mut cfg = AttackConfig::non_targeted(steps);
        if !converge {
            // Accuracy never drops below zero: every step runs.
            cfg.convergence_threshold = Some(0.0);
        }
        let mut rng = StdRng::seed_from_u64(stream_seed(ctx.seed, i as u64, 13));
        let started = Instant::now();
        let result = ctx.tracer.within("colper.attack", i as u64, || {
            AttackSession::new(cfg).runtime(&ctx.runtime).run_with_rng(model, cloud, &mut rng)
        });
        (started.elapsed().as_secs_f64(), result)
    };
    let median_secs =
        |steps: usize| median(&(0..3).map(|_| attack(steps, false).0).collect::<Vec<_>>());
    let (short, long) = (median_secs(SHORT_STEPS), median_secs(LONG_STEPS));
    layers.insert(
        format!("colper.step_ms.{v}"),
        (long - short) / (LONG_STEPS - SHORT_STEPS) as f64 * 1e3,
    );
    if let std::collections::btree_map::Entry::Vacant(steps_run) =
        layers.entry(format!("colper.steps_run.{v}"))
    {
        let (_, result) = attack(LONG_STEPS, true);
        steps_run.insert(result.steps_run as f64);
        if i == 0 {
            layers
                .entry("colper.restart_ratio".into())
                .or_insert(result.restarts as f64 / result.steps_run.max(1) as f64);
        }
    }
}

fn probe_defenses(ctx: &Ctx, layers: &mut BTreeMap<String, f64>, scene: &PointCloud) {
    for spec in DEFENSES {
        let pipeline = DefensePipeline::parse(spec).expect("default pipelines parse");
        let mut rng = StdRng::seed_from_u64(stream_seed(ctx.seed, 0, 14));
        let secs = timed(ctx, "defense.apply", 5, || {
            let _ = pipeline.apply(scene, &mut rng);
        });
        layers.insert(format!("defense.apply_ms.{}", defense_suffix(spec)), secs * 1e3);
    }
}

/// One PointNet++ attack on `Runtime::sequential()` against the run's
/// pool.
fn probe_pool(
    ctx: &Ctx,
    layers: &mut BTreeMap<String, f64>,
    model: &dyn SegmentationModel,
    cloud: &CloudTensors,
) {
    let attack = |rt: &Runtime| {
        let mut cfg = AttackConfig::non_targeted(SHORT_STEPS * 2);
        cfg.convergence_threshold = Some(0.0);
        let mut rng = StdRng::seed_from_u64(stream_seed(ctx.seed, 0, 15));
        rt.install(|| {
            let _ = AttackSession::new(cfg).runtime(rt).run_with_rng(model, cloud, &mut rng);
        });
    };
    let sequential = Runtime::sequential();
    let seq_s = timed(ctx, "runtime.sequential_attack", 2, || attack(&sequential));
    let par_s = timed(ctx, "runtime.pool_attack", 2, || attack(&ctx.runtime));
    layers.insert("runtime.pool_speedup.pointnet2".into(), seq_s / par_s);
}

/// A 2x2-tile world under a one-tile budget, streamed once.
fn probe_stream(
    ctx: &Ctx,
    layers: &mut BTreeMap<String, f64>,
    points: usize,
) -> Result<(), String> {
    let dir = ctx.out_dir.join(format!("probe-world-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = (|| {
        let mut cfg = TiledWorldConfig::grid(2, points.clamp(128, 512));
        cfg.world_seed = scene_seed(ctx.seed, 77);
        let started = Instant::now();
        let world = ctx
            .tracer
            .within("scene.tiled_world_create", 0, || TiledWorld::create(&dir, &cfg))
            .map_err(|e| e.to_string())?;
        let mib = cfg.tile_bytes() as f64 * 4.0 / (1 << 20) as f64;
        layers.insert("scene.shard_write_mib_per_s".into(), mib / started.elapsed().as_secs_f64());
        let mut store = TimedStore::new(ShardStore::new(world, cfg.tile_bytes()), &ctx.tracer);
        let victim = Victim::new(0, OUTDOOR_CLASS_COUNT);
        let mut scfg = StreamConfig::new(AttackConfig::non_targeted(2));
        scfg.window_core = 128;
        scfg.seed = stream_seed(ctx.seed, 0, 16);
        let started = Instant::now();
        let out = ctx
            .tracer
            .within("colper.streaming_attack", 0, || {
                StreamingAttack::new(scfg).runtime(&ctx.runtime).run(victim.model(), &mut store)
            })
            .map_err(|e| e.to_string())?;
        let secs = started.elapsed().as_secs_f64();
        // Read every tile once more so the loads include a cold miss.
        for id in store.tile_ids() {
            let _ = store.load(id).map_err(|e| e.to_string())?;
        }
        let stats = store.resident_stats();
        let (loads, writes) = store.times();
        layers.entry("scene.tile_load_us".into()).or_insert(mean(&loads) * 1e6);
        layers.entry("scene.write_colors_us".into()).or_insert(mean(&writes) * 1e6);
        layers
            .entry("scene.residency_miss_ratio".into())
            .or_insert(stats.misses as f64 / (stats.hits + stats.misses).max(1) as f64);
        layers.entry("scene.evictions".into()).or_insert(stats.evictions as f64);
        layers.entry("colper.window_ms".into()).or_insert(secs * 1e3 / out.windows.max(1) as f64);
        layers
            .entry("colper.halo_ratio".into())
            .or_insert(out.halo_points as f64 / out.points_attacked.max(1) as f64);
        layers
            .entry("colper.seat_warm_ratio".into())
            .or_insert(out.warm_starts as f64 / out.seat_runs.max(1) as f64);
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Matrix training and cells at quick scale.
fn probe_matrix(ctx: &Ctx, layers: &mut BTreeMap<String, f64>) {
    let cfg = MatrixConfig::quick();
    let mut registry = Registry::defaults(&cfg);
    for (i, scene) in registry.scenes.iter_mut().enumerate() {
        scene.seed = scene_seed(ctx.seed, 90 + i as u64);
    }
    let started = Instant::now();
    ctx.tracer.within("matrix.model_set_train", 0, || ModelSet::train(&registry.models, &cfg));
    let train_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let report =
        ctx.tracer.within("matrix.run", 0, || colper_matrix::run(&registry, &cfg, &ctx.runtime));
    let run_s = started.elapsed().as_secs_f64();
    if let Err(err) = report {
        eprintln!("perfbench: matrix probe failed: {err}");
    }
    layers.insert("matrix.train_s".into(), train_s);
    layers.insert("matrix.cells_s".into(), (run_s - train_s).max(0.0));
}

/// A short session against a fresh `colperd`: repeated small jobs (cold
/// then warm seats), one 422 and one 400, sent on a 25 ms schedule.
fn probe_serve(ctx: &Ctx, layers: &mut BTreeMap<String, f64>) -> Result<(), String> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        threads: ctx.threads,
        queue_capacity: 16,
        seat_cap: 4,
    };
    let server =
        ctx.tracer.within("serve.start", 0, || Server::start(&cfg)).map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    let bodies = [
        "{\"model\":\"pointnet\",\"points\":64,\"steps\":3,\"seed\":1}",
        "{\"model\":\"resgcn\",\"points\":64,\"steps\":3,\"seed\":2}",
        "{\"model\":\"pointnet\",\"points\":64,\"steps\":3,\"seed\":1}",
        "{\"model\":\"resgcn\",\"points\":64,\"steps\":3,\"seed\":2}",
        "{\"model\":\"pointnet\",\"points\":4,\"steps\":3}",
        "{not json",
    ];
    let due: Vec<f64> = (0..bodies.len()).map(|i| i as f64 * 0.025).collect();
    let timed = crate::openloop::run(&due, 2, |i| {
        ctx.tracer
            .within("serve.attack", i as u64, || http_request(&addr, "POST", "/attack", bodies[i]))
    });
    let (mut queue, mut run, mut intake, mut steps, mut zero) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), 0usize);
    for t in &timed {
        let Ok((200, body)) = &t.result else { continue };
        let v = Json::parse(body).map_err(|e| e.to_string())?;
        let num = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        queue.push(num("queue_ms"));
        run.push(num("run_ms"));
        intake.push(t.service_ms - num("queue_ms") - num("run_ms"));
        steps.push(num("steps_run"));
        zero += usize::from(num("l2_sq") < 1e-9);
    }
    let stats = http_request(&addr, "GET", "/stats", "").map_err(|e| e.to_string())?;
    ctx.tracer.within("serve.stop", 0, || server.stop());
    let stats = Json::parse(&stats.1).map_err(|e| e.to_string())?;
    let counter = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    layers.insert("serve.queue_ms".into(), median(&queue));
    layers.insert("serve.run_ms".into(), median(&run));
    layers.insert("serve.intake_ms".into(), median(&intake));
    layers.insert("serve.warm_start_ratio".into(), counter("warm_starts") / counter("completed"));
    layers.insert("serve.rejected.429".into(), counter("rejected_full"));
    layers.insert("serve.rejected.422".into(), counter("rejected_invalid"));
    layers.insert("serve.rejected.400".into(), counter("rejected_malformed"));
    layers.insert(
        "serve.generator_late_ms".into(),
        timed.iter().map(|t| t.late_ms).fold(0.0, f64::max),
    );
    layers.insert("serve.steps_run_mean".into(), mean(&steps));
    layers.insert("serve.zero_l2_fraction".into(), zero as f64 / steps.len().max(1) as f64);
    Ok(())
}
