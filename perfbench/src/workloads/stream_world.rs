//! `stream_world`: `StreamingAttack` over a sharded `TiledWorld` eight
//! times larger than its `ShardStore` residency budget, at the shape of
//! the repository's full-scale streaming run: large tiles, one short
//! window attack per tile. Shards are written in set-up, and the victim
//! (PointNet++) is trained in set-up on tiles of the same world layout.
//! Perturbed colours are written back to the shards, so reads and writes
//! share the tiled scene layer; every pass starts from the set-up colours.
//!
//! Unit of work: one tile (halo gathering over up to eight neighbour
//! tiles, the window attack, and the write-back of the tile's colours). A
//! pass fails when its peak resident bytes exceed the budget, when it
//! attacks nothing, or when its result differs from the first pass's.

use super::{record_unit, trace_unit};
use crate::clock::{Lap, Stamp};
use crate::inputs::stream_seed;
use crate::report::number;
use crate::victims::Victim;
use crate::{Ctx, Outcome};
use colper_attack::{AttackConfig, StreamConfig, StreamingAttack};
use colper_scene::tiled::{
    ResidencyStats, ShardStore, TileAccess, TileId, TileStore, TiledError, TiledWorld,
    TiledWorldConfig,
};
use colper_scene::{mix_seed, OUTDOOR_CLASS_COUNT};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const TILES: u32 = 4;
pub const POINTS_PER_TILE: usize = 65_536;
pub const BUDGET_TILES: usize = 2;
pub const STEPS: usize = 2;
const WINDOWS_PER_TILE: usize = 1;
const TRAIN_TILES: u32 = 3;
/// Points per training tile: about one attack window (512 core points
/// plus the halo) over a tile of the same extent.
const TRAIN_POINTS_PER_TILE: usize = 1024;
const TRAIN_EPOCHS: usize = 6;
/// Set-up runs this many times; `setup_s` is the median.
const SETUPS: usize = 5;
/// World seed of the training tiles: fixed, so set-up does the same work
/// for every seed.
const TRAIN_WORLD_SEED: u64 = 0x7EA1_0000;

/// Times every call into the shard store and when each tile's
/// write-back finishes.
pub struct TimedStore<'a> {
    inner: ShardStore,
    tracer: &'a crate::trace::Tracer,
    loads: Mutex<Vec<f64>>,
    writes: Vec<f64>,
    written_at: Vec<Stamp>,
}

impl<'a> TimedStore<'a> {
    pub fn new(inner: ShardStore, tracer: &'a crate::trace::Tracer) -> Self {
        TimedStore {
            inner,
            tracer,
            loads: Mutex::new(Vec::new()),
            writes: Vec::new(),
            written_at: Vec::new(),
        }
    }

    /// Seconds of every tile load and of every colour write-back so far.
    pub fn times(&self) -> (Vec<f64>, Vec<f64>) {
        (self.loads.lock().expect("load times").clone(), self.writes.clone())
    }
}

impl TileStore for TimedStore<'_> {
    fn tiles_x(&self) -> u32 {
        self.inner.tiles_x()
    }

    fn tiles_y(&self) -> u32 {
        self.inner.tiles_y()
    }

    fn tile_extent(&self) -> f32 {
        self.inner.tile_extent()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn load(&self, id: TileId) -> Result<Arc<dyn TileAccess>, TiledError> {
        let started = Instant::now();
        let tile = self
            .tracer
            .within("scene.tile_load", u64::from(id.y * TILES + id.x), || self.inner.load(id));
        self.loads.lock().expect("load times").push(started.elapsed().as_secs_f64());
        tile
    }

    fn write_colors(&mut self, id: TileId, colors: &[[f32; 3]]) -> Result<(), TiledError> {
        let started = Instant::now();
        let inner = &mut self.inner;
        let done = self.tracer.within("scene.write_colors", u64::from(id.y * TILES + id.x), || {
            inner.write_colors(id, colors)
        });
        self.writes.push(started.elapsed().as_secs_f64());
        self.written_at.push(Stamp::now());
        done
    }

    fn resident_stats(&self) -> ResidencyStats {
        self.inner.resident_stats()
    }
}

fn world_config(seed: u64) -> TiledWorldConfig {
    let mut cfg = TiledWorldConfig::grid(TILES, POINTS_PER_TILE);
    cfg.world_seed = mix_seed(seed, 0x3D3D, 0);
    cfg
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let dir = ctx.out_dir.join(format!("stream-world-{}", std::process::id()));
    let result = run_in(ctx, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(ctx: &Ctx, dir: &std::path::Path) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let cfg = world_config(ctx.seed);
    let budget = BUDGET_TILES * cfg.tile_bytes();

    let mut times = SetUpTimes::default();
    let mut kept = None;
    for _ in 0..SETUPS {
        // The previous repetition's world is dropped before its shards
        // are written again.
        drop(kept.take());
        kept = Some(set_up(ctx, dir, &cfg, &mut times)?);
    }
    let SetUp { victim, world, pristine } = kept.expect("set-up ran");
    let world_mib = cfg.tile_bytes() as f64 * f64::from(TILES * TILES) / (1 << 20) as f64;
    o.layers.insert(
        "scene.shard_write_mib_per_s".into(),
        world_mib / crate::stats::median(&wall(&times.shard)),
    );

    let model = victim.model();
    let mut scfg = StreamConfig::new(AttackConfig::non_targeted(STEPS));
    scfg.windows_per_tile = Some(WINDOWS_PER_TILE);
    scfg.seed = stream_seed(ctx.seed, 0, 0);
    let first_span = ctx.tracer.span_count();
    let measure = Instant::now();
    let (mut attack_s, mut points, mut windows, mut halo) = (0.0, 0usize, 0usize, 0usize);
    let (mut seat_runs, mut warm) = (0u64, 0u64);
    let (mut load_s, mut write_s) = (Vec::new(), Vec::new());
    let mut first: Option<(ResidencyStats, u32)> = None;
    let mut peak = 0usize;
    let mut pass = 0usize;
    while pass < 1 || !ctx.expired(measure) {
        // Untimed: restore the set-up colours, so every pass attacks the
        // same world.
        for (id, colors) in &pristine {
            world.write_colors(*id, colors).map_err(|e| e.to_string())?;
        }
        let traced = trace_unit(ctx, pass);
        let reopened = TiledWorld::open(dir).map_err(|e| e.to_string())?;
        let mut store = TimedStore::new(ShardStore::new(reopened, budget), &ctx.tracer);
        let started = Stamp::now();
        let outcome = ctx
            .tracer
            .within("colper.streaming_attack", pass as u64, || {
                StreamingAttack::new(scfg.clone()).runtime(&ctx.runtime).run(model, &mut store)
            })
            .map_err(|e| e.to_string())?;
        let pass_s = started.lap().wall_s;
        let mut previous = started;
        for &at in &store.written_at {
            record_unit(&mut o, traced, previous.to(at));
            previous = at;
        }
        o.attempted += outcome.tiles as u64;
        let l2_bits = outcome.total_l2_sq.to_bits();
        let first_bits = first.as_ref().map_or(l2_bits, |f| f.1);
        if outcome.residency.peak_bytes > budget
            || outcome.points_attacked == 0
            || !outcome.total_l2_sq.is_finite()
            || l2_bits != first_bits
        {
            o.failed += outcome.tiles as u64;
            eprintln!(
                "  FAILED pass {pass}: peak {} of budget {budget}, {} points attacked, \
                 l2_sq {} (first pass {})",
                outcome.residency.peak_bytes,
                outcome.points_attacked,
                outcome.total_l2_sq,
                f32::from_bits(first_bits)
            );
        }
        if pass == 0 {
            o.adv_accuracy = f64::from(outcome.adversarial.accuracy());
            first = Some((outcome.residency, l2_bits));
            eprintln!(
                "  pass 0: clean accuracy {:.3}, adversarial {:.3}, {} windows, {pass_s:.2}s",
                outcome.clean.accuracy(),
                outcome.adversarial.accuracy(),
                outcome.windows
            );
        }
        peak = peak.max(outcome.residency.peak_bytes);
        attack_s += pass_s;
        points += outcome.points_attacked;
        windows += outcome.windows;
        halo += outcome.halo_points;
        seat_runs += outcome.seat_runs;
        warm += outcome.warm_starts;
        let (loads, writes) = store.times();
        load_s.extend(loads);
        write_s.extend(writes);
        pass += 1;
    }
    ctx.tracer.set_active(true);
    o.measured_spans = first_span..ctx.tracer.span_count();
    o.setups = times.setup.clone();
    o.layers.insert("nn.train_epoch_s.pointnet2".into(), crate::stats::median(&times.epoch_s));

    let (first, _) = first.expect("one pass ran");
    let layers = &mut o.layers;
    layers.insert("scene.tile_load_us".into(), crate::stats::mean(&load_s) * 1e6);
    layers.insert("scene.write_colors_us".into(), crate::stats::mean(&write_s) * 1e6);
    layers.insert(
        "scene.residency_miss_ratio".into(),
        first.misses as f64 / (first.hits + first.misses).max(1) as f64,
    );
    layers.insert("scene.evictions".into(), first.evictions as f64);
    layers.insert("colper.window_ms".into(), attack_s * 1e3 / windows.max(1) as f64);
    layers.insert("colper.halo_ratio".into(), halo as f64 / points.max(1) as f64);
    layers.insert("colper.seat_warm_ratio".into(), warm as f64 / seat_runs.max(1) as f64);
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    let store_s = load_s.iter().chain(&write_s).sum::<f64>();
    o.extra.push(("passes".into(), pass.to_string()));
    o.extra.push(("peak_resident_mib".into(), number(mib(peak))));
    o.extra.push(("budget_mib".into(), number(mib(budget))));
    o.extra.push(("world_mib".into(), number(world_mib)));
    o.extra.push(("stream_points_per_s".into(), number(points as f64 / attack_s)));
    o.extra.push(("shard_store_share".into(), number(store_s / attack_s)));
    o.extra.push(("setup_train_cpu_s".into(), summary(&cpu(&times.train))));
    o.extra.push(("setup_shard_cpu_s".into(), summary(&cpu(&times.shard))));
    eprintln!(
        "  {pass} passes, peak resident {:.3} MiB of {:.3} MiB budget, shard store {:.1} % of pass time",
        mib(peak),
        mib(budget),
        store_s / attack_s * 100.0
    );
    o.probe.points = scfg.window_core + scfg.halo_budget;
    Ok(o)
}

/// What set-up leaves for the passes.
struct SetUp {
    victim: Victim,
    world: TiledWorld,
    /// Every tile's colours as sharded, restored before each pass.
    pristine: Vec<(TileId, Vec<[f32; 3]>)>,
}

/// Each set-up repetition and its parts.
#[derive(Default)]
struct SetUpTimes {
    setup: Vec<Lap>,
    train: Vec<Lap>,
    shard: Vec<Lap>,
    epoch_s: Vec<f64>,
}

fn wall(laps: &[Lap]) -> Vec<f64> {
    laps.iter().map(|l| l.wall_s).collect()
}

fn cpu(laps: &[Lap]) -> Vec<f64> {
    laps.iter().map(|l| l.cpu_s).collect()
}

/// One set-up repetition: train the victim on tiles of a world with the
/// same layout, then shard the attacked world into `dir` and keep its
/// colours.
fn set_up(
    ctx: &Ctx,
    dir: &std::path::Path,
    cfg: &TiledWorldConfig,
    times: &mut SetUpTimes,
) -> Result<SetUp, String> {
    let setup = Stamp::now();
    let mut train_cfg = TiledWorldConfig::grid(TRAIN_TILES, TRAIN_POINTS_PER_TILE);
    train_cfg.world_seed = TRAIN_WORLD_SEED;
    let train_world = colper_scene::tiled::MemStore::generate(&train_cfg);
    let tiles = ctx
        .tracer
        .within("scene.read_tiles", 0, || {
            train_world
                .tile_ids()
                .into_iter()
                .map(|id| tile_cloud(&train_world, id))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())?;
    let mut victim = Victim::new(0, OUTDOOR_CLASS_COUNT);
    let (report, secs) = victim.train(0, &tiles, TRAIN_EPOCHS, &ctx.tracer);
    times.train.push(setup.lap());
    times.epoch_s.push(secs / report.epochs_run.max(1) as f64);
    let _ = std::fs::remove_dir_all(dir);
    let shard_started = Stamp::now();
    let world = ctx
        .tracer
        .within("scene.tiled_world_create", 0, || TiledWorld::create(dir, cfg))
        .map_err(|e| e.to_string())?;
    times.shard.push(shard_started.lap());
    let pristine = world
        .tile_ids()
        .into_iter()
        .map(|id| Ok((id, world.read_tile(id)?.colors)))
        .collect::<Result<Vec<_>, TiledError>>()
        .map_err(|e| e.to_string())?;
    times.setup.push(setup.lap());
    eprintln!(
        "  victim: train accuracy {:.3} after {} epochs in {secs:.2}s",
        report.final_accuracy, report.epochs_run
    );
    Ok(SetUp { victim, world, pristine })
}

fn summary(values: &[f64]) -> String {
    crate::stats::Summary::of(values).map_or("null".into(), |s| crate::report::summary_json(&s))
}

fn tile_cloud(
    store: &colper_scene::tiled::MemStore,
    id: TileId,
) -> Result<colper_scene::PointCloud, TiledError> {
    let tile = store.load(id)?;
    let n = tile.len();
    Ok(colper_scene::PointCloud::new(
        (0..n).map(|i| tile.point(i)).collect(),
        (0..n).map(|i| tile.color(i)).collect(),
        (0..n).map(|i| tile.label(i)).collect(),
        OUTDOOR_CLASS_COUNT,
    ))
}
