//! The three Table-1 victims behind one type: construction, training,
//! and each victim's normalised view of a scene.

use crate::trace::Tracer;
use colper_models::{
    train_model, CloudTensors, PointNet2, PointNet2Config, RandLaNet, RandLaNetConfig, ResGcn,
    ResGcnConfig, SegmentationModel, TrainConfig, TrainReport,
};
use colper_scene::{normalize, IndoorSceneConfig, PointCloud, S3disLikeDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One victim network.
pub enum Victim {
    PointNet2(PointNet2),
    ResGcn(ResGcn),
    RandLa(RandLaNet),
}

/// Training scale of the set-up victims: 2 rooms in each of the five
/// training areas at 512 points, 6 epochs. Fixed, so that set-up does the
/// same work on every run and every seed.
pub const TRAIN_ROOMS_PER_AREA: usize = 2;
pub const TRAIN_EPOCHS: usize = 6;

impl Victim {
    /// A freshly initialised `small` victim (`index` into
    /// [`crate::report::VICTIMS`]) with the harness's per-victim seed.
    pub fn new(index: usize, classes: usize) -> Victim {
        let mut rng = StdRng::seed_from_u64(init_seed(index));
        match index {
            0 => Victim::PointNet2(PointNet2::new(PointNet2Config::small(classes), &mut rng)),
            1 => Victim::ResGcn(ResGcn::new(ResGcnConfig::small(classes), &mut rng)),
            _ => Victim::RandLa(RandLaNet::new(RandLaNetConfig::small(classes), &mut rng)),
        }
    }

    pub fn model(&self) -> &dyn SegmentationModel {
        match self {
            Victim::PointNet2(m) => m,
            Victim::ResGcn(m) => m,
            Victim::RandLa(m) => m,
        }
    }

    fn model_mut(&mut self) -> &mut dyn SegmentationModel {
        match self {
            Victim::PointNet2(m) => m,
            Victim::ResGcn(m) => m,
            Victim::RandLa(m) => m,
        }
    }

    /// The victim's normalised view of `cloud` as tensors. RandLA-Net's
    /// view resamples, drawing from `rng`.
    pub fn view(&self, cloud: &PointCloud, rng: &mut StdRng) -> CloudTensors {
        CloudTensors::from_cloud(&match self {
            Victim::PointNet2(_) => normalize::pointnet_view(cloud),
            Victim::ResGcn(_) => normalize::resgcn_view(cloud),
            Victim::RandLa(_) => normalize::randla_view(cloud, cloud.len(), rng),
        })
    }

    /// Trains on `rooms`, returning the report and the seconds it took.
    pub fn train(
        &mut self,
        index: usize,
        rooms: &[PointCloud],
        epochs: usize,
        tracer: &Tracer,
    ) -> (TrainReport, f64) {
        let mut rng = StdRng::seed_from_u64(init_seed(index));
        let clouds: Vec<CloudTensors> = rooms.iter().map(|c| self.view(c, &mut rng)).collect();
        let cfg = TrainConfig { epochs, lr: 0.01, target_accuracy: 0.95 };
        let started = std::time::Instant::now();
        let report = tracer.within("models.train_model", index as u64, || {
            train_model(self.model_mut(), &clouds, &cfg, &mut rng)
        });
        (report, started.elapsed().as_secs_f64())
    }
}

fn init_seed(index: usize) -> u64 {
    [11, 22, 33][index.min(2)]
}

/// The set-up victims: all three trained on the same S3DIS-like rooms.
/// Returns the victims and each one's seconds per training epoch.
pub fn train_all(points: usize, tracer: &Tracer) -> (Vec<Victim>, Vec<f64>) {
    let rooms = tracer.within("scene.train_rooms", 0, || {
        S3disLikeDataset::new(IndoorSceneConfig::with_points(points), TRAIN_ROOMS_PER_AREA)
            .train_rooms()
    });
    let mut victims = Vec::new();
    let mut epoch_s = Vec::new();
    for index in 0..3 {
        let mut victim = Victim::new(index, colper_scene::INDOOR_CLASS_COUNT);
        let (report, secs) = victim.train(index, &rooms, TRAIN_EPOCHS, tracer);
        eprintln!(
            "  {}: train accuracy {:.3} after {} epochs in {secs:.2}s",
            crate::report::VICTIMS[index],
            report.final_accuracy,
            report.epochs_run
        );
        epoch_s.push(secs / report.epochs_run.max(1) as f64);
        victims.push(victim);
    }
    (victims, epoch_s)
}

/// Share of `predictions` equal to `labels`.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    predictions.iter().zip(labels).filter(|(p, l)| p == l).count() as f64 / labels.len() as f64
}
