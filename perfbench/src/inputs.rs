//! Seeded input generation. Every input a workload feeds the program is a
//! pure function of `--seed`; the program only ever sees the generated
//! inputs.

use colper_scene::mix_seed;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Seed of the `index`-th scene of a run.
pub fn scene_seed(seed: u64, index: u64) -> u64 {
    mix_seed(seed, 0x5CE7E, index)
}

/// Seed of an RNG stream `stream` of work item `index`.
pub fn stream_seed(seed: u64, index: u64, stream: u64) -> u64 {
    mix_seed(seed ^ 0xA77A_C4ED, index, stream)
}

/// One request of the open-loop schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// When the request is due, seconds after the schedule starts.
    pub due_s: f64,
    /// Index of the ladder rung the request belongs to.
    pub rung: usize,
    /// The `POST /attack` body.
    pub body: String,
    /// The status the service must answer with.
    pub expect: u16,
    /// Whether the body asks for a streamed (JSONL) answer.
    pub stream: bool,
    /// Points the job attacks (0 for an invalid body).
    pub points: usize,
}

/// Point buckets of the job mix.
pub const POINT_BUCKETS: [usize; 4] = [64, 128, 256, 512];

/// Jobs per deck. The mix is a deck of this many job kinds in fixed
/// proportions, dealt in a seeded order and reshuffled when used up, so
/// every seed offers the same mix and only the order and the scenes
/// change. A small deck keeps the mix of a partly dealt deck close to
/// the whole.
pub const DECK: usize = 20;

/// One entry of the deck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Job {
        model: &'static str,
        points: usize,
        steps: usize,
        objective: &'static str,
        stream: bool,
    },
    /// A well-formed body the service must refuse with 422.
    Invalid,
    /// A repeat of an earlier valid, unstreamed body.
    Repeat,
}

/// Kind `i` of the deck: 7/5/4/2 jobs of 64/128/256/512 points, both
/// models in every bucket, steps spread over 5..=20, one transfer and
/// one boundary objective, three streamed answers, one invalid body and
/// one repeat.
pub fn kind(i: usize) -> Kind {
    const BUCKET_OF: [usize; 10] = [0, 0, 0, 0, 1, 1, 1, 2, 2, 3];
    match i % DECK {
        5 => Kind::Repeat,
        13 => Kind::Invalid,
        i => Kind::Job {
            model: if i % 2 == 0 { "pointnet" } else { "resgcn" },
            points: POINT_BUCKETS[BUCKET_OF[i / 2]],
            steps: 5 + (i * 7) % 16,
            objective: match i {
                6 => "transfer(0.5)",
                11 => "boundary(4)",
                _ => "non_targeted",
            },
            stream: matches!(i, 2 | 10 | 17),
        },
    }
}

/// Deals deck kinds in a seeded order.
pub struct Dealer {
    rng: StdRng,
    order: Vec<usize>,
}

impl Dealer {
    pub fn new(seed: u64) -> Dealer {
        Dealer { rng: StdRng::seed_from_u64(seed), order: Vec::new() }
    }

    /// The next kind, and a fresh job seed for it.
    pub fn deal(&mut self) -> (Kind, u64) {
        if self.order.is_empty() {
            self.order = (0..DECK).collect();
            self.order.shuffle(&mut self.rng);
        }
        let i = self.order.pop().expect("refilled above");
        (kind(i), self.rng.gen_range(0..1_000_000u64))
    }
}

/// The seeded open-loop schedule: Poisson arrivals at each rate of
/// `rates` (jobs/s) for `rung_s` seconds per rung, one rung after the
/// other, dealt from the deck. A repeat re-sends an earlier valid,
/// unstreamed body, so that a cold and a warm seat answer the same
/// request.
pub fn open_loop_schedule(seed: u64, rates: &[f64], rung_s: f64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0x0BE1, 0));
    let mut dealer = Dealer::new(mix_seed(seed, 0x0BE1, 1));
    let mut out: Vec<Arrival> = Vec::new();
    let mut rung_start = 0.0;
    for (rung, &rate) in rates.iter().enumerate() {
        let mut t = rung_start;
        loop {
            // Exponential inter-arrival time; `1 - u` keeps ln() finite.
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            if t >= rung_start + rung_s {
                break;
            }
            let (kind, job_seed) = dealer.deal();
            let repeatable: Vec<usize> =
                (0..out.len()).filter(|&i| out[i].expect == 200 && !out[i].stream).collect();
            let arrival = match kind {
                Kind::Repeat if !repeatable.is_empty() => {
                    let earlier = &out[repeatable[job_seed as usize % repeatable.len()]];
                    Arrival { due_s: t, rung, ..earlier.clone() }
                }
                Kind::Invalid => Arrival {
                    due_s: t,
                    rung,
                    body: invalid_body(job_seed),
                    expect: 422,
                    stream: false,
                    points: 0,
                },
                _ => {
                    let (body, stream, points) = job_body(kind, job_seed);
                    Arrival { due_s: t, rung, body, expect: 200, stream, points }
                }
            };
            out.push(arrival);
        }
        rung_start += rung_s;
    }
    out
}

/// The `POST /attack` body of a job kind (a repeat with nothing to repeat
/// yet becomes a plain 64-point job); returns the body, whether it is
/// streamed, and its points.
pub fn job_body(kind: Kind, job_seed: u64) -> (String, bool, usize) {
    let Kind::Job { model, points, steps, objective, stream } = kind else {
        return job_body(
            Kind::Job {
                model: "pointnet",
                points: 64,
                steps: 5,
                objective: "non_targeted",
                stream: false,
            },
            job_seed,
        );
    };
    let mut body = String::new();
    let _ = write!(
        body,
        "{{\"model\":\"{model}\",\"points\":{points},\"steps\":{steps},\"seed\":{job_seed},\
         \"objective\":\"{objective}\",\"threads\":1,\"stream\":{stream}}}"
    );
    (body, stream, points)
}

/// A well-formed body the service must refuse with 422.
fn invalid_body(which: u64) -> String {
    match which % 3 {
        0 => "{\"model\":\"pointnet\",\"points\":4,\"steps\":5}".to_string(),
        1 => "{\"model\":\"resgcn\",\"points\":64,\"steps\":0}".to_string(),
        _ => "{\"model\":\"transformer\",\"points\":64,\"steps\":5}".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colper_scene::{IndoorSceneConfig, PointCloud, SceneGenerator};

    /// Canonical text of a schedule, for byte-level comparison.
    pub fn schedule_bytes(schedule: &[Arrival]) -> Vec<u8> {
        let mut out = String::new();
        for a in schedule {
            let _ = writeln!(
                out,
                "{:?} {} {} {} {}",
                a.due_s.to_bits(),
                a.rung,
                a.expect,
                a.points,
                a.body
            );
        }
        out.into_bytes()
    }

    fn cloud_bytes(cloud: &PointCloud) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..cloud.len() {
            let p = cloud.coords[i];
            for v in [p.x, p.y, p.z] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for v in cloud.colors[i] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&(cloud.labels[i] as u64).to_le_bytes());
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let rates = [4.0, 12.0];
        assert_eq!(
            schedule_bytes(&open_loop_schedule(7, &rates, 3.0)),
            schedule_bytes(&open_loop_schedule(7, &rates, 3.0))
        );
        assert_ne!(
            schedule_bytes(&open_loop_schedule(7, &rates, 3.0)),
            schedule_bytes(&open_loop_schedule(8, &rates, 3.0))
        );
        let generator = SceneGenerator::indoor(IndoorSceneConfig::with_points(256));
        let a = generator.generate(scene_seed(7, 3));
        let b = generator.generate(scene_seed(7, 3));
        assert_eq!(cloud_bytes(&a), cloud_bytes(&b));
        assert_ne!(cloud_bytes(&a), cloud_bytes(&generator.generate(scene_seed(8, 3))));
    }

    #[test]
    fn deck_has_the_stated_proportions() {
        let kinds: Vec<Kind> = (0..DECK).map(kind).collect();
        let count = |f: &dyn Fn(&Kind) -> bool| kinds.iter().filter(|k| f(k)).count();
        assert_eq!(count(&|k| *k == Kind::Invalid), 1);
        assert_eq!(count(&|k| *k == Kind::Repeat), 1);
        assert_eq!(count(&|k| matches!(k, Kind::Job { stream: true, .. })), 3);
        for (points, jobs) in POINT_BUCKETS.into_iter().zip([7, 5, 4, 2]) {
            assert_eq!(count(&|k| matches!(k, Kind::Job { points: p, .. } if *p == points)), jobs);
            for model in ["pointnet", "resgcn"] {
                assert!(
                    count(
                        &|k| matches!(k, Kind::Job { points: p, model: m, .. } if *p == points && *m == model)
                    ) > 0
                );
            }
        }
        assert_eq!(count(&|k| matches!(k, Kind::Job { objective: "transfer(0.5)", .. })), 1);
        assert_eq!(count(&|k| matches!(k, Kind::Job { objective: "boundary(4)", .. })), 1);
        assert!(kinds.iter().all(|k| match k {
            Kind::Job { steps, .. } => (5..=20).contains(steps),
            _ => true,
        }));
    }

    #[test]
    fn schedule_follows_the_ladder() {
        let rates = [5.0, 20.0];
        let schedule = open_loop_schedule(3, &rates, 4.0);
        let per_rung = |r: usize| schedule.iter().filter(|a| a.rung == r).count();
        assert!(per_rung(1) > per_rung(0), "{} vs {}", per_rung(1), per_rung(0));
        assert!(schedule.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(schedule.iter().all(|a| a.due_s >= 0.0 && a.due_s < 8.0));
        assert!(schedule.iter().any(|a| a.expect == 422));
        assert!(schedule.iter().any(|a| a.stream));
        // Repeats reuse an earlier body verbatim.
        let valid: Vec<&str> =
            schedule.iter().filter(|a| a.expect == 200).map(|a| a.body.as_str()).collect();
        let distinct: std::collections::BTreeSet<&str> = valid.iter().copied().collect();
        assert!(distinct.len() < valid.len());
    }
}
