//! `service_mix`: an in-process `colperd` (`Server::start`, 2 workers)
//! under an open loop. A seeded schedule of Poisson arrivals runs at a
//! fixed ladder of rates from 2 client threads (one connection each);
//! every request is timed from its due time. The mix covers both models,
//! 64 to 512 points, 5 to 20 steps, some streamed answers, some transfer
//! and boundary objectives, a few invalid bodies that must get 422, and
//! repeated bodies whose answers must be bit-identical whether a cold or
//! a warm seat served them. A closed-loop phase (2 clients back to back)
//! then measures capacity.
//!
//! Unit of work: one valid job, from its due time to its last byte.

use super::record_unit;
use crate::clock::{Lap, Stamp};
use crate::inputs::{
    job_body, open_loop_schedule, stream_seed, Arrival, Dealer, Kind, POINT_BUCKETS,
};
use crate::openloop;
use crate::stats::{mean, median, percentile};
use crate::{Ctx, Outcome};
use colper_serve::client::http_request;
use colper_serve::json::Json;
use colper_serve::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// The ladder: light, medium and busy offered rates, jobs/s.
pub const RATES: [f64; 3] = [10.0, 20.0, 40.0];
const RUNG_NAMES: [&str; 3] = ["light", "medium", "busy"];
/// Share of the measuring window spent on the open-loop ladder; the rest
/// is the closed-loop capacity phase.
const LADDER_SHARE: f64 = 0.85;
/// The latency limit a rung's p90 must meet.
pub const SLO_P90_MS: f64 = 250.0;
const CLIENTS: usize = 2;
const SETUPS: usize = 3;

/// What one answered job reported.
#[derive(Debug, Clone)]
struct JobResult {
    steps_run: f64,
    success_metric: f64,
    l2_sq: f64,
    warm_start: bool,
    queue_ms: f64,
    run_ms: f64,
}

fn start_server(ctx: &Ctx) -> Result<Server, String> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        threads: ctx.threads,
        queue_capacity: 64,
        seat_cap: 4,
    };
    let server =
        ctx.tracer.within("serve.start", 0, || Server::start(&cfg)).map_err(|e| e.to_string())?;
    // Warm-up: one short job per model and point bucket of the mix, so
    // lazy set-up is finished and a seat is warm in every bucket before
    // the measuring window opens.
    let addr = server.local_addr().to_string();
    for (model, points) in
        ["pointnet", "resgcn"].iter().flat_map(|m| POINT_BUCKETS.iter().map(move |p| (m, p)))
    {
        let body = format!("{{\"model\":\"{model}\",\"points\":{points},\"steps\":2,\"seed\":1}}");
        let (status, _) =
            http_request(&addr, "POST", "/attack", &body).map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("warm-up job answered {status}"));
        }
    }
    Ok(server)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut server = None;
    for _ in 0..SETUPS {
        let started = Stamp::now();
        let fresh = start_server(ctx)?;
        o.setups.push(started.lap());
        if let Some(old) = server.replace(fresh) {
            old.stop();
        }
    }
    let server = server.expect("at least one set-up");
    let addr = server.local_addr().to_string();

    let first_span = ctx.tracer.span_count();
    let ladder_s = ctx.seconds * LADDER_SHARE;
    let schedule = open_loop_schedule(ctx.seed, &RATES, ladder_s / RATES.len() as f64);
    let due: Vec<f64> = schedule.iter().map(|a| a.due_s).collect();
    let ladder = Stamp::now();
    let timed = openloop::run(&due, CLIENTS, |i| {
        let traced = ctx.tracer.is_on() && i.is_multiple_of(2);
        let _span = ctx.tracer.span_if(traced, "serve.attack", i as u64);
        (traced, http_request(&addr, "POST", "/attack", &schedule[i].body))
    });

    let mut per_rung: Vec<Vec<f64>> = vec![Vec::new(); RATES.len()];
    let mut late_per_rung: Vec<Vec<f64>> = vec![Vec::new(); RATES.len()];
    let mut answers: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut results = Vec::new();
    let mut intake_ms = Vec::new();
    let mut late_ms = Vec::new();
    // The server's CPU time cannot be split between concurrent jobs: every
    // job gets the ladder's CPU time over the jobs it answered.
    let ladder_lap = ladder.lap();
    let mut answered = Vec::new();
    for t in &timed {
        let arrival = &schedule[t.index];
        let (traced, response) = &t.result;
        o.attempted += 1;
        late_ms.push(t.late_ms);
        late_per_rung[arrival.rung].push(t.late_ms);
        match check(arrival, response) {
            Ok(None) => {}
            Ok(Some(r)) => {
                answered.push((*traced, t.latency_ms));
                per_rung[arrival.rung].push(t.latency_ms);
                intake_ms.push(t.service_ms - r.queue_ms - r.run_ms);
                if !arrival.stream {
                    let bits = (r.success_metric.to_bits(), r.l2_sq.to_bits());
                    if *answers.entry(arrival.body.as_str()).or_insert(bits) != bits {
                        o.failed += 1;
                        eprintln!("  FAILED job {}: repeated body answered differently", t.index);
                    }
                }
                results.push(r);
            }
            Err(err) => {
                o.failed += 1;
                // A failed request misses every latency limit.
                per_rung[arrival.rung].push(f64::INFINITY);
                eprintln!("  FAILED job {}: {err}", t.index);
            }
        }
    }

    let share = 1.0 / answered.len().max(1) as f64;
    for (traced, latency_ms) in answered {
        let job = Lap {
            wall_s: latency_ms / 1e3,
            cpu_s: ladder_lap.cpu_s * share,
            user_s: ladder_lap.user_s * share,
            minor_faults: ladder_lap.minor_faults * share,
        };
        record_unit(&mut o, traced, job);
    }

    // Closed-loop capacity: 2 clients, valid non-streamed jobs back to back.
    let capacity_s = ctx.seconds - ladder_s;
    let dealer = Mutex::new(Dealer::new(stream_seed(ctx.seed, 0, 7)));
    let closed_start = Instant::now();
    let (closed_failed, closed_jobs) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let (mut failed, mut jobs) = (0u64, 0u64);
                    while closed_start.elapsed().as_secs_f64() < capacity_s {
                        let (kind, job_seed) = loop {
                            let dealt = dealer.lock().expect("dealer lock").deal();
                            if let (Kind::Job { .. }, _) = dealt {
                                break dealt;
                            }
                        };
                        let (body, _, pts) = job_body(kind, job_seed);
                        let body = body.replace("\"stream\":true", "\"stream\":false");
                        jobs += 1;
                        let arrival = Arrival {
                            due_s: 0.0,
                            rung: 0,
                            body,
                            expect: 200,
                            stream: false,
                            points: pts,
                        };
                        let response = http_request(&addr, "POST", "/attack", &arrival.body);
                        if let Err(err) = check(&arrival, &response) {
                            failed += 1;
                            eprintln!("  FAILED closed-loop job: {err}");
                        }
                    }
                    (failed, jobs)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    });
    let closed_wall = closed_start.elapsed().as_secs_f64();
    o.attempted += closed_jobs;
    o.failed += closed_failed;
    ctx.tracer.set_active(true);
    o.measured_spans = first_span..ctx.tracer.span_count();

    let (_, stats_body) = http_request(&addr, "GET", "/stats", "").map_err(|e| e.to_string())?;
    let stats = Json::parse(&stats_body).map_err(|e| e.to_string())?;
    let counter = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    ctx.tracer.within("serve.stop", 0, || server.stop());

    o.adv_accuracy = mean(&results.iter().map(|r| r.success_metric).collect::<Vec<_>>());
    let layers = &mut o.layers;
    layers.insert(
        "serve.queue_ms".into(),
        median(&results.iter().map(|r| r.queue_ms).collect::<Vec<_>>()),
    );
    layers.insert(
        "serve.run_ms".into(),
        median(&results.iter().map(|r| r.run_ms).collect::<Vec<_>>()),
    );
    layers.insert("serve.intake_ms".into(), median(&intake_ms));
    layers.insert("serve.warm_start_ratio".into(), counter("warm_starts") / counter("completed"));
    layers.insert("serve.rejected.429".into(), counter("rejected_full"));
    layers.insert("serve.rejected.422".into(), counter("rejected_invalid"));
    layers.insert("serve.rejected.400".into(), counter("rejected_malformed"));
    layers.insert("serve.generator_late_ms".into(), percentile(&late_ms, 0.9).unwrap_or(0.0));
    layers.insert(
        "serve.steps_run_mean".into(),
        mean(&results.iter().map(|r| r.steps_run).collect::<Vec<_>>()),
    );
    layers.insert(
        "serve.zero_l2_fraction".into(),
        results.iter().filter(|r| r.l2_sq < 1e-9).count() as f64 / results.len().max(1) as f64,
    );

    let mut max_in_slo = 0.0;
    let mut rungs = Vec::new();
    for (r, rate) in RATES.iter().enumerate() {
        let p50 = median(&per_rung[r]);
        let p90 = percentile(&per_rung[r], 0.9).unwrap_or(f64::INFINITY);
        let final_late = late_per_rung[r].last().copied().unwrap_or(0.0);
        if p90 <= SLO_P90_MS && final_late <= SLO_P90_MS {
            max_in_slo = *rate;
        }
        rungs.push(format!(
            "{{\"rung\":\"{}\",\"rate\":{rate},\"jobs\":{},\"p50_ms\":{},\"p90_ms\":{},\"late_p90_ms\":{}}}",
            RUNG_NAMES[r],
            per_rung[r].len(),
            crate::report::number(p50),
            crate::report::number(p90),
            crate::report::number(percentile(&late_per_rung[r], 0.9).unwrap_or(0.0)),
        ));
    }
    o.extra.push(("rungs".into(), format!("[{}]", rungs.join(","))));
    o.extra.push(("slo_p90_ms".into(), SLO_P90_MS.to_string()));
    o.extra.push(("max_jobs_per_s_in_slo".into(), max_in_slo.to_string()));
    o.extra.push((
        "closed_loop_jobs_per_s".into(),
        crate::report::number(closed_jobs as f64 / closed_wall),
    ));
    o.extra.push(("server_stats".into(), stats_body));
    o.extra
        .push(("warm_answers".into(), results.iter().filter(|r| r.warm_start).count().to_string()));
    eprintln!("  ladder: {}", o.extra[0].1);
    eprintln!("  closed loop: {closed_jobs} jobs in {closed_wall:.2}s");
    o.probe.points = 512;
    Ok(o)
}

/// Checks one answer against what the request must get. `Ok(None)` is an
/// expected refusal; `Ok(Some(_))` a completed job.
fn check(
    arrival: &Arrival,
    response: &std::io::Result<(u16, String)>,
) -> Result<Option<JobResult>, String> {
    let (status, body) = response.as_ref().map_err(|e| format!("transport error: {e}"))?;
    if *status != arrival.expect {
        return Err(format!("status {status}, expected {}: {body}", arrival.expect));
    }
    if arrival.expect != 200 {
        let value = Json::parse(body).map_err(|e| format!("refusal is not JSON: {e}"))?;
        value.get("error").and_then(Json::as_str).ok_or("refusal without an error")?;
        return Ok(None);
    }
    let result = if arrival.stream {
        let lines: Vec<&str> = body.lines().filter(|l| !l.trim().is_empty()).collect();
        let kind = |line: &str| -> Result<String, String> {
            let v = Json::parse(line).map_err(|e| format!("stream line is not JSON: {e}"))?;
            Ok(v.get("type").and_then(Json::as_str).unwrap_or("").to_string())
        };
        if lines.len() < 2 || kind(lines[0])? != "meta" || kind(lines[lines.len() - 1])? != "result"
        {
            return Err("stream is not meta, steps, result".to_string());
        }
        let steps =
            lines[1..lines.len() - 1].iter().map(|l| kind(l)).collect::<Result<Vec<_>, _>>()?;
        if steps.iter().any(|k| k != "step") {
            return Err("stream has a line that is not a step".to_string());
        }
        let result = parse_result(lines[lines.len() - 1])?;
        if !steps.is_empty() && steps.len() as f64 != result.steps_run {
            return Err(format!("{} step lines for {} steps", steps.len(), result.steps_run));
        }
        result
    } else {
        parse_result(body)?
    };
    Ok(Some(result))
}

fn parse_result(text: &str) -> Result<JobResult, String> {
    let value = Json::parse(text).map_err(|e| format!("result is not JSON: {e}"))?;
    let num = |key: &str| -> Result<f64, String> {
        let v =
            value.get(key).and_then(Json::as_f64).ok_or_else(|| format!("result lacks {key}"))?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(format!("{key} is not finite"))
        }
    };
    for key in ["model", "objective"] {
        value.get(key).and_then(Json::as_str).ok_or_else(|| format!("result lacks {key}"))?;
    }
    num("points")?;
    num("attacked_points")?;
    num("restarts")?;
    value.get("converged").and_then(Json::as_bool).ok_or("result lacks converged")?;
    let result = JobResult {
        steps_run: num("steps_run")?,
        success_metric: num("success_metric")?,
        l2_sq: num("l2_sq")?,
        warm_start: value
            .get("warm_start")
            .and_then(Json::as_bool)
            .ok_or("result lacks warm_start")?,
        queue_ms: num("queue_ms")?,
        run_ms: num("run_ms")?,
    };
    if result.steps_run < 1.0 || !(0.0..=1.0).contains(&result.success_metric) || result.l2_sq < 0.0
    {
        return Err(format!("result out of range: {result:?}"));
    }
    Ok(result)
}
