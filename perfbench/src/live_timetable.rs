//! `live_timetable`: journey planning against a live timetable on the
//! paper-scale Birmingham analogue (scale 1.0). One `serve_rt` backend
//! over wire v4; one connection plans journeys in closed loop while a
//! second streams schedule deltas open loop at a fixed rate.

use crate::check::{self, Checks};
use crate::util::{self, median, quantile, span};
use crate::warm_gateway::{codec_layers, serving_config};
use crate::{cold_aq, Opts, Report, CITY_SEED, PROBE_SCALE};
use staq_core::AccessEngine;
use staq_geom::Point;
use staq_gtfs::model::{RouteId, StopId, TripId};
use staq_gtfs::time::{DayOfWeek, Stime, TimeInterval};
use staq_gtfs::Delta;
use staq_road::IsochroneParams;
use staq_rt::RtEngine;
use staq_serve::{serve_rt, MuxClient, Request, Response, ServerConfig};
use staq_synth::{City, CityConfig, PoiCategory};
use staq_transit::{Raptor, TransitNetwork};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCALE: f64 = 1.0;
const SETUPS: usize = 3;
/// Deltas per second. At scale 1.0 one structural delta holds the state
/// lock for 40–260 ms, so this stays well below the apply capacity.
const DELTA_RATE: f64 = 2.0;
const PROBE_DELTA_RATE: f64 = 5.0;
/// Transfer cap of the capped half of the plans.
const CAP: u8 = 3;
/// One round of the delta stream.
const ROUND: [DKind; 10] = [
    DKind::Delay,
    DKind::Delay,
    DKind::Cancel,
    DKind::Delay,
    DKind::Alert,
    DKind::Delay,
    DKind::Cancel,
    DKind::Delay,
    DKind::AddRoute,
    DKind::Delay,
];
/// Footprint strata; each round edits one trip of each, so every run
/// edits the same mix of small and large edits.
const STRATA: usize = 8;
/// Candidates drawn per trip delta; the one whose footprint is nearest
/// its stratum's median is edited.
const CANDIDATES: usize = 8;
/// Origin–destination pairs re-planned at the end against the reference.
const FINAL_PAIRS: usize = 12;

#[derive(Clone, Copy, PartialEq)]
enum DKind {
    Delay,
    Cancel,
    Alert,
    AddRoute,
}

/// The seeded delta stream: `rounds` whole rounds, no trip edited twice
/// (so no delta targets a cancelled trip).
fn delta_stream(city: &City, day: DayOfWeek, seed: u64, rounds: usize) -> Vec<Delta> {
    let mut rng = util::Rng::new(seed, 0xde17a);
    let feed = &city.feed;
    // A trip's footprint: the zones whose centroid lies within walking
    // range of one of its stops — the zones an edit of it can make the
    // engine rebuild, and so what its apply cost grows with.
    let radius = IsochroneParams::default().max_radius_m();
    let near: Vec<Vec<u32>> = (0..feed.n_stops() as u32)
        .map(|s| {
            let p = feed.stop_pos(StopId(s));
            (0..city.n_zones() as u32)
                .filter(|&z| city.zones[z as usize].centroid.dist(&p) <= radius)
                .collect()
        })
        .collect();
    let mut stamp = vec![u32::MAX; city.n_zones()];
    let mut trips: Vec<(usize, u32)> = (0..feed.feed().trips.len() as u32)
        .map(TripId)
        .filter(|t| feed.trip_runs_on(*t, day))
        .map(|t| {
            let mut footprint = 0;
            for call in feed.trip_calls(t) {
                for &z in &near[call.stop.idx()] {
                    if std::mem::replace(&mut stamp[z as usize], t.0) != t.0 {
                        footprint += 1;
                    }
                }
            }
            (footprint, t.0)
        })
        .collect();
    trips.sort_unstable();
    let stratum = |s: usize| &trips[s * trips.len() / STRATA..(s + 1) * trips.len() / STRATA];
    let mut used: HashSet<u32> = HashSet::new();
    let mut out = Vec::new();
    let mut trip_slot = 0;
    for r in 0..rounds {
        for kind in ROUND {
            out.push(match kind {
                DKind::Delay | DKind::Cancel => {
                    let pool = stratum(trip_slot % STRATA);
                    trip_slot += 1;
                    let mid = pool[pool.len() / 2].0;
                    let pick = (0..CANDIDATES)
                        .map(|_| pool[rng.below(pool.len())])
                        .filter(|(_, t)| !used.contains(t))
                        .min_by_key(|(f, t)| (f.abs_diff(mid), *t))
                        .or_else(|| pool.iter().copied().find(|(_, t)| !used.contains(t)))
                        .expect("a stratum has more trips than a run edits");
                    used.insert(pick.1);
                    let trip = TripId(pick.1);
                    if kind == DKind::Delay {
                        Delta::TripDelay { trip, delay_secs: 60 + rng.below(540) as u32 }
                    } else {
                        Delta::TripCancel { trip }
                    }
                }
                DKind::Alert => Delta::ServiceAlert {
                    route: RouteId(rng.below(feed.feed().routes.len()) as u32),
                    message: format!("benchmark alert {r}"),
                },
                DKind::AddRoute => {
                    let mut stops: Vec<Point> = Vec::new();
                    while stops.len() < 4 {
                        let p = city.zones[rng.below(city.zones.len())].centroid;
                        if stops.last().is_none_or(|q| q.dist(&p) > 200.0) {
                            stops.push(p);
                        }
                    }
                    Delta::AddRoute { stops, headway_s: 600 }
                }
            });
        }
    }
    out
}

/// A plan request: OD near two zone centroids, departing in the AM peak.
#[derive(Clone, Copy, Debug)]
struct PlanReq {
    origin: Point,
    dest: Point,
    depart: Stime,
    cap: Option<u8>,
}

fn plan_req(city: &City, rng: &mut util::Rng, k: u64, peak: &TimeInterval) -> PlanReq {
    let pick = |rng: &mut util::Rng| {
        let c = city.zones[rng.below(city.zones.len())].centroid;
        Point::new(c.x + (rng.unit() - 0.5) * 400.0, c.y + (rng.unit() - 0.5) * 400.0)
    };
    let origin = pick(rng);
    let dest = pick(rng);
    let depart = Stime(peak.start.0 + rng.below((peak.end.0 - peak.start.0) as usize) as u32);
    PlanReq { origin, dest, depart, cap: if k.is_multiple_of(2) { None } else { Some(CAP) } }
}

fn plan_wire(r: &PlanReq, day: DayOfWeek) -> Request {
    Request::Plan { origin: r.origin, dest: r.dest, depart: r.depart, day, max_transfers: r.cap }
}

pub fn run(o: &Opts) -> Report {
    let mut rep = Report::default();
    util::spans_enabled(o.traced || o.probe);
    let scale = if o.probe { PROBE_SCALE } else { SCALE };
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let peak = TimeInterval::am_peak();
    let day = peak.day;

    let mut setups = Vec::new();
    let mut gen_s = Vec::new();
    let mut eng_s = Vec::new();
    let mut last = None;
    let n_setups = if o.probe { 1 } else { SETUPS };
    for i in 0..n_setups {
        // The previous set-up's server and engine go before the next one
        // is built.
        drop(last.take());
        let t = Instant::now();
        let sp = span("synth");
        let city = City::generate(&CityConfig::birmingham(CITY_SEED).scaled(scale));
        gen_s.push(sp.end().as_secs_f64());
        let t_clone = Instant::now();
        let pristine = (i + 1 == n_setups).then(|| city.clone());
        let clone_time = t_clone.elapsed();
        let sp = span("core::artifacts");
        let engine = Arc::new(AccessEngine::new(city, serving_config()));
        eng_s.push(sp.end().as_secs_f64());
        let rt = Arc::new(RtEngine::new(Arc::clone(&engine)));
        let server =
            serve_rt(Arc::clone(&rt), &ServerConfig { workers: threads, ..Default::default() })
                .expect("backend binds");
        setups.push((t.elapsed() - clone_time).as_secs_f64());
        last = Some((engine, server, pristine));
    }
    let (engine, mut server, pristine) = last.expect("one set-up");
    let mut pristine = pristine.expect("kept a copy of the city");
    rep.e2e.insert("setup_s", median(&setups));
    rep.layers.insert("synth.generate_s", median(&gen_s));
    rep.layers.insert("artifacts.build_s", median(&eng_s));
    rep.info("zones", pristine.n_zones());

    let rate = if o.probe { PROBE_DELTA_RATE } else { DELTA_RATE };
    let rounds = ((o.seconds * rate / ROUND.len() as f64).round() as usize).max(1);
    let deltas = delta_stream(&pristine, day, o.seed, rounds);
    let planner = MuxClient::connect(server.addr()).expect("backend accepts");
    let streamer = MuxClient::connect(server.addr()).expect("backend accepts");

    // Timed phase. A traced run records spans around the plans of the
    // second half only.
    let before = staq_obs::snapshot();
    let start = Instant::now();
    let half = start + o.timed() / 2;
    let traced_run = o.traced || o.probe;
    util::spans_enabled(false);
    let stop = AtomicBool::new(false);
    struct Plans {
        lat: Vec<(Duration, Duration, bool)>,
        bad: Vec<String>,
        attempted: u64,
        failed: u64,
        replies: Vec<Response>,
    }
    let (plans, stream) = std::thread::scope(|s| {
        let city = &pristine;
        let planner = &planner;
        let stop = &stop;
        let peak = &peak;
        let p = s.spawn(move || {
            let mut rng = util::Rng::new(o.seed, 0x91a7);
            let mut out =
                Plans { lat: vec![], bad: vec![], attempted: 0, failed: 0, replies: vec![] };
            let mut k = 0u64;
            // Whole rounds: a Pareto plan and a capped plan.
            while !(stop.load(Ordering::Relaxed) && k.is_multiple_of(2)) {
                let req = plan_req(city, &mut rng, k, peak);
                k += 1;
                let traced = traced_run && Instant::now() >= half;
                util::spans_enabled(traced);
                out.attempted += 1;
                let t = Instant::now();
                let sp = span("serve::server");
                let res = planner.call(&plan_wire(&req, day));
                drop(sp);
                let lat = t.elapsed();
                match res {
                    Ok(Response::Plan(journeys)) => {
                        out.lat.push((lat, t.duration_since(start) + lat, traced));
                        if let Err(e) = check::plan(&journeys, req.depart.0, req.cap) {
                            out.bad.push(format!("{req:?}: {e}"));
                        }
                        if out.replies.len() < 64 {
                            out.replies.push(Response::Plan(journeys));
                        }
                    }
                    other => {
                        out.failed += 1;
                        if out.failed <= 3 {
                            eprintln!("live_timetable: plan failed: {other:?}");
                        }
                    }
                }
            }
            out
        });
        let deltas = &deltas;
        let streamer = &streamer;
        let d = s.spawn(move || {
            let mut acks = Vec::new();
            for (k, delta) in deltas.iter().enumerate() {
                let due = start + Duration::from_secs_f64(k as f64 / rate);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let late = Instant::now().saturating_duration_since(due);
                let res = streamer.call(&Request::ApplyDelta { seq: 0, delta: delta.clone() });
                let lat = due.elapsed();
                acks.push((res, lat, late));
            }
            acks
        });
        let stream = d.join().expect("delta streamer");
        if let Some(wait) = (start + o.timed()).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        stop.store(true, Ordering::Relaxed);
        (p.join().expect("planner"), stream)
    });
    let elapsed = start.elapsed();
    let after = staq_obs::snapshot();
    util::spans_enabled(traced_run);

    let mut seqs = Vec::new();
    let mut delta_ms = Vec::new();
    let mut late_ms = Vec::new();
    let mut rebuilt = Vec::new();
    let mut delta_failed = 0;
    for (res, lat, late) in &stream {
        match res {
            Ok(Response::ApplyDelta(ack)) => {
                seqs.push(ack.seq);
                delta_ms.push(util::ms(*lat));
                late_ms.push(util::ms(*late));
                rebuilt.push(ack.zones_rebuilt as f64);
            }
            other => {
                delta_failed += 1;
                eprintln!("live_timetable: delta failed: {other:?}");
            }
        }
    }
    rep.attempted = plans.attempted + stream.len() as u64;
    rep.failed = plans.failed + delta_failed;
    let plan_ms: Vec<f64> = plans.lat.iter().map(|l| util::ms(l.0)).collect();
    let done = plans.lat.iter().map(|l| l.1.as_secs_f64());
    rep.e2e.insert("main_ms", median(&plan_ms));
    rep.e2e.insert("side_ms", median(&delta_ms));
    rep.info("timed_s", format!("{:.3}", elapsed.as_secs_f64()));
    rep.info("plan_samples", plan_ms.len());
    rep.info("plan_p90_ms", format!("{:.3}", quantile(&plan_ms, 0.9)));
    rep.info("plan_p99_ms", format!("{:.3}", quantile(&plan_ms, 0.99)));
    rep.info("plans_per_s", util::per_second_median(done, elapsed));
    rep.info("plan_max_ms", format!("{:.3}", quantile(&plan_ms, 1.0)));
    rep.info("delta_samples", delta_ms.len());
    rep.info("delta_p90_ms", format!("{:.3}", quantile(&delta_ms, 0.9)));
    rep.info("delta_max_ms", format!("{:.3}", quantile(&delta_ms, 1.0)));
    rep.info("generator_late_p50_ms", format!("{:.3}", median(&late_ms)));
    rep.info("generator_late_max_ms", format!("{:.3}", quantile(&late_ms, 1.0)));
    rep.info(
        "zones_rebuilt_mean",
        format!("{:.1}", rebuilt.iter().sum::<f64>() / rebuilt.len().max(1) as f64),
    );

    rep.checks.record(
        "plans are valid",
        if plans.bad.is_empty() {
            Ok(())
        } else {
            Err(format!("{} invalid plans, e.g. {}", plans.bad.len(), plans.bad[0]))
        },
    );
    rep.checks
        .record("delta acks carry contiguous sequence numbers", check::contiguous_seqs(&seqs));

    // Replay the run's delta log onto a fresh copy of the city's feed and
    // compare the served plans with the unpruned reference router on it.
    let engine_city = if traced_run { Some(pristine.clone()) } else { None };
    let bus_speed = pristine.config.bus_speed_mps;
    let mut gtfs_us = Vec::new();
    for d in &deltas {
        let sp = span("gtfs::index");
        let r = pristine.feed.apply_delta(d, bus_speed);
        gtfs_us.push(util::us(sp.end()));
        rep.checks.record("replayed delta applies", r.map(|_| ()));
    }
    let net = TransitNetwork::with_defaults(&pristine.road, &pristine.feed);
    let reference = Raptor::reference(&net);
    let mut rng = util::Rng::new(o.seed, 0xf1a1);
    for _ in 0..FINAL_PAIRS {
        // Capped plans only: the served Pareto frontier is known to differ
        // from the reference's on a few pairs in a thousand.
        let req = plan_req(&pristine, &mut rng, 1, &peak);
        let want =
            vec![reference.query_max_transfers(&req.origin, &req.dest, req.depart, day, CAP)];
        let got = match planner.call(&plan_wire(&req, day)) {
            Ok(Response::Plan(j)) => j,
            other => {
                rep.checks.record("final plan answered", Err(format!("{other:?}")));
                continue;
            }
        };
        rep.checks.record(
            "served plan equals the reference after the delta log",
            check::same_journeys(&got, &want),
        );
    }

    if traced_run {
        let off: Vec<f64> = plans.lat.iter().filter(|l| !l.2).map(|l| util::ms(l.0)).collect();
        let on: Vec<f64> = plans.lat.iter().filter(|l| l.2).map(|l| util::ms(l.0)).collect();
        rep.layers.insert("bench.trace_overhead_pct", (median(&on) / median(&off) - 1.0) * 100.0);
        let recorded = util::counter_delta(&before, &after, "trace.spans_recorded");
        rep.layers.insert(
            "trace.drop_ratio",
            util::counter_delta(&before, &after, "trace.spans_dropped") / recorded,
        );
        codec_layers(&plans.replies, &mut rep.layers);
        let m = staq_todam::TodamSpec { per_hour: 3, ..Default::default() }
            .build(&pristine, PoiCategory::School);
        cold_aq::raptor_layers(&pristine, &m, o.seed, day, &mut rep.layers);
        plan_layers(&engine, &pristine, &net, o.seed, &peak, &mut rep.layers);
        delta_layers(
            engine_city.expect("kept for tracing"),
            &deltas,
            &gtfs_us,
            &mut rep.layers,
            &mut rep.checks,
        );
    }
    drop(planner);
    drop(streamer);
    server.shutdown();
    rep
}

/// The engine's own share of a plan: the direct `AccessEngine::plan`
/// call minus the network build and the RAPTOR query on a prebuilt
/// network of the same state.
fn plan_layers(
    engine: &AccessEngine,
    city: &City,
    net: &TransitNetwork,
    seed: u64,
    peak: &TimeInterval,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let build_ms = layers["transit.network_build_ms"];
    let router = Raptor::new(net);
    let mut rng = util::Rng::new(seed, 0x5e1f);
    let mut own = Vec::new();
    for k in 0..20 {
        let r = plan_req(city, &mut rng, k, peak);
        let sp = span("core::engine");
        std::hint::black_box(engine.plan(r.origin, r.dest, r.depart, peak.day, r.cap));
        let t_plan = util::ms(sp.end());
        let sp = span("transit::raptor");
        match r.cap {
            Some(c) => drop(std::hint::black_box(
                router.query_max_transfers(&r.origin, &r.dest, r.depart, peak.day, c),
            )),
            None => drop(std::hint::black_box(
                router.query_pareto(&r.origin, &r.dest, r.depart, peak.day),
            )),
        }
        let t_raptor = util::ms(sp.end());
        own.push(t_plan - build_ms - t_raptor);
    }
    layers.insert("engine.plan_self_ms", median(&own));
}

/// The write path layer by layer, replaying the run's deltas on a fresh
/// engine: the engine's apply, its feed update (timed on the replay
/// above) and the rest (affected-zone scan and hop-tree rebuild), plus
/// the sequenced log on its own.
fn delta_layers(
    city: City,
    deltas: &[Delta],
    gtfs_us: &[f64],
    layers: &mut BTreeMap<&'static str, f64>,
    checks: &mut Checks,
) {
    let engine = Arc::new(AccessEngine::new(city, serving_config()));
    let (mut apply_ms, mut rebuild_ms, mut zones) = (vec![], vec![], vec![]);
    for (d, feed_us) in deltas.iter().zip(gtfs_us) {
        if !d.is_structural() {
            continue;
        }
        let sp = span("core::engine");
        let r = engine.apply_delta(d);
        let t = util::ms(sp.end());
        match r {
            Ok(receipt) => {
                apply_ms.push(t);
                rebuild_ms.push(t - feed_us / 1e3);
                zones.push(receipt.zones_rebuilt as f64);
            }
            Err(e) => checks.record("delta applies on a fresh engine", Err(e)),
        }
    }
    layers.insert("engine.apply_delta_ms", median(&apply_ms));
    layers.insert("hoptree.rebuild_ms", median(&rebuild_ms));
    layers.insert("hoptree.zones_rebuilt", zones.iter().sum::<f64>() / zones.len().max(1) as f64);
    let structural: Vec<f64> =
        deltas.iter().zip(gtfs_us).filter(|(d, _)| d.is_structural()).map(|(_, us)| *us).collect();
    layers.insert("gtfs.apply_delta_us", median(&structural));

    // The log alone: advisory deltas change nothing below it.
    let rt = RtEngine::new(engine);
    let mut log_us = Vec::new();
    for k in 0..200 {
        let alert = Delta::ServiceAlert { route: RouteId(0), message: format!("log probe {k}") };
        let sp = span("rt");
        let r = rt.apply(alert);
        log_us.push(util::us(sp.end()));
        if let Err(e) = r {
            checks.record("advisory delta logs", Err(e.to_string()));
        }
    }
    layers.insert("rt.log_us", median(&log_us));
}
