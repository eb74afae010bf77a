//! `warm_gateway`: warm access queries over the whole served stack —
//! HTTP gateway → shard router → in-process backend — on the Birmingham
//! analogue at scale 0.15 with the serving pipeline config. Set-up warms
//! every category through the gateway; the timed phase is one keep-alive
//! HTTP client in closed loop over a fixed query mix.

use crate::check::{self, Checks, Measure, Query};
use crate::http::HttpClient;
use crate::util::{self, median, quantile, span};
use crate::{cold_aq, Opts, Report, CITY_SEED, PROBE_SCALE};
use bytes::BytesMut;
use staq_access::AccessQuery;
use staq_core::{AccessEngine, OfflineArtifacts, PipelineConfig};
use staq_ml::ModelKind;
use staq_net::http::HttpHandle;
use staq_net::json::Json;
use staq_road::IsochroneParams;
use staq_rt::RtEngine;
use staq_serve::codec::{decode_response, encode_response};
use staq_serve::gateway::{gateway, GatewayConfig};
use staq_serve::{serve_rt, MuxClient, Request, Response, ServerConfig, ServerHandle};
use staq_shard::{route, Backend, RouterConfig, RouterHandle, ShardSupervisor, SupervisorConfig};
use staq_synth::{City, CityConfig, PoiCategory};
use staq_todam::TodamSpec;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SCALE: f64 = 0.15;
const SETUPS: usize = 3;
/// Warm requests the client sends at the end of set-up, so the admission
/// gate's execution-time estimate forgets the cold pipeline runs before
/// the timed phase starts.
const SETTLE: usize = 400;
/// Query points per category; the mix draws from this pool so repeated
/// points let the approximate path interpolate.
const POOL: usize = 32;
/// One round of the mix, per client: the first seven are `/v1/query`
/// requests (the main operations), the last a full `/v1/measures`.
const MIX: [Kind; 8] = [
    Kind::Point,
    Kind::PointApprox,
    Kind::Mean,
    Kind::Point,
    Kind::PointApprox,
    Kind::Worst,
    Kind::AtRisk,
    Kind::Measures,
];
const WORST_K: usize = 10;
const AT_RISK: f64 = 1.5;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Kind {
    Point,
    PointApprox,
    Mean,
    Worst,
    AtRisk,
    Measures,
}

/// The pipeline config `CityPreset::engine` serves with: OLS, β = 0.2,
/// three start times an hour.
pub fn serving_config() -> PipelineConfig {
    PipelineConfig {
        beta: 0.2,
        model: ModelKind::Ols,
        todam: TodamSpec { per_hour: 3, ..Default::default() },
        ..Default::default()
    }
}

fn slug(c: PoiCategory) -> &'static str {
    match c {
        PoiCategory::School => "school",
        PoiCategory::Hospital => "hospital",
        PoiCategory::VaxCenter => "vax_center",
        PoiCategory::JobCenter => "job_center",
    }
}

/// An in-process `serve_rt` backend whose address the benchmark can see,
/// so the ladder can time it directly as well as through the router.
struct BenchBackend {
    rt: Arc<RtEngine>,
    workers: usize,
    server: Option<ServerHandle>,
    addr: Arc<Mutex<Option<SocketAddr>>>,
}

impl Backend for BenchBackend {
    fn start(&mut self) -> std::io::Result<SocketAddr> {
        self.kill();
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: self.workers,
            ..Default::default()
        };
        let handle = serve_rt(Arc::clone(&self.rt), &cfg)?;
        let addr = handle.addr();
        *self.addr.lock().expect("addr cell") = Some(addr);
        self.server = Some(handle);
        Ok(addr)
    }

    fn is_alive(&mut self) -> bool {
        self.server.is_some()
    }

    fn kill(&mut self) {
        if let Some(mut s) = self.server.take() {
            s.shutdown();
        }
    }

    fn in_process(&self) -> bool {
        true
    }
}

/// Gateway → router → backend, all in this process.
pub struct Stack {
    pub engine: Arc<AccessEngine>,
    pub backend: SocketAddr,
    pub router: RouterHandle,
    pub gateway: HttpHandle,
}

impl Stack {
    pub fn start(engine: Arc<AccessEngine>, threads: usize) -> Stack {
        let addr = Arc::new(Mutex::new(None));
        let backend = BenchBackend {
            rt: Arc::new(RtEngine::new(Arc::clone(&engine))),
            workers: threads,
            server: None,
            addr: Arc::clone(&addr),
        };
        let sup = ShardSupervisor::start(vec![Box::new(backend)], SupervisorConfig::default())
            .expect("backend starts");
        let router = route(sup, &RouterConfig { workers: threads, ..Default::default() })
            .expect("router binds");
        let gateway =
            gateway(router.addr(), &GatewayConfig { addr: "127.0.0.1:0".into(), threads })
                .expect("gateway binds");
        let backend = addr.lock().expect("addr cell").expect("backend started");
        Stack { engine, backend, router, gateway }
    }

    pub fn shutdown(mut self) {
        self.gateway.shutdown();
        self.router.shutdown();
    }
}

/// One request of the mix, concrete.
#[derive(Clone, Debug)]
struct Req {
    kind: Kind,
    cat: PoiCategory,
    x: f64,
    y: f64,
}

impl Req {
    fn query(&self) -> Option<Query> {
        match self.kind {
            Kind::Point | Kind::PointApprox => Some(Query::Point { x: self.x, y: self.y }),
            Kind::Mean => Some(Query::Mean),
            Kind::Worst => Some(Query::Worst { k: WORST_K }),
            Kind::AtRisk => Some(Query::AtRisk { factor: AT_RISK }),
            Kind::Measures => None,
        }
    }

    fn access_query(&self) -> Option<AccessQuery> {
        Some(match self.query()? {
            Query::Point { x, y } => AccessQuery::PointAccess { x, y },
            Query::Mean => AccessQuery::MeanAccess,
            Query::Worst { k } => AccessQuery::WorstZones { k },
            Query::AtRisk { factor } => AccessQuery::AtRisk { threshold_factor: factor },
        })
    }

    fn approx(&self) -> bool {
        self.kind == Kind::PointApprox
    }

    /// `(method, path, body)` of the HTTP request.
    fn http(&self) -> (&'static str, String, String) {
        let cat = slug(self.cat);
        let q = match self.kind {
            Kind::Point | Kind::PointApprox => {
                format!(r#"{{"kind":"point_access","x":{:?},"y":{:?}}}"#, self.x, self.y)
            }
            Kind::Mean => r#"{"kind":"mean_access"}"#.to_string(),
            Kind::Worst => format!(r#"{{"kind":"worst_zones","k":{WORST_K}}}"#),
            Kind::AtRisk => format!(r#"{{"kind":"at_risk","threshold_factor":{AT_RISK:?}}}"#),
            Kind::Measures => {
                return ("GET", format!("/v1/measures?category={cat}"), String::new())
            }
        };
        let body = format!(r#"{{"category":"{cat}","approx":{},"query":{q}}}"#, self.approx());
        ("POST", "/v1/query".into(), body)
    }

    fn wire(&self) -> Request {
        match self.access_query() {
            Some(query) => Request::Query { category: self.cat, query, approx: self.approx() },
            None => Request::Measures { category: self.cat, approx: false },
        }
    }
}

/// The seeded request stream: a fixed kind sequence, with categories and
/// pool points drawn from the seed.
struct Mix {
    rng: util::Rng,
    pool: Vec<Vec<(f64, f64)>>,
    slot: usize,
}

impl Mix {
    fn next(&mut self) -> Req {
        let kind = MIX[self.slot % MIX.len()];
        self.slot += 1;
        let ci = self.rng.below(PoiCategory::ALL.len());
        let (x, y) = self.pool[ci][self.rng.below(POOL)];
        Req { kind, cat: PoiCategory::ALL[ci], x, y }
    }
}

fn point_pool(city: &City, seed: u64) -> Vec<Vec<(f64, f64)>> {
    let mut rng = util::Rng::new(seed, 0x9001);
    PoiCategory::ALL
        .iter()
        .map(|_| {
            (0..POOL)
                .map(|_| {
                    let c = city.zones[rng.below(city.zones.len())].centroid;
                    (c.x + (rng.unit() - 0.5) * 300.0, c.y + (rng.unit() - 0.5) * 300.0)
                })
                .collect()
        })
        .collect()
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    /// `(kind, latency ns, completion offset µs from phase start)` of
    /// successes, kept compact so the log barely shows in peak RSS.
    ok: Vec<(Kind, u32, u32)>,
    attempted: u64,
    failed: u64,
    /// First reply per distinct exact request, for semantic checking.
    first: HashMap<(String, String), (Req, Vec<u8>)>,
    /// Exact replies that differed from the first reply to the same request.
    changed: Vec<String>,
    /// Every distinct approximate reply, checked against its bound
    /// afterwards.
    approx: HashMap<(String, Vec<u8>), Req>,
}

fn drive(
    client: &mut HttpClient,
    mix: &mut Mix,
    log: &mut ClientLog,
    start: Instant,
    until: Instant,
    traced: bool,
) {
    loop {
        for _ in 0..MIX.len() {
            let req = mix.next();
            let (method, path, body) = req.http();
            log.attempted += 1;
            let t = Instant::now();
            let sp = if traced { Some(span("serve::gateway")) } else { None };
            let res = client.call(method, &path, body.as_bytes());
            drop(sp);
            let lat = t.elapsed();
            match res {
                Ok((200, reply)) => {
                    let done = (t.duration_since(start) + lat).as_micros() as u32;
                    log.ok.push((req.kind, lat.as_nanos().min(u32::MAX as u128) as u32, done));
                    if req.approx() {
                        log.approx.entry((body, reply)).or_insert(req);
                    } else {
                        match log.first.get(&(path.clone(), body.clone())) {
                            Some((_, seen)) if *seen != reply => {
                                log.changed.push(format!("{method} {path} {body}"));
                            }
                            Some(_) => {}
                            None => {
                                log.first.insert((path, body), (req, reply));
                            }
                        }
                    }
                }
                Ok((status, reply)) => {
                    log.failed += 1;
                    if log.failed <= 3 {
                        eprintln!(
                            "warm_gateway: HTTP {status}: {}",
                            String::from_utf8_lossy(&reply)
                        );
                    }
                }
                Err(e) => {
                    log.failed += 1;
                    if log.failed <= 3 {
                        eprintln!("warm_gateway: transport error {e}");
                    }
                    if let Ok(c) = HttpClient::connect(client.addr()) {
                        *client = c;
                    }
                }
            }
        }
        if Instant::now() >= until {
            return;
        }
    }
}

/// Sends a fixed number of requests and returns how many were refused.
fn burst(client: &mut HttpClient, mix: &mut Mix) -> u64 {
    let mut refused = 0;
    for _ in 0..SETTLE {
        let (method, path, body) = mix.next().http();
        if !matches!(client.call(method, &path, body.as_bytes()), Ok((200, _))) {
            refused += 1;
        }
    }
    refused
}

/// The settling burst: `client` and a second, concurrent connection each
/// send a fixed number of warm requests. Two callers are what lets the
/// admission gate, still estimating from the cold runs, see a queue and
/// refuse; the timed phase after it uses `client` alone. Returns the
/// refusals.
fn settle(client: &mut HttpClient, mix: &mut Mix, addr: SocketAddr, seed: u64) -> u64 {
    let mut second = HttpClient::connect(addr).expect("gateway accepts");
    let mut second_mix = Mix { rng: util::Rng::new(seed, 0x101), pool: mix.pool.clone(), slot: 0 };
    std::thread::scope(|s| {
        let other = s.spawn(|| burst(&mut second, &mut second_mix));
        burst(client, mix) + other.join().expect("settling client")
    })
}

pub fn run(o: &Opts) -> Report {
    let mut rep = Report::default();
    util::spans_enabled(o.traced || o.probe);
    let scale = if o.probe { PROBE_SCALE } else { SCALE };
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());

    // Set-up: city, engine artifacts, the served stack, every category
    // warmed through the gateway, then the settling burst. Repeated; the
    // last one serves the timed phase.
    let mut setups = Vec::new();
    let mut gen_s = Vec::new();
    let mut eng_s = Vec::new();
    let mut sheds = 0;
    let mut last = None;
    for _ in 0..if o.probe { 1 } else { SETUPS } {
        if let Some((stack, client, _, _, _)) = last.take() {
            drop(client);
            Stack::shutdown(stack);
        }
        let t = Instant::now();
        let sp = span("synth");
        let city = City::generate(&CityConfig::birmingham(CITY_SEED).scaled(scale));
        gen_s.push(sp.end().as_secs_f64());
        let centroids: Vec<(f64, f64)> =
            city.zones.iter().map(|z| (z.centroid.x, z.centroid.y)).collect();
        let pool = point_pool(&city, o.seed);
        let sp = span("core::artifacts");
        let engine = Arc::new(AccessEngine::new(city, serving_config()));
        eng_s.push(sp.end().as_secs_f64());
        let stack = Stack::start(engine, threads);
        // The warm-up runs on a connection of its own: the gateway closes
        // connections idle for 5 s, longer than a cold pipeline run.
        let mut warm = HttpClient::connect(stack.gateway.addr()).expect("gateway accepts");
        let mut served: HashMap<PoiCategory, Vec<Measure>> = HashMap::new();
        for cat in PoiCategory::ALL {
            let (status, body) = warm
                .call("GET", &format!("/v1/measures?category={}", slug(cat)), b"")
                .expect("warm-up request");
            let v = if status == 200 {
                Json::parse(&String::from_utf8_lossy(&body))
                    .map_err(|e| e.to_string())
                    .and_then(|j| check::parse_measures(&j))
            } else {
                Err(format!("warm-up HTTP {status}"))
            };
            rep.checks
                .record("warm-up measures", v.clone().and_then(|v| check::measure_vector(&v)));
            served.insert(cat, v.unwrap_or_default());
        }
        drop(warm);
        let mut client = HttpClient::connect(stack.gateway.addr()).expect("gateway accepts");
        let mut mix = Mix { rng: util::Rng::new(o.seed, 0x100), pool, slot: 0 };
        sheds = settle(&mut client, &mut mix, stack.gateway.addr(), o.seed);
        setups.push(t.elapsed().as_secs_f64());
        last = Some((stack, client, mix, served, centroids));
    }
    let (stack, mut client, mut mix, served, centroids) = last.expect("one set-up");
    rep.e2e.insert("setup_s", median(&setups));
    rep.layers.insert("synth.generate_s", median(&gen_s));
    rep.layers.insert("artifacts.build_s", median(&eng_s));
    rep.layers.insert("admission.shed_after_cold", sheds as f64);
    rep.info("zones", centroids.len());
    rep.info("settle_refused", sheds);

    // Timed phase: one client in closed loop. A traced run spends the
    // first half with spans off and the second with spans on.
    let before = staq_obs::snapshot();
    let start = Instant::now();
    let traced_run = o.traced || o.probe;
    let mut all = ClientLog::default();
    let mut untraced_ops = None;
    if traced_run {
        util::spans_enabled(false);
        drive(&mut client, &mut mix, &mut all, start, start + o.timed() / 2, false);
        untraced_ops = Some(all.ok.len());
        util::spans_enabled(true);
    }
    drive(&mut client, &mut mix, &mut all, start, start + o.timed(), traced_run);
    let elapsed = start.elapsed();
    let after = staq_obs::snapshot();
    drop(client);

    rep.attempted = all.attempted;
    rep.failed = all.failed;
    let main: Vec<f64> =
        all.ok.iter().filter(|r| r.0 != Kind::Measures).map(|r| r.1 as f64 / 1e6).collect();
    let side: Vec<f64> =
        all.ok.iter().filter(|r| r.0 == Kind::Measures).map(|r| r.1 as f64 / 1e6).collect();
    let done = all.ok.iter().filter(|r| r.0 != Kind::Measures).map(|r| r.2 as f64 / 1e6);
    rep.e2e.insert("main_ms", median(&main));
    rep.e2e.insert("side_ms", median(&side));
    rep.info("timed_s", format!("{:.3}", elapsed.as_secs_f64()));
    rep.info("query_samples", main.len());
    rep.info("query_p90_ms", format!("{:.4}", quantile(&main, 0.9)));
    rep.info("query_p99_ms", format!("{:.4}", quantile(&main, 0.99)));
    rep.info("query_per_s", util::per_second_median(done, elapsed));
    rep.info("query_max_ms", format!("{:.4}", quantile(&main, 1.0)));
    rep.info("measures_samples", side.len());
    rep.info("measures_p90_ms", format!("{:.4}", quantile(&side, 0.9)));
    rep.info("timed_failed", all.failed);

    // Checks: every distinct exact reply against the recomputed answer,
    // every repeat byte-equal to it, every approximate reply in bound.
    let bound = stack.engine.approx_config().error_bound;
    rep.checks.record(
        "repeated requests get the same reply",
        if all.changed.is_empty() {
            Ok(())
        } else {
            Err(format!("{} replies changed, e.g. {}", all.changed.len(), all.changed[0]))
        },
    );
    let parse = |b: &[u8]| Json::parse(&String::from_utf8_lossy(b)).map_err(|e| e.to_string());
    for (req, reply) in all.first.values() {
        let v = &served[&req.cat];
        let r = parse(reply).and_then(|j| match req.query() {
            Some(q) => check::query_reply(&q, &j, v, &centroids),
            None => check::parse_measures(&j).and_then(|m| {
                if m == *v {
                    Ok(())
                } else {
                    Err("measure vector changed".into())
                }
            }),
        });
        rep.checks
            .record("reply equals the recomputed answer", r.map_err(|e| format!("{req:?}: {e}")));
    }
    let mut approx_bad = 0;
    for ((_, reply), req) in &all.approx {
        let r = parse(reply).and_then(|j| {
            check::approx_reply(req.x, req.y, &j, &served[&req.cat], &centroids, bound)
        });
        if let Err(e) = r {
            approx_bad += 1;
            if approx_bad <= 3 {
                eprintln!("approx: {req:?}: {e}");
            }
        }
    }
    rep.checks.record(
        "approximate answers within the error bound",
        if approx_bad == 0 {
            Ok(())
        } else {
            Err(format!("{approx_bad} of {} approximate answers out of bound", all.approx.len()))
        },
    );
    rep.info("approx_checked", all.approx.len());
    rep.info("exact_distinct_checked", all.first.len());

    if let Some(split) = untraced_ops {
        let query_ms = |ok: &[(Kind, u32, u32)]| -> Vec<f64> {
            ok.iter().filter(|r| r.0 != Kind::Measures).map(|r| r.1 as f64 / 1e6).collect()
        };
        let off = median(&query_ms(&all.ok[..split]));
        let on = median(&query_ms(&all.ok[split..]));
        rep.layers.insert("bench.trace_overhead_pct", (on / off - 1.0) * 100.0);
        rep.layers.insert(
            "engine.cache.hit_ratio",
            util::ratio_delta(&before, &after, "engine.cache.hits", "engine.cache.misses"),
        );
        let recorded = util::counter_delta(&before, &after, "trace.spans_recorded");
        rep.layers.insert(
            "trace.drop_ratio",
            util::counter_delta(&before, &after, "trace.spans_dropped") / recorded,
        );
        ladder(&stack, &mut mix, o, &mut rep.layers, &mut rep.checks);
        if !o.probe {
            pipeline_layers(&stack.engine, o.seed, &mut rep.layers, &mut rep.checks);
        }
    }
    Stack::shutdown(stack);
    rep
}

/// The served path layer by layer: each request of a fixed sample is
/// timed at the engine, at the backend over `MuxClient`, at the router,
/// and at the gateway; a layer's self time is the median difference
/// between successive entry points.
fn ladder(
    stack: &Stack,
    mix: &mut Mix,
    o: &Opts,
    layers: &mut BTreeMap<&'static str, f64>,
    checks: &mut Checks,
) {
    let passes = if o.probe { 2 } else { 8 };
    let sample: Vec<Req> =
        (0..64).map(|_| mix.next()).filter(|r| r.kind != Kind::PointApprox).collect();
    let approx: Vec<Req> =
        (0..64).map(|_| mix.next()).filter(|r| r.kind == Kind::PointApprox).collect();
    let engine = &stack.engine;
    let backend = MuxClient::connect(stack.backend).expect("backend accepts");
    let router = MuxClient::connect(stack.router.addr()).expect("router accepts");
    let mut http = HttpClient::connect(stack.gateway.addr()).expect("gateway accepts");
    let (mut serve_self, mut router_self, mut gateway_self, mut engine_us) =
        (vec![], vec![], vec![], vec![]);
    let mut replies: Vec<Response> = Vec::new();
    for pass in 0..passes {
        for req in &sample {
            let t_engine = match req.access_query() {
                Some(q) => {
                    let sp = span("core::engine");
                    std::hint::black_box(engine.query(&q, req.cat));
                    sp.end()
                }
                None => {
                    let sp = span("core::engine");
                    std::hint::black_box(engine.measures(req.cat));
                    sp.end()
                }
            };
            let wire = req.wire();
            let sp = span("serve::server");
            let via_backend = backend.call(&wire);
            let t_backend = sp.end();
            let sp = span("shard::router");
            let via_router = router.call(&wire);
            let t_router = sp.end();
            let (method, path, body) = req.http();
            let sp = span("serve::gateway");
            let via_gateway = http.call(method, &path, body.as_bytes());
            let t_gateway = sp.end();
            match (via_backend, via_router, via_gateway) {
                (Ok(b), Ok(r), Ok((200, _))) if b == r && !matches!(b, Response::Error { .. }) => {
                    if pass == 0 {
                        replies.push(b);
                    }
                }
                other => {
                    checks.record(
                        "ladder entry points agree",
                        Err(format!("{req:?}: {:?}", other.0)),
                    );
                    continue;
                }
            }
            if req.kind != Kind::Measures {
                engine_us.push(util::us(t_engine));
            }
            serve_self.push(util::us(t_backend) - util::us(t_engine));
            router_self.push(util::us(t_router) - util::us(t_backend));
            gateway_self.push(util::us(t_gateway) - util::us(t_router));
        }
    }
    layers.insert("engine.query_us", median(&engine_us));
    layers.insert("serve.self_us", median(&serve_self));
    layers.insert("router.self_us", median(&router_self));
    layers.insert("gateway.self_us", median(&gateway_self));

    let mut approx_us = Vec::new();
    for _ in 0..passes {
        for req in &approx {
            let q = req.access_query().expect("point query");
            let sp = span("core::engine");
            std::hint::black_box(engine.query_approx(&q, req.cat));
            approx_us.push(util::us(sp.end()));
        }
    }
    layers.insert("engine.approx_us", median(&approx_us));

    // The access layer alone, over the engine's cached measure vectors.
    let zones = engine.city().zones.clone();
    let mut by_kind: HashMap<Kind, Vec<f64>> = HashMap::new();
    for _ in 0..passes {
        for req in &sample {
            let Some(q) = req.access_query() else { continue };
            let m = engine.measures(req.cat);
            let sp = span("access");
            std::hint::black_box(q.answer(&m.predicted, &zones));
            by_kind.entry(req.kind).or_default().push(util::us(sp.end()));
        }
    }
    for (kind, name) in [
        (Kind::Point, "access.answer_us.point"),
        (Kind::Mean, "access.answer_us.mean"),
        (Kind::Worst, "access.answer_us.worst"),
        (Kind::AtRisk, "access.answer_us.at_risk"),
    ] {
        if let Some(v) = by_kind.get(&kind) {
            layers.insert(name, median(v));
        }
    }
    codec_layers(&replies, layers);
}

/// Encode and decode cost of the replies the backend actually sent.
pub fn codec_layers(replies: &[Response], layers: &mut BTreeMap<&'static str, f64>) {
    let (mut enc, mut dec, mut bytes) = (vec![], vec![], vec![]);
    for resp in replies {
        for _ in 0..4 {
            let mut buf = BytesMut::new();
            let sp = span("serve::codec");
            encode_response(resp, &mut buf);
            enc.push(util::us(sp.end()));
            bytes.push(buf.len() as f64);
            let sp = span("serve::codec");
            let back = decode_response(&mut buf);
            dec.push(util::us(sp.end()));
            std::hint::black_box(back.ok());
        }
    }
    layers.insert("codec.encode_us", median(&enc));
    layers.insert("codec.decode_us", median(&dec));
    layers.insert("codec.reply_bytes", bytes.iter().sum::<f64>() / bytes.len() as f64);
}

/// The pipeline layers as the engine's warm-up ran them: one cell per
/// category at the serving config, plus naïve labeling, on the engine's
/// own city.
fn pipeline_layers(
    engine: &AccessEngine,
    seed: u64,
    layers: &mut BTreeMap<&'static str, f64>,
    checks: &mut Checks,
) {
    let city = engine.city().clone();
    let cfg = serving_config();
    let art = OfflineArtifacts::build(&city, &cfg.todam.interval, &IsochroneParams::default());
    let sweep = cold_aq::Sweep { city: &city, art: &art, spec: &cfg.todam, model: cfg.model, seed };
    let mut acc = cold_aq::LayerAcc::default();
    for cat in PoiCategory::ALL {
        sweep.naive_layers(cat, &mut acc);
        let (r, wall) = sweep.cell(cat, cfg.beta);
        acc.add_other_ms((wall - r.timings.total()) * 1e3);
        sweep.decompose(cat, cfg.beta, &r, &mut acc, checks);
    }
    acc.finish(layers);
    let m = cfg.todam.build(&city, PoiCategory::School);
    cold_aq::raptor_layers(&city, &m, seed, cfg.todam.interval.day, layers);
}
