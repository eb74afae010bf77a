//! `cold_aq`: the paper's Table II on the Birmingham analogue at scale
//! 0.1 — the SSR solution (TODAM → features → sampling → β-labeling →
//! MLP) for every POI category at β ∈ {3 %, 30 %}, priced against naïve
//! labeling of every trip. Everything runs in-process; no serving layer
//! is involved.

use crate::check::{self, Checks};
use crate::util::{self, median, span};
use crate::{Opts, Report, CITY_SEED, PROBE_SCALE};
use staq_core::pipeline::ssr_train_infer;
use staq_core::{NaiveResult, OfflineArtifacts, PipelineConfig, PipelineResult, SsrPipeline};
use staq_hoptree::{aggregate, FeatureExtractor};
use staq_ml::ModelKind;
use staq_road::IsochroneParams;
use staq_synth::{City, CityConfig, PoiCategory, ZoneId};
use staq_todam::build::{trip_origin, trip_poi_pos};
use staq_todam::{LabelEngine, Todam, TodamSpec, ZoneStats};
use staq_transit::{AccessCost, CostKind, Raptor, TransitNetwork};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const SCALE: f64 = 0.1;
const BETAS: [f64; 2] = [0.03, 0.30];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Whole sweeps a run makes at least, whatever `--seconds` says, so each
/// cell's median has three samples.
const MIN_ROUNDS: usize = 3;
/// The fixed zone sample re-routed through the reference router: every
/// zone whose id is a multiple of this.
const REFERENCE_EVERY: usize = 4;

pub fn run(o: &Opts) -> Report {
    let mut rep = Report::default();
    util::spans_enabled(o.traced || o.probe);
    let scale = if o.probe { PROBE_SCALE } else { SCALE };
    // The paper's |R| = 60 (30 an hour over the two-hour peak), as in
    // `table2`.
    let spec = TodamSpec { per_hour: 30, ..Default::default() };

    let mut setups = Vec::new();
    let mut gen_s = Vec::new();
    let mut art_s = Vec::new();
    let mut built = None;
    for _ in 0..if o.probe { 1 } else { SETUPS } {
        let t = Instant::now();
        let sp = span("synth");
        let city = City::generate(&CityConfig::birmingham(CITY_SEED).scaled(scale));
        gen_s.push(sp.end().as_secs_f64());
        let sp = span("core::artifacts");
        let art = OfflineArtifacts::build(&city, &spec.interval, &IsochroneParams::default());
        art_s.push(sp.end().as_secs_f64());
        setups.push(t.elapsed().as_secs_f64());
        built = Some((city, art));
    }
    let (city, art) = built.expect("at least one set-up");
    rep.e2e.insert("setup_s", median(&setups));
    rep.layers.insert("synth.generate_s", median(&gen_s));
    rep.layers.insert("artifacts.build_s", median(&art_s));
    rep.info("zones", city.n_zones());

    let sweep = Sweep { city: &city, art: &art, spec: &spec, model: ModelKind::Mlp, seed: o.seed };
    let cells: Vec<(PoiCategory, f64)> =
        PoiCategory::ALL.iter().flat_map(|&c| BETAS.iter().map(move |&b| (c, b))).collect();
    let mut cell_s: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut naive_s: Vec<Vec<f64>> = vec![Vec::new(); PoiCategory::ALL.len()];
    let mut table2_ssr: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut table2_naive: Vec<Vec<f64>> = vec![Vec::new(); PoiCategory::ALL.len()];
    let mut first: Vec<Option<PipelineResult>> = (0..cells.len()).map(|_| None).collect();
    let mut acc = LayerAcc::default();
    let mut round_s: Vec<(bool, f64)> = Vec::new();
    // Naïve labels per category from the first round, and whether they
    // disagree with the reference router on the fixed zone sample.
    let mut naive_first: Vec<Option<(Vec<Option<ZoneStats>>, bool)>> =
        vec![None; PoiCategory::ALL.len()];

    // A traced run makes one untraced sweep and one traced sweep (the
    // difference is the tracing overhead); a probe makes one traced sweep.
    let rounds_wanted = |done: usize, elapsed: Duration| {
        if o.probe {
            done < 1
        } else if o.traced {
            done < 2
        } else {
            done < MIN_ROUNDS || elapsed < o.timed()
        }
    };
    let t0 = Instant::now();
    let mut round = 0;
    while rounds_wanted(round, t0.elapsed()) {
        let traced = o.probe || (o.traced && round == 1);
        util::spans_enabled(traced);
        let mut sweep_s = 0.0;
        for (ci, &cat) in PoiCategory::ALL.iter().enumerate() {
            let t = Instant::now();
            let sp = span("core::naive");
            let naive = NaiveResult::compute(&city, &spec, cat, CostKind::Jt);
            drop(sp);
            let wall = t.elapsed().as_secs_f64();
            naive_s[ci].push(wall);
            table2_naive[ci].push(naive.label_secs);
            rep.attempted += 1;
            match &naive_first[ci] {
                None => {
                    let bad = sweep.reference_mismatches(&naive);
                    if !bad.is_empty() {
                        rep.info(
                            &format!("reference_mismatch_zones.{}", cat.label()),
                            format!("{bad:?}"),
                        );
                    }
                    naive_first[ci] = Some((naive.stats.clone(), !bad.is_empty()));
                }
                Some((stats, _)) => rep.checks.record(
                    "repeat naïve labeling reproduces the first",
                    if *stats == naive.stats {
                        Ok(())
                    } else {
                        Err(format!("{cat:?}: labels changed"))
                    },
                ),
            }
            // Labels that disagree with the reference router are a wrong
            // output: the operation failed. The naïve inputs do not depend
            // on the seed, so such a category fails in every round.
            if naive_first[ci].as_ref().is_some_and(|f| f.1) {
                rep.failed += 1;
            }
            if traced {
                sweep.naive_layers(cat, &mut acc);
            }
            for (bi, &beta) in BETAS.iter().enumerate() {
                let k = ci * BETAS.len() + bi;
                let (r, wall) = sweep.cell(cat, beta);
                cell_s[k].push(wall);
                sweep_s += wall;
                table2_ssr[k].push(r.timings.total());
                rep.attempted += 1;
                if traced {
                    acc.add_other_ms((wall - r.timings.total()) * 1e3);
                    sweep.decompose(cat, beta, &r, &mut acc, &mut rep.checks);
                }
                match &first[k] {
                    None => {
                        sweep.check_cell(cat, beta, &r, &naive, &mut rep.checks, &mut rep.info);
                        first[k] = Some(r);
                    }
                    Some(f) => rep.checks.record(
                        "repeat run reproduces the first",
                        if f.labeled == r.labeled && f.predicted == r.predicted {
                            Ok(())
                        } else {
                            Err(format!("{cat:?} β={beta}: a repeated run gave other results"))
                        },
                    ),
                }
            }
        }
        round_s.push((traced, sweep_s));
        round += 1;
    }
    util::spans_enabled(o.traced || o.probe);
    let elapsed = t0.elapsed().as_secs_f64();

    let cell_medians: Vec<f64> = cell_s.iter().map(|s| median(s)).collect();
    let naive_medians: Vec<f64> = naive_s.iter().map(|s| median(s)).collect();
    let aq_sweep_s: f64 = cell_medians.iter().sum();
    let naive_sweep_s: f64 = naive_medians.iter().sum();
    // Table II's two columns, per cell and per category: the sweeps
    // divided by their operation counts.
    rep.e2e.insert("main_ms", aq_sweep_s / cells.len() as f64 * 1e3);
    rep.e2e.insert("side_ms", naive_sweep_s / naive_medians.len() as f64 * 1e3);
    rep.info("rounds", round);
    rep.info("timed_s", format!("{elapsed:.3}"));
    rep.info("aq_sweep_s", format!("{aq_sweep_s:.4}"));
    rep.info("naive_sweep_s", format!("{naive_sweep_s:.4}"));
    let t2_ssr: f64 = table2_ssr.iter().map(|s| median(s)).sum();
    let t2_naive: f64 = table2_naive.iter().map(|s| median(s)).sum();
    rep.info("table2_solution_cost_s", format!("{t2_ssr:.4}"));
    rep.info("table2_label_cost_s", format!("{t2_naive:.4}"));
    for (k, (cat, beta)) in cells.iter().enumerate() {
        rep.info(
            &format!("cell.{}.{}_ms", cat.label(), beta),
            format!("{:.2}", cell_medians[k] * 1e3),
        );
    }
    for (ci, cat) in PoiCategory::ALL.iter().enumerate() {
        rep.info(&format!("naive.{}_ms", cat.label()), format!("{:.2}", naive_medians[ci] * 1e3));
    }

    if o.traced || o.probe {
        acc.finish(&mut rep.layers);
        let m = spec.build(&city, PoiCategory::School);
        raptor_layers(&city, &m, o.seed, spec.interval.day, &mut rep.layers);
        if let (Some(off), Some(on)) = (round_s.iter().find(|r| !r.0), round_s.iter().find(|r| r.0))
        {
            rep.layers.insert("bench.trace_overhead_pct", (on.1 / off.1 - 1.0) * 100.0);
        }
    }
    rep
}

/// Per-layer samples gathered over traced sweeps.
#[derive(Default)]
pub struct LayerAcc {
    todam_ms: Vec<f64>,
    todam_trips: Vec<f64>,
    features_s: f64,
    pairs: f64,
    label_ssr_s: f64,
    label_naive_s: f64,
    naive_trips: f64,
    ml_ms: f64,
    pipeline_other_ms: f64,
    cache_hits: f64,
    cache_lookups: f64,
}

impl LayerAcc {
    /// Adds one pipeline run's own time: its wall minus its stage timings.
    pub fn add_other_ms(&mut self, ms: f64) {
        self.pipeline_other_ms += ms;
    }

    /// Sums are over one sweep's cells (or categories for naïve labeling).
    pub fn finish(&self, layers: &mut BTreeMap<&'static str, f64>) {
        layers.insert("todam.build_ms", median(&self.todam_ms));
        layers.insert(
            "todam.trips",
            self.todam_trips.iter().sum::<f64>() / self.todam_trips.len() as f64,
        );
        layers.insert("hoptree.features_s", self.features_s);
        layers.insert("hoptree.pairs", self.pairs);
        layers.insert("hoptree.pair_us", self.features_s * 1e6 / self.pairs);
        layers.insert("label.ssr_s", self.label_ssr_s);
        layers.insert("label.naive_s", self.label_naive_s);
        layers.insert("label.trips_per_s", self.naive_trips / self.label_naive_s);
        layers.insert("ml.train_infer_ms", self.ml_ms);
        layers.insert("pipeline.other_ms", self.pipeline_other_ms);
        layers.insert("transit.access_cache.hit_ratio", self.cache_hits / self.cache_lookups);
    }
}

/// One city's Table II sweep: its cells, their layer decomposition, and
/// the checks on their outputs.
pub struct Sweep<'a> {
    pub city: &'a City,
    pub art: &'a OfflineArtifacts,
    pub spec: &'a TodamSpec,
    pub model: ModelKind,
    pub seed: u64,
}

impl Sweep<'_> {
    fn config(&self, beta: f64) -> PipelineConfig {
        PipelineConfig {
            beta,
            model: self.model,
            cost: CostKind::Jt,
            todam: self.spec.clone(),
            seed: self.seed,
            ..Default::default()
        }
    }

    /// One cold SSR pipeline run, timed.
    pub fn cell(&self, cat: PoiCategory, beta: f64) -> (PipelineResult, f64) {
        let t = Instant::now();
        let sp = span("core::pipeline");
        let r = SsrPipeline::new(self.city, self.art, self.config(beta)).run(cat);
        drop(sp);
        (r, t.elapsed().as_secs_f64())
    }

    /// Calls each stage's layer directly, on the same inputs the pipeline
    /// run `r` used, each inside its own span.
    pub fn decompose(
        &self,
        cat: PoiCategory,
        beta: f64,
        r: &PipelineResult,
        acc: &mut LayerAcc,
        checks: &mut Checks,
    ) {
        let cfg = self.config(beta);
        let sp = span("todam::build");
        let m = self.spec.build(self.city, cat);
        acc.todam_ms.push(util::ms(sp.end()));
        acc.todam_trips.push(m.n_trips() as f64);

        let sp = span("hoptree::features");
        let mut fx = FeatureExtractor::new(self.city, &self.art.store);
        fx.use_interchanges = cfg.use_interchange_features;
        fx.max_hops = cfg.max_hops;
        let feats = aggregate::all_origin_features(&fx, self.city, &m);
        acc.features_s += sp.end().as_secs_f64();
        acc.pairs += (0..self.city.n_zones() as u32)
            .map(|z| m.zone_alpha(ZoneId(z)).len())
            .sum::<usize>() as f64;
        checks.record(
            "feature layer reproduces the pipeline's features",
            if r.labeled
                .iter()
                .enumerate()
                .all(|(i, z)| feats[z.idx()].is_some_and(|f| f[..] == *r.x_labeled.row(i)))
            {
                Ok(())
            } else {
                Err(format!("{cat:?} β={beta}: features differ"))
            },
        );

        let before = staq_obs::snapshot();
        let sp = span("todam::label");
        let engine = LabelEngine::new(self.city, AccessCost::jt(), self.spec.interval.clone());
        let stats = engine.label_zones(&m, &r.labeled);
        acc.label_ssr_s += sp.end().as_secs_f64();
        let after = staq_obs::snapshot();
        acc.cache_hits += util::counter_delta(&before, &after, "transit.access_cache.hit");
        acc.cache_lookups += util::counter_delta(&before, &after, "transit.access_cache.hit")
            + util::counter_delta(&before, &after, "transit.access_cache.miss");
        checks.record(
            "labeling layer reproduces the pipeline's labels",
            if stats
                .iter()
                .map(|s| s.expect("labeled zone has trips"))
                .eq(r.labeled_stats.iter().copied())
            {
                Ok(())
            } else {
                Err(format!("{cat:?} β={beta}: labels differ"))
            },
        );

        let sp = span("ml");
        let predicted = ssr_train_infer(
            self.city,
            &cfg,
            &r.labeled,
            &r.unlabeled,
            &r.x_labeled,
            &r.x_unlabeled,
            &r.labeled_stats,
        );
        acc.ml_ms += util::ms(sp.end());
        checks.record(
            "model layer reproduces the pipeline's predictions",
            if predicted == r.predicted {
                Ok(())
            } else {
                Err(format!("{cat:?} β={beta}: predictions differ"))
            },
        );
    }

    /// Naïve labeling of every trip, called on the labeling layer directly.
    pub fn naive_layers(&self, cat: PoiCategory, acc: &mut LayerAcc) {
        let m = self.spec.build(self.city, cat);
        let sp = span("todam::label");
        let engine = LabelEngine::new(self.city, AccessCost::jt(), self.spec.interval.clone());
        let stats = engine.label_all(&m);
        acc.label_naive_s += sp.end().as_secs_f64();
        acc.naive_trips += m.n_trips() as f64;
        std::hint::black_box(stats);
    }

    /// The checks on one cell, against the naïve labels of its category
    /// and against the unpruned reference router.
    fn check_cell(
        &self,
        cat: PoiCategory,
        beta: f64,
        r: &PipelineResult,
        naive: &NaiveResult,
        checks: &mut Checks,
        info: &mut Vec<(String, String)>,
    ) {
        let what = format!("{cat:?} β={beta}");
        let ids = |v: &[ZoneId]| v.iter().map(|z| z.0).collect::<Vec<u32>>();
        let eligible: Vec<u32> = (0..self.city.n_zones() as u32)
            .filter(|&z| {
                !r.matrix.zone_alpha(ZoneId(z)).is_empty()
                    && !r.matrix.zone_trips(ZoneId(z)).is_empty()
            })
            .collect();
        checks.record(
            "L and U partition the eligible zones",
            check::partition(&eligible, &ids(&r.labeled), &ids(&r.unlabeled), beta)
                .map_err(|e| format!("{what}: {e}")),
        );
        checks.record(
            "every eligible zone has measures",
            if r.predicted.iter().map(|m| m.zone.0).eq(eligible.iter().copied()) {
                Ok(())
            } else {
                Err(format!("{what}: measured zones differ from the eligible set"))
            },
        );
        for (z, s) in r.labeled.iter().zip(&r.labeled_stats) {
            let want = naive.stats[z.idx()].map_or((f64::NAN, f64::NAN), |n| (n.mac, n.acsd));
            checks.record(
                "labeled stats equal the naïve labels",
                check::same_stats(&format!("{what} zone {}", z.0), (s.mac, s.acsd), want),
            );
        }

        if beta >= 0.3 {
            let truth: Vec<f64> = r
                .unlabeled
                .iter()
                .map(|z| naive.stats[z.idx()].map_or(f64::NAN, |s| s.mac))
                .collect();
            let pred: Vec<f64> = r.predicted_unlabeled().iter().map(|m| m.mac).collect();
            let labeled: Vec<f64> = r.labeled_stats.iter().map(|s| s.mac).collect();
            let res = check::beats_labeled_mean(&pred, &truth, &labeled);
            if let Ok(ratio) = &res {
                info.push((format!("mae_ratio.{}", cat.label()), format!("{ratio:.3}")));
            }
            checks.record(
                "SSR beats the labeled mean at β = 30 %",
                res.map(|_| ()).map_err(|e| format!("{what}: {e}")),
            );
        }
    }

    /// Zones of the fixed sample (every fourth zone id) whose naïve labels
    /// differ from re-routing all their trips through the unpruned
    /// reference router. The labeled zones' stats equal the naïve ones
    /// (checked per cell), so this covers the labeled trips in the sample.
    fn reference_mismatches(&self, naive: &NaiveResult) -> Vec<u32> {
        let net = TransitNetwork::with_defaults(&self.city.road, &self.city.feed);
        let reference = Raptor::reference(&net);
        let cost = AccessCost::jt();
        let day = self.spec.interval.day;
        let m = &naive.matrix;
        let mut bad = Vec::new();
        for z in (0..self.city.n_zones() as u32).step_by(REFERENCE_EVERY) {
            let costs: Vec<(f64, bool)> = m
                .zone_trips(ZoneId(z))
                .iter()
                .map(|t| {
                    let j = reference.query(
                        &trip_origin(self.city, t),
                        &trip_poi_pos(self.city, m, t),
                        t.start,
                        day,
                    );
                    (cost.cost(&j), j.is_walk_only())
                })
                .collect();
            let want = ZoneStats::from_costs(&costs).map(|s| (s.mac, s.acsd));
            let got = naive.stats[z as usize].map(|s| (s.mac, s.acsd));
            let same = match (got, want) {
                (Some(g), Some(w)) => check::same_stats("", g, w).is_ok(),
                (None, None) => true,
                _ => false,
            };
            if !same {
                bad.push(z);
            }
        }
        bad
    }
}

/// Per-layer figures of the network build and the router, on `city`,
/// between endpoints of trips drawn from `m`.
pub fn raptor_layers(
    city: &City,
    m: &Todam,
    seed: u64,
    day: staq_gtfs::time::DayOfWeek,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let mut build_ms = Vec::new();
    let mut net = None;
    for _ in 0..3 {
        let sp = span("transit::network");
        let n = TransitNetwork::with_defaults(&city.road, &city.feed);
        build_ms.push(util::ms(sp.end()));
        net = Some(n);
    }
    let net = net.expect("built");
    layers.insert("transit.network_build_ms", median(&build_ms));
    let router = Raptor::new(&net);
    let mut rng = util::Rng::new(seed, 0x5a97);
    let trips = m.trips();
    let ods: Vec<_> = (0..200)
        .map(|_| {
            let t = &trips[rng.below(trips.len())];
            (trip_origin(city, t), trip_poi_pos(city, m, t), t.start)
        })
        .collect();
    let before = staq_obs::snapshot();
    let mut q_us = Vec::new();
    for (o, d, t) in &ods {
        let sp = span("transit::raptor");
        std::hint::black_box(router.query(o, d, *t, day));
        q_us.push(util::us(sp.end()));
    }
    let after = staq_obs::snapshot();
    let mut p_us = Vec::new();
    for (o, d, t) in ods.iter().take(100) {
        let sp = span("transit::raptor");
        std::hint::black_box(router.query_pareto(o, d, *t, day));
        p_us.push(util::us(sp.end()));
    }
    layers.insert("raptor.query_us", median(&q_us));
    layers.insert("raptor.pareto_us", median(&p_us));
    layers.insert(
        "raptor.patterns_scanned_per_query",
        util::counter_delta(&before, &after, "raptor.patterns_scanned") / ods.len() as f64,
    );
    layers.entry("transit.access_cache.hit_ratio").or_insert_with(|| {
        util::ratio_delta(&before, &after, "transit.access_cache.hit", "transit.access_cache.miss")
    });
}
