//! End-to-end benchmark of the STAQ reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_aq --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One workload per process. The last line of standard output is the
//! result object (`correct`, `attempted`, `failed`, `metrics`); the line
//! before it carries reference figures that are not metrics. See
//! `perfbench/README.md` for the workloads, metrics and layer map.

mod check;
mod cold_aq;
mod http;
mod live_timetable;
mod util;
mod warm_gateway;

use check::Checks;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Every end-to-end metric, as `(name, unit)`. Each workload reports all
/// of them; what its "main" and "side" operations are differs per
/// workload (see the README).
pub const E2E: [(&str, &str); 4] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("main_ms", "ms"), ("side_ms", "ms")];

/// Every per-layer metric, as `(name, unit)`, reported by a traced run.
pub const LAYERS: [(&str, &str); 39] = [
    ("synth.generate_s", "s"),
    ("artifacts.build_s", "s"),
    ("todam.build_ms", "ms"),
    ("todam.trips", "count"),
    ("hoptree.features_s", "s"),
    ("hoptree.pairs", "count"),
    ("hoptree.pair_us", "us"),
    ("label.ssr_s", "s"),
    ("label.naive_s", "s"),
    ("label.trips_per_s", "1/s"),
    ("transit.network_build_ms", "ms"),
    ("raptor.query_us", "us"),
    ("raptor.pareto_us", "us"),
    ("raptor.patterns_scanned_per_query", "count"),
    ("transit.access_cache.hit_ratio", "ratio"),
    ("ml.train_infer_ms", "ms"),
    ("pipeline.other_ms", "ms"),
    ("access.answer_us.point", "us"),
    ("access.answer_us.mean", "us"),
    ("access.answer_us.worst", "us"),
    ("access.answer_us.at_risk", "us"),
    ("engine.query_us", "us"),
    ("engine.approx_us", "us"),
    ("engine.cache.hit_ratio", "ratio"),
    ("engine.plan_self_ms", "ms"),
    ("engine.apply_delta_ms", "ms"),
    ("gtfs.apply_delta_us", "us"),
    ("hoptree.rebuild_ms", "ms"),
    ("hoptree.zones_rebuilt", "count"),
    ("rt.log_us", "us"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("codec.reply_bytes", "bytes"),
    ("serve.self_us", "us"),
    ("admission.shed_after_cold", "count"),
    ("router.self_us", "us"),
    ("gateway.self_us", "us"),
    ("trace.drop_ratio", "ratio"),
    ("bench.trace_overhead_pct", "%"),
];

pub const WORKLOADS: [&str; 3] = ["cold_aq", "warm_gateway", "live_timetable"];

/// Scale of the Birmingham analogue on which a traced run measures the
/// layers its own workload does not reach.
pub const PROBE_SCALE: f64 = 0.05;

/// Fixed seed of the synthetic city. The city is the benchmark's data
/// set, like the paper's fixed Birmingham; `--seed` drives everything the
/// workloads draw from it (labeled sets, query points, journeys, deltas).
pub const CITY_SEED: u64 = 42;

/// How one workload run is set up.
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Record per-layer metrics (a traced run) instead of end-to-end ones.
    pub traced: bool,
    /// Run small, on the probe city, only to measure layers for another
    /// workload's traced run.
    pub probe: bool,
}

impl Opts {
    pub fn timed(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// Reference figures printed beside the metrics.
    pub info: Vec<(String, String)>,
}

impl Report {
    pub fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_string(), value.to_string()));
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: staq-perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn run_workload(name: &str, o: &Opts) -> Report {
    match name {
        "cold_aq" => cold_aq::run(o),
        "warm_gateway" => warm_gateway::run(o),
        "live_timetable" => live_timetable::run(o),
        other => usage(&format!("unknown workload {other}")),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage(&format!("{a} needs a value")));
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = Some(value().parse::<u64>().unwrap_or_else(|_| usage("--seed takes a u64")))
            }
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .unwrap_or_else(|| usage("--seconds takes a number in (0, 600]")),
                )
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let opts = Opts {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        traced: trace.unwrap_or_else(|| usage("--trace is required")),
        probe: false,
    };

    let cpu0 = util::CpuSample::read();
    let mut report = run_workload(&workload, &opts);
    if opts.traced {
        // Layers this workload does not reach are measured by the other
        // workloads' layer code on the small probe city, so every traced
        // run reports every per-layer metric.
        for other in WORKLOADS.iter().filter(|w| **w != workload) {
            let probe = run_workload(other, &Opts { probe: true, seconds: 2.0, ..opts.clone() });
            for (k, v) in probe.layers {
                report.layers.entry(k).or_insert_with(|| {
                    report.info.push((format!("layer_source.{k}"), format!("probe:{other}")));
                    v
                });
            }
            report.checks.absorb(probe.checks);
        }
        let spans = util::take_spans();
        write_spans(&workload, opts.seed, &spans);
        print_layer_table(&spans, &report.layers);
    }
    let cpu1 = util::CpuSample::read();
    let (steal, other) = cpu0.interference(&cpu1);
    report.info("steal_pct", format!("{steal:.2}"));
    report.info("other_cpu_pct", format!("{other:.2}"));
    report.info("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()));
    report.e2e.insert("peak_rss_mb", util::peak_rss_mb());

    let mut info = String::from("{\"info\": {");
    for (i, (k, v)) in report.info.iter().enumerate() {
        let _ = write!(info, "{}{}: {}", if i > 0 { ", " } else { "" }, json_str(k), json_str(v));
    }
    info.push_str(&format!("}}, \"checks_passed\": {}}}", report.checks.passed()));
    println!("{info}");

    let (names, source): (Vec<(&str, &str)>, &BTreeMap<&str, f64>) =
        if opts.traced { (LAYERS.to_vec(), &report.layers) } else { (E2E.to_vec(), &report.e2e) };
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = source.get(name).copied().unwrap_or(f64::NAN);
        if !v.is_finite() {
            eprintln!("error: metric {name} was not measured (value {v})");
            std::process::exit(1);
        }
        let _ = write!(
            metrics,
            "{}{}: {{\"value\": {v:?}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            json_str(name),
            json_str(unit)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.checks.ok(),
        report.attempted.max(1),
        report.failed
    );
}

/// Writes the traced run's spans, one JSON object a line, under
/// `perfbench/out/`.
fn write_spans(workload: &str, seed: u64, spans: &[util::SpanRec]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    let mut text = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
            s.id,
            s.parent,
            json_str(s.name),
            s.start_ns,
            s.dur_ns
        );
    }
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, text)) {
        Ok(()) => eprintln!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

/// Prints the folded self-time table of the benchmark's spans and every
/// per-layer metric, to standard error.
fn print_layer_table(spans: &[util::SpanRec], layers: &BTreeMap<&str, f64>) {
    let folded = util::fold_self_time(spans);
    let mut rows: Vec<_> = folded.into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1 .2));
    eprintln!("{:<28} {:>8} {:>12} {:>12}", "span (layer call)", "count", "total ms", "self ms");
    for (name, (count, total, own)) in rows {
        eprintln!("{name:<28} {count:>8} {:>12.3} {:>12.3}", total as f64 / 1e6, own as f64 / 1e6);
    }
    eprintln!();
    eprintln!("{:<36} {:>16} unit", "per-layer metric", "value");
    for (name, unit) in LAYERS {
        eprintln!("{name:<36} {:>16.4} {unit}", layers.get(name).copied().unwrap_or(f64::NAN));
    }
}
