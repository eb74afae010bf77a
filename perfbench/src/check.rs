//! Independent checkers for the program's outputs. Each takes plain data
//! (what the program returned and what the benchmark computed apart from
//! it) and says what is wrong, if anything. None of them calls the code
//! it checks.

use staq_net::json::Json;
use staq_transit::{Journey, Leg};

/// Collects checker failures over a run; a run is correct when none fired.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
    passed: u64,
}

impl Checks {
    pub fn record(&mut self, what: &str, r: Result<(), String>) {
        match r {
            Ok(()) => self.passed += 1,
            Err(e) => {
                if self.failures.len() < 20 {
                    eprintln!("CHECK FAILED [{what}]: {e}");
                }
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn passed(&self) -> u64 {
        self.passed
    }

    pub fn absorb(&mut self, other: Checks) {
        self.passed += other.passed;
        self.failures.extend(other.failures);
    }
}

// ------------------------------------------------------------- cold_aq

/// L and U partition the eligible zones, and |L| is ⌈β·|E|⌉ clamped to
/// `[2, |E| − 1]`. All three lists are zone ids.
pub fn partition(
    eligible: &[u32],
    labeled: &[u32],
    unlabeled: &[u32],
    beta: f64,
) -> Result<(), String> {
    let mut all: Vec<u32> = labeled.iter().chain(unlabeled).copied().collect();
    all.sort_unstable();
    let n_all = all.len();
    all.dedup();
    if all.len() != n_all {
        return Err("labeled and unlabeled zones overlap or repeat".into());
    }
    let mut e = eligible.to_vec();
    e.sort_unstable();
    if all != e {
        return Err(format!("L ∪ U has {} zones, eligible set has {}", all.len(), e.len()));
    }
    let want = ((e.len() as f64 * beta).ceil() as usize).clamp(2, e.len().saturating_sub(1));
    if labeled.len() != want {
        return Err(format!("|L| = {}, want ⌈β·|E|⌉ = {want}", labeled.len()));
    }
    Ok(())
}

/// Two `(mac, acsd)` pairs are bit-identical.
pub fn same_stats(what: &str, got: (f64, f64), want: (f64, f64)) -> Result<(), String> {
    if got.0.to_bits() == want.0.to_bits() && got.1.to_bits() == want.1.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: got (mac {}, acsd {}), want ({}, {})", got.0, got.1, want.0, want.1))
    }
}

/// Mean absolute error of `pred` against `truth`.
fn mae(pred: &[f64], truth: &[f64]) -> f64 {
    pred.iter().zip(truth).map(|(p, t)| (p - t).abs()).sum::<f64>() / pred.len().max(1) as f64
}

/// The SSR predictions of the unlabeled zones beat predicting the labeled
/// mean everywhere. Returns the ratio of the two errors on success.
pub fn beats_labeled_mean(
    pred: &[f64],
    truth: &[f64],
    labeled_truth: &[f64],
) -> Result<f64, String> {
    if pred.len() != truth.len() || pred.is_empty() || labeled_truth.is_empty() {
        return Err("empty or misaligned evaluation sets".into());
    }
    let mean = labeled_truth.iter().sum::<f64>() / labeled_truth.len() as f64;
    let baseline = mae(&vec![mean; truth.len()], truth);
    let ssr = mae(pred, truth);
    if ssr < baseline {
        Ok(ssr / baseline)
    } else {
        Err(format!("SSR MAE {ssr:.2} is not below the labeled-mean MAE {baseline:.2}"))
    }
}

// -------------------------------------------------------- warm_gateway

/// One zone's served measures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measure {
    pub zone: u32,
    pub mac: f64,
    pub acsd: f64,
}

/// The access queries the gateway workload sends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Query {
    Mean,
    Worst { k: usize },
    AtRisk { factor: f64 },
    Point { x: f64, y: f64 },
}

/// Parses a `/v1/measures` reply.
pub fn parse_measures(body: &Json) -> Result<Vec<Measure>, String> {
    let arr = body.as_arr().ok_or("measures reply is not an array")?;
    arr.iter()
        .map(|m| {
            Ok(Measure {
                zone: m.get("zone").and_then(Json::as_f64).ok_or("zone missing")? as u32,
                mac: m.get("mac").and_then(Json::as_f64).ok_or("mac missing")?,
                acsd: m.get("acsd").and_then(Json::as_f64).ok_or("acsd missing")?,
            })
        })
        .collect()
}

/// A served measure vector is sorted by zone, has no repeats, and holds
/// only finite, non-negative costs.
pub fn measure_vector(v: &[Measure]) -> Result<(), String> {
    if v.is_empty() {
        return Err("empty measure vector".into());
    }
    if v.windows(2).any(|w| w[0].zone >= w[1].zone) {
        return Err("zones not strictly ascending".into());
    }
    if let Some(m) = v
        .iter()
        .find(|m| !(m.mac.is_finite() && m.mac >= 0.0 && m.acsd.is_finite() && m.acsd >= 0.0))
    {
        return Err(format!("zone {} has invalid measures {:?}", m.zone, m));
    }
    Ok(())
}

fn mean_of(v: &[Measure], f: impl Fn(&Measure) -> f64) -> f64 {
    let mut s = 0.0;
    for m in v {
        s += f(m);
    }
    s / v.len() as f64
}

/// The zone of `v` whose centroid (from `centroids`, indexed by zone id)
/// is nearest to `(x, y)`; the first one on ties.
pub fn nearest(v: &[Measure], centroids: &[(f64, f64)], x: f64, y: f64) -> Measure {
    let mut best = v[0];
    let mut best_d = f64::INFINITY;
    for m in v {
        let (cx, cy) = centroids[m.zone as usize];
        let d = (cx - x).powi(2) + (cy - y).powi(2);
        if d < best_d {
            best_d = d;
            best = *m;
        }
    }
    best
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn num(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key).and_then(Json::as_f64).ok_or_else(|| format!("reply lacks {key}"))
}

fn zone_list(j: &Json) -> Result<Vec<&Json>, String> {
    Ok(j.get("zones").and_then(Json::as_arr).ok_or("reply lacks zones")?.iter().collect())
}

/// A `/v1/query` reply equals the answer recomputed from the served
/// measure vector `v` and the zone centroids.
pub fn query_reply(
    q: &Query,
    reply: &Json,
    v: &[Measure],
    centroids: &[(f64, f64)],
) -> Result<(), String> {
    match *q {
        Query::Mean => {
            let (mac, acsd) = (mean_of(v, |m| m.mac), mean_of(v, |m| m.acsd));
            let (g_mac, g_acsd, g_n) =
                (num(reply, "mean_mac")?, num(reply, "mean_acsd")?, num(reply, "n_zones")?);
            if !close(g_mac, mac) || !close(g_acsd, acsd) || g_n as usize != v.len() {
                return Err(format!(
                    "mean_access ({g_mac}, {g_acsd}, {g_n}) != ({mac}, {acsd}, {})",
                    v.len()
                ));
            }
        }
        Query::Worst { k } => {
            let mut ranked: Vec<Measure> = v.to_vec();
            ranked.sort_by(|a, b| b.mac.total_cmp(&a.mac));
            ranked.truncate(k);
            let got = zone_list(reply)?;
            if got.len() != ranked.len() {
                return Err(format!("worst_zones has {} zones, want {}", got.len(), ranked.len()));
            }
            for (g, w) in got.iter().zip(&ranked) {
                if num(g, "zone")? as u32 != w.zone || num(g, "mac")?.to_bits() != w.mac.to_bits() {
                    return Err(format!("worst_zones entry {g} != zone {} mac {}", w.zone, w.mac));
                }
            }
        }
        Query::AtRisk { factor } => {
            let cut = mean_of(v, |m| m.mac) * factor;
            let want: Vec<u32> = v.iter().filter(|m| m.mac > cut).map(|m| m.zone).collect();
            let got: Vec<u32> =
                zone_list(reply)?.iter().filter_map(|z| z.as_f64()).map(|z| z as u32).collect();
            if got != want {
                return Err(format!("at_risk zones {got:?} != {want:?}"));
            }
        }
        Query::Point { x, y } => {
            let w = nearest(v, centroids, x, y);
            let (zone, mac, acsd) =
                (num(reply, "zone")? as u32, num(reply, "mac")?, num(reply, "acsd")?);
            if zone != w.zone
                || mac.to_bits() != w.mac.to_bits()
                || acsd.to_bits() != w.acsd.to_bits()
            {
                return Err(format!(
                    "point_access ({zone}, {mac}, {acsd}) != ({}, {}, {})",
                    w.zone, w.mac, w.acsd
                ));
            }
        }
    }
    Ok(())
}

/// An approximate `PointAccess` reply lies within `bound` (MAC units) of
/// the exact answer at the same point.
pub fn approx_reply(
    x: f64,
    y: f64,
    reply: &Json,
    v: &[Measure],
    centroids: &[(f64, f64)],
    bound: f64,
) -> Result<(), String> {
    let exact = nearest(v, centroids, x, y);
    let (mac, acsd) = (num(reply, "mac")?, num(reply, "acsd")?);
    if !acsd.is_finite() || (mac - exact.mac).abs() > bound {
        return Err(format!(
            "approx mac {mac} (acsd {acsd}) vs exact {} exceeds bound {bound}",
            exact.mac
        ));
    }
    Ok(())
}

// ------------------------------------------------------ live_timetable

/// One plan answer is valid: every journey's legs run contiguously in
/// time from the requested departure to its arrival, no ride boards
/// before the requested time, a capped answer is one journey within the
/// cap, and a Pareto frontier ascends strictly in transfers while its
/// arrivals descend strictly.
pub fn plan(journeys: &[Journey], depart: u32, cap: Option<u8>) -> Result<(), String> {
    if journeys.is_empty() {
        return Err("no journey".into());
    }
    for j in journeys {
        if j.depart.0 != depart {
            return Err(format!("journey departs {} for a request at {depart}", j.depart.0));
        }
        let mut clock = depart;
        for leg in &j.legs {
            match *leg {
                Leg::Walk { secs, .. } | Leg::Wait { secs, .. } => clock += secs,
                Leg::Ride { board, alight, .. } => {
                    if board.0 != clock || alight.0 < board.0 {
                        return Err(format!(
                            "ride {board:?}→{alight:?} does not follow the clock {clock}"
                        ));
                    }
                    clock = alight.0;
                }
            }
        }
        if clock != j.arrive.0 {
            return Err(format!("legs end at {clock}, journey arrives {}", j.arrive.0));
        }
    }
    match cap {
        Some(k) => {
            if journeys.len() != 1 || journeys[0].n_transfers() > k as usize {
                return Err(format!(
                    "capped plan: {} journeys, {} transfers, cap {k}",
                    journeys.len(),
                    journeys[0].n_transfers()
                ));
            }
        }
        None => {
            for w in journeys.windows(2) {
                if w[1].n_transfers() <= w[0].n_transfers() || w[1].arrive >= w[0].arrive {
                    return Err(format!(
                        "frontier not Pareto: ({} tr, {:?}) then ({} tr, {:?})",
                        w[0].n_transfers(),
                        w[0].arrive,
                        w[1].n_transfers(),
                        w[1].arrive
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Acknowledged sequence numbers run 1, 2, 3, … with no gap or repeat.
pub fn contiguous_seqs(seqs: &[u64]) -> Result<(), String> {
    for (i, s) in seqs.iter().enumerate() {
        if *s != i as u64 + 1 {
            return Err(format!("ack {i} carries seq {s}, want {}", i + 1));
        }
    }
    Ok(())
}

/// The served answer equals the reference answer leg for leg.
pub fn same_journeys(served: &[Journey], reference: &[Journey]) -> Result<(), String> {
    if served == reference {
        Ok(())
    } else {
        Err(format!("served {served:?}\nreference {reference:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staq_gtfs::model::{RouteId, StopId, TripId};
    use staq_gtfs::time::Stime;

    #[test]
    fn partition_rejects_overlap_missing_and_wrong_size() {
        let e = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert!(partition(&e, &[3, 7], &[1, 2, 4, 5, 6, 8, 9, 10], 0.1).is_ok());
        assert!(partition(&e, &[3, 7], &[3, 2, 4, 5, 6, 8, 9, 10], 0.1).is_err(), "overlap");
        assert!(partition(&e, &[3, 7], &[2, 4, 5, 6, 8, 9, 10], 0.1).is_err(), "zone 1 lost");
        assert!(partition(&e, &[3, 7, 1], &[2, 4, 5, 6, 8, 9, 10], 0.1).is_err(), "|L| too big");
        // ⌈0.3·10⌉ = 3; the clamp keeps at least 2 and leaves one unlabeled.
        assert!(partition(&e, &[3, 7, 1], &[2, 4, 5, 6, 8, 9, 10], 0.3).is_ok());
        assert!(partition(&e, &[1, 2, 3, 4, 5, 6, 7, 8, 9], &[10], 1.0).is_ok());
    }

    #[test]
    fn stats_must_match_bit_for_bit() {
        assert!(same_stats("z", (600.0, 12.5), (600.0, 12.5)).is_ok());
        assert!(same_stats("z", (600.0, 12.5), (600.0 + 1e-9, 12.5)).is_err());
        assert!(same_stats("z", (600.0, 12.5), (600.0, 12.0)).is_err());
    }

    #[test]
    fn ssr_must_beat_the_labeled_mean() {
        let truth = [100.0, 200.0, 300.0];
        let labeled = [200.0, 200.0];
        assert!(beats_labeled_mean(&[110.0, 190.0, 290.0], &truth, &labeled).is_ok());
        // Predicting the mean itself is no better than the baseline.
        assert!(beats_labeled_mean(&[200.0, 200.0, 200.0], &truth, &labeled).is_err());
        assert!(beats_labeled_mean(&[300.0, 100.0, 200.0], &truth, &labeled).is_err());
    }

    fn served() -> (Vec<Measure>, Vec<(f64, f64)>) {
        let v = vec![
            Measure { zone: 0, mac: 600.0, acsd: 60.0 },
            Measure { zone: 2, mac: 1800.0, acsd: 90.0 },
            Measure { zone: 3, mac: 900.0, acsd: 30.0 },
        ];
        let centroids = vec![(0.0, 0.0), (50.0, 50.0), (100.0, 0.0), (0.0, 100.0)];
        (v, centroids)
    }

    fn j(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn query_replies_are_recomputed() {
        let (v, c) = served();
        let mean = j(r#"{"kind":"mean_access","mean_mac":1100,"mean_acsd":60,"n_zones":3}"#);
        assert!(query_reply(&Query::Mean, &mean, &v, &c).is_ok());
        let bad_mean = j(r#"{"kind":"mean_access","mean_mac":1100.5,"mean_acsd":60,"n_zones":3}"#);
        assert!(query_reply(&Query::Mean, &bad_mean, &v, &c).is_err());

        let worst = j(r#"{"zones":[{"zone":2,"mac":1800},{"zone":3,"mac":900}]}"#);
        assert!(query_reply(&Query::Worst { k: 2 }, &worst, &v, &c).is_ok());
        let swapped = j(r#"{"zones":[{"zone":3,"mac":900},{"zone":2,"mac":1800}]}"#);
        assert!(query_reply(&Query::Worst { k: 2 }, &swapped, &v, &c).is_err());
        assert!(query_reply(&Query::Worst { k: 3 }, &worst, &v, &c).is_err(), "one zone short");

        let risk = j(r#"{"zones":[2]}"#);
        assert!(query_reply(&Query::AtRisk { factor: 1.2 }, &risk, &v, &c).is_ok());
        assert!(
            query_reply(&Query::AtRisk { factor: 0.7 }, &risk, &v, &c).is_err(),
            "zone 3 missing"
        );

        let point = j(r#"{"zone":2,"mac":1800,"acsd":90}"#);
        assert!(query_reply(&Query::Point { x: 90.0, y: 5.0 }, &point, &v, &c).is_ok());
        // Zone 1 is nearest to (50, 50) but has no measures, so zone 0 wins
        // the tie-break among measured zones.
        assert!(query_reply(&Query::Point { x: 50.0, y: 50.0 }, &point, &v, &c).is_err());
        let wrong_mac = j(r#"{"zone":2,"mac":1800.25,"acsd":90}"#);
        assert!(query_reply(&Query::Point { x: 90.0, y: 5.0 }, &wrong_mac, &v, &c).is_err());
    }

    #[test]
    fn approx_replies_stay_within_bound() {
        let (v, c) = served();
        let near = j(r#"{"zone":0,"mac":1780,"acsd":80}"#);
        assert!(approx_reply(90.0, 5.0, &near, &v, &c, 60.0).is_ok());
        let far = j(r#"{"zone":2,"mac":1700,"acsd":90}"#);
        assert!(approx_reply(90.0, 5.0, &far, &v, &c, 60.0).is_err());
    }

    #[test]
    fn measure_vectors_are_sorted_and_finite() {
        let (v, _) = served();
        assert!(measure_vector(&v).is_ok());
        let mut unsorted = v.clone();
        unsorted.swap(0, 1);
        assert!(measure_vector(&unsorted).is_err());
        let mut negative = v.clone();
        negative[1].mac = -1.0;
        assert!(measure_vector(&negative).is_err());
        let parsed = parse_measures(&j(r#"[{"zone":0,"mac":600,"acsd":60}]"#)).unwrap();
        assert_eq!(parsed, vec![v[0]]);
    }

    fn ride(trip: u32, board: u32, alight: u32) -> Leg {
        Leg::Ride {
            trip: TripId(trip),
            route: RouteId(0),
            from_stop: StopId(0),
            to_stop: StopId(1),
            board: Stime(board),
            alight: Stime(alight),
        }
    }

    fn journey(depart: u32, legs: Vec<Leg>) -> Journey {
        let mut clock = depart;
        for l in &legs {
            clock = match *l {
                Leg::Walk { secs, .. } | Leg::Wait { secs, .. } => clock + secs,
                Leg::Ride { alight, .. } => alight.0,
            };
        }
        Journey { depart: Stime(depart), arrive: Stime(clock), legs }
    }

    fn walk(secs: u32) -> Leg {
        Leg::Walk { secs, to_stop: None }
    }

    fn wait(secs: u32) -> Leg {
        Leg::Wait { secs, at_stop: StopId(0) }
    }

    #[test]
    fn plans_must_be_contiguous_capped_and_pareto() {
        let t = 25_200;
        let direct = journey(t, vec![walk(120), wait(60), ride(1, t + 180, t + 900), walk(60)]);
        let two = journey(
            t,
            vec![
                walk(120),
                wait(60),
                ride(1, t + 180, t + 500),
                wait(20),
                ride(2, t + 520, t + 700),
                walk(60),
            ],
        );
        let walk_only = journey(t, vec![walk(3000)]);
        assert!(plan(&[direct.clone(), two.clone()], t, None).is_ok());
        assert!(plan(&[two.clone(), direct.clone()], t, None).is_err(), "transfers descend");
        assert!(plan(&[walk_only, direct.clone()], t, None).is_err(), "two with no transfer");
        assert!(plan(std::slice::from_ref(&two), t, Some(1)).is_ok());
        assert!(plan(std::slice::from_ref(&two), t, Some(0)).is_err(), "over the cap");
        assert!(
            plan(&[direct.clone(), two.clone()], t, Some(3)).is_err(),
            "capped plans are single"
        );

        let mut gap = direct.clone();
        gap.legs[1] = wait(50);
        assert!(plan(&[gap], t, None).is_err(), "ride boards after a gap");
        let mut early = journey(t, vec![ride(1, t, t + 600)]);
        assert!(plan(&[early.clone()], t, None).is_ok());
        early.depart = Stime(t + 10);
        assert!(plan(&[early], t, None).is_err(), "departure moved");
        let mut late = direct;
        late.arrive = Stime(late.arrive.0 + 1);
        assert!(plan(&[late], t, None).is_err(), "arrival past the legs");
    }

    #[test]
    fn sequence_numbers_must_be_contiguous() {
        assert!(contiguous_seqs(&[1, 2, 3]).is_ok());
        assert!(contiguous_seqs(&[1, 3]).is_err());
        assert!(contiguous_seqs(&[1, 2, 2]).is_err());
        assert!(contiguous_seqs(&[2, 3]).is_err());
    }

    #[test]
    fn served_journeys_must_equal_reference() {
        let t = 25_200;
        let a = journey(t, vec![walk(100), wait(5), ride(3, t + 105, t + 400)]);
        let mut b = a.clone();
        assert!(same_journeys(std::slice::from_ref(&a), std::slice::from_ref(&b)).is_ok());
        b.legs[2] = ride(4, t + 105, t + 400);
        assert!(same_journeys(std::slice::from_ref(&a), &[b]).is_err(), "different trip");
        assert!(
            same_journeys(std::slice::from_ref(&a), &[a.clone(), a.clone()]).is_err(),
            "extra journey"
        );
    }
}
