//! Seeded request streams for the serve workloads.
//!
//! Request `i` of a stream is a pure function of `(seed, i)`, so client
//! threads draw requests on demand in any order and a traced replay sees
//! exactly the requests the timed run sent.

use vstack_engine::json::Json;
use vstack_engine::ScenarioRequest;

/// SplitMix64: a small, seedable generator with no dependencies.
pub struct Rng(u64);

impl Rng {
    /// The generator for item `index` of the stream seeded with `seed`.
    pub fn for_item(seed: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ index.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Voltage-stacked supply pads and cores of the paper floorplan at 25%
/// power C4s, and power TSVs per core bundle with the Few topology.
const VS_VDD_PADS: usize = 136;
const CORES: usize = 16;
const FEW_TSVS_PER_CORE: usize = 110;

/// One design-space point a client asks about.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    pub vs: bool,
    pub layers: usize,
    pub quick: bool,
    /// Workload imbalance (V-S only).
    pub imbalance: f64,
    /// Converters per core (V-S only).
    pub converters: usize,
    pub power_c4: f64,
    /// Ambient temperature when the thermal coupling is on.
    pub ambient_c: Option<f64>,
    /// One opened supply pad and one opened `(interface, core, count)` TSV
    /// bundle.
    pub fault: Option<(usize, (usize, usize, usize))>,
}

impl Point {
    fn vs(layers: usize, imbalance: f64, converters: usize) -> Point {
        Point {
            vs: true,
            layers,
            quick: false,
            imbalance,
            converters,
            power_c4: 0.25,
            ambient_c: None,
            fault: None,
        }
    }

    /// The request this point denotes, as the engine parses it.
    pub fn request(&self) -> ScenarioRequest {
        let doc = Json::parse(&spell(self, None)).expect("spelled points are valid JSON");
        ScenarioRequest::from_json(&doc).expect("stream points are valid scenarios")
    }
}

/// A JSON value in a spelled request, kept apart from [`Json`] so floats
/// can be written in exponent notation.
enum Val {
    Str(&'static str),
    Bool(bool),
    Int(usize),
    Float(f64),
    Raw(String),
}

/// Spells `p` as a scenario object. With `respell`, the spelling changes
/// but the scenario does not: keys are shuffled, floats are written in
/// exponent notation (`0.25` as `2.5e-1`), defaults are written out, and a
/// regular request carries V-S-only fields that canonicalization drops.
pub fn spell(p: &Point, respell: Option<&mut Rng>) -> String {
    let mut fields: Vec<(&str, Val)> = vec![
        ("solve", Val::Str(if p.vs { "vs" } else { "regular" })),
        ("layers", Val::Int(p.layers)),
    ];
    if p.vs {
        fields.push(("imbalance", Val::Float(p.imbalance)));
        if p.converters != 4 {
            fields.push(("converters", Val::Int(p.converters)));
        }
    }
    if p.power_c4 != 0.25 {
        fields.push(("power_c4", Val::Float(p.power_c4)));
    }
    if p.quick {
        fields.push(("fidelity", Val::Str("quick")));
    }
    if let Some(ambient) = p.ambient_c {
        fields.push(("thermal_coupling", Val::Bool(true)));
        fields.push(("ambient_c", Val::Float(ambient)));
    }
    if let Some((pad, (interface, core, count))) = p.fault {
        fields.push(("failed_vdd_pads", Val::Raw(format!("[{pad}]"))));
        fields.push((
            "failed_tsvs",
            Val::Raw(format!("[[{interface},{core},{count}]]")),
        ));
    }
    let exponent = respell.is_some();
    if let Some(rng) = respell {
        let has = |fields: &[(&str, Val)], key: &str| fields.iter().any(|(k, _)| *k == key);
        for (key, default) in [
            ("tsv", Val::Str("few")),
            ("closed_loop", Val::Bool(false)),
            ("converters", Val::Int(4)),
            ("power_c4", Val::Float(0.25)),
            ("fidelity", Val::Str("paper")),
        ] {
            if !has(&fields, key) {
                fields.push((key, default));
            }
        }
        if !p.vs {
            fields.retain(|(k, _)| *k != "converters");
            fields.push(("imbalance", Val::Float(rng.range(0.05, 0.95))));
            fields.push(("converters", Val::Int(8)));
        }
        for i in (1..fields.len()).rev() {
            fields.swap(i, rng.below(i + 1));
        }
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| {
            let text = match value {
                Val::Str(s) => format!("\"{s}\""),
                Val::Bool(b) => b.to_string(),
                Val::Int(n) => n.to_string(),
                Val::Float(x) if exponent => format!("{x:e}"),
                Val::Float(x) => format!("{x}"),
                Val::Raw(s) => s.clone(),
            };
            format!("\"{key}\":{text}")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The `solve` line for a spelled scenario.
pub fn solve_line(scenario: &str) -> String {
    format!("{{\"op\":\"solve\",\"scenario\":{scenario}}}")
}

#[derive(Clone, Copy, PartialEq)]
enum ColdKind {
    PlainVs,
    Regular,
    FaultedVs,
    ThermalVs,
}

/// The cold mix of every block of 20 requests: 60% plain V-S, 15%
/// regular, 15% faulted V-S and 10% thermally coupled V-S. A fixed mix per
/// block keeps a run's cost from depending on how the seed happens to draw
/// the kinds; the seed orders each block and draws the continuous knobs.
const COLD_BLOCK: [ColdKind; 20] = {
    use ColdKind::*;
    [
        PlainVs, PlainVs, PlainVs, PlainVs, PlainVs, PlainVs, PlainVs, PlainVs, PlainVs, PlainVs,
        PlainVs, PlainVs, Regular, Regular, Regular, FaultedVs, FaultedVs, FaultedVs, ThermalVs,
        ThermalVs,
    ]
};

/// Request `index` of the cold stream: a paper-fidelity scenario at 4, 6
/// or 8 layers in the [`COLD_BLOCK`] mix. Each slot of the block cycles
/// through the layer counts from block to block. Continuous knobs are drawn
/// at full precision, so every request is a distinct scenario.
pub fn cold_point(seed: u64, index: usize) -> Point {
    let (block, slot) = (index / COLD_BLOCK.len(), index % COLD_BLOCK.len());
    let mut order: Vec<usize> = (0..COLD_BLOCK.len()).collect();
    let mut shuffle = Rng::for_item(seed ^ 0xb10c_c01d, block as u64);
    for i in (1..order.len()).rev() {
        order.swap(i, shuffle.below(i + 1));
    }
    let kind_slot = order[slot];
    let layers = [4, 6, 8][(kind_slot + block) % 3];
    let mut rng = Rng::for_item(seed, index as u64);
    let mut p = Point::vs(layers, rng.range(0.05, 0.65), [4, 8][rng.below(2)]);
    match COLD_BLOCK[kind_slot] {
        ColdKind::PlainVs => {}
        ColdKind::Regular => {
            p.vs = false;
            p.converters = 4;
            p.power_c4 = rng.range(0.25, 0.75);
        }
        ColdKind::FaultedVs => {
            p.fault = Some((
                rng.below(VS_VDD_PADS),
                (rng.below(layers - 1), rng.below(CORES), FEW_TSVS_PER_CORE),
            ));
        }
        ColdKind::ThermalVs => p.ambient_c = Some(rng.range(35.0, 55.0)),
    }
    p
}

/// The request a cold set-up sends first: a quick 2-layer V-S scenario,
/// which no cold stream contains and no cold request can borrow a warm
/// start from (donors must share layer count and fidelity).
pub fn first_point() -> Point {
    Point {
        quick: true,
        ..Point::vs(2, 0.3, 4)
    }
}

/// The hot set: `n` distinct quick-fidelity scenarios, two thirds V-S.
pub fn hot_points(seed: u64, n: usize) -> Vec<Point> {
    let mut points: Vec<Point> = Vec::with_capacity(n);
    let mut fingerprints = std::collections::HashSet::new();
    let mut draw = 0u64;
    while points.len() < n {
        let mut rng = Rng::for_item(seed ^ 0x5eed_0407, draw);
        draw += 1;
        let layers = [2, 4, 6, 8][rng.below(4)];
        let mut p = Point::vs(layers, rng.range(0.05, 0.65), [4, 8][rng.below(2)]);
        p.quick = true;
        if rng.unit() < 1.0 / 3.0 {
            p.vs = false;
            p.converters = 4;
            p.power_c4 = rng.range(0.25, 0.75);
        }
        if fingerprints.insert(p.request().fingerprint()) {
            points.push(p);
        }
    }
    points
}

/// Zipf(s) sampler over ranks `0..n` (rank 0 most popular).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                total += (k as f64).powf(-s);
                total
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit() * self.cdf.last().copied().unwrap_or(0.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Share of hot requests sent re-spelled.
pub const RESPELLED_SHARE: f64 = 0.25;

/// Request `index` of the hot stream: the drawn hot-set rank and the
/// scenario text, re-spelled with probability [`RESPELLED_SHARE`].
pub fn hot_request(seed: u64, index: usize, zipf: &Zipf, hot: &[Point]) -> (usize, bool, String) {
    let mut rng = Rng::for_item(seed ^ 0x0407_4e55, index as u64);
    let rank = zipf.sample(&mut rng);
    let respelled = rng.unit() < RESPELLED_SHARE;
    let text = spell(&hot[rank], respelled.then_some(&mut rng));
    (rank, respelled, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstack::scenario::DesignScenario;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let a: Vec<Point> = (0..200).map(|i| cold_point(7, i)).collect();
        let b: Vec<Point> = (0..200).map(|i| cold_point(7, i)).collect();
        let c: Vec<Point> = (0..200).map(|i| cold_point(8, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let hot = hot_points(7, 64);
        assert_eq!(hot, hot_points(7, 64));
        let zipf = Zipf::new(hot.len(), 1.1);
        let x: Vec<_> = (0..200).map(|i| hot_request(7, i, &zipf, &hot)).collect();
        let y: Vec<_> = (0..200).map(|i| hot_request(7, i, &zipf, &hot)).collect();
        assert_eq!(x, y);
    }

    #[test]
    fn cold_requests_are_distinct_valid_scenarios_in_the_declared_mix() {
        let mut fingerprints = std::collections::HashSet::new();
        let (mut regular, mut faulted, mut thermal) = (0, 0, 0);
        let n = 2000;
        for i in 0..n {
            let p = cold_point(3, i);
            let r = p.request();
            assert!(r.validate().is_ok());
            assert!(fingerprints.insert(r.fingerprint()), "request {i} repeats");
            regular += usize::from(!p.vs);
            faulted += usize::from(p.fault.is_some());
            thermal += usize::from(p.ambient_c.is_some());
        }
        // The mix is exact over whole blocks.
        assert_eq!((regular, faulted, thermal), (300, 300, 200));
    }

    #[test]
    fn respelled_requests_share_a_fingerprint() {
        let hot = hot_points(11, 48);
        let mut rng = Rng::for_item(1, 2);
        for p in hot.iter().chain(
            (0..48)
                .map(|i| cold_point(11, i))
                .collect::<Vec<_>>()
                .iter(),
        ) {
            let plain = spell(p, None);
            let respelled = spell(p, Some(&mut rng));
            assert_ne!(plain, respelled);
            let fp = |text: &str| {
                ScenarioRequest::from_json(&Json::parse(text).unwrap())
                    .unwrap()
                    .fingerprint()
            };
            assert_eq!(fp(&plain), fp(&respelled), "{plain} vs {respelled}");
        }
    }

    #[test]
    fn fault_domain_matches_the_paper_floorplan() {
        for layers in [4, 6, 8] {
            let s = DesignScenario::paper_baseline().layers(layers);
            assert_eq!(s.voltage_stacked_pdn().c4().vdd_count(), VS_VDD_PADS);
            assert_eq!(s.pdn_params().floorplan().core_count(), CORES);
        }
        assert_eq!(
            vstack::pdn::TsvTopology::Few.tsvs_per_core(),
            FEW_TSVS_PER_CORE
        );
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(192, 1.1);
        let mut counts = [0usize; 192];
        let mut rng = Rng::for_item(5, 0);
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[150]);
        assert!(counts[100..].iter().sum::<usize>() > 0);
    }
}
