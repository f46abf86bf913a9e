//! The canonical scenario request and its fingerprint.
//!
//! A [`ScenarioRequest`] names one point on the experiment surface the
//! repo's binaries already expose: a PDN at a given layer count, TSV
//! topology, C4 allocation and fidelity, along three independent axes —
//! voltage stacking ([`StackAxis`]), thermal–EM–IR coupling
//! ([`ThermalAxis`]) and open-circuit faults ([`FaultSet`]). An axis the
//! request does not use is absent from the value, and each axis owns its
//! range checks, fingerprint tags and JSON fields, so "hash only when
//! present" follows from the type.
//!
//! The fingerprint is a 64-bit FNV-1a over a fixed, tagged byte encoding
//! of the canonical form. Two requests get the same fingerprint iff they
//! denote the same physical solve, regardless of JSON field order or
//! float formatting (`0.25` vs `2.5e-1` parse to the same `f64` and hash
//! the same bits; `-0.0` is normalized to `+0.0` before hashing).

use crate::json::Json;
use vstack::experiments::Fidelity;
use vstack::pdn::{FaultSet, TsvTopology};
use vstack::sc::compact::ScConverter;
use vstack::scenario::{DesignScenario, ScenarioLoad};

fn tsv_name(t: TsvTopology) -> &'static str {
    match t {
        TsvTopology::Dense => "dense",
        TsvTopology::Sparse => "sparse",
        TsvTopology::Few => "few",
    }
}

fn tsv_from_name(name: &str) -> Option<TsvTopology> {
    match name {
        "dense" => Some(TsvTopology::Dense),
        "sparse" => Some(TsvTopology::Sparse),
        "few" => Some(TsvTopology::Few),
        _ => None,
    }
}

fn fidelity_name(f: Fidelity) -> &'static str {
    match f {
        Fidelity::Paper => "paper",
        Fidelity::Quick => "quick",
    }
}

fn fidelity_from_name(name: &str) -> Option<Fidelity> {
    match name {
        "paper" => Some(Fidelity::Paper),
        "quick" => Some(Fidelity::Quick),
        _ => None,
    }
}

/// One canonical, versioned scenario query.
///
/// Construct with [`ScenarioRequest::regular`] /
/// [`ScenarioRequest::voltage_stacked`] and the chained setters, or parse
/// from the wire with [`ScenarioRequest::from_json`]. The engine always
/// works on the [`ScenarioRequest::canonical`] form.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRequest {
    /// Stacked layer count.
    pub layers: usize,
    /// TSV topology.
    pub tsv: TsvTopology,
    /// Fraction of C4 pads allocated to power delivery.
    pub power_c4: f64,
    /// Grid fidelity: `Paper` (refinement 3) or `Quick` (coarse grid).
    pub fidelity: Fidelity,
    /// Voltage-stacked (charge-recycled) delivery under the interleaved
    /// imbalance pattern; `None` is the regular (per-layer parallel) PDN
    /// at full activity.
    pub stacking: Option<StackAxis>,
    /// The thermal–EM–IR coupled fixed point; `None` is the uncoupled
    /// solve.
    pub thermal: Option<ThermalAxis>,
    /// Open-circuited pads and TSVs of a what-if solve; empty for the
    /// intact network. A pad ordinal beyond the scenario's pad array is a
    /// stamping no-op, never an error.
    pub faults: FaultSet,
}

/// The voltage-stacking axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackAxis {
    /// SC converters per core.
    pub converters: usize,
    /// Workload imbalance of the interleaved pattern.
    pub imbalance: f64,
    /// Closed-loop (frequency-modulated) converters instead of the
    /// paper's open-loop design.
    pub closed_loop: bool,
}

/// The paper's converter configuration at a balanced load. A regular
/// request hashes and serializes these values in the stacking slots.
impl Default for StackAxis {
    fn default() -> Self {
        StackAxis {
            converters: 4,
            imbalance: 0.0,
            closed_loop: false,
        }
    }
}

/// The thermal-coupling axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalAxis {
    /// Ambient (case inlet) temperature, °C.
    pub ambient_c: f64,
    /// TIM + spreader + heatsink resistance, K/W.
    pub sink_k_per_w: f64,
    /// Optional hotspot: `(layer, watts)`, the power spread over the
    /// layer. A zero-watt hotspot canonicalizes to none.
    pub hotspot: Option<(usize, f64)>,
}

/// The paper's air-cooled package: 45 °C ambient, 0.30 K/W, no hotspot.
impl Default for ThermalAxis {
    fn default() -> Self {
        ThermalAxis {
            ambient_c: 45.0,
            sink_k_per_w: 0.30,
            hotspot: None,
        }
    }
}

const DEFAULT_POWER_C4: f64 = 0.25;

/// Most fault elements (pads + TSV bundles) one request may name, counted
/// as listed; what-if sweeps needing more go through the study binaries,
/// not the serving path.
const MAX_FAULT_ELEMENTS: usize = 16;
/// Generous ceiling on pad ordinals and TSV cores — far above any real
/// array, it only rejects garbage (ordinals beyond the actual array are
/// otherwise legal stamping no-ops).
const MAX_FAULT_ORDINAL: usize = 65_536;
/// Ceiling on a bundle's failed-TSV count, listed or merged (solve paths
/// clamp at zero survivors anyway).
const MAX_TSVS_PER_FAULT: usize = 4096;

/// The FNV-1a fingerprint domain. Deliberately **decoupled from
/// [`crate::SCHEMA_VERSION`]** and pinned at the value that was current
/// when the fingerprint encoding stabilized: the schema version moves
/// with envelope/summary layout changes, but moving the fingerprint
/// domain would silently re-key every cached scenario. The thermal axis
/// (tags 9–13) and the fault axis (tags 14–16) hash only when present,
/// so every request without them keeps its byte-identical fingerprint
/// (pinned by regression tests below).
pub const FINGERPRINT_DOMAIN: u32 = 4;

/// Largest accepted layer count; above this the dense stamping cost stops
/// being a "query" and one solve would starve the requests queued behind
/// it on its shard.
const MAX_LAYERS: usize = 64;
const MAX_CONVERTERS: usize = 64;

/// Checks `lo <= value <= hi`, or `lo < value <= hi` when `open`.
fn finite_in(name: &str, value: f64, open: bool, lo: f64, hi: f64) -> Result<(), String> {
    if (value > lo || (!open && value == lo)) && value <= hi {
        return Ok(());
    }
    let bracket = if open { '(' } else { '[' };
    Err(format!(
        "{name} must be finite in {bracket}{lo}, {hi}], got {value}"
    ))
}

fn number(doc: &Json, key: &str) -> Result<Option<f64>, String> {
    doc.get(key)
        .map(|v| v.as_f64().ok_or(format!("{key} must be a number")))
        .transpose()
}

fn integer(doc: &Json, key: &str) -> Result<Option<usize>, String> {
    doc.get(key)
        .map(|v| {
            v.as_usize()
                .ok_or(format!("{key} must be a non-negative integer"))
        })
        .transpose()
}

fn boolean(doc: &Json, key: &str) -> Result<Option<bool>, String> {
    doc.get(key)
        .map(|v| v.as_bool().ok_or(format!("{key} must be a boolean")))
        .transpose()
}

impl StackAxis {
    fn validate(&self) -> Result<(), String> {
        if self.converters == 0 || self.converters > MAX_CONVERTERS {
            return Err(format!(
                "converters must be in 1..={MAX_CONVERTERS}, got {}",
                self.converters
            ));
        }
        finite_in("imbalance", self.imbalance, false, 0.0, 1.0)
    }

    /// Tags 5–7.
    fn hash(&self, h: &mut Fnv) {
        h.field(5, &(self.converters as u64).to_le_bytes());
        h.field(6, &self.imbalance.to_bits().to_le_bytes());
        h.field(7, &[u8::from(self.closed_loop)]);
    }

    fn fields(&self, out: &mut Vec<(&'static str, Json)>) {
        out.push(("converters", Json::Num(self.converters as f64)));
        out.push(("imbalance", Json::Num(self.imbalance)));
        out.push(("closed_loop", Json::Bool(self.closed_loop)));
    }

    /// The stacking knobs of a document, range-checked whether or not the
    /// request stacks.
    fn from_json(doc: &Json) -> Result<Self, String> {
        let d = StackAxis::default();
        let axis = StackAxis {
            converters: integer(doc, "converters")?.unwrap_or(d.converters),
            imbalance: number(doc, "imbalance")?.unwrap_or(d.imbalance),
            closed_loop: boolean(doc, "closed_loop")?.unwrap_or(d.closed_loop),
        };
        axis.validate().map(|()| axis)
    }
}

impl ThermalAxis {
    fn validate(&self, layers: usize) -> Result<(), String> {
        finite_in("ambient_c", self.ambient_c, false, -55.0, 150.0)?;
        finite_in("sink_k_per_w", self.sink_k_per_w, true, 0.0, 100.0)?;
        let Some((layer, watts)) = self.hotspot else {
            return Ok(());
        };
        if layer >= layers {
            return Err(format!(
                "hotspot_layer must be below layers ({layers}), got {layer}"
            ));
        }
        finite_in("hotspot_w", watts, false, 0.0, 1000.0)
    }

    /// Tags 9–13; tag 12 encodes presence + layer in one field (0 = none).
    fn hash(&self, h: &mut Fnv) {
        let (layer, watts) = self.hotspot.map_or((0, 0.0), |(l, w)| (l as u64 + 1, w));
        h.field(9, &[1]);
        h.field(10, &self.ambient_c.to_bits().to_le_bytes());
        h.field(11, &self.sink_k_per_w.to_bits().to_le_bytes());
        h.field(12, &layer.to_le_bytes());
        h.field(13, &watts.to_bits().to_le_bytes());
    }

    fn fields(&self, out: &mut Vec<(&'static str, Json)>) {
        out.push(("thermal_coupling", Json::Bool(true)));
        out.push(("ambient_c", Json::Num(self.ambient_c)));
        out.push(("sink_k_per_w", Json::Num(self.sink_k_per_w)));
        if let Some((layer, watts)) = self.hotspot {
            out.push(("hotspot_layer", Json::Num(layer as f64)));
            out.push(("hotspot_w", Json::Num(watts)));
        }
    }

    /// The thermal knobs of a document, range-checked with coupling on or
    /// off; the axis when `thermal_coupling` is on.
    fn from_json(doc: &Json, layers: usize) -> Result<Option<Self>, String> {
        let coupled = boolean(doc, "thermal_coupling")?.unwrap_or(false);
        let d = ThermalAxis::default();
        let ambient_c = number(doc, "ambient_c")?.unwrap_or(d.ambient_c);
        let sink_k_per_w = number(doc, "sink_k_per_w")?.unwrap_or(d.sink_k_per_w);
        let layer = integer(doc, "hotspot_layer")?;
        let watts = number(doc, "hotspot_w")?.unwrap_or(0.0);
        let axis = ThermalAxis {
            ambient_c,
            sink_k_per_w,
            hotspot: layer.map(|l| (l, watts)),
        };
        axis.validate(layers)?;
        // A wattage without a layer names no hotspot, but is checked too.
        finite_in("hotspot_w", watts, false, 0.0, 1000.0)?;
        Ok(coupled.then_some(axis))
    }
}

/// The fault axis's range checks, on a set or on entries as listed:
/// `elements` against the ceiling, then every pad ordinal and
/// `(interface, core, count)` TSV entry.
fn check_faults(
    layers: usize,
    elements: usize,
    pads: impl IntoIterator<Item = usize>,
    tsvs: impl IntoIterator<Item = (usize, usize, usize)>,
) -> Result<(), String> {
    if elements > MAX_FAULT_ELEMENTS {
        return Err(format!(
            "at most {MAX_FAULT_ELEMENTS} fault elements per request, got {elements}"
        ));
    }
    if let Some(o) = pads.into_iter().find(|&o| o > MAX_FAULT_ORDINAL) {
        return Err(format!(
            "pad ordinal must be <= {MAX_FAULT_ORDINAL}, got {o}"
        ));
    }
    for (interface, core, count) in tsvs {
        if layers < 2 || interface >= layers - 1 {
            return Err(format!(
                "tsv interface must be below layers - 1 ({}), got {interface}",
                layers.saturating_sub(1)
            ));
        }
        if core > MAX_FAULT_ORDINAL {
            return Err(format!(
                "tsv core must be <= {MAX_FAULT_ORDINAL}, got {core}"
            ));
        }
        if count > MAX_TSVS_PER_FAULT {
            return Err(format!(
                "tsv fault count must be <= {MAX_TSVS_PER_FAULT}, got {count}"
            ));
        }
    }
    Ok(())
}

/// Tags 14–16: the ordinals and `(interface, core, count)` triples in the
/// set's ascending order, so every spelling of one set hashes alike.
fn hash_faults(faults: &FaultSet, h: &mut Fnv) {
    h.field(14, &le_words(faults.vdd_pad_ordinals()));
    h.field(15, &le_words(faults.gnd_pad_ordinals()));
    let triples = faults.tsv_bundles().flat_map(|((i, core), n)| [i, core, n]);
    h.field(16, &le_words(triples));
}

fn le_words(xs: impl Iterator<Item = usize>) -> Vec<u8> {
    xs.flat_map(|x| (x as u64).to_le_bytes()).collect()
}

fn json_ints(xs: impl Iterator<Item = usize>) -> Json {
    Json::Arr(xs.map(|x| Json::Num(x as f64)).collect())
}

/// The non-empty fault lists, in the set's ascending order.
fn fault_fields(faults: &FaultSet, out: &mut Vec<(&'static str, Json)>) {
    let triples = faults
        .tsv_bundles()
        .map(|((i, core), n)| json_ints([i, core, n].into_iter()));
    let lists = [
        ("failed_vdd_pads", json_ints(faults.vdd_pad_ordinals())),
        ("failed_gnd_pads", json_ints(faults.gnd_pad_ordinals())),
        ("failed_tsvs", Json::Arr(triples.collect())),
    ];
    out.extend(
        lists
            .into_iter()
            .filter(|(_, list)| list != &Json::Arr(Vec::new())),
    );
}

/// The fault lists of a document, range-checked as listed: the element
/// ceiling counts entries before duplicates merge, and a zero-count TSV
/// entry is checked before the set drops it. `validate` checks the merge.
fn faults_from_json(doc: &Json, layers: usize) -> Result<FaultSet, String> {
    let ints = |v: &Json, key: &str| -> Result<Vec<usize>, String> {
        v.as_arr()
            .ok_or(format!("{key} must be an array of integers"))?
            .iter()
            .map(|x| {
                x.as_usize()
                    .ok_or(format!("{key} entries must be non-negative integers"))
            })
            .collect()
    };
    let pads = |key: &str| doc.get(key).map_or(Ok(Vec::new()), |v| ints(v, key));
    let vdd = pads("failed_vdd_pads")?;
    let gnd = pads("failed_gnd_pads")?;
    let tsvs = match doc.get("failed_tsvs") {
        None => Vec::new(),
        Some(v) => v
            .as_arr()
            .ok_or("failed_tsvs must be an array of [interface, core, count] triples")?
            .iter()
            .map(|t| match ints(t, "failed_tsvs")?[..] {
                [interface, core, count] => Ok((interface, core, count)),
                _ => {
                    Err("failed_tsvs entries must be [interface, core, count] triples".to_string())
                }
            })
            .collect::<Result<Vec<_>, String>>()?,
    };
    check_faults(
        layers,
        vdd.len() + gnd.len() + tsvs.len(),
        vdd.iter().chain(&gnd).copied(),
        tsvs.iter().copied(),
    )?;
    let mut faults = FaultSet::new();
    tsvs.into_iter()
        .for_each(|(i, core, n)| faults.fail_tsvs(i, core, n));
    vdd.into_iter().for_each(|o| faults.fail_vdd_pad(o));
    gnd.into_iter().for_each(|o| faults.fail_gnd_pad(o));
    Ok(faults)
}

impl ScenarioRequest {
    /// A regular-PDN solve at full activity with paper-baseline knobs.
    pub fn regular(layers: usize) -> Self {
        ScenarioRequest {
            layers,
            tsv: TsvTopology::Few,
            power_c4: DEFAULT_POWER_C4,
            fidelity: Fidelity::Paper,
            stacking: None,
            thermal: None,
            faults: FaultSet::new(),
        }
    }

    /// A voltage-stacked solve under the interleaved pattern.
    pub fn voltage_stacked(layers: usize, imbalance: f64) -> Self {
        ScenarioRequest {
            stacking: Some(StackAxis {
                imbalance,
                ..StackAxis::default()
            }),
            ..ScenarioRequest::regular(layers)
        }
    }

    /// Sets the TSV topology.
    pub fn tsv(mut self, t: TsvTopology) -> Self {
        self.tsv = t;
        self
    }

    /// Sets the power-C4 fraction.
    pub fn power_c4(mut self, f: f64) -> Self {
        self.power_c4 = f;
        self
    }

    /// Sets the converters-per-core count of a V-S request; a regular
    /// request has no converters and is left as it is.
    pub fn converters(mut self, k: usize) -> Self {
        if let Some(s) = &mut self.stacking {
            s.converters = k;
        }
        self
    }

    /// Selects closed-loop converter control of a V-S request; a regular
    /// request is left as it is.
    pub fn closed_loop(mut self, on: bool) -> Self {
        if let Some(s) = &mut self.stacking {
            s.closed_loop = on;
        }
        self
    }

    /// Switches to the coarse quick-fidelity grid.
    pub fn quick(mut self) -> Self {
        self.fidelity = Fidelity::Quick;
        self
    }

    /// Solves through the thermal–EM–IR coupled fixed point.
    pub fn thermal(mut self, axis: ThermalAxis) -> Self {
        self.thermal = Some(axis);
        self
    }

    /// Open-circuits supply pad `ordinal` in the what-if solve.
    pub fn fail_vdd_pad(mut self, ordinal: usize) -> Self {
        self.faults.fail_vdd_pad(ordinal);
        self
    }

    /// Open-circuits return pad `ordinal` in the what-if solve.
    pub fn fail_gnd_pad(mut self, ordinal: usize) -> Self {
        self.faults.fail_gnd_pad(ordinal);
        self
    }

    /// Opens `count` TSVs of the `(interface, core)` bundle in the
    /// what-if solve; counts accumulate and a zero count is no fault.
    pub fn fail_tsvs(mut self, interface: usize, core: usize, count: usize) -> Self {
        self.faults.fail_tsvs(interface, core, count);
        self
    }

    /// Checks every field is in its physical range and finite, and that
    /// the axes combine.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.layers == 0 || self.layers > MAX_LAYERS {
            return Err(format!(
                "layers must be in 1..={MAX_LAYERS}, got {}",
                self.layers
            ));
        }
        if self.stacking.is_some() && self.layers < 2 {
            return Err(format!(
                "a voltage-stacked solve needs at least 2 layers, got {}",
                self.layers
            ));
        }
        finite_in("power_c4", self.power_c4, true, 0.0, 1.0)?;
        if let Some(s) = &self.stacking {
            s.validate()?;
        }
        if let Some(t) = &self.thermal {
            t.validate(self.layers)?;
            if !self.faults.is_empty() {
                return Err("fault injection cannot combine with thermal_coupling; \
                     the coupled fixed point solves the intact network"
                    .to_string());
            }
        }
        let f = &self.faults;
        check_faults(
            self.layers,
            f.failed_vdd_pad_count() + f.failed_gnd_pad_count() + f.tsv_bundles().count(),
            f.vdd_pad_ordinals().chain(f.gnd_pad_ordinals()),
            f.tsv_bundles().map(|((i, core), n)| (i, core, n)),
        )
    }

    /// The canonical form: `-0.0` floats normalized to `+0.0` and a
    /// zero-watt hotspot dropped. Canonical requests are what the cache
    /// is keyed on; an absent axis is already canonical by construction,
    /// and so is the fault set, whose pads are sorted and deduplicated
    /// and whose TSV counts are merged per bundle.
    pub fn canonical(&self) -> Self {
        let mut c = self.clone();
        c.power_c4 += 0.0;
        if let Some(s) = &mut c.stacking {
            s.imbalance += 0.0;
        }
        if let Some(t) = &mut c.thermal {
            t.ambient_c += 0.0;
            t.sink_k_per_w += 0.0;
            t.hotspot = t.hotspot.filter(|&(_, watts)| watts != 0.0);
        }
        c
    }

    /// The content-address of this request: 64-bit FNV-1a over the
    /// [`FINGERPRINT_DOMAIN`] and a fixed tag/value byte encoding of the
    /// canonical form. Deterministic across runs, platforms and JSON
    /// spellings. A regular request hashes [`StackAxis::default`] in the
    /// stacking tags (5–7); the thermal tags (9–13) and fault tags
    /// (14–16) are hashed only when their axis is present.
    pub fn fingerprint(&self) -> u64 {
        let c = self.canonical();
        let mut h = Fnv::new();
        h.write(&FINGERPRINT_DOMAIN.to_le_bytes());
        h.field(1, &[u8::from(c.stacking.is_some())]);
        h.field(2, &(c.layers as u64).to_le_bytes());
        h.field(3, &[tsv_tag(c.tsv)]);
        h.field(4, &c.power_c4.to_bits().to_le_bytes());
        c.stacking.unwrap_or_default().hash(&mut h);
        h.field(8, &[c.fidelity as u8]);
        if let Some(t) = &c.thermal {
            t.hash(&mut h);
        }
        if !c.faults.is_empty() {
            hash_faults(&c.faults, &mut h);
        }
        h.finish()
    }

    /// The PDN and loads this request solves.
    pub(crate) fn load(&self) -> ScenarioLoad {
        match self.stacking {
            None => ScenarioLoad::RegularPeak,
            Some(s) => ScenarioLoad::VoltageStacked(s.imbalance),
        }
    }

    /// Builds the [`DesignScenario`] this request denotes.
    pub fn to_scenario(&self) -> DesignScenario {
        let mut s = DesignScenario::paper_baseline()
            .layers(self.layers)
            .tsv_topology(self.tsv)
            .power_c4_fraction(self.power_c4);
        if let Some(stack) = self.stacking {
            s = s.converters_per_core(stack.converters);
            if stack.closed_loop {
                s = s.converter(ScConverter::paper_28nm_closed_loop());
            }
        }
        if self.fidelity == Fidelity::Quick {
            s = s.coarse_grid();
        }
        s
    }

    /// Serializes the canonical form. The base fields and the stacking
    /// fields are always emitted, so a document can be archived and
    /// re-parsed without depending on defaults of a future schema; the
    /// thermal and fault fields appear only when their axis is present,
    /// keeping documents without them byte-identical to the schema that
    /// predates the axis.
    pub fn to_json(&self) -> Json {
        let c = self.canonical();
        let solve = c.stacking.map_or("regular", |_| "vs");
        let mut fields = vec![
            ("solve", Json::Str(solve.to_string())),
            ("layers", Json::Num(c.layers as f64)),
            ("tsv", Json::Str(tsv_name(c.tsv).to_string())),
            ("power_c4", Json::Num(c.power_c4)),
        ];
        c.stacking.unwrap_or_default().fields(&mut fields);
        fields.push(("fidelity", Json::Str(fidelity_name(c.fidelity).to_string())));
        if let Some(t) = &c.thermal {
            t.fields(&mut fields);
        }
        fault_fields(&c.faults, &mut fields);
        Json::obj(fields)
    }

    /// Parses a request object. Only `solve` is required; every other
    /// field defaults to the paper baseline. Unknown keys are rejected so
    /// a typo cannot silently denote a different scenario, and the fields
    /// of an axis the request does not use are range-checked too.
    ///
    /// # Errors
    ///
    /// A description of the offending field; the request is also
    /// [`ScenarioRequest::validate`]d before being returned.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        let Json::Obj(pairs) = value else {
            return Err("scenario must be a JSON object".to_string());
        };
        for (key, _) in pairs {
            if !matches!(
                key.as_str(),
                "solve"
                    | "layers"
                    | "tsv"
                    | "power_c4"
                    | "converters"
                    | "imbalance"
                    | "closed_loop"
                    | "fidelity"
                    | "thermal_coupling"
                    | "ambient_c"
                    | "sink_k_per_w"
                    | "hotspot_layer"
                    | "hotspot_w"
                    | "failed_vdd_pads"
                    | "failed_gnd_pads"
                    | "failed_tsvs"
            ) {
                return Err(format!("unknown scenario field \"{key}\""));
            }
        }
        let solve = value
            .get("solve")
            .and_then(Json::as_str)
            .ok_or("missing required field \"solve\"")?;
        if !matches!(solve, "regular" | "vs") {
            return Err(format!(
                "solve must be \"regular\" or \"vs\", got \"{solve}\""
            ));
        }
        let mut req = ScenarioRequest::regular(integer(value, "layers")?.unwrap_or(8));
        if let Some(v) = value.get("tsv") {
            let name = v.as_str().ok_or("tsv must be a string")?;
            req.tsv = tsv_from_name(name)
                .ok_or_else(|| format!("tsv must be dense|sparse|few, got \"{name}\""))?;
        }
        req.power_c4 = number(value, "power_c4")?.unwrap_or(req.power_c4);
        if let Some(v) = value.get("fidelity") {
            let name = v.as_str().ok_or("fidelity must be a string")?;
            req.fidelity = fidelity_from_name(name)
                .ok_or_else(|| format!("fidelity must be paper|quick, got \"{name}\""))?;
        }
        // The base first: the axes' checks read `layers`.
        req.validate()?;
        req.stacking = (solve == "vs").then_some(StackAxis::from_json(value)?);
        req.thermal = ThermalAxis::from_json(value, req.layers)?;
        req.faults = faults_from_json(value, req.layers)?;
        req.validate().map(|()| req)
    }

    /// Formats a fingerprint the way the protocol carries it: 16 lowercase
    /// hex digits inside a string (u64 does not survive a JSON number).
    pub fn format_fingerprint(fp: u64) -> String {
        format!("{fp:016x}")
    }

    /// Parses a [`ScenarioRequest::format_fingerprint`] string back.
    pub fn parse_fingerprint(text: &str) -> Option<u64> {
        (text.len() == 16).then(|| u64::from_str_radix(text, 16).ok())?
    }
}

fn tsv_tag(t: TsvTopology) -> u8 {
    match t {
        TsvTopology::Dense => 0,
        TsvTopology::Sparse => 1,
        TsvTopology::Few => 2,
    }
}

/// Plain 64-bit FNV-1a over a byte string — the checksum the disk cache
/// stamps on every entry payload (see [`crate::cache::DiskCache`]). The
/// same primitive as the request fingerprint, minus the field tagging.
pub(crate) fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// 64-bit FNV-1a with length-prefixed field tagging, so adjacent fields
/// can never alias (`[1,2] ++ [3]` hashes differently from `[1] ++ [2,3]`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn field(&mut self, tag: u8, bytes: &[u8]) {
        self.write(&[tag]);
        self.write(&(bytes.len() as u64).to_le_bytes());
        self.write(bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_json_spelling_and_field_order() {
        let a = ScenarioRequest::from_json(
            &Json::parse(r#"{"solve":"vs","layers":8,"imbalance":0.25}"#).unwrap(),
        )
        .unwrap();
        let b = ScenarioRequest::from_json(
            &Json::parse(r#"{"imbalance":2.5e-1,"solve":"vs","layers":8.0}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn regular_canonicalization_drops_vs_only_fields() {
        let a = ScenarioRequest::regular(8).converters(8).closed_loop(true);
        let b = ScenarioRequest::regular(8);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // ... but those fields do matter for a V-S solve.
        let c = ScenarioRequest::voltage_stacked(8, 0.3).converters(8);
        let d = ScenarioRequest::voltage_stacked(8, 0.3);
        assert_ne!(c.fingerprint(), d.fingerprint());
    }

    #[test]
    fn negative_zero_imbalance_is_canonical() {
        let a = ScenarioRequest::voltage_stacked(8, -0.0);
        let b = ScenarioRequest::voltage_stacked(8, 0.0);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn every_semantic_field_changes_the_fingerprint() {
        let base = ScenarioRequest::voltage_stacked(8, 0.3);
        let variants = [
            ScenarioRequest::regular(8).power_c4(base.power_c4),
            ScenarioRequest::voltage_stacked(4, 0.3),
            base.clone().tsv(TsvTopology::Dense),
            base.clone().power_c4(0.5),
            base.clone().converters(8),
            ScenarioRequest::voltage_stacked(8, 0.4),
            base.clone().closed_loop(true),
            base.clone().quick(),
        ];
        let fp = base.fingerprint();
        for v in &variants {
            assert_ne!(v.fingerprint(), fp, "{v:?} should differ from base");
        }
    }

    #[test]
    fn unknown_field_is_rejected() {
        let doc = Json::parse(r#"{"solve":"vs","layer":8}"#).unwrap();
        assert!(ScenarioRequest::from_json(&doc)
            .unwrap_err()
            .contains("layer"));
    }

    #[test]
    fn out_of_range_fields_are_rejected() {
        for doc in [
            r#"{"solve":"vs","layers":0}"#,
            r#"{"solve":"vs","power_c4":0}"#,
            r#"{"solve":"vs","power_c4":1.5}"#,
            r#"{"solve":"vs","imbalance":-0.1}"#,
            r#"{"solve":"vs","converters":0}"#,
            r#"{"solve":"neither"}"#,
            // Fields of an absent axis are range-checked all the same.
            r#"{"solve":"regular","converters":0}"#,
            r#"{"solve":"regular","imbalance":1.5}"#,
        ] {
            let v = Json::parse(doc).unwrap();
            assert!(ScenarioRequest::from_json(&v).is_err(), "{doc} should fail");
        }
    }

    #[test]
    fn legacy_fingerprints_are_pinned() {
        // Captured on the pre-thermal schema (FINGERPRINT_DOMAIN 4).
        // These must never change: the disk cache and every warm-start
        // donor are keyed by them. If this test fails, the fingerprint
        // domain moved — that is a cache-invalidation event, not a
        // test-update event.
        let cases = [
            (ScenarioRequest::regular(8), "08e699bfbd25863e"),
            (ScenarioRequest::regular(2).quick(), "dccce5194d60f22f"),
            (
                ScenarioRequest::voltage_stacked(8, 0.30),
                "7a859369d1533fc5",
            ),
            (
                ScenarioRequest::voltage_stacked(4, 0.10)
                    .quick()
                    .closed_loop(true),
                "224f41a3fea807e8",
            ),
        ];
        for (req, expect) in cases {
            assert_eq!(
                ScenarioRequest::format_fingerprint(req.fingerprint()),
                expect,
                "pre-thermal fingerprint moved for {req:?}"
            );
        }
    }

    #[test]
    fn axis_fingerprints_are_pinned() {
        // The thermal (tags 9–13), fault (tags 14–16) and V-S knob
        // encodings key the disk cache exactly like the legacy pins above.
        let cases = [
            (
                ScenarioRequest::regular(8).thermal(ThermalAxis::default()),
                "4c35635df9d3ce55",
            ),
            (
                ScenarioRequest::regular(2).quick().thermal(ThermalAxis {
                    ambient_c: 55.0,
                    ..ThermalAxis::default()
                }),
                "451a73cef0e4a763",
            ),
            (
                ScenarioRequest::voltage_stacked(8, 0.3).thermal(ThermalAxis {
                    ambient_c: 55.0,
                    sink_k_per_w: 0.45,
                    hotspot: Some((2, 3.0)),
                }),
                "0030c7751ca47a44",
            ),
            (
                ScenarioRequest::regular(8).fail_vdd_pad(3),
                "ae7fe60452e5a5e4",
            ),
            (
                ScenarioRequest::voltage_stacked(8, 0.3)
                    .fail_vdd_pad(9)
                    .fail_gnd_pad(1)
                    .fail_tsvs(4, 11, 3),
                "fca9cb5089e43708",
            ),
            (
                ScenarioRequest::regular(2)
                    .quick()
                    .fail_vdd_pad(0)
                    .fail_vdd_pad(3)
                    .fail_tsvs(0, 1, 2),
                "98064e08d7c816cc",
            ),
            (
                ScenarioRequest::voltage_stacked(4, 0.1)
                    .quick()
                    .closed_loop(true)
                    .converters(8)
                    .tsv(TsvTopology::Dense)
                    .power_c4(0.5),
                "8c670b3b1dd6e54a",
            ),
        ];
        for (req, expect) in cases {
            assert_eq!(
                ScenarioRequest::format_fingerprint(req.fingerprint()),
                expect,
                "fingerprint moved for {req:?}"
            );
        }
    }

    #[test]
    fn inert_spellings_keep_the_plain_fingerprint() {
        // Fields that cannot affect the solve: V-S knobs on a regular
        // request, thermal knobs with coupling off, a zero-count TSV fault.
        for doc in [
            r#"{"solve":"regular","layers":2,"fidelity":"quick"}"#,
            r#"{"solve":"regular","layers":2,"fidelity":"quick","converters":8,"imbalance":0.5,"closed_loop":true}"#,
            r#"{"solve":"regular","layers":2,"fidelity":"quick","thermal_coupling":false,"ambient_c":70}"#,
            r#"{"solve":"regular","layers":2,"fidelity":"quick","failed_tsvs":[[0,0,0]]}"#,
        ] {
            let req = ScenarioRequest::from_json(&Json::parse(doc).unwrap()).unwrap();
            assert_eq!(
                ScenarioRequest::format_fingerprint(req.fingerprint()),
                "dccce5194d60f22f",
                "{doc}"
            );
        }
    }

    #[test]
    fn thermal_knobs_hash_only_when_coupling_is_on() {
        // Off: ambient/sink/hotspot are inert and must not perturb the
        // legacy fingerprint.
        let plain = ScenarioRequest::regular(8);
        let decorated = ScenarioRequest::from_json(
            &Json::parse(
                r#"{"solve":"regular","ambient_c":70,"sink_k_per_w":0.9,"hotspot_layer":3,"hotspot_w":5}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(plain.fingerprint(), decorated.fingerprint());

        // On: the axis is live — enabling coupling and each knob under it
        // produces a distinct scenario.
        let axis = ThermalAxis::default();
        let coupled = ScenarioRequest::regular(8).thermal(axis);
        assert_ne!(coupled.fingerprint(), plain.fingerprint());
        let with = |t: ThermalAxis| ScenarioRequest::regular(8).thermal(t);
        let variants = [
            with(ThermalAxis {
                ambient_c: 70.0,
                ..axis
            }),
            with(ThermalAxis {
                sink_k_per_w: 0.9,
                ..axis
            }),
            with(ThermalAxis {
                hotspot: Some((3, 5.0)),
                ..axis
            }),
            with(ThermalAxis {
                hotspot: Some((2, 5.0)),
                ..axis
            }),
            with(ThermalAxis {
                hotspot: Some((3, 7.0)),
                ..axis
            }),
        ];
        let fp = coupled.fingerprint();
        for v in &variants {
            assert_ne!(v.fingerprint(), fp, "{v:?} should differ from coupled base");
        }
    }

    #[test]
    fn zero_watt_hotspot_is_canonical_none() {
        let a = ScenarioRequest::regular(8).thermal(ThermalAxis {
            hotspot: Some((3, 0.0)),
            ..ThermalAxis::default()
        });
        let b = ScenarioRequest::regular(8).thermal(ThermalAxis::default());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.canonical(), b);
    }

    #[test]
    fn thermal_json_round_trip_and_legacy_doc_shape() {
        let req = ScenarioRequest::voltage_stacked(8, 0.3).thermal(ThermalAxis {
            ambient_c: 55.0,
            sink_k_per_w: 0.45,
            hotspot: Some((2, 3.0)),
        });
        let back = ScenarioRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(back.fingerprint(), req.fingerprint());
        assert_eq!(back, req);

        // An uncoupled request serializes without any thermal key — the
        // document is byte-compatible with the pre-thermal schema.
        let uncoupled = r#"{"solve":"regular","thermal_coupling":false,"ambient_c":70}"#;
        let legacy = ScenarioRequest::from_json(&Json::parse(uncoupled).unwrap())
            .unwrap()
            .to_json();
        for key in [
            "thermal_coupling",
            "ambient_c",
            "sink_k_per_w",
            "hotspot_layer",
            "hotspot_w",
        ] {
            assert!(legacy.get(key).is_none(), "{key} leaked into legacy doc");
        }
    }

    #[test]
    fn out_of_range_thermal_fields_are_rejected() {
        for doc in [
            r#"{"solve":"regular","thermal_coupling":true,"ambient_c":200}"#,
            r#"{"solve":"regular","thermal_coupling":true,"ambient_c":-100}"#,
            r#"{"solve":"regular","thermal_coupling":true,"sink_k_per_w":0}"#,
            r#"{"solve":"regular","thermal_coupling":true,"sink_k_per_w":150}"#,
            r#"{"solve":"regular","layers":4,"thermal_coupling":true,"hotspot_layer":4}"#,
            r#"{"solve":"regular","thermal_coupling":true,"hotspot_layer":0,"hotspot_w":-1}"#,
            r#"{"solve":"regular","thermal_coupling":true,"hotspot_layer":0,"hotspot_w":5000}"#,
            // ... and with coupling off.
            r#"{"solve":"regular","ambient_c":200}"#,
            r#"{"solve":"regular","sink_k_per_w":0}"#,
            r#"{"solve":"regular","layers":4,"hotspot_layer":4}"#,
            r#"{"solve":"regular","hotspot_w":5000}"#,
        ] {
            let v = Json::parse(doc).unwrap();
            assert!(ScenarioRequest::from_json(&v).is_err(), "{doc} should fail");
        }
    }

    #[test]
    fn equivalent_fault_sets_share_one_fingerprint() {
        // Injection order, duplicate pad entries and split TSV counts are
        // all spellings of the same physical fault set — one fingerprint,
        // one cache slot, one engine solve.
        let a = ScenarioRequest::regular(8)
            .fail_vdd_pad(7)
            .fail_vdd_pad(2)
            .fail_gnd_pad(5)
            .fail_tsvs(1, 3, 2)
            .fail_tsvs(0, 1, 4);
        let b = ScenarioRequest::regular(8)
            .fail_tsvs(0, 1, 1)
            .fail_gnd_pad(5)
            .fail_vdd_pad(2)
            .fail_tsvs(1, 3, 2)
            .fail_vdd_pad(7)
            .fail_vdd_pad(2) // duplicate: pad opens are idempotent
            .fail_tsvs(0, 1, 3); // split: TSV counts accumulate
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.canonical(), b.canonical());

        // ... and the same holds for wire spellings.
        let c = ScenarioRequest::from_json(
            &Json::parse(r#"{"solve":"regular","failed_vdd_pads":[7,2,2]}"#).unwrap(),
        )
        .unwrap();
        let d = ScenarioRequest::from_json(
            &Json::parse(r#"{"solve":"regular","failed_vdd_pads":[2,7]}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(c.fingerprint(), d.fingerprint());
    }

    #[test]
    fn fault_fields_hash_only_when_present() {
        // Empty fault arrays (and zero-count TSV entries) are the absence
        // of the axis: the pre-fault fingerprint must not move.
        let plain = ScenarioRequest::regular(8);
        assert_eq!(
            ScenarioRequest::format_fingerprint(plain.fingerprint()),
            "08e699bfbd25863e"
        );
        let inert = ScenarioRequest::regular(8).fail_tsvs(0, 0, 0);
        assert!(inert.faults.is_empty());
        assert_eq!(inert.fingerprint(), plain.fingerprint());
        let wire = ScenarioRequest::from_json(
            &Json::parse(r#"{"solve":"regular","failed_vdd_pads":[],"failed_tsvs":[]}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(wire.fingerprint(), plain.fingerprint());

        // A live fault is a distinct scenario, and each element matters.
        let base = ScenarioRequest::regular(8).fail_vdd_pad(3);
        assert_ne!(base.fingerprint(), plain.fingerprint());
        let variants = [
            ScenarioRequest::regular(8).fail_vdd_pad(4),
            ScenarioRequest::regular(8).fail_gnd_pad(3),
            ScenarioRequest::regular(8).fail_tsvs(2, 3, 1),
            base.clone().fail_tsvs(2, 3, 1),
            base.clone().fail_tsvs(2, 3, 2),
            base.clone().fail_vdd_pad(5),
        ];
        let fp = base.fingerprint();
        for v in &variants {
            assert_ne!(v.fingerprint(), fp, "{v:?} should differ from base");
        }
    }

    #[test]
    fn fault_json_round_trip_and_unfaulted_doc_shape() {
        let req = ScenarioRequest::voltage_stacked(8, 0.3)
            .fail_vdd_pad(9)
            .fail_gnd_pad(1)
            .fail_tsvs(4, 11, 3);
        let back = ScenarioRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(back.fingerprint(), req.fingerprint());
        assert_eq!(back.faults, req.faults);
        assert_eq!(back.faults.failed_tsv_count(4, 11), 3);

        let legacy = ScenarioRequest::regular(8).to_json();
        for key in ["failed_vdd_pads", "failed_gnd_pads", "failed_tsvs"] {
            assert!(legacy.get(key).is_none(), "{key} leaked into legacy doc");
        }
    }

    #[test]
    fn out_of_range_fault_fields_are_rejected() {
        for doc in [
            // The coupled fixed point solves the intact network.
            r#"{"solve":"regular","thermal_coupling":true,"failed_vdd_pads":[0]}"#,
            // Interface beyond the stack.
            r#"{"solve":"regular","layers":4,"failed_tsvs":[[3,0,1]]}"#,
            // ... even for a zero-count entry, which is otherwise inert.
            r#"{"solve":"regular","layers":4,"failed_tsvs":[[3,0,0]]}"#,
            // Malformed triple.
            r#"{"solve":"regular","failed_tsvs":[[1,0]]}"#,
            r#"{"solve":"regular","failed_tsvs":[5]}"#,
            // Garbage ordinal.
            r#"{"solve":"regular","failed_vdd_pads":[1e9]}"#,
            r#"{"solve":"regular","failed_gnd_pads":[-1]}"#,
        ] {
            let v = Json::parse(doc).unwrap();
            assert!(ScenarioRequest::from_json(&v).is_err(), "{doc} should fail");
        }
        // Element-count ceiling: it counts listed entries, so 17 copies of
        // one pad are rejected although they denote a single fault.
        let copies = vec!["3"; 17].join(",");
        let doc = format!(r#"{{"solve":"regular","failed_vdd_pads":[{copies}]}}"#);
        assert!(ScenarioRequest::from_json(&Json::parse(&doc).unwrap()).is_err());
        let mut big = ScenarioRequest::regular(8);
        for o in 0..17 {
            big = big.fail_vdd_pad(o);
        }
        assert!(big.validate().is_err());
    }

    #[test]
    fn split_tsv_counts_are_checked_merged() {
        // Each listed count is within the ceiling, the merged bundle is
        // not. Serving already refused this (the engine validates the
        // canonical form); parsing agrees, so the disk tier never holds a
        // request whose document it cannot read back.
        let doc = r#"{"solve":"regular","failed_tsvs":[[0,1,4096],[0,1,1]]}"#;
        let err = ScenarioRequest::from_json(&Json::parse(doc).unwrap()).unwrap_err();
        assert_eq!(err, "tsv fault count must be <= 4096, got 4097");
        let split = ScenarioRequest::regular(8)
            .fail_tsvs(0, 1, 2048)
            .fail_tsvs(0, 1, 2048);
        assert!(split.validate().is_ok());
        assert!(split.fail_tsvs(0, 1, 1).validate().is_err());
    }

    #[test]
    fn one_layer_stack_is_invalid() {
        // Stacking needs two layers to put in series; a regular PDN may
        // have one.
        let doc = Json::parse(r#"{"solve":"vs","layers":1,"fidelity":"quick"}"#).unwrap();
        let err = ScenarioRequest::from_json(&doc).unwrap_err();
        assert!(err.contains("at least 2 layers"), "{err}");
        assert!(ScenarioRequest::voltage_stacked(1, 0.0).validate().is_err());
        assert!(ScenarioRequest::voltage_stacked(2, 0.0).validate().is_ok());
        assert!(ScenarioRequest::regular(1).validate().is_ok());
    }

    #[test]
    fn fingerprint_hex_round_trip() {
        let fp = ScenarioRequest::regular(8).fingerprint();
        let text = ScenarioRequest::format_fingerprint(fp);
        assert_eq!(ScenarioRequest::parse_fingerprint(&text), Some(fp));
        assert_eq!(ScenarioRequest::parse_fingerprint("xyz"), None);
    }
}
