//! The canonical scenario-request description and its fingerprint.
//!
//! A [`ScenarioRequest`] names one point on the experiment surface the
//! repo's binaries already expose: solve the regular or voltage-stacked
//! PDN at a given layer count, TSV topology, C4 allocation, converter
//! configuration, workload imbalance and fidelity. Requests arriving as
//! JSON are normalized into this struct, **canonicalized** (fields that
//! cannot affect the named solve are forced to their defaults) and then
//! hashed into a 64-bit FNV-1a fingerprint over a fixed, tagged byte
//! encoding. Two requests get the same fingerprint iff they denote the
//! same physical solve, regardless of JSON field order or float
//! formatting (`0.25` vs `2.5e-1` parse to the same `f64` and hash the
//! same bits; `-0.0` is normalized to `+0.0` before hashing).

use crate::json::Json;
use vstack::experiments::Fidelity;
use vstack::pdn::{FaultSet, TsvTopology};
use vstack::sc::compact::ScConverter;
use vstack::scenario::DesignScenario;

/// Which PDN the request solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveKind {
    /// Regular (per-layer parallel) power delivery at full activity.
    Regular,
    /// Voltage-stacked (charge-recycled) delivery under the interleaved
    /// imbalance pattern.
    VoltageStacked,
}

impl SolveKind {
    /// Wire name used in the JSON protocol.
    pub fn name(self) -> &'static str {
        match self {
            SolveKind::Regular => "regular",
            SolveKind::VoltageStacked => "vs",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "regular" => Some(SolveKind::Regular),
            "vs" => Some(SolveKind::VoltageStacked),
            _ => None,
        }
    }
}

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
    /// Which PDN to solve.
    pub kind: SolveKind,
    /// Stacked layer count.
    pub layers: usize,
    /// TSV topology.
    pub tsv: TsvTopology,
    /// Fraction of C4 pads allocated to power delivery.
    pub power_c4: f64,
    /// SC converters per core (V-S only).
    pub converters: usize,
    /// Workload imbalance of the interleaved pattern (V-S only).
    pub imbalance: f64,
    /// Closed-loop (frequency-modulated) converters instead of the
    /// paper's open-loop design (V-S only).
    pub closed_loop: bool,
    /// Grid fidelity: `Paper` (refinement 3) or `Quick` (coarse grid).
    pub fidelity: Fidelity,
    /// Run the thermal–EM–IR coupled fixed point instead of the
    /// uncoupled solve. Off by default; when off, the remaining thermal
    /// knobs are canonicalized away and the fingerprint is byte-identical
    /// to the pre-thermal schema.
    pub thermal_coupling: bool,
    /// Ambient (case inlet) temperature, °C (coupling only).
    pub ambient_c: f64,
    /// TIM + spreader + heatsink resistance, K/W (coupling only).
    pub sink_k_per_w: f64,
    /// Optional hotspot injection layer (coupling only).
    pub hotspot_layer: Option<usize>,
    /// Hotspot power in watts, spread over the layer (coupling only).
    pub hotspot_w: f64,
    /// Supply pads to open-circuit, by ordinal among Vdd power pads.
    /// Canonicalized sorted and deduplicated; an ordinal beyond the
    /// scenario's pad array is a stamping no-op, never an error.
    pub failed_vdd_pads: Vec<usize>,
    /// Return pads to open-circuit, by ordinal among Gnd power pads.
    pub failed_gnd_pads: Vec<usize>,
    /// TSV faults as `(interface, core, count)` triples — `count` TSVs of
    /// the bundle joining layers `interface` and `interface + 1` under
    /// `core` are opened. Canonicalized sorted by `(interface, core)`
    /// with duplicate keys merged (counts accumulate, matching
    /// [`FaultSet::fail_tsvs`]) and zero-count entries dropped.
    pub failed_tsvs: Vec<(usize, usize, usize)>,
}

/// Baseline values for fields a request leaves unspecified — the paper's
/// evaluation platform (also what canonicalization pins the V-S-only
/// fields of a regular request to).
const DEFAULT_CONVERTERS: usize = 4;
const DEFAULT_POWER_C4: f64 = 0.25;
const DEFAULT_AMBIENT_C: f64 = 45.0;
const DEFAULT_SINK_K_PER_W: f64 = 0.30;

/// Most fault elements (pads + TSV bundles) one request may name. Matches
/// the regime the rank-k SMW sketch is built for; what-if sweeps needing
/// more go through the study binaries, not the serving path.
const MAX_FAULT_ELEMENTS: usize = 16;
/// Generous ceiling on pad ordinals and TSV cores — far above any real
/// array, it only rejects garbage (ordinals beyond the actual array are
/// otherwise legal stamping no-ops).
const MAX_FAULT_ORDINAL: usize = 65_536;
/// Ceiling on a single bundle's failed-TSV count (solve paths clamp at
/// zero survivors anyway).
const MAX_TSVS_PER_FAULT: usize = 4096;

/// The FNV-1a fingerprint domain. Deliberately **decoupled from
/// [`crate::SCHEMA_VERSION`]** and pinned at the value that was current
/// when the fingerprint encoding stabilized: the schema version moves
/// with envelope/summary layout changes, but moving the fingerprint
/// domain would silently re-key every cached scenario. The thermal axis
/// (tags 9–13, hashed only when coupling is enabled) and the fault axis
/// (tags 14–16, hashed only when a fault is present) extend the encoding
/// with *conditional* tagged fields, so every legacy request keeps its
/// byte-identical fingerprint (pinned by regression test below).
pub const FINGERPRINT_DOMAIN: u32 = 4;

/// Largest accepted layer count; above this the dense stamping cost stops
/// being a "query" and one solve would starve the requests queued behind
/// it on its shard.
const MAX_LAYERS: usize = 64;
const MAX_CONVERTERS: usize = 64;

impl ScenarioRequest {
    /// A regular-PDN solve at full activity with paper-baseline knobs.
    pub fn regular(layers: usize) -> Self {
        ScenarioRequest {
            kind: SolveKind::Regular,
            layers,
            tsv: TsvTopology::Few,
            power_c4: DEFAULT_POWER_C4,
            converters: DEFAULT_CONVERTERS,
            imbalance: 0.0,
            closed_loop: false,
            fidelity: Fidelity::Paper,
            thermal_coupling: false,
            ambient_c: DEFAULT_AMBIENT_C,
            sink_k_per_w: DEFAULT_SINK_K_PER_W,
            hotspot_layer: None,
            hotspot_w: 0.0,
            failed_vdd_pads: Vec::new(),
            failed_gnd_pads: Vec::new(),
            failed_tsvs: Vec::new(),
        }
    }

    /// A voltage-stacked solve under the interleaved pattern.
    pub fn voltage_stacked(layers: usize, imbalance: f64) -> Self {
        ScenarioRequest {
            kind: SolveKind::VoltageStacked,
            imbalance,
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

    /// Sets the converters-per-core count.
    pub fn converters(mut self, k: usize) -> Self {
        self.converters = k;
        self
    }

    /// Selects closed-loop converter control.
    pub fn closed_loop(mut self, on: bool) -> Self {
        self.closed_loop = on;
        self
    }

    /// Switches to the coarse quick-fidelity grid.
    pub fn quick(mut self) -> Self {
        self.fidelity = Fidelity::Quick;
        self
    }

    /// Enables the thermal–EM–IR coupled solve.
    pub fn thermal_coupling(mut self, on: bool) -> Self {
        self.thermal_coupling = on;
        self
    }

    /// Sets the ambient temperature (meaningful with coupling on).
    pub fn ambient_c(mut self, t: f64) -> Self {
        self.ambient_c = t;
        self
    }

    /// Sets the heatsink resistance (meaningful with coupling on).
    pub fn sink_k_per_w(mut self, r: f64) -> Self {
        self.sink_k_per_w = r;
        self
    }

    /// Injects a hotspot of `watts` on `layer` (meaningful with coupling
    /// on).
    pub fn hotspot(mut self, layer: usize, watts: f64) -> Self {
        self.hotspot_layer = Some(layer);
        self.hotspot_w = watts;
        self
    }

    /// Open-circuits supply pad `ordinal` in the what-if solve.
    pub fn fail_vdd_pad(mut self, ordinal: usize) -> Self {
        self.failed_vdd_pads.push(ordinal);
        self
    }

    /// Open-circuits return pad `ordinal` in the what-if solve.
    pub fn fail_gnd_pad(mut self, ordinal: usize) -> Self {
        self.failed_gnd_pads.push(ordinal);
        self
    }

    /// Opens `count` TSVs of the `(interface, core)` bundle in the
    /// what-if solve.
    pub fn fail_tsvs(mut self, interface: usize, core: usize, count: usize) -> Self {
        self.failed_tsvs.push((interface, core, count));
        self
    }

    /// Whether this request names any open-circuit fault (zero-count TSV
    /// entries do not count — they canonicalize away).
    pub fn has_faults(&self) -> bool {
        !self.failed_vdd_pads.is_empty()
            || !self.failed_gnd_pads.is_empty()
            || self.failed_tsvs.iter().any(|&(_, _, n)| n > 0)
    }

    /// The [`FaultSet`] this request's fault axis denotes. Empty when the
    /// request names no fault.
    pub fn fault_set(&self) -> FaultSet {
        let mut f = FaultSet::new();
        for &o in &self.failed_vdd_pads {
            f.fail_vdd_pad(o);
        }
        for &o in &self.failed_gnd_pads {
            f.fail_gnd_pad(o);
        }
        for &(interface, core, count) in &self.failed_tsvs {
            f.fail_tsvs(interface, core, count);
        }
        f
    }

    /// Checks every field is in its physical range and finite.
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
        if self.kind == SolveKind::VoltageStacked && self.layers < 2 {
            return Err(format!(
                "a voltage-stacked solve needs at least 2 layers, got {}",
                self.layers
            ));
        }
        if !self.power_c4.is_finite() || self.power_c4 <= 0.0 || self.power_c4 > 1.0 {
            return Err(format!(
                "power_c4 must be finite in (0, 1], got {}",
                self.power_c4
            ));
        }
        if self.converters == 0 || self.converters > MAX_CONVERTERS {
            return Err(format!(
                "converters must be in 1..={MAX_CONVERTERS}, got {}",
                self.converters
            ));
        }
        if !self.imbalance.is_finite() || !(0.0..=1.0).contains(&self.imbalance) {
            return Err(format!(
                "imbalance must be finite in [0, 1], got {}",
                self.imbalance
            ));
        }
        if !self.ambient_c.is_finite() || !(-55.0..=150.0).contains(&self.ambient_c) {
            return Err(format!(
                "ambient_c must be finite in [-55, 150], got {}",
                self.ambient_c
            ));
        }
        if !self.sink_k_per_w.is_finite() || self.sink_k_per_w <= 0.0 || self.sink_k_per_w > 100.0 {
            return Err(format!(
                "sink_k_per_w must be finite in (0, 100], got {}",
                self.sink_k_per_w
            ));
        }
        if let Some(layer) = self.hotspot_layer {
            if layer >= self.layers {
                return Err(format!(
                    "hotspot_layer must be below layers ({}), got {layer}",
                    self.layers
                ));
            }
        }
        if !self.hotspot_w.is_finite() || !(0.0..=1000.0).contains(&self.hotspot_w) {
            return Err(format!(
                "hotspot_w must be finite in [0, 1000], got {}",
                self.hotspot_w
            ));
        }
        if self.has_faults() && self.thermal_coupling {
            return Err("fault injection cannot combine with thermal_coupling; \
                 the coupled fixed point solves the intact network"
                .to_string());
        }
        let elements =
            self.failed_vdd_pads.len() + self.failed_gnd_pads.len() + self.failed_tsvs.len();
        if elements > MAX_FAULT_ELEMENTS {
            return Err(format!(
                "at most {MAX_FAULT_ELEMENTS} fault elements per request, got {elements}"
            ));
        }
        for &o in self.failed_vdd_pads.iter().chain(&self.failed_gnd_pads) {
            if o > MAX_FAULT_ORDINAL {
                return Err(format!(
                    "pad ordinal must be <= {MAX_FAULT_ORDINAL}, got {o}"
                ));
            }
        }
        for &(interface, core, count) in &self.failed_tsvs {
            if self.layers < 2 || interface >= self.layers - 1 {
                return Err(format!(
                    "tsv interface must be below layers - 1 ({}), got {interface}",
                    self.layers.saturating_sub(1)
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

    /// The canonical form: `-0.0` floats normalized to `+0.0`, and — for a
    /// regular solve — the V-S-only fields (imbalance, converter count and
    /// control) pinned to their defaults, since they cannot affect the
    /// solve. Canonical requests are what the cache is keyed on, so e.g. a
    /// regular request with `converters: 8` and one with `converters: 4`
    /// share a fingerprint and a cache slot.
    pub fn canonical(&self) -> Self {
        let mut c = self.clone();
        c.power_c4 += 0.0;
        c.imbalance += 0.0;
        c.ambient_c += 0.0;
        c.sink_k_per_w += 0.0;
        c.hotspot_w += 0.0;
        if c.kind == SolveKind::Regular {
            c.imbalance = 0.0;
            c.converters = DEFAULT_CONVERTERS;
            c.closed_loop = false;
        }
        if !c.thermal_coupling {
            // Thermal knobs cannot affect an uncoupled solve.
            c.ambient_c = DEFAULT_AMBIENT_C;
            c.sink_k_per_w = DEFAULT_SINK_K_PER_W;
            c.hotspot_layer = None;
            c.hotspot_w = 0.0;
        }
        // A zero-watt hotspot is no hotspot and vice versa.
        if c.hotspot_w == 0.0 {
            c.hotspot_layer = None;
        }
        if c.hotspot_layer.is_none() {
            c.hotspot_w = 0.0;
        }
        // The fault axis canonicalizes to the [`FaultSet`] it denotes:
        // pads sorted and deduplicated, TSV triples merged per
        // (interface, core) with counts accumulated (the `fail_tsvs`
        // semantics) and zero-count entries dropped. Every spelling of
        // the same fault set shares one fingerprint and cache slot.
        if c.has_faults() {
            let f = c.fault_set();
            c.failed_vdd_pads = f.vdd_pad_ordinals().collect();
            c.failed_gnd_pads = f.gnd_pad_ordinals().collect();
            c.failed_tsvs = f
                .tsv_bundles()
                .map(|((interface, core), count)| (interface, core, count))
                .collect();
        } else {
            c.failed_vdd_pads = Vec::new();
            c.failed_gnd_pads = Vec::new();
            c.failed_tsvs = Vec::new();
        }
        c
    }

    /// The content-address of this request: 64-bit FNV-1a over the
    /// [`FINGERPRINT_DOMAIN`] and a fixed tag/value byte encoding of the
    /// canonical form. Deterministic across runs, platforms and JSON
    /// spellings. The thermal fields (tags 9–13) are hashed **only when
    /// coupling is enabled** and the fault fields (tags 14–16) **only
    /// when a fault is present**, so requests predating either axis keep
    /// their exact fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let c = self.canonical();
        let mut h = Fnv::new();
        h.write(&FINGERPRINT_DOMAIN.to_le_bytes());
        h.field(1, &[c.kind as u8]);
        h.field(2, &(c.layers as u64).to_le_bytes());
        h.field(3, &[tsv_tag(c.tsv)]);
        h.field(4, &c.power_c4.to_bits().to_le_bytes());
        h.field(5, &(c.converters as u64).to_le_bytes());
        h.field(6, &c.imbalance.to_bits().to_le_bytes());
        h.field(7, &[u8::from(c.closed_loop)]);
        h.field(8, &[c.fidelity as u8]);
        if c.thermal_coupling {
            h.field(9, &[1]);
            h.field(10, &c.ambient_c.to_bits().to_le_bytes());
            h.field(11, &c.sink_k_per_w.to_bits().to_le_bytes());
            // Tag 12 encodes presence + layer in one field (0 = none).
            let hotspot = c.hotspot_layer.map_or(0, |l| l as u64 + 1);
            h.field(12, &hotspot.to_le_bytes());
            h.field(13, &c.hotspot_w.to_bits().to_le_bytes());
        }
        // Fault-axis fields (tags 14–16) hash only when a fault is
        // present, mirroring the thermal convention: every unfaulted
        // request keeps its pre-fault fingerprint. The canonical lists
        // are sorted/merged, so equivalent fault sets hash identically
        // regardless of injection order or duplicate entries.
        if c.has_faults() {
            let mut vdd = Vec::with_capacity(c.failed_vdd_pads.len() * 8);
            for &o in &c.failed_vdd_pads {
                vdd.extend_from_slice(&(o as u64).to_le_bytes());
            }
            h.field(14, &vdd);
            let mut gnd = Vec::with_capacity(c.failed_gnd_pads.len() * 8);
            for &o in &c.failed_gnd_pads {
                gnd.extend_from_slice(&(o as u64).to_le_bytes());
            }
            h.field(15, &gnd);
            let mut tsvs = Vec::with_capacity(c.failed_tsvs.len() * 24);
            for &(interface, core, count) in &c.failed_tsvs {
                tsvs.extend_from_slice(&(interface as u64).to_le_bytes());
                tsvs.extend_from_slice(&(core as u64).to_le_bytes());
                tsvs.extend_from_slice(&(count as u64).to_le_bytes());
            }
            h.field(16, &tsvs);
        }
        h.finish()
    }

    /// Builds the [`DesignScenario`] this request denotes.
    pub fn to_scenario(&self) -> DesignScenario {
        let mut s = DesignScenario::paper_baseline()
            .layers(self.layers)
            .tsv_topology(self.tsv)
            .power_c4_fraction(self.power_c4)
            .converters_per_core(self.converters);
        if self.closed_loop {
            s = s.converter(ScConverter::paper_28nm_closed_loop());
        }
        if self.fidelity == Fidelity::Quick {
            s = s.coarse_grid();
        }
        s
    }

    /// Serializes the canonical form. Every pre-thermal field is emitted,
    /// so a document can be archived and re-parsed without depending on
    /// defaults of a future schema; the thermal block is emitted only
    /// when coupling is on (its canonical uncoupled form *is* the
    /// absence of the fields, keeping uncoupled documents byte-identical
    /// to the pre-thermal schema).
    pub fn to_json(&self) -> Json {
        let c = self.canonical();
        let mut fields = vec![
            ("solve", Json::Str(c.kind.name().to_string())),
            ("layers", Json::Num(c.layers as f64)),
            ("tsv", Json::Str(tsv_name(c.tsv).to_string())),
            ("power_c4", Json::Num(c.power_c4)),
            ("converters", Json::Num(c.converters as f64)),
            ("imbalance", Json::Num(c.imbalance)),
            ("closed_loop", Json::Bool(c.closed_loop)),
            ("fidelity", Json::Str(fidelity_name(c.fidelity).to_string())),
        ];
        if c.thermal_coupling {
            fields.push(("thermal_coupling", Json::Bool(true)));
            fields.push(("ambient_c", Json::Num(c.ambient_c)));
            fields.push(("sink_k_per_w", Json::Num(c.sink_k_per_w)));
            if let Some(layer) = c.hotspot_layer {
                fields.push(("hotspot_layer", Json::Num(layer as f64)));
                fields.push(("hotspot_w", Json::Num(c.hotspot_w)));
            }
        }
        // Fault block, like the thermal block, appears only when live —
        // unfaulted documents keep the pre-fault byte layout.
        let ints = |xs: &[usize]| Json::Arr(xs.iter().map(|&x| Json::Num(x as f64)).collect());
        if !c.failed_vdd_pads.is_empty() {
            fields.push(("failed_vdd_pads", ints(&c.failed_vdd_pads)));
        }
        if !c.failed_gnd_pads.is_empty() {
            fields.push(("failed_gnd_pads", ints(&c.failed_gnd_pads)));
        }
        if !c.failed_tsvs.is_empty() {
            fields.push((
                "failed_tsvs",
                Json::Arr(
                    c.failed_tsvs
                        .iter()
                        .map(|&(i, core, n)| ints(&[i, core, n]))
                        .collect(),
                ),
            ));
        }
        Json::obj(fields)
    }

    /// Parses a request object. Only `solve` is required; every other
    /// field defaults to the paper baseline. Unknown keys are rejected so
    /// a typo cannot silently denote a different scenario.
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
        let kind = value
            .get("solve")
            .and_then(Json::as_str)
            .ok_or("missing required field \"solve\"")?;
        let kind = SolveKind::from_name(kind)
            .ok_or_else(|| format!("solve must be \"regular\" or \"vs\", got \"{kind}\""))?;
        let mut req = match kind {
            SolveKind::Regular => ScenarioRequest::regular(8),
            SolveKind::VoltageStacked => ScenarioRequest::voltage_stacked(8, 0.0),
        };
        if let Some(v) = value.get("layers") {
            req.layers = v
                .as_usize()
                .ok_or("layers must be a non-negative integer")?;
        }
        if let Some(v) = value.get("tsv") {
            let name = v.as_str().ok_or("tsv must be a string")?;
            req.tsv = tsv_from_name(name)
                .ok_or_else(|| format!("tsv must be dense|sparse|few, got \"{name}\""))?;
        }
        if let Some(v) = value.get("power_c4") {
            req.power_c4 = v.as_f64().ok_or("power_c4 must be a number")?;
        }
        if let Some(v) = value.get("converters") {
            req.converters = v
                .as_usize()
                .ok_or("converters must be a non-negative integer")?;
        }
        if let Some(v) = value.get("imbalance") {
            req.imbalance = v.as_f64().ok_or("imbalance must be a number")?;
        }
        if let Some(v) = value.get("closed_loop") {
            req.closed_loop = v.as_bool().ok_or("closed_loop must be a boolean")?;
        }
        if let Some(v) = value.get("fidelity") {
            let name = v.as_str().ok_or("fidelity must be a string")?;
            req.fidelity = fidelity_from_name(name)
                .ok_or_else(|| format!("fidelity must be paper|quick, got \"{name}\""))?;
        }
        if let Some(v) = value.get("thermal_coupling") {
            req.thermal_coupling = v.as_bool().ok_or("thermal_coupling must be a boolean")?;
        }
        if let Some(v) = value.get("ambient_c") {
            req.ambient_c = v.as_f64().ok_or("ambient_c must be a number")?;
        }
        if let Some(v) = value.get("sink_k_per_w") {
            req.sink_k_per_w = v.as_f64().ok_or("sink_k_per_w must be a number")?;
        }
        if let Some(v) = value.get("hotspot_layer") {
            req.hotspot_layer = Some(
                v.as_usize()
                    .ok_or("hotspot_layer must be a non-negative integer")?,
            );
        }
        if let Some(v) = value.get("hotspot_w") {
            req.hotspot_w = v.as_f64().ok_or("hotspot_w must be a number")?;
        }
        let pad_list = |v: &Json, key: &str| -> Result<Vec<usize>, String> {
            v.as_arr()
                .ok_or(format!("{key} must be an array of integers"))?
                .iter()
                .map(|x| {
                    x.as_usize()
                        .ok_or(format!("{key} entries must be non-negative integers"))
                })
                .collect()
        };
        if let Some(v) = value.get("failed_vdd_pads") {
            req.failed_vdd_pads = pad_list(v, "failed_vdd_pads")?;
        }
        if let Some(v) = value.get("failed_gnd_pads") {
            req.failed_gnd_pads = pad_list(v, "failed_gnd_pads")?;
        }
        if let Some(v) = value.get("failed_tsvs") {
            let arr = v
                .as_arr()
                .ok_or("failed_tsvs must be an array of [interface, core, count] triples")?;
            req.failed_tsvs = arr
                .iter()
                .map(|t| {
                    let triple = pad_list(t, "failed_tsvs")?;
                    match triple[..] {
                        [interface, core, count] => Ok((interface, core, count)),
                        _ => Err(
                            "failed_tsvs entries must be [interface, core, count] triples"
                                .to_string(),
                        ),
                    }
                })
                .collect::<Result<_, String>>()?;
        }
        req.validate()?;
        Ok(req)
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
    fn thermal_knobs_hash_only_when_coupling_is_on() {
        // Off: ambient/sink/hotspot are inert and must not perturb the
        // legacy fingerprint.
        let plain = ScenarioRequest::regular(8);
        let decorated = ScenarioRequest::regular(8)
            .ambient_c(70.0)
            .sink_k_per_w(0.9)
            .hotspot(3, 5.0);
        assert_eq!(plain.fingerprint(), decorated.fingerprint());

        // On: the axis is live — enabling coupling and each knob under it
        // produces a distinct scenario.
        let coupled = ScenarioRequest::regular(8).thermal_coupling(true);
        assert_ne!(coupled.fingerprint(), plain.fingerprint());
        let variants = [
            coupled.clone().ambient_c(70.0),
            coupled.clone().sink_k_per_w(0.9),
            coupled.clone().hotspot(3, 5.0),
            coupled.clone().hotspot(2, 5.0),
            coupled.clone().hotspot(3, 7.0),
        ];
        let fp = coupled.fingerprint();
        for v in &variants {
            assert_ne!(v.fingerprint(), fp, "{v:?} should differ from coupled base");
        }
    }

    #[test]
    fn zero_watt_hotspot_is_canonical_none() {
        let a = ScenarioRequest::regular(8)
            .thermal_coupling(true)
            .hotspot(3, 0.0);
        let b = ScenarioRequest::regular(8).thermal_coupling(true);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn thermal_json_round_trip_and_legacy_doc_shape() {
        let req = ScenarioRequest::voltage_stacked(8, 0.3)
            .thermal_coupling(true)
            .ambient_c(55.0)
            .sink_k_per_w(0.45)
            .hotspot(2, 3.0);
        let back = ScenarioRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(back.fingerprint(), req.fingerprint());
        assert!(back.thermal_coupling);
        assert_eq!(back.hotspot_layer, Some(2));

        // An uncoupled request serializes without any thermal key — the
        // document is byte-compatible with the pre-thermal schema.
        let legacy = ScenarioRequest::regular(8).ambient_c(70.0).to_json();
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
        assert!(!inert.has_faults());
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
        assert_eq!(back.failed_tsvs, vec![(4, 11, 3)]);

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
        // Element-count ceiling.
        let mut big = ScenarioRequest::regular(8);
        for o in 0..17 {
            big = big.fail_vdd_pad(o);
        }
        assert!(big.validate().is_err());
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
