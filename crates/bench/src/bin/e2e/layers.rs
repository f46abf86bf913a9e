//! Per-layer metrics read from deltas of the program's global counters.

use std::collections::BTreeMap;

use vstack_obs::metrics;

use crate::report::{ratio, Report};

/// A snapshot of every global counter plus the fault-query histogram.
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    pub fn now() -> Counters {
        let m = metrics::global();
        let mut map: BTreeMap<&'static str, u64> = m
            .counters()
            .into_iter()
            .map(|(name, c)| (name, c.get()))
            .collect();
        map.insert("fault_query_count", m.fault_query_us.count());
        map.insert("fault_query_sum_us", m.fault_query_us.sum());
        Counters(map)
    }

    /// What the counters advanced by since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(&name, &v)| (name, v.saturating_sub(before.0[name])))
                .collect(),
        )
    }

    /// # Panics
    ///
    /// On a counter name the program does not define.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .copied()
            .unwrap_or_else(|| panic!("no program counter named {name}")) as f64
    }
}

/// The counters the engine, coupling, PDN and sparse layers keep, turned
/// into layer metrics over the window the delta covers; `wall_us` is that
/// window's wall time, for the pool's busy share.
pub fn set_counter_layers(report: &mut Report, d: &Counters, wall_us: f64) {
    let requests = d.get("engine_requests");
    let hits = d.get("engine_memory_hits") + d.get("engine_disk_hits") + d.get("engine_deduped");
    report.set("cache.memory_hits", d.get("engine_memory_hits"));
    report.set("cache.disk_hits", d.get("engine_disk_hits"));
    report.set("cache.hit_frac", ratio(hits, requests));
    report.set("core.coupling_runs", d.get("coupling_runs"));
    report.set("core.coupling_iterations", d.get("coupling_iterations"));
    report.set("pdn.solves", d.get("pdn_solves"));
    report.set("pdn.pattern_builds", d.get("pdn_pattern_builds"));
    report.set("pdn.pattern_reuses", d.get("pdn_pattern_reuses"));
    report.set("pdn.stamp_ms", d.get("pdn_stamp_us") / 1e3);
    report.set(
        "pdn.amg_cache_hit_frac",
        ratio(
            d.get("amg_cache_hits"),
            d.get("amg_cache_hits") + d.get("amg_cache_misses"),
        ),
    );
    report.set("pdn.sketch_builds", d.get("fault_sketch_builds"));
    report.set("pdn.sketch_fallbacks", d.get("fault_sketch_fallbacks"));
    report.set(
        "pdn.sketch_hit_frac",
        ratio(
            d.get("fault_sketch_hits"),
            d.get("fault_sketch_hits") + d.get("fault_sketch_fallbacks"),
        ),
    );
    report.set(
        "pdn.fault_query_mean_us",
        ratio(d.get("fault_query_sum_us"), d.get("fault_query_count")),
    );
    let solves = d.get("cg_solves") + d.get("bicgstab_solves");
    report.set(
        "sparse.iterations_per_solve",
        ratio(d.get("solver_iterations"), solves),
    );
    report.set("sparse.setup_ms", d.get("solver_setup_us") / 1e3);
    report.set("sparse.krylov_ms", d.get("solver_solve_us") / 1e3);
    report.set("sparse.amg_builds", d.get("amg_builds"));
    report.set("sparse.vcycles", d.get("amg_vcycles"));
    report.set("sparse.stencil_applies", d.get("stencil_applies"));
    report.set("sparse.ladder_escalations", d.get("ladder_escalations"));
    report.set(
        "sparse.pool_parallel_frac",
        ratio(
            d.get("pool_broadcasts"),
            d.get("pool_broadcasts") + d.get("pool_serial_runs"),
        ),
    );
    let width = vstack::sparse::pool::global().contexts() as f64;
    report.set(
        "sparse.busy_frac",
        ratio(
            d.get("solver_setup_us") + d.get("solver_solve_us"),
            wall_us * width,
        ),
    );
}
