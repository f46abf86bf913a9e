//! Regenerates **Table 2**: TSV configurations used in the study.

use vstack::experiments::tables;
use vstack::pdn::PdnParams;
use vstack_bench::heading;

fn main() {
    vstack_bench::obs::refuse_args();
    heading("Table 2 — TSV configurations");
    println!(
        "{:<14} {:>18} {:>16} {:>18}",
        "topology", "eff. pitch (um)", "TSVs per core", "area overhead"
    );
    for row in tables::table2(&PdnParams::paper_defaults()) {
        println!(
            "{:<14} {:>18.0} {:>16} {:>17.1}%",
            row.topology.name(),
            row.effective_pitch_um,
            row.tsvs_per_core,
            100.0 * row.area_overhead
        );
    }
}
