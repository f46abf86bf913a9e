//! Regenerates **Table 1**: major PDN modeling parameters.

use vstack::experiments::tables;
use vstack::pdn::PdnParams;
use vstack_bench::heading;

fn main() {
    vstack_bench::obs::refuse_args();
    heading("Table 1 — Major PDN modeling parameters");
    for row in tables::table1(&PdnParams::paper_defaults()) {
        println!("{:<45} {}", row.name, row.value);
    }
}
