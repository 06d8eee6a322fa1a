//! Every printable paper artefact by name: the one table the `freac-eval`
//! CLI and the `paper_figures` example both render from, so a figure
//! reads the same whichever front end prints it.

use crate::{
    ablations, area, energy_breakdown, fig08, fig09, fig10, fig11, fig12, fig13, fig14, fig15,
    multi, sensitivity, tables,
};

/// One paper artefact and how to render it.
#[derive(Debug)]
pub struct Artefact {
    /// The name `freac-eval` lists it under.
    pub name: &'static str,
    /// Other names that select it. `ablations` is shared by the six
    /// design-choice ablations, so it selects all of them.
    pub aliases: &'static [&'static str],
    /// Runs the experiment and renders its text, meant to be printed with
    /// a trailing newline.
    pub render: fn() -> String,
}

impl Artefact {
    const fn new(
        name: &'static str,
        aliases: &'static [&'static str],
        render: fn() -> String,
    ) -> Self {
        Artefact {
            name,
            aliases,
            render,
        }
    }
}

/// The alias the six design-choice ablations share.
const ABLATIONS: &[&str] = &["ablations"];

/// Every artefact, in the order `freac-eval all` prints them.
pub const ARTEFACTS: &[Artefact] = &[
    Artefact::new("table1", &[], || tables::table1().to_string()),
    Artefact::new("table2", &[], || tables::table2().to_string()),
    Artefact::new("area", &[], || area::area_report().to_string()),
    Artefact::new("fig8", &["fig08"], || fig08::run().table().to_string()),
    Artefact::new("fig9", &["fig09"], || fig09::run().table().to_string()),
    Artefact::new("fig10", &[], || fig10::run().table().to_string()),
    Artefact::new("fig11", &[], || fig11::run().table().to_string()),
    Artefact::new("fig12", &[], fig12_text),
    Artefact::new("fig13", &[], || fig13::run().table().to_string()),
    Artefact::new("fig14", &[], fig14_text),
    Artefact::new("fig15", &[], || fig15::run().table().to_string()),
    Artefact::new("lut_mode_ablation", ABLATIONS, || {
        ablations::lut_mode().table().to_string()
    }),
    Artefact::new("clock_ablation", ABLATIONS, || {
        ablations::clock_penalty().table().to_string()
    }),
    Artefact::new("opt_ablation", ABLATIONS, || {
        ablations::netlist_opt().table().to_string()
    }),
    Artefact::new("packing_ablation", ABLATIONS, || {
        ablations::packing().table().to_string()
    }),
    Artefact::new("scheduler_ablation", ABLATIONS, || {
        ablations::scheduler_policy().table().to_string()
    }),
    Artefact::new("inclusion_ablation", ABLATIONS, || {
        ablations::inclusion().table().to_string()
    }),
    Artefact::new("energy", &[], || {
        energy_breakdown::run().table().to_string()
    }),
    Artefact::new("multi", &[], || {
        multi::run(&multi::JobMix::representative())
            .table()
            .to_string()
    }),
    Artefact::new("sensitivity", &[], || {
        sensitivity::run().table().to_string()
    }),
];

/// Fig. 12's three tables plus its geomean headline against the paper's.
fn fig12_text() -> String {
    let f = fig12::run();
    let (vs1, vs8, ppw) = f.geomeans();
    let mut text = format!(
        "{}\n{}\n{}\n",
        f.speedup_table(),
        f.power_table(),
        f.perf_per_watt_table()
    );
    text += &format!(
        "Fig. 12 geomeans: {vs1:.2}x vs 1 thread, {vs8:.2}x vs 8 threads, \
         {ppw:.2}x perf/W vs 8 threads\n"
    );
    text += "                  (paper: 8.2x, 3x, 6.1x)\n";
    text
}

/// Fig. 14's table plus its geomean headline against the paper's.
fn fig14_text() -> String {
    let f = fig14::run();
    let (vs_ec8, vs_ec16) = f.geomean_advantage();
    format!(
        "{}\nFig. 14 geomeans: FReaC is {vs_ec8:.2}x vs 8 ECs, {vs_ec16:.2}x vs 16 ECs \
         (paper: ~4x, ~2x)\n",
        f.table()
    )
}

/// The artefacts `name` selects, in table order: every one for `all`,
/// none when no artefact answers to `name`.
pub fn select(name: &str) -> Vec<&'static Artefact> {
    ARTEFACTS
        .iter()
        .filter(|a| name == "all" || a.name == name || a.aliases.contains(&name))
        .collect()
}

/// Every name and alias, deduplicated, in table order.
pub fn names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::new();
    for a in ARTEFACTS {
        for &n in std::iter::once(&a.name).chain(a.aliases) {
            if !names.contains(&n) {
                names.push(n);
            }
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_each_selects_its_artefact() {
        for a in ARTEFACTS {
            assert_eq!(select(a.name).len(), 1, "{} is ambiguous", a.name);
        }
        assert_eq!(select("fig08")[0].name, "fig8");
        assert_eq!(select("fig09")[0].name, "fig9");
        assert_eq!(select("ablations").len(), 6);
        assert_eq!(select("all").len(), ARTEFACTS.len());
        assert!(select("fig16").is_empty());
    }

    #[test]
    fn names_keep_table_order_and_list_each_alias_once() {
        let names = names();
        assert_eq!(&names[..5], ["table1", "table2", "area", "fig8", "fig08"]);
        assert_eq!(names.iter().filter(|&&n| n == "ablations").count(), 1);
        assert_eq!(names.len(), ARTEFACTS.len() + 3);
    }
}
