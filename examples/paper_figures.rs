//! Regenerates every table and figure of the paper's evaluation and prints
//! them as aligned text tables.
//!
//! Run with: `cargo run --release --example paper_figures`
//!
//! Every kernel is mapped, folded, and timed across tile sizes, slice
//! counts, and baselines; independent cells fan out across the shared
//! worker pool (override with `FREAC_WORKERS=<n>`; `FREAC_WORKERS=1`
//! forces a serial run) and each circuit is synthesized once thanks to
//! the process-wide mapping cache. Output on stdout is byte-identical
//! for any worker count.
//!
//! With `FREAC_TRACE=1` (and/or `FREAC_METRICS=1`) the run also writes
//! `freac-trace.json` (Chrome trace: one track per figure plus the
//! simulated-time kernel tracks), `freac-metrics.json`, and the
//! deterministic `freac-counters.json` baseline sidecar.

use freac::experiments as exp;
use freac::probe;

/// The artefacts printed, in order, each under a `harness.<name>` probe
/// span. Of the ablations only netlist optimization and LLC inclusion
/// run; with the probe enabled the inclusion ablation also exports the
/// cache-hierarchy and way-claim coherence counters, so the CI baseline
/// diff covers back-invalidation and dirty-drop traffic.
const SEQUENCE: &[&str] = &[
    "table1",
    "table2",
    "area",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "opt_ablation",
    "inclusion_ablation",
];

/// Runs `f` under a wall-clock probe span named `harness.<name>` — a
/// Begin/End pair in the trace plus a `wall_us` histogram entry. Free
/// when the probe is disabled.
fn timed<T>(name: &str, f: impl FnOnce() -> T) -> T {
    match probe::global::global() {
        Some(p) => {
            let _span = p.span("harness", name);
            f()
        }
        None => f(),
    }
}

fn main() {
    // Stderr, so the figure output on stdout stays byte-identical across
    // worker counts.
    eprintln!("paper_figures: {} worker(s)", exp::parallel::worker_count());
    for &name in SEQUENCE {
        for artefact in exp::artefacts::select(name) {
            println!("{}", timed(name, artefact.render));
        }
    }

    // Flush observability output (no-op unless FREAC_TRACE/FREAC_METRICS).
    exp::runner::export_probe_stats();
    if probe::global::enabled() {
        let snapshot = probe::global::global().expect("probe enabled").snapshot();
        probe::assert_ok(&snapshot);
        match probe::global::finish() {
            Ok(Some(paths)) => {
                for p in paths {
                    eprintln!("paper_figures: wrote {}", p.display());
                }
            }
            Ok(None) => {}
            Err(e) => eprintln!("paper_figures: failed to write probe output: {e}"),
        }
    }
}
