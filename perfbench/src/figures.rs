//! The `figures` workload: the `examples/paper_figures` sequence, cold, in
//! a fresh process — Tables I–II, area, Fig. 8–15 and the two ablations,
//! each rendered to text.

use std::time::Instant;

use freac_core::SlicePartition;
use freac_experiments::render::TextTable;
use freac_experiments::runner::{best_freac_run, mapping_cache_stats};
use freac_experiments::{
    ablations, area, fig08, fig09, fig10, fig11, fig12, fig13, fig14, fig15, tables,
};
use freac_kernels::{all_kernels, kernel, BATCH};

use crate::stats::{nearest_rank, sorted};
use crate::{peak_rss_mb, pipeline, Iteration, Metrics};

/// The paper's headline figures, in the order [`headline_geomeans`]
/// returns them: Fig. 12 speedup vs 1 and 8 threads and perf/W vs 8
/// threads (8.2x, 3x, 6.1x), then Fig. 14's advantage over 8 and 16
/// embedded cores (~4x, ~2x).
pub const PAPER_HEADLINES: [f64; 5] = [8.2, 3.0, 6.1, 4.0, 2.0];

/// Mean absolute relative error of `measured` against
/// [`PAPER_HEADLINES`], in percent.
pub fn paper_err_pct(measured: [f64; 5]) -> f64 {
    let sum: f64 = measured
        .iter()
        .zip(PAPER_HEADLINES)
        .map(|(m, p)| ((m - p) / p).abs())
        .sum();
    100.0 * sum / PAPER_HEADLINES.len() as f64
}

/// Collects a [`headline_geomeans`]-ordered array from the two figures.
fn headlines(f12: &fig12::Fig12, f14: &fig14::Fig14) -> [f64; 5] {
    let (vs1, vs8, ppw) = f12.geomeans();
    let (ec8, ec16) = f14.geomean_advantage();
    [vs1, vs8, ppw, ec8, ec16]
}

/// The five headline geomeans, computed from scratch.
pub fn headline_geomeans() -> [f64; 5] {
    headlines(&fig12::run(), &fig14::run())
}

/// Runs `f`, adding its wall time (ms) to `name` when `traced`.
fn span<T>(traced: bool, layers: &mut Metrics, name: &'static str, f: impl FnOnce() -> T) -> T {
    if !traced {
        return f();
    }
    let t = Instant::now();
    let out = f();
    layers.add(name, t.elapsed().as_secs_f64() * 1e3);
    out
}

/// Runs one cold iteration of the figure sequence.
pub fn run(traced: bool) -> Iteration {
    let mut it = Iteration::default();

    // Set-up: build the eleven kernel circuits the figures map.
    let t0 = Instant::now();
    let gates: usize = all_kernels()
        .iter()
        .map(|&id| std::hint::black_box(kernel(id).circuit()).nodes().len())
        .sum();
    it.e2e.set("setup_s", t0.elapsed().as_secs_f64());
    if gates == 0 {
        return it.fail("kernel circuits are empty".into());
    }

    let l = &mut it.layers;
    let t1 = Instant::now();
    let mut rendered: Vec<TextTable> = vec![tables::table1(), tables::table2()];
    rendered.push(span(traced, l, "fig.area_ms", area::area_report));
    rendered.push(span(traced, l, "fig.fig08_ms", || fig08::run().table()));
    rendered.push(span(traced, l, "fig.fig09_ms", || fig09::run().table()));
    rendered.push(span(traced, l, "fig.fig10_ms", || fig10::run().table()));
    rendered.push(span(traced, l, "fig.fig11_ms", || fig11::run().table()));
    let f12 = span(traced, l, "fig.fig12_ms", fig12::run);
    rendered.extend([
        f12.speedup_table(),
        f12.power_table(),
        f12.perf_per_watt_table(),
    ]);
    rendered.push(span(traced, l, "fig.fig13_ms", || fig13::run().table()));
    let f14 = span(traced, l, "fig.fig14_ms", fig14::run);
    rendered.push(f14.table());
    rendered.push(span(traced, l, "fig.fig15_ms", || fig15::run().table()));
    rendered.push(span(traced, l, "fig.opt_ablation_ms", || {
        ablations::netlist_opt().table()
    }));
    rendered.push(span(traced, l, "fig.inclusion_ablation_ms", || {
        ablations::inclusion().table()
    }));
    let text: usize = rendered.iter().map(|t| t.to_string().len()).sum();
    std::hint::black_box(text);
    it.e2e.set("run_s", t1.elapsed().as_secs_f64());
    if let Some(mb) = peak_rss_mb() {
        it.e2e.set("peak_rss_mb", mb);
    }
    let (hits, misses) = mapping_cache_stats();

    // Checks: every table has rows, every headline is finite.
    it.attempted = rendered.len() as u64;
    let empty = rendered.iter().filter(|t| t.is_empty()).count();
    if empty > 0 {
        it.failed += empty as u64;
        it.errors.push(format!("{empty} rendered tables are empty"));
    }
    let geomeans = headlines(&f12, &f14);
    if let Some(g) = geomeans.iter().find(|g| !g.is_finite()) {
        it.failed += 1;
        it.errors.push(format!("non-finite headline geomean {g}"));
    }
    it.e2e.set("paper_err_pct", paper_err_pct(geomeans));

    // The figures' own simulated offloads: the 8-slice FReaC kernel runs
    // Fig. 14 compares (warm mapping cache, outside the timed window),
    // and the share of Fig. 12's (kernel, slice count) cells that mapped.
    let mut times_us = Vec::new();
    let mut items = 0.0;
    for id in all_kernels() {
        match best_freac_run(id, SlicePartition::end_to_end(), 8) {
            Ok(b) => {
                times_us.push(b.run.kernel_time_ps as f64 / 1e6);
                items += kernel(id).workload(BATCH).items as f64;
            }
            Err(e) => {
                it.failed += 1;
                it.errors.push(format!("{} at 8 slices: {e}", id.name()));
            }
        }
    }
    let times_us = sorted(times_us);
    it.e2e
        .set("sim_throughput_mrps", items / times_us.iter().sum::<f64>());
    if let (Some(p50), Some(p99)) = (nearest_rank(&times_us, 0.5), nearest_rank(&times_us, 0.99)) {
        it.e2e.set("sim_p50_us", p50.value);
        it.e2e.set("sim_p99_us", p99.value);
        it.latency_samples = p99.samples as u64;
    }
    let cells: Vec<bool> = f12
        .rows
        .iter()
        .flat_map(|r| r.freac.iter().map(Option::is_some))
        .collect();
    it.e2e.set(
        "completed_frac",
        cells.iter().filter(|&&ok| ok).count() as f64 / cells.len().max(1) as f64,
    );

    if traced {
        it.layers.set("fig.map_cache_misses", misses as f64);
        it.layers.set(
            "fig.map_cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        pipeline::map_kernels(&all_kernels(), &mut it.layers);
    }
    it
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_err_pct_on_the_five_headlines() {
        // The repo's headlines against 8.2/3/6.1/~4/~2: relative errors
        // 16.34%, 14.67%, 0.98%, 175.75%, 176.00%.
        let err = paper_err_pct([9.54, 2.56, 6.04, 11.03, 5.52]);
        let expected =
            100.0 * (1.34 / 8.2 + 0.44 / 3.0 + 0.06 / 6.1 + 7.03 / 4.0 + 3.52 / 2.0) / 5.0;
        assert!((err - expected).abs() < 1e-9, "{err} vs {expected}");
        assert!((err - 76.748).abs() < 1e-3, "{err}");
        assert_eq!(paper_err_pct(PAPER_HEADLINES), 0.0);
    }
}
