//! The headline geomeans quoted in README.md and EXPERIMENTS.md must be the
//! ones the figure harness prints, formatted the same way, so a stale
//! headline fails the suite instead of drifting silently.

use std::path::Path;

use freac::experiments::{fig12, fig14};

/// The five headline geomeans as `paper_figures` prints them: Fig. 12's
/// speedup vs 1 and 8 CPU threads and perf/W, then Fig. 14's advantage
/// over 8 and 16 embedded cores.
fn headlines() -> Vec<String> {
    let (vs1, vs8, ppw) = fig12::run().geomeans();
    let (vs_ec8, vs_ec16) = fig14::run().geomean_advantage();
    [vs1, vs8, ppw, vs_ec8, vs_ec16]
        .iter()
        .map(|g| format!("{g:.2}x"))
        .collect()
}

/// Whether `text` quotes `number` as a whole number, not as the tail of a
/// longer one (`2.56x` must not match inside `12.56x`).
fn quotes(text: &str, number: &str) -> bool {
    text.match_indices(number)
        .any(|(i, _)| !text[..i].ends_with(|c: char| c.is_ascii_digit() || c == '.'))
}

#[test]
fn readme_and_experiments_quote_the_printed_geomeans() {
    let headlines = headlines();
    for doc in ["README.md", "EXPERIMENTS.md"] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(doc);
        let text = std::fs::read_to_string(&path).expect("doc is readable");
        for h in &headlines {
            assert!(quotes(&text, h), "{doc} does not quote the headline {h}");
        }
    }
}

#[test]
fn a_longer_number_does_not_count_as_a_quote() {
    assert!(quotes("| 2.56x |", "2.56x"));
    assert!(!quotes("| 12.56x |", "2.56x"));
    assert!(!quotes("| 1.2.56x |", "2.56x"));
}
