//! `freac-eval` — command-line front end for the evaluation harness.
//!
//! ```text
//! freac-eval all                 # every paper table and figure
//! freac-eval fig12 fig13         # selected artefacts
//! freac-eval ablations           # the design-choice ablations
//! freac-eval list                # what is available
//! ```

use std::process::ExitCode;

use freac_experiments::artefacts::{names, select};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: freac-eval <artefact>... | all | list");
        eprintln!("artefacts: {}", names().join(" "));
        return ExitCode::from(2);
    }
    if args.iter().any(|a| a == "list") {
        for name in names() {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    let requested: Vec<&str> = if args.iter().any(|a| a == "all") {
        vec!["all"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let mut ok = true;
    for name in requested {
        let artefacts = select(name);
        if artefacts.is_empty() {
            eprintln!("unknown artefact '{name}'");
            ok = false;
        }
        for artefact in artefacts {
            println!("{}", (artefact.render)());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
