//! Regenerate the paper's tables, figures and ablations.
//!
//! `paper` runs every artifact of [`sepo_bench::paper::ARTIFACTS`];
//! `paper figure6 table3` runs only those named. Each prints its table and
//! writes `results/<name>.json`. `SEPO_SCALE` (default 256) sets the 1/N
//! capacity and dataset scale. The application × dataset sweep that
//! Figures 6 and 7, Table II and the sensitivity study share runs once,
//! and only when one of them is asked for.

use sepo_bench::paper::{Input, Sweep, ARTIFACTS};
use std::cell::OnceCell;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&(&str, Input)> = if names.is_empty() {
        ARTIFACTS.iter().collect()
    } else {
        names
            .iter()
            .map(|name| {
                ARTIFACTS
                    .iter()
                    .find(|(n, _)| n == name)
                    .unwrap_or_else(|| usage(name))
            })
            .collect()
    };
    let scale = sepo_bench::scale();
    let sweep = OnceCell::new();
    for (name, input) in selected {
        let artifact = match input {
            Input::Scale(f) => f(scale),
            Input::Sweep(f) => f(sweep.get_or_init(|| Sweep::run(scale))),
        };
        println!("{}", artifact.text);
        sepo_bench::write_json(name, &artifact.json);
    }
}

fn usage(unknown: &str) -> ! {
    let names: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
    eprintln!("paper: unknown artifact `{unknown}`");
    eprintln!("usage: paper [ARTIFACT...]   (none = all)");
    eprintln!("artifacts: {}", names.join(" "));
    std::process::exit(1);
}
