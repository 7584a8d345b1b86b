//! A plain `repro` run must print each section exactly as the committed
//! `repro_output.txt` records it.
//!
//! Tables I, III, V and VI and the packed-k-mer table are analytic: they
//! come from the device specs and the hash function's operation counts,
//! not from a simulation, so no `--scale` changes them. The ablation and
//! divergence sections are simulated, but both cap their dataset at scale
//! 0.1, so a default run prints the committed full-scale sections. They
//! run the three insert dialects on the A100, the SYCL dialect at four
//! sub-group widths, and each device's native dialect at k = 33.

use std::process::Command;

/// Split `repro` output into its `## ` sections: each title line with the
/// text up to the next title, trailing blank lines dropped.
fn sections(text: &str) -> Vec<(&str, String)> {
    let mut out: Vec<(&str, String)> = Vec::new();
    for line in text.lines() {
        if line.starts_with("## ") {
            out.push((line, String::new()));
        } else if let Some((_, body)) = out.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    for (_, body) in &mut out {
        body.truncate(body.trim_end().len());
    }
    out
}

/// Run `repro` with `args` and require its header line and each of the
/// `n_sections` sections it prints to equal the same-titled section of
/// `repro_output.txt`, naming the section that differs.
fn assert_sections_match(args: &[&str], n_sections: usize) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../repro_output.txt");
    let committed = std::fs::read_to_string(path).expect("read repro_output.txt");
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro");
    assert!(out.status.success(), "repro exited with {}", out.status);
    let printed = String::from_utf8(out.stdout).expect("repro prints UTF-8");

    assert_eq!(printed.lines().next(), committed.lines().next(), "header line");
    let committed = sections(&committed);
    let printed = sections(&printed);
    let titles: Vec<&str> = printed.iter().map(|(t, _)| *t).collect();
    assert_eq!(printed.len(), n_sections, "sections printed: {titles:?}");
    for (title, body) in &printed {
        let Some((_, want)) = committed.iter().find(|(t, _)| t == title) else {
            panic!("section `{title}` is missing from repro_output.txt");
        };
        assert_eq!(body, want, "section `{title}` differs from repro_output.txt");
    }
}

#[test]
fn analytic_sections_match_repro_output() {
    assert_sections_match(&["table1", "table3", "table5", "table6", "packed"], 5);
}

#[test]
fn ablation_and_divergence_sections_match_repro_output() {
    assert_sections_match(&["ablation", "divergence"], 6);
}
