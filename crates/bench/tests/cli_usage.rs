//! A bad `--scale` or `--k` is a usage error (exit 2, `cli::EXIT_USAGE`)
//! in every reproduction binary, caught while parsing arguments rather
//! than as a panic inside dataset generation.

use std::process::Command;

fn exit_code(exe: &str, args: &[&str]) -> Option<i32> {
    Command::new(exe).args(args).output().expect("spawn the binary").status.code()
}

#[test]
fn non_positive_or_non_finite_scale_is_a_usage_error() {
    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/cli_usage_data");
    // 1e30 is past the ceiling. Never test a scale such as 1e4..1e9 here:
    // without the ceiling the binary would try to allocate tens to
    // hundreds of GB instead of failing at once.
    for scale in ["0", "-1", "nan", "inf", "1e30"] {
        for (exe, extra) in [
            (env!("CARGO_BIN_EXE_repro"), &["table2"][..]),
            (env!("CARGO_BIN_EXE_verify"), &[][..]),
            (env!("CARGO_BIN_EXE_make-data"), &["--out", out][..]),
        ] {
            let args: Vec<&str> = ["--scale", scale].iter().chain(extra).copied().collect();
            assert_eq!(exit_code(exe, &args), Some(2), "{exe} {args:?}");
        }
    }
}

#[test]
fn k_without_a_paper_dataset_is_a_usage_error() {
    assert_eq!(exit_code(env!("CARGO_BIN_EXE_verify"), &["--k", "22"]), Some(2));
}
