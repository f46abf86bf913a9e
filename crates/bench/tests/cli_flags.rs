//! A figure binary refuses a flag it does not take instead of running
//! as if it had not been given.

use std::process::Command;

#[test]
fn unknown_flag_exits_2_with_a_usage_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig7"))
        .arg("--quick")
        .output()
        .expect("spawn fig7");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument --quick"), "{stderr}");
    assert!(stderr.contains("usage: "), "{stderr}");
}
