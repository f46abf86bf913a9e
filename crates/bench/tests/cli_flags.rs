//! A figure or table binary refuses a flag it does not take instead of
//! running as if it had not been given.

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

/// `table1` and `table2` take no arguments, so they refuse even the
/// flags every figure binary takes, and write nothing.
#[test]
fn tables_refuse_every_argument() {
    for (table, bin) in [
        ("table1", env!("CARGO_BIN_EXE_table1")),
        ("table2", env!("CARGO_BIN_EXE_table2")),
    ] {
        let metrics =
            std::env::temp_dir().join(format!("vstack-cli-{}-{table}.json", std::process::id()));
        let out = Command::new(bin)
            .args(["--metrics-out", metrics.to_str().unwrap(), "--bogus"])
            .output()
            .unwrap_or_else(|e| panic!("spawn {table}: {e}"));
        assert_eq!(out.status.code(), Some(2), "{table}: {out:?}");
        assert!(out.stdout.is_empty(), "{table}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown argument --metrics-out"),
            "{stderr}"
        );
        assert!(stderr.contains("usage: "), "{stderr}");
        assert!(!metrics.exists(), "{table} wrote {}", metrics.display());
    }
}
