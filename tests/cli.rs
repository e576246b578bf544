//! Integration tests of the `ekg-explain` command-line front end: drives
//! the compiled binary on a temporary program file.

use std::path::PathBuf;
use std::process::Command;

/// A demo program file owned by one test: its name carries the test name
/// and the process id, so tests running in parallel (or concurrent test
/// processes) never share a file, and it is removed when the test ends.
struct DemoFile(PathBuf);

impl DemoFile {
    fn arg(&self) -> &str {
        self.0.to_str().expect("temp path is UTF-8")
    }
}

impl Drop for DemoFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn write_demo(test: &str) -> DemoFile {
    let path = std::env::temp_dir().join(format!(
        "ekg_explain_cli_{test}_{}.vada",
        std::process::id()
    ));
    std::fs::write(
        &path,
        r#"
        o1: own(x, y, s), s > 0.5 -> control(x, y).
        o2: company(x) -> control(x, x).
        o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).

        company("A"). company("B"). company("C").
        own("A", "B", 0.6).
        own("B", "C", 0.3).
        own("A", "C", 0.4).
    "#,
    )
    .expect("write demo program");
    DemoFile(path)
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ekg-explain"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn analyze_prints_reasoning_paths() {
    let demo = write_demo("analyze_prints_reasoning_paths");
    let (ok, stdout, _) = run(&["analyze", demo.arg()]);
    assert!(ok);
    assert!(stdout.contains("recursive"));
    assert!(stdout.contains("{o1,o2,o3}*"));
    assert!(stdout.contains("critical nodes: control"));
}

#[test]
fn chase_lists_derived_goal_facts() {
    let demo = write_demo("chase_lists_derived_goal_facts");
    let (ok, stdout, _) = run(&["chase", demo.arg()]);
    assert!(ok);
    assert!(stdout.contains("control(\"A\",\"C\")"), "{stdout}");
    assert!(stdout.contains("derived"));
}

#[test]
fn explain_produces_complete_text() {
    let demo = write_demo("explain_produces_complete_text");
    let (ok, stdout, _) = run(&["explain", demo.arg(), "--fact", r#"control("A","C")"#]);
    assert!(ok);
    for needle in ["60%", "30%", "40%", "70%"] {
        assert!(stdout.contains(needle), "missing {needle}: {stdout}");
    }
    assert!(!stdout.contains('<'), "unsubstituted token: {stdout}");
}

#[test]
fn templates_render_with_tokens() {
    let demo = write_demo("templates_render_with_tokens");
    let (ok, stdout, _) = run(&["templates", demo.arg()]);
    assert!(ok);
    assert!(stdout.contains('<'));
    assert!(stdout.contains("[{o1}]"));
}

#[test]
fn report_explains_every_derived_fact() {
    let demo = write_demo("report_explains_every_derived_fact");
    let (ok, stdout, _) = run(&["report", demo.arg()]);
    assert!(ok);
    assert!(stdout.starts_with("Business report"));
    assert!(stdout.contains("control(\"A\",\"C\")"), "{stdout}");
    assert!(!stdout.contains('<'), "unsubstituted token: {stdout}");
}

#[test]
fn whynot_explains_absences() {
    let demo = write_demo("whynot_explains_absences");
    let (ok, stdout, _) = run(&["whynot", demo.arg(), "--fact", r#"control("B","A")"#]);
    assert!(ok);
    assert!(stdout.contains("was not derived"), "{stdout}");
    // For a derived fact, it points at `explain` instead.
    let (ok, stdout, _) = run(&["whynot", demo.arg(), "--fact", r#"control("A","B")"#]);
    assert!(ok);
    assert!(stdout.contains("IS derived"), "{stdout}");
}

#[test]
fn dot_outputs_graphviz() {
    let demo = write_demo("dot_outputs_graphviz");
    let (ok, stdout, _) = run(&["dot", demo.arg()]);
    assert!(ok);
    assert!(stdout.starts_with("digraph dependency_graph {"));
    let (ok, stdout, _) = run(&["dot", demo.arg(), "--chase"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph chase_graph {"));
}

#[test]
fn errors_exit_nonzero_with_usage() {
    let (ok, _, stderr) = run(&["explain", "/nonexistent/file.vada", "--fact", "p()"]);
    assert!(!ok);
    assert!(stderr.contains("error:"));
    assert!(stderr.contains("usage:"));
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("missing program file") || stderr.contains("unknown command"));
}

#[test]
fn extensional_fact_query_reports_cleanly() {
    let demo = write_demo("extensional_fact_query_reports_cleanly");
    let (ok, _, stderr) = run(&["explain", demo.arg(), "--fact", r#"own("A","B",0.6)"#]);
    assert!(!ok);
    assert!(stderr.contains("extensional"), "{stderr}");
}
