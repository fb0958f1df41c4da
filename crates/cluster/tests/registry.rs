//! The metric declarations themselves: every family is declared once,
//! and the README's metrics table and schema tags are the registry's.

use std::path::Path;

use kdv_telemetry::registry::{CLUSTER_SCHEMA, SERVE_SCHEMA};
use kdv_telemetry::{Declared, Family, Kind, Unit};

/// `(block, JSON key, family)` for every row of a document.
fn rows(tables: &[&dyn Declared]) -> Vec<(&'static str, &'static str, Family)> {
    tables
        .iter()
        .flat_map(|t| t.rows().into_iter().map(|(key, f)| (t.block(), key, f)))
        .collect()
}

fn shard() -> Vec<(&'static str, &'static str, Family)> {
    rows(&kdv_server::metric_tables())
}

fn router() -> Vec<(&'static str, &'static str, Family)> {
    rows(&kdv_cluster::metrics::metric_tables())
}

#[test]
fn every_json_key_and_family_is_declared_once() {
    for set in [shard(), router()] {
        for (i, (block, key, f)) in set.iter().enumerate() {
            assert!(
                !set[..i].iter().any(|(b, k, _)| b == block && k == key),
                "JSON key {block}.{key} declared twice"
            );
            if f.name.is_empty() {
                continue;
            }
            // Rows sharing a name are the labelled members of one
            // family: same block, same header, distinct label values.
            for (b, k, g) in set[..i].iter().filter(|(_, _, g)| g.name == f.name) {
                assert_eq!(b, block, "{} spans blocks {b} and {block}", f.name);
                assert!(
                    (g.help, g.kind, g.unit, g.label) == (f.help, f.kind, f.unit, f.label),
                    "{} declared differently at {b}.{k} and {block}.{key}",
                    f.name
                );
                assert!(
                    !f.label.is_empty() && g.member != f.member,
                    "{} member {:?} declared twice ({b}.{k}, {block}.{key})",
                    f.name,
                    f.member
                );
            }
        }
    }
    let shard = shard();
    for (_, _, f) in router().iter().filter(|(_, _, f)| !f.name.is_empty()) {
        assert!(
            !shard.iter().any(|(_, _, g)| g.name == f.name),
            "{} is declared by both the shard and the router",
            f.name
        );
    }
}

/// The README metrics table: one line per Prometheus family (its JSON
/// keys listed together), one per JSON-only metric.
fn markdown_table(tables: &[&dyn Declared]) -> String {
    let mut lines: Vec<(Family, Vec<String>)> = Vec::new();
    for table in tables {
        for (key, family) in table.rows() {
            let path = match table.block() {
                "" => format!("`{key}`"),
                block => format!("`{block}.{key}`"),
            };
            match lines
                .iter_mut()
                .find(|(f, _)| !family.name.is_empty() && f.name == family.name)
            {
                Some((_, keys)) => keys.push(path),
                None => lines.push((family, vec![path])),
            }
        }
    }
    let mut out =
        String::from("| family | kind | unit | labels | JSON key |\n|---|---|---|---|---|\n");
    for (f, keys) in lines {
        let name = match f.name {
            "" => "—".to_string(),
            name => format!("`{name}`"),
        };
        let kind = match f.kind {
            Kind::Ratio { num, rest } => format!("ratio {num}/({num}+{rest})"),
            _ => f.type_name().to_string(),
        };
        let unit = match f.unit {
            Unit::None => "",
            Unit::Bytes => "bytes",
            Unit::Ns => "ns (s)",
            Unit::Us => "µs (s)",
            Unit::Ms => "ms (s)",
        };
        let label = match f.label {
            "" => String::new(),
            label => format!("`{label}`"),
        };
        out.push_str(&format!(
            "| {name} | {kind} | {unit} | {label} | {} |\n",
            keys.join(", ")
        ));
    }
    out
}

const BEGIN: &str = "<!-- metrics-table:begin -->\n";
const END: &str = "<!-- metrics-table:end -->";

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn readme_metrics_table_is_rendered_from_the_registry() {
    let expected = format!(
        "Shard `/metrics` (`{SERVE_SCHEMA}`):\n\n{}\nRouter `/metrics` (`{CLUSTER_SCHEMA}`; \
         its `rollup` repeats the shard's `http`, `cache` and `ingest` keys):\n\n{}",
        markdown_table(&kdv_server::metric_tables()),
        markdown_table(&kdv_cluster::metrics::metric_tables()),
    );
    let readme = repo_file("README.md");
    let start = readme
        .find(BEGIN)
        .expect("README has the table's begin marker")
        + BEGIN.len();
    let end = readme.find(END).expect("README has the table's end marker");
    assert!(
        readme[start..end] == expected,
        "README metrics table is stale; between the markers it should read:\n{expected}"
    );

    for (doc, text) in [
        ("README.md", readme.clone()),
        ("DESIGN.md", repo_file("DESIGN.md")),
        (
            ".claude/skills/verify/SKILL.md",
            repo_file(".claude/skills/verify/SKILL.md"),
        ),
    ] {
        for (family, schema) in [
            ("kdv-serve-metrics/", SERVE_SCHEMA),
            ("kdv-cluster-metrics/", CLUSTER_SCHEMA),
        ] {
            for (at, _) in text.match_indices(family) {
                let tag: String = text[at..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '/')
                    .collect();
                assert_eq!(tag, schema, "{doc} names schema {tag}");
            }
        }
    }
}
