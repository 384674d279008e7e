//! `bench_compare` — diff a fresh `BENCH_*.json` against the
//! checked-in baseline and flag regressions, with no external
//! dependencies (the JSON is parsed with a scanner matched to
//! [`eps_bench::timing::to_json`]'s output — no jq, no serde).
//!
//! ```text
//! bench_compare [--threshold PCT] [--strict] [--advisory-prefix PREFIX]...
//!               BASELINE CURRENT [BASELINE CURRENT ...]
//! ```
//!
//! Prints a delta table per file pair. A benchmark regresses when its
//! current median exceeds the baseline median by more than
//! `--threshold` percent (default 10). In advisory mode (the default,
//! used by `scripts/tier1.sh`) regressions are reported but the exit
//! code stays zero — wall-clock benches on shared machines are too
//! noisy to gate CI hard; `--strict` exits non-zero instead.
//! `--advisory-prefix` demotes matching benchmark names to
//! advisory-only even under `--strict` — for entries (like the
//! one-shot topology builds) whose single-iteration timings are too
//! coarse to gate hard. A benchmark new in the current run is listed
//! but never fails the comparison. A gated baseline benchmark missing
//! from the current run counts as a regression, so a gated bench
//! cannot vanish unnoticed; retiring one means deleting its baseline
//! entry.

use std::process::ExitCode;

/// One `{"name": ..., "median_ns": ...}` entry.
struct Entry {
    name: String,
    median_ns: f64,
}

/// Extracts the string value following `key` at `pos` in `line`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}', '"']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Parses the benchmark entries out of a `to_json`-shaped file: one
/// object per line, each carrying `"name"` and `"median_ns"` fields.
fn parse(path: &str) -> Result<Vec<Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name) = field(line, "\"name\": \"") else {
            continue;
        };
        let Some(median) = field(line, "\"median_ns\": ") else {
            continue;
        };
        let median_ns: f64 = median
            .parse()
            .map_err(|e| format!("{path}: bad median_ns for {name}: {e}"))?;
        out.push(Entry {
            name: name.to_owned(),
            median_ns,
        });
    }
    if out.is_empty() {
        return Err(format!("{path}: no benchmark entries found"));
    }
    Ok(out)
}

/// Compares one baseline/current pair; returns the regressed names:
/// gated entries slower by more than the threshold, and gated
/// baseline entries missing from the current run. Names matching an
/// advisory prefix are reported but never returned.
fn compare(
    baseline: &[Entry],
    current: &[Entry],
    threshold_pct: f64,
    advisory_prefixes: &[String],
) -> Vec<String> {
    let mut regressions = Vec::new();
    println!(
        "  {:<40} {:>14} {:>14} {:>9}",
        "benchmark", "baseline ns", "current ns", "delta"
    );
    for b in baseline {
        let advisory = advisory_prefixes.iter().any(|p| b.name.starts_with(p));
        let Some(c) = current.iter().find(|c| c.name == b.name) else {
            let flag = if advisory {
                ""
            } else {
                regressions.push(b.name.clone());
                "  MISSING"
            };
            println!(
                "  {:<40} {:>14.1} {:>14} {:>9}{}",
                b.name, b.median_ns, "-", "gone", flag
            );
            continue;
        };
        let delta_pct = (c.median_ns - b.median_ns) / b.median_ns * 100.0;
        let flag = if delta_pct > threshold_pct {
            if advisory {
                "  regressed (advisory)"
            } else {
                regressions.push(b.name.clone());
                "  REGRESSED"
            }
        } else {
            ""
        };
        println!(
            "  {:<40} {:>14.1} {:>14.1} {:>+8.1}%{}",
            b.name, b.median_ns, c.median_ns, delta_pct, flag
        );
    }
    for c in current {
        if !baseline.iter().any(|b| b.name == c.name) {
            println!(
                "  {:<40} {:>14} {:>14.1} {:>9}",
                c.name, "-", c.median_ns, "new"
            );
        }
    }
    regressions
}

fn main() -> ExitCode {
    let mut threshold_pct = 10.0;
    let mut strict = false;
    let mut advisory_prefixes: Vec<String> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threshold" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => threshold_pct = v,
                None => {
                    eprintln!("error: --threshold needs a percentage");
                    return ExitCode::FAILURE;
                }
            },
            "--strict" => strict = true,
            "--advisory-prefix" => match iter.next() {
                Some(p) => advisory_prefixes.push(p.clone()),
                None => {
                    eprintln!("error: --advisory-prefix needs a benchmark-name prefix");
                    return ExitCode::FAILURE;
                }
            },
            other if !other.starts_with('-') => files.push(other.to_owned()),
            other => {
                eprintln!(
                    "usage: bench_compare [--threshold PCT] [--strict] \
                     [--advisory-prefix PREFIX]... BASELINE CURRENT ...   \
                     (unknown arg '{other}')"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if files.is_empty() || !files.len().is_multiple_of(2) {
        eprintln!(
            "usage: bench_compare [--threshold PCT] [--strict] \
             [--advisory-prefix PREFIX]... BASELINE CURRENT ..."
        );
        return ExitCode::FAILURE;
    }

    let mut regressions = Vec::new();
    for pair in files.chunks(2) {
        let (baseline, current) = match (parse(&pair[0]), parse(&pair[1])) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "comparing {} against {} (threshold {threshold_pct}%):",
            pair[1], pair[0]
        );
        regressions.extend(compare(
            &baseline,
            &current,
            threshold_pct,
            &advisory_prefixes,
        ));
    }
    if regressions.is_empty() {
        println!("no regressions beyond {threshold_pct}%");
        ExitCode::SUCCESS
    } else {
        println!(
            "{} regression(s) beyond {threshold_pct}% or missing: {}",
            regressions.len(),
            regressions.join(", ")
        );
        if strict {
            ExitCode::FAILURE
        } else {
            println!("(advisory mode: not failing; pass --strict to gate)");
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, median_ns: f64) -> Entry {
        Entry {
            name: name.to_owned(),
            median_ns,
        }
    }

    #[test]
    fn a_missing_gated_entry_is_a_regression() {
        let baseline = [entry("engine_schedule_pop", 80.0), entry("rng", 3.0)];
        let current = [entry("rng", 3.0)];
        assert_eq!(
            compare(&baseline, &current, 25.0, &[]),
            vec!["engine_schedule_pop".to_owned()]
        );
    }

    #[test]
    fn a_missing_advisory_entry_and_a_new_entry_pass() {
        let baseline = [entry("topology_build/n10", 1e6), entry("rng", 3.0)];
        let current = [entry("rng", 3.0), entry("brand_new", 9.0)];
        let advisory = ["topology_build".to_owned()];
        assert!(compare(&baseline, &current, 25.0, &advisory).is_empty());
    }
}
