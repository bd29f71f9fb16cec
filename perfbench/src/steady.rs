//! The steadiness command: runs each workload several times, each with
//! another seed, and prints for every metric the median, the quartiles and
//! the spread against the bound `BENCHMARK.json` sets for it.

use crate::stats::quartiles;
use server::json::{self, Json};
use std::collections::BTreeMap;
use std::process::Command;

/// Bounds by metric name, from `BENCHMARK.json` in the working directory.
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else { return BTreeMap::new() };
    let Ok(v) = json::parse(&text) else { return BTreeMap::new() };
    v.get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| Some((m.str_field("name")?.to_string(), m.get("bound")?.as_f64()?)))
        .collect()
}

/// Runs `exe` (this benchmark) `runs` times per workload with seeds
/// `first_seed..`, passing `extra` through, and prints the table.
pub fn run(
    exe: &std::path::Path,
    workloads: &[String],
    runs: u64,
    first_seed: u64,
    extra: &[String],
) -> Result<bool, String> {
    let bounds = bounds();
    let mut steady = true;
    for w in workloads {
        let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        let mut shares = Vec::new();
        for seed in first_seed..first_seed + runs {
            let out = Command::new(exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(extra)
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let v = json::parse(last).map_err(|e| format!("{w} seed {seed}: {e}: {last}"))?;
            if !out.status.success() || v.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(format!("{w} seed {seed} failed: {last}"));
            }
            let attempted = v.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            let failed = v.get("failed").and_then(Json::as_u64).unwrap_or(0);
            shares.push(format!("{failed}/{attempted}"));
            let Some(Json::Obj(metrics)) = v.get("metrics") else {
                return Err(format!("{w} seed {seed}: no metrics"));
            };
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.str_field("unit").unwrap_or_default().to_string();
                values.entry(name.clone()).or_insert((unit, Vec::new())).1.push(value);
            }
            eprintln!("{w} seed {seed}: {last}");
        }
        println!("\n{w}: {runs} runs, seeds {first_seed}..{}", first_seed + runs - 1);
        println!("  failed/attempted per run: {}", shares.join(" "));
        println!(
            "  {:<36} {:>6} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
            "metric", "unit", "q1", "median", "q3", "spread", "bound"
        );
        for (name, (unit, v)) in &values {
            let [q1, med, q3] = quartiles(v);
            let spread = if med != 0.0 { (q3 - q1) / med.abs() } else { 0.0 };
            let (bound, verdict) = match bounds.get(name) {
                None => (String::new(), ""),
                Some(&b) if name == "setup_s" => (format!("{b}"), "not gated"),
                Some(&b) if spread < b / 3.0 => (format!("{b}"), "steady"),
                Some(&b) if spread <= b => {
                    steady = false;
                    (format!("{b}"), "within bound, above a third")
                }
                Some(&b) => {
                    steady = false;
                    (format!("{b}"), "WIDER THAN BOUND")
                }
            };
            println!(
                "  {name:<36} {unit:>6} {q1:>12.4} {med:>12.4} {q3:>12.4} {spread:>8.4} {bound:>6}  {verdict}"
            );
        }
    }
    Ok(steady)
}
