//! The repo's wall-clock benchmark: see `README.md` beside `Cargo.toml`.
//!
//! `parsim-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its metrics, the last line of standard
//! output being one JSON object. Without `--workload` it runs all four.

mod check;
mod counts;
mod endtoend;
mod flat;
mod layers;
mod report;
mod span;
mod stats;
mod workload;

use std::path::Path;
use std::process::ExitCode;

use workload::{Spec, SPECS};

struct Args {
    workloads: Vec<Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: SPECS.to_vec(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workloads = vec![Spec::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: parsim-benchmark [--workload NAME] [--seed N] [--seconds S] \
                 [--trace 0|1] [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for spec in &args.workloads {
        let spec = if args.smoke { spec.smoke() } else { *spec };
        let report = if args.trace {
            let out = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{}.json", spec.name));
            layers::run(&spec, args.seed, args.seconds, args.smoke, out)
        } else {
            endtoend::run(&spec, args.seed, args.seconds, args.smoke)
        };
        all_correct &= report.correct();
        print!("{}", report.table());
        println!("{}", report.json());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values inside the array that `key` opens in
    /// `BENCHMARK.json`, in order.
    fn names_under(json: &str, key: &str) -> Vec<String> {
        let from = json.find(&format!("\"{key}\"")).expect(key);
        let section = &json[from..];
        let section = &section[..section.find(']').expect("array end")];
        section
            .split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("name value").to_owned())
            .collect()
    }

    /// The driver refuses a run whose metrics are not exactly the ones the
    /// manifest lists, so the two tables may not drift apart.
    #[test]
    fn manifest_lists_what_the_runs_print() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let names =
            |table: &[(&str, &str)]| table.iter().map(|t| t.0.to_owned()).collect::<Vec<_>>();
        assert_eq!(names_under(&json, "end_to_end"), names(&endtoend::METRICS));
        assert_eq!(names_under(&json, "per_layer"), names(&layers::METRICS));
        let workloads: Vec<String> = SPECS.iter().map(|s| s.name.to_owned()).collect();
        assert_eq!(names_under(&json, "workloads"), workloads);
        for (name, unit) in endtoend::METRICS.iter().chain(&layers::METRICS) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} is listed with unit {unit}"
            );
        }
    }
}
