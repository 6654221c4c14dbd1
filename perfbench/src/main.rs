//! `alvc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload and prints, last on stdout, one JSON line
//! with `correct`, `attempted`, `failed` and `metrics`. Earlier lines
//! carry the host fingerprint and the intent mix the run produced.

use std::process::{Command, ExitCode};

use alvc_perfbench::metrics::result_line;
use alvc_perfbench::workloads::{run, Args, WORKLOADS};

fn usage() -> String {
    format!(
        "usage: alvc-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        traced: traced.unwrap_or(false),
    })
}

/// First line of a command's stdout, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        // Keep git from searching above the working directory.
        .env(
            "GIT_CEILING_DIRECTORIES",
            std::env::current_dir()
                .ok()
                .and_then(|d| d.parent().map(|p| p.display().to_string()))
                .unwrap_or_default(),
        )
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn fingerprint(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut features = Vec::new();
    if cfg!(feature = "parallel") {
        features.push("\"parallel\"");
    }
    if cfg!(feature = "telemetry") {
        features.push("\"telemetry\"");
    }
    format!(
        "{{\"fingerprint\":{{\"nproc\":{nproc},\"rustc\":\"{}\",\"git_commit\":\"{}\",\"features\":[{}],\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}}}}}",
        first_line("rustc", &["-V"]),
        first_line("git", &["rev-parse", "HEAD"]),
        features.join(","),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!("{}", fingerprint(&args));
    let outcome = run(&args);
    println!("{}", result_line(&outcome, args.traced));
    ExitCode::SUCCESS
}
