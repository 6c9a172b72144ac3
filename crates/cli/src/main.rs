//! The `roadseg` binary: parse arguments, dispatch, print.

use std::process::ExitCode;

use sf_cli::{commands, Args, CliError, USAGE};

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") || raw.is_empty() {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&raw) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        // Usage help is only useful when the command line itself was the
        // problem; runtime failures (I/O, divergence) print just the error.
        Err(CliError::Args(e)) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse(raw)?;
    match args.command.as_str() {
        "generate" => commands::generate(&args),
        "train" => commands::train(&args),
        "eval" => commands::eval(&args),
        "infer" => commands::infer(&args),
        "info" => commands::info(&args),
        "plan" => commands::plan(&args),
        "quantize" => commands::quantize(&args),
        "fleet-bench" => commands::fleet_bench(&args),
        "chaos" => commands::chaos(&args),
        "soak" => commands::soak(&args),
        other => Err(CliError::Invalid(format!("unknown command {other:?}"))),
    }
}
