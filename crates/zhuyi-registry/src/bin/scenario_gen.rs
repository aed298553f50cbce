//! `scenario_gen` — expand a generator config into `.scn` files.
//!
//! ```text
//! scenario_gen --config corpus.gen --out generated/
//! scenario_gen --config corpus.gen --list
//! ```
//!
//! Expansion is deterministic: the same config (and, for fuzz configs, the
//! seed inside it) always produces byte-identical files, so a generated
//! corpus is fully replayable — commit the config, not the output.

use std::path::PathBuf;
use std::process::ExitCode;

use zhuyi_registry::GeneratorConfig;

const USAGE: &str = "\
Usage: scenario_gen --config <file.gen> (--out <dir> | --list)

Options:
  --config <path>   Generator config (required)
  --out <dir>       Write one .scn file per generated scenario
  --list            Print generated scenario names without writing
  -h, --help        Print this text
";

#[derive(Debug, Default)]
struct Args {
    config: Option<PathBuf>,
    out: Option<PathBuf>,
    list: bool,
}

/// The parsed command line; `Err` carries a usage error, or nothing for
/// `--help`.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--config" => args.config = Some(PathBuf::from(value("--config")?)),
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--list" => args.list = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.config.is_none() {
        return Err("--config is required".to_string());
    }
    if args.out.is_none() && !args.list {
        return Err("one of --out or --list is required".to_string());
    }
    Ok(args)
}

fn file_name(name: &str) -> String {
    let safe: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{safe}.scn")
}

fn run(args: &Args) -> Result<(), String> {
    let config = args.config.as_ref().expect("validated");
    let defs = GeneratorConfig::expand_file(config).map_err(|e| e.to_string())?;
    if args.list {
        for def in &defs {
            println!("{}", def.name);
        }
        return Ok(());
    }
    let out = args.out.as_ref().expect("validated");
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    for def in &defs {
        let path = out.join(file_name(&def.name));
        std::fs::write(&path, def.to_text())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!(
        "wrote {} scenario definition(s) to {}",
        defs.len(),
        out.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) if message.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
