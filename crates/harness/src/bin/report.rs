//! Full evaluation report: every table and figure of the paper in one run.
//!
//! ```text
//! cargo run --release -p ilpc-harness --bin report [-- --scale 1.0 --threads N --only ID ...]
//! ```
//!
//! `--only ID` (repeatable) prints just the named entries of
//! `figures::FIGURES`, in table order.

use ilpc_harness::figures::{Figure, FIGURES};
use ilpc_harness::grid::{run_grid, GridConfig};

#[derive(Debug)]
struct Args {
    cfg: GridConfig,
    /// Ids named by `--only`; empty selects every figure.
    only: Vec<String>,
}

impl Args {
    fn selected(&self) -> impl Iterator<Item = &'static Figure> + '_ {
        FIGURES
            .iter()
            .filter(|f| self.only.is_empty() || self.only.iter().any(|id| id == f.id))
    }
}

fn usage() -> String {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    format!(
        "usage: report [--scale F] [--threads N] [--only ID]...\n  ID: {}",
        ids.join(", ")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { cfg: GridConfig::default(), only: Vec::new() };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--scale" => {
                let v = value()?;
                parsed.cfg.scale = v.parse().map_err(|_| format!("bad --scale {v:?}"))?;
            }
            "--threads" => {
                let v = value()?;
                parsed.cfg.threads = v.parse().map_err(|_| format!("bad --threads {v:?}"))?;
            }
            "--only" => {
                let id = value()?;
                if !FIGURES.iter().any(|f| f.id == id) {
                    return Err(format!("unknown --only id {id:?}"));
                }
                parsed.only.push(id.clone());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("report: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let cfg = &args.cfg;
    eprintln!(
        "running grid: 40 loops x {} levels x {:?} (scale {})...",
        cfg.levels.len(),
        cfg.widths,
        cfg.scale
    );
    let grid = match run_grid(cfg) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("CONFIG ERROR: {e}");
            std::process::exit(2);
        }
    };
    if !grid.errors.is_empty() {
        eprintln!("EVALUATION ERRORS:");
        for e in &grid.errors {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
    for fig in args.selected() {
        println!("{}", fig.render(&grid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn ids(args: &Args) -> Vec<&'static str> {
        args.selected().map(|f| f.id).collect()
    }

    #[test]
    fn no_arguments_select_every_figure() {
        let args = parse(&[]).unwrap();
        assert_eq!(ids(&args).len(), FIGURES.len());
        assert_eq!(args.cfg.scale, GridConfig::default().scale);
    }

    #[test]
    fn missing_value_is_an_error() {
        for flag in ["--scale", "--threads", "--only"] {
            let e = parse(&[flag]).unwrap_err();
            assert!(e.contains(flag), "{e}");
        }
        assert!(parse(&["--scale", "big"]).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let e = parse(&["--scale", "0.1", "--fast"]).unwrap_err();
        assert!(e.contains("--fast"), "{e}");
    }

    #[test]
    fn unknown_id_is_an_error() {
        let e = parse(&["--only", "fig16"]).unwrap_err();
        assert!(e.contains("fig16"), "{e}");
    }

    #[test]
    fn repeated_only_selects_each_named_figure_in_table_order() {
        let args = parse(&["--only", "summary", "--scale", "0.5", "--only", "fig10"]).unwrap();
        assert_eq!(ids(&args), ["fig10", "summary"]);
        assert_eq!(args.cfg.scale, 0.5);
    }

    #[test]
    fn usage_lists_every_id() {
        let u = usage();
        assert!(FIGURES.iter().all(|f| u.contains(f.id)), "{u}");
    }
}
