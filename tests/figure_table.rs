//! Every entry of the figure table renders on a small grid, and every
//! header row names as many levels as the data rows under it carry values.

use ilp_compiler::harness::figures::FIGURES;
use ilp_compiler::harness::grid::{run_grid, GridConfig};
use ilp_compiler::prelude::*;

/// Level names in `cell`, a run of whitespace-separated tokens.
fn level_columns(cell: &str) -> usize {
    cell.split_whitespace()
        .filter(|t| Level::ALL.iter().any(|l| l.name() == *t))
        .count()
}

/// Numeric values in `cell` (`NaN` included).
fn value_columns(cell: &str) -> usize {
    cell.split_whitespace().filter(|t| t.parse::<f64>().is_ok()).count()
}

/// Check every header row of `text` — a `|`-separated cell naming at least
/// two levels — against the rows under it, up to the next blank line or
/// header. Returns the number of header rows seen.
fn check_headers(id: &str, text: &str, levels: usize) -> usize {
    let mut headers = 0;
    // (cell index, level count) of the header the current rows sit under.
    let mut current: Option<(usize, usize)> = None;
    for line in text.lines() {
        let cells: Vec<&str> = line.split('|').collect();
        if let Some((k, n)) =
            cells.iter().map(|c| level_columns(c)).enumerate().find(|&(_, n)| n >= 2)
        {
            assert_eq!(n, levels, "{id}: header {line:?} names {n} of {levels} levels");
            current = Some((k, n));
            headers += 1;
        } else if line.trim().is_empty() {
            current = None;
        } else if let Some((k, n)) = current {
            let got = cells.get(k).map_or(0, |c| value_columns(c));
            assert_eq!(got, n, "{id}: row {line:?} has {got} values under {n} level headers");
        }
    }
    headers
}

#[test]
fn every_figure_header_matches_its_data_columns() {
    for levels in [Level::ALL.to_vec(), vec![Level::Conv, Level::Lev2, Level::Lev4]] {
        let grid = run_grid(&GridConfig {
            scale: 0.02,
            levels: levels.clone(),
            widths: vec![1, 2, 4, 8],
            ..GridConfig::default()
        })
        .expect("grid config rejected");
        assert!(grid.errors.is_empty(), "{:#?}", grid.errors);
        for fig in FIGURES {
            let text = fig.render(&grid);
            assert!(text.starts_with(fig.title), "{}: title missing", fig.id);
            let headers = check_headers(fig.id, &text, levels.len());
            let tables = if fig.id.starts_with("table") { 0 } else { 1 };
            assert!(headers >= tables, "{}: no level header in\n{text}", fig.id);
        }
    }
}
