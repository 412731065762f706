//! Command-line helpers shared by the harness binaries.

use crate::grid::check_scale;

/// The value of the `--scale F` flag in `args`, or `default` when the flag
/// is absent. A missing, non-numeric, non-finite or non-positive value is
/// an error, by the rule of [`crate::grid::GridConfigError::BadScale`].
fn parse_scale(args: &[String], default: f64) -> Result<f64, String> {
    let Some(k) = args.iter().position(|a| a == "--scale") else {
        return Ok(default);
    };
    let v = args.get(k + 1).ok_or("--scale needs a value")?;
    let scale = v.parse().map_err(|_| format!("bad --scale {v:?}"))?;
    check_scale(scale).map_err(|e| format!("bad --scale {v:?}: {e}"))
}

/// [`parse_scale`] for a binary's `main`: on a bad value, print the error
/// and `usage` to stderr and exit with status 2.
pub fn scale_or_exit(args: &[String], default: f64, usage: &str) -> f64 {
    parse_scale(args, default).unwrap_or_else(|e| {
        eprintln!("{e}\n{usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<f64, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_scale(&args, 0.25)
    }

    #[test]
    fn absent_flag_gives_the_default_and_valid_values_parse() {
        assert_eq!(parse(&["bin"]), Ok(0.25));
        assert_eq!(parse(&["bin", "--quick"]), Ok(0.25));
        assert_eq!(parse(&["bin", "--scale", "0.02"]), Ok(0.02));
        assert_eq!(parse(&["bin", "--quick", "--scale", "1"]), Ok(1.0));
    }

    #[test]
    fn missing_non_numeric_non_finite_and_non_positive_values_are_rejected() {
        let cases: &[(&[&str], &str)] = &[
            (&["bin", "--scale"], "needs a value"),
            (&["bin", "--scale", "big"], "bad --scale \"big\""),
            (&["bin", "--scale", "--quick"], "bad --scale \"--quick\""),
            (&["bin", "--scale", "inf"], "must be finite and > 0"),
            (&["bin", "--scale", "NaN"], "must be finite and > 0"),
            (&["bin", "--scale", "0"], "must be finite and > 0"),
            (&["bin", "--scale", "-1"], "must be finite and > 0"),
        ];
        for (args, want) in cases {
            let e = parse(args).expect_err("must be rejected");
            assert!(e.contains(want), "{args:?}: {e}");
        }
    }
}
