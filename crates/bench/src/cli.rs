//! Tiny argument parsing shared by the figure-reproduction binaries.

use crate::repro::{self, PanelResult, PanelSpec, PoolingSource, RffSource};

/// The flags `fig1` and `fig2` accept, after the binary name.
const USAGE: &str = "[--panel forest_cover|kddcup|caltech101|scenes|isolet|all] \
[--p 1,2,5,20] [--ratios 0.5,0.25,0.1] [--scale N] [--seed N] [--quick]";

/// A figure panel (or all of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Panel {
    ForestCover,
    Kddcup,
    Caltech101,
    Scenes,
    Isolet,
    All,
}

impl std::str::FromStr for Panel {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        Ok(match name {
            "forest_cover" => Panel::ForestCover,
            "kddcup" => Panel::Kddcup,
            "caltech101" => Panel::Caltech101,
            "scenes" => Panel::Scenes,
            "isolet" => Panel::Isolet,
            "all" => Panel::All,
            other => return Err(format!("unknown panel {other}")),
        })
    }
}

/// Parsed command line: the panel, the sweep, and the pooling `P`s.
#[derive(Debug, Clone)]
pub struct Args {
    pub panel: Panel,
    pub spec: PanelSpec,
    pub ps: Vec<f64>,
}

/// Parses `--panel <name>`, `--quick`, `--scale N`, `--seed N`,
/// `--p a,b,c` and `--ratios a,b,c` from `args` (without the binary name).
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut panel = Panel::All;
    // Per-panel ratio defaults apply unless overridden.
    let mut spec = PanelSpec {
        ratios: Vec::new(),
        ..PanelSpec::default()
    };
    let mut ps = vec![1.0, 2.0, 5.0, 20.0];
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--panel" => panel = value()?.parse()?,
            "--quick" => {
                let q = PanelSpec::quick();
                spec.ks = q.ks;
                spec.ratios = q.ratios;
                ps = vec![2.0];
            }
            "--scale" => spec.scale = parse_number(&arg, &value()?)?,
            "--seed" => spec.seed = parse_number(&arg, &value()?)?,
            "--p" => ps = parse_list(&arg, &value()?)?,
            "--ratios" => spec.ratios = parse_list(&arg, &value()?)?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args { panel, spec, ps })
}

/// `parse_args` over the process arguments; on an error, prints it and
/// the usage to stderr and exits with status 2.
pub fn args_or_exit(bin: &str) -> Args {
    parse_args(std::env::args().skip(1)).unwrap_or_else(|err| {
        eprintln!("{bin}: {err}\nusage: {bin} {USAGE}");
        std::process::exit(2)
    })
}

fn parse_number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag} needs a number, got {text:?}"))
}

fn parse_list(flag: &str, text: &str) -> Result<Vec<f64>, String> {
    text.split(',').map(|x| parse_number(flag, x)).collect()
}

/// Runs the selected panels.
pub fn panels(which: Panel, spec: &PanelSpec, ps: &[f64]) -> Vec<PanelResult> {
    let mut default_ratio_spec = spec.clone();
    if default_ratio_spec.ratios.is_empty() {
        default_ratio_spec.ratios = vec![0.5, 0.25, 0.1];
    }
    let mut out = Vec::new();
    let run_rff = |src| {
        let mut s = spec.clone();
        if s.ratios.is_empty() {
            s.ratios = match src {
                RffSource::ForestCover => vec![0.5, 0.25, 0.1],
                RffSource::Kddcup => vec![0.1, 0.05, 0.01],
            };
        }
        repro::rff_panel(src, &s)
    };
    match which {
        Panel::ForestCover => out.push(run_rff(RffSource::ForestCover)),
        Panel::Kddcup => out.push(run_rff(RffSource::Kddcup)),
        Panel::Caltech101 => {
            for &p in ps {
                out.push(repro::pooling_panel(
                    PoolingSource::Caltech101,
                    p,
                    &default_ratio_spec,
                ));
            }
        }
        Panel::Scenes => {
            for &p in ps {
                out.push(repro::pooling_panel(
                    PoolingSource::Scenes,
                    p,
                    &default_ratio_spec,
                ));
            }
        }
        Panel::Isolet => out.push(repro::isolet_panel(&default_ratio_spec)),
        Panel::All => {
            out.push(run_rff(RffSource::ForestCover));
            out.push(run_rff(RffSource::Kddcup));
            for &p in ps {
                out.push(repro::pooling_panel(
                    PoolingSource::Caltech101,
                    p,
                    &default_ratio_spec,
                ));
            }
            for &p in ps {
                out.push(repro::pooling_panel(
                    PoolingSource::Scenes,
                    p,
                    &default_ratio_spec,
                ));
            }
            out.push(repro::isolet_panel(&default_ratio_spec));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_every_flag() {
        let a =
            parse("--panel isolet --quick --scale 2 --seed 9 --p 1,5 --ratios 0.5,0.1").unwrap();
        assert_eq!(a.panel, Panel::Isolet);
        assert_eq!((a.spec.scale, a.spec.seed), (2, 9));
        assert_eq!(a.spec.ks, PanelSpec::quick().ks);
        assert_eq!(a.ps, [1.0, 5.0]);
        assert_eq!(a.spec.ratios, [0.5, 0.1]);
        let d = parse("").unwrap();
        assert_eq!(d.panel, Panel::All);
        assert!(d.spec.ratios.is_empty(), "per-panel ratio defaults apply");
    }

    #[test]
    fn bogus_panel_is_an_error() {
        let err = parse("--panel bogus").unwrap_err();
        assert!(err.contains("unknown panel bogus"), "{err}");
    }

    #[test]
    fn missing_value_is_an_error() {
        for flag in ["--panel", "--scale", "--seed", "--p", "--ratios"] {
            let err = parse(flag).unwrap_err();
            assert!(err.contains("needs a value"), "{flag}: {err}");
        }
    }

    #[test]
    fn bad_number_and_unknown_flag_are_errors() {
        assert!(parse("--scale two")
            .unwrap_err()
            .contains("--scale needs a number"));
        assert!(parse("--seed -1").unwrap_err().contains("--seed"));
        assert!(parse("--p 1,x").unwrap_err().contains("\"x\""));
        assert!(parse("--ratios 0.5,").is_err());
        assert!(parse("--frobnicate")
            .unwrap_err()
            .contains("unknown argument"));
    }
}
