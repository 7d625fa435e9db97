//! The command lines of the bench binaries: `fig1` and `fig2` take panel
//! and sweep flags ([`args_or_exit`]); the six `BENCH_*.json` sweeps take
//! `--quick` and `--out PATH` only ([`sweep`], their whole `main`). On a
//! bad flag every binary prints the usage and exits with status 2.

use crate::repro::{self, PanelResult, PanelSpec, PoolingSource, RffSource};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The flags `fig1` and `fig2` accept, after the binary name.
const USAGE: &str = "[--panel forest_cover|kddcup|caltech101|scenes|isolet|all] \
[--p 1,2,5,20] [--ratios 0.5,0.25,0.1] [--scale N] [--seed N] [--quick]";

/// The flags every sweep binary accepts, after the binary name.
const SWEEP_USAGE: &str = "[--quick] [--out PATH]";

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
    parse_args(std::env::args().skip(1)).unwrap_or_else(|err| usage_exit(bin, USAGE, &err))
}

fn usage_exit(bin: &str, usage: &str, err: &str) -> ! {
    eprintln!("{bin}: {err}\nusage: {bin} {usage}");
    std::process::exit(2)
}

fn parse_number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag} needs a number, got {text:?}"))
}

fn parse_list(flag: &str, text: &str) -> Result<Vec<f64>, String> {
    text.split(',').map(|x| parse_number(flag, x)).collect()
}

/// Runs the selected panels, in the figure's order.
pub fn panels(which: Panel, spec: &PanelSpec, ps: &[f64]) -> Vec<PanelResult> {
    // Each panel sweeps its own ratios unless `--ratios` set them.
    let with_ratios = |ratios: &[f64]| {
        let mut s = spec.clone();
        if s.ratios.is_empty() {
            s.ratios = ratios.to_vec();
        }
        s
    };
    let standard = with_ratios(&[0.5, 0.25, 0.1]);
    let rff = |src| match src {
        RffSource::ForestCover => repro::rff_panel(src, &standard),
        RffSource::Kddcup => repro::rff_panel(src, &with_ratios(&[0.1, 0.05, 0.01])),
    };
    let pooling = |src| -> Vec<PanelResult> {
        ps.iter()
            .map(|&p| repro::pooling_panel(src, p, &standard))
            .collect()
    };
    match which {
        Panel::ForestCover => vec![rff(RffSource::ForestCover)],
        Panel::Kddcup => vec![rff(RffSource::Kddcup)],
        Panel::Caltech101 => pooling(PoolingSource::Caltech101),
        Panel::Scenes => pooling(PoolingSource::Scenes),
        Panel::Isolet => vec![repro::isolet_panel(&standard)],
        Panel::All => {
            let mut out = vec![rff(RffSource::ForestCover), rff(RffSource::Kddcup)];
            out.extend(pooling(PoolingSource::Caltech101));
            out.extend(pooling(PoolingSource::Scenes));
            out.push(repro::isolet_panel(&standard));
            out
        }
    }
}

/// A finished sweep: the JSON document it publishes, and the checks that
/// must hold before it may be published.
pub trait Report {
    /// The `BENCH_*.json` document.
    fn to_json(&self) -> String;
    /// Every failed check, human-readable; empty when the numbers may be
    /// published. A sweep that only times has none.
    fn violations(&self) -> Vec<String> {
        Vec::new()
    }
}

/// A sweep binary's command line.
#[derive(Debug, Default, PartialEq, Eq)]
struct SweepArgs {
    quick: bool,
    out: Option<PathBuf>,
}

/// Parses `--quick` and `--out PATH` from `args` (without the binary name).
fn parse_sweep_args(args: impl IntoIterator<Item = String>) -> Result<SweepArgs, String> {
    let mut parsed = SweepArgs::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(args.next().ok_or("--out needs a value")?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// The whole `main` of a sweep binary. `--quick` runs `quick()`, and no
/// flag runs `Spec::default()`. The report's JSON document is the only
/// output: it goes to `--out PATH`, or to stdout without it. A bad flag
/// prints the usage and exits 2. A report with violations prints each one
/// to stderr, writes nothing and exits 1.
pub fn sweep<Spec: Default, R: Report>(
    bin: &str,
    quick: fn() -> Spec,
    run: fn(&Spec) -> R,
) -> ExitCode {
    let args = parse_sweep_args(std::env::args().skip(1))
        .unwrap_or_else(|err| usage_exit(bin, SWEEP_USAGE, &err));
    let spec = if args.quick { quick() } else { Spec::default() };
    match publish(&run(&spec), args.out.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(problems) => {
            for problem in problems {
                eprintln!("{bin}: {problem}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Writes the report's document to `out`, or to stdout without it. A
/// report with violations writes nothing and returns them.
fn publish(report: &impl Report, out: Option<&Path>) -> Result<(), Vec<String>> {
    let violations = report.violations();
    if !violations.is_empty() {
        return Err(violations);
    }
    let json = report.to_json();
    match out {
        Some(path) => std::fs::write(path, json)
            .map_err(|err| vec![format!("cannot write {}: {err}", path.display())]),
        None => {
            print!("{json}");
            Ok(())
        }
    }
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

    fn parse_sweep(line: &str) -> Result<SweepArgs, String> {
        parse_sweep_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn sweep_takes_quick_and_out_only() {
        assert_eq!(parse_sweep("").unwrap(), SweepArgs::default());
        let both = parse_sweep("--quick --out b.json").unwrap();
        assert!(both.quick);
        assert_eq!(both.out.as_deref(), Some(Path::new("b.json")));
        assert_eq!(parse_sweep("--out b.json --quick").unwrap(), both);
        for bad in ["--threads 1", "--quick --reps 3", "bench.json"] {
            let err = parse_sweep(bad).unwrap_err();
            assert!(err.contains("unknown argument"), "{bad}: {err}");
        }
        let err = parse_sweep("--quick --out").unwrap_err();
        assert!(err.contains("--out needs a value"), "{err}");
    }

    /// A report that publishes `{}` unless it carries violations.
    struct Stub(Vec<String>);

    impl Report for Stub {
        fn to_json(&self) -> String {
            "{}\n".into()
        }
        fn violations(&self) -> Vec<String> {
            self.0.clone()
        }
    }

    #[test]
    fn a_report_with_violations_writes_nothing() {
        let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"));
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join(format!("dlra_cli_test_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let failed = Stub(vec!["a".into(), "b".into()]);
        assert_eq!(
            publish(&failed, Some(&path)),
            Err(vec!["a".into(), "b".into()])
        );
        assert!(!path.exists(), "a failed check must not publish");
        assert_eq!(publish(&Stub(Vec::new()), Some(&path)), Ok(()));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}\n");
        std::fs::remove_file(&path).unwrap();
    }
}
