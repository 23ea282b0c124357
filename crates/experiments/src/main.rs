//! `tcast-experiments` — regenerate every figure/table of the paper.
//!
//! ```text
//! tcast-experiments <fig1|fig2|...|fig11|error-table|all> [options]
//!
//! options:
//!   --runs N       repetitions per sweep point      (default 1000)
//!   --n N          population size                  (default 128; fig7: 32)
//!   --t T          threshold                        (default 16;  fig7: 8)
//!   --seed S       base seed                        (default 20110516)
//!   --testbed-runs R   runs per testbed config      (default 100)
//!   --threads N    sweep worker-pool size           (default: one per core)
//!   --fast         caps runs at 100 / testbed at 20 (smoke mode)
//!   --csv          emit CSV instead of markdown
//!   --out DIR      also write <id>.md and <id>.csv files into DIR
//! ```

use std::env;
use std::process::ExitCode;

use tcast_experiments::chart::render_chart;
use tcast_experiments::cluster;
use tcast_experiments::extensions::{ablations, counting, energy, interference, monitoring};
use tcast_experiments::figures::{
    adversary, fig1, fig10, fig11, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, loss,
};
use tcast_experiments::top;
use tcast_experiments::trace as trace_cmd;
use tcast_experiments::{Figure, SweepSpec, Table};
use tcast_motes::TestbedConfig;

#[derive(Debug, Clone)]
struct Options {
    runs: usize,
    n: Option<usize>,
    t: Option<usize>,
    seed: u64,
    testbed_runs: usize,
    threads: usize,
    fast: bool,
    csv: bool,
    ascii: bool,
    out: Option<String>,
    servers: Vec<String>,
    once: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            runs: 1000,
            n: None,
            t: None,
            seed: 20_110_516,
            testbed_runs: 100,
            threads: 0,
            fast: false,
            csv: false,
            ascii: false,
            out: None,
            servers: Vec::new(),
            once: false,
        }
    }
}

impl Options {
    fn spec(&self) -> SweepSpec {
        let mut spec = SweepSpec::paper_default(self.seed);
        spec.runs = self.runs;
        if let Some(n) = self.n {
            spec.n = n;
        }
        if let Some(t) = self.t {
            spec.t = t;
        }
        if self.fast {
            spec = spec.fast();
        }
        spec
    }

    fn prob_spec(&self) -> fig9::ProbSpec {
        let mut spec = fig9::ProbSpec::paper_default(self.seed);
        if let Some(n) = self.n {
            spec.n = n;
        }
        spec.runs = if self.fast {
            self.runs.min(150)
        } else {
            self.runs
        };
        spec
    }

    fn testbed(&self) -> TestbedConfig {
        TestbedConfig {
            runs_per_config: if self.fast {
                self.testbed_runs.min(20)
            } else {
                self.testbed_runs
            },
            ..TestbedConfig::default()
        }
    }
}

fn parse(args: &[String]) -> Result<(Vec<String>, Options), String> {
    let mut opts = Options::default();
    let mut commands = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--runs" => {
                opts.runs = take("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--n" => opts.n = Some(take("--n")?.parse().map_err(|e| format!("--n: {e}"))?),
            "--t" => opts.t = Some(take("--t")?.parse().map_err(|e| format!("--t: {e}"))?),
            "--seed" => {
                opts.seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--testbed-runs" => {
                opts.testbed_runs = take("--testbed-runs")?
                    .parse()
                    .map_err(|e| format!("--testbed-runs: {e}"))?
            }
            "--threads" => {
                opts.threads = take("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--servers" => {
                opts.servers = take("--servers")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if opts.servers.is_empty() {
                    return Err("--servers: expected host:port[,host:port...]".into());
                }
            }
            "--once" => opts.once = true,
            "--fast" => opts.fast = true,
            "--csv" => opts.csv = true,
            "--ascii" => opts.ascii = true,
            "--out" => opts.out = Some(take("--out")?),
            "--help" | "-h" => {
                commands.clear();
                commands.push("help".to_string());
                return Ok((commands, opts));
            }
            cmd if !cmd.starts_with('-') => commands.push(cmd.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if commands.is_empty() {
        commands.push("help".to_string());
    }
    Ok((commands, opts))
}

fn emit_figure(fig: &Figure, opts: &Options) {
    if opts.ascii {
        print!("{}", render_chart(fig, 72, 20));
    } else if opts.csv {
        print!("{}", fig.to_csv());
    } else {
        print!("{}", fig.to_markdown());
    }
    write_out(opts, &fig.id, &fig.to_markdown(), &fig.to_csv());
}

fn emit_table(table: &Table, opts: &Options) {
    if opts.csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_markdown());
    }
    write_out(opts, &table.id, &table.to_markdown(), &table.to_csv());
}

/// Persists one artifact as `<dir>/<id>.md` and `<dir>/<id>.csv`.
fn write_out(opts: &Options, id: &str, md: &str, csv: &str) {
    let Some(dir) = &opts.out else {
        return;
    };
    let dir = std::path::Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    for (ext, body) in [("md", md), ("csv", csv)] {
        let path = dir.join(format!("{id}.{ext}"));
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}

fn run_command(cmd: &str, opts: &Options) -> Result<(), String> {
    match cmd {
        "fig1" => emit_figure(&fig1::build(opts.spec()), opts),
        "fig2" => emit_figure(&fig2::build(opts.spec()), opts),
        "fig3" => emit_figure(&fig3::build(opts.spec()), opts),
        "fig4" | "error-table" => {
            let (fig, table) = fig4::build(&opts.testbed(), opts.seed);
            if cmd == "fig4" {
                emit_figure(&fig, opts);
            }
            emit_table(&table, opts);
        }
        "fig5" => emit_figure(&fig5::build(opts.spec()), opts),
        "fig6" => emit_figure(&fig6::build(opts.spec()), opts),
        "fig7" => {
            // Paper parameters N=32, t=8 unless overridden.
            let mut spec = fig7::paper_spec(opts.seed, opts.spec().runs);
            if let Some(n) = opts.n {
                spec.n = n;
            }
            if let Some(t) = opts.t {
                spec.t = t;
            }
            emit_figure(&fig7::build(spec), opts);
        }
        "fig8" => emit_table(&fig8::build(opts.n.unwrap_or(128), 4.0), opts),
        "fig9" => emit_figure(&fig9::build(opts.prob_spec()), opts),
        "fig10" => {
            let mut spec = opts.prob_spec();
            // The min-r search multiplies cost; trim trials accordingly.
            spec.runs = spec.runs.min(400);
            emit_figure(&fig10::build(spec), opts);
        }
        "fig11" => emit_table(
            &fig11::build(opts.n.unwrap_or(128), 4.0, 100_000, opts.seed),
            opts,
        ),
        "loss" => {
            let (error, overhead) = loss::build(opts.spec());
            emit_figure(&error, opts);
            emit_figure(&overhead, opts);
        }
        "adversary" => {
            let (error, overhead) = adversary::build(opts.spec());
            emit_figure(&error, opts);
            emit_figure(&overhead, opts);
        }
        "interference" => {
            let sweep = interference::InterferenceSweep {
                queries_per_cell: if opts.fast { 150 } else { 400 },
                seed: opts.seed,
                ..interference::InterferenceSweep::default()
            };
            emit_table(&interference::build(&sweep), opts);
        }
        "counting" => {
            let mut spec = opts.spec();
            spec.runs = spec.runs.min(300);
            emit_table(&counting::build(spec), opts);
        }
        "monitoring" => {
            let sweep = monitoring::MonitorSweep {
                traces: if opts.fast { 10 } else { 40 },
                seed: opts.seed,
                ..monitoring::MonitorSweep::default()
            };
            emit_table(&monitoring::build(&sweep), opts);
        }
        "energy" => {
            let sweep = energy::EnergySweep {
                runs: if opts.fast { 10 } else { 30 },
                seed: opts.seed,
                ..energy::EnergySweep::default()
            };
            emit_table(&energy::build(&sweep), opts);
        }
        "ablations" => emit_table(&ablations::build(), opts),
        "cluster" => {
            let spec = cluster::ClusterSpec {
                jobs: if opts.fast {
                    opts.runs.min(100)
                } else {
                    opts.runs
                },
                n: opts.n.unwrap_or(64),
                t: opts.t.unwrap_or(8),
                seed: opts.seed,
                servers: opts.servers.clone(),
            };
            emit_table(&cluster::run(&spec)?, opts);
        }
        "ext" => {
            for c in [
                "interference",
                "counting",
                "monitoring",
                "energy",
                "ablations",
            ] {
                eprintln!("[tcast-experiments] running {c} ...");
                run_command(c, opts)?;
            }
        }
        "all" => {
            for c in [
                "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                "fig11",
            ] {
                eprintln!("[tcast-experiments] running {c} ...");
                run_command(c, opts)?;
            }
        }
        "trace" => {
            // A traced loopback sweep: every job carries a fresh TraceId
            // across the wire; the trace command folds the records into a
            // per-phase latency table, the slowest queries, and the
            // server's wire-fetched Prometheus exposition.
            let jsonl = opts.out.as_ref().map(|d| {
                let dir = std::path::Path::new(d);
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("warning: cannot create {}: {e}", dir.display());
                }
                dir.join("trace.jsonl")
            });
            let spec = trace_cmd::TraceSpec {
                jobs: if opts.fast {
                    opts.runs.min(48)
                } else {
                    opts.runs.min(192)
                },
                n: opts.n.unwrap_or(64),
                t: opts.t.unwrap_or(8),
                seed: opts.seed,
                slowest: 3,
                jsonl,
            };
            let run = trace_cmd::run(&spec)?;
            emit_table(&run.table, opts);
            println!("{}", run.slowest);
            println!("== server metrics over the wire (Prometheus exposition) ==\n");
            print!("{}", run.exposition);
            if let Some(path) = &run.jsonl {
                eprintln!("[tcast-experiments] wrote {}", path.display());
            }
        }
        "top" => {
            let spec = top::TopSpec {
                servers: opts.servers.clone(),
                once: opts.once,
                warmup_jobs: if opts.fast { 24 } else { 48 },
                seed: opts.seed,
                ..top::TopSpec::default()
            };
            top::run(&spec)?;
        }
        "help" => {
            println!("{}", HELP);
        }
        other => return Err(format!("unknown command {other} (try `help`)")),
    }
    Ok(())
}

const HELP: &str = "\
tcast-experiments — regenerate the paper's figures and tables

usage: tcast-experiments <command>... [options]

commands:
  fig1         tcast vs CSMA vs sequential, 1+ model
  fig2         1+ vs 2+ collision models
  fig3         cost vs threshold (x = 4)
  fig4         mote testbed (full PHY) + error table
  error-table  only the Section IV-D error statistics
  fig5         ABNS vs 2tBins vs oracle
  fig6         probabilistic ABNS
  fig7         probabilistic ABNS vs CSMA (N=32, t=8)
  fig8         Delta-gap anatomy table
  fig9         probabilistic-model accuracy vs d
  fig10        repeats needed for 95% success
  fig11        bimodal x distribution histograms
  all          every figure above
  loss         wrong verdicts & overhead vs reply loss, retries 0/1/2
  adversary    Byzantine robustness campaign: undetected wrong verdicts &
               overhead per algorithm x adversary model x defense setting
  interference backcast vs pollcast under foreign traffic (extension)
  counting     exact counting (countcast) vs threshold querying (extension)
  monitoring   warm-started epoch monitoring (extension)
  energy       full-stack time & energy comparison (extension)
  ablations    DESIGN.md §3's design choices on fixed seeds: mean cost and
               wrong verdicts (extension)
  ext          all five extension studies
  cluster      fan `--runs` jobs across a sharded server cluster
               (--servers host:port,... or a self-hosted loopback trio)
               and verify every report against an in-process run
  trace        traced loopback sweep: per-phase latency breakdown
               (queue/engine/retry/wire), slowest queries round by round,
               and the server's wire-fetched Prometheus exposition
               (--out DIR also writes DIR/trace.jsonl)
  top          live per-shard dashboard: conns, queue-wait p50/p99,
               batch size, defenses, anomalies, SLO budget + burn, and
               tail-sampled trace counts, polled over the wire
               (--servers host:port,... or a self-hosted loopback trio;
               --once prints one machine-readable snapshot and exits)

options:
  --runs N   --n N   --t T   --seed S   --testbed-runs R   --threads N
  --servers host:port,...   --once   --fast   --csv   --ascii   --out DIR";

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match parse(&args) {
        Ok((commands, opts)) => {
            tcast_experiments::set_threads(opts.threads);
            for cmd in &commands {
                if let Err(e) = run_command(cmd, &opts) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_commands_and_options() {
        let (cmds, opts) = parse(&args(&[
            "fig1", "fig5", "--runs", "50", "--seed", "9", "--csv",
        ]))
        .unwrap();
        assert_eq!(cmds, ["fig1", "fig5"]);
        assert_eq!(opts.runs, 50);
        assert_eq!(opts.seed, 9);
        assert!(opts.csv);
        assert!(!opts.fast);
    }

    #[test]
    fn defaults_to_help() {
        let (cmds, _) = parse(&args(&[])).unwrap();
        assert_eq!(cmds, ["help"]);
        let (cmds, _) = parse(&args(&["--help"])).unwrap();
        assert_eq!(cmds, ["help"]);
    }

    #[test]
    fn rejects_unknown_options_and_bad_values() {
        assert!(parse(&args(&["--bogus"])).is_err());
        assert!(parse(&args(&["--runs"])).is_err(), "missing value");
        assert!(parse(&args(&["--runs", "many"])).is_err(), "non-numeric");
    }

    #[test]
    fn threads_flag_is_parsed() {
        let (_, opts) = parse(&args(&["fig1", "--threads", "4"])).unwrap();
        assert_eq!(opts.threads, 4);
        let (_, opts) = parse(&args(&["fig1"])).unwrap();
        assert_eq!(opts.threads, 0, "default: one worker per core");
        assert!(parse(&args(&["--threads", "x"])).is_err());
    }

    #[test]
    fn servers_flag_splits_on_commas() {
        let (cmds, opts) = parse(&args(&["cluster", "--servers", "a:1,b:2"])).unwrap();
        assert_eq!(cmds, ["cluster"]);
        assert_eq!(opts.servers, ["a:1", "b:2"]);
        let (_, opts) = parse(&args(&["cluster"])).unwrap();
        assert!(opts.servers.is_empty(), "default: self-hosted loopback");
        assert!(parse(&args(&["--servers", ","])).is_err(), "empty list");
        assert!(parse(&args(&["--servers"])).is_err(), "missing value");
    }

    #[test]
    fn once_flag_is_parsed() {
        let (cmds, opts) = parse(&args(&["top", "--once"])).unwrap();
        assert_eq!(cmds, ["top"]);
        assert!(opts.once);
        let (_, opts) = parse(&args(&["top"])).unwrap();
        assert!(!opts.once, "default: live refreshing dashboard");
    }

    #[test]
    fn out_dir_is_parsed() {
        let (_, opts) = parse(&args(&["fig8", "--out", "results"])).unwrap();
        assert_eq!(opts.out.as_deref(), Some("results"));
    }

    #[test]
    fn fast_caps_runs() {
        let (_, opts) = parse(&args(&["fig1", "--fast"])).unwrap();
        assert_eq!(opts.spec().runs, 100);
        let (_, opts) = parse(&args(&["fig1", "--fast", "--runs", "40"])).unwrap();
        assert_eq!(opts.spec().runs, 40);
    }

    #[test]
    fn n_and_t_overrides_flow_into_specs() {
        let (_, opts) = parse(&args(&["fig1", "--n", "64", "--t", "8"])).unwrap();
        let spec = opts.spec();
        assert_eq!((spec.n, spec.t), (64, 8));
    }

    #[test]
    fn unknown_command_fails_at_dispatch() {
        let (_, opts) = parse(&args(&["figN"])).unwrap();
        assert!(run_command("figN", &opts).is_err());
    }
}
