//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics untraced, the per-layer metrics traced. Above it: the run's
//! attribution (commit, seed, host, plan, tuned variants), sample
//! counts, every metric with its unit and, traced, each layer's self
//! time and the tracing overhead. The span trace of a traced run is
//! written to `perfbench/out/`.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::workload::Workload;
use perfbench::{report, spans, Config};

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 7;
/// Environment knobs that change what the program runs; a benchmark of
/// record measures the program as users run it, so it refuses them.
const KNOBS: [&str; 3] = ["DSK_LOCAL_KERNEL", "DSK_THREADS", "DSK_SHIFT_PIPELINE"];
/// How long to wait for spawned rank processes to exit.
const CHILD_WAIT: Duration = Duration::from_secs(60);
/// The temporary directory the run uses: the socket launcher puts its
/// rendezvous sockets there. It lies inside the checkout, and is relative
/// so socket paths stay short (rank processes share the working
/// directory).
const TMP_DIR: &str = "perfbench/out/tmp";

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config::new(workload, seed, seconds, trace))
}

/// Pids of this process's live children, read from `/proc`.
fn children() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("children")).ok())
        .flat_map(|s| s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
        .collect()
}

/// Remove this process's socket rendezvous directories (the launcher
/// removes them from a thread that may not finish before exit).
fn remove_rendezvous_dirs() {
    let prefix = format!("dsk-sock-{}-", std::process::id());
    let Ok(entries) = std::fs::read_dir(TMP_DIR) else {
        return;
    };
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

fn write_trace(cfg: &Config, spans_json: &str) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        cfg.workload.name(),
        cfg.seed
    ));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans_json)) {
        Ok(()) => println!("trace: {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(k) = KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!("perfbench: {k} is set; unset it to measure the program as users run it");
        return ExitCode::from(2);
    }

    if let Err(e) = std::fs::create_dir_all(TMP_DIR) {
        eprintln!("perfbench: cannot create {TMP_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    // Set before any thread starts; rank processes inherit it.
    std::env::set_var("TMPDIR", TMP_DIR);

    // The workload runs on its own (unnamed) thread so that its socket
    // process pool, which lives in that thread's storage, is torn down
    // when the thread ends; the spawned rank processes then exit and
    // are waited for below.
    let worker = std::thread::spawn(move || {
        let record = perfbench::run(&cfg)?;
        let metrics = if cfg.trace {
            report::per_layer(&record)
        } else {
            report::end_to_end(&record)
        };
        Some((record, metrics))
    })
    .join();
    let deadline = Instant::now() + CHILD_WAIT;
    while !children().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let (record, metrics) = match worker {
        Ok(Some(done)) => done,
        // A spawned rank process: it only takes part in the epochs.
        Ok(None) => return ExitCode::SUCCESS,
        Err(_) => {
            eprintln!("perfbench: the run panicked; no result");
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = &record.traced {
        if let Err(e) = spans::check_nesting(&t.spans) {
            eprintln!("perfbench: malformed trace: {e}");
            return ExitCode::FAILURE;
        }
        write_trace(&record.cfg, &spans::to_chrome_json(&t.spans));
    }
    remove_rendezvous_dirs();
    print!("{}", report::human(&record, &metrics));
    println!("{}", report::result_line(&record, &metrics));
    if !children().is_empty() {
        eprintln!("perfbench: rank processes still running after {CHILD_WAIT:?}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
