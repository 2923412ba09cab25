//! `coserved` — the standalone streaming co-analysis daemon.
//!
//! Binds a line-delimited TCP ingest socket and a minimal HTTP front-end,
//! queues records for one online analyzer, and serves live results:
//!
//! ```text
//! coserved --ingest 127.0.0.1:7070 --http 127.0.0.1:7071
//! cat ras.log | nc 127.0.0.1 7070        # stream records in
//! curl http://127.0.0.1:7071/summary     # watch the counters
//! curl http://127.0.0.1:7071/shutdown    # drain and exit
//! ```
//!
//! `coctl serve` is an alias for this binary. Exit codes: 0 success,
//! 1 usage error, 2 runtime failure.

use bgp_coanalysis::bgp_serve::{self, ServeConfig, ServeError};
use std::process::ExitCode;

fn usage() {
    eprintln!(
        "coserved — streaming RAS co-analysis daemon\n\n\
         usage: coserved [flags]\n{}\n\
         endpoints: GET /healthz /metrics /events /summary /analysis /shutdown",
        bgp_serve::config::FLAGS_HELP
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args
        .first()
        .is_some_and(|a| a == "--help" || a == "-h" || a == "help")
    {
        usage();
        return ExitCode::SUCCESS;
    }
    let cfg = match ServeConfig::from_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            return ExitCode::FAILURE;
        }
    };
    match bgp_serve::run(&cfg, &mut std::io::stdout()) {
        Ok(_summary) => ExitCode::SUCCESS,
        Err(e @ ServeError::Config(_)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
