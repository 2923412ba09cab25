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
        "coserved — streaming RAS co-analysis daemon\n\
         \n\
         usage: coserved [flags]\n\
         \x20 --ingest ADDR      TCP ingest listen address   (default 127.0.0.1:7070)\n\
         \x20 --http ADDR        HTTP listen address         (default 127.0.0.1:7071)\n\
         \x20 --queue-cap N      ingest queue capacity       (default 4096)\n\
         \x20 --ring N           /events ring capacity       (default 256)\n\
         \x20 --max-line BYTES   ingest line length limit    (default 65536)\n\
         \x20 --impact FILE      offline impact verdicts (coctl analyze --impact-out)\n\
         \x20 --tail FILE        also tail FILE for records\n\
         \x20 --format NAME      ingest line format          (default bgp; or syslog)\n\
         \x20 --replay FILE      replay a .bgpcas cassette, then drain and exit\n\
         \x20 --record FILE      record ingested chunks to a .bgpcas cassette\n\
         \x20 --temporal-secs S  temporal dedup threshold    (default 300)\n\
         \x20 --spatial-secs S   spatial dedup threshold     (default 300)\n\
         \x20 --full-analysis    serve the complete co-analysis at /analysis,\n\
         \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20  folded incrementally per ingest batch\n\
         \x20 --jobs FILE        job log for --full-analysis\n\
         \x20 --threads N        worker threads for the --full-analysis folds\n\
         \n\
         endpoints: GET /healthz /metrics /events /summary /analysis /shutdown"
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
